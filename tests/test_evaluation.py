"""Unit tests for metrics and document splits."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devicesurv.errors import ConfigError
from devicesurv.evaluation import (
    Metrics,
    f1_from_pr,
    metrics_to_csv,
    prf1,
    split_documents,
)


class TestMetrics:
    def test_counts_to_percentages(self):
        m = Metrics(tp=8, fp=2, fn=4)
        assert m.precision == pytest.approx(80.0)
        assert m.recall == pytest.approx(100.0 * 8 / 12)
        assert m.f1 == pytest.approx(f1_from_pr(m.precision, m.recall))

    def test_zero_denominators(self):
        m = Metrics(tp=0, fp=0, fn=0)
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)

    def test_f1_from_pr_harmonic_mean(self):
        assert f1_from_pr(100.0, 50.0) == pytest.approx(200.0 / 3)
        assert f1_from_pr(0.0, 0.0) == 0.0


class TestPRF1:
    def test_union_of_keys(self):
        predictions = {"a": 0.9, "b": 0.9, "c": 0.1}
        gold = {"a": 1, "b": 0, "d": 1}
        m = prf1(predictions, gold)
        # a: tp, b: fp, c: pred-negative and absent from gold, d: fn.
        assert (m.tp, m.fp, m.fn) == (1, 1, 1)

    def test_missing_prediction_is_negative(self):
        m = prf1({}, {"a": 1, "b": 0})
        assert (m.tp, m.fp, m.fn) == (0, 0, 1)

    def test_threshold_applied(self):
        m = prf1({"a": 0.6}, {"a": 1}, threshold=0.7)
        assert (m.tp, m.fp, m.fn) == (0, 0, 1)
        m = prf1({"a": 0.7}, {"a": 1}, threshold=0.7)
        assert (m.tp, m.fp, m.fn) == (1, 0, 0)


class TestSplits:
    def test_exact_sizes(self):
        ids = [f"d{i:03d}" for i in range(802)]
        train, dev, test = split_documents(ids, seed=0, sizes=(150, 19, 633))
        assert (len(train), len(dev), len(test)) == (150, 19, 633)
        assert train | dev | test == set(ids)
        assert not (train & dev or train & test or dev & test)

    def test_oversized_split_rejected(self):
        with pytest.raises(ConfigError):
            split_documents(["a", "b"], seed=0, sizes=(2, 1, 0))

    def test_seed_determinism_and_sensitivity(self):
        ids = [f"d{i}" for i in range(100)]
        a = split_documents(ids, seed=5, sizes=(50, 20, 30))
        b = split_documents(ids, seed=5, sizes=(50, 20, 30))
        c = split_documents(ids, seed=6, sizes=(50, 20, 30))
        assert a == b
        assert a != c

    def test_input_order_irrelevant(self):
        ids = [f"d{i}" for i in range(30)]
        a = split_documents(ids, seed=1, sizes=(10, 10, 10))
        b = split_documents(list(reversed(ids)), seed=1, sizes=(10, 10, 10))
        assert a == b

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_partition_property(self, seed):
        ids = [f"d{i}" for i in range(40)]
        train, dev, test = split_documents(ids, seed=seed, sizes=(20, 10, 10))
        assert len(train) + len(dev) + len(test) == 40
        assert train | dev | test == set(ids)


class TestCsv:
    def test_metrics_csv(self, tmp_path):
        path = tmp_path / "m.csv"
        metrics_to_csv(Metrics(tp=8, fp=2, fn=4), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "precision,recall,f1,tp,fp,fn"
        assert lines[1] == "80.0,66.7,72.7,8,2,4"
