"""Unit and property tests for the LF engine and generative label model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devicesurv import synth
from devicesurv.errors import ConfigError, FitError, InputFormatError
from devicesurv.weaksup import (
    ABSTAIN,
    FALSE,
    TRUE,
    LabelMatrix,
    LabelingFunction,
    ProbabilisticLabel,
    apply_lfs,
    covered_candidate_ids,
    fit_label_model,
    labels_from_csv,
    labels_to_csv,
    lf_statistics,
    posterior_labels,
    soft_majority_vote,
)


def _matrix(rows, lf_ids=None):
    votes = np.array(rows, dtype=np.int8)
    n, m = votes.shape
    return LabelMatrix(
        candidate_ids=[f"c{i}" for i in range(n)],
        lf_ids=lf_ids or [f"lf{j}" for j in range(m)],
        votes=votes,
    )


vote_rows = st.lists(
    st.lists(st.sampled_from([TRUE, FALSE, ABSTAIN]), min_size=3, max_size=3),
    min_size=1,
    max_size=30,
)


class FakeCandidate:
    def __init__(self, cid, relation_type="pain-anatomy", payload=0):
        self.candidate_id = cid
        self.relation_type = relation_type
        self.payload = payload


class TestApplyLFs:
    def test_zero_candidates(self):
        lf = LabelingFunction("lf0", "pain-anatomy", lambda c: TRUE)
        matrix = apply_lfs([], [lf])
        assert matrix.votes.shape == (0, 1)

    def test_votes_recorded(self):
        lfs = [
            LabelingFunction("lf_t", "pain-anatomy", lambda c: TRUE),
            LabelingFunction("lf_a", "pain-anatomy", lambda c: ABSTAIN),
            LabelingFunction("lf_f", "pain-anatomy", lambda c: FALSE),
        ]
        matrix = apply_lfs([FakeCandidate("c0")], lfs)
        assert matrix.votes.tolist() == [[TRUE, ABSTAIN, FALSE]]

    def test_raising_lf_abstains_and_counts(self):
        def boom(c):
            raise RuntimeError("internal")

        lfs = [LabelingFunction("lf_boom", "pain-anatomy", boom)]
        matrix = apply_lfs([FakeCandidate("c0"), FakeCandidate("c1")], lfs)
        assert matrix.votes.tolist() == [[ABSTAIN], [ABSTAIN]]
        assert matrix.lf_errors == {"lf_boom": 2}

    def test_relation_type_mismatch(self):
        lf = LabelingFunction("lf0", "implant-complication", lambda c: TRUE)
        with pytest.raises(ConfigError):
            apply_lfs([FakeCandidate("c0")], [lf])

    def test_invalid_vote_rejected(self):
        lf = LabelingFunction("lf0", "pain-anatomy", lambda c: 7)
        with pytest.raises(ConfigError):
            apply_lfs([FakeCandidate("c0")], [lf])


class TestSerialization:
    def test_round_trip_binary(self, tmp_path):
        matrix = _matrix([[TRUE, ABSTAIN], [FALSE, TRUE], [ABSTAIN, ABSTAIN]])
        path = tmp_path / "m.bin"
        matrix.save(path)
        loaded = LabelMatrix.load(path)
        assert loaded.candidate_ids == matrix.candidate_ids
        assert loaded.lf_ids == matrix.lf_ids
        assert np.array_equal(loaded.votes, matrix.votes)

    @pytest.mark.parametrize("byte", [7, 2, -2, -128])
    def test_vote_byte_outside_ternary_rejected(self, tmp_path, byte):
        path = tmp_path / "m.bin"
        _matrix([[TRUE, ABSTAIN], [FALSE, TRUE], [ABSTAIN, ABSTAIN]]).save(path)
        data = path.read_bytes()
        path.write_bytes(data[:-3] + np.int8(byte).tobytes() + data[-2:])
        with pytest.raises(InputFormatError, match="m.bin"):
            LabelMatrix.load(path)

    def test_csv_export(self, tmp_path):
        matrix = _matrix([[TRUE, FALSE]])
        path = tmp_path / "m.csv"
        matrix.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "candidate_id,lf_id,vote"
        assert "c0,lf0,TRUE" in lines and "c0,lf1,FALSE" in lines

    def test_labels_round_trip_at_the_bounds(self, tmp_path):
        path = tmp_path / "labels.csv"
        labels = [ProbabilisticLabel("a", 0.0), ProbabilisticLabel("b", 1.0),
                  ProbabilisticLabel("c", 0.25)]
        labels_to_csv(labels, path)
        assert labels_from_csv(path) == labels

    def test_duplicate_candidate_ids_rejected(self):
        with pytest.raises(ConfigError):
            LabelMatrix(["a", "a"], ["lf0"], np.zeros((2, 1), dtype=np.int8))


class TestLFStatistics:
    def test_all_abstain_lf(self):
        matrix = _matrix([[ABSTAIN, TRUE], [ABSTAIN, FALSE]])
        stats = lf_statistics(matrix).per_lf
        assert stats["lf0"].coverage == 0.0
        assert stats["lf0"].overlap == 0.0
        assert stats["lf0"].conflict == 0.0

    def test_identical_lfs(self):
        matrix = _matrix([[TRUE, TRUE], [FALSE, FALSE], [ABSTAIN, ABSTAIN]])
        stats = lf_statistics(matrix).per_lf
        for lf_id in ("lf0", "lf1"):
            assert stats[lf_id].conflict == 0.0
            assert stats[lf_id].overlap == stats[lf_id].coverage

    def test_hand_matrix(self):
        matrix = _matrix(
            [
                [TRUE, TRUE],
                [TRUE, FALSE],
                [ABSTAIN, TRUE],
                [ABSTAIN, ABSTAIN],
            ]
        )
        gold = {"c0": 1, "c1": 1, "c2": 0, "c3": 1}
        stats = lf_statistics(matrix, gold).per_lf
        assert stats["lf0"].coverage == 0.5
        assert stats["lf0"].overlap == 0.5
        assert stats["lf0"].conflict == 0.25
        assert stats["lf0"].accuracy == 1.0
        assert stats["lf1"].coverage == 0.75
        assert stats["lf1"].overlap == 0.5
        assert stats["lf1"].conflict == 0.25
        assert stats["lf1"].accuracy == pytest.approx(1 / 3)

    def test_conflict_bounded_by_overlap_and_coverage(self):
        rng = np.random.default_rng(0)
        votes = rng.choice([TRUE, FALSE, ABSTAIN], size=(50, 4)).astype(np.int8)
        matrix = LabelMatrix([f"c{i}" for i in range(50)], [f"lf{j}" for j in range(4)], votes)
        for st_ in lf_statistics(matrix).per_lf.values():
            assert st_.conflict <= st_.overlap <= st_.coverage

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_pairwise_loop(self, seed):
        # The reference compares each pair of LFs on each row; gold covers a
        # random subset of rows, in shuffled order.
        rng = np.random.default_rng(seed)
        n, m = rng.integers(1, 60), rng.integers(1, 7)
        votes = rng.choice([TRUE, FALSE, ABSTAIN], size=(n, m), p=rng.dirichlet([1, 1, 1]))
        matrix = LabelMatrix([f"c{i}" for i in range(n)], [f"lf{j}" for j in range(m)], votes)
        rows = rng.permutation(n)[: rng.integers(0, n + 1)]
        gold = {f"c{i}": int(rng.integers(0, 2)) for i in rows}
        V = matrix.votes.tolist()
        for j, st_ in enumerate(lf_statistics(matrix, gold).per_lf.values()):
            voting = [i for i in range(n) if V[i][j] != ABSTAIN]
            overlap = [i for i in voting if sum(v != ABSTAIN for v in V[i]) >= 2]
            conflict = [i for i in voting
                        if any(V[i][k] not in (ABSTAIN, V[i][j]) for k in range(m) if k != j)]
            scored = [i for i in rows if V[i][j] != ABSTAIN]
            assert st_.coverage == len(voting) / n
            assert st_.overlap == len(overlap) / n
            assert st_.conflict == len(conflict) / n
            assert st_.accuracy == (
                sum(V[i][j] == gold[f"c{i}"] for i in scored) / len(scored) if scored else None)

    def test_missing_gold_id_error(self):
        matrix = _matrix([[TRUE]])
        with pytest.raises(InputFormatError):
            lf_statistics(matrix, {"nope": 1})


class TestSoftMajorityVote:
    def test_examples(self):
        matrix = _matrix(
            [
                [TRUE, ABSTAIN, FALSE],
                [TRUE, TRUE, ABSTAIN],
                [ABSTAIN, ABSTAIN, ABSTAIN],
            ]
        )
        labels = soft_majority_vote(matrix)
        assert [lab.p_true for lab in labels] == [0.5, 1.0, 0.5]

    @given(vote_rows)
    @settings(max_examples=50, deadline=None)
    def test_invariant_to_all_abstain_column(self, rows):
        base = _matrix(rows)
        extended = LabelMatrix(
            base.candidate_ids,
            base.lf_ids + ["lf_abstain"],
            np.hstack([base.votes, np.full((base.n, 1), ABSTAIN, dtype=np.int8)]),
        )
        assert [l.p_true for l in soft_majority_vote(base)] == [
            l.p_true for l in soft_majority_vote(extended)
        ]


class TestLabelModel:
    def test_all_abstain_error(self):
        matrix = _matrix([[ABSTAIN], [ABSTAIN]])
        with pytest.raises(FitError, match="no signal"):
            fit_label_model(matrix)

    def test_single_lf_not_identifiable(self):
        # With one LF and a symmetric prior, accuracy is not identifiable:
        # EM stays at its initialization. Beta is still pinned to coverage.
        matrix, gold = synth.gen_label_matrix(
            10000, [synth.LFSpec("lf0", 0.9, 1.0)], 0.5, seed=7
        )
        model = fit_label_model(matrix)
        assert model.alpha[0] == pytest.approx(0.7, abs=1e-6)
        assert model.beta[0] == 1.0

    def test_multi_lf_recovery(self):
        specs = [
            synth.LFSpec(f"lf{j}", a, 0.5)
            for j, a in enumerate([0.9, 0.8, 0.75, 0.7, 0.6])
        ]
        matrix, _ = synth.gen_label_matrix(10000, specs, 0.5, seed=3)
        model = fit_label_model(matrix)
        for fitted, true in zip(model.alpha, [0.9, 0.8, 0.75, 0.7, 0.6]):
            assert abs(fitted - true) <= 0.05

    def test_unanimous_true(self):
        matrix = _matrix([[TRUE, TRUE]] * 10)
        model = fit_label_model(matrix)
        labels = posterior_labels(model, matrix)
        assert all(lab.p_true > 0.99 for lab in labels)
        assert np.all(model.alpha == 0.99)

    def test_em_monotone_loglik(self):
        matrix, _ = synth.gen_label_matrix(
            500, [synth.LFSpec(f"lf{j}", 0.8, 0.6) for j in range(3)], 0.5, seed=11
        )
        model = fit_label_model(matrix)
        ll = model.ll_history
        for a, b in zip(ll, ll[1:]):
            assert b >= a - 1e-7

    def test_column_permutation_equivariance(self):
        matrix, _ = synth.gen_label_matrix(
            300, [synth.LFSpec(f"lf{j}", 0.6 + 0.1 * j, 0.5) for j in range(3)], 0.5, seed=5
        )
        model = fit_label_model(matrix)
        perm = [2, 0, 1]
        permuted = LabelMatrix(
            matrix.candidate_ids,
            [matrix.lf_ids[j] for j in perm],
            matrix.votes[:, perm],
        )
        pmodel = fit_label_model(permuted)
        assert np.allclose(pmodel.alpha, model.alpha[perm])
        assert np.allclose(pmodel.beta, model.beta[perm])
        p0 = [l.p_true for l in posterior_labels(model, matrix)]
        p1 = [l.p_true for l in posterior_labels(pmodel, permuted)]
        assert np.allclose(p0, p1)

    def test_row_duplication_invariance(self):
        matrix, _ = synth.gen_label_matrix(
            200, [synth.LFSpec(f"lf{j}", 0.8, 0.7) for j in range(2)], 0.5, seed=9
        )
        doubled = LabelMatrix(
            matrix.candidate_ids + [f"{cid}-dup" for cid in matrix.candidate_ids],
            matrix.lf_ids,
            np.vstack([matrix.votes, matrix.votes]),
        )
        m1 = fit_label_model(matrix)
        m2 = fit_label_model(doubled)
        assert np.allclose(m1.alpha, m2.alpha, atol=1e-6)
        assert np.allclose(m1.beta, m2.beta)

    def test_symmetry_breaking_flip(self):
        # Adversarial LFs (accuracy 0.2): the better-than-chance convention
        # flips alpha above 0.5.
        matrix, _ = synth.gen_label_matrix(
            2000, [synth.LFSpec(f"lf{j}", 0.2, 1.0) for j in range(3)], 0.5, seed=2
        )
        model = fit_label_model(matrix)
        assert float(np.mean(model.alpha)) >= 0.5


class TestPosteriors:
    def test_all_abstain_row_gets_prior(self):
        matrix = _matrix([[TRUE], [ABSTAIN]])
        model = fit_label_model(matrix, class_prior=0.3)
        labels = posterior_labels(model, matrix)
        assert labels[1].p_true == pytest.approx(0.3)

    def test_single_true_vote_posterior(self):
        # alpha=0.9, beta=1, prior 0.5, vote TRUE -> posterior 0.9 by Bayes.
        matrix = _matrix([[TRUE]])
        model = fit_label_model(matrix)
        model.alpha = np.array([0.9])
        model.beta = np.array([1.0])
        labels = posterior_labels(model, matrix)
        assert labels[0].p_true == pytest.approx(0.9, abs=1e-9)

    def test_symmetric_cancellation(self):
        matrix = _matrix([[TRUE, FALSE]])
        model = fit_label_model(matrix)
        model.alpha = np.array([0.8, 0.8])
        model.beta = np.array([1.0, 1.0])
        labels = posterior_labels(model, matrix)
        assert labels[0].p_true == pytest.approx(0.5, abs=1e-9)

    def test_lf_id_mismatch(self):
        matrix = _matrix([[TRUE]])
        model = fit_label_model(matrix)
        other = _matrix([[TRUE]], lf_ids=["different"])
        with pytest.raises(ConfigError):
            posterior_labels(model, other)

    def test_calibration_on_simulated_data(self):
        specs = [synth.LFSpec(f"lf{j}", 0.8, 0.6) for j in range(5)]
        matrix, gold = synth.gen_label_matrix(10000, specs, 0.5, seed=13)
        model = fit_label_model(matrix)
        labels = posterior_labels(model, matrix)
        bucket = [lab for lab in labels if 0.85 <= lab.p_true <= 0.95]
        assert len(bucket) > 50
        frac = np.mean([gold[lab.candidate_id] for lab in bucket])
        assert 0.8 <= frac <= 1.0


class TestCoverage:
    def test_covered_candidate_ids(self):
        matrix = _matrix([[TRUE, ABSTAIN], [ABSTAIN, ABSTAIN], [ABSTAIN, FALSE]])
        assert covered_candidate_ids(matrix) == {"c0", "c2"}
