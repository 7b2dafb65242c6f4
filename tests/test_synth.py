"""Unit tests for the synthetic-data generators."""

import numpy as np
import pytest

from devicesurv import synth
from devicesurv.errors import ConfigError
from devicesurv.lf_lib import benchmark_lfs
from devicesurv.reconcile import reconcile_registry
from devicesurv.weaksup import ABSTAIN, apply_lfs


class TestLabelMatrixOracle:
    def test_perfect_lf_exact_votes(self):
        matrix, gold = synth.gen_label_matrix(
            200, [synth.LFSpec("lf0", 1.0, 1.0)], 0.5, seed=0
        )
        for i, cid in enumerate(matrix.candidate_ids):
            assert matrix.votes[i, 0] == gold[cid]

    def test_chance_lf_accuracy_near_half(self):
        matrix, gold = synth.gen_label_matrix(
            10000, [synth.LFSpec("lf0", 0.5, 1.0)], 0.5, seed=1
        )
        y = np.array([gold[c] for c in matrix.candidate_ids])
        acc = np.mean(matrix.votes[:, 0] == y)
        assert abs(acc - 0.5) < 0.02

    def test_beta_controls_coverage(self):
        matrix, _ = synth.gen_label_matrix(
            10000, [synth.LFSpec("lf0", 0.8, 0.3)], 0.5, seed=2
        )
        coverage = np.mean(matrix.votes[:, 0] != ABSTAIN)
        assert abs(coverage - 0.3) < 0.02

    def test_same_seed_identical(self):
        specs = [synth.LFSpec("lf0", 0.8, 0.6)]
        a, ga = synth.gen_label_matrix(500, specs, 0.4, seed=3)
        b, gb = synth.gen_label_matrix(500, specs, 0.4, seed=3)
        assert np.array_equal(a.votes, b.votes)
        assert ga == gb

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigError):
            synth.LFSpec("lf0", 1.5, 0.5)
        with pytest.raises(ConfigError):
            synth.gen_label_matrix(0, [synth.LFSpec("lf0", 0.5, 0.5)], 0.5, seed=0)


class TestCorpus:
    def test_gold_keyed_by_real_candidate_ids(self, synth_corpus, synth_candidates):
        # Gold comes from the spans synth wrote, in note order; the extractor
        # finds the same ids in the same order.
        ids = [c.candidate_id for c in synth_candidates]
        assert list(synth_corpus.gold_relations) == ids
        assert list(synth_corpus.candidate_note) == ids
        assert [synth_corpus.candidate_note[c] for c in ids] == [
            c.note_id for c in synth_candidates]

    def test_every_note_yields_one_candidate(self, synth_corpus, synth_candidates):
        # Each note holds exactly one template sentence with one pain-anatomy
        # pair, so candidates map one-to-one onto notes.
        assert len(synth_corpus.gold_relations) == len(synth_corpus.notes)
        assert len(synth_candidates) == len(synth_corpus.notes)

    def test_gold_matches_template_class(self, synth_corpus):
        for cid, note_id in synth_corpus.candidate_note.items():
            cls = synth_corpus.note_class[note_id]
            assert synth_corpus.gold_relations[cid] == synth.TEMPLATE_CLASSES[cls][1]

    def test_lf_votes_consistent_with_design(self, synth_corpus, synth_candidates):
        matrix = apply_lfs(synth_candidates, benchmark_lfs())
        col = {lf_id: j for j, lf_id in enumerate(matrix.lf_ids)}
        for i, cand in enumerate(synth_candidates):
            cls = synth_corpus.note_class[synth_corpus.candidate_note[cand.candidate_id]]
            votes = matrix.votes[i]
            if cls == "pos_covered":
                assert votes[col["lf_complains"]] == 1
            if cls in ("pos_uncovered", "neg_hypo_uncovered"):
                assert np.all(votes == ABSTAIN)
            if cls == "neg_negated":
                assert votes[col["lf_negated"]] == 0
            if cls == "neg_historical":
                assert votes[col["lf_historical"]] == 0
            if cls == "neg_hypo_covered":
                assert votes[col["lf_monitor"]] == 0

    def test_same_seed_identical_corpus(self):
        a = synth.gen_corpus(synth.SynthConfig(seed=5, n_patients=10))
        b = synth.gen_corpus(synth.SynthConfig(seed=5, n_patients=10))
        assert [n.text for n in a.notes] == [n.text for n in b.notes]
        assert a.gold_relations == b.gold_relations

    def test_seed_changes_corpus(self):
        a = synth.gen_corpus(synth.SynthConfig(seed=5, n_patients=10))
        b = synth.gen_corpus(synth.SynthConfig(seed=6, n_patients=10))
        assert [n.text for n in a.notes] != [n.text for n in b.notes]

    def test_corruption_rate_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            synth.SynthConfig(registry_drop_rate=1.5)
        with pytest.raises(ConfigError):
            synth.SynthConfig(registry_variant_rate=-0.1)

    def test_compose_spans_hold_the_terms(self):
        text, spans = synth._compose("No {pain} in the {anatomy}.",
                                     {"pain": "aching", "anatomy": "hip"})
        assert text == "No aching in the hip."
        assert spans == {"pain": (3, 9), "anatomy": (17, 20)}

    def test_no_corruption_registry_agrees(self, synth_corpus):
        report = reconcile_registry(
            synth_corpus.extracted_records, synth_corpus.registry_records
        )
        fr = report.fractions()
        assert fr["agreement"] == 1.0

    def test_variant_corruption_rate(self):
        config = synth.SynthConfig(seed=9, n_patients=400, registry_variant_rate=0.2)
        corpus = synth.gen_corpus(config)
        report = reconcile_registry(corpus.extracted_records, corpus.registry_records)
        counts = report.counts()
        frac_conflict = counts["conflict"] / sum(counts.values())
        assert 0.12 <= frac_conflict <= 0.28

    def test_drop_corruption_leaves_extraction_only(self):
        config = synth.SynthConfig(seed=10, n_patients=400, registry_drop_rate=0.25)
        corpus = synth.gen_corpus(config)
        report = reconcile_registry(corpus.extracted_records, corpus.registry_records)
        counts = report.counts()
        assert counts["missing_in_extraction"] == 0
        frac = counts["missing_in_registry"] / sum(counts.values())
        assert 0.15 <= frac <= 0.35

    def test_cohort_and_events_consistent(self, synth_corpus):
        assert len(synth_corpus.cohort) == 120
        for e in synth_corpus.events:
            pat = synth_corpus.cohort[e.patient_id]
            assert pat.index_date < e.timestamp <= pat.last_contact_date


class TestWriteCorpus:
    def test_files_round_trip(self, synth_corpus, tmp_path):
        from devicesurv.corpus import ingest_notes
        from devicesurv.evaluation import read_gold
        from devicesurv.outcomes import events_from_csv
        from devicesurv.reconcile import load_registry_csv

        paths = synth.write_corpus(synth_corpus, tmp_path)
        notes = list(ingest_notes(paths["notes"]))
        assert [n.note_id for n in notes] == [n.note_id for n in synth_corpus.notes]
        assert notes[0].text == synth_corpus.notes[0].text
        gold = read_gold(paths["gold_relations"])
        assert gold == synth_corpus.gold_relations
        assert events_from_csv(paths["gold_events"]) == synth_corpus.events
        assert load_registry_csv(paths["registry"]) == synth_corpus.registry_records


class TestSurvivalOracle:
    def test_group_structure(self):
        ds = synth.gen_survival_dataset(10, hazard_ratio=2.0, seed=0)
        assert ds.columns == ["implant_system=B"]
        assert ds.groups == ["A", "B"] * 5
        assert np.array_equal(ds.X[:, 0], np.arange(10) % 2)

    def test_censoring_bounds(self):
        ds = synth.gen_survival_dataset(500, hazard_ratio=1.5, seed=1, censor_days=365)
        assert ds.times.max() <= 365
        assert np.all(ds.times[ds.events == 0] == 365)

    def test_too_small_rejected(self):
        with pytest.raises(ConfigError):
            synth.gen_survival_dataset(1, hazard_ratio=1.0, seed=0)


class TestNBOracle:
    def test_moments(self):
        y, x = synth.gen_nb_counts(20000, beta=(1.0, 0.0), theta=2.0, seed=0)
        mu = np.exp(1.0)
        assert y.mean() == pytest.approx(mu, rel=0.05)
        assert y.var() == pytest.approx(mu + mu**2 / 2.0, rel=0.1)
