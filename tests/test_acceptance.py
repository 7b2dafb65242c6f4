"""Acceptance suite: arithmetic reproduction, oracle equivalence, and
end-to-end behavior for every pipeline stage."""

import json

import numpy as np
import pytest
from click.testing import CliRunner
from scipy import optimize, sparse

from devicesurv import classifier as clf
from devicesurv import evaluation, lf_lib, synth, weaksup
from devicesurv.cli import main as cli_main
from devicesurv.countreg import nb_fit
from devicesurv.extraction import extract_candidates
from devicesurv.outcomes import merge_events
from devicesurv.reconcile import RegistryRecord, reconcile_registry
from devicesurv.survival import cox_fit, km_estimate, logrank_test
from devicesurv.synth import SynthConfig, gen_corpus, gen_nb_counts, gen_survival_dataset

from test_outcomes import _event
from test_survival import _dataset, _oracle_breslow_loglik


# --- 1. metric arithmetic -------------------------------------------------

REFERENCE_PRF = [
    (96.3, 98.5, 97.4),
    (80.2, 82.6, 81.4),
    (82.7, 62.3, 71.1),
]


class TestMetricArithmetic:
    @pytest.mark.parametrize("precision,recall,f1", REFERENCE_PRF)
    def test_f1_reproduced_from_pr_pairs(self, precision, recall, f1):
        assert round(evaluation.f1_from_pr(precision, recall), 1) == pytest.approx(
            f1, abs=0.05
        )


# --- 2. worked-note fidelity ----------------------------------------------


class TestReferenceNotePipeline:
    def test_sections_votes_and_labels(self, reference_doc, dictionaries, trigger_lexicon):
        assert [s.canonical_header for s in reference_doc.sections] == [
            "HISTORY OF PRESENT ILLNESS",
            "PAST MEDICAL HISTORY",
        ]
        cands = extract_candidates(
            reference_doc, dictionaries, trigger_lexicon,
            relation_types=("implant-complication",),
        )
        assert len(cands) >= 2
        matrix = weaksup.apply_lfs(cands[:2], lf_lib.starter_lfs("implant-complication"))
        assert matrix.votes[0].tolist() == [1, -1, -1]
        assert matrix.votes[1].tolist() == [-1, 0, 0]
        labels = weaksup.soft_majority_vote(matrix)
        assert labels[0].p_true == 1.0
        assert labels[1].p_true == 0.0


# --- 3. label-model recovery ----------------------------------------------


class TestLabelModelRecovery:
    TRUE_ALPHAS = (0.9, 0.8, 0.75, 0.7, 0.6)

    @pytest.mark.parametrize("seed", range(5))
    def test_alpha_recovery_and_calibration(self, seed):
        specs = [
            synth.LFSpec(f"lf{j}", a, 0.5) for j, a in enumerate(self.TRUE_ALPHAS)
        ]
        matrix, gold = synth.gen_label_matrix(10000, specs, 0.5, seed=seed)
        model = weaksup.fit_label_model(matrix)
        for fitted, true in zip(model.alpha, self.TRUE_ALPHAS):
            assert abs(fitted - true) <= 0.05
        labels = weaksup.posterior_labels(model, matrix)
        bucket = [lab for lab in labels if 0.85 <= lab.p_true <= 0.95]
        assert bucket
        frac = float(np.mean([gold[lab.candidate_id] for lab in bucket]))
        assert 0.8 <= frac <= 1.0


# --- 4. weak-supervision benefit ------------------------------------------


class TestWeakSupervisionBenefit:
    @pytest.mark.parametrize("seed", range(3))
    def test_recall_gain_without_precision_loss(self, seed, extract_notes):
        corpus = gen_corpus(SynthConfig(seed=seed))
        candidates = extract_notes(corpus.notes)
        patients = sorted({n.patient_id for n in corpus.notes})
        train_p, dev_p, test_p = evaluation.split_documents(patients, seed=seed, sizes=(80, 20, 20))

        def subset(pids):
            return [
                c for c in candidates
                if corpus.candidate_note[c.candidate_id].split("-")[0] in pids
            ]

        train_c, dev_c, test_c = subset(train_p), subset(dev_p), subset(test_p)
        gold = corpus.gold_relations
        lfs = lf_lib.benchmark_lfs()

        # Weak labels on the training slice.
        matrix = weaksup.apply_lfs(train_c, lfs)
        model = weaksup.fit_label_model(matrix)
        labels = weaksup.posterior_labels(model, matrix)
        covered = {lab.candidate_id for lab in labels}
        covered_train = [c for c in train_c if c.candidate_id in covered]
        net = clf.train_noise_aware(clf.design_matrix(covered_train),
                                    [c.candidate_id for c in covered_train], labels,
                                    clf.TrainConfig(seed=seed))
        net.threshold = clf.select_threshold(clf.predict_many(net, dev_c),
                                             [gold[c.candidate_id] for c in dev_c])

        # SMV baseline: strict-majority decision rule — a candidate is
        # extracted only when the non-abstaining votes lean TRUE, so ties
        # and fully-uncovered candidates are non-extractions.
        def smv_scores(cands):
            m = weaksup.apply_lfs(cands, lfs)
            return {l.candidate_id: l.p_true for l in weaksup.soft_majority_vote(m)}

        test_gold = {c.candidate_id: gold[c.candidate_id] for c in test_c}
        net_scores = dict(zip([c.candidate_id for c in test_c], clf.predict_many(net, test_c)))
        net_m = evaluation.prf1(net_scores, test_gold, threshold=net.threshold)
        smv_m = evaluation.prf1(smv_scores(test_c), test_gold, threshold=0.5 + 1e-9)

        assert net_m.recall - smv_m.recall >= 10.0
        assert smv_m.precision - net_m.precision <= 10.0


# --- 5. classifier correctness --------------------------------------------


class TestClassifierCorrectness:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        X = sparse.csr_matrix(rng.normal(size=(15, 4)))
        p = rng.uniform(size=15)
        w = rng.normal(scale=0.3, size=4)
        b = 0.1
        l2 = 0.05
        _, grad_w, grad_b = clf.loss_and_grad(w, b, X, p, l2)
        eps = 1e-6
        num = np.empty(5)
        for j in range(4):
            wp, wm = w.copy(), w.copy()
            wp[j] += eps
            wm[j] -= eps
            num[j] = (clf.loss_and_grad(wp, b, X, p, l2)[0]
                      - clf.loss_and_grad(wm, b, X, p, l2)[0]) / (2 * eps)
        num[4] = (clf.loss_and_grad(w, b + eps, X, p, l2)[0]
                  - clf.loss_and_grad(w, b - eps, X, p, l2)[0]) / (2 * eps)
        analytic = np.concatenate([grad_w, [grad_b]])
        rel = np.abs(analytic - num) / np.maximum(np.abs(num), 1e-8)
        assert rel.max() < 1e-5

    def test_hard_label_training_matches_convex_oracle(self):
        rng = np.random.default_rng(1)
        X = sparse.csr_matrix(rng.normal(size=(20, 5)))
        p = (rng.uniform(size=20) < 0.5).astype(float)  # hard, non-separable via L2
        l2 = 0.1

        def objective(theta):
            loss, gw, gb = clf.loss_and_grad(theta[:-1], theta[-1], X, p, l2)
            return loss, np.concatenate([gw, [gb]])

        oracle = optimize.minimize(
            objective, np.zeros(6), jac=True, method="L-BFGS-B",
            options={"ftol": 1e-15, "gtol": 1e-12},
        )
        config = clf.TrainConfig(seed=0, epochs=20000, learning_rate=0.05, l2=l2, batch_size=20)
        cols, w, b = clf.train_on_matrix(X, p, config, 5)
        assert cols.tolist() == [0, 1, 2, 3, 4]
        assert np.allclose(w, oracle.x[:-1], atol=1e-3)
        assert abs(b - oracle.x[-1]) < 1e-3


# --- 6. event-merge arithmetic --------------------------------------------


class TestEventMergeArithmetic:
    def test_merged_event_counts(self):
        coded = [_event(f"s{i}", "infection", 0) for i in range(63)]
        coded += [_event(f"co{i}", "infection", 0) for i in range(15)]
        text = [_event(f"s{i}", "infection", 45, "text", "n") for i in range(63)]
        text += [_event(f"to{i}", "infection", 0, "text", "n") for i in range(441)]
        assert (len(coded), len(text)) == (78, 504)
        merged = merge_events(coded, text, window_days=90)
        assert len(merged) == 519
        assert sum(1 for e in merged if e.source == "both") == 63
        assert len(merged) / len(coded) > 6


# --- 7. survival-statistics oracles ---------------------------------------


class TestSurvivalOracles:
    def test_cox_matches_brute_force_partial_likelihood(self):
        rng = np.random.default_rng(0)
        n = 20
        x = np.array([i % 2 for i in range(n)], dtype=float)
        times = np.ceil(rng.exponential(100 * np.exp(-0.8 * x)))
        events = (rng.uniform(size=n) < 0.8).astype(int)
        events[:2] = 1
        fit = cox_fit(_dataset(times, events, X=x))
        res = optimize.minimize_scalar(
            lambda b: -_oracle_breslow_loglik(b, times, events, x),
            bounds=(-10, 10), method="bounded", options={"xatol": 1e-10},
        )
        assert abs(fit.coef[0] - res.x) < 1e-3

    def test_km_matches_hand_product_limit(self):
        km = km_estimate(_dataset([1, 2, 3, 4], [1, 1, 0, 1]))
        assert km.times.tolist() == [1.0, 2.0, 4.0]
        assert km.survival.tolist() == pytest.approx([3 / 4, 1 / 2, 0.0])

    def test_logrank_duplicated_groups_null(self):
        times = [3, 5, 8, 10]
        events = [1, 0, 1, 1]
        ds = _dataset(times + times, events + events, groups=["A"] * 4 + ["B"] * 4)
        res = logrank_test(ds)
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_simulated_hazard_ratio_recovery(self):
        ds = gen_survival_dataset(2000, hazard_ratio=2.0, seed=0)
        fit = cox_fit(ds)
        assert 1.7 <= fit.hr[0] <= 2.4


# --- 8. count-regression oracle -------------------------------------------


class TestCountRegressionOracle:
    def test_recovers_simulated_coefficients(self):
        counts, x = gen_nb_counts(5000, beta=(1.0, 0.5), theta=2.0, seed=0)
        fit = nb_fit(counts, x)
        assert abs(fit.coef[0] - 1.0) <= 0.1
        assert abs(fit.coef[1] - 0.5) <= 0.1

    def test_matches_poisson_oracle_on_equidispersed_data(self):
        sm = pytest.importorskip("statsmodels.api")
        rng = np.random.default_rng(1)
        x = rng.normal(size=5000)
        counts = rng.poisson(np.exp(0.8 + 0.4 * x))
        fit = nb_fit(counts, x)
        ref = sm.GLM(counts, np.column_stack([np.ones_like(x), x]),
                     family=sm.families.Poisson()).fit()
        assert np.allclose(np.exp(fit.coef), np.exp(ref.params), rtol=0.02)

    def test_intercept_only_reproduces_sample_mean(self):
        counts = [2] * 71 + [3] * 29
        fit = nb_fit(counts, np.zeros((100, 0)))
        assert np.exp(fit.coef[0]) == pytest.approx(np.mean(counts), abs=0.01)


# --- 9. reconciliation ----------------------------------------------------


class TestReconciliation:
    @staticmethod
    def _rec(pid, day, model="VerSys"):
        from datetime import date, timedelta

        return RegistryRecord(pid, date(2010, 1, 1) + timedelta(days=day),
                              "acetabular", "Zimmer Biomet", model)

    def test_engineered_percentages(self):
        extracted, registry = [], []
        for i in range(72):
            extracted.append(self._rec(f"a{i}", 0))
            registry.append(self._rec(f"a{i}", 5))
        for i in range(17):
            extracted.append(self._rec(f"c{i}", 0))
            registry.append(self._rec(f"c{i}", 0, model="VerSys II"))
        for i in range(6):
            extracted.append(self._rec(f"e{i}", 0))
        for i in range(5):
            registry.append(self._rec(f"r{i}", 0))
        report = reconcile_registry(extracted, registry)
        counts = report.counts()
        assert counts["agreement"] == 72
        assert counts["conflict"] == 17
        assert counts["missing_in_registry"] + counts["missing_in_extraction"] == 11
        fr = report.fractions()
        assert round(100 * fr["agreement"]) == 72
        assert round(100 * fr["conflict"]) == 17

    def test_symmetry_and_monotonicity_invariants(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            ext = [self._rec(f"p{rng.integers(4)}", int(rng.integers(0, 80)),
                             model=["VerSys", "Pinnacle"][rng.integers(2)])
                   for _ in range(rng.integers(1, 7))]
            reg = [self._rec(f"p{rng.integers(4)}", int(rng.integers(0, 80)),
                             model=["VerSys", "Pinnacle"][rng.integers(2)])
                   for _ in range(rng.integers(1, 7))]
            a = reconcile_registry(ext, reg).counts()
            b = reconcile_registry(reg, ext).counts()
            assert a["agreement"] == b["agreement"]
            assert a["conflict"] == b["conflict"]
            assert a["missing_in_registry"] == b["missing_in_extraction"]
            prev_matched = -1
            for tol in (0, 15, 30, 60):
                c = reconcile_registry(ext, reg, date_tolerance_days=tol).counts()
                matched = c["agreement"] + c["conflict"]
                assert matched >= prev_matched
                prev_matched = matched


# --- 10. end-to-end -------------------------------------------------------


class TestEndToEnd:
    def _run_pipeline(self, tmp_path, tag):
        runner = CliRunner()
        outdir = tmp_path / f"run-{tag}"
        cfg_path = tmp_path / f"config-{tag}.json"
        cfg_path.write_text(json.dumps({"output_dir": str(outdir), "params": {"seed": 0}}))
        assert runner.invoke(cli_main, ["synth", "gen", "--config", str(cfg_path)]).exit_code == 0
        cfg_path.write_text(
            json.dumps(
                {
                    "output_dir": str(outdir),
                    "paths": {
                        "notes": str(outdir / "notes.jsonl"),
                        "gold_relations": str(outdir / "gold_relations.csv"),
                        "dev_gold": str(outdir / "gold_relations.csv"),
                    },
                    "params": {"lf_set": "benchmark", "seed": 0},
                }
            )
        )
        for cmd in (["candidates"], ["lf", "apply"], ["labelmodel", "fit"], ["train"],
                    ["predict"], ["eval"]):
            result = runner.invoke(cli_main, cmd + ["--config", str(cfg_path)])
            assert result.exit_code == 0, (cmd, result.output, result.stderr)
        metrics_line = (outdir / "metrics.csv").read_text().splitlines()[1]
        f1 = float(metrics_line.split(",")[2])
        scores = (outdir / "scores.csv").read_text()
        return f1, scores

    def test_pipeline_f1_and_determinism(self, tmp_path):
        f1_a, scores_a = self._run_pipeline(tmp_path, "a")
        assert f1_a >= 90.0
        f1_b, scores_b = self._run_pipeline(tmp_path, "b")
        assert f1_b == f1_a
        assert scores_b == scores_a
