"""Unit tests for hashed features and the noise-aware classifier."""

import json
import struct

import numpy as np
import pytest
from scipy import optimize, sparse

from devicesurv import classifier as clf
from devicesurv import evaluation
from devicesurv.errors import ConfigError, FitError
from devicesurv.extraction import extract_candidates
from devicesurv.weaksup import ProbabilisticLabel


@pytest.fixture(scope="module")
def pain_candidates(dictionaries, trigger_lexicon):
    from devicesurv.corpus import RawNote, preprocess
    from datetime import datetime

    texts = [
        "Patient complains of severe pain in the hip today.",
        "No pain in the hip on exam.",
        "History of aching in the knee years ago.",
        "Monitor for possible soreness in the groin going forward.",
    ]
    cands = []
    for i, text in enumerate(texts):
        doc = preprocess(RawNote(f"n{i}", "p1", datetime(2020, 1, 1), "progress", text))
        cands.extend(
            extract_candidates(doc, dictionaries, trigger_lexicon, relation_types=("pain-anatomy",))
        )
    assert len(cands) == 4
    return cands


class TestFeatures:
    def test_featurize_deterministic(self, pain_candidates):
        a = clf.design_matrix(pain_candidates)
        b = clf.design_matrix(pain_candidates)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.indptr, b.indptr)

    def test_raw_features_include_structure(self, pain_candidates):
        feats = clf.raw_features(pain_candidates[0])
        assert "arg1_type:pain" in feats
        assert "arg2_type:anatomy" in feats
        assert any(f.startswith("dist:") for f in feats)
        assert any(f.startswith("btw:") for f in feats)

    def test_adjacent_args_distance_zero(self, dictionaries, trigger_lexicon):
        from devicesurv.corpus import RawNote, preprocess
        from datetime import datetime

        doc = preprocess(RawNote("n", "p", datetime(2020, 1, 1), "progress", "hip pain noted."))
        (cand,) = extract_candidates(
            doc, dictionaries, trigger_lexicon, relation_types=("pain-anatomy",)
        )
        assert "dist:0" in clf.raw_features(cand)

    def test_indices_within_dim(self, pain_candidates):
        X = clf.design_matrix(pain_candidates)
        assert clf.DIM == 1 << 20
        assert X.indices.min() >= 0 and X.indices.max() < clf.DIM
        for i in range(X.shape[0]):
            assert np.all(np.diff(X.indices[X.indptr[i]:X.indptr[i + 1]]) > 0)

    def test_row_sums_signed_hashes_per_column(self, pain_candidates):
        # Each row is its raw features' (column, sign) pairs summed per column.
        X = clf.design_matrix(pain_candidates)
        for i, c in enumerate(pain_candidates):
            want: dict = {}
            for feat in clf.raw_features(c):
                col, sign = clf._hash_feature(feat)
                want[col] = want.get(col, 0.0) + sign
            row = slice(X.indptr[i], X.indptr[i + 1])
            assert dict(zip(X.indices[row].tolist(), X.data[row].tolist())) == want

    def test_attribute_features_present(self, pain_candidates):
        negated = clf.raw_features(pain_candidates[1])
        assert "arg1_attr:negated" in negated


class TestSerialization:
    def test_round_trip(self, tmp_path):
        model = clf.ClassifierModel(
            columns=np.array([3, 100, 999]), weights=np.array([0.5, -1.25, 2.0]), bias=0.75,
            metadata={"seed": 3}, threshold=0.42
        )
        path = tmp_path / "model.bin"
        model.save(path)
        loaded = clf.ClassifierModel.load(path)
        assert loaded.columns.dtype == np.int64
        assert np.array_equal(loaded.columns, model.columns)
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.bias == model.bias
        assert loaded.threshold == model.threshold
        assert loaded.metadata == {"seed": 3}

    def test_save_load_save_byte_identical(self, tmp_path):
        model = clf.ClassifierModel(np.array([1, 2]), np.array([0.1, 0.2]), bias=0.0)
        p1 = tmp_path / "a.bin"
        p2 = tmp_path / "b.bin"
        model.save(p1)
        clf.ClassifierModel.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        model = _empty_model()
        path = tmp_path / "model.bin"
        model.save(path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ConfigError):
            clf.ClassifierModel.load(path)

    def test_digest_mismatch_at_load(self, tmp_path):
        model = _empty_model()
        path = tmp_path / "model.bin"
        model.save(path)
        sidecar_path = tmp_path / "model.bin.json"
        sidecar = json.loads(sidecar_path.read_text())
        sidecar["feature_config"]["window"] = 5
        sidecar_path.write_text(json.dumps(sidecar))
        with pytest.raises(ConfigError, match="digest"):
            clf.ClassifierModel.load(path)

    def test_save_writes_the_nonzero_entries_of_the_dense_vector(self, tmp_path):
        # The bytes np.nonzero over the dim-long vector gave: columns ascend,
        # and 0.0 and -0.0 weights are dropped.
        cols, vals = np.array([4, 7, 9, 12]), np.array([0.0, 1.5, -0.0, -2.0])
        path = tmp_path / "model.bin"
        clf.ClassifierModel(columns=cols, weights=vals, bias=0.25, threshold=0.5).save(path)
        dense = _scatter(cols, vals, clf.DIM)
        nz = np.nonzero(dense)[0]
        assert path.read_bytes() == (
            b"DSCM\x01" + struct.pack("<BddQ", 20, 0.25, 0.5, len(nz))
            + nz.astype(np.int64).tobytes() + dense[nz].tobytes())
        loaded = clf.ClassifierModel.load(path)
        assert loaded.columns.tolist() == [7, 12]
        assert loaded.weights.tolist() == [1.5, -2.0]


def _empty_model():
    return clf.ClassifierModel(columns=np.zeros(0, dtype=np.int64), weights=np.zeros(0),
                               bias=0.0)


def _scatter(columns, weights, dim):
    """The dim-long weight vector of a model's active columns."""
    w = np.zeros(dim)
    w[columns] = weights
    return w


def _small_problem(seed=0, n=20, d=5):
    """A dense problem stored as CSR, the input loss_and_grad takes."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    p = rng.uniform(size=n)
    return sparse.csr_matrix(X), p


class TestObjective:
    def test_gradient_matches_finite_differences(self):
        X, p = _small_problem()
        rng = np.random.default_rng(1)
        w = rng.normal(scale=0.3, size=X.shape[1])
        b = 0.2
        l2 = 0.05
        loss, grad_w, grad_b = clf.loss_and_grad(w, b, X, p, l2)
        eps = 1e-6
        for j in range(len(w)):
            wp = w.copy()
            wp[j] += eps
            lp, _, _ = clf.loss_and_grad(wp, b, X, p, l2)
            wm = w.copy()
            wm[j] -= eps
            lm, _, _ = clf.loss_and_grad(wm, b, X, p, l2)
            assert grad_w[j] == pytest.approx((lp - lm) / (2 * eps), abs=1e-4)
        lp, _, _ = clf.loss_and_grad(w, b + eps, X, p, l2)
        lm, _, _ = clf.loss_and_grad(w, b - eps, X, p, l2)
        assert grad_b == pytest.approx((lp - lm) / (2 * eps), abs=1e-4)

    def test_matches_convex_oracle(self):
        # The objective is convex; an independent quasi-Newton solve must
        # agree with our own minimizer of the same loss.
        X, p = _small_problem(seed=2)
        l2 = 0.1

        def objective(theta):
            loss, gw, gb = clf.loss_and_grad(theta[:-1], theta[-1], X, p, l2)
            return loss, np.concatenate([gw, [gb]])

        res = optimize.minimize(objective, np.zeros(X.shape[1] + 1), jac=True, method="L-BFGS-B")
        ours = optimize.minimize(
            objective, np.ones(X.shape[1] + 1) * 0.3, jac=True, method="CG"
        )
        assert np.allclose(res.x, ours.x, atol=1e-3)
        assert res.fun == pytest.approx(ours.fun, abs=1e-6)

    def test_full_batch_training_approaches_optimum(self):
        X, p = _small_problem(seed=3)
        l2 = 0.1

        def objective(theta):
            loss, gw, gb = clf.loss_and_grad(theta[:-1], theta[-1], X, p, l2)
            return loss, np.concatenate([gw, [gb]])

        opt = optimize.minimize(objective, np.zeros(X.shape[1] + 1), jac=True, method="L-BFGS-B")
        config = clf.TrainConfig(seed=0, epochs=3000, learning_rate=0.1, l2=l2, batch_size=X.shape[0])
        cols, w, b = clf.train_on_matrix(sparse.csr_matrix(X), p, config, X.shape[1])
        assert cols.tolist() == list(range(X.shape[1]))
        loss, _, _ = clf.loss_and_grad(w, b, X, p, l2)
        assert loss <= opt.fun + 1e-3
        assert np.allclose(w, opt.x[:-1], atol=1e-2)

    def test_accepts_design_matrix(self, pain_candidates):
        X = clf.design_matrix(pain_candidates)
        dense = sparse.csr_matrix((X.data, X.indices, X.indptr), shape=X.shape).toarray()
        p = np.array([0.9, 0.1, 0.6, 0.3])
        w = np.zeros(X.shape[1])
        w[X.indices] = np.linspace(-0.5, 0.5, len(X.indices))
        _, grad_w, grad_b = clf.loss_and_grad(w, 0.1, X, p, 0.05)
        resid = 1.0 / (1.0 + np.exp(-(dense @ w + 0.1))) - p
        assert np.allclose(grad_w, dense.T @ resid + 0.1 * w, rtol=1e-12, atol=1e-15)
        assert grad_b == pytest.approx(resid.sum(), rel=1e-12)

    @pytest.mark.parametrize("l2", [0.0, 0.05])
    def test_full_batch_step_is_the_gradient_step(self, pain_candidates, l2):
        # train_on_matrix and loss_and_grad share one gradient: one epoch of
        # one full batch from zero is exactly -learning_rate/n times it.
        X = clf.design_matrix(pain_candidates)
        p = np.array([0.9, 0.1, 0.6, 0.3])
        config = clf.TrainConfig(seed=0, epochs=1, learning_rate=0.5, l2=l2, batch_size=4)
        cols, w, b = clf.train_on_matrix(X, p, config, X.shape[1])
        _, grad_w, grad_b = clf.loss_and_grad(np.zeros(X.shape[1]), 0.0, X, p, l2)
        scale = config.learning_rate / 4
        assert cols.tolist() == np.unique(X.indices).tolist()
        assert np.array_equal(_scatter(cols, w, X.shape[1]), -(scale * grad_w))
        assert b == -(scale * grad_b)

    def test_training_deterministic_per_seed(self):
        X, p = _small_problem(seed=4)
        config = clf.TrainConfig(seed=7, epochs=5, batch_size=4)
        c1, w1, b1 = clf.train_on_matrix(sparse.csr_matrix(X), p, config, X.shape[1])
        c2, w2, b2 = clf.train_on_matrix(sparse.csr_matrix(X), p, config, X.shape[1])
        assert np.array_equal(c1, c2) and np.array_equal(w1, w2) and b1 == b2


def _train(cands, labels, config=None):
    return clf.train_noise_aware(
        clf.design_matrix(cands), [c.candidate_id for c in cands], labels, config)


class TestTraining:
    def test_empty_training_set(self):
        with pytest.raises(FitError, match="empty training set"):
            _train([], [])

    def test_missing_label_error(self, pain_candidates):
        with pytest.raises(FitError, match="missing labels"):
            _train(pain_candidates, [])

    def test_all_half_labels_give_half_scores(self, pain_candidates):
        labels = [ProbabilisticLabel(c.candidate_id, 0.5) for c in pain_candidates]
        model = _train(pain_candidates, labels, clf.TrainConfig(epochs=5))
        scores = clf.predict_many(model, pain_candidates)
        assert np.allclose(scores, 0.5, atol=1e-6)

    def test_hard_labels_separate(self, pain_candidates):
        labels = [
            ProbabilisticLabel(pain_candidates[0].candidate_id, 1.0),
            ProbabilisticLabel(pain_candidates[1].candidate_id, 0.0),
            ProbabilisticLabel(pain_candidates[2].candidate_id, 0.0),
            ProbabilisticLabel(pain_candidates[3].candidate_id, 0.0),
        ]
        model = _train(pain_candidates, labels, clf.TrainConfig(epochs=200, learning_rate=0.5))
        scores = clf.predict_many(model, pain_candidates)
        assert scores[0] > 0.9
        assert max(scores[1:]) < 0.1


class TestThreshold:
    def test_single_class_dev_rejected(self):
        with pytest.raises(FitError):
            clf.select_threshold(np.full(4, 0.5), [1, 1, 1, 1])

    def test_empty_dev_rejected(self):
        with pytest.raises(FitError):
            clf.select_threshold(np.zeros(0), [])

    def test_constant_scores_pick_lowest_threshold(self):
        # F1 is constant over all thresholds <= 0.5, so the tie-break picks 0.00.
        assert clf.select_threshold(np.full(4, 0.5), [1, 0, 0, 0]) == 0.0

    def test_separable_scores(self, pain_candidates):
        labels = [
            ProbabilisticLabel(pain_candidates[0].candidate_id, 1.0),
            ProbabilisticLabel(pain_candidates[1].candidate_id, 0.0),
            ProbabilisticLabel(pain_candidates[2].candidate_id, 0.0),
            ProbabilisticLabel(pain_candidates[3].candidate_id, 0.0),
        ]
        model = _train(pain_candidates, labels, clf.TrainConfig(epochs=200, learning_rate=0.5))
        gold = [int(lab.p_true) for lab in labels]
        scores = clf.predict_many(model, pain_candidates)
        t = clf.select_threshold(scores, gold)
        pred = scores >= t
        assert pred.tolist() == [True, False, False, False]

    def test_grid_shape(self):
        assert len(clf.THRESHOLD_GRID) == 101
        assert clf.THRESHOLD_GRID[0] == 0.0
        assert clf.THRESHOLD_GRID[-1] == 1.0

    def test_matches_the_loop(self):
        # Continuous, 2-decimal (on the grid, so ties with >=) and 5-level
        # scores; balanced or 10%-positive gold, and some with a label 2,
        # which counts in neither class.
        rng = np.random.default_rng(0)
        checked = 0
        for trial in range(600):
            n = int(rng.integers(2, 400))
            scores = rng.uniform(size=n)
            if trial % 3 == 1:
                scores = np.round(scores, 2)
            elif trial % 3 == 2:
                scores = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9], size=n)
            gold = (rng.uniform(size=n) < (0.5 if trial % 2 else 0.1)).astype(np.int64)
            if trial % 10 == 0:
                gold[rng.uniform(size=n) < 0.2] = 2
            if gold.min() == gold.max():
                continue
            assert clf.select_threshold(scores, gold) == _loop_select_threshold(scores, gold)
            checked += 1
        assert checked > 500

    @pytest.mark.parametrize("scores,gold", [
        ([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]),
        ([0.2, 0.4, 0.6, 0.8], [0, 1, 0, 1]),
        ([0.3, 0.3, 0.7, 0.7, 0.7, 0.7], [1, 0, 1, 1, 0, 0]),
        ([0.0, 1.0], [1, 0]),
        ([0.1, 0.9], [0, 2]),
    ])
    def test_ties_match_the_loop(self, scores, gold):
        assert clf.select_threshold(scores, gold) == _loop_select_threshold(scores, gold)


def _loop_select_threshold(scores, gold) -> float:
    """The 101-step loop select_threshold replaced, kept verbatim as the
    reference whose threshold it must return."""
    scores = np.asarray(scores)
    gold = np.asarray(gold, dtype=np.int64)
    if gold.size == 0 or gold.min() == gold.max():
        raise FitError("dev set must contain both classes")
    best_t, best_f1 = 0.0, -1.0
    for t in clf.THRESHOLD_GRID:
        pred = scores >= t
        tp = int(np.sum(pred & (gold == 1)))
        fp = int(np.sum(pred & (gold == 0)))
        fn = int(np.sum(~pred & (gold == 1)))
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        if f1 > best_f1 + 1e-12:
            best_t, best_f1 = float(t), f1
    return best_t


class TestScoresCsv:
    # scores.csv is written from predict's scores; evaluation owns its columns.
    def test_round_numbers(self, tmp_path):
        path = tmp_path / "scores.csv"
        evaluation.scores_to_csv(["a", "b"], [0.75, 0.25], 0.5, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "candidate_id,score,predicted_label"
        assert lines[1] == "a,0.750000,1"
        assert lines[2] == "b,0.250000,0"
        assert evaluation.read_scores(path) == {"a": 1, "b": 0}


def _dense_train_on_matrix(X, p, config, dim):
    """The dim-wide SGD loop that train_on_matrix replaced, kept verbatim as
    the reference whose weights and bias it must reproduce bit for bit."""
    n = X.shape[0]
    w = np.zeros(dim)
    b = 0.0
    rng = np.random.default_rng(config.seed)
    order = np.arange(n)
    for _epoch in range(config.epochs):
        rng.shuffle(order)
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            Xb = X[batch]
            z = Xb @ w + b
            resid = clf._sigmoid(z) - p[batch]
            grad_w = np.asarray(Xb.T @ resid).ravel() + 2 * config.l2 * (len(batch) / n) * w
            grad_b = float(np.sum(resid))
            scale = config.learning_rate / len(batch)
            w -= scale * grad_w
            b -= scale * grad_b
    return w, b


def _hashed_problem(seed, dim, n=50, n_active=40):
    """A CSR matrix shaped like design_matrix output: sorted column indices
    per row, signed counts, a few dozen active columns out of dim, and one
    stored explicit zero (in row 0, on a column no other entry touches)."""
    rng = np.random.default_rng(seed)
    active = rng.choice(dim, size=n_active + 1, replace=False)
    zero_col, active = active[0], active[1:]
    indptr, indices, data = [0], [], []
    for i in range(n):
        cols = rng.choice(active, size=rng.integers(1, 8), replace=False)
        vals = rng.choice([-2.0, -1.0, 1.0, 2.0, 3.0], size=len(cols))
        if i == 0:
            cols, vals = np.append(cols, zero_col), np.append(vals, 0.0)
        order = np.argsort(cols)
        indices.extend(cols[order].tolist())
        data.extend(vals[order].tolist())
        indptr.append(len(indices))
    X = sparse.csr_matrix(
        (np.array(data), np.array(indices, dtype=np.int64), np.array(indptr, dtype=np.int64)),
        shape=(n, dim),
    )
    return X, rng.uniform(size=n), zero_col


class TestActiveColumnTraining:
    @pytest.mark.parametrize("dim", [1 << 20, 1 << 12])
    @pytest.mark.parametrize("batch_size", [7, 64])  # does not divide n = 50; >= n
    def test_bit_identical_to_dense_loop(self, dim, batch_size):
        for seed in range(3):
            X, p, zero_col = _hashed_problem(seed, dim)
            config = clf.TrainConfig(seed=seed, epochs=4, learning_rate=0.5, l2=0.05,
                                     batch_size=batch_size)
            w_old, b_old = _dense_train_on_matrix(X, p, config, dim)
            cols, w_active, b_new = clf.train_on_matrix(X, p, config, dim)
            assert cols.dtype == np.int64
            assert cols.tolist() == np.unique(X.indices).tolist()
            assert w_active.tobytes() == w_old[cols].tobytes()
            w_new = _scatter(cols, w_active, dim)
            assert np.array_equal(w_new, w_old)
            assert w_new.tobytes() == w_old.tobytes()
            assert b_new == b_old
            untouched = np.ones(dim, dtype=bool)
            untouched[X.indices] = False
            assert np.all(w_new[untouched] == 0.0)
            assert w_new[zero_col] == 0.0
            assert np.count_nonzero(w_new) == np.unique(X.indices).size - 1

    def test_column_outside_dim_rejected(self):
        X, p, _ = _hashed_problem(0, 1 << 12)
        with pytest.raises(FitError, match="outside"):
            clf.train_on_matrix(X, p, clf.TrainConfig(epochs=1), 1 << 11)

    @pytest.mark.parametrize("keep", [slice(None), slice(0, None, 3), slice(0, 0)])
    def test_scores_bit_identical_to_dense_vector(self, keep):
        # Columns the model lacks (every third one kept, or none) weigh 0.0,
        # as in the dim-long vector the scores were once taken against.
        dim = 1 << 20
        X, _, _ = _hashed_problem(5, dim)
        cols = np.unique(X.indices)[keep]
        weights = np.random.default_rng(5).normal(size=len(cols))
        model = clf.ClassifierModel(columns=cols, weights=weights, bias=-0.3)
        want = clf._sigmoid(X @ _scatter(cols, weights, dim) - 0.3)
        assert clf.score_matrix(model, _numpy_csr(X)).tobytes() == want.tobytes()


class TestNoDimLongArray:
    def test_train_save_load_score_peak_memory(self, pain_candidates, tmp_path):
        # At n_bits=20 one dim-long float64 vector is 8 MB; the model of a
        # few active columns needs a few kB.
        import tracemalloc

        X = clf.design_matrix(pain_candidates)
        ids = [c.candidate_id for c in pain_candidates]
        labels = [ProbabilisticLabel(cid, p) for cid, p in zip(ids, [0.9, 0.1, 0.6, 0.3])]
        path = tmp_path / "model.bin"
        tracemalloc.start()
        try:
            model = clf.train_noise_aware(X, ids, labels, clf.TrainConfig(epochs=2))
            model.save(path)
            clf.score_matrix(clf.ClassifierModel.load(path), X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert X.shape[1] == 1 << 20
        assert peak < 2_000_000


def _scipy_cases(synth_candidates):
    """Hashed-problem matrices and a design matrix of synth candidates, as
    scipy CSR matrices."""
    for seed in range(3):
        for dim in (1 << 20, 1 << 12):
            yield _hashed_problem(seed, dim)[0]
    X = clf.design_matrix(synth_candidates[:300])
    yield sparse.csr_matrix((X.data, X.indices, X.indptr), shape=X.shape)


def _numpy_csr(S):
    return clf.CSRMatrix(S.data, S.indices.astype(np.int64), S.indptr.astype(np.int64), S.shape)


class TestNumpyCsr:
    # scipy.sparse is the oracle for the numpy CSR path the classifier runs on.
    def test_row_gather_matches_scipy(self, synth_candidates):
        rng = np.random.default_rng(0)
        for S in _scipy_cases(synth_candidates):
            X = _numpy_csr(S)
            n = S.shape[0]
            for rows in (rng.permutation(n), rng.integers(0, n, size=40), [n - 1], []):
                got, want = X.rows(rows), S[np.asarray(rows, dtype=np.int64)]
                assert got.shape == want.shape
                assert got.data.tobytes() == want.data.tobytes()
                assert np.array_equal(got.indices, want.indices)
                assert np.array_equal(got.indptr, want.indptr)

    def test_products_match_scipy_bit_for_bit(self, synth_candidates):
        rng = np.random.default_rng(1)
        for S in _scipy_cases(synth_candidates):
            X = _numpy_csr(S)
            w = rng.normal(size=S.shape[1])
            r = rng.normal(size=S.shape[0])
            assert clf.matvec(X, w).tobytes() == (S @ w).tobytes()
            assert clf.rmatvec(X, r).tobytes() == (S.T @ r).tobytes()

    def test_design_matrix_is_numpy_csr(self, synth_candidates):
        X = clf.design_matrix(synth_candidates[:20])
        assert isinstance(X, clf.CSRMatrix)
        assert X.shape == (20, clf.DIM)
        assert X.indices.dtype == X.indptr.dtype == np.int64
        assert X.indptr[-1] == len(X.data) == len(X.indices)
