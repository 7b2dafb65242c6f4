"""Unit and property tests for the LF engine and generative label model."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from devicesurv import synth
from devicesurv.errors import ConfigError, FitError, InputFormatError
from devicesurv.weaksup import (
    ABSTAIN,
    ALPHA_MAX,
    ALPHA_MIN,
    EM_MAX_ITER,
    EM_TOL,
    FALSE,
    INIT_ALPHA,
    TRUE,
    LabelMatrix,
    LabelModel,
    LabelingFunction,
    LFStat,
    LFStats,
    ProbabilisticLabel,
    _em_step,
    apply_lfs,
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
        votes=votes.tobytes(),
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

    def test_one_pass_iterable(self):
        # The CLI streams candidates from their file: each is read once.
        lf = LabelingFunction("lf0", "pain-anatomy", lambda c: TRUE)
        matrix = apply_lfs((FakeCandidate(f"c{i}") for i in range(3)), [lf])
        assert matrix.candidate_ids == ["c0", "c1", "c2"]
        assert matrix.votes.tolist() == [[TRUE]] * 3

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
            LabelMatrix(["a", "a"], ["lf0"], np.zeros((2, 1), dtype=np.int8).tobytes())


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
        matrix = LabelMatrix([f"c{i}" for i in range(50)], [f"lf{j}" for j in range(4)],
                             votes.tobytes())
        for st_ in lf_statistics(matrix).per_lf.values():
            assert st_.conflict <= st_.overlap <= st_.coverage

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_pairwise_loop(self, seed):
        # The reference compares each pair of LFs on each row; gold covers a
        # random subset of rows, in shuffled order.
        rng = np.random.default_rng(seed)
        n, m = rng.integers(1, 60), rng.integers(1, 7)
        votes = rng.choice([TRUE, FALSE, ABSTAIN], size=(n, m), p=rng.dirichlet([1, 1, 1]))
        matrix = LabelMatrix([f"c{i}" for i in range(n)], [f"lf{j}" for j in range(m)],
                             votes.astype(np.int8).tobytes())
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

    def test_gold_ids_outside_the_matrix_are_skipped(self):
        matrix = _matrix([[TRUE, ABSTAIN], [FALSE, TRUE], [TRUE, FALSE]])
        gold = {"c0": 1, "c1": 1, "c2": 0}
        with_outside = {"nope": 0, **gold, "c9": 1}
        assert lf_statistics(matrix, with_outside) == lf_statistics(matrix, gold)
        accuracy = [st_.accuracy for st_ in lf_statistics(matrix, with_outside).per_lf.values()]
        assert accuracy == [1 / 3, 1.0]


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
            np.hstack([base.votes, np.full((base.n, 1), ABSTAIN, dtype=np.int8)]).tobytes(),
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
        assert model.alpha == [0.99, 0.99]

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
            matrix.votes[:, perm].tobytes(),
        )
        pmodel = fit_label_model(permuted)
        assert np.allclose(pmodel.alpha, [model.alpha[j] for j in perm])
        assert np.allclose(pmodel.beta, [model.beta[j] for j in perm])
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
            np.vstack([matrix.votes, matrix.votes]).tobytes(),
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
    def test_all_abstain_row_gets_no_label(self):
        matrix = _matrix([[TRUE], [ABSTAIN], [FALSE]])
        model = fit_label_model(matrix, class_prior=0.3)
        labels = posterior_labels(model, matrix)
        assert [lab.candidate_id for lab in labels] == ["c0", "c2"]

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


# The numpy bodies lf_statistics, soft_majority_vote and covered_candidate_ids
# had before they counted distinct vote rows, kept verbatim as their oracle.
def _oracle_lf_statistics(matrix: LabelMatrix, gold: dict[str, int] | None = None) -> LFStats:
    V = matrix.votes
    n = V.shape[0]
    nonabstain = V != ABSTAIN
    is_true, is_false = V == TRUE, V == FALSE
    # an LF conflicts on a row when it votes TRUE and another LF FALSE, or
    # the reverse
    conflicting = ((is_true & is_false.any(axis=1)[:, None])
                   | (is_false & is_true.any(axis=1)[:, None]))
    overlapping = nonabstain & (nonabstain.sum(axis=1) >= 2)[:, None]
    coverage, overlap, conflict = ((rows.sum(axis=0) / max(n, 1)).tolist()
                                   for rows in (nonabstain, overlapping, conflicting))
    accuracy = [None] * len(matrix.lf_ids)
    if gold is not None:
        missing = sorted(set(gold) - set(matrix.candidate_ids))
        if missing:
            raise InputFormatError(
                f"gold ids not in matrix: {missing[:5]}{'...' if len(missing) > 5 else ''}",
                context={"missing": missing},
            )
        idx = {cid: i for i, cid in enumerate(matrix.candidate_ids)}
        G = V[[idx[cid] for cid in gold]]
        voted = (G != ABSTAIN).sum(axis=0)
        agree = (G == np.array(list(gold.values()))[:, None]).sum(axis=0)
        accuracy = [int(a) / int(v) if v else None for a, v in zip(agree, voted)]
    stats = {lf_id: LFStat(coverage=c, overlap=o, conflict=k, accuracy=a) for lf_id, c, o, k, a
             in zip(matrix.lf_ids, coverage, overlap, conflict, accuracy)}
    return LFStats(per_lf=stats)


def _oracle_covered_candidate_ids(matrix: LabelMatrix) -> set[str]:
    mask = (matrix.votes != ABSTAIN).any(axis=1)
    return {cid for cid, keep in zip(matrix.candidate_ids, mask) if keep}


def _oracle_soft_majority_vote(matrix: LabelMatrix) -> list[ProbabilisticLabel]:
    V = matrix.votes
    n_true = (V == TRUE).sum(axis=1).astype(float)
    n_false = (V == FALSE).sum(axis=1).astype(float)
    denom = n_true + n_false
    with np.errstate(invalid="ignore"):
        p = np.where(denom > 0, n_true / np.where(denom > 0, denom, 1.0), 0.5)
    return [
        ProbabilisticLabel(cid, float(pi)) for cid, pi in zip(matrix.candidate_ids, p)
    ]


@st.composite
def _matrices_with_gold(draw):
    """A matrix of n in [0, 80] rows and m in [0, 6] LFs, some rows all
    abstaining, and gold labels for a shuffled subset of its rows, or none."""
    n, m = draw(st.integers(0, 80)), draw(st.integers(0, 6))
    row = st.lists(st.sampled_from([TRUE, FALSE, ABSTAIN]), min_size=m, max_size=m)
    rows = draw(st.lists(st.just([ABSTAIN] * m) | row, min_size=n, max_size=n))
    votes = np.array(rows, dtype=np.int8).reshape(n, m)
    matrix = LabelMatrix([f"c{i}" for i in range(n)], [f"lf{j}" for j in range(m)],
                         votes.tobytes())
    assert np.array_equal(matrix.votes, votes)
    gold = None
    if draw(st.booleans()):
        scored = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
        gold = {f"c{i}": draw(st.sampled_from([0, 1])) for i in scored}
    return matrix, gold


class TestStatisticsOracle:
    @given(_matrices_with_gold())
    @settings(max_examples=300, deadline=None)
    def test_equal_to_the_numpy_bodies(self, case):
        matrix, gold = case
        stats, expected = lf_statistics(matrix, gold), _oracle_lf_statistics(matrix, gold)
        assert list(stats.per_lf.items()) == list(expected.per_lf.items())
        assert soft_majority_vote(matrix) == _oracle_soft_majority_vote(matrix)
        assert stats.distribution == Counter(
            round(lab.p_true, 2) for lab in _oracle_soft_majority_vote(matrix))


class TestCoverage:
    # The covered candidates are the ones posterior_labels labels. The fit
    # refuses a matrix without a vote, so every drawn one holds one.
    @given(_matrices_with_gold().filter(lambda case: (case[0].votes != ABSTAIN).any()))
    @settings(max_examples=100, deadline=None)
    def test_covered_candidate_ids(self, case):
        matrix, _ = case
        covered = _oracle_covered_candidate_ids(matrix)
        labels = posterior_labels(fit_label_model(matrix), matrix)
        assert [lab.candidate_id for lab in labels] == [
            cid for cid in matrix.candidate_ids if cid in covered]


# The numpy bodies of the label model before it ran on the vote-pattern
# histogram, kept verbatim as its oracle: they score every row of the n x m
# vote array.
def _oracle_log_class_scores(V, alpha, beta, eps=1e-12):
    """Per-row log P(votes | Y=T) and log P(votes | Y=F)."""
    a = np.clip(alpha, eps, 1 - eps)
    b = np.clip(beta, 0.0, 1.0)
    log_abstain = np.log(np.clip(1 - b, eps, 1.0))
    log_agree = np.log(np.clip(b * a, eps, 1.0))
    log_disagree = np.log(np.clip(b * (1 - a), eps, 1.0))
    is_true = V == TRUE
    is_false = V == FALSE
    is_abs = V == ABSTAIN
    logA = (
        is_true @ log_agree + is_false @ log_disagree + is_abs @ log_abstain
    )
    logB = (
        is_true @ log_disagree + is_false @ log_agree + is_abs @ log_abstain
    )
    return logA, logB


def _oracle_posterior(logA, logB, pi):
    z = np.log(pi) - np.log(1 - pi) + logA - logB
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def _oracle_loglik(logA, logB, pi):
    hi = np.maximum(logA + np.log(pi), logB + np.log(1 - pi))
    lo = np.minimum(logA + np.log(pi), logB + np.log(1 - pi))
    return float(np.sum(hi + np.log1p(np.exp(lo - hi))))


def _oracle_em_step(V, alpha, beta, pi):
    """One pass of the old fit's loop body: the log-likelihood, every row's
    posterior and the M-step's alpha."""
    logA, logB = _oracle_log_class_scores(V, alpha, beta)
    q = _oracle_posterior(logA, logB, pi)
    ll = _oracle_loglik(logA, logB, pi)
    is_true = (V == TRUE).astype(float)
    is_false = (V == FALSE).astype(float)
    denom = (V != ABSTAIN).sum(axis=0).astype(float)
    agree = q @ is_true + (1 - q) @ is_false
    with np.errstate(invalid="ignore"):
        new_alpha = np.where(denom > 0, agree / np.where(denom > 0, denom, 1.0), alpha)
    return ll, q, np.clip(new_alpha, ALPHA_MIN, ALPHA_MAX)


def _oracle_fit_label_model(matrix: LabelMatrix, class_prior: float = 0.5) -> LabelModel:
    if not 0 < class_prior < 1:
        raise ConfigError("class prior must be in (0, 1)", context={"key": "class_prior"})
    V = matrix.votes
    n, m = V.shape
    if n < 1 or m < 1:
        raise FitError("label matrix must be nonempty")
    nonabstain = V != ABSTAIN
    if not nonabstain.any():
        raise FitError("no signal: every labeling function abstained on every row")
    beta = nonabstain.mean(axis=0)
    alpha = np.full(m, INIT_ALPHA)
    pi = class_prior
    ll_history: list[float] = []
    prev_ll = -np.inf
    n_iter = 0
    is_true = (V == TRUE).astype(float)
    is_false = (V == FALSE).astype(float)
    denom = nonabstain.sum(axis=0).astype(float)
    for n_iter in range(1, EM_MAX_ITER + 1):
        logA, logB = _oracle_log_class_scores(V, alpha, beta)
        q = _oracle_posterior(logA, logB, pi)
        ll = _oracle_loglik(logA, logB, pi)
        ll_history.append(ll)
        if prev_ll != -np.inf and abs(ll - prev_ll) < EM_TOL * abs(prev_ll):
            break
        prev_ll = ll
        agree = q @ is_true + (1 - q) @ is_false
        with np.errstate(invalid="ignore"):
            new_alpha = np.where(denom > 0, agree / np.where(denom > 0, denom, 1.0), alpha)
        alpha = np.clip(new_alpha, ALPHA_MIN, ALPHA_MAX)
    # Symmetry breaking: labeling functions are assumed better than chance.
    active = beta > 0
    if active.any() and float(alpha[active].mean()) < 0.5:
        alpha = np.clip(1 - alpha, ALPHA_MIN, ALPHA_MAX)
        logA, logB = _oracle_log_class_scores(V, alpha, beta)
        ll_history.append(_oracle_loglik(logA, logB, pi))
    return LabelModel(
        lf_ids=list(matrix.lf_ids),
        class_prior=pi,
        alpha=alpha,
        beta=beta,
        n_iter=n_iter,
        log_likelihood=ll_history[-1],
        ll_history=ll_history,
    )


def _assert_close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=0)


@st.composite
def _matrices_with_alpha(draw):
    """A drawn matrix, an alpha in [ALPHA_MIN, ALPHA_MAX] per LF and a class
    prior."""
    matrix, _ = draw(_matrices_with_gold())
    alpha = draw(st.lists(st.floats(ALPHA_MIN, ALPHA_MAX), min_size=matrix.m,
                          max_size=matrix.m))
    return matrix, alpha, draw(st.sampled_from([0.5, 0.1, 0.73]))


class TestEMOracle:
    # Rows with two or more votes, conflicting ones and repeated ones.
    @example(case=(_matrix([[TRUE, FALSE, ABSTAIN], [TRUE, TRUE, FALSE], [TRUE, TRUE, FALSE],
                            [ABSTAIN, ABSTAIN, ABSTAIN], [FALSE, FALSE, TRUE]]),
                   [0.2, 0.9, 0.6], 0.5))
    @given(case=_matrices_with_alpha())
    @settings(max_examples=300, deadline=None)
    def test_one_step_matches_the_numpy_bodies(self, case):
        matrix, alpha, pi = case
        beta = [c.coverage for c in lf_statistics(matrix).per_lf.values()]
        ll, q, new_alpha = _em_step(Counter(matrix.vote_rows()), alpha, beta, pi)
        expected_ll, expected_q, expected_alpha = _oracle_em_step(matrix.votes, alpha, beta, pi)
        _assert_close(ll, expected_ll)
        _assert_close(new_alpha, expected_alpha)
        _assert_close([q[row] for row in matrix.vote_rows()], expected_q)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("accuracies,coverages,flips", [
        ([0.9, 0.8, 0.7, 0.6], [0.5] * 4, False),
        # EM ends below chance on these two, and the fit flips alpha
        ([0.05, 0.9], [0.9, 0.2], True),
        ([0.85, 0.6, 0.3], [0.2, 0.3, 0.9], True),
    ], ids=["four", "flipped", "uneven"])
    def test_full_fit_matches_the_numpy_fit(self, seed, accuracies, coverages, flips):
        specs = [synth.LFSpec(f"lf{j}", a, b) for j, (a, b) in enumerate(zip(accuracies, coverages))]
        matrix, _ = synth.gen_label_matrix(5000, specs, 0.5, seed=seed)
        model, expected = fit_label_model(matrix), _oracle_fit_label_model(matrix)
        assert len(expected.ll_history) == expected.n_iter + flips
        assert model.n_iter == expected.n_iter
        assert model.beta == expected.beta.tolist()
        _assert_close(model.ll_history, expected.ll_history)
        _assert_close(model.alpha, expected.alpha)
        _assert_close(model.log_likelihood, expected.log_likelihood)
        np.testing.assert_allclose([lab.p_true for lab in posterior_labels(model, matrix)],
                                   [lab.p_true for lab in posterior_labels(expected, matrix)],
                                   rtol=0, atol=1e-12)
