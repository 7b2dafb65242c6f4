"""Labeling-function engine and the generative label model.

Votes are ternary: TRUE (1), FALSE (0), ABSTAIN (-1). The label model is a
conditionally independent accuracy/propensity model: each labeling function j
abstains with probability 1 - beta_j and, when voting, agrees with the latent
label with probability alpha_j. Fit by EM with a closed-form M-step.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FitError, InputFormatError, parsing, read_csv, write_csv, writing

log = logging.getLogger(__name__)

TRUE = 1
FALSE = 0
ABSTAIN = -1

VOTE_NAMES = {TRUE: "TRUE", FALSE: "FALSE", ABSTAIN: "ABSTAIN"}


@dataclass(frozen=True)
class LabelingFunction:
    lf_id: str
    relation_type: str
    fn: object  # callable RelationCandidate -> vote

    def __call__(self, candidate) -> int:
        return self.fn(candidate)


@dataclass
class LabelMatrix:
    candidate_ids: list[str]
    lf_ids: list[str]
    votes: np.ndarray  # n x m int8
    lf_errors: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        self.votes = np.asarray(self.votes, dtype=np.int8)
        n, m = self.votes.shape
        if n != len(self.candidate_ids) or m != len(self.lf_ids):
            raise ConfigError("label matrix dimensions inconsistent with id lists")
        if len(set(self.candidate_ids)) != len(self.candidate_ids):
            raise ConfigError("candidate_ids must be unique")

    @property
    def n(self) -> int:
        return self.votes.shape[0]

    @property
    def m(self) -> int:
        return self.votes.shape[1]

    def save(self, path) -> None:
        """Columnar binary format: one JSON header line (n, m, lf_ids,
        candidate_ids) followed by the raw int8 vote bytes, row-major."""
        header = {
            "n": self.n,
            "m": self.m,
            "lf_ids": self.lf_ids,
            "candidate_ids": self.candidate_ids,
        }
        with writing(path, binary=True) as fh:
            fh.write(json.dumps(header).encode("utf-8"))
            fh.write(b"\n")
            fh.write(self.votes.astype(np.int8).tobytes())

    @classmethod
    def load(cls, path) -> "LabelMatrix":
        with open(path, "rb") as fh:
            line = fh.readline()
            raw = fh.read()
        with parsing(path):
            header = json.loads(line.decode("utf-8"))
            n, m = int(header["n"]), int(header["m"])
            candidate_ids, lf_ids = header["candidate_ids"], header["lf_ids"]
            if len(candidate_ids) != n or len(lf_ids) != m or len(set(candidate_ids)) != n:
                raise ValueError(f"header id lists do not name {n} unique candidates "
                                 f"and {m} LFs")
        if len(raw) != n * m:
            raise InputFormatError(
                f"{path}: expected {n * m} vote bytes for {n} x {m} votes, found {len(raw)}",
                context={"path": str(path)},
            )
        votes = np.frombuffer(raw, dtype=np.int8).reshape(n, m).copy()
        if not np.isin(votes, list(VOTE_NAMES)).all():
            raise InputFormatError(f"{path}: a vote byte is not -1, 0 or 1",
                                   context={"path": str(path)})
        return cls(candidate_ids, lf_ids, votes)

    def write_csv(self, path) -> None:
        write_csv(path, ("candidate_id", "lf_id", "vote"),
                  ((cid, lf_id, VOTE_NAMES[v])
                   for cid, row in zip(self.candidate_ids, self.votes.tolist())
                   for lf_id, v in zip(self.lf_ids, row)))


def apply_lfs(candidates, lfs) -> LabelMatrix:
    """Apply labeling functions to candidates. An LF raising internally
    records ABSTAIN for that row and increments its error counter."""
    lfs = list(lfs)
    candidates = list(candidates)
    if candidates and lfs:
        bad = [lf.lf_id for lf in lfs if lf.relation_type != candidates[0].relation_type]
        if bad:
            raise ConfigError(f"LFs {bad} do not share the candidates' relation type")
    votes = np.full((len(candidates), len(lfs)), ABSTAIN, dtype=np.int8)
    errors = {lf.lf_id: 0 for lf in lfs}
    for i, cand in enumerate(candidates):
        for j, lf in enumerate(lfs):
            try:
                v = lf(cand)
            except Exception:
                errors[lf.lf_id] += 1
                v = ABSTAIN
            if v not in (TRUE, FALSE, ABSTAIN):
                raise ConfigError(f"LF {lf.lf_id} returned invalid vote {v!r}")
            votes[i, j] = v
    return LabelMatrix(
        candidate_ids=[c.candidate_id for c in candidates],
        lf_ids=[lf.lf_id for lf in lfs],
        votes=votes,
        lf_errors=errors,
    )


@dataclass(frozen=True)
class LFStat:
    coverage: float
    overlap: float
    conflict: float
    accuracy: float | None = None


@dataclass
class LFStats:
    per_lf: dict[str, LFStat]


def lf_statistics(matrix: LabelMatrix, gold: dict[str, int] | None = None) -> LFStats:
    """Coverage/overlap/conflict per LF, plus empirical accuracy on gold
    (over non-abstaining rows) when gold labels are supplied."""
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


def covered_candidate_ids(matrix: LabelMatrix) -> set[str]:
    """Ids of rows where at least one LF did not abstain. All-abstain rows
    carry no supervision signal and are excluded from classifier training."""
    mask = (matrix.votes != ABSTAIN).any(axis=1)
    return {cid for cid, keep in zip(matrix.candidate_ids, mask) if keep}


@dataclass(frozen=True)
class ProbabilisticLabel:
    candidate_id: str
    p_true: float


def soft_majority_vote(matrix: LabelMatrix) -> list[ProbabilisticLabel]:
    """p = #TRUE / (#TRUE + #FALSE) per row; all-abstain rows get 0.5."""
    V = matrix.votes
    n_true = (V == TRUE).sum(axis=1).astype(float)
    n_false = (V == FALSE).sum(axis=1).astype(float)
    denom = n_true + n_false
    with np.errstate(invalid="ignore"):
        p = np.where(denom > 0, n_true / np.where(denom > 0, denom, 1.0), 0.5)
    return [
        ProbabilisticLabel(cid, float(pi)) for cid, pi in zip(matrix.candidate_ids, p)
    ]


# EM settings: iteration cap, relative log-likelihood tolerance, the
# initial LF accuracy and the bounds each M-step clips accuracies to.
EM_MAX_ITER = 100
EM_TOL = 1e-6
INIT_ALPHA = 0.7
ALPHA_MIN, ALPHA_MAX = 0.01, 0.99


@dataclass
class LabelModel:
    lf_ids: list[str]
    class_prior: float
    alpha: np.ndarray
    beta: np.ndarray
    n_iter: int = 0
    log_likelihood: float = float("nan")
    ll_history: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "lf_ids": self.lf_ids,
            "class_prior": self.class_prior,
            "alpha": list(map(float, self.alpha)),
            "beta": list(map(float, self.beta)),
            "n_iter": self.n_iter,
            "log_likelihood": self.log_likelihood,
        }


def _log_class_scores(V, alpha, beta, eps=1e-12):
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


def _posterior(logA, logB, pi):
    z = np.log(pi) - np.log(1 - pi) + logA - logB
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def _loglik(logA, logB, pi):
    hi = np.maximum(logA + np.log(pi), logB + np.log(1 - pi))
    lo = np.minimum(logA + np.log(pi), logB + np.log(1 - pi))
    return float(np.sum(hi + np.log1p(np.exp(lo - hi))))


def fit_label_model(matrix: LabelMatrix, class_prior: float = 0.5) -> LabelModel:
    """EM fit of the accuracy/propensity model.

    E-step computes posteriors q_i; M-step sets alpha_j to the q-weighted
    agreement rate over non-abstaining rows. beta_j is pinned to empirical
    coverage; the class prior stays fixed. Stops on relative log-likelihood
    change < EM_TOL or after EM_MAX_ITER iterations.
    """
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
    if not 0 < pi < 1:
        raise ConfigError("class prior must be in (0, 1)")
    ll_history: list[float] = []
    prev_ll = -np.inf
    n_iter = 0
    is_true = (V == TRUE).astype(float)
    is_false = (V == FALSE).astype(float)
    denom = nonabstain.sum(axis=0).astype(float)
    for n_iter in range(1, EM_MAX_ITER + 1):
        logA, logB = _log_class_scores(V, alpha, beta)
        q = _posterior(logA, logB, pi)
        ll = _loglik(logA, logB, pi)
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
        logA, logB = _log_class_scores(V, alpha, beta)
        ll_history.append(_loglik(logA, logB, pi))
    return LabelModel(
        lf_ids=list(matrix.lf_ids),
        class_prior=pi,
        alpha=alpha,
        beta=beta,
        n_iter=n_iter,
        log_likelihood=ll_history[-1],
        ll_history=ll_history,
    )


def posterior_labels(model: LabelModel, matrix: LabelMatrix) -> list[ProbabilisticLabel]:
    """Bayes-rule posteriors under the fitted model; all-abstain rows get the
    class prior."""
    if list(model.lf_ids) != list(matrix.lf_ids):
        raise ConfigError("model and matrix lf_ids do not match")
    logA, logB = _log_class_scores(matrix.votes, model.alpha, model.beta)
    q = _posterior(logA, logB, model.class_prior)
    all_abstain = (matrix.votes == ABSTAIN).all(axis=1)
    q = np.where(all_abstain, model.class_prior, q)
    return [
        ProbabilisticLabel(cid, float(p)) for cid, p in zip(matrix.candidate_ids, q)
    ]


def labels_to_csv(labels, path) -> None:
    write_csv(path, ("candidate_id", "p_true"),
              ((lab.candidate_id, f"{lab.p_true:.6f}") for lab in labels))


def labels_from_csv(path) -> list[ProbabilisticLabel]:
    """The labels ``labels_to_csv`` wrote; a ``p_true`` outside [0, 1],
    NaN included, is a bad row."""

    def label(row):
        p = float(row["p_true"])
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p_true {row['p_true']!r} is not in [0, 1]")
        return ProbabilisticLabel(row["candidate_id"], p)

    return read_csv(path, ("candidate_id", "p_true"), label)
