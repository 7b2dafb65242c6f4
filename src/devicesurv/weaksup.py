"""Labeling-function engine and the generative label model.

Votes are ternary: TRUE (1), FALSE (0), ABSTAIN (-1). A ``LabelMatrix``
stores them as the bytes ``label_matrix.bin`` holds: one signed byte per
vote, row-major, a row of m LF votes per candidate. Applying LFs, saving,
loading and the LF statistics work on those bytes and load no numpy; the
statistics count each distinct vote row once, weighted by how often it
occurs. Only the label model, ``fit_label_model`` and ``posterior_labels``,
imports numpy, inside the function.

The label model is a conditionally independent accuracy/propensity model:
each labeling function j abstains with probability 1 - beta_j and, when
voting, agrees with the latent label with probability alpha_j. Fit by EM
with a closed-form M-step.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import ConfigError, FitError, parsing, read_csv, write_csv, writing

if TYPE_CHECKING:
    import numpy as np

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


class LabelMatrix:
    """The votes of ``lf_ids`` on ``candidate_ids``. ``vote_bytes`` holds
    them, n x m signed bytes, row-major; ``votes`` reads them as an n x m
    int8 numpy array, built on first use. ``votes`` may be passed as those
    bytes or as an n x m array."""

    def __init__(self, candidate_ids, lf_ids, votes, lf_errors=None):
        self.candidate_ids, self.lf_ids = candidate_ids, lf_ids
        self.lf_errors = {} if lf_errors is None else lf_errors
        if isinstance(votes, (bytes, bytearray)):
            self.vote_bytes, fits = bytes(votes), len(votes) == self.n * self.m
        else:
            import numpy as np

            array = np.asarray(votes, dtype=np.int8)
            self.vote_bytes, fits = array.tobytes(), array.shape == (self.n, self.m)
        if not fits:
            raise ConfigError("label matrix dimensions inconsistent with id lists")
        if len(set(candidate_ids)) != len(candidate_ids):
            raise ConfigError("candidate_ids must be unique")
        self._votes = None

    @property
    def n(self) -> int:
        return len(self.candidate_ids)

    @property
    def m(self) -> int:
        return len(self.lf_ids)

    @property
    def votes(self) -> np.ndarray:
        """The votes as a read-only n x m int8 array over ``vote_bytes``."""
        if self._votes is None:
            import numpy as np

            self._votes = np.frombuffer(self.vote_bytes, dtype=np.int8).reshape(self.n, self.m)
        return self._votes

    def vote_rows(self):
        """Each candidate's votes, in order, as a tuple of m ints."""
        if not self.m:
            return iter([()] * self.n)
        votes = iter(memoryview(self.vote_bytes).cast("b"))
        return zip(*[votes] * self.m)

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
            fh.write(self.vote_bytes)

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
                raise ValueError(f"expected {n * m} vote bytes for {n} x {m} votes, "
                                 f"found {len(raw)}")
            if raw.translate(None, b"\x00\x01\xff"):  # what is left is not 0, 1 or -1
                raise ValueError("a vote byte is not -1, 0 or 1")
        return cls(candidate_ids, lf_ids, raw)

    def write_csv(self, path) -> None:
        write_csv(path, ("candidate_id", "lf_id", "vote"),
                  ((cid, lf_id, VOTE_NAMES[v])
                   for cid, row in zip(self.candidate_ids, self.vote_rows())
                   for lf_id, v in zip(self.lf_ids, row)))


def apply_lfs(candidates, lfs) -> LabelMatrix:
    """Apply labeling functions to candidates, taken one at a time from any
    iterable. The first candidate's relation type must be every LF's. An LF
    raising internally records ABSTAIN for that row and increments its
    error counter. A vote equal to 1, 0 or -1 (True, 1.0 and numpy integers
    too) is stored as that int; any other is a ConfigError."""
    lfs = list(lfs)
    candidate_ids: list[str] = []
    votes = bytearray()
    errors = {lf.lf_id: 0 for lf in lfs}
    for cand in candidates:
        if not candidate_ids:
            bad = [lf.lf_id for lf in lfs if lf.relation_type != cand.relation_type]
            if bad:
                raise ConfigError(f"LFs {bad} do not share the candidates' relation type")
        candidate_ids.append(cand.candidate_id)
        for lf in lfs:
            try:
                v = lf(cand)
            except Exception:
                errors[lf.lf_id] += 1
                v = ABSTAIN
            if v not in (TRUE, FALSE, ABSTAIN):
                raise ConfigError(f"LF {lf.lf_id} returned invalid vote {v!r}")
            votes.append(int(v) & 0xFF)  # -1 is the byte 0xff
    return LabelMatrix(
        candidate_ids=candidate_ids,
        lf_ids=[lf.lf_id for lf in lfs],
        votes=votes,
        lf_errors=errors,
    )


def _soft_vote(row) -> float:
    """#TRUE / (#TRUE + #FALSE) of one vote row; 0.5 when no LF voted."""
    n_true, n_false = row.count(TRUE), row.count(FALSE)
    return n_true / (n_true + n_false) if n_true + n_false else 0.5


@dataclass(frozen=True)
class LFStat:
    coverage: float
    overlap: float
    conflict: float
    accuracy: float | None = None


@dataclass
class LFStats:
    per_lf: dict[str, LFStat]
    distribution: Counter = field(default_factory=Counter)


def lf_statistics(matrix: LabelMatrix, gold: dict[str, int] | None = None) -> LFStats:
    """Coverage/overlap/conflict per LF, plus empirical accuracy on gold
    (over non-abstaining rows) when gold labels are supplied; a gold id with
    no matrix row is skipped. An LF overlaps on a row where it and another
    LF vote, and conflicts on a row where it votes TRUE and another LF
    FALSE, or the reverse. ``distribution`` counts the rows with each
    ``_soft_vote``, rounded to 2 places. Each distinct vote row is scored
    once."""
    m = matrix.m
    coverage, overlap, conflict = [0] * m, [0] * m, [0] * m
    distribution = Counter()
    for row, count in Counter(matrix.vote_rows()).items():
        distribution[round(_soft_vote(row), 2)] += count
        overlapping = m - row.count(ABSTAIN) >= 2
        has_true, has_false = TRUE in row, FALSE in row
        for j, v in enumerate(row):
            if v != ABSTAIN:
                coverage[j] += count
                if overlapping:
                    overlap[j] += count
                if v == TRUE and has_false or v == FALSE and has_true:
                    conflict[j] += count
    n = max(matrix.n, 1)
    accuracy = [None] * m
    if gold is not None:
        row_of = dict(zip(matrix.candidate_ids, matrix.vote_rows()))
        voted, agree = [0] * m, [0] * m
        scored = Counter((row_of[cid], label) for cid, label in gold.items() if cid in row_of)
        for (row, label), count in scored.items():
            for j, v in enumerate(row):
                if v != ABSTAIN:
                    voted[j] += count
                if v == label:
                    agree[j] += count
        accuracy = [a / v if v else None for a, v in zip(agree, voted)]
    stats = {lf_id: LFStat(coverage=c / n, overlap=o / n, conflict=k / n, accuracy=a)
             for lf_id, c, o, k, a in zip(matrix.lf_ids, coverage, overlap, conflict, accuracy)}
    return LFStats(per_lf=stats, distribution=distribution)


@dataclass(frozen=True)
class ProbabilisticLabel:
    candidate_id: str
    p_true: float


def soft_majority_vote(matrix: LabelMatrix) -> list[ProbabilisticLabel]:
    """Each row's ``_soft_vote``, in matrix order."""
    rows = list(matrix.vote_rows())
    p_true = {row: _soft_vote(row) for row in set(rows)}
    return [ProbabilisticLabel(cid, p_true[row]) for cid, row in zip(matrix.candidate_ids, rows)]


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
    import numpy as np

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
    import numpy as np

    z = np.log(pi) - np.log(1 - pi) + logA - logB
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def _loglik(logA, logB, pi):
    import numpy as np

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
    import numpy as np

    # Checked first: a bad prior is a config error whatever the matrix holds.
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
    """Bayes-rule posteriors under the fitted model, one for each row some LF
    voted on, in matrix order. An all-abstain row carries no signal and gets
    no label, so the classifier does not train on it."""
    if list(model.lf_ids) != list(matrix.lf_ids):
        raise ConfigError("model and matrix lf_ids do not match")
    logA, logB = _log_class_scores(matrix.votes, model.alpha, model.beta)
    q = _posterior(logA, logB, model.class_prior)
    voted = (matrix.votes != ABSTAIN).any(axis=1)
    return [ProbabilisticLabel(cid, p)
            for cid, p, v in zip(matrix.candidate_ids, q.tolist(), voted.tolist()) if v]


def labels_to_csv(labels, path) -> None:
    write_csv(path, ("candidate_id", "p_true"),
              ((lab.candidate_id, f"{lab.p_true:.6f}") for lab in labels))


def labels_from_csv(path) -> list[ProbabilisticLabel]:
    """The labels ``labels_to_csv`` wrote; a repeated ``candidate_id`` or a
    ``p_true`` outside [0, 1], NaN included, is a bad row."""

    def label(row):
        p = float(row["p_true"])
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p_true {row['p_true']!r} is not in [0, 1]")
        return ProbabilisticLabel(row["candidate_id"], p)

    return read_csv(path, ("candidate_id", "p_true"), label, key="candidate_id")
