"""Labeling-function engine and the generative label model.

Votes are ternary: TRUE (1), FALSE (0), ABSTAIN (-1). A ``LabelMatrix``
stores them as the bytes ``label_matrix.bin`` holds: one signed byte per
vote, row-major, a row of m LF votes per candidate. Applying LFs, saving,
loading, the LF statistics and the label model work on those bytes and load
no numpy: the statistics, the EM fit and the posteriors score each distinct
vote row once, weighted by how often it occurs. Only ``LabelMatrix.votes``
builds a numpy array.

The label model is a conditionally independent accuracy/propensity model:
each labeling function j abstains with probability 1 - beta_j and, when
voting, agrees with the latent label with probability alpha_j. Fit by EM
with a closed-form M-step.
"""

from __future__ import annotations

import json
import logging
import math
from collections import Counter
from dataclasses import asdict, dataclass, field
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
    int8 numpy array, built on first use."""

    def __init__(self, candidate_ids, lf_ids, votes: bytes, lf_errors=None):
        self.candidate_ids, self.lf_ids = candidate_ids, lf_ids
        self.lf_errors = {} if lf_errors is None else lf_errors
        self.vote_bytes = bytes(votes)
        if len(self.vote_bytes) != self.n * self.m:
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
    alpha: list[float]
    beta: list[float]
    n_iter: int = 0
    log_likelihood: float = float("nan")
    ll_history: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        """What ``label_model.json`` holds: every field but ``ll_history``."""
        return {k: v for k, v in asdict(self).items() if k != "ll_history"}


def _class_scores(rows, alpha, beta, eps=1e-12) -> dict:
    """log P(row | Y=T) and log P(row | Y=F) of each distinct vote row,
    keyed by row."""
    given_true, given_false = [], []
    for a, b in zip(alpha, beta):
        a, b = min(max(a, eps), 1 - eps), min(max(b, 0.0), 1.0)
        abstain = math.log(min(max(1 - b, eps), 1.0))
        agree = math.log(min(max(b * a, eps), 1.0))
        disagree = math.log(min(max(b * (1 - a), eps), 1.0))
        # indexed by the vote: FALSE (0), TRUE (1), ABSTAIN (-1)
        given_true.append((disagree, agree, abstain))
        given_false.append((agree, disagree, abstain))
    return {row: (sum(t[v] for t, v in zip(given_true, row)),
                  sum(f[v] for f, v in zip(given_false, row))) for row in rows}


def _posterior(scores, pi) -> float:
    log_true, log_false = scores
    z = math.log(pi) - math.log(1 - pi) + log_true - log_false
    return 1.0 / (1.0 + math.exp(-min(max(z, -500), 500)))


def _loglik(scores, pi) -> float:
    """log P(row) = log(P(row, Y=T) + P(row, Y=F))."""
    joint = (scores[0] + math.log(pi), scores[1] + math.log(1 - pi))
    hi, lo = max(joint), min(joint)
    return hi + math.log1p(math.exp(lo - hi))


def _em_step(histogram: Counter, alpha, beta, pi):
    """One EM iteration over the distinct vote rows ``histogram`` counts:
    the log-likelihood at ``alpha``, each row's posterior P(Y=T | row), keyed
    by row, and the M-step's alpha: each LF's posterior-weighted agreement
    rate over the rows it voted on, clipped to [ALPHA_MIN, ALPHA_MAX]."""
    scores = _class_scores(histogram, alpha, beta)
    ll = sum(count * _loglik(scores[row], pi) for row, count in histogram.items())
    q = {row: _posterior(s, pi) for row, s in scores.items()}
    agree, voted = [0.0] * len(alpha), [0] * len(alpha)
    for row, count in histogram.items():
        for j, v in enumerate(row):
            if v != ABSTAIN:
                voted[j] += count
                agree[j] += count * (q[row] if v == TRUE else 1 - q[row])
    new_alpha = [min(max(g / c if c else a, ALPHA_MIN), ALPHA_MAX)
                 for g, c, a in zip(agree, voted, alpha)]
    return ll, q, new_alpha


def fit_label_model(matrix: LabelMatrix, class_prior: float = 0.5) -> LabelModel:
    """EM fit of the accuracy/propensity model on the vote-pattern histogram:
    each distinct vote row is scored once and weighted by its count.

    beta_j is pinned to empirical coverage and the class prior stays fixed;
    alpha starts at INIT_ALPHA and each iteration is one ``_em_step``. Stops
    on relative log-likelihood change < EM_TOL or after EM_MAX_ITER
    iterations.
    """
    # Checked first: a bad prior is a config error whatever the matrix holds.
    if not 0 < class_prior < 1:
        raise ConfigError("class prior must be in (0, 1)", context={"key": "class_prior"})
    n, m = matrix.n, matrix.m
    if n < 1 or m < 1:
        raise FitError("label matrix must be nonempty")
    histogram = Counter(matrix.vote_rows())
    covered = [sum(count for row, count in histogram.items() if row[j] != ABSTAIN)
               for j in range(m)]
    if not any(covered):
        raise FitError("no signal: every labeling function abstained on every row")
    beta = [c / n for c in covered]
    alpha = [INIT_ALPHA] * m
    ll_history: list[float] = []
    for n_iter in range(1, EM_MAX_ITER + 1):
        ll, _, new_alpha = _em_step(histogram, alpha, beta, class_prior)
        ll_history.append(ll)
        if n_iter > 1 and abs(ll - ll_history[-2]) < EM_TOL * abs(ll_history[-2]):
            break
        alpha = new_alpha
    # Symmetry breaking: labeling functions are assumed better than chance.
    active = [a for a, c in zip(alpha, covered) if c]
    if sum(active) / len(active) < 0.5:
        alpha = [min(max(1 - a, ALPHA_MIN), ALPHA_MAX) for a in alpha]
        ll_history.append(_em_step(histogram, alpha, beta, class_prior)[0])
    return LabelModel(lf_ids=list(matrix.lf_ids), class_prior=class_prior, alpha=alpha,
                      beta=beta, n_iter=n_iter, log_likelihood=ll_history[-1],
                      ll_history=ll_history)


def posterior_labels(model: LabelModel, matrix: LabelMatrix) -> list[ProbabilisticLabel]:
    """Bayes-rule posteriors under the fitted model, one for each row some LF
    voted on, in matrix order; each distinct vote row is scored once. An
    all-abstain row carries no signal and gets no label, so the classifier
    does not train on it."""
    if list(model.lf_ids) != list(matrix.lf_ids):
        raise ConfigError("model and matrix lf_ids do not match")
    scores = _class_scores(set(matrix.vote_rows()), model.alpha, model.beta)
    p_true = {row: _posterior(s, model.class_prior) for row, s in scores.items()}
    return [ProbabilisticLabel(cid, p_true[row])
            for cid, row in zip(matrix.candidate_ids, matrix.vote_rows())
            if TRUE in row or FALSE in row]


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
