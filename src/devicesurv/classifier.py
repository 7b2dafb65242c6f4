"""Noise-aware logistic regression over signed-hashed sparse features.

The feature scheme replaces a sequence model with lexical n-grams around and
between the argument mentions plus markup flags (section, attributes, date
bins, token distance), hashed into a fixed 2^20-dimensional space. Training
minimizes the expected cross-entropy against probabilistic labels with L2,
by mini-batch SGD with seeded shuffling.

The sparse algebra is plain numpy over compressed-sparse-row arrays. Each
product adds its terms from 0.0 in entry order, as scipy's CSR and CSC
kernels do, so results match scipy.sparse bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import struct
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FitError, parsing, write_json, writing
from .extraction import RelationCandidate
from .lf_lib import between_tokens, left_window, right_window, token_distance

_MAGIC = b"DSCM\x01"


# The feature scheme: hashed columns, longest n-gram, window in tokens. A
# model file records it, and ``load`` refuses a file made under any other.
N_BITS = 20
NGRAM_MAX = 3
WINDOW = 3
DIM = 1 << N_BITS
_SCHEME = {"n_bits": N_BITS, "ngram_max": NGRAM_MAX, "window": WINDOW}
_DIGEST = hashlib.blake2b(f"v1|{N_BITS}|{NGRAM_MAX}|{WINDOW}".encode(), digest_size=8).hexdigest()


_DIST_BUCKETS = ((0, "0"), (2, "1-2"), (5, "3-5"), (10, "6-10"))


def _distance_bucket(d: int) -> str:
    for hi, label in _DIST_BUCKETS:
        if d <= hi:
            return label
    return ">10"


def _ngrams(tokens, n_max):
    for n in range(1, n_max + 1):
        for i in range(len(tokens) - n + 1):
            yield " ".join(tokens[i : i + n])


def raw_features(c: RelationCandidate) -> list[str]:
    """Human-readable feature strings before hashing."""
    feats: list[str] = []
    feats.extend(f"btw:{g}" for g in _ngrams(between_tokens(c), NGRAM_MAX))
    feats.extend(f"lw:{g}" for g in _ngrams(left_window(c, WINDOW), NGRAM_MAX))
    feats.extend(f"rw:{g}" for g in _ngrams(right_window(c, WINDOW), NGRAM_MAX))
    feats.append(f"arg1_id:{c.arg1.canonical_id}")
    feats.append(f"arg2_id:{c.arg2.canonical_id}")
    feats.append(f"arg1_type:{c.arg1.entity_type}")
    feats.append(f"arg2_type:{c.arg2.entity_type}")
    feats.append(f"dist:{_distance_bucket(token_distance(c))}")
    feats.append(f"sec:{c.section_header}")
    feats.extend(f"arg1_attr:{a}" for a in sorted(c.arg1.attributes))
    feats.extend(f"arg2_attr:{a}" for a in sorted(c.arg2.attributes))
    feats.extend(f"datebin:{b}" for b in sorted(set(c.date_bins)))
    return feats


def _hash_feature(feat: str) -> tuple[int, float]:
    h = int.from_bytes(hashlib.blake2b(feat.encode("utf-8"), digest_size=8).digest(), "big")
    return h & (DIM - 1), 1.0 if (h >> 60) & 1 else -1.0


@dataclass(frozen=True)
class CSRMatrix:
    """Compressed sparse rows: row i holds ``data[indptr[i]:indptr[i + 1]]``
    at columns ``indices[indptr[i]:indptr[i + 1]]``."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    def rows(self, which) -> "CSRMatrix":
        """The rows ``which``, in that order, each with its entries in order."""
        which = np.asarray(which, dtype=np.int64)
        starts = self.indptr[which]
        lengths = self.indptr[which + 1] - starts
        indptr = np.zeros(len(which) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        take = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        return CSRMatrix(self.data[take], self.indices[take], indptr, (len(which), self.shape[1]))


def _entry_rows(X) -> np.ndarray:
    return np.repeat(np.arange(X.shape[0]), np.diff(X.indptr))


def matvec(X, w) -> np.ndarray:
    """``X @ w`` for a CSR ``X``."""
    return np.bincount(_entry_rows(X), X.data * w[X.indices], minlength=X.shape[0])


def rmatvec(X, r) -> np.ndarray:
    """``X.T @ r`` for a CSR ``X``."""
    return np.bincount(X.indices, X.data * r[_entry_rows(X)], minlength=X.shape[1])


def design_matrix(candidates) -> CSRMatrix:
    """One CSR row per candidate, taken one at a time from any iterable: the
    signs of its hashed features summed per column, by ascending column.
    Each distinct feature string is hashed once. The entries accumulate in
    typed arrays that the CSR arrays then share, so no Python number is
    kept per entry."""
    hashes: dict[str, tuple[int, float]] = {}
    indptr, indices, data = array("q", [0]), array("q"), array("d")
    for c in candidates:
        acc: dict[int, float] = {}
        for feat in raw_features(c):
            hashed = hashes.get(feat)
            if hashed is None:
                hashed = hashes[feat] = _hash_feature(feat)
            idx, sign = hashed
            acc[idx] = acc.get(idx, 0.0) + sign
        cols = sorted(acc)
        indices.extend(cols)
        data.extend(map(acc.__getitem__, cols))
        indptr.append(len(indices))
    return CSRMatrix(
        np.frombuffer(data, dtype=np.float64), np.frombuffer(indices, dtype=np.int64),
        np.frombuffer(indptr, dtype=np.int64), (len(indptr) - 1, DIM),
    )


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 0
    epochs: int = 20
    learning_rate: float = 0.5
    l2: float = 1e-4
    batch_size: int = 32


@dataclass
class ClassifierModel:
    """A trained model as its active columns: the sorted int64 ``columns``
    of the hashed feature space and their ``weights``. A column not listed
    weighs 0.0, so no ``DIM``-long vector is ever built."""

    columns: np.ndarray
    weights: np.ndarray
    bias: float
    metadata: dict = field(default_factory=dict)
    threshold: float = 0.5

    def save(self, path) -> None:
        """Binary layout: magic, n_bits, bias, threshold, nnz, then int64
        indices and float64 weights of the nonzero entries. A JSON sidecar
        (path + ".json") carries the feature scheme, its digest and the
        metadata."""
        nz = self.weights != 0
        with writing(path, binary=True) as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<Bdd", N_BITS, self.bias, self.threshold))
            fh.write(struct.pack("<Q", int(np.count_nonzero(nz))))
            fh.write(self.columns[nz].astype(np.int64).tobytes())
            fh.write(self.weights[nz].astype(np.float64).tobytes())
        write_json(f"{path}.json", {"feature_config": _SCHEME, "feature_digest": _DIGEST,
                                    "metadata": self.metadata})

    @classmethod
    def load(cls, path) -> "ClassifierModel":
        """The model ``save`` wrote. A file made under another feature scheme
        is a ``ConfigError``. A truncated file, indices that are not strictly
        increasing or lie outside [0, DIM), and non-finite weights are bad
        input (``errors.parsing``)."""
        with open(str(path) + ".json", encoding="utf-8") as fh, parsing(f"{path}.json"):
            sidecar = json.load(fh)
            scheme, digest = sidecar["feature_config"], sidecar.get("feature_digest")
        if (scheme, digest) != (_SCHEME, _DIGEST):
            raise ConfigError(f"{path}: feature scheme {scheme} (digest {digest}) is not the "
                              f"scheme this version hashes with, {_SCHEME} (digest {_DIGEST})")
        with open(path, "rb") as fh, parsing(path):
            if fh.read(len(_MAGIC)) != _MAGIC:
                raise ConfigError(f"{path}: not a classifier model file")
            n_bits, bias, threshold = struct.unpack("<Bdd", _read_exact(fh, 17))
            if n_bits != N_BITS:
                raise ConfigError(f"{path}: header n_bits {n_bits} is not {N_BITS}")
            (nnz,) = struct.unpack("<Q", _read_exact(fh, 8))
            if nnz > DIM:
                raise ValueError(f"{nnz} entries for {DIM} columns")
            columns = np.frombuffer(_read_exact(fh, 8 * nnz), dtype=np.int64)
            weights = np.frombuffer(_read_exact(fh, 8 * nnz), dtype=np.float64)
            if np.any((columns < 0) | (columns >= DIM)):
                raise ValueError(f"index outside [0, {DIM})")
            if np.any(columns[1:] <= columns[:-1]):
                raise ValueError("indices not strictly increasing")
            if not np.all(np.isfinite(weights)):
                raise ValueError("non-finite weight")
        return cls(columns=columns, weights=weights, bias=bias,
                   metadata=sidecar.get("metadata", {}), threshold=threshold)


def _read_exact(fh, size: int) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise ValueError(f"truncated: expected {size} more bytes, found {len(data)}")
    return data


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def _gradient(w, b, X, p, l2):
    """P(true) of each row of the CSR ``X``, and the gradient in ``w`` and
    ``b`` of the noise-aware loss with L2 term ``l2 * ||w||^2``."""
    s = _sigmoid(matvec(X, w) + b)
    resid = s - p
    return s, rmatvec(X, resid) + 2 * l2 * w, float(np.sum(resid))


def loss_and_grad(w, b, X, p, l2):
    """Noise-aware cross-entropy with L2 over the CSR ``X``: summed over
    rows, lambda * ||w||^2."""
    s, grad_w, grad_b = _gradient(w, b, X, p, l2)
    eps = 1e-12
    loss = -float(np.sum(p * np.log(s + eps) + (1 - p) * np.log(1 - s + eps)))
    loss += l2 * float(w @ w)
    return loss, grad_w, grad_b


def train_noise_aware(X, candidate_ids, labels,
                      config: TrainConfig | None = None) -> ClassifierModel:
    """Mini-batch SGD on the noise-aware objective, deterministic for a
    fixed seed. Row i of the CSR ``X`` (from ``design_matrix``) is candidate
    ``candidate_ids[i]``; ``labels`` is a sequence of ProbabilisticLabel
    covering every one of them."""
    config = config or TrainConfig()
    candidate_ids = list(candidate_ids)
    if not candidate_ids:
        raise FitError("empty training set")
    by_id = {lab.candidate_id: lab.p_true for lab in labels}
    missing = [cid for cid in candidate_ids if cid not in by_id]
    if missing:
        raise FitError(f"candidates missing labels: {missing[:5]}")
    p = np.array([by_id[cid] for cid in candidate_ids])
    columns, weights, bias = train_on_matrix(X, p, config, DIM)
    return ClassifierModel(
        columns=columns,
        weights=weights,
        bias=bias,
        metadata={
            "seed": config.seed,
            "epochs": config.epochs,
            "learning_rate": config.learning_rate,
            "l2": config.l2,
            "batch_size": config.batch_size,
            "n_train": len(candidate_ids),
        },
    )


def train_on_matrix(X, p, config: TrainConfig, dim: int):
    """Mini-batch SGD over the columns some row of the CSR ``X`` touches;
    returns those columns (sorted int64), their weights and the bias. ``X``
    is anything with ``data``, ``indices``, ``indptr`` and ``shape``; a
    column outside [0, dim) is an error.

    An untouched column starts at 0 and its gradient is 0 + 2·l2·(…)·0, so it
    stays exactly 0: the columns and weights are the dim-wide loop's weights
    wherever they can be nonzero. The narrow matrix keeps each row's entries
    in the same order (``cols`` is sorted), so every product sums as the
    dim-wide loop did and the weights are bit-identical to it."""
    n = X.shape[0]
    cols, remap = np.unique(X.indices, return_inverse=True)
    if len(cols) and not (cols[0] >= 0 and cols[-1] < dim):
        raise FitError(f"feature column outside [0, {dim})")
    X = CSRMatrix(X.data, remap, X.indptr, (n, len(cols)))
    w = np.zeros(len(cols))
    b = 0.0
    rng = np.random.default_rng(config.seed)
    order = np.arange(n)
    for _epoch in range(config.epochs):
        rng.shuffle(order)
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            # The batch carries its share of the L2 term.
            _, grad_w, grad_b = _gradient(
                w, b, X.rows(batch), p[batch], config.l2 * (len(batch) / n))
            scale = config.learning_rate / len(batch)
            w -= scale * grad_w
            b -= scale * grad_b
    return cols.astype(np.int64), w, b


def score_matrix(model: ClassifierModel, X) -> np.ndarray:
    """P(true) for each row of the CSR ``X``. Each entry's weight is found in
    the model's sorted columns by binary search; an absent column weighs
    0.0, so the products and sums are those of ``X @ w`` over the dim-long
    weight vector."""
    cols = np.append(model.columns, -1)  # no feature column is -1
    pos = np.searchsorted(model.columns, X.indices)
    pos[cols[pos] != X.indices] = len(model.columns)
    w = np.append(model.weights, 0.0)
    return _sigmoid(matvec(CSRMatrix(X.data, pos, X.indptr, (X.shape[0], len(w))), w)
                    + model.bias)


def predict_many(model: ClassifierModel, candidates) -> np.ndarray:
    return score_matrix(model, design_matrix(candidates))


THRESHOLD_GRID = np.round(np.arange(0, 101) / 100.0, 2)


def select_threshold(scores, gold) -> float:
    """Grid-search the decision threshold maximizing F1 of the dev
    ``scores`` against their 0/1 ``gold`` labels, with both classes
    present; ties break toward the lowest threshold. F1 is 2tp/(2tp+fp+fn),
    so equal F1 values are equal floats and ``argmax`` takes the first."""
    scores = np.asarray(scores)
    gold = np.asarray(gold, dtype=np.int64)
    if gold.size == 0 or gold.min() == gold.max():
        raise FitError("dev set must contain both classes")
    pred = scores >= THRESHOLD_GRID[:, None]
    tp = np.sum(pred & (gold == 1), axis=1)
    fp = np.sum(pred & (gold == 0), axis=1)
    fn = np.sum(gold == 1) - tp
    f1 = 2 * tp / np.maximum(2 * tp + fp + fn, 1)
    return float(THRESHOLD_GRID[np.argmax(f1)])
