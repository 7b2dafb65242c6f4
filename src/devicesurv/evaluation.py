"""Precision/recall/F1 scoring and document-level splits."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import ConfigError, read_csv, write_csv


@dataclass(frozen=True)
class Metrics:
    tp: int
    fp: int
    fn: int

    @property
    def precision(self) -> float:
        """Percent in [0, 100]."""
        return 100.0 * self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return 100.0 * self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        return f1_from_pr(self.precision, self.recall)

    def rounded(self) -> tuple[float, float, float]:
        return round(self.precision, 1), round(self.recall, 1), round(self.f1, 1)


def f1_from_pr(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall (same units in, same out)."""
    if precision + recall <= 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def prf1(predictions: dict, gold: dict, threshold: float = 0.5) -> Metrics:
    """Counts over the union of candidate_id keys; a missing prediction
    scores as negative (an unextracted gold relation is a false negative)."""
    keys = set(predictions) | set(gold)
    tp = fp = fn = 0
    for k in keys:
        pred_pos = predictions.get(k, 0.0) >= threshold if k in predictions else False
        gold_pos = bool(gold.get(k, 0))
        if pred_pos and gold_pos:
            tp += 1
        elif pred_pos and not gold_pos:
            fp += 1
        elif not pred_pos and gold_pos:
            fn += 1
    return Metrics(tp=tp, fp=fp, fn=fn)


def split_documents(doc_ids, seed: int, sizes: tuple[int, int, int]):
    """Seeded shuffle split into (train, dev, test) id sets of exact sizes."""
    doc_ids = list(doc_ids)
    n_train, n_dev, n_test = sizes
    if n_train + n_dev + n_test > len(doc_ids):
        raise ConfigError(
            f"split sizes {sizes} exceed corpus size {len(doc_ids)}"
        )
    rng = random.Random(seed)
    shuffled = sorted(doc_ids)
    rng.shuffle(shuffled)
    train = set(shuffled[:n_train])
    dev = set(shuffled[n_train : n_train + n_dev])
    test = set(shuffled[n_train + n_dev : n_train + n_dev + n_test])
    return train, dev, test


def _zero_or_one(value: str, column: str) -> int:
    if value not in ("0", "1"):
        raise ValueError(f"{column} must be 0 or 1, found {value!r}")
    return int(value)


def read_gold(path) -> dict[str, int]:
    """Gold labels from a CSV with candidate_id and label columns; a
    duplicate id or a label other than 0 or 1 is an error."""

    return dict(read_csv(path, ("candidate_id", "label"), lambda row: (
        row["candidate_id"], _zero_or_one(row["label"], "label")), key="candidate_id"))


def scores_to_csv(candidate_ids, scores, threshold, path) -> None:
    """Write scores.csv: candidate_id, score to 6 places, and the 0/1
    predicted_label taken from the full-precision score."""
    write_csv(path, ("candidate_id", "score", "predicted_label"),
              ((cid, f"{float(s):.6f}", int(s >= threshold))
               for cid, s in zip(candidate_ids, scores)))


def read_scores(path) -> dict[str, int]:
    """The predicted_label column of a scores.csv, keyed by candidate_id; a
    duplicate id or a label other than 0 or 1 is an error."""

    return dict(read_csv(path, ("candidate_id", "predicted_label"), lambda row: (
        row["candidate_id"], _zero_or_one(row["predicted_label"], "predicted_label")),
        key="candidate_id"))


def metrics_to_csv(metrics: Metrics, path) -> None:
    p, r, f = metrics.rounded()
    write_csv(path, ("precision", "recall", "f1", "tp", "fp", "fn"),
              [(p, r, f, metrics.tp, metrics.fp, metrics.fn)])
