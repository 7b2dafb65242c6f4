"""Labeling-function primitives and the starter and benchmark LF sets.

Primitives read candidate markup (tokens between arguments, section header,
ConText attributes) so heuristics stay one-liners. LFs are plain code: build
them with the helpers here or write your own callables.
"""

from __future__ import annotations

from .extraction import ATTR_HISTORICAL, HISTORICAL_HEADERS, RelationCandidate
from .weaksup import ABSTAIN, FALSE, TRUE, LabelingFunction

DEFAULT_REJECT_HEADERS = HISTORICAL_HEADERS


# --- primitives ---------------------------------------------------------


def between_tokens(c: RelationCandidate) -> list[str]:
    """Lowercased tokens strictly between the two argument spans."""
    left, right = c.left, c.right
    return [t.text.lower() for t in c.sentence.tokens[left.token_end : right.token_start]]


def token_distance(c: RelationCandidate) -> int:
    return max(0, c.right.token_start - c.left.token_end)


def get_section_header(c: RelationCandidate) -> str:
    return c.section_header


def sentence_tokens(c: RelationCandidate) -> list[str]:
    return [t.text.lower() for t in c.sentence.tokens]


def left_window(c: RelationCandidate, k: int = 3) -> list[str]:
    start = max(0, c.left.token_start - k)
    return [t.text.lower() for t in c.sentence.tokens[start : c.left.token_start]]


def right_window(c: RelationCandidate, k: int = 3) -> list[str]:
    return [t.text.lower() for t in c.sentence.tokens[c.right.token_end : c.right.token_end + k]]


def has_attrib(c: RelationCandidate, attr: str) -> bool:
    return attr in c.arg1.attributes or attr in c.arg2.attributes


def has_historical_attrib(c: RelationCandidate) -> bool:
    return has_attrib(c, ATTR_HISTORICAL)


# --- builders -----------------------------------------------------------


def contiguous_lf(relation_type: str, lf_id: str = "lf_contiguous_entities") -> LabelingFunction:
    """Adjacent argument mentions vote TRUE."""

    def fn(c):
        return TRUE if token_distance(c) == 0 else ABSTAIN

    return LabelingFunction(lf_id, relation_type, fn)


def historical_lf(relation_type: str, lf_id: str = "lf_historical") -> LabelingFunction:
    """Historical attribute on either argument votes FALSE."""

    def fn(c):
        return FALSE if has_historical_attrib(c) else ABSTAIN

    return LabelingFunction(lf_id, relation_type, fn)


def reject_section_lf(
    relation_type: str,
    headers=DEFAULT_REJECT_HEADERS,
    lf_id: str = "lf_reject_section",
) -> LabelingFunction:
    """Candidates under a rejected section header vote FALSE."""
    headers = frozenset(headers)

    def fn(c):
        return FALSE if get_section_header(c) in headers else ABSTAIN

    return LabelingFunction(lf_id, relation_type, fn)


def attribute_lf(relation_type: str, attr: str, vote: int, lf_id: str | None = None) -> LabelingFunction:
    def fn(c):
        return vote if has_attrib(c, attr) else ABSTAIN

    return LabelingFunction(lf_id or f"lf_attr_{attr}", relation_type, fn)


def keyword_lf(
    relation_type: str,
    keywords,
    vote: int,
    scope: str = "sentence",
    lf_id: str | None = None,
) -> LabelingFunction:
    """Vote when any keyword (lowercased token) appears in the given scope:
    "sentence", "between", "left", or "right"."""
    kws = frozenset(k.lower() for k in keywords)
    scopes = {
        "sentence": sentence_tokens,
        "between": between_tokens,
        "left": left_window,
        "right": right_window,
    }
    if scope not in scopes:
        raise ValueError(f"unknown scope {scope!r}")
    get = scopes[scope]

    def fn(c):
        return vote if kws.intersection(get(c)) else ABSTAIN

    return LabelingFunction(lf_id or f"lf_kw_{scope}_{'_'.join(sorted(kws))[:30]}", relation_type, fn)


def starter_lfs(relation_type: str) -> list[LabelingFunction]:
    """The three starter heuristics: contiguous entities TRUE, historical
    attribute FALSE, rejected section FALSE."""
    return [
        contiguous_lf(relation_type),
        historical_lf(relation_type),
        reject_section_lf(relation_type),
    ]


def benchmark_lfs() -> list[LabelingFunction]:
    """The synthetic benchmark's four pain-anatomy heuristics: a
    partial-coverage TRUE keyword plus three rejections (negated, historical,
    "monitor")."""
    return [
        keyword_lf("pain-anatomy", ["complains"], TRUE, scope="sentence", lf_id="lf_complains"),
        attribute_lf("pain-anatomy", "negated", FALSE, lf_id="lf_negated"),
        historical_lf("pain-anatomy"),
        keyword_lf("pain-anatomy", ["monitor"], FALSE, scope="sentence", lf_id="lf_monitor"),
    ]
