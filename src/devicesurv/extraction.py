"""Dictionary tagging, ConText-style attribute detection, and candidate generation.

Entities are tagged by longest-match dictionary lookup over tokens. Attributes
(negated / historical / hypothetical) come from three sources that union:
trigger scopes, section membership, and in-sentence past date mentions.
Relation candidates are the typed Cartesian product of mentions in a sentence.

Each ``Dictionary`` and ``TriggerLexicon`` is compiled once, when it is built,
over lowercased token tuples: a dictionary into a token trie, a lexicon into
an index of its triggers by first word with pre-normalised terminators. The
per-sentence functions then read each sentence's tokens once and normalise no
dictionary term or trigger phrase.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .corpus import DateMention, Document, SectionSpan, Sentence, tokenize
from .errors import ConfigError, InputFormatError, decoded_lines, parsing, writing

ENTITY_TYPES = ("implant", "complication", "pain", "anatomy")

COMPLICATION_SUBCATEGORIES = (
    "revision",
    "component_wear",
    "mechanical_failure",
    "particle_disease",
    "radiographic_abnormality",
    "infection",
)

RELATION_TYPES = ("pain-anatomy", "implant-complication")

# arg1 type, arg2 type per relation
RELATION_ARG_TYPES = {
    "pain-anatomy": ("pain", "anatomy"),
    "implant-complication": ("complication", "implant"),
}

# Laterality / anatomical-position modifiers absorbed into anatomy spans.
POSITION_MODIFIERS = frozenset(
    {
        "left", "right", "bilateral", "lateral", "medial",
        "proximal", "distal", "anterior", "posterior",
        "r", "l", "rt", "lt",
    }
)

ATTR_NEGATED = "negated"
ATTR_HISTORICAL = "historical"
ATTR_HYPOTHETICAL = "hypothetical"

# ConText: a trigger's scope runs this many tokens from it.
CONTEXT_WINDOW = 6
# Sections under these headers are historical.
HISTORICAL_HEADERS = frozenset({"PAST MEDICAL HISTORY", "PAST SURGICAL HISTORY"})
# Past date bins at this level or older mark the sentence historical
# (level 3 is the 30-365 day bin).
HISTORICAL_BIN_LEVEL = 3


def _norm_words(term: str) -> tuple[str, ...]:
    return tuple(t.text.lower() for t in tokenize(term))


def _norm_term(term: str) -> str:
    return " ".join(_norm_words(term))


@dataclass(frozen=True)
class DictEntry:
    canonical_id: str
    entity_type: str
    subcategory: str | None
    source_line: int


@dataclass
class Dictionary:
    """Normalised term -> entry. ``trie`` is compiled from ``entries`` at
    construction: nested ``{word: node}`` dicts, and the node a term ends at
    holds its entry under the key ``None``. Build a new ``Dictionary`` rather
    than edit ``entries``."""

    entries: dict[str, DictEntry]
    trie: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.trie = {}
        for key, entry in self.entries.items():
            node = self.trie
            for word in key.split(" "):
                node = node.setdefault(word, {})
            node[None] = entry


def _tsv_rows(path):
    """(line number, stripped columns) for each row of the tab-separated file
    ``path``, skipping blank lines and lines starting with '#'. A row of
    fewer than 3 columns is an ``InputFormatError`` naming path:line."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(decoded_lines(fh, path), start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            cols = [col.strip() for col in line.split("\t")]
            if len(cols) < 3:
                raise InputFormatError(
                    f"{path}:{lineno}: expected at least 3 tab-separated columns",
                    context={"line": lineno},
                )
            yield lineno, cols


def load_dictionary(path) -> Dictionary:
    """Load a tab-separated dictionary: term, canonical_id, entity_type,
    subcategory (optional, complications only). Lookup is case-insensitive.
    """
    entries: dict[str, DictEntry] = {}
    for lineno, cols in _tsv_rows(path):
        term, canonical_id, entity_type = cols[:3]
        subcategory = cols[3] if len(cols) > 3 and cols[3] else None
        if not term:
            raise InputFormatError(f"{path}:{lineno}: empty term", context={"line": lineno})
        if entity_type not in ENTITY_TYPES:
            raise InputFormatError(
                f"{path}:{lineno}: unknown entity_type {entity_type!r}",
                context={"line": lineno},
            )
        if entity_type == "complication":
            if subcategory not in COMPLICATION_SUBCATEGORIES:
                raise InputFormatError(
                    f"{path}:{lineno}: complication needs a subcategory, got {subcategory!r}",
                    context={"line": lineno},
                )
        elif subcategory is not None:
            raise InputFormatError(
                f"{path}:{lineno}: subcategory only valid for complications",
                context={"line": lineno},
            )
        key = _norm_term(term)
        entry = DictEntry(canonical_id, entity_type, subcategory, lineno)
        existing = entries.get(key)
        if existing is not None and existing.entity_type != entity_type:
            raise InputFormatError(
                f"{path}: term {term!r} has conflicting entity types "
                f"(lines {existing.source_line} and {lineno})",
                context={"lines": [existing.source_line, lineno]},
            )
        entries[key] = entry
    return Dictionary(entries=entries)


@dataclass
class EntityMention:
    sentence: Sentence
    char_start: int
    char_end: int
    surface: str
    entity_type: str
    canonical_id: str
    subcategory: str | None
    token_start: int
    token_end: int
    attributes: set[str] = field(default_factory=set)

    def __post_init__(self):
        if (self.subcategory is not None) != (self.entity_type == "complication"):
            raise ValueError("only complication mentions carry a subcategory")


def tag_entities(sentence: Sentence, dictionaries) -> list[EntityMention]:
    """Tag dictionary terms with longest-match-wins, left-to-right matching,
    independently per entity type; on an equal term a later dictionary wins
    within its type. Anatomy mentions absorb adjacent preceding
    laterality/position modifier tokens into their span."""
    toks = sentence.tokens
    norm = [t.text.lower() for t in toks]
    n = len(norm)
    tries = [d.trie for d in dictionaries]
    free: dict[str, int] = {}  # entity type -> first token after its last mention
    mentions: list[EntityMention] = []
    for i in range(n):
        longest: dict[str, tuple[int, DictEntry]] = {}  # type -> (token end, entry)
        for trie in tries:
            node, end = trie.get(norm[i]), i + 1
            while node is not None:
                entry = node.get(None)
                if entry is not None:
                    best = longest.get(entry.entity_type)
                    if best is None or end >= best[0]:
                        longest[entry.entity_type] = (end, entry)
                node = node.get(norm[end]) if end < n else None
                end += 1
        for etype, (end_tok, entry) in longest.items():
            if i < free.get(etype, 0):
                continue
            free[etype] = end_tok
            start_tok = i
            if etype == "anatomy":
                while start_tok > 0 and norm[start_tok - 1] in POSITION_MODIFIERS:
                    start_tok -= 1
            cs, ce = toks[start_tok].start, toks[end_tok - 1].end
            mentions.append(
                EntityMention(
                    sentence=sentence,
                    char_start=cs,
                    char_end=ce,
                    surface=sentence.text[cs - sentence.char_start : ce - sentence.char_start],
                    entity_type=etype,
                    canonical_id=entry.canonical_id,
                    subcategory=entry.subcategory,
                    token_start=start_tok,
                    token_end=end_tok,
                )
            )
    mentions.sort(key=lambda m: (m.char_start, m.char_end, m.entity_type))
    return mentions


@dataclass(frozen=True)
class Trigger:
    phrase: str
    category: str  # negation | historical | hypothetical
    direction: str  # forward | backward | bidirectional
    terminators: tuple[str, ...] = ()


TRIGGER_CATEGORIES = {"negation": ATTR_NEGATED, "historical": ATTR_HISTORICAL, "hypothetical": ATTR_HYPOTHETICAL}


@dataclass
class TriggerLexicon:
    """``by_first_word`` is compiled from ``triggers`` at construction: the
    first normalised word of a phrase -> (words, attribute, direction,
    terminators as word tuples) of each trigger that starts with it. Build a
    new ``TriggerLexicon`` rather than edit ``triggers``."""

    triggers: list[Trigger]
    by_first_word: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.by_first_word = {}
        for trig in self.triggers:
            words = _norm_words(trig.phrase)
            self.by_first_word.setdefault(words[0], []).append((
                words, TRIGGER_CATEGORIES[trig.category], trig.direction,
                tuple(_norm_words(t) for t in trig.terminators)))


def load_trigger_lexicon(path) -> TriggerLexicon:
    """Load a tab-separated trigger lexicon: trigger, category, direction,
    terminators (comma-joined, may be empty)."""
    triggers: list[Trigger] = []
    for lineno, cols in _tsv_rows(path):
        phrase, category, direction = cols[:3]
        if not phrase:
            raise InputFormatError(f"{path}:{lineno}: empty trigger", context={"line": lineno})
        if category not in TRIGGER_CATEGORIES:
            raise InputFormatError(
                f"{path}:{lineno}: unknown category {category!r}", context={"line": lineno}
            )
        if direction not in ("forward", "backward", "bidirectional"):
            raise InputFormatError(
                f"{path}:{lineno}: unknown direction {direction!r}", context={"line": lineno}
            )
        terms = ()
        if len(cols) > 3 and cols[3]:
            terms = tuple(t.strip() for t in cols[3].split(",") if t.strip())
        triggers.append(Trigger(phrase, category, direction, terms))
    return TriggerLexicon(triggers)


def _find_phrase(norm_tokens: tuple, words: tuple) -> list[tuple[int, int]]:
    hits = []
    for i in range(len(norm_tokens) - len(words) + 1):
        if norm_tokens[i : i + len(words)] == words:
            hits.append((i, i + len(words)))
    return hits


def apply_context(
    sentence: Sentence,
    mentions: list[EntityMention],
    lexicon: TriggerLexicon,
    section: SectionSpan | None = None,
    dates: list[DateMention] | None = None,
) -> list[EntityMention]:
    """Union attributes onto mentions from trigger scopes, the section rule,
    and the past-date rule. Spans are never altered; attributes only grow."""
    norm = tuple(t.text.lower() for t in sentence.tokens)

    for tstart, word in enumerate(norm):
        for words, attr, direction, terminators in lexicon.by_first_word.get(word, ()):
            tend = tstart + len(words)
            if norm[tstart:tend] != words:
                continue
            if direction in ("forward", "bidirectional"):
                scope_end = min(len(norm), tend + CONTEXT_WINDOW)
                scope_end = _truncate_forward(norm, tend, scope_end, terminators)
                for m in mentions:
                    if tend <= m.token_start < scope_end:
                        m.attributes.add(attr)
            if direction in ("backward", "bidirectional"):
                scope_start = max(0, tstart - CONTEXT_WINDOW)
                scope_start = _truncate_backward(norm, scope_start, tstart, terminators)
                for m in mentions:
                    if scope_start <= m.token_end - 1 < tstart:
                        m.attributes.add(attr)

    if section is not None and section.canonical_header in HISTORICAL_HEADERS:
        for m in mentions:
            m.attributes.add(ATTR_HISTORICAL)

    for d in dates or []:
        if d.delta_bin.older_than_or_at(HISTORICAL_BIN_LEVEL):
            for m in mentions:
                m.attributes.add(ATTR_HISTORICAL)
            break
    return mentions


def _truncate_forward(norm, start, end, terminators) -> int:
    for words in terminators:
        for hs, _he in _find_phrase(norm[start:end], words):
            end = min(end, start + hs)
    return end


def _truncate_backward(norm, start, end, terminators) -> int:
    # The scope starts after the last hit of each terminator in turn.
    for words in terminators:
        hits = _find_phrase(norm[start:end], words)
        if hits:
            start += hits[-1][1]
    return start


@dataclass(frozen=True)
class RelationCandidate:
    relation_type: str
    arg1: EntityMention
    arg2: EntityMention
    sentence: Sentence
    note_id: str
    section_header: str
    date_bins: tuple[str, ...]
    candidate_id: str

    @property
    def left(self) -> EntityMention:
        return self.arg1 if self.arg1.token_start <= self.arg2.token_start else self.arg2

    @property
    def right(self) -> EntityMention:
        return self.arg2 if self.arg1.token_start <= self.arg2.token_start else self.arg1


_MENTION_FIELDS = ("char_start", "char_end", "entity_type", "canonical_id", "subcategory",
                   "token_start", "token_end")


def write_candidates(cands, path) -> None:
    """Write candidates as JSONL, one object per candidate; each argument
    mention is an array of its ``_MENTION_FIELDS`` then its sorted
    attributes. A sentence is written once, as ``[text, char_start,
    char_end]`` in the first candidate drawn from it; a later candidate
    gives its index among the file's sentences. Tokens and surfaces are not
    stored: ``read_candidates`` rebuilds them from the sentence text exactly
    as ``preprocess`` and ``tag_entities`` do."""
    index: dict[tuple, int] = {}
    with writing(path) as fh:
        for c in cands:
            s = c.sentence
            span = (s.text, s.char_start, s.char_end)
            ref = index.get(span)
            if ref is None:
                index[span] = len(index)
            rec = {
                "candidate_id": c.candidate_id,
                "relation_type": c.relation_type,
                "note_id": c.note_id,
                "section": c.section_header,
                "date_bins": list(c.date_bins),
                "sentence": list(span) if ref is None else ref,
            }
            for key, m in (("arg1", c.arg1), ("arg2", c.arg2)):
                rec[key] = [getattr(m, f) for f in _MENTION_FIELDS] + [sorted(m.attributes)]
            fh.write(json.dumps(rec) + "\n")


def _read_mention(sentence: Sentence, rec: list) -> EntityMention:
    *values, attributes = rec
    fields = dict(zip(_MENTION_FIELDS, values, strict=True))
    cs, ce = fields["char_start"], fields["char_end"]
    return EntityMention(
        sentence=sentence,
        surface=sentence.text[cs - sentence.char_start : ce - sentence.char_start],
        attributes=set(attributes),
        **fields,
    )


def read_candidates(path) -> list[RelationCandidate]:
    """Read a file written by ``write_candidates``; a damaged line raises
    ``InputFormatError`` naming it. Each sentence is tokenized once and
    shared by its candidates."""
    out: list[RelationCandidate] = []
    sentences: list[Sentence] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(decoded_lines(fh, path), start=1):
            with parsing(path, lineno):
                rec = json.loads(line)
                ref = rec["sentence"]
                if isinstance(ref, list):
                    text, start, end = ref
                    sentences.append(Sentence(text, start, end, tokenize(text, offset=start)))
                    sentence = sentences[-1]
                elif type(ref) is int and 0 <= ref < len(sentences):
                    sentence = sentences[ref]
                else:
                    raise ValueError(f"no sentence {ref!r} before this line")
                out.append(
                    RelationCandidate(
                        relation_type=rec["relation_type"],
                        arg1=_read_mention(sentence, rec["arg1"]),
                        arg2=_read_mention(sentence, rec["arg2"]),
                        sentence=sentence,
                        note_id=rec["note_id"],
                        section_header=rec["section"],
                        date_bins=tuple(rec["date_bins"]),
                        candidate_id=rec["candidate_id"],
                    )
                )
    return out


def make_candidate_id(note_id, relation_type, arg1, arg2) -> str:
    raw = "|".join(
        [
            note_id,
            relation_type,
            f"{arg1.char_start}:{arg1.char_end}",
            f"{arg2.char_start}:{arg2.char_end}",
        ]
    )
    return hashlib.sha1(raw.encode("utf-8")).hexdigest()[:16]


def generate_candidates(
    sentence: Sentence,
    mentions: list[EntityMention],
    relation_type: str,
    note_id: str,
    section: SectionSpan | None = None,
    dates: list[DateMention] | None = None,
) -> list[RelationCandidate]:
    """One candidate per typed (arg1, arg2) pair, ordered by arg spans."""
    if relation_type not in RELATION_ARG_TYPES:
        raise ConfigError(f"unknown relation type {relation_type!r}")
    t1, t2 = RELATION_ARG_TYPES[relation_type]
    args1 = sorted(
        (m for m in mentions if m.entity_type == t1), key=lambda m: (m.char_start, m.char_end)
    )
    args2 = sorted(
        (m for m in mentions if m.entity_type == t2), key=lambda m: (m.char_start, m.char_end)
    )
    header = section.canonical_header if section is not None else "UNKNOWN"
    bins = tuple(d.delta_bin.label for d in dates or [])
    return [
        RelationCandidate(
            relation_type=relation_type,
            arg1=a1,
            arg2=a2,
            sentence=sentence,
            note_id=note_id,
            section_header=header,
            date_bins=bins,
            candidate_id=make_candidate_id(note_id, relation_type, a1, a2),
        )
        for a1 in args1
        for a2 in args2
    ]


def extract_candidates(doc: Document, dictionaries, lexicon: TriggerLexicon,
                       relation_types=RELATION_TYPES) -> list[RelationCandidate]:
    """Full per-document pipeline: tag, apply context, generate candidates."""
    out: list[RelationCandidate] = []
    for sentence in doc.sentences:
        mentions = tag_entities(sentence, dictionaries)
        if not mentions:
            continue
        section = doc.section_for(sentence.char_start)
        dates = doc.dates_in(sentence)
        apply_context(sentence, mentions, lexicon, section, dates)
        for rtype in relation_types:
            out.extend(
                generate_candidates(sentence, mentions, rtype, doc.note.note_id, section, dates)
            )
    return out
