"""Note ingestion, sentence splitting, section detection, and date normalization.

Raw notes come in as line-delimited JSON records. Preprocessing produces
``Document`` objects carrying sentence/token spans, section spans, and date
mentions normalized to signed relative-time bins against the note timestamp.
"""

from __future__ import annotations

import bisect
import logging
import re
from dataclasses import dataclass, field
from datetime import date, datetime

from .errors import InputFormatError, decoded_lines, json_record, parse_date, parsing

log = logging.getLogger(__name__)

# Signed relative-time bins. Edges are inclusive upper bounds in days; an
# exact boundary falls into the smaller bin. One label per level, the last
# for deltas beyond the last edge.
DEFAULT_BIN_EDGES_DAYS = (1, 7, 30, 365, 1825)
_BIN_LABELS = ("0-1d", "1-7d", "7-30d", "30-1y", "1-5y", "5y+")

# Two-digit years below the pivot are 20xx, the rest 19xx.
TWO_DIGIT_YEAR_PIVOT = 50

DEFAULT_ABBREVIATIONS = frozenset(
    {
        "dr.", "mr.", "mrs.", "ms.", "st.", "jr.", "sr.", "prof.",
        "vs.", "e.g.", "i.e.", "etc.", "approx.", "no.", "pt.", "inc.",
        "fx.", "tx.", "dx.", "hx.",
    }
)

DEFAULT_HEADER_LEXICON = (
    "HISTORY OF PRESENT ILLNESS",
    "PAST MEDICAL HISTORY",
    "PAST SURGICAL HISTORY",
    "FAMILY HISTORY",
    "SOCIAL HISTORY",
    "REVIEW OF SYSTEMS",
    "PHYSICAL EXAM",
    "PHYSICAL EXAMINATION",
    "ASSESSMENT",
    "ASSESSMENT AND PLAN",
    "PLAN",
    "IMPRESSION",
    "FINDINGS",
    "INDICATIONS",
    "MEDICATIONS",
    "ALLERGIES",
    "CHIEF COMPLAINT",
    "OPERATIVE REPORT",
    "PROCEDURE",
    "COMPONENTS",
    "PATIENT EDUCATION",
)
_HEADER_INDEX = {entry.lower(): entry for entry in DEFAULT_HEADER_LEXICON}

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")

# The four sentence cuts; sentence_spans says where each one falls. The period
# scan starts only at a word start, so a long unbroken token is read once
# rather than once per character.
_BANG_RE = re.compile(r"[!?]")
_PERIOD_RE = re.compile(r"(?<!\S)\S*\.(?!\S)")
_BLANK_LINE_RE = re.compile(r"\n(?=[ \t]*\n)")
_HEADER_LINE_RE = re.compile(r":[ \t]*(\n)")

_MONTHS = {
    name: i + 1
    for i, name in enumerate(
        [
            "january", "february", "march", "april", "may", "june",
            "july", "august", "september", "october", "november", "december",
        ]
    )
}
_MONTHS.update({name[:3]: num for name, num in list(_MONTHS.items())})

_ISO_DATE_RE = re.compile(r"\b(\d{4})-(\d{2})-(\d{2})\b")
_SLASH_DATE_RE = re.compile(r"\b(\d{1,2})/(\d{1,2})/(\d{4}|\d{2})\b")
_MONTH_YEAR_RE = re.compile(
    r"\b(" + "|".join(sorted(_MONTHS, key=len, reverse=True)) + r")\.?,?\s+(\d{4})\b",
    re.IGNORECASE,
)


@dataclass(frozen=True)
class RawNote:
    note_id: str
    patient_id: str
    note_datetime: datetime  # ingest_notes keeps the date only, at midnight
    note_type: str
    text: str


@dataclass(frozen=True)
class Token:
    text: str
    start: int
    end: int


@dataclass(frozen=True)
class Sentence:
    text: str
    char_start: int
    char_end: int
    tokens: tuple[Token, ...]


@dataclass(frozen=True)
class SectionSpan:
    header_text: str
    canonical_header: str
    char_start: int
    char_end: int


@dataclass(frozen=True)
class DeltaBin:
    """Signed relative-time bin: sign -1 for past, +1 for future."""

    sign: int
    level: int
    label: str

    def older_than_or_at(self, level: int) -> bool:
        return self.sign < 0 and self.level >= level


@dataclass(frozen=True)
class DateMention:
    surface: str
    resolved_date: date
    delta_bin: DeltaBin
    char_start: int
    char_end: int


@dataclass
class Document:
    note: RawNote
    sentences: list[Sentence] = field(default_factory=list)
    sections: list[SectionSpan] = field(default_factory=list)
    dates: list[DateMention] = field(default_factory=list)

    def section_for(self, char_start: int) -> SectionSpan | None:
        for sec in self.sections:
            if sec.char_start <= char_start < sec.char_end:
                return sec
        return None

    def dates_in(self, sentence: Sentence) -> list[DateMention]:
        return [
            d
            for d in self.dates
            if sentence.char_start <= d.char_start < sentence.char_end
        ]


REQUIRED_NOTE_FIELDS = ("note_id", "patient_id", "note_datetime", "note_type", "text")


def ingest_notes(path):
    """Yield ``RawNote`` records from a line-delimited JSON file.

    A record that cannot be parsed is logged and skipped; a repeated
    note_id stops the reader. Both are reported by ``errors.parsing``."""
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(decoded_lines(fh, path), start=1):
            if not line.strip():
                continue
            try:
                with parsing(path, lineno):
                    note = _parse_note_record(line)
            except InputFormatError as exc:
                log.warning("skipping note record: %s", exc.message)
                continue
            with parsing(path, lineno):
                if note.note_id in seen:
                    raise ValueError(f"duplicate note_id {note.note_id!r}")
            seen.add(note.note_id)
            yield note


def _parse_note_record(line: str) -> RawNote:
    rec = json_record(line)
    if not isinstance(rec, dict):
        raise ValueError("not a JSON object")
    for fld in REQUIRED_NOTE_FIELDS:
        if rec.get(fld) is None:
            raise ValueError(f"missing field {fld!r}")
    try:
        day = parse_date(str(rec["note_datetime"]))
    except ValueError as exc:
        raise ValueError(f"unparseable note_datetime {rec['note_datetime']!r}") from exc
    if not str(rec["note_id"]):
        raise ValueError("empty note_id")
    return RawNote(
        note_id=str(rec["note_id"]),
        patient_id=str(rec["patient_id"]),
        note_datetime=datetime.combine(day, datetime.min.time()),
        note_type=str(rec["note_type"]),
        text=str(rec["text"]),
    )


def tokenize(text: str, offset: int = 0) -> tuple[Token, ...]:
    return tuple(
        Token(m.group(), offset + m.start(), offset + m.end())
        for m in _TOKEN_RE.finditer(text)
    )


def sentence_spans(text: str) -> list[tuple[int, int]]:
    """Character spans of sentences: boundaries after ! and ?, after a period
    ending a whitespace-delimited word that is not in
    ``DEFAULT_ABBREVIATIONS`` (so "e.g.", "U.S." and 98.6 do not split), at
    the first newline of a blank line, and at the newline ending a line whose
    last non-blank character is ':'."""
    cuts = [m.end() for m in _BANG_RE.finditer(text)]
    cuts += [m.end() for m in _PERIOD_RE.finditer(text)
             if m.group().lower() not in DEFAULT_ABBREVIATIONS]
    cuts += [m.start() for m in _BLANK_LINE_RE.finditer(text)]
    cuts += [m.start(1) for m in _HEADER_LINE_RE.finditer(text)]
    cuts.sort()
    cuts.append(len(text))
    spans = []
    start = 0
    for cut in cuts:
        seg = text[start:cut]
        s = start + len(seg) - len(seg.lstrip())
        e = start + len(seg.rstrip())
        if e > s:
            spans.append((s, e))
        start = cut
    return spans


def preprocess(note: RawNote) -> Document:
    """Split a note into sentences/tokens and attach sections and date bins."""
    doc = Document(note=note)
    for s, e in sentence_spans(note.text):
        seg = note.text[s:e]
        doc.sentences.append(
            Sentence(text=seg, char_start=s, char_end=e, tokens=tokenize(seg, offset=s))
        )
    doc.sections = detect_sections(doc)
    doc.dates = normalize_dates(doc, note.note_datetime)
    return doc


def _is_uppercase_header(line: str) -> bool:
    stripped = line.strip()
    if not stripped.endswith(":"):
        return False
    letters = [c for c in stripped if c.isalpha()]
    if not letters:
        return False
    upper = sum(1 for c in letters if c.isupper())
    return upper / len(letters) >= 0.8


def detect_sections(doc: Document) -> list[SectionSpan]:
    """Find section headers by case-folded ``DEFAULT_HEADER_LEXICON`` match or
    uppercase-colon rule; each section runs to the next header or end of
    document."""
    text = doc.note.text
    headers: list[tuple[int, str, str]] = []  # (start, verbatim, canonical)
    pos = 0
    for line in text.splitlines(keepends=True):
        raw = line.rstrip("\n")
        stripped = raw.strip()
        name = stripped.rstrip(":").strip()
        canonical = _HEADER_INDEX.get(name.lower())
        if canonical is None and _is_uppercase_header(raw):
            canonical = name
        if canonical is not None:
            headers.append((pos + len(raw) - len(raw.lstrip()), stripped, canonical))
        pos += len(line)
    if not headers or headers[0][0] > 0:
        headers.insert(0, (0, "", "UNKNOWN"))
    ends = [start for start, _, _ in headers[1:]] + [len(text)]
    return [
        SectionSpan(header_text=verbatim, canonical_header=canonical,
                    char_start=start, char_end=end)
        for (start, verbatim, canonical), end in zip(headers, ends)
    ]


def compute_delta_bin(delta_days: int) -> DeltaBin:
    """Bin a signed day delta. Exact boundaries fall in the smaller bin; a
    zero delta counts as past ("-0-1d")."""
    sign = 1 if delta_days > 0 else -1
    level = bisect.bisect_left(DEFAULT_BIN_EDGES_DAYS, abs(delta_days))
    label = ("+" if sign > 0 else "-") + _BIN_LABELS[level]
    return DeltaBin(sign=sign, level=level, label=label)


def _month_year(m: re.Match) -> date:
    # IGNORECASE folds some non-ASCII letters onto ASCII ones ("ſeptember"),
    # so a match need not name a month.
    month = _MONTHS.get(m.group(1).lower())
    if month is None:
        raise ValueError(f"no month {m.group(1)!r}")
    return date(int(m.group(2)), month, 1)


def _slash_date(m: re.Match) -> date:
    month, day, year = (int(g) for g in m.groups())
    if len(m.group(3)) == 2:
        year += 2000 if year < TWO_DIGIT_YEAR_PIVOT else 1900
    return date(year, month, day)


# Date surfaces in precedence order: a later form never claims characters an
# earlier one already resolved. A resolver raises ValueError on an impossible
# calendar date or a word that is no month, which yields no mention.
_DATE_FORMS = (
    (_ISO_DATE_RE, lambda m: date(*(int(g) for g in m.groups()))),
    (_SLASH_DATE_RE, _slash_date),
    (_MONTH_YEAR_RE, _month_year),
)


def normalize_dates(doc: Document, note_datetime: datetime) -> list[DateMention]:
    """Recognize unambiguous date surfaces and bin them against the note date.

    Handles YYYY-MM-DD, M/D/YYYY, M/D/YY (two-digit years pivot at
    ``TWO_DIGIT_YEAR_PIVOT``), and Month YYYY (resolved to the first of the
    month). Unresolvable or ambiguous surfaces produce no mention.
    """
    text = doc.note.text
    note_date = note_datetime.date()
    mentions: list[DateMention] = []
    for pattern, resolve in _DATE_FORMS:
        for m in pattern.finditer(text):
            s, e = m.span()
            if any(s < d.char_end and e > d.char_start for d in mentions):
                continue
            try:
                resolved = resolve(m)
            except ValueError:
                continue
            mentions.append(
                DateMention(
                    surface=m.group(),
                    resolved_date=resolved,
                    delta_bin=compute_delta_bin((resolved - note_date).days),
                    char_start=s,
                    char_end=e,
                )
            )
    mentions.sort(key=lambda d: d.char_start)
    return mentions
