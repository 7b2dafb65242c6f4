"""Note ingestion, sentence splitting, section detection, and date normalization.

Raw notes come in as line-delimited JSON records. Preprocessing produces
``Document`` objects carrying sentence/token spans, section spans, and date
mentions normalized to signed relative-time bins against the note timestamp.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from datetime import date, datetime

from .errors import ConfigError, InputFormatError, decoded_lines

log = logging.getLogger(__name__)

# Signed relative-time bins. Edges are inclusive upper bounds in days; an
# exact boundary falls into the smaller bin.
DEFAULT_BIN_EDGES_DAYS = (1, 7, 30, 365, 1825)

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

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")

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
    note_datetime: datetime
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

    A malformed record is logged and skipped; a duplicate note_id raises.
    """
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(decoded_lines(fh, path), start=1):
            if not line.strip():
                continue
            try:
                note = _parse_note_record(line, lineno)
            except InputFormatError as exc:
                log.warning("skipping note record: %s", exc.message)
                continue
            if note.note_id in seen:
                raise InputFormatError(
                    f"duplicate note_id {note.note_id!r} at line {lineno}",
                    context={"line": lineno, "note_id": note.note_id},
                )
            seen.add(note.note_id)
            yield note


def _parse_note_record(line: str, lineno: int) -> RawNote:
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"line {lineno}: invalid JSON ({exc.msg})", context={"line": lineno}
        ) from exc
    for fld in REQUIRED_NOTE_FIELDS:
        if fld not in rec or rec[fld] is None:
            raise InputFormatError(
                f"line {lineno}: missing field {fld!r}",
                context={"line": lineno, "field": fld},
            )
    try:
        when = datetime.fromisoformat(str(rec["note_datetime"]))
    except ValueError as exc:
        raise InputFormatError(
            f"line {lineno}: unparseable note_datetime {rec['note_datetime']!r}",
            context={"line": lineno, "field": "note_datetime"},
        ) from exc
    if not str(rec["note_id"]):
        raise InputFormatError(
            f"line {lineno}: empty note_id", context={"line": lineno, "field": "note_id"}
        )
    return RawNote(
        note_id=str(rec["note_id"]),
        patient_id=str(rec["patient_id"]),
        note_datetime=when,
        note_type=str(rec["note_type"]),
        text=str(rec["text"]),
    )


def tokenize(text: str, offset: int = 0) -> tuple[Token, ...]:
    return tuple(
        Token(m.group(), offset + m.start(), offset + m.end())
        for m in _TOKEN_RE.finditer(text)
    )


def _period_is_guarded(text: str, i: int, abbreviations) -> bool:
    # Decimal number: digit on both sides.
    if 0 < i < len(text) - 1 and text[i - 1].isdigit() and text[i + 1].isdigit():
        return True
    # No whitespace after the period ("e.g.", "U.S.") -- internal dot.
    if i + 1 < len(text) and not text[i + 1].isspace():
        return True
    k = i
    while k > 0 and not text[k - 1].isspace():
        k -= 1
    word = text[k : i + 1].lower()
    return word in abbreviations


def sentence_spans(text: str, abbreviations=DEFAULT_ABBREVIATIONS) -> list[tuple[int, int]]:
    """Character spans of sentences: boundaries at ., !, ?, blank lines, and
    header-style lines ending with ':'. Abbreviation periods are suppressed."""
    cuts: list[int] = []
    n = len(text)
    i = 0
    while i < n:
        ch = text[i]
        if ch in "!?":
            cuts.append(i + 1)
        elif ch == ".":
            if not _period_is_guarded(text, i, abbreviations):
                cuts.append(i + 1)
        elif ch == "\n":
            j = i + 1
            while j < n and text[j] in " \t":
                j += 1
            if j < n and text[j] == "\n":
                cuts.append(i)
            else:
                k = i - 1
                while k >= 0 and text[k] in " \t":
                    k -= 1
                if k >= 0 and text[k] == ":":
                    cuts.append(i)
        i += 1
    cuts.append(n)
    spans = []
    start = 0
    for cut in cuts:
        seg = text[start:cut]
        lead = len(seg) - len(seg.lstrip())
        s = start + lead
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
    doc.sections = detect_sections(doc, DEFAULT_HEADER_LEXICON)
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


def detect_sections(doc: Document, header_lexicon) -> list[SectionSpan]:
    """Find section headers by lexicon match or uppercase-colon rule; each
    section runs to the next header or end of document."""
    if not header_lexicon:
        raise ConfigError("header lexicon must be nonempty")
    lexicon = {entry.strip().rstrip(":").lower(): entry for entry in header_lexicon}
    text = doc.note.text
    headers: list[tuple[int, int, str, str]] = []  # (start, end, verbatim, canonical)
    pos = 0
    for line in text.splitlines(keepends=True):
        raw = line.rstrip("\n")
        stripped = raw.strip()
        key = stripped.rstrip(":").strip().lower()
        canonical = None
        if key and key in lexicon:
            canonical = lexicon[key]
        elif _is_uppercase_header(raw):
            canonical = stripped.rstrip(":").strip()
        if canonical is not None:
            lead = len(raw) - len(raw.lstrip())
            headers.append(
                (pos + lead, pos + len(raw.rstrip()), stripped, canonical)
            )
        pos += len(line)
    sections: list[SectionSpan] = []
    if not headers or headers[0][0] > 0:
        end = headers[0][0] if headers else len(text)
        sections.append(
            SectionSpan(header_text="", canonical_header="UNKNOWN", char_start=0, char_end=end)
        )
    for idx, (hstart, _hend, verbatim, canonical) in enumerate(headers):
        nxt = headers[idx + 1][0] if idx + 1 < len(headers) else len(text)
        sections.append(
            SectionSpan(
                header_text=verbatim,
                canonical_header=canonical,
                char_start=hstart,
                char_end=nxt,
            )
        )
    return sections


def _level_label(edges, level: int) -> str:
    def fmt(days: int) -> str:
        if days % 365 == 0 and days >= 365:
            return f"{days // 365}y"
        return f"{days}d"

    if level == 0:
        return f"0-{fmt(edges[0])}"
    if level >= len(edges):
        return f"{fmt(edges[-1])}+"
    lo, hi = edges[level - 1], edges[level]
    if lo % 365 == 0 and lo >= 365 and hi % 365 == 0:
        return f"{lo // 365}-{hi // 365}y"
    return f"{lo}-{fmt(hi)}"


def compute_delta_bin(delta_days: int, edges=DEFAULT_BIN_EDGES_DAYS) -> DeltaBin:
    """Bin a signed day delta. Exact boundaries fall in the smaller bin; a
    zero delta counts as past ("-0-1d")."""
    sign = 1 if delta_days > 0 else -1
    d = abs(delta_days)
    level = len(edges)
    for lvl, edge in enumerate(edges):
        if d <= edge:
            level = lvl
            break
    label = ("+" if sign > 0 else "-") + _level_label(edges, level)
    return DeltaBin(sign=sign, level=level, label=label)


def _resolve_year(two_digit: int) -> int:
    return 2000 + two_digit if two_digit < TWO_DIGIT_YEAR_PIVOT else 1900 + two_digit


def normalize_dates(doc: Document, note_datetime: datetime) -> list[DateMention]:
    """Recognize unambiguous date surfaces and bin them against the note date.

    Handles YYYY-MM-DD, M/D/YYYY, M/D/YY (two-digit years pivot at
    ``TWO_DIGIT_YEAR_PIVOT``), and Month YYYY (resolved to the first of the
    month). Unresolvable or ambiguous surfaces produce no mention.
    """
    text = doc.note.text
    note_date = note_datetime.date()
    mentions: list[DateMention] = []
    consumed: list[tuple[int, int]] = []

    def overlaps(s: int, e: int) -> bool:
        return any(s < ce and e > cs for cs, ce in consumed)

    def emit(s: int, e: int, resolved: date) -> None:
        if overlaps(s, e):
            return
        delta = (resolved - note_date).days
        mentions.append(
            DateMention(
                surface=text[s:e],
                resolved_date=resolved,
                delta_bin=compute_delta_bin(delta),
                char_start=s,
                char_end=e,
            )
        )
        consumed.append((s, e))

    for m in _ISO_DATE_RE.finditer(text):
        y, mo, dy = (int(g) for g in m.groups())
        try:
            emit(m.start(), m.end(), date(y, mo, dy))
        except ValueError:
            pass
    for m in _SLASH_DATE_RE.finditer(text):
        mo, dy, ystr = int(m.group(1)), int(m.group(2)), m.group(3)
        y = int(ystr) if len(ystr) == 4 else _resolve_year(int(ystr))
        try:
            emit(m.start(), m.end(), date(y, mo, dy))
        except ValueError:
            pass
    for m in _MONTH_YEAR_RE.finditer(text):
        month = _MONTHS[m.group(1).lower()]
        try:
            emit(m.start(), m.end(), date(int(m.group(2)), month, 1))
        except ValueError:
            pass
    mentions.sort(key=lambda d: d.char_start)
    return mentions
