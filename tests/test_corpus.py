"""Unit tests for note ingestion, sentence splitting, sections, and dates."""

import hashlib
import json
import logging
import re
from datetime import date, datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devicesurv import synth
from devicesurv.corpus import (
    DEFAULT_ABBREVIATIONS,
    DEFAULT_BIN_EDGES_DAYS,
    DEFAULT_HEADER_LEXICON,
    TWO_DIGIT_YEAR_PIVOT,
    DateMention,
    DeltaBin,
    Document,
    RawNote,
    SectionSpan,
    compute_delta_bin,
    ingest_notes,
    preprocess,
    sentence_spans,
    tokenize,
)
from devicesurv.errors import ConfigError, InputFormatError


def _write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def _note(text, when=datetime(2020, 1, 1)):
    return RawNote("n1", "p1", when, "progress", text)


VALID_RECORD = {
    "note_id": "a",
    "patient_id": "p",
    "note_datetime": "2020-01-01T00:00:00",
    "note_type": "progress",
    "text": "hello.",
}


class TestIngest:
    def test_empty_file_yields_empty_stream(self, tmp_path):
        path = tmp_path / "notes.jsonl"
        path.write_text("")
        assert list(ingest_notes(path)) == []

    def test_valid_records_in_order(self, tmp_path):
        path = tmp_path / "notes.jsonl"
        records = [dict(VALID_RECORD, note_id=f"n{i}") for i in range(3)]
        _write_jsonl(path, records)
        notes = list(ingest_notes(path))
        assert [n.note_id for n in notes] == ["n0", "n1", "n2"]
        assert notes[0].note_datetime == datetime(2020, 1, 1)

    def test_missing_field_error_names_line_and_field(self, tmp_path, caplog):
        path = tmp_path / "notes.jsonl"
        bad = {k: v for k, v in VALID_RECORD.items() if k != "note_datetime"}
        _write_jsonl(path, [bad])
        with caplog.at_level(logging.WARNING, logger="devicesurv.corpus"):
            assert list(ingest_notes(path)) == []
        [record] = caplog.records
        assert record.getMessage() == (
            "skipping note record: line 1: missing field 'note_datetime'"
        )

    def test_skip_mode_logs_and_continues(self, tmp_path):
        path = tmp_path / "notes.jsonl"
        bad = dict(VALID_RECORD, note_id="bad")
        del bad["text"]
        _write_jsonl(path, [VALID_RECORD, bad, dict(VALID_RECORD, note_id="b")])
        notes = list(ingest_notes(path))
        assert [n.note_id for n in notes] == ["a", "b"]

    def test_duplicate_note_id_always_aborts(self, tmp_path):
        path = tmp_path / "notes.jsonl"
        _write_jsonl(path, [VALID_RECORD, VALID_RECORD])
        with pytest.raises(InputFormatError, match="duplicate note_id"):
            list(ingest_notes(path))


class TestSentences:
    def test_two_sentences(self):
        doc = preprocess(
            _note(
                "LTHA November 2004 demonstrates component wear. "
                "Acetabular cup polyethylene wear is present."
            )
        )
        assert len(doc.sentences) == 2

    def test_empty_text_zero_sentences(self):
        assert preprocess(_note("")).sentences == []

    def test_abbreviation_guard(self):
        doc = preprocess(_note("Seen by Dr. Smith today."))
        assert len(doc.sentences) == 1

    def test_blank_line_boundary(self):
        doc = preprocess(_note("no punct here\n\nsecond block"))
        assert [s.text for s in doc.sentences] == ["no punct here", "second block"]

    def test_header_line_boundary(self):
        doc = preprocess(_note("PLAN:\ncontinue current meds"))
        assert [s.text for s in doc.sentences] == ["PLAN:", "continue current meds"]

    def test_decimal_number_not_split(self):
        doc = preprocess(_note("Temp 98.6 stable."))
        assert len(doc.sentences) == 1

    def test_span_soundness_and_coverage(self, reference_doc):
        text = reference_doc.note.text
        prev_end = 0
        for s in reference_doc.sentences:
            assert 0 <= s.char_start < s.char_end <= len(text)
            assert s.char_start >= prev_end
            assert text[s.char_start : s.char_end] == s.text
            for tok in s.tokens:
                assert text[tok.start : tok.end] == tok.text
            prev_end = s.char_end
        # Inter-sentence gaps are whitespace only.
        covered = sorted((s.char_start, s.char_end) for s in reference_doc.sentences)
        pos = 0
        for s, e in covered:
            assert text[pos:s].strip() == ""
            pos = e

    @given(st.text(max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_spans_always_within_bounds(self, text):
        for s, e in sentence_spans(text):
            assert 0 <= s < e <= len(text)
            assert text[s:e] == text[s:e].strip()

    def test_determinism(self, reference_note):
        assert preprocess(reference_note) == preprocess(reference_note)


class TestTokenize:
    def test_punctuation_kept_as_tokens(self):
        toks = [t.text for t in tokenize("infected R hip (MRSA) s/p")]
        assert toks == ["infected", "R", "hip", "(", "MRSA", ")", "s", "/", "p"]


class TestSections:
    def test_reference_note_headers(self, reference_doc):
        headers = [s.canonical_header for s in reference_doc.sections]
        assert headers == ["HISTORY OF PRESENT ILLNESS", "PAST MEDICAL HISTORY"]

    def test_no_headers_single_unknown(self):
        doc = preprocess(_note("just some text."))
        assert [s.canonical_header for s in doc.sections] == ["UNKNOWN"]

    def test_case_folded_lexicon_match(self):
        doc = preprocess(_note("past medical history:\nfine"))
        assert doc.sections[0].canonical_header == "PAST MEDICAL HISTORY"
        assert doc.sections[0].header_text == "past medical history:"

    def test_uppercase_colon_rule(self):
        doc = preprocess(_note("WOUND CHECK:\nclean and dry"))
        assert doc.sections[0].canonical_header == "WOUND CHECK"

    def test_lowercase_line_is_not_header(self):
        doc = preprocess(_note("wound check:\nclean and dry"))
        assert doc.sections[0].canonical_header == "UNKNOWN"

    def test_section_extends_to_next_header(self, reference_doc):
        first, second = reference_doc.sections
        assert first.char_end == second.char_start
        assert second.char_end == len(reference_doc.note.text)


class TestDeltaBins:
    def test_past_years_bin(self):
        b = compute_delta_bin((date(2005, 1, 1) - date(2008, 7, 1)).days)
        assert b.sign == -1 and b.level == 4
        assert b.label == "-1-5y"

    def test_zero_delta_counts_as_past(self):
        b = compute_delta_bin(0)
        assert b.sign == -1 and b.level == 0
        assert b.label == "-0-1d"

    def test_exact_boundary_smaller_bin(self):
        assert compute_delta_bin(7).level == 1
        assert compute_delta_bin(8).level == 2
        assert compute_delta_bin(-365).level == 3
        assert compute_delta_bin(1826).level == 5

    @given(st.integers(min_value=-4000, max_value=4000))
    @settings(max_examples=500, deadline=None)
    def test_bin_consistency_against_reference(self, delta):
        b = compute_delta_bin(delta)
        # Independent re-derivation from the raw day delta.
        d = abs(delta)
        expected_level = 5
        for lvl, edge in enumerate(DEFAULT_BIN_EDGES_DAYS):
            if d <= edge:
                expected_level = lvl
                break
        assert b.level == expected_level
        assert b.sign == (1 if delta > 0 else -1)
        assert b.older_than_or_at(3) == (delta <= 0 and expected_level >= 3)


class TestDates:
    def test_two_digit_year_past_mention(self, reference_doc):
        surfaces = {d.surface: d for d in reference_doc.dates}
        assert "1/1/05" in surfaces
        mention = surfaces["1/1/05"]
        assert mention.resolved_date == date(2005, 1, 1)
        assert mention.delta_bin.label == "-1-5y"

    def test_month_year_resolves_to_first(self, reference_doc):
        surfaces = {d.surface: d for d in reference_doc.dates}
        assert "November 2004" in surfaces
        assert surfaces["November 2004"].resolved_date == date(2004, 11, 1)
        assert surfaces["November 2004"].delta_bin.label == "-1-5y"

    def test_same_day_zero_bin(self):
        doc = preprocess(_note("Seen on 1/1/2020 today.", when=datetime(2020, 1, 1)))
        assert [d.delta_bin.label for d in doc.dates] == ["-0-1d"]

    def test_iso_and_pivot(self):
        doc = preprocess(
            _note("On 2019-05-04 then 3/1/49 then 3/1/50.", when=datetime(2020, 1, 1))
        )
        resolved = {d.surface: d.resolved_date.year for d in doc.dates}
        assert resolved == {"2019-05-04": 2019, "3/1/49": 2049, "3/1/50": 1950}

    def test_ambiguous_surface_skipped(self):
        doc = preprocess(_note("Follow up on 5/6 next week.", when=datetime(2020, 1, 1)))
        assert doc.dates == []

    def test_invalid_calendar_date_skipped(self):
        doc = preprocess(_note("Recorded 2/30/2020 oddly.", when=datetime(2020, 1, 1)))
        assert doc.dates == []

    @pytest.mark.parametrize("word", ["ſeptember", "aprıl", "Aprİl"])
    def test_case_folded_non_month_skipped(self, word):
        # The case-insensitive pattern matches these, but none names a month.
        doc = preprocess(_note(f"Revised in {word} 2004, seen May 2005."))
        assert [(d.surface, d.resolved_date) for d in doc.dates] == [
            ("May 2005", date(2005, 5, 1))]

    def test_span_soundness(self, reference_doc):
        text = reference_doc.note.text
        for d in reference_doc.dates:
            assert text[d.char_start : d.char_end] == d.surface


# Reference scanners: each preprocessing rule read character by character,
# as plain loops. preprocess must agree with them exactly.
_ORACLE_MONTHS = {
    name: i + 1
    for i, name in enumerate(
        [
            "january", "february", "march", "april", "may", "june",
            "july", "august", "september", "october", "november", "december",
        ]
    )
}
_ORACLE_MONTHS.update({name[:3]: num for name, num in list(_ORACLE_MONTHS.items())})
_ORACLE_ISO_DATE_RE = re.compile(r"\b(\d{4})-(\d{2})-(\d{2})\b")
_ORACLE_SLASH_DATE_RE = re.compile(r"\b(\d{1,2})/(\d{1,2})/(\d{4}|\d{2})\b")
_ORACLE_MONTH_YEAR_RE = re.compile(
    r"\b(" + "|".join(sorted(_ORACLE_MONTHS, key=len, reverse=True)) + r")\.?,?\s+(\d{4})\b",
    re.IGNORECASE,
)


def _oracle_period_is_guarded(text: str, i: int, abbreviations) -> bool:
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


def _oracle_sentence_spans(text: str, abbreviations=DEFAULT_ABBREVIATIONS) -> list[tuple[int, int]]:
    cuts: list[int] = []
    n = len(text)
    i = 0
    while i < n:
        ch = text[i]
        if ch in "!?":
            cuts.append(i + 1)
        elif ch == ".":
            if not _oracle_period_is_guarded(text, i, abbreviations):
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


def _oracle_is_uppercase_header(line: str) -> bool:
    stripped = line.strip()
    if not stripped.endswith(":"):
        return False
    letters = [c for c in stripped if c.isalpha()]
    if not letters:
        return False
    upper = sum(1 for c in letters if c.isupper())
    return upper / len(letters) >= 0.8


def _oracle_detect_sections(doc: Document, header_lexicon) -> list[SectionSpan]:
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
        elif _oracle_is_uppercase_header(raw):
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


def _oracle_level_label(edges, level: int) -> str:
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


def _oracle_compute_delta_bin(delta_days: int, edges=DEFAULT_BIN_EDGES_DAYS) -> DeltaBin:
    sign = 1 if delta_days > 0 else -1
    d = abs(delta_days)
    level = len(edges)
    for lvl, edge in enumerate(edges):
        if d <= edge:
            level = lvl
            break
    label = ("+" if sign > 0 else "-") + _oracle_level_label(edges, level)
    return DeltaBin(sign=sign, level=level, label=label)


def _oracle_resolve_year(two_digit: int) -> int:
    return 2000 + two_digit if two_digit < TWO_DIGIT_YEAR_PIVOT else 1900 + two_digit


def _oracle_normalize_dates(doc: Document, note_datetime: datetime) -> list[DateMention]:
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
                delta_bin=_oracle_compute_delta_bin(delta),
                char_start=s,
                char_end=e,
            )
        )
        consumed.append((s, e))

    for m in _ORACLE_ISO_DATE_RE.finditer(text):
        y, mo, dy = (int(g) for g in m.groups())
        try:
            emit(m.start(), m.end(), date(y, mo, dy))
        except ValueError:
            pass
    for m in _ORACLE_SLASH_DATE_RE.finditer(text):
        mo, dy, ystr = int(m.group(1)), int(m.group(2)), m.group(3)
        y = int(ystr) if len(ystr) == 4 else _oracle_resolve_year(int(ystr))
        try:
            emit(m.start(), m.end(), date(y, mo, dy))
        except ValueError:
            pass
    for m in _ORACLE_MONTH_YEAR_RE.finditer(text):
        month = _ORACLE_MONTHS[m.group(1).lower()]
        try:
            emit(m.start(), m.end(), date(int(m.group(2)), month, 1))
        except ValueError:
            pass
    mentions.sort(key=lambda d: d.char_start)
    return mentions


# Pieces that sit on every rule's edge: each sentence end and its guards,
# header and blank lines (with the whitespace str.splitlines and str.strip
# treat differently from the newline scans), all four date forms, impossible
# dates and surfaces two date forms both claim.
_ORACLE_PIECES = (
    ".", "!", "?", "wow!.", "Dr.", "e.g.", "U.S.", "etc..", "98.6", "3.", "x.y",
    "PLAN:\n", "PLAN: \t\n", "past medical history:\n", " assessment and plan: ",
    "WOUND CHECK:", "Pain 2:", ":", "\n", "\n\n", "\n \t\n", "\n\t \n", " ", "\t",
    "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\xa0", "\u3000",
    "word", "Hip", "2019-05-04", "1/1/05", "3/1/49", "12/31/2019", "November 2004",
    "Nov. 2004", "sep, 2019", "MAY\xa02010", "2/30/2020", "2019-13-01", "13/45/99",
    "2019-05-04/1/05", "1/1/2019-05-04", "May 2019-05-04", "4/5/2004 2004",
)


class TestOracle:
    @given(st.lists(st.sampled_from(_ORACLE_PIECES), max_size=40).map("".join))
    @settings(max_examples=400, deadline=None)
    def test_matches_hand_written_scanners(self, text):
        when = datetime(2010, 6, 15, 9, 30)
        doc = preprocess(_note(text, when=when))
        assert [(s.char_start, s.char_end) for s in doc.sentences] == _oracle_sentence_spans(text)
        assert doc.sections == _oracle_detect_sections(doc, DEFAULT_HEADER_LEXICON)
        assert doc.dates == _oracle_normalize_dates(doc, when)

    def test_every_bin_matches(self):
        for delta in range(-4000, 4001):
            assert compute_delta_bin(delta) == _oracle_compute_delta_bin(delta)

    def test_synth_digest_unchanged(self):
        # sha256 of the preprocess output for synth seeds 0-1, recorded with
        # the hand-written scanners above.
        h = hashlib.sha256()
        for seed in (0, 1):
            for note in synth.gen_corpus(synth.SynthConfig(seed=seed)).notes:
                doc = preprocess(note)
                h.update(repr((doc.sentences, doc.sections, doc.dates)).encode())
        assert h.hexdigest() == (
            "5fb5686bcf16d2087fbab494d11acdc94bcc5de2ac41ce1dffdbce9e582b1e54"
        )
