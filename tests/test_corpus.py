"""Unit tests for note ingestion, sentence splitting, sections, and dates."""

import json
import logging
from datetime import date, datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devicesurv.corpus import (
    DEFAULT_BIN_EDGES_DAYS,
    RawNote,
    compute_delta_bin,
    detect_sections,
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
        doc = preprocess(
            _note(
                "patient history:\nfine",
                when=datetime(2020, 1, 1),
            )
        )
        sections = detect_sections(doc, ["Patient History"])
        assert sections[0].canonical_header == "Patient History"
        assert sections[0].header_text == "patient history:"

    def test_uppercase_colon_rule(self):
        doc = preprocess(_note("WOUND CHECK:\nclean and dry"))
        assert doc.sections[0].canonical_header == "WOUND CHECK"

    def test_lowercase_line_is_not_header(self):
        doc = preprocess(_note("wound check:\nclean and dry"))
        assert doc.sections[0].canonical_header == "UNKNOWN"

    def test_empty_lexicon_rejected(self, reference_doc):
        with pytest.raises(ConfigError):
            detect_sections(reference_doc, [])

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

    def test_span_soundness(self, reference_doc):
        text = reference_doc.note.text
        for d in reference_doc.dates:
            assert text[d.char_start : d.char_end] == d.surface
