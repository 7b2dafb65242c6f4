"""Shared fixtures for the test suite."""

from __future__ import annotations

from datetime import datetime

import pytest

from devicesurv import synth
from devicesurv.corpus import RawNote, preprocess
from devicesurv.defaults import default_dictionaries, default_trigger_lexicon
from devicesurv.extraction import extract_candidates

# A worked reference note exercising sections, historical context, past
# dates, and contiguous entity pairs.
REFERENCE_NOTE_TEXT = """HISTORY OF PRESENT ILLNESS:
60 yo male with infected R hip (MRSA) s/p previous hip replacement.
LTHA November 2004 demonstrates component wear. Acetabular cup polyethylene wear is present.
PAST MEDICAL HISTORY:
Hx right Zimmer Biomet hip 1/1/05 complicated by infection.
"""

REFERENCE_NOTE_DATETIME = datetime(2008, 7, 1, 18, 11)


@pytest.fixture(scope="session")
def reference_note() -> RawNote:
    return RawNote(
        note_id="ref-001",
        patient_id="pt-001",
        note_datetime=REFERENCE_NOTE_DATETIME,
        note_type="progress",
        text=REFERENCE_NOTE_TEXT,
    )


@pytest.fixture(scope="session")
def reference_doc(reference_note):
    return preprocess(reference_note)


@pytest.fixture(scope="session")
def dictionaries():
    return default_dictionaries()


@pytest.fixture(scope="session")
def trigger_lexicon():
    return default_trigger_lexicon()


@pytest.fixture(scope="session")
def synth_corpus():
    return synth.gen_corpus(synth.SynthConfig(seed=0))


@pytest.fixture(scope="session")
def extract_notes(dictionaries, trigger_lexicon):
    """The extractor's pain-anatomy candidates over some notes, as the
    ``candidates`` command finds them."""

    def extract(notes):
        return [c for note in notes for c in extract_candidates(
            preprocess(note), dictionaries, trigger_lexicon, relation_types=("pain-anatomy",))]

    return extract


@pytest.fixture(scope="session")
def synth_candidates(synth_corpus, extract_notes):
    return extract_notes(synth_corpus.notes)
