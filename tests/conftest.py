"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import io
from datetime import datetime
from typing import NamedTuple

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


class Result(NamedTuple):
    exit_code: int
    output: str  # stdout and stderr, interleaved as written
    stdout: str
    stderr: str
    exception: BaseException | None  # a nonzero exit's SystemExit, or what the command raised


class _Tee(io.StringIO):
    """A stream that also copies each write to ``both``."""

    def __init__(self, both):
        super().__init__()
        self.both = both

    def write(self, s):
        self.both.write(s)
        return super().write(s)


class CliRunner:
    """Runs a CLI entry point in this process and captures what it prints and
    how it ends, as ``click.testing.CliRunner`` does: ``SystemExit`` gives the
    exit code, and any other exception is exit 1 with that exception."""

    def invoke(self, main, args) -> Result:
        both = io.StringIO()
        out, err = _Tee(both), _Tee(both)
        code, exception = 0, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(args)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
                exception = exc if code else None
            except Exception as exc:
                code, exception = 1, exc
        return Result(code, both.getvalue(), out.getvalue(), err.getvalue(), exception)


@pytest.fixture()
def runner():
    return CliRunner()
