"""Exception hierarchy shared across the pipeline, the CSV table reader that
reports a bad row as one, the date rule of its cells, the JSON-line rule,
and the artifact writers."""

import contextlib
import csv
import itertools
import json
import os
import re
from datetime import date


class DeviceSurvError(Exception):
    """Base class for all library errors. Each class names its error-JSON
    ``code`` and the CLI's ``exit_code`` for it."""

    code, exit_code = "error", 1

    def __init__(self, message, context=None):
        super().__init__(message)
        self.message = message
        self.context = dict(context or {})

    def to_json(self):
        return {"code": self.code, "message": self.message, "context": self.context}


class ConfigError(DeviceSurvError):
    code, exit_code = "config", 2


class InputFormatError(DeviceSurvError):
    """Malformed input record or file."""

    code, exit_code = "input_format", 3


class MissingArtifactError(DeviceSurvError):
    """A required upstream artifact does not exist."""

    code, exit_code = "missing_artifact", 4


class FitError(DeviceSurvError):
    """A statistical fit could not be completed."""

    code, exit_code = "fit", 5


class parsing:
    """Context manager that reports a value it cannot parse as bad input: a
    ValueError, KeyError, TypeError or IndexError raised inside, a
    ``csv.Error``, or the RecursionError of a too deeply nested JSON value,
    becomes an ``InputFormatError`` naming ``path`` and, when given,
    ``line``. It is the one rule of every reader: a reader raises a plain
    ValueError inside it, never its own ``InputFormatError``. Wrap the
    parsing of one record or one whole-file artifact only, so a fault in the
    program still shows. (A class, not a generator: readers enter it once
    per row.)"""

    __slots__ = ("path", "line")

    def __init__(self, path, line=None):
        self.path, self.line = path, line

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if isinstance(exc, (ValueError, KeyError, TypeError, IndexError, csv.Error,
                            RecursionError)):
            if self.line is None:
                where, context = str(self.path), {"path": str(self.path)}
            else:
                where, context = f"{self.path}:{self.line}", {"line": self.line}
            raise InputFormatError(f"{where}: cannot parse ({exc!r})", context=context) from exc


def decoded_lines(fh, path):
    """The lines of ``fh``, a text file opened from ``path``. A byte that
    does not decode is an ``InputFormatError`` naming the file."""
    with parsing(path):
        yield from fh


def json_record(line: str):
    """``json.loads(line)``, refusing with a ValueError a line whose strings
    UTF-8 cannot encode: json reads a lone surrogate escape such as
    ``\\ud800``, which would crash a later encoder. Only a line holding a
    ``\\u`` escape can hold one, so only such a line is checked."""
    value = json.loads(line)
    if "\\u" in line:
        try:
            json.dumps(value, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:  # its repr would quote the whole record
            bad = exc.object[exc.start:exc.end]
            raise ValueError(f"a string holds {bad!r}, which UTF-8 cannot encode") from None
    return value


def read_csv(path, columns, parse_row, key=None) -> list:
    """``parse_row(row)`` for each row of the CSV file ``path``, the row a
    dict keyed by the header. A row shorter than the header leaves its
    missing trailing cells None. A header without every name in ``columns``,
    or naming one twice, stops the reader; so does a bad row, naming the
    line the row ends on (a quoted field may span lines): one csv cannot
    split, one with more fields than the header, one whose ``key`` column
    repeats an earlier row's value, or one ``parse_row`` cannot parse. Both
    are ``InputFormatError``."""
    with open(path, newline="", encoding="utf-8") as fh, parsing(path) as at:
        reader = csv.reader(decoded_lines(fh, path))
        try:
            header = next(reader, [])
            missing = [c for c in columns if c not in header]
            repeated = sorted({c for c in header if header.count(c) > 1})
            if missing or repeated:
                problem = (f"missing columns {missing}" if missing
                           else f"repeated columns {repeated}")
                raise InputFormatError(f"{path}: {problem}", context={"path": str(path)})
            width, out, seen = len(header), [], set()
            for cells in reader:
                if not cells:  # a blank row
                    continue
                at.line = reader.line_num
                if len(cells) > width:
                    raise ValueError(f"{len(cells) - width} more fields than the header")
                row = dict(itertools.zip_longest(header, cells))
                if key is not None:
                    if row[key] in seen:
                        raise ValueError(f"duplicate {key} {row[key]!r}")
                    seen.add(row[key])
                out.append(parse_row(row))
        except csv.Error:
            at.line = reader.line_num  # the line the failed pull stopped on
            raise
        return out


_DATE_TIME = re.compile(r"(\d{4}-\d{2}-\d{2})[T ](?:[01]\d|2[0-3]):[0-5]\d"
                        r"(?::[0-5]\d(?:\.\d{1,6})?)?(?:[+-](?:[01]\d|2[0-3]):[0-5]\d)?",
                        re.ASCII)


def parse_date(cell: str) -> date:
    """The date in a table cell or a note's ``note_datetime``: ``YYYY-MM-DD``,
    optionally followed by "T" or a space and a time of day
    ``HH:MM[:SS[.ffffff]]`` with an optional ``±HH:MM`` offset, which is
    dropped. Any other spelling is a ValueError on every Python version, also
    the ones ``date.fromisoformat`` reads from 3.11 on (``20100101``,
    ``2010-W01-1``, a trailing ``Z``)."""
    if len(cell) == 10 and cell[4] == cell[7] == "-":  # the common spelling, read without the regex
        return date.fromisoformat(cell)
    match = _DATE_TIME.fullmatch(cell)
    if match is None:
        raise ValueError(f"not a YYYY-MM-DD date: {cell!r}")
    return date.fromisoformat(match[1])


@contextlib.contextmanager
def writing(path, binary=False):
    """The handle of a new copy of the file ``path``: bytes when ``binary``,
    else UTF-8 text with ``newline=""``: a line feed is written as is, and a
    ``csv.writer`` ends its rows with CRLF. The copy is written as
    ``<path>.tmp`` and replaces ``path`` only when the block exits cleanly;
    on an exception the copy is removed and ``path`` is left as it was."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_csv(path, header, rows) -> None:
    """Write the CSV file ``path``: the ``header`` row, then each of
    ``rows`` as ``csv.writer`` quotes it."""
    with writing(path) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_json(path, obj) -> None:
    """Write ``obj`` to ``path`` as JSON indented by 2."""
    with writing(path) as fh:
        json.dump(obj, fh, indent=2)
