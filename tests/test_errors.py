"""Tests for the shared CSV table reader."""

import inspect
import pathlib

import pytest

import devicesurv
from devicesurv import errors
from devicesurv.errors import InputFormatError, read_csv


def _float_x(row):
    return float(row["x"])


class TestReadCsv:
    def test_parses_each_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,y\n1.5,a\n\n2,b\n")
        assert read_csv(path, ("x",), _float_x) == [1.5, 2.0]

    def test_missing_column_names_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("y\na\n")
        with pytest.raises(InputFormatError, match=r"t\.csv: missing columns \['x'\]"):
            read_csv(path, ("x", "y"), _float_x)

    def test_empty_file_has_no_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(InputFormatError, match="t.csv"):
            read_csv(path, ("x",), _float_x)

    def test_bad_row_names_the_line_it_ends_on(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text('x,y\n1,"two\nlines"\nabc,c\n')
        with pytest.raises(InputFormatError, match="t.csv:4") as exc:
            read_csv(path, ("x",), _float_x)
        assert exc.value.context == {"line": 4}

    def test_dictreader_only_in_read_csv(self):
        # Every CSV table in the library is read through errors.read_csv.
        src = pathlib.Path(devicesurv.__file__).parent
        users = {p.name: p.read_text(encoding="utf-8").count("DictReader")
                 for p in sorted(src.glob("*.py"))}
        assert {name for name, n in users.items() if n} == {"errors.py"}
        assert users["errors.py"] == inspect.getsource(errors.read_csv).count("DictReader") == 1
