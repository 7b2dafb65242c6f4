"""Tests for the shared CSV table reader and the artifact writers."""

import ast
import inspect
import json
import pathlib

import pytest

import devicesurv
from devicesurv import errors
from devicesurv.errors import InputFormatError, read_csv, write_csv, write_json, writing


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

    def test_row_longer_than_header_refused(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,y\n1,a\n2,b,extra\n")
        with pytest.raises(InputFormatError, match="t.csv:3: .*1 more fields than the header"):
            read_csv(path, ("x",), _float_x)

    def test_repeated_key_refused(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,y\n1,a\n2,b\n3,a\n")
        assert read_csv(path, ("x",), _float_x, key="x") == [1.0, 2.0, 3.0]
        with pytest.raises(InputFormatError, match="t.csv:4: .*duplicate y 'a'") as exc:
            read_csv(path, ("x",), _float_x, key="y")
        assert exc.value.context == {"line": 4}

    def test_dictreader_only_in_read_csv(self):
        # Every CSV table in the library is read through errors.read_csv.
        src = pathlib.Path(devicesurv.__file__).parent
        users = {p.name: p.read_text(encoding="utf-8").count("DictReader")
                 for p in sorted(src.glob("*.py"))}
        assert {name for name, n in users.items() if n} == {"errors.py"}
        assert users["errors.py"] == inspect.getsource(errors.read_csv).count("DictReader") == 1


class TestWriting:
    def test_csv_quotes_and_ends_rows_with_crlf(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["x", "y"], iter([["a,b", 'say "hi"'], [1, 0.5]]))
        assert path.read_bytes() == b'x,y\r\n"a,b","say ""hi"""\r\n1,0.5\r\n'
        assert read_csv(path, ("x", "y"), lambda row: (row["x"], row["y"])) == [
            ("a,b", 'say "hi"'), ("1", "0.5")]

    def test_json_is_indented_by_two(self, tmp_path):
        obj = {"a": [1, 2.5, None], "b": {"c": "\u00e9"}}
        write_json(tmp_path / "t.json", obj)
        assert (tmp_path / "t.json").read_text(encoding="utf-8") == json.dumps(obj, indent=2)

    def test_text_writes_line_feeds_as_is(self, tmp_path):
        with writing(tmp_path / "t.jsonl") as fh:
            fh.write("{}\n{}\n")
        with writing(tmp_path / "t.bin", binary=True) as fh:
            fh.write(b"\x00\n\xff")
        assert (tmp_path / "t.jsonl").read_bytes() == b"{}\n{}\n"
        assert (tmp_path / "t.bin").read_bytes() == b"\x00\n\xff"

    def test_failed_write_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "scores.csv"
        write_csv(path, ["candidate_id", "score"], [["a", "0.9"], ["b", "0.1"]])
        before = path.read_bytes()

        def rows():
            yield ["c", "0.5"]
            raise RuntimeError("killed part-way")

        with pytest.raises(RuntimeError, match="part-way"):
            write_csv(path, ["candidate_id", "score"], rows())
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scores.csv"]

    def test_failed_first_write_leaves_no_file(self, tmp_path):
        with pytest.raises(ZeroDivisionError):
            with writing(tmp_path / "t.bin", binary=True) as fh:
                fh.write(b"partial")
                1 / 0
        assert list(tmp_path.iterdir()) == []


def _file_writes(tree):
    """Line numbers of the calls in ``tree`` that write a file: builtin
    ``open`` with a mode holding w, a or x (or one that is not a literal),
    and ``write_text`` / ``write_bytes``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
            yield node.lineno
        elif isinstance(func, ast.Name) and func.id == "open":
            modes = [k.value for k in node.keywords if k.arg == "mode"] + node.args[1:2]
            if modes and not (isinstance(modes[0], ast.Constant)
                              and isinstance(modes[0].value, str)
                              and not set("wax") & set(modes[0].value)):
                yield node.lineno


class TestOneWriter:
    def test_only_errors_opens_files_for_writing(self):
        # Every artifact is written through errors.writing, so a failed or
        # killed command never leaves a half-written file in its place.
        src = pathlib.Path(devicesurv.__file__).parent
        writes = {p.name: list(_file_writes(ast.parse(p.read_text(encoding="utf-8"))))
                  for p in sorted(src.rglob("*.py"))}
        assert {name for name, lines in writes.items() if lines} == {"errors.py"}, writes

    @pytest.mark.parametrize("source,flagged", [
        ("open(p, 'w')", True), ("open(p, mode='ab')", True), ("open(p, 'x')", True),
        ("open(p, m)", True), ("p.write_text('')", True), ("p.write_bytes(b'')", True),
        ("open(p)", False), ("open(p, 'rb')", False), ("open(p, encoding='utf-8')", False),
        ("os.open(p, os.O_CREAT | os.O_WRONLY)", False),
    ])
    def test_guard_finds_each_kind_of_write(self, source, flagged):
        assert bool(list(_file_writes(ast.parse(source)))) == flagged
