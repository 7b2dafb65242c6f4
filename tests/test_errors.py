"""Tests for the shared CSV table reader and the artifact writers."""

import ast
import csv
import inspect
import io
import json
import pathlib

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import devicesurv
from devicesurv import errors
from devicesurv.errors import (
    DeviceSurvError,
    InputFormatError,
    decoded_lines,
    parsing,
    read_csv,
    write_csv,
    write_json,
    writing,
)


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

    def test_repeated_column_refused(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,y,z,y\n1,a,b,c\n")
        with pytest.raises(InputFormatError, match=r"t\.csv: repeated columns \['y'\]") as exc:
            read_csv(path, ("x",), _float_x)
        assert exc.value.context == {"path": str(path)}

    def test_csv_reader_only_in_read_csv(self):
        # Every CSV table in the library is read through errors.read_csv.
        src = pathlib.Path(devicesurv.__file__).parent

        def readers(text):
            return text.count("csv.reader") + text.count("DictReader")

        users = {p.name: readers(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))}
        assert {name for name, n in users.items() if n} == {"errors.py"}
        assert users["errors.py"] == readers(inspect.getsource(errors.read_csv)) == 1


def _oracle_read_csv(path, columns, parse_row, key=None) -> list:
    """``errors.read_csv`` as it was on csv.DictReader, before the header
    rule on repeated names."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(decoded_lines(fh, path))
        missing = [c for c in columns if c not in (reader.fieldnames or ())]
        if missing:
            raise InputFormatError(f"{path}: missing columns {missing}",
                                   context={"path": str(path)})
        out, seen = [], set()
        for row in reader:
            with parsing(path, reader.line_num):
                if None in row:  # the csv key of the fields past the header
                    raise ValueError(f"{len(row[None])} more fields than the header")
                if key is not None:
                    if row[key] in seen:
                        raise ValueError(f"duplicate {key} {row[key]!r}")
                    seen.add(row[key])
                out.append(parse_row(row))
        return out


def _float_x_and_row(row):
    return float(row["x"]), list(row.items())


def _outcome(read, path, key):
    try:
        return read(path, ("x",), _float_x_and_row, key=key)
    except DeviceSurvError as exc:
        return type(exc), exc.message, exc.context
    except csv.Error as exc:
        return type(exc), str(exc)


_CELLS = st.sampled_from(["1", "2.5", "1", "abc", "", " 3 ", "a,b", 'say "hi"', "two\nlines",
                          "cr\r\nlf", "\r"])


@st.composite
def _csv_files(draw):
    """The text of a CSV file: a header of distinct names, then rows of
    any width and blank lines, written with LF or CRLF, the last line
    ended or not; or text of the characters that matter to csv."""
    if draw(st.booleans()):
        return draw(st.text(alphabet='xy,1a" \r\n', max_size=60))
    header = draw(st.lists(st.sampled_from("xyzw"), unique=True, max_size=4))
    rows = draw(st.lists(st.one_of(st.none(), st.lists(_CELLS, max_size=6)), max_size=8))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [header] + rows
    text = "".join(end if r is None else _csv_line(r, end) for r in lines)
    return text[:-len(end)] if text and draw(st.booleans()) else text


def _csv_line(cells, end):
    buf = io.StringIO()
    csv.writer(buf, lineterminator=end).writerow(cells)
    return buf.getvalue()


class TestReadCsvOracle:
    @given(_csv_files(), st.sampled_from([None, "x", "y"]))
    @settings(max_examples=600, deadline=None)
    def test_matches_dictreader_oracle(self, tmp_path_factory, text, key):
        # Every row rule of the DictReader reader holds: the same rows, or
        # the same error, message and context. (The oracle reads a header
        # that names a column twice; test_repeated_column_refused covers it.)
        header = next(csv.reader(io.StringIO(text, newline="")), [])
        assume(len(set(header)) == len(header))
        path = tmp_path_factory.getbasetemp() / "oracle.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(read_csv, path, key) == _outcome(_oracle_read_csv, path, key)


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


def _input_error_builds(tree):
    """The name of the function around each call in ``tree`` that builds an
    ``InputFormatError`` ("" at module level)."""
    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", getattr(func, "attr", None)) == "InputFormatError":
                    yield where
            yield from visit(child, where)

    return list(visit(tree, ""))


class TestOneInputRule:
    def test_only_errors_builds_input_format_errors(self):
        # Every reader raises a plain ValueError inside errors.parsing, which
        # alone names the file and line. One check that compares inputs with
        # each other, and reads none, builds its own.
        src = pathlib.Path(devicesurv.__file__).parent
        builds = {(p.name, where) for p in sorted(src.rglob("*.py")) if p.name != "errors.py"
                  for where in _input_error_builds(ast.parse(p.read_text(encoding="utf-8")))}
        assert builds == {("reconcile.py", "canonicalize_implant")}

    @pytest.mark.parametrize("source,builds", [
        ("raise InputFormatError('x')", [""]),
        ("def load(p):\n    raise errors.InputFormatError(f'{p}: x')", ["load"]),
        ("def load(p):\n    def row(r):\n        return InputFormatError('x')\n", ["row"]),
        ("try:\n    pass\nexcept InputFormatError as exc:\n    log(exc.message)", []),
        ("isinstance(exc, InputFormatError)", []),
        ("raise ValueError('x')", []),
    ])
    def test_guard_finds_each_build(self, source, builds):
        assert _input_error_builds(ast.parse(source)) == builds
