"""The one JSON Lines module: framing, reads, tails, appends, write seams."""

import ast
import pathlib
from contextlib import closing

import pytest

import repro
from repro.utils import jsonl
from repro.utils.jsonl import (
    AppendLog,
    dump_line,
    parse_line,
    read_complete,
    read_lines,
)


class TestFraming:
    def test_dump_line_is_canonical(self):
        assert dump_line({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}\n'

    @pytest.mark.parametrize(
        "line",
        [b"", b"\n", b'{"type": "rec', b"[1, 2]\n", b"7", b'{"a": "\xff"}', "plain"],
    )
    def test_parse_line_rejects_non_objects(self, line):
        assert parse_line(line) is None

    def test_parse_line_round_trips(self):
        entry = {"type": "record", "index": 3}
        assert parse_line(dump_line(entry)) == entry
        assert parse_line(dump_line(entry).encode()) == entry


class TestReadLines:
    def test_truncated_tail_skipped(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text(dump_line({"type": "header"}) + '{"type": "rec')
        assert read_lines(path) == [{"type": "header"}]

    def test_last_line_missing_only_its_newline_counts(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text(dump_line({"n": 0}) + dump_line({"n": 1})[:-1])
        assert read_lines(path) == [{"n": 0}, {"n": 1}]

    def test_foreign_lines_skipped(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('[1, 2]\nhello\n\n{"n": 0}\n')
        assert read_lines(path) == [{"n": 0}]


class TestReadComplete:
    def test_offsets_and_tail(self, tmp_path):
        path = tmp_path / "r.jsonl"
        first, second = dump_line({"n": 0}), "garbage\n"
        path.write_text(first + second + '{"n": 2')
        lines, tail = read_complete(path)
        assert lines == [
            (len(first), {"n": 0}),
            (len(first) + len(second), None),
        ]
        assert tail == b'{"n": 2'
        assert read_complete(path, len(first)) == (
            [(len(first) + len(second), None)],
            tail,
        )

    def test_tail_is_read_again_until_its_newline_lands(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"n": 0}\n{"n"')
        lines, _ = read_complete(path)
        offset = lines[-1][0]
        assert read_complete(path, offset) == ([], b'{"n"')
        with open(path, "a") as handle:
            handle.write(': 1}\n')
        assert read_complete(path, offset)[0] == [
            (path.stat().st_size, {"n": 1})
        ]


class TestAppendLog:
    def test_creates_and_appends_one_write_per_append(self, tmp_path, monkeypatch):
        path = tmp_path / "new.jsonl"
        writes = []
        original = AppendLog._write
        monkeypatch.setattr(
            AppendLog, "_write",
            lambda self, data: writes.append(data) or original(self, data),
        )
        with closing(AppendLog(path)) as log:
            assert not log.torn
            log.append({"n": 0}, {"n": 1})
            log.append({"n": 2})
        assert writes == [
            (dump_line({"n": 0}) + dump_line({"n": 1})).encode(),
            dump_line({"n": 2}).encode(),
        ]
        assert read_lines(path) == [{"n": 0}, {"n": 1}, {"n": 2}]

    def test_torn_tail_terminated_on_open(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_bytes(b'{"n": 0}\n{"n": 1')
        with closing(AppendLog(path)) as log:
            assert log.torn
            log.append({"n": 2})
        assert path.read_bytes() == b'{"n": 0}\n{"n": 1\n{"n":2}\n'
        assert read_lines(path) == [{"n": 0}, {"n": 2}]

    def test_keep_cuts_to_a_prefix_before_checking_the_tail(self, tmp_path):
        path = tmp_path / "cut.jsonl"
        path.write_bytes(b'{"n": 0}\n{"n": 1}\n{"n"')
        with closing(AppendLog(path, keep=9)) as log:
            assert not log.torn
            log.append({"n": 1})
        assert path.read_bytes() == b'{"n": 0}\n{"n":1}\n'

    def test_keep_zero_starts_over(self, tmp_path):
        path = tmp_path / "fresh.jsonl"
        path.write_bytes(b'{"old": true}\n{"torn')
        with closing(AppendLog(path, keep=0)) as log:
            assert not log.torn
            log.append({"n": 0})
        assert path.read_bytes() == b'{"n":0}\n'


#: Calls that open a file for writing, appending or update, or cut one.
_WRITING_MODES = set("wax+")
_WRITING_CALLS = {"write_text", "write_bytes", "truncate", "ftruncate"}


def _writes_files(tree: ast.AST) -> list[int]:
    """Line numbers of calls in *tree* that write or truncate a file."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if name in _WRITING_CALLS:
            found.append(node.lineno)
        elif name == "open":
            owner = getattr(getattr(func, "value", None), "id", None)
            if owner == "os":
                found.append(node.lineno)  # os.open: its flags decide
                continue
            # open(path, mode) and io.open(path, mode); path.open(mode)
            position = 1 if owner in (None, "io") else 0
            mode = next(
                (kw.value for kw in node.keywords if kw.arg == "mode"),
                node.args[position] if len(node.args) > position else None,
            )
            if mode is None:
                continue  # the default mode reads
            if not isinstance(mode, ast.Constant) or _WRITING_MODES & set(mode.value):
                found.append(node.lineno)
    return sorted(found)


class TestWriteSeams:
    def test_only_two_modules_write_files(self):
        """Every file the package writes goes through the append-only log
        (:mod:`repro.utils.jsonl`) or the atomic document writer
        (:mod:`repro.utils.atomic`)."""
        package = pathlib.Path(repro.__file__).parent
        seams = {pathlib.Path(jsonl.__file__).name, "atomic.py"}
        writers = {}
        for path in sorted(package.rglob("*.py")):
            found = _writes_files(ast.parse(path.read_text(encoding="utf-8")))
            if found:
                writers[str(path.relative_to(package))] = found
        assert set(writers) == {f"utils/{name}" for name in seams}, writers

    def test_scanner_flags_writers(self):
        source = (
            "open(p, 'a')\nopen(p, mode='wb')\nopen(p, m)\nos.open(p, 1)\n"
            "p.write_text('x')\nh.truncate(3)\npath.open('w')\n"
            "io.open(p, 'r+')\nopen(p)\nopen(p, 'rb')\npath.open()\n"
        )
        assert _writes_files(ast.parse(source)) == [1, 2, 3, 4, 5, 6, 7, 8]
