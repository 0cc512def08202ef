"""Append-only JSON Lines logs: framing, appends, recovery, reads, tails.

Results files, event logs, the service journal and the service wire all
carry one JSON object per line in canonical form (sorted keys, no
spaces), terminated by ``\\n``.  An append is one ``write()`` plus one
``flush()``, so a kill leaves a valid prefix plus at most one torn last
line, and this module is where that contract lives:

* :func:`dump_line` and :func:`parse_line` frame and unframe one line; a
  torn or foreign line parses to ``None``;
* :func:`read_lines` reads a whole log: every line holding an object,
  including a last line that lost only its ``\\n``;
* :func:`read_complete` reads the ``\\n``-terminated lines past a byte
  offset with the offset after each, so a tail never consumes a line
  still being written and resume can find where a committed prefix ends;
* :class:`AppendLog` cuts a file back to a committed prefix on request,
  terminates a torn tail when it opens the file, and appends.

Single documents are rewritten whole by :mod:`repro.utils.atomic`;
these two modules are the only places the package writes files.
"""

from __future__ import annotations

import json
import os


def dump_line(data: dict) -> str:
    """One canonical line: compact JSON with sorted keys, plus ``\\n``."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def parse_line(line: bytes | str) -> dict | None:
    """The object on one line, or ``None`` for a blank, torn or non-object
    line."""
    try:
        data = json.loads(line)
    except ValueError:  # JSONDecodeError and UnicodeDecodeError
        return None
    return data if isinstance(data, dict) else None


def read_complete(
    path: str | os.PathLike, offset: int = 0
) -> tuple[list[tuple[int, dict | None]], bytes]:
    """The complete lines of *path* past byte *offset*, and the rest.

    Each complete line comes as ``(end, object)``: the byte offset just
    past its ``\\n`` and its :func:`parse_line` value.  The rest is the
    unterminated tail, a line still being written or one torn by a kill;
    a follower reads on from the last complete line's end.
    """
    with open(path, "rb") as handle:
        handle.seek(offset)
        data = handle.read()
    *complete, tail = data.split(b"\n")
    lines = []
    for raw in complete:
        offset += len(raw) + 1
        lines.append((offset, parse_line(raw)))
    return lines, tail


def read_lines(path: str | os.PathLike) -> list[dict]:
    """Every object in the log at *path*, torn and foreign lines skipped;
    a last line that lost only its ``\\n`` still holds a whole object."""
    lines, tail = read_complete(path)
    entries = [entry for _, entry in lines] + [parse_line(tail)]
    return [entry for entry in entries if entry is not None]


class AppendLog:
    """A log open for appending, one write plus one flush per append.

    *keep* first cuts the file to that many bytes: a committed prefix,
    or ``0`` to start the log over.  A last line still missing its
    ``\\n`` is then terminated (:attr:`torn` says so), so the first append
    starts a fresh line; the remnant stays on disk as a line of its own,
    which readers skip unless it lost only its ``\\n``.
    """

    def __init__(self, path: str | os.PathLike, keep: int | None = None):
        self._handle = open(path, "a+b")
        size = self._handle.seek(0, os.SEEK_END)
        if keep is not None and keep < size:
            size = self._handle.truncate(keep)
        self.torn = False
        if size:
            self._handle.seek(size - 1)
            self.torn = self._handle.read(1) != b"\n"
        if self.torn:
            self._write(b"\n")

    def append(self, *entries: dict) -> None:
        """Append *entries* as canonical lines in one write."""
        self._write("".join(map(dump_line, entries)).encode("utf-8"))

    def _write(self, data: bytes) -> None:
        """The one place a log's bytes reach its file."""
        self._handle.write(data)
        self._handle.flush()

    def close(self) -> None:
        self._handle.close()
