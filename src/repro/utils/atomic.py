"""Atomic single-document writes.

Metrics artifacts, coverage matrices, trace exports and the CLI's JSON
and report files are each one document, rewritten whole.  Written in
place, a run killed mid-write would leave a truncated file where the
previous good one stood.  :func:`write_atomic` writes a temporary file
beside the target, flushes and fsyncs it, and renames it over the target
with :func:`os.replace`, so a reader sees the old document or the new
one, never a torn one.  (Append-only JSONL streams keep their own
commit-marker protocol instead.)
"""

from __future__ import annotations

import os


def write_atomic(path: str | os.PathLike, text: str) -> str:
    """Replace the file at *path* with *text* (UTF-8); return the path.

    If anything fails before the rename, the previous file is left
    byte-identical and the temporary file is removed.
    """
    target = os.fspath(path)
    directory, name = os.path.split(target)
    temp = os.path.join(
        directory, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    )
    try:
        with open(temp, "x", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, target)
    except BaseException:
        try:
            os.unlink(temp)
        except FileNotFoundError:
            pass
        raise
    return target
