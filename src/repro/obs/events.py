"""Append-only, crash-tolerant event logs: the live half of `repro.obs`.

The ``*.metrics.json`` artifact explains a run *after* it finishes; this
module makes the run explainable *while it happens*.  Every harness run
with ``--out somewhere.jsonl`` and telemetry enabled streams a sibling
``somewhere.events.jsonl`` — one JSON object per line, appended at the
shard-commit seam (the same durability boundary the result records
cross), so the event log is exactly as trustworthy as the results file:

``run-started``
    One per harness session: client kind, seed, totals, the shard plan,
    worker count, and whether the session resumed a previous one.
``resume``
    Emitted by a resuming session: how many shards/records were already
    committed on disk.
``shard-committed``
    One per committed shard: shard id, worker pid, shard wall seconds and
    record count, cumulative ``records_done``/``shards_done``, session
    throughput (records/s), the ETA derived from it, and cumulative
    measure-cache hit/miss counts.
``worker-heartbeat``
    After each commit, the committing worker's cumulative session totals
    (shards, records, seconds, throughput) — the per-worker view
    ``repro top`` renders.
``torn-marker``
    Written when a session reopens an event log whose final line was torn
    by a kill mid-append: the torn tail is terminated and recorded, and
    the new session's events append after it.
``run-finished``
    One per session that ran to its stopping point: records done, whether
    the run is complete (``stop_after_shards`` sessions finish
    incomplete), session wall seconds and throughput.

Crash tolerance is structural: every event is one ``write()`` of one
``\\n``-terminated line followed by a flush, so a killed run leaves a
valid prefix plus at most one torn final line.  Readers
(:func:`read_events`, :func:`follow_events`) skip unparsable lines, and a
resuming :class:`EventWriter` appends *after* a torn tail instead of
corrupting it further — the reader-side and writer-side halves of the
same guarantee the results JSONL already makes.

Timestamps are monotonic by construction: ``t`` is wall-clock
(``time.time()``) clamped to never decrease within or across sessions
(the writer restores the high-water mark from the existing log), and
``seq`` increases strictly, so a merged or resumed log still sorts.
"""

from __future__ import annotations

import json
import os
import time

#: Suffix replacing the results file's extension (``x.jsonl`` →
#: ``x.events.jsonl``), mirroring ``repro.obs.metrics.METRICS_SUFFIX``.
EVENTS_SUFFIX = ".events.jsonl"

#: The event vocabulary, pinned by ``repro.obs.schema.EVENTS_SCHEMA``.
EVENT_TYPES = (
    "run-started",
    "resume",
    "torn-marker",
    "shard-committed",
    "worker-heartbeat",
    "run-finished",
)

#: Metrics-artifact suffix, spelled here to avoid an import cycle with
#: :mod:`repro.obs.metrics` (which stays events-free).
_METRICS_SUFFIX = ".metrics.json"


def events_path(out: str | os.PathLike) -> str:
    """The event-log sibling of a results path: ``x.jsonl`` → ``x.events.jsonl``."""
    base, _ = os.path.splitext(os.fspath(out))
    return base + EVENTS_SUFFIX


def resolve_events_path(path: str | os.PathLike) -> str:
    """The event log for *path*, whichever sibling the caller named.

    Accepts the event log itself, the ``*.metrics.json`` sibling, or the
    results file — ``repro stats --follow`` and ``repro top`` take any of
    the three.
    """
    target = os.fspath(path)
    if target.endswith(EVENTS_SUFFIX):
        return target
    if target.endswith(_METRICS_SUFFIX):
        return target[: -len(_METRICS_SUFFIX)] + EVENTS_SUFFIX
    return events_path(target)


def resolve_metrics_path(path: str | os.PathLike) -> str:
    """The metrics artifact for *path*, whichever sibling the caller named
    (the mirror of :func:`resolve_events_path`)."""
    target = os.fspath(path)
    if target.endswith(_METRICS_SUFFIX):
        return target
    return resolve_events_path(target)[: -len(EVENTS_SUFFIX)] + _METRICS_SUFFIX


def _dump_line(data: dict) -> str:
    """One canonical JSONL line (same shape as the results wire format)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def _parse_line(line: bytes | str) -> dict | None:
    """One event from one line, or ``None`` for blank/torn/foreign lines."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError:
            return None
    line = line.strip()
    if not line:
        return None
    try:
        data = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(data, dict) or "type" not in data:
        return None
    return data


def read_events(path: str | os.PathLike) -> list[dict]:
    """Every parseable event in *path*, torn/foreign lines skipped.

    A file whose final line was torn by a kill mid-append parses to its
    valid prefix — the reader half of the crash-tolerance contract.
    """
    events: list[dict] = []
    with open(os.fspath(path), "rb") as handle:
        for line in handle:
            event = _parse_line(line)
            if event is not None:
                events.append(event)
    return events


class EventWriter:
    """Append events to a log, one atomic flushed line at a time.

    ``fresh=True`` truncates (a new run); the default appends — and on
    reopening a log whose tail was torn by a kill mid-append, terminates
    the torn line and records a ``torn-marker`` event, so a resumed
    session's events land on clean lines after the valid prefix.  The
    sequence number and timestamp high-water mark are restored from the
    existing log, keeping ``seq`` strictly increasing and ``t``
    non-decreasing across sessions.
    """

    def __init__(self, path: str | os.PathLike, fresh: bool = False):
        self.path = os.fspath(path)
        self._seq = 0
        self._last_t = 0.0
        torn = False
        if not fresh and os.path.exists(self.path):
            torn = self._restore()
        self._handle = open(self.path, "w" if fresh else "a", encoding="utf-8")
        if torn:
            # Terminate the torn tail so this session's first event
            # starts a fresh line; the remnant stays on disk, skipped by
            # every reader.
            self._handle.write("\n")
            self._handle.flush()
            self.emit("torn-marker", note="torn trailing line terminated on reopen")

    def _restore(self) -> bool:
        """Recover seq/t high-water marks; report whether the tail is torn."""
        with open(self.path, "rb") as handle:
            content = handle.read()
        for line in content.splitlines():
            event = _parse_line(line)
            if event is None:
                continue
            seq = event.get("seq")
            if isinstance(seq, int) and seq >= self._seq:
                self._seq = seq + 1
            t = event.get("t")
            if isinstance(t, (int, float)) and not isinstance(t, bool):
                self._last_t = max(self._last_t, float(t))
        return bool(content) and not content.endswith(b"\n")

    def emit(self, kind: str, /, **fields) -> dict:
        """Append one event; return it (with ``seq`` and ``t`` stamped).

        *kind* is positional-only so events may carry a ``kind`` field of
        their own (e.g. ``run-started`` records the client kind).
        """
        now = round(time.time(), 6)
        if now < self._last_t:
            now = self._last_t
        self._last_t = now
        event = {"type": kind, "seq": self._seq, "t": now, **fields}
        self._seq += 1
        self._handle.write(_dump_line(event))
        self._handle.flush()
        return event

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "EventWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def follow_events(
    path: str | os.PathLike,
    poll: float = 0.2,
    timeout: float | None = None,
):
    """Tail an event log, yielding events as their lines complete.

    Yields every already-written event first (the backlog), then polls
    for appended lines every *poll* seconds.  Only complete
    (``\\n``-terminated) lines are consumed — a torn tail, whether
    mid-write or left by a kill, stays buffered until its newline lands,
    so following never crashes on truncation.  The generator returns once
    the log has been drained *and* its newest event is ``run-finished``
    (an older session's ``run-finished`` mid-log, followed by a resume,
    does not stop the tail).  Raises :class:`TimeoutError` when *timeout*
    seconds pass without that condition — including when the log never
    appears at all.
    """
    target = os.fspath(path)
    deadline = None if timeout is None else time.monotonic() + timeout
    offset = 0
    buffer = b""
    last_type: str | None = None
    while True:
        grew = False
        if os.path.exists(target):
            with open(target, "rb") as handle:
                handle.seek(offset)
                chunk = handle.read()
            if chunk:
                grew = True
                offset += len(chunk)
                buffer += chunk
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    event = _parse_line(line)
                    if event is None:
                        continue
                    last_type = event["type"]
                    yield event
        if last_type == "run-finished" and not buffer:
            return
        if deadline is not None and time.monotonic() >= deadline:
            raise TimeoutError(
                f"{target}: no run-finished event within {timeout:g}s"
            )
        if not grew:
            time.sleep(poll)
