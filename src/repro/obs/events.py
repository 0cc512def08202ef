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

Crash tolerance is structural: the log is a :mod:`repro.utils.jsonl`
log, every event one ``write()`` of one ``\\n``-terminated line followed
by a flush, so a killed run leaves a valid prefix plus at most one torn
final line.  Readers (:func:`read_events`, :func:`follow_events`) skip
unparsable lines, and a resuming :class:`EventWriter` appends *after* a
torn tail instead of corrupting it further — the reader-side and
writer-side halves of the same guarantee the results JSONL makes.

Timestamps are monotonic by construction: ``t`` is wall-clock
(``time.time()``) clamped to never decrease within or across sessions
(the writer restores the high-water mark from the existing log), and
``seq`` increases strictly, so a merged or resumed log still sorts.
"""

from __future__ import annotations

import os
import time

from repro.utils.jsonl import AppendLog, read_complete, read_lines

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


def read_events(path: str | os.PathLike) -> list[dict]:
    """Every event in *path*; torn and foreign lines are skipped, so a log
    torn by a kill mid-append reads as its valid prefix."""
    return [entry for entry in read_lines(path) if "type" in entry]


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
        if not fresh and os.path.exists(self.path):
            for event in read_events(self.path):
                seq, t = event.get("seq"), event.get("t")
                if isinstance(seq, int) and seq >= self._seq:
                    self._seq = seq + 1
                if isinstance(t, (int, float)) and not isinstance(t, bool):
                    self._last_t = max(self._last_t, float(t))
        self._log = AppendLog(self.path, keep=0 if fresh else None)
        if self._log.torn:
            self.emit("torn-marker", note="torn trailing line terminated on reopen")

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
        self._log.append(event)
        return event

    def close(self) -> None:
        self._log.close()

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
    mid-write or left by a kill, is read again until its newline lands,
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
    last_type: str | None = None
    while True:
        lines, tail = [], b""
        if os.path.exists(target):
            lines, tail = read_complete(target, offset)
        for offset, event in lines:  # each line moves the offset past it
            if event is not None and "type" in event:
                last_type = event["type"]
                yield event
        if last_type == "run-finished" and not tail:
            return
        if deadline is not None and time.monotonic() >= deadline:
            raise TimeoutError(
                f"{target}: no run-finished event within {timeout:g}s"
            )
        if not lines:
            time.sleep(poll)
