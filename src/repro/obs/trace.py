"""Export runs as Chrome/Perfetto ``trace_event`` JSON.

``repro stats --export-trace out.json`` turns the two observability
artifacts a run leaves behind into one visually inspectable timeline:

* the **event log** (``*.events.jsonl``) becomes the real timeline —
  every committed shard is a complete (``X``) slice on its worker's
  track, with cumulative throughput as a counter (``C``) series and
  run-started / resume / torn-marker / run-finished as instants (``i``);
* the **metrics artifact** (``*.metrics.json``) contributes the span
  tree as a *synthetic* track: spans are accumulated totals, not
  intervals, so the exporter lays each node out sequentially after its
  earlier siblings inside its parent.  Durations and nesting are real;
  start offsets are not (and workers time in parallel, so a child track
  may outlast its parent's slice).  The track is named accordingly.

Either source alone exports fine — a run killed before its metrics
landed still has its event prefix, and metrics-only artifacts (coverage
runs) still get their span tree.  Output conforms to
:data:`repro.obs.schema.TRACE_SCHEMA` (checked before writing) and loads
directly in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.
"""

from __future__ import annotations

import json
import os

from repro.errors import ConfigurationError
from repro.obs.events import read_events, resolve_events_path, resolve_metrics_path
from repro.obs.metrics import load_metrics
from repro.utils.atomic import write_atomic

#: trace_event timestamps are microseconds.
_MICROS = 1_000_000.0

#: Synthetic pid for the aggregated span-tree track (workers' real
#: timeline is pid 1).
_SPAN_PID = 2


def _meta(pid: int, tid: int, kind: str, name: str) -> dict:
    """A metadata (``M``) event naming a process or thread track."""
    return {
        "name": kind, "ph": "M", "ts": 0.0, "pid": pid, "tid": tid,
        "args": {"name": name},
    }


def _timeline_events(events: list[dict]) -> list[dict]:
    """The real-timeline track: one slice per shard, instants, counters.

    A window's shards commit together, each with its share of the
    window's time, so each worker's slices lie end to end: a slice ends
    at its commit or where the next one on its track starts, if earlier.
    """
    if not events:
        return []
    t0 = min(event["t"] for event in events)
    starts: dict[int, float] = {}  # by event index
    track_start: dict[int, float] = {}  # by worker
    for index in range(len(events) - 1, -1, -1):
        event = events[index]
        if event["type"] == "shard-committed":
            worker = int(event.get("worker", 0))
            end = (event["t"] - t0) * _MICROS
            end = min(end, track_start.get(worker, end))
            duration = float(event.get("seconds", 0.0)) * _MICROS
            starts[index] = track_start[worker] = end - duration
    out = [_meta(1, 0, "process_name", "run timeline")]
    workers_seen: set[int] = set()
    for index, event in enumerate(events):
        ts = max((event["t"] - t0) * _MICROS, 0.0)
        kind = event["type"]
        if kind == "shard-committed":
            worker = int(event.get("worker", 0))
            if worker not in workers_seen:
                workers_seen.add(worker)
                out.append(_meta(1, worker, "thread_name", f"worker {worker}"))
            duration = float(event.get("seconds", 0.0)) * _MICROS
            out.append({
                "name": f"shard {event.get('shard')}",
                "cat": "shard",
                "ph": "X",
                "ts": max(starts[index], 0.0),
                "dur": duration,
                "pid": 1,
                "tid": worker,
                "args": {
                    "records": event.get("records"),
                    "records_done": event.get("records_done"),
                    "cache_hits": event.get("cache_hits"),
                    "cache_misses": event.get("cache_misses"),
                },
            })
            out.append({
                "name": "throughput",
                "ph": "C",
                "ts": ts,
                "pid": 1,
                "tid": 0,
                "args": {"records_per_s": event.get("throughput", 0.0)},
            })
        elif kind == "worker-heartbeat":
            worker = int(event.get("worker", 0))
            out.append({
                "name": f"worker {worker} throughput",
                "ph": "C",
                "ts": ts,
                "pid": 1,
                "tid": 0,
                "args": {"records_per_s": event.get("throughput", 0.0)},
            })
        else:  # run-started / resume / torn-marker / run-finished
            args = {
                key: value
                for key, value in event.items()
                if key not in ("type", "seq", "t") and value is not None
            }
            out.append({
                "name": kind,
                "cat": "lifecycle",
                "ph": "i",
                "s": "g",
                "ts": ts,
                "pid": 1,
                "tid": 0,
                "args": args,
            })
    return out


def _span_events(metrics: dict) -> list[dict]:
    """The synthetic span-tree track, laid out sequentially by path."""
    spans = metrics.get("telemetry", {}).get("spans", {})
    if not spans:
        return []
    children: dict[str, list[str]] = {}
    roots: list[str] = []
    for path in sorted(spans):
        if "/" in path:
            children.setdefault(path.rsplit("/", 1)[0], []).append(path)
        else:
            roots.append(path)
    out = [
        _meta(_SPAN_PID, 0, "process_name", "span tree (synthetic layout)"),
        _meta(_SPAN_PID, 1, "thread_name", "accumulated spans"),
    ]

    def emit(path: str, start: float) -> None:
        entry = spans[path]
        duration = float(entry["seconds"]) * _MICROS
        out.append({
            "name": path.rsplit("/", 1)[-1],
            "cat": "span",
            "ph": "X",
            "ts": start,
            "dur": duration,
            "pid": _SPAN_PID,
            "tid": 1,
            "args": {
                "path": path,
                "count": entry["count"],
                "synthetic_layout": True,
            },
        })
        cursor = start
        for child in children.get(path, ()):
            emit(child, cursor)
            cursor += float(spans[child]["seconds"]) * _MICROS

    cursor = 0.0
    for root in roots:
        emit(root, cursor)
        cursor += float(spans[root]["seconds"]) * _MICROS
    return out


def build_trace(
    metrics: dict | None = None, events: list[dict] | None = None
) -> dict:
    """Assemble one trace_event document from whichever sources exist."""
    trace_events: list[dict] = []
    if events:
        trace_events.extend(_timeline_events(events))
    if metrics:
        trace_events.extend(_span_events(metrics))
    manifest = (metrics or {}).get("manifest", {})
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro stats --export-trace",
            "kind": manifest.get("kind"),
            "note": (
                "pid 1 = real event-log timeline; "
                f"pid {_SPAN_PID} = accumulated span totals in a synthetic "
                "sequential layout (durations real, offsets not)"
            ),
        },
    }


def collect_sources(path: str | os.PathLike) -> tuple[dict | None, list[dict] | None]:
    """The ``(metrics, events)`` siblings of *path*, whichever exist.

    *path* may name the results file, the metrics artifact, or the event
    log; the other siblings are derived from it.
    """
    events_file = resolve_events_path(path)
    metrics_file = resolve_metrics_path(path)
    metrics = load_metrics(metrics_file) if os.path.exists(metrics_file) else None
    events = read_events(events_file) if os.path.exists(events_file) else None
    return metrics, events


def export_trace(path: str | os.PathLike, out: str | os.PathLike) -> dict:
    """Export the run at *path* to *out*; return the written document.

    Raises :class:`~repro.errors.ConfigurationError` when neither the
    metrics artifact nor the event log exists, or when the assembled
    document fails its own schema (a bug, caught before it ships).
    """
    from repro.obs.schema import validate_trace

    metrics, events = collect_sources(path)
    if metrics is None and events is None:
        raise ConfigurationError(
            f"{os.fspath(path)}: no .metrics.json or .events.jsonl sibling "
            "to export (runs emit them beside --out when telemetry is on)"
        )
    trace = build_trace(metrics=metrics, events=events)
    errors = validate_trace(trace)
    if errors:
        raise ConfigurationError(
            f"exported trace is schema-invalid: {'; '.join(errors[:3])}"
        )
    write_atomic(out, json.dumps(trace, indent=1, sort_keys=True) + "\n")
    return trace
