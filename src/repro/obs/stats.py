"""Render ``*.metrics.json`` artifacts: span trees, counters, shard tables.

The read side of the telemetry pipeline, and the rendering behind the
``repro stats`` subcommand: point it at a run directory (or one metrics
file) and it renders, per run —

* the **manifest** (host, cores, plan, backend) as one provenance block;
* the **span tree** — span paths split on ``/`` and indented, each node
  with call count, accumulated seconds, and share of the root ``run``
  span — plus the coverage line the acceptance gate reads (≥ 95% of
  wall time must land in named child spans);
* **counters**, **gauges**, and **histograms** (count / mean / min /
  max), sorted by name so diffs are stable;
* the **per-shard table** (worker pid, seconds, records, records/s) and
  its **per-worker rollup** — the direct view of how evenly the harness
  spread the run.

The live half — ``repro stats --follow`` / ``repro top`` — is
:class:`FollowView` + :func:`follow_path`: tail a run's
``*.events.jsonl`` (:mod:`repro.obs.events`), print one line per
committed shard (progress bar, cumulative throughput, cache-hit rate,
ETA), and close with a per-worker summary.  Pointing it at an
already-finished run degrades gracefully to the final summary alone.

Nothing here mutates anything; ``--check`` adds schema validation
(:mod:`repro.obs.schema`) on top.
"""

from __future__ import annotations

import os

from repro.obs.events import (
    follow_events,
    read_events,
    resolve_events_path,
    resolve_metrics_path,
)
from repro.obs.metrics import (
    METRICS_SUFFIX,
    load_metrics,
    per_worker,
    span_coverage,
)


def find_metrics(path: str | os.PathLike) -> list[str]:
    """Metrics files under *path*: a file's metrics artifact, else a
    sorted scan.

    A file may name the metrics artifact itself, the results file, or
    the event log, the same siblings ``repro top`` and
    ``--export-trace`` accept; a missing sibling finds nothing.
    Directories are scanned recursively so ``repro stats runs/`` finds
    every campaign and sweep below it.
    """
    target = os.fspath(path)
    if os.path.isfile(target):
        metrics = resolve_metrics_path(target)
        return [metrics] if os.path.isfile(metrics) else []
    found: list[str] = []
    for root, _dirs, files in os.walk(target):
        for name in files:
            if name.endswith(METRICS_SUFFIX):
                found.append(os.path.join(root, name))
    return sorted(found)


def _span_tree(spans: dict) -> list[tuple[int, str, dict]]:
    """Span paths as (depth, leaf name, entry), parents before children."""
    rows = []
    for path in sorted(spans):
        parts = path.split("/")
        rows.append((len(parts) - 1, parts[-1], spans[path]))
    return rows


def _format_seconds(seconds: float) -> str:
    if seconds >= 100:
        return f"{seconds:.1f}s"
    if seconds >= 0.1:
        return f"{seconds:.3f}s"
    return f"{seconds * 1000:.2f}ms"


def render_metrics(payload: dict, path: str | None = None) -> str:
    """One metrics artifact as a human-readable report."""
    lines: list[str] = []
    if path:
        lines.append(f"== {path} ==")
    manifest = payload.get("manifest", {})
    plan = (
        f"workers={manifest.get('workers')} "
        f"chunk_size={manifest.get('chunk_size')}"
    )
    lines.append(
        f"{manifest.get('kind', 'run')}: {manifest.get('total')} items, "
        f"seed {manifest.get('seed')}"
        + (", resumed" if manifest.get("resumed") else "")
    )
    backend = manifest.get("backend")
    if backend:
        batch = manifest.get("batch_size")
        lines.append(
            f"backend: {backend}"
            + (f" (batch_size={batch})" if batch is not None else "")
        )
    lines.append(f"plan: {plan}")
    lines.append(
        f"host: {manifest.get('host')} "
        f"(effective cores {manifest.get('effective_cores')}, "
        f"python {manifest.get('python')})"
    )
    wall = payload.get("wall_seconds", 0.0)
    lines.append(f"wall: {_format_seconds(wall)}")

    telemetry = payload.get("telemetry", {})
    spans = telemetry.get("spans", {})
    if spans:
        lines.append("")
        lines.append("spans (path, calls, seconds, share of run):")
        root = spans.get("run", {}).get("seconds", 0.0)
        for depth, name, entry in _span_tree(spans):
            share = (entry["seconds"] / root) if root > 0 else 0.0
            lines.append(
                f"  {'  ' * depth}{name:<{max(28 - 2 * depth, 8)}} "
                f"{entry['count']:>8} {_format_seconds(entry['seconds']):>10} "
                f"{share:>6.1%}"
            )
        lines.append(f"coverage: {span_coverage(payload):.1%} of run in named phases")

    counters = telemetry.get("counters", {})
    if counters:
        lines.append("")
        lines.append("counters:")
        for name in sorted(counters):
            lines.append(f"  {name:<40} {counters[name]:>12}")

    gauges = telemetry.get("gauges", {})
    if gauges:
        lines.append("")
        lines.append("gauges:")
        for name in sorted(gauges):
            lines.append(f"  {name:<40} {gauges[name]:>12g}")

    histograms = telemetry.get("histograms", {})
    if histograms:
        lines.append("")
        lines.append("histograms (count, mean, min, max):")
        for name in sorted(histograms):
            entry = histograms[name]
            mean = entry["sum"] / entry["count"] if entry["count"] else 0.0
            lines.append(
                f"  {name:<32} {entry['count']:>8} {mean:>10.3f} "
                f"{entry['min']:>10.3f} {entry['max']:>10.3f}"
            )

    shards = payload.get("shards", [])
    if shards:
        lines.append("")
        lines.append("shards (worker, seconds, records, records/s):")
        for shard in sorted(shards, key=lambda entry: entry.get("shard", 0)):
            seconds = shard.get("seconds", 0.0)
            records = shard.get("records", 0)
            rate = records / seconds if seconds > 0 else 0.0
            lines.append(
                f"  shard {shard.get('shard'):>4}  worker {shard.get('worker'):>8}  "
                f"{_format_seconds(seconds):>10}  {records:>6}  {rate:>8.0f}/s"
            )
        lines.append("")
        lines.append("workers (shards, seconds, records):")
        for worker, entry in sorted(per_worker(shards).items()):
            lines.append(
                f"  worker {worker:>8}  {entry['shards']:>4} shards  "
                f"{_format_seconds(entry['seconds']):>10}  "
                f"{entry['records']:>6} records"
            )
    return "\n".join(lines)


def render_path(path: str | os.PathLike) -> tuple[str, int]:
    """Render every metrics file under *path*; returns (text, file count)."""
    files = find_metrics(path)
    reports = [
        render_metrics(load_metrics(found), path=found) for found in files
    ]
    return "\n\n".join(reports), len(files)


# ----------------------------------------------------------------------
# Live following (`repro stats --follow`, `repro top`)
# ----------------------------------------------------------------------

_BAR_WIDTH = 24


def _progress_bar(done: int, total: int) -> str:
    if total <= 0:
        return "·" * _BAR_WIDTH
    filled = min(_BAR_WIDTH, round(_BAR_WIDTH * done / total))
    return "#" * filled + "·" * (_BAR_WIDTH - filled)


def _format_eta(seconds: float | None) -> str:
    if seconds is None:
        return "--"
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.1f}s"


class FollowView:
    """Event-by-event renderer for a live (or finished) run.

    :meth:`handle` absorbs one event and returns the line to print for
    it (``None`` for events rendered only at higher verbosity);
    :meth:`summary` renders the closing per-worker block from whatever
    has been absorbed so far — meaningful even when the stream stopped
    early (timeout, torn tail), which is why it never depends on a
    ``run-finished`` having arrived.
    """

    def __init__(self, verbose: bool = False):
        self.verbose = verbose
        self.total = 0
        self.records_done = 0
        self.finished: dict | None = None
        self.workers: dict[int, dict] = {}
        self.kind = "run"

    def handle(self, event: dict) -> str | None:
        kind = event["type"]
        if kind == "run-started":
            self.kind = event.get("kind", self.kind)
            self.total = event.get("total", 0)
            self.records_done = event.get("records_done", 0)
            line = (
                f"{self.kind}: {event.get('total')} items in "
                f"{event.get('shards_total')} shards, "
                f"{event.get('workers')} worker(s), "
                f"seed {event.get('seed')}"
            )
            if event.get("resumed"):
                line += "  [resumed]"
            return line
        if kind == "resume":
            return (
                f"resume: {event.get('shards_done')} shards / "
                f"{event.get('records_done')} records already committed"
            )
        if kind == "torn-marker":
            return "torn event-log tail from a killed run (tolerated)"
        if kind == "shard-committed":
            self.records_done = event.get("records_done", self.records_done)
            total = event.get("total", self.total) or self.total
            hits = event.get("cache_hits", 0)
            misses = event.get("cache_misses", 0)
            cache = (
                f"  cache {100 * hits / (hits + misses):.0f}%"
                if hits + misses > 0
                else ""
            )
            pct = 100 * self.records_done / total if total else 0.0
            return (
                f"[{_progress_bar(self.records_done, total)}] "
                f"{self.records_done}/{total} ({pct:5.1f}%)  "
                f"{event.get('throughput', 0.0):8.1f} rec/s  "
                f"eta {_format_eta(event.get('eta_seconds'))}"
                f"{cache}  [shard {event.get('shard')} "
                f"worker {event.get('worker')}]"
            )
        if kind == "worker-heartbeat":
            self.workers[event.get("worker", 0)] = {
                "shards": event.get("shards", 0),
                "records": event.get("records", 0),
                "seconds": event.get("seconds", 0.0),
                "throughput": event.get("throughput", 0.0),
            }
            if self.verbose:
                return (
                    f"  worker {event.get('worker')}: "
                    f"{event.get('shards')} shards, "
                    f"{event.get('records')} records, "
                    f"{event.get('throughput', 0.0):.1f} rec/s"
                )
            return None
        if kind == "run-finished":
            self.finished = event
            return None
        return None

    def summary(self) -> str:
        lines = []
        if self.finished is not None:
            event = self.finished
            state = "finished" if event.get("complete") else "stopped (partial)"
            lines.append(
                f"{self.kind} {state}: {event.get('records_done')}/"
                f"{event.get('total')} records in "
                f"{_format_seconds(event.get('wall_seconds', 0.0))} "
                f"({event.get('throughput', 0.0):.1f} rec/s)"
            )
        else:
            lines.append(
                f"{self.kind} in flight: {self.records_done}/{self.total} "
                "records (no run-finished event yet)"
            )
        if self.workers:
            lines.append("workers (shards, records, rec/s):")
            for worker, entry in sorted(self.workers.items()):
                lines.append(
                    f"  worker {worker:>8}  {entry['shards']:>4} shards  "
                    f"{entry['records']:>6} records  "
                    f"{entry['throughput']:>8.1f}/s"
                )
        return "\n".join(lines)


def follow_path(
    path: str | os.PathLike,
    interval: float = 0.2,
    timeout: float | None = None,
    verbose: bool = False,
    write=print,
) -> int:
    """Follow the run at *path* (results, metrics, or events file).

    An already-finished run (the newest event on disk is
    ``run-finished``) renders only its final summary.  Otherwise the log
    is tailed live until the run finishes — exit 0 — or *timeout*
    seconds pass without it, exit 1 with the partial summary.
    """
    events_file = resolve_events_path(path)
    view = FollowView(verbose=verbose)
    backlog = read_events(events_file) if os.path.exists(events_file) else []
    if backlog and backlog[-1]["type"] == "run-finished":
        for event in backlog:
            view.handle(event)
        write(view.summary())
        return 0
    status = 0
    try:
        for event in follow_events(events_file, poll=interval, timeout=timeout):
            line = view.handle(event)
            if line is not None:
                write(line)
    except TimeoutError as error:
        write(f"timed out: {error}")
        status = 1
    write(view.summary())
    return status
