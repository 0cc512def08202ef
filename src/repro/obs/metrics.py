"""Per-run metrics artifacts: manifest + merged telemetry + shard stats.

Every harness run that writes a JSONL results file can leave a sibling
``<out>.metrics.json`` behind (:func:`metrics_path` maps
``campaign.jsonl`` → ``campaign.metrics.json``).  The artifact is pure
provenance and accounting — the results file itself stays byte-identical
with telemetry on, off, or at any verbosity:

``manifest``
    Where and how the run executed: host, Python, effective cores, the
    harness plan (workers / chunk size / seed / total / share /
    resumed), the client kind, the job fingerprint, and
    whatever the workspace factory adds through
    :meth:`~repro.exec.harness.WorkspaceFactory.describe` (backend,
    batch plan, workload...).
``wall_seconds`` / ``telemetry``
    The run's wall time and the merged
    :class:`~repro.obs.core.Telemetry` snapshot — parent spans plus
    every worker delta folded in at shard commit.
``shards``
    One entry per executed shard: which worker ran it, its wall
    seconds, record count, and that shard's own telemetry delta —
    the raw material for ``repro stats``' per-shard and per-worker
    breakdowns.

Schema: :data:`repro.obs.schema.METRICS_SCHEMA`; rendering:
:mod:`repro.obs.stats`.
"""

from __future__ import annotations

import json
import os
import platform as _platform
import time

from repro.utils.atomic import write_atomic

#: Bumped when the metrics artifact shape changes incompatibly.
METRICS_VERSION = 1

#: Suffix replacing the results file's extension.
METRICS_SUFFIX = ".metrics.json"


def effective_cores() -> int:
    """CPUs this process may actually use (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def environment() -> dict:
    """The host half of a run manifest (shared with BENCH provenance)."""
    return {
        "host": _platform.node() or "unknown",
        "platform": _platform.platform(),
        "python": _platform.python_version(),
        "effective_cores": effective_cores(),
        "cpu_count": os.cpu_count() or 1,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def metrics_path(out: str | os.PathLike) -> str:
    """The metrics sibling of a results path: ``x.jsonl`` → ``x.metrics.json``."""
    base, _ = os.path.splitext(os.fspath(out))
    return base + METRICS_SUFFIX


def build_payload(manifest: dict, telemetry, shards: list[dict]) -> dict:
    """Assemble one metrics artifact from a finished run.

    *telemetry* is the run-level :class:`~repro.obs.core.Telemetry`
    (parent spans + merged worker deltas); ``wall_seconds`` is its
    ``run`` span when present so the artifact is self-consistent.
    """
    snapshot = telemetry.snapshot()
    run_span = snapshot.get("spans", {}).get("run", {})
    return {
        "type": "metrics",
        "version": METRICS_VERSION,
        "manifest": manifest,
        "wall_seconds": float(run_span.get("seconds", 0.0)),
        "telemetry": snapshot,
        "shards": shards,
    }


def write_metrics(path: str | os.PathLike, payload: dict) -> str:
    """Write *payload* as pretty JSON, atomically; return the path."""
    return write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_metrics(path: str | os.PathLike) -> dict:
    with open(os.fspath(path), encoding="utf-8") as handle:
        return json.load(handle)


def span_coverage(payload: dict, root: str = "run") -> float:
    """Fraction of *root*'s wall time accounted for by its direct children.

    The acceptance gate for the metrics artifact: named child spans
    (``run/execute``, ``run/resume``, ...) must explain ≥ 95% of the
    measured run — anything less means a phase is going untimed.
    """
    spans = payload.get("telemetry", {}).get("spans", {})
    total = spans.get(root, {}).get("seconds", 0.0)
    if total <= 0.0:
        return 1.0 if root in spans else 0.0
    prefix = root + "/"
    explained = sum(
        entry["seconds"]
        for path, entry in spans.items()
        if path.startswith(prefix) and "/" not in path[len(prefix):]
    )
    return explained / total


def per_worker(shards: list[dict]) -> dict[int, dict]:
    """Roll shard entries up by worker pid: shards, seconds, records."""
    workers: dict[int, dict] = {}
    for shard in shards:
        entry = workers.setdefault(
            shard.get("worker", -1),
            {"shards": 0, "seconds": 0.0, "records": 0},
        )
        entry["shards"] += 1
        entry["seconds"] += shard.get("seconds", 0.0)
        entry["records"] += shard.get("records", 0)
    return workers
