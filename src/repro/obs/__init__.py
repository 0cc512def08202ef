"""`repro.obs` — telemetry, structured logging, metrics, and profiling.

The observability subsystem the execution tier reports through, built on
one hard invariant: **telemetry is an execution-side observer** — result
artifacts (campaign/DSE JSONL, reports, coverage matrices) are
byte-identical with it enabled, disabled, or at any verbosity
(``tests/obs/test_neutrality.py`` pins this, in the same spirit as the
paper's CIC watching the fetch stream without steering it).

Modules
-------
:mod:`repro.obs.core`
    Process-local counters / gauges / histograms / monotonic spans, with
    the drain/merge protocol the harness uses to move worker telemetry
    across process boundaries at shard commit.
:mod:`repro.obs.log`
    The structured stderr logger behind every subcommand's
    ``-v``/``--quiet`` flags.
:mod:`repro.obs.metrics`
    Run manifests and the ``<out>.metrics.json`` artifact written beside
    every campaign/DSE results file.
:mod:`repro.obs.events`
    The live half: the append-only, crash-tolerant ``<out>.events.jsonl``
    stream the harness emits at the shard-commit seam, its reader, and
    the tail-following generator behind ``repro stats --follow``.
:mod:`repro.obs.stats`
    Rendering for ``repro stats``: span trees, counters, per-shard and
    per-worker tables, and the live follow view (``repro top``).
:mod:`repro.obs.trace`
    Chrome/Perfetto ``trace_event`` export of a run's event timeline and
    span tree (``repro stats --export-trace``).
:mod:`repro.obs.diff`
    Cross-run regression diffs over metrics/BENCH artifacts with a
    thresholded gate (``repro stats diff A B --gate pct``).
:mod:`repro.obs.schema`
    Dependency-free JSON-schema validation for metrics, event-log,
    trace, coverage, and ``BENCH_*.json`` artifacts.
:mod:`repro.obs.profiler`
    The opt-in fetch/decode/execute/monitor phase profiler for
    ``FuncSim``/``PipelineCPU``.
"""
