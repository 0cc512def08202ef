"""Design-space-explorer benchmark: throughput and frontier stability.

Sweeps the ``paper`` preset — 48 monitor configurations (4 hashes × 6 IHT
sizes × 2 LRU variants) scored on three workloads against the full attack
corpus — on the golden backend, and pins:

* the sweep completes and its Pareto frontier is non-trivial (≥ 2
  non-dominated points over area vs detection latency vs miss rate);
* the frontier is *stable*: a re-sweep under the same seed with a
  different worker count reproduces byte-identical point records;
* a 4-worker sweep's workers run on the parent's workspace: the parent
  records each workload once and no worker records one;
* the golden backend beats the full-replay backend on the detection
  objectives (the whole reason the sweep is affordable).

Throughput tables land in ``results/`` next to the other paper artifacts.
"""

import json
import os
import pathlib
import time
from collections import OrderedDict

from repro.dse import ConfigSpace, DseSweep, get_preset
from repro.exec import golden
from repro.exec.pool import shutdown_pools
from repro.obs.metrics import metrics_path

SEED = 42


def test_dse_paper_sweep(save_result, record_bench):
    space = get_preset("paper")
    assert space.size >= 48
    assert len(space.workloads) >= 3

    start = time.perf_counter()
    result = DseSweep(space, seed=SEED, workers=2).run()
    elapsed = time.perf_counter() - start
    assert result.complete

    report = result.report()  # area_overhead x detection_latency x miss_rate
    assert len(report.frontier) >= 2
    save_result(
        "dse_paper",
        result.table().render() + "\n\n" + report.table().render(),
    )
    record_bench(
        configurations=result.total,
        workloads=list(space.workloads),
        seconds_sweep=round(elapsed, 4),
        points_per_second=round(result.total / elapsed, 2),
        frontier=[point.config.config_id for point in report.ranked()],
    )

    # Stability: same seed, different worker count — identical records,
    # identical frontier.
    again = DseSweep(space, seed=SEED, workers=4).run()
    assert [point.to_json() for point in again.ordered()] == [
        point.to_json() for point in result.ordered()
    ]
    assert [point.index for point in again.frontier()] == [
        point.index for point in result.frontier()
    ]

    # The frontier spans the trade-off: it is not one configuration
    # repeated, and its extremes disagree on area vs miss rate.
    frontier = report.ranked()
    areas = [point.objectives["area_overhead"] for point in frontier]
    rates = [point.objectives["miss_rate"] for point in frontier]
    assert min(areas) < max(areas)
    assert min(rates) < max(rates)


def test_dse_workers_inherit_the_recordings(record_bench, tmp_path, monkeypatch):
    """A 4-worker sweep runs on the parent's workspace: its points equal
    a 1-worker sweep's, point for point, and its metrics show each
    workload recorded once, by the parent, and no recording in any
    worker's shard telemetry — the forked workers inherit the
    recordings, contexts and adversary corpora."""
    space = ConfigSpace(
        hash_names=("xor", "crc32"),
        iht_sizes=(4, 8, 16),
        workloads=("sha", "dijkstra", "bitcount"),
        scale="tiny",
        per_class=4,
    )
    # A fresh recording memo and a fresh pool, so this sweep records.
    monkeypatch.setattr(golden, "_RECORDINGS", OrderedDict())
    shutdown_pools()
    out = tmp_path / "sweep.jsonl"
    start = time.perf_counter()
    pooled = DseSweep(space, seed=SEED, workers=4, chunk_size=1).run(out=out)
    seconds = time.perf_counter() - start
    assert pooled.complete
    serial = DseSweep(space, seed=SEED, chunk_size=1).run()
    assert [point.to_json() for point in pooled.ordered()] == [
        point.to_json() for point in serial.ordered()
    ]

    metrics = json.loads(pathlib.Path(metrics_path(out)).read_text())
    counters = metrics["telemetry"]["counters"]
    recorded = counters.get("golden.stores_recorded", 0)
    workers = {shard["worker"] for shard in metrics["shards"]}
    in_workers = sum(
        (shard.get("telemetry") or {})
        .get("counters", {})
        .get("golden.stores_recorded", 0)
        for shard in metrics["shards"]
    )
    record_bench(
        configurations=pooled.total,
        workers=4,
        worker_processes=len(workers),
        recordings=recorded,
        recordings_in_workers=in_workers,
        seconds=round(seconds, 4),
    )
    # A serial sweep would pass the two recording checks too: pin that
    # the shards ran on a pool the sweep built.
    assert counters.get("pool.build", 0) == 1
    assert os.getpid() not in workers
    assert recorded == len(space.workloads)
    assert in_workers == 0


def test_dse_golden_backend_speedup(record_bench):
    subset = ConfigSpace(
        hash_names=("xor",),
        iht_sizes=(4, 8),
        workloads=("sha",),
        scale="tiny",
        per_class=6,
    )
    timings = {}
    points = {}
    for backend in ("golden", "full"):
        start = time.perf_counter()
        result = DseSweep(subset, seed=SEED, backend=backend).run()
        timings[backend] = time.perf_counter() - start
        points[backend] = [point.to_json() for point in result.ordered()]
    assert points["golden"] == points["full"]
    speedup = timings["full"] / timings["golden"]
    record_bench(
        seconds_golden=round(timings["golden"], 4),
        seconds_full=round(timings["full"], 4),
        golden_speedup=round(speedup, 2),
    )
    # The checkpointed backend must clearly beat full replay (measured
    # ~6x here; 2x leaves headroom for loaded CI machines).
    assert speedup >= 2.0
