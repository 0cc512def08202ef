"""Campaign-engine scaling: faults/second per backend × worker count.

Runs the same seeded 200-fault single-bit campaign against ``sha-tiny`` on
every registered execution backend (``full`` re-simulates every injection
from instruction zero; ``golden`` forks the recorded golden run at the
nearest checkpoint before the fault; ``pipeline-golden`` does the same on
the cycle-level pipeline) at 1, 2, and 4 workers, records the throughput
table inside ``results/BENCH_bench_campaign_scaling.json`` (one
schema-checked artifact per benchmark — no stray ``.txt`` sibling), and
asserts the engine's guarantees:

* aggregate statistics are byte-identical across backends, worker
  counts, *and* batch plans (outcomes are architectural);
* the golden backend is at least 3× faster than full at 1 worker;
* batched replay (``run_batch_golden`` sharing the pristine prefix
  across a shard) beats per-fault dispatch by ≥ 1.3× at 1 worker — the
  single-core win, asserted on every host;
* on hosts with ≥ 4 effective cores, 4 workers deliver ≥ 2× the
  1-worker throughput for the golden backends and throughput never
  inverts as workers are added.  On smaller hosts that assertion is
  **skipped** — visibly, not trivially passed — because a 1-core
  container genuinely cannot scale onto cores it does not have (the
  pre-pool version of this file recorded exactly such an inversion and
  the recorded ``cores: 1`` went unnoticed).

Measurements are steady-state: every cell warms up first (workspace
recording, warm-pool spin-up — one-time costs the persistent pools of
:mod:`repro.exec.pool` amortize across a process's campaigns), then
times a full campaign on the warm engine.  ``docs/PERFORMANCE.md``
explains the model behind these numbers.
"""

import os
import time

import pytest

from repro.exec import BACKENDS, CampaignRunner, CampaignSpec
from repro.exec.pool import shutdown_pools
from repro.utils.tables import TextTable

WORKLOAD = "sha"
SCALE = "tiny"
FAULT_COUNT = 200
SEED = 42
WORKER_COUNTS = (1, 2, 4)
MAX_WORKERS = WORKER_COUNTS[-1]

#: Enforced single-worker advantage of golden over full (measured ~16×).
GOLDEN_MIN_SPEEDUP = 3.0
#: Enforced advantage of whole-shard batched replay over per-fault
#: dispatch at 1 worker on the golden backend (measured ~2-4×).
BATCH_MIN_SPEEDUP = 1.3
#: Enforced 4-worker speedup on hosts with the cores to scale onto.
SCALING_MIN_SPEEDUP = 2.0
#: Monotonicity tolerance: adding workers may cost at most 5% (noise).
NOISE = 0.95


def effective_cores() -> int:
    """Cores this process may actually run on — honest, affinity-aware."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _spec(backend: str) -> CampaignSpec:
    return CampaignSpec(
        workload=WORKLOAD, scale=SCALE, iht_size=8, backend=backend
    )


def _time_campaign(spec, faults, workers, batch_size=None):
    """Steady-state faults/s: warm up the engine, then time one campaign."""
    runner = CampaignRunner(spec, workers=workers, batch_size=batch_size)
    warmup = runner.run(faults, seed=SEED)
    start = time.perf_counter()
    result = runner.run(faults, seed=SEED)
    elapsed = time.perf_counter() - start
    assert result.summary() == warmup.summary()
    return result, FAULT_COUNT / elapsed


@pytest.fixture(scope="module")
def measurements():
    """One shared measurement pass: every (backend × workers) cell plus
    the per-fault (batch-of-1) single-worker cells, and its seconds."""
    started = time.perf_counter()
    shutdown_pools()
    faults = None
    summaries = []
    throughputs: dict[str, dict[int, float]] = {}
    unbatched: dict[str, float] = {}
    for backend in BACKENDS:
        spec = _spec(backend)
        if faults is None:
            faults = CampaignRunner(spec).campaign.random_single_bit(
                FAULT_COUNT, seed=SEED
            )
        throughputs[backend] = {}
        for workers in WORKER_COUNTS:
            result, throughput = _time_campaign(spec, faults, workers)
            summaries.append(result.summary())
            throughputs[backend][workers] = throughput
        result, throughput = _time_campaign(spec, faults, 1, batch_size=1)
        summaries.append(result.summary())
        unbatched[backend] = throughput
    shutdown_pools()
    return {
        "throughputs": throughputs,
        "unbatched": unbatched,
        "summaries": summaries,
        "seconds": time.perf_counter() - started,
    }


def test_campaign_scaling(measurements, record_bench):
    cores = effective_cores()
    throughputs = measurements["throughputs"]
    unbatched = measurements["unbatched"]
    table = TextTable(
        ["backend", "workers", "batch", "faults/s", "speedup"],
        title=(
            f"Campaign scaling — {WORKLOAD}-{SCALE}, {FAULT_COUNT} "
            f"single-bit faults, seed {SEED} ({cores} effective cores; "
            "steady-state warm pools; speedup vs full @ 1 worker)"
        ),
    )
    baseline = throughputs["full"][1]
    for backend in BACKENDS:
        table.add_row(
            [
                backend,
                1,
                "per-fault",
                f"{unbatched[backend]:.1f}",
                f"{unbatched[backend] / baseline:.2f}x",
            ]
        )
        for workers in WORKER_COUNTS:
            value = throughputs[backend][workers]
            table.add_row(
                [backend, workers, "shard", f"{value:.1f}",
                 f"{value / baseline:.2f}x"]
            )
    # The rendered table rides inside the BENCH record (one artifact per
    # benchmark, schema-checked) instead of a stray results/*.txt sibling.
    record_bench(
        # The measurement pass runs in the module fixture, not here.
        seconds=round(measurements["seconds"], 4),
        table=table.render().splitlines(),
        cores=os.cpu_count() or 1,
        effective_cores=cores,
        faults=FAULT_COUNT,
        faults_per_second={
            backend: {
                str(workers): round(value, 2)
                for workers, value in per_backend.items()
            }
            for backend, per_backend in throughputs.items()
        },
        per_fault_dispatch_1w={
            backend: round(value, 2) for backend, value in unbatched.items()
        },
        golden_speedup_1w=round(
            throughputs["golden"][1] / throughputs["full"][1], 2
        ),
        golden_batch_speedup_1w=round(
            throughputs["golden"][1] / unbatched["golden"], 2
        ),
        summary=measurements["summaries"][0],
    )

    # Core guarantee: neither worker count, backend, nor batch plan
    # changes a campaign's statistics.
    assert len(set(measurements["summaries"])) == 1, measurements["summaries"]
    # The checkpointed backend must actually pay off, everywhere.
    assert (
        throughputs["golden"][1] >= GOLDEN_MIN_SPEEDUP * unbatched["full"]
    ), throughputs
    # Batched fork-at-checkpoint replay must beat per-fault dispatch at a
    # single worker — the host-independent half of the scaling story.
    assert (
        throughputs["golden"][1] >= BATCH_MIN_SPEEDUP * unbatched["golden"]
    ), (throughputs["golden"][1], unbatched["golden"])


def test_scaling_gate(measurements, record_bench):
    """4 workers ≥ 2 × 1 worker, and no inversion anywhere — on hosts
    with the cores to scale onto.  Skipped (never trivially passed) on
    smaller hosts, with the honest core count in the skip reason."""
    cores = effective_cores()
    record_bench(effective_cores=cores, gate_enforced=cores >= MAX_WORKERS)
    if cores < MAX_WORKERS:
        pytest.skip(
            f"scaling gate needs >= {MAX_WORKERS} effective cores, host has "
            f"{cores}: a single campaign cannot scale onto cores that do "
            "not exist (throughputs recorded for inspection regardless)"
        )
    throughputs = measurements["throughputs"]
    for backend in ("golden", "pipeline-golden"):
        per_worker = throughputs[backend]
        assert per_worker[MAX_WORKERS] >= (
            SCALING_MIN_SPEEDUP * per_worker[1]
        ), (backend, per_worker)
    for backend in BACKENDS:
        per_worker = throughputs[backend]
        for lower, higher in zip(WORKER_COUNTS, WORKER_COUNTS[1:]):
            assert per_worker[higher] >= NOISE * per_worker[lower], (
                backend,
                per_worker,
            )


def test_two_worker_micro_scaling(record_bench):
    """The ``make scaling-smoke`` cell: a small golden campaign at 1 vs 2
    workers on warm pools.  Statistics must match everywhere; the
    throughput ratio is asserted only when a second core exists."""
    cores = effective_cores()
    shutdown_pools()
    spec = _spec("golden")
    faults = CampaignRunner(spec).campaign.random_single_bit(96, seed=SEED)
    results = {}
    ratios = {}
    for workers in (1, 2):
        runner = CampaignRunner(spec, workers=workers)
        warmup = runner.run(faults, seed=SEED)
        start = time.perf_counter()
        result = runner.run(faults, seed=SEED)
        ratios[workers] = len(faults) / (time.perf_counter() - start)
        results[workers] = result.summary()
        assert result.summary() == warmup.summary()
    shutdown_pools()
    record_bench(
        effective_cores=cores,
        micro_faults_per_second={
            str(workers): round(value, 2) for workers, value in ratios.items()
        },
    )
    assert results[1] == results[2]
    if cores >= 2:
        assert ratios[2] >= NOISE * ratios[1], ratios
