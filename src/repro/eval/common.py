"""Shared infrastructure for the evaluation harnesses.

Workload traces and baseline runs are cached per (workload, scale): the
Figure 6 sweep replays one recorded trace through many IHT configurations
instead of re-simulating, and Table 1 reuses the same baseline cycles.
"""

from __future__ import annotations

from functools import lru_cache

from repro.cfg.hashgen import build_fht
from repro.cic.fht import FullHashTable
from repro.cic.hashes import get_hash
from repro.osmodel.loader import load_process
from repro.pipeline.funcsim import FuncSim, RunResult, run_program
from repro.workloads.suite import build, workload_inputs


@lru_cache(maxsize=None)
def baseline_run(name: str, scale: str = "default") -> RunResult:
    """Unmonitored run with the block trace collected.

    Uses the same trace-capture path (`run_program(collect_trace=True)`)
    as the campaign engine's golden runs, so Figure-6 replay and the
    campaign backends consume one definition of the recorded trace.
    """
    program = build(name, scale)
    return run_program(
        program, collect_trace=True, inputs=workload_inputs(name, scale)
    )


@lru_cache(maxsize=None)
def workload_fht(name: str, scale: str = "default", hash_name: str = "xor") -> FullHashTable:
    return build_fht(build(name, scale), get_hash(hash_name))


@lru_cache(maxsize=None)
def monitored_run(
    name: str,
    iht_size: int,
    scale: str = "default",
    hash_name: str = "xor",
    policy_name: str = "lru_half",
    miss_penalty: int = 100,
) -> RunResult:
    """Monitored run on the functional ISS (cross-checked vs the pipeline
    by the integration tests)."""
    program = build(name, scale)
    process = load_process(
        program,
        iht_size=iht_size,
        hash_name=hash_name,
        policy_name=policy_name,
        miss_penalty=miss_penalty,
    )
    simulator = FuncSim(
        program, monitor=process.monitor, inputs=workload_inputs(name, scale)
    )
    return simulator.run()
