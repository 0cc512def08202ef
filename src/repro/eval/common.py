"""Shared infrastructure for the evaluation harnesses.

A workload's baseline is its one pristine recording in the process: the
Figure 6 sweep replays its block trace through many IHT configurations
instead of re-simulating, and Table 1 reuses the same baseline cycles.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

from repro.cfg.hashgen import build_fht
from repro.cic.fht import FullHashTable
from repro.cic.hashes import get_hash
from repro.exec.golden import pristine_recording
from repro.faults.campaign import CampaignContext
from repro.osmodel.loader import load_process
from repro.pipeline.funcsim import FuncSim, RunResult
from repro.workloads.suite import build, workload_inputs


@lru_cache(maxsize=None)
def baseline_run(name: str, scale: str = "default") -> RunResult:
    """The unmonitored run with its block trace, read off the workload's
    recording; its cycles replay the fetch stream with no monitor."""
    recording = pristine_recording(
        CampaignContext(build(name, scale), inputs=workload_inputs(name, scale))
    )
    return replace(
        recording.store.result,
        cycles=recording.unmonitored_cycles(),
        monitor_stats=None,
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
