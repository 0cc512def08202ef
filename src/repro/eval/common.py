"""Shared infrastructure for the evaluation harnesses.

A workload's baseline is its one pristine recording in the process: the
Figure 6 sweep replays its block trace through many IHT configurations
instead of re-simulating, and Table 1 replays its fetch stream through
a fresh monitor per IHT size (:meth:`PristineRecording.cycles`).
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

from repro.cfg.hashgen import build_fht
from repro.cic.fht import FullHashTable
from repro.cic.hashes import get_hash
from repro.exec.golden import PristineRecording, pristine_recording
from repro.faults.campaign import CampaignContext
from repro.pipeline.funcsim import RunResult
from repro.workloads.suite import build, workload_inputs


def workload_recording(name: str, scale: str = "default") -> PristineRecording:
    """The workload's one pristine recording in the process."""
    return pristine_recording(
        CampaignContext(build(name, scale), inputs=workload_inputs(name, scale))
    )


@lru_cache(maxsize=None)
def baseline_run(name: str, scale: str = "default") -> RunResult:
    """The unmonitored run with its block trace, read off the workload's
    recording; its cycles replay the fetch stream with no monitor."""
    recording = workload_recording(name, scale)
    return replace(recording.run.result, cycles=recording.cycles())


@lru_cache(maxsize=None)
def workload_fht(name: str, scale: str = "default", hash_name: str = "xor") -> FullHashTable:
    return build_fht(build(name, scale), get_hash(hash_name))
