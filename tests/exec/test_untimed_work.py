"""Gate the work, not the time: where the scoreboard still runs.

Nothing on a fault campaign's path reads cycles, so it issues no
instruction to the scoreboard (``replay_cycles``): not the pristine recording,
not the monitor overlays, not either functional kernel.  A DSE sweep
reads the unmonitored cycles of each workload once, by replaying the
scoreboard over the recording's fetch stream behind the cached
``baseline_run``, and Table 1 replays the same stream through a fresh
monitor per IHT size instead of simulating again.  These counts are
exact, unlike wall-clock time, so a change that puts timing back on a
cycle-blind path, or a simulation back under Table 1, fails here.  So
does a campaign whose golden kernel replays the pristine prefix once per
shard again instead of once per window.
"""

from __future__ import annotations

from collections import OrderedDict

import pytest

from repro.dse.engine import DseSweep
from repro.dse.presets import PRESETS
from repro.eval.common import baseline_run, workload_recording
from repro.eval.table1_cycles import run_table1
from repro.exec import CampaignRunner, CampaignSpec
from repro.exec import golden
from repro.exec.harness import DEFAULT_CHUNK_SIZE
from repro.obs import core as obs
from repro.pipeline.funcsim import FuncSim, _Scoreboard
from repro.workloads.suite import WORKLOAD_NAMES


@pytest.fixture
def issued(monkeypatch):
    """Scoreboard issues from here on, in a process that has recorded
    nothing yet."""
    monkeypatch.setattr(golden, "_RECORDINGS", OrderedDict())
    baseline_run.cache_clear()
    calls = [0]
    original = _Scoreboard.issue

    def issue(self, *args, **kwargs):
        calls[0] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(_Scoreboard, "issue", issue)
    yield calls
    baseline_run.cache_clear()


@pytest.mark.parametrize("backend", ["golden", "full"])
def test_campaign_issues_nothing(issued, backend):
    spec = CampaignSpec(workload="sha", scale="tiny", backend=backend)
    runner = CampaignRunner(spec, workers=1)
    faults = runner.campaign.random_single_bit(48, seed=7)
    result = runner.run(faults, seed=7)
    assert len(result.records) == 48
    assert issued[0] == 0


def test_dse_sweep_issues_one_stream_per_workload(issued):
    space = PRESETS["smoke"]
    points = DseSweep(space, seed=42, workers=1).run().points
    assert points
    issues = issued[0]
    streams = sum(
        CampaignSpec(workload=name, scale=space.scale)
        .build_context()
        .golden_instructions
        for name in space.workloads
    )
    assert issues == streams


def test_table1_simulates_nothing_once_recorded(issued, monkeypatch):
    for name in WORKLOAD_NAMES:
        workload_recording(name, "tiny")
    built = [0]
    original = FuncSim.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(FuncSim, "__init__", counting)
    assert len(run_table1(scale="tiny").rows) == len(WORKLOAD_NAMES)
    assert built[0] == 0


#: Pristine instructions the golden advancer replays per forked fault at
#: the default plan, for sha-tiny's 512 faults of seed 7: 2.08 when a
#: 256-fault window is one kernel call, 17.7 when each shard is one.
PREFIX_PER_FAULT_BOUND = 2.5


def prefix_replayed_per_fault(batch_size: int | None) -> float:
    spec = CampaignSpec(workload="sha", scale="tiny", backend="golden")
    with obs.scoped(True):
        runner = CampaignRunner(spec, workers=1, batch_size=batch_size)
        faults = runner.campaign.random_single_bit(512, seed=7)
        counters = runner.run(faults, seed=7).telemetry["counters"]
    return counters["golden.batch.prefix_replayed"] / counters["golden.batch.fork"]


def test_window_replays_the_prefix_once():
    windowed = prefix_replayed_per_fault(None)
    assert windowed <= PREFIX_PER_FAULT_BOUND
    assert windowed < prefix_replayed_per_fault(DEFAULT_CHUNK_SIZE)
