"""Gate the work, not the time: where the scoreboard still runs.

Nothing on a fault campaign's path reads cycles, so it issues no
instruction to :class:`FuncSim`'s scoreboard: not the pristine recording,
not the monitor overlays, not either functional kernel.  A DSE sweep
reads the unmonitored cycles of each workload once, by replaying the
scoreboard over the recording's fetch stream behind the cached
``baseline_run``.  These counts are exact, unlike wall-clock time, so a
change that puts timing back on a cycle-blind path fails here.
"""

from __future__ import annotations

from collections import OrderedDict

import pytest

from repro.dse.engine import DseSweep
from repro.dse.presets import PRESETS
from repro.eval.common import baseline_run
from repro.exec import CampaignRunner, CampaignSpec
from repro.exec import golden
from repro.pipeline.funcsim import _Scoreboard


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
