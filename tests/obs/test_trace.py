"""Chrome/Perfetto trace export: ``repro stats --export-trace``.

Pins the document contract: schema-valid ``trace_event`` JSON, one
``X`` slice per committed shard on the real timeline (pid 1), the
synthetic span-tree track on pid 2, graceful degradation when only one
of the two source artifacts exists, and a loud
:class:`~repro.errors.ConfigurationError` when neither does.
"""

import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.exec import CampaignRunner, CampaignSpec
from repro.exec.pool import shutdown_pools
from repro.obs import core as obs
from repro.obs.events import events_path, read_events
from repro.obs.metrics import metrics_path
from repro.obs.schema import validate_trace
from repro.obs.trace import build_trace, collect_sources, export_trace

SOURCE = """
main:   li $t0, 4
        li $s0, 0
loop:   addu $s0, $s0, $t0
        addi $t0, $t0, -1
        bgtz $t0, loop
        li $v0, 10
        syscall
"""


@pytest.fixture(autouse=True)
def fresh_pools():
    shutdown_pools()
    yield
    shutdown_pools()


@pytest.fixture()
def finished_run(tmp_path):
    """A tiny finished campaign with both observability siblings."""
    out = tmp_path / "camp.jsonl"
    with obs.scoped(True):
        runner = CampaignRunner(
            CampaignSpec(
                source=SOURCE, name="trace-test", iht_size=4, backend="golden"
            ),
            chunk_size=4,
        )
        faults = runner.campaign.random_single_bit(12, seed=3)
        runner.run(faults, seed=3, out=out)
    assert os.path.exists(metrics_path(out))
    assert os.path.exists(events_path(out))
    return out


def slices(trace, category):
    return [
        event for event in trace["traceEvents"]
        if event["ph"] == "X" and event.get("cat") == category
    ]


class TestExport:
    def test_written_document_is_schema_valid(self, finished_run, tmp_path):
        target = tmp_path / "run.trace.json"
        export_trace(finished_run, target)
        with open(target, encoding="utf-8") as handle:
            trace = json.load(handle)
        assert validate_trace(trace) == []
        assert trace["displayTimeUnit"] == "ms"
        assert "repro stats --export-trace" in str(trace["otherData"])

    def test_one_slice_per_committed_shard(self, finished_run, tmp_path):
        trace = export_trace(finished_run, tmp_path / "t.json")
        committed = [
            event
            for event in read_events(events_path(finished_run))
            if event["type"] == "shard-committed"
        ]
        shard_slices = slices(trace, "shard")
        assert len(shard_slices) == len(committed) == 3
        assert all(event["pid"] == 1 for event in shard_slices)
        assert all(event["ts"] >= 0 for event in trace["traceEvents"])

    def test_lifecycle_instants_and_counters(self, finished_run, tmp_path):
        trace = export_trace(finished_run, tmp_path / "t.json")
        instants = {
            event["name"]
            for event in trace["traceEvents"]
            if event["ph"] == "i"
        }
        assert {"run-started", "run-finished"} <= instants
        counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
        assert any(e["name"] == "throughput" for e in counters)

    def test_span_track_is_marked_synthetic(self, finished_run, tmp_path):
        trace = export_trace(finished_run, tmp_path / "t.json")
        span_slices = slices(trace, "span")
        assert span_slices
        assert all(event["pid"] == 2 for event in span_slices)
        assert all(
            event["args"]["synthetic_layout"] for event in span_slices
        )
        names = {
            event["args"]["name"]
            for event in trace["traceEvents"]
            if event["ph"] == "M" and event["pid"] == 2
        }
        assert any("synthetic" in name for name in names)

    def test_events_only_still_exports(self, finished_run, tmp_path):
        os.remove(metrics_path(finished_run))
        trace = export_trace(finished_run, tmp_path / "t.json")
        assert validate_trace(trace) == []
        assert slices(trace, "shard")
        assert not slices(trace, "span")

    def test_metrics_only_still_exports(self, finished_run, tmp_path):
        os.remove(events_path(finished_run))
        trace = export_trace(finished_run, tmp_path / "t.json")
        assert validate_trace(trace) == []
        assert slices(trace, "span")
        assert not slices(trace, "shard")

    def test_no_sources_raises(self, tmp_path):
        bare = tmp_path / "bare.jsonl"
        bare.write_text("")
        with pytest.raises(ConfigurationError):
            export_trace(bare, tmp_path / "t.json")


def tracks(trace) -> dict[int, list[dict]]:
    """Shard slices by worker track, in time order."""
    by_worker: dict[int, list[dict]] = {}
    for event in sorted(slices(trace, "shard"), key=lambda event: event["ts"]):
        by_worker.setdefault(event["tid"], []).append(event)
    return by_worker


class TestWindowedTimeline:
    """A window's shards commit together, each with its share of the
    window's time; on the worker's track they lie end to end."""

    def test_a_windows_slices_are_disjoint(self, tmp_path):
        out = tmp_path / "window.jsonl"
        with obs.scoped(True):
            runner = CampaignRunner(
                CampaignSpec(workload="bitcount", scale="tiny", backend="golden")
            )
            faults = runner.campaign.random_single_bit(48, seed=7)
            runner.run(faults, seed=7, out=out)
        committed = [
            event
            for event in read_events(events_path(out))
            if event["type"] == "shard-committed"
        ]
        assert len(committed) == 3  # one window of three 16-fault shards
        trace = export_trace(out, tmp_path / "t.json")
        for track in tracks(trace).values():
            for before, after in zip(track, track[1:]):
                assert before["ts"] + before["dur"] <= after["ts"] + 1e-6
        assert sum(event["dur"] for event in slices(trace, "shard")) == (
            pytest.approx(sum(event["seconds"] for event in committed) * 1e6)
        )

    def test_sequential_slices_end_at_their_commits(self):
        def committed(shard, t, seconds):
            return {
                "type": "shard-committed", "t": t, "shard": shard,
                "seconds": seconds, "worker": 5,
            }

        events = [
            {"type": "run-started", "t": 10.0},
            committed(0, 10.5, 0.25),
            committed(1, 11.0, 0.5),
        ]
        (track,) = tracks(build_trace(metrics=None, events=events)).values()
        assert [(event["ts"], event["dur"]) for event in track] == [
            (0.25e6, 0.25e6), (0.5e6, 0.5e6)
        ]


class TestSources:
    def test_collect_resolves_any_sibling(self, finished_run, tmp_path):
        for name in (
            finished_run,
            metrics_path(finished_run),
            events_path(finished_run),
        ):
            metrics, events = collect_sources(name)
            assert metrics is not None
            assert events is not None

    def test_build_trace_empty_sources(self):
        trace = build_trace(metrics=None, events=None)
        assert trace["traceEvents"] == []
        assert validate_trace(trace) == []


class TestCli:
    def test_export_flag(self, finished_run, tmp_path):
        from repro.cli import main

        target = tmp_path / "run.trace.json"
        assert main(
            ["stats", str(finished_run), "--export-trace", str(target)]
        ) == 0
        with open(target, encoding="utf-8") as handle:
            assert validate_trace(json.load(handle)) == []

    def test_export_without_sources_fails(self, tmp_path):
        from repro.cli import main

        bare = tmp_path / "bare.jsonl"
        bare.write_text("")
        assert main(
            ["stats", str(bare), "--export-trace", str(tmp_path / "t.json")]
        ) == 1
