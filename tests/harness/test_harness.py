"""Generic-engine guarantees, tested against a toy client.

The campaign and DSE suites exercise the harness through the real
clients; these tests pin the engine's contract in isolation — with a
work item that is just an integer and a record that is just a pair — so
a regression in sharding, commit markers, resume validation, or the
hand-off of the parent's workspace to pool workers is attributable to
the harness itself.
"""

import json
import os
from dataclasses import dataclass

import pytest

from repro.attacks.corpus import AttackCorpus
from repro.dse import DseSweep, engine, get_preset
from repro.errors import ConfigurationError
from repro.exec import golden, spec as spec_module
from repro.exec.harness import (
    HarnessRunner,
    Job,
    MeasureCache,
    WorkspaceFactory,
    plan_windows,
    validate_plan,
)
from repro.exec.pool import pool_stats, shutdown_pools
from repro.exec.runner import CampaignRunner, Workspace
from repro.exec.spec import CampaignSpec
from repro.faults import campaign
from repro.obs import core as obs
from repro.obs.metrics import metrics_path

SEED = 9
ITEMS = list(range(23))  # chunk 5 -> shards of 5,5,5,5,3
CHUNK = 5


@dataclass(slots=True)
class ToyRecord:
    index: int
    shard: int
    value: int


@dataclass(slots=True)
class ToyFactory(WorkspaceFactory):
    """Squares its items plus the workspace's bias."""

    bias: int = 0

    record_type = "record"
    kind = "toy results"

    def build(self):
        return {"bias": self.bias}

    def run_item(self, workspace, index, shard, item):
        return ToyRecord(index, shard, item * item + workspace["bias"])

    def encode(self, record):
        return {
            "type": "record",
            "index": record.index,
            "shard": record.shard,
            "value": record.value,
        }

    def decode(self, data):
        return ToyRecord(data["index"], data["shard"], data["value"])


@dataclass(slots=True)
class WindowedToyFactory(ToyFactory):
    """Takes up to 12 items per task, each record stamped with its own
    shard."""

    window = 12

    def run_items(self, workspace, start, shard, items):
        return [
            self.run_item(workspace, index, index // CHUNK, item)
            for index, item in enumerate(items, start)
        ]


def make_job(chunk_size=CHUNK, seed=SEED, items=None):
    return Job(
        factory=ToyFactory(),
        items=list(ITEMS) if items is None else items,
        seed=seed,
        version=7,
        payload={"fingerprint": "toy-fingerprint"},
        chunk_size=chunk_size,
    )


def payloads(records):
    return [
        (record.index, record.shard, record.value)
        for record in sorted(records, key=lambda r: r.index)
    ]


@pytest.fixture
def fresh_pools():
    """An empty pool registry around the test: the pools it uses are
    built for it, and none it leaves behind serves a later test."""
    shutdown_pools()
    yield
    shutdown_pools()


class TestExecution:
    def test_serial_complete(self):
        result = HarnessRunner(make_job()).run()
        assert result.complete
        assert payloads(result.records) == [
            (i, i // CHUNK, i * i) for i in ITEMS
        ]

    def test_worker_count_invariant(self):
        serial = HarnessRunner(make_job()).run()
        pooled = HarnessRunner(make_job(), workers=4).run()
        assert payloads(pooled.records) == payloads(serial.records)

    def test_workers_run_the_parent_workspace(self, fresh_pools):
        # The supplied workspace differs from factory.build(): workers
        # that built their own would return the unbiased squares.
        def supplier():
            return {"bias": 100}

        serial = HarnessRunner(make_job(), workspace_supplier=supplier).run()
        pooled = HarnessRunner(
            make_job(), workers=2, workspace_supplier=supplier
        ).run()
        assert list(pool_stats().values()) == [1]
        assert payloads(pooled.records) == payloads(serial.records)
        assert payloads(serial.records) == [
            (i, i // CHUNK, i * i + 100) for i in ITEMS
        ]

    def test_ordered_is_index_sorted(self):
        result = HarnessRunner(make_job(), workers=4).run()
        assert [r.index for r in result.ordered()] == list(ITEMS)

    def test_workspace_supplier_wins(self):
        runner = HarnessRunner(
            make_job(), workspace_supplier=lambda: {"bias": 100}
        )
        assert payloads(runner.run().records) == [
            (i, i // CHUNK, i * i + 100) for i in ITEMS
        ]


class TestStreaming:
    def test_jsonl_layout(self, tmp_path):
        out = tmp_path / "toy.jsonl"
        HarnessRunner(make_job()).run(out=out)
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        header, body = lines[0], lines[1:]
        assert header["type"] == "header"
        assert header["version"] == 7
        assert header["fingerprint"] == "toy-fingerprint"
        assert header["total"] == len(ITEMS)
        assert header["chunk_size"] == CHUNK
        records = [entry for entry in body if entry["type"] == "record"]
        markers = [entry for entry in body if entry["type"] == "shard-done"]
        assert len(records) == len(ITEMS)
        assert len(markers) == 5
        # Every shard's records precede its marker.
        seen_markers: set[int] = set()
        for entry in body:
            if entry["type"] == "shard-done":
                seen_markers.add(entry["shard"])
            else:
                assert entry["shard"] not in seen_markers


class TestResume:
    def test_kill_resume_completes(self, tmp_path):
        out = tmp_path / "toy.jsonl"
        partial = HarnessRunner(make_job()).run(out=out, stop_after_shards=2)
        assert not partial.complete
        assert len(partial.records) == 2 * CHUNK
        resumed = HarnessRunner(make_job()).run(out=out, resume=True)
        assert resumed.complete
        assert payloads(resumed.records) == payloads(
            HarnessRunner(make_job()).run().records
        )

    def test_resume_refuses_each_identity_key(self, tmp_path):
        out = tmp_path / "toy.jsonl"
        HarnessRunner(make_job()).run(out=out, stop_after_shards=1)
        variants = {
            "seed": make_job(seed=SEED + 1),
            "chunk_size": make_job(chunk_size=CHUNK + 1),
            "total": make_job(items=list(range(5))),
        }
        for key, job in variants.items():
            with pytest.raises(ConfigurationError, match="cannot resume"):
                HarnessRunner(job).run(out=out, resume=True)

    def test_resume_refuses_foreign_file(self, tmp_path):
        out = tmp_path / "bogus.jsonl"
        out.write_text('{"type":"record"}\n')
        with pytest.raises(ConfigurationError, match="not a toy results file"):
            HarnessRunner(make_job()).run(out=out, resume=True)

    def test_resume_requires_out(self):
        with pytest.raises(ConfigurationError, match="requires out"):
            HarnessRunner(make_job()).run(resume=True)

    def test_empty_file_starts_fresh(self, tmp_path):
        out = tmp_path / "empty.jsonl"
        out.write_text("")
        result = HarnessRunner(make_job()).run(out=out, resume=True)
        assert result.complete

    def test_uncommitted_records_rerun(self, tmp_path):
        out = tmp_path / "torn.jsonl"
        HarnessRunner(make_job()).run(out=out, stop_after_shards=2)
        lines = out.read_text().splitlines()
        assert json.loads(lines[-1])["type"] == "shard-done"
        out.write_text("\n".join(lines[:-1]) + "\n")
        resumed = HarnessRunner(make_job()).run(out=out, resume=True)
        assert resumed.complete
        assert sorted(r.index for r in resumed.records) == list(ITEMS)


class TestValidation:
    def test_bad_workers_and_chunks(self):
        with pytest.raises(ConfigurationError):
            HarnessRunner(make_job(), workers=0)
        with pytest.raises(ConfigurationError):
            make_job(chunk_size=0)
        with pytest.raises(ConfigurationError):
            validate_plan(workers=1, chunk_size=-3)


class TestPlanWindows:
    """Windows: runs of consecutive whole shards, at least one each, no
    larger than the window or, on a pool, a worker's share."""

    def shards(self, *ids):
        plan = make_job().shards()  # shards of 5, 5, 5, 5, 3 items
        return [plan[shard_id] for shard_id in ids]

    def ids(self, windows):
        return [[task[0] for task in window] for window in windows]

    @pytest.mark.parametrize("window,workers,expected", [
        (None, 1, [[0], [1], [2], [3], [4]]),
        (4, 1, [[0], [1], [2], [3], [4]]),  # a shard above the window
        (10, 1, [[0, 1], [2, 3], [4]]),
        (100, 1, [[0, 1, 2, 3, 4]]),
        (100, 2, [[0, 1], [2, 3], [4]]),  # at most ceil(23 / 2) = 12
        (100, 5, [[0], [1], [2], [3], [4]]),
    ])
    def test_grouping(self, window, workers, expected):
        windows = plan_windows(self.shards(0, 1, 2, 3, 4), window, workers)
        assert self.ids(windows) == expected

    def test_a_committed_shard_splits_a_window(self):
        """Resume can leave gaps: a window never spans one."""
        windows = plan_windows(self.shards(0, 2, 3), 100, 1)
        assert self.ids(windows) == [[0], [2, 3]]

    def test_windowed_job_matches_one_shard_tasks(self, tmp_path):
        """A toy factory with a window writes the same file."""
        reference = tmp_path / "reference.jsonl"
        HarnessRunner(make_job()).run(out=reference)
        job = make_job()
        job.factory = WindowedToyFactory()
        out = tmp_path / "windowed.jsonl"
        HarnessRunner(job).run(out=out)
        assert out.read_bytes() == reference.read_bytes()


class TestMeasureCache:
    def test_builds_once(self):
        cache = MeasureCache()
        calls = []
        for _ in range(3):
            value = cache.get("key", lambda: calls.append(1) or 42)
        assert value == 42
        assert calls == [1]
        assert "key" in cache
        assert len(cache) == 1


def worker_counters(out) -> tuple[dict, set]:
    """Counters the pool workers reported in the shard telemetry of the
    run whose results file is *out*, summed, and the worker pids."""
    with open(metrics_path(out)) as handle:
        shards = json.load(handle)["shards"]
    counters: dict = {}
    for shard in shards:
        for name, value in (shard.get("telemetry") or {}).get(
            "counters", {}
        ).items():
            counters[name] = counters.get(name, 0) + value
    return counters, {shard["worker"] for shard in shards}


class TestWorkersInherit:
    """The real clients: pool workers run the parent's workspace and
    build, record, derive and generate nothing themselves."""

    @pytest.fixture
    def parent_only(self, monkeypatch, fresh_pools):
        """Make each set-up step count ``worker.<name>`` when it runs
        outside the parent.  The count rides the worker's shard telemetry
        back to the parent, so a call anywhere in a worker — its pool
        initializer included — fails the test rather than hanging it."""
        parent = os.getpid()

        def guard(owner, name):
            original = getattr(owner, name)

            def guarded(*args, **kwargs):
                if os.getpid() != parent:
                    obs.count(f"worker.{name}")
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, guarded)

        guard(Workspace, "build")
        guard(AttackCorpus, "build")
        guard(golden, "record_store")
        for module in (campaign, spec_module, engine):
            guard(module, "build_context")
        with obs.scoped(True):
            yield

    @staticmethod
    def assert_parent_only(out):
        counters, workers = worker_counters(out)
        assert workers - {os.getpid()}, "no shard ran in a pool worker"
        assert not [name for name in counters if name.startswith("worker.")]
        assert counters.get("golden.stores_recorded", 0) == 0

    def test_golden_campaign(self, parent_only, tmp_path):
        spec = CampaignSpec(workload="sha", scale="tiny", backend="golden")
        serial = CampaignRunner(spec, chunk_size=8)
        faults = serial.campaign.random_single_bit(32, seed=SEED)
        out = tmp_path / "campaign.jsonl"
        pooled = CampaignRunner(spec, workers=2, chunk_size=8).run(
            faults, seed=SEED, out=out
        )
        assert pooled.complete
        assert list(pool_stats().values()) == [1]
        self.assert_parent_only(out)
        assert pooled.report().summary() == serial.run(faults, seed=SEED).summary()

    def test_smoke_dse_sweep(self, parent_only, tmp_path):
        space = get_preset("smoke")
        out = tmp_path / "sweep.jsonl"
        pooled = DseSweep(space, seed=SEED, workers=2, chunk_size=2).run(out=out)
        assert pooled.complete
        assert list(pool_stats().values()) == [1]
        self.assert_parent_only(out)
        serial = DseSweep(space, seed=SEED, chunk_size=2).run()
        assert [point.to_json() for point in pooled.ordered()] == [
            point.to_json() for point in serial.ordered()
        ]
