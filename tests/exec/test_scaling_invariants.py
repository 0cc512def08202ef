"""Scaling invariance: worker count, batch plan, and pool reuse are
execution knobs — they must never change a single byte of the results.

The persistent warm pools (:mod:`repro.exec.pool`) and the batched
replay kernels (``run_batch_golden`` / ``run_batch_pipeline_golden``)
exist purely for throughput.  This tier pins the property that makes
them safe to enable by default:

* 1, 2, and 4 workers produce identical sorted JSONL records;
* batch-of-1, batch-of-5, and whole-shard batches produce identical
  sorted JSONL records (campaign *and* DSE jobs, all three backends);
* a reused warm pool produces the same records as a cold one;
* a campaign killed mid-run resumes correctly under a *different*
  batch plan — the ``shard-done`` commit protocol is batch-safe.

``make scaling-smoke`` runs this file in CI.
"""

import json

import pytest

from repro.exec import CampaignRunner, CampaignSpec
from repro.exec.pool import pool_stats, shutdown_pools

#: Small but branchy: exercises detection, hang, and SDC paths while
#: keeping the pipeline-golden cells fast enough for CI.
SOURCE = """
main:   li $t0, 6
        li $s0, 0
loop:   addu $s0, $s0, $t0
        addi $t0, $t0, -1
        bgtz $t0, loop
        move $a0, $s0
        li $v0, 1
        syscall
        li $v0, 10
        syscall
"""

SEED = 42
FAULT_COUNT = 24
CHUNK = 6  # 24 faults -> 4 shards
BACKENDS = ("full", "golden", "pipeline-golden")


def jsonl_records(path):
    """The record lines of a results file, sorted by fault index."""
    with open(path, encoding="utf-8") as handle:
        entries = [json.loads(line) for line in handle]
    records = [entry for entry in entries if entry["type"] == "record"]
    return sorted(records, key=lambda entry: entry["index"])


@pytest.fixture(scope="module", params=BACKENDS)
def rig(request, tmp_path_factory):
    """(spec, faults, reference JSONL records) for one backend."""
    spec = CampaignSpec(
        source=SOURCE, name="scaling-test", iht_size=4, backend=request.param
    )
    runner = CampaignRunner(spec, workers=1, chunk_size=CHUNK, batch_size=1)
    faults = runner.campaign.random_single_bit(FAULT_COUNT, seed=SEED)
    out = tmp_path_factory.mktemp("ref") / f"{request.param}.jsonl"
    result = runner.run(faults, seed=SEED, out=out)
    assert result.complete
    return spec, faults, jsonl_records(out)


class TestWorkerCountInvariance:
    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_identical_sorted_records(self, rig, workers, tmp_path):
        spec, faults, reference = rig
        out = tmp_path / f"w{workers}.jsonl"
        result = CampaignRunner(spec, workers=workers, chunk_size=CHUNK).run(
            faults, seed=SEED, out=out
        )
        assert result.complete
        assert jsonl_records(out) == reference


class TestBatchSizeInvariance:
    @pytest.mark.parametrize("batch_size", (1, 5, None))
    @pytest.mark.parametrize("workers", (1, 2))
    def test_identical_sorted_records(self, rig, workers, batch_size, tmp_path):
        spec, faults, reference = rig
        out = tmp_path / f"w{workers}-b{batch_size}.jsonl"
        result = CampaignRunner(
            spec, workers=workers, chunk_size=CHUNK, batch_size=batch_size
        ).run(faults, seed=SEED, out=out)
        assert result.complete
        assert jsonl_records(out) == reference

    def test_batched_dispatch_matches_per_item_kernel(self, rig):
        """The shard-level batch path equals running the backend's
        kernel on batches of one — the per-item reference the batched
        kernels are allowed to optimize but never to change."""
        spec, faults, reference = rig
        runner = CampaignRunner(spec, workers=1, chunk_size=CHUNK)
        workspace = runner.workspace
        per_item = [workspace.run_batch([fault])[0] for fault in faults]
        batched = workspace.run_batch(list(faults))
        for single, batch in zip(per_item, batched):
            assert (single.outcome, single.detail, single.latency) == (
                batch.outcome,
                batch.detail,
                batch.latency,
            )
        assert [entry["outcome"] for entry in reference] == [
            result.outcome.value for result in per_item
        ]


class TestPoolReuse:
    def test_reused_pool_records_identical(self, rig, tmp_path):
        """The second run on a warm pool reuses live workers (the run
        counter proves it) and produces byte-identical records."""
        spec, faults, reference = rig
        shutdown_pools()
        runner = CampaignRunner(spec, workers=2, chunk_size=CHUNK)
        first = tmp_path / "cold.jsonl"
        second = tmp_path / "warm.jsonl"
        runner.run(faults, seed=SEED, out=first)
        assert 1 in pool_stats().values()
        runner.run(faults, seed=SEED, out=second)
        assert 2 in pool_stats().values()
        assert jsonl_records(first) == jsonl_records(second) == reference


class TestKillResumeMidBatch:
    def test_resume_under_a_different_batch_plan(self, rig, tmp_path):
        """Kill after two shards dispatched as whole-shard batches, resume
        with batch-of-2 on two workers: the ``shard-done`` markers commit
        whole shards regardless of how the shard was batched, so the
        resumed file is identical to an uninterrupted run."""
        spec, faults, reference = rig
        out = tmp_path / "killed.jsonl"
        partial = CampaignRunner(
            spec, workers=1, chunk_size=CHUNK, batch_size=None
        ).run(faults, seed=SEED, out=out, stop_after_shards=2)
        assert not partial.complete
        assert len(partial.records) == 2 * CHUNK
        resumed = CampaignRunner(
            spec, workers=2, chunk_size=CHUNK, batch_size=2
        ).run(faults, seed=SEED, out=out, resume=True)
        assert resumed.complete
        assert jsonl_records(out) == reference

    def test_torn_batch_reruns_whole_shard(self, rig, tmp_path):
        """Tear off a shard's commit marker (simulating a kill mid-write
        of a batch's aggregated records): resume re-runs that shard, the
        orphan lines collapse under the loader's last-copy-wins rule, and
        the deduplicated records still match the reference."""
        spec, faults, reference = rig
        out = tmp_path / "torn.jsonl"
        CampaignRunner(spec, workers=1, chunk_size=CHUNK).run(
            faults, seed=SEED, out=out, stop_after_shards=2
        )
        lines = out.read_text().splitlines()
        assert json.loads(lines[-1])["type"] == "shard-done"
        out.write_text("\n".join(lines[:-1]) + "\n")
        resumed = CampaignRunner(spec, workers=1, chunk_size=CHUNK).run(
            faults, seed=SEED, out=out, resume=True
        )
        assert resumed.complete
        by_index = {entry["index"]: entry for entry in jsonl_records(out)}
        assert [by_index[index] for index in sorted(by_index)] == reference


class TestDseInvariance:
    @pytest.fixture(scope="class")
    def space(self):
        from repro.dse.space import ConfigSpace

        return ConfigSpace(
            hash_names=("xor",),
            iht_sizes=(4, 8),
            policy_names=("lru_half",),
            miss_penalties=(100,),
            workloads=("bitcount",),
            scale="tiny",
            per_class=2,
        )

    @pytest.fixture(scope="class")
    def reference_points(self, space):
        from repro.dse.engine import DseSweep

        result = DseSweep(space, seed=SEED, chunk_size=1).run()
        assert result.complete
        return [point.to_json() for point in result.ordered()]

    @pytest.mark.parametrize("workers", (1, 2))
    def test_worker_count_invariance(self, space, reference_points, workers):
        from repro.dse.engine import DseSweep

        result = DseSweep(space, seed=SEED, chunk_size=1, workers=workers).run()
        assert result.complete
        assert [point.to_json() for point in result.ordered()] == (
            reference_points
        )

    def test_batched_adversary_matches_full_backend(self, space, reference_points):
        """DSE detection objectives now run through ``run_batch``; the
        full backend's default (per-fault) batch loop must agree with the
        golden backend's batched kernel point for point."""
        from repro.dse.engine import DseSweep

        result = DseSweep(space, seed=SEED, chunk_size=1, backend="full").run()
        assert result.complete
        assert [point.to_json() for point in result.ordered()] == (
            reference_points
        )
