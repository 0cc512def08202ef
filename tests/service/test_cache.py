"""CheckpointCache: content addressing, LRU, dedupe, neutrality."""

import sys
import threading
from collections import OrderedDict

import pytest

from repro.exec import golden
from repro.exec.runner import Workspace
from repro.exec.spec import CampaignSpec
from repro.faults.campaign import FaultCampaign
from repro.service.cache import CheckpointCache

SOURCE_A = """
main:   li $t0, 5
        li $s0, 0
loop:   addu $s0, $s0, $t0
        addi $t0, $t0, -1
        bgtz $t0, loop
        li $v0, 10
        syscall
"""

SOURCE_B = """
main:   li $t1, 3
        sll $t2, $t1, 2
        li $v0, 10
        syscall
"""


def spec(source=SOURCE_A, name="cache-a", **kwargs):
    kwargs.setdefault("iht_size", 4)
    return CampaignSpec(source=source, name=name, **kwargs)


class TestLease:
    def test_miss_then_hit(self):
        cache = CheckpointCache(capacity=4)
        first = cache.lease(spec())
        second = cache.lease(spec())
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["entries"] == 1
        # Every lease of one fingerprint is the cached workspace itself.
        assert second is first
        cache.clear()

    def test_key_is_the_fingerprint(self):
        cache = CheckpointCache(capacity=4)
        cache.lease(spec())
        assert spec().fingerprint() in cache
        # A different monitor config is a different store.
        cache.lease(spec(hash_name="add"))
        assert cache.stats()["misses"] == 2
        cache.clear()

    def test_leased_workspace_classifies_like_fresh(self):
        cache = CheckpointCache(capacity=4)
        cache.lease(spec())  # miss: builds and caches
        leased = cache.lease(spec())  # hit: the cached workspace
        fresh = Workspace.build(spec())
        faults = FaultCampaign.from_context(fresh.context).random_single_bit(
            6, seed=9
        )
        for fault in faults:
            [warm] = leased.run_batch([fault])
            [cold] = fresh.run_batch([fault])
            assert warm.outcome == cold.outcome
            assert warm.detail == cold.detail
        cache.clear()

    def test_stats_shape(self):
        cache = CheckpointCache(capacity=4)
        cache.lease(spec())
        stats = cache.stats()
        assert stats["capacity"] == 4
        (store,) = stats["stores"]
        assert store["key"] == spec().fingerprint()
        assert store["label"] == "cache-a"
        assert store["build_seconds"] > 0
        cache.clear()


class TestEviction:
    def test_lru_evicts_oldest(self):
        cache = CheckpointCache(capacity=2)
        cache.lease(spec(name="one"))
        cache.lease(spec(SOURCE_B, name="two"))
        cache.lease(spec(name="three", iht_size=8))  # evicts "one"
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["entries"] == 2
        assert spec(name="one").fingerprint() not in cache
        # Re-leasing the evicted spec is a fresh miss.
        cache.lease(spec(name="one"))
        assert cache.stats()["misses"] == 4
        cache.clear()

    def test_hit_refreshes_lru_position(self):
        cache = CheckpointCache(capacity=2)
        cache.lease(spec(name="one"))
        cache.lease(spec(SOURCE_B, name="two"))
        cache.lease(spec(name="one"))  # touch: "two" is now oldest
        cache.lease(spec(name="three", iht_size=8))
        assert spec(name="one").fingerprint() in cache
        assert spec(SOURCE_B, name="two").fingerprint() not in cache
        cache.clear()

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            CheckpointCache(capacity=0)


class TestConcurrency:
    def test_concurrent_same_key_builds_once(self, monkeypatch):
        cache = CheckpointCache(capacity=4)
        builds = []
        real_build = Workspace.build.__func__

        def counting_build(cls, build_spec, context=None):
            builds.append(build_spec.fingerprint())
            return real_build(cls, build_spec, context)

        monkeypatch.setattr(
            Workspace, "build", classmethod(counting_build)
        )
        workspaces = [None] * 4
        errors = []

        def lease(slot):
            try:
                workspaces[slot] = cache.lease(spec())
            except Exception as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [
            threading.Thread(target=lease, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(builds) == 1, "same-key misses must deduplicate"
        assert all(ws is not None for ws in workspaces)
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 3
        cache.clear()

    @pytest.mark.parametrize("backend", ["full", "golden", "pipeline-golden"])
    def test_one_lease_runs_in_four_threads(self, backend, monkeypatch):
        """Four jobs run one leased workspace at once; each classifies
        every fault exactly as a fresh serial build does."""
        workload = CampaignSpec(workload="sha", scale="tiny", backend=backend)
        cache = CheckpointCache(capacity=4)
        leased = cache.lease(workload)
        # The reference shares no recording with the lease.
        monkeypatch.setattr(golden, "_RECORDINGS", OrderedDict())
        fresh = Workspace.build(workload)

        def faults():  # per thread: transient parts carry fetch counters
            return FaultCampaign.from_context(fresh.context).random_single_bit(
                16, seed=5
            )

        def observed(results):
            return [
                (r.outcome, r.detail, r.latency, r.cycles) for r in results
            ]

        expected = observed(fresh.run_batch(faults()))
        start = threading.Barrier(4, timeout=60)
        got = [None] * 4

        def run(slot):
            batch = faults()
            start.wait()
            got[slot] = observed(
                result for fault in batch for result in leased.run_batch([fault])
            )

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the kernels finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [expected] * 4
        cache.clear()

    def test_clear_releases_everything(self):
        cache = CheckpointCache(capacity=4)
        cache.lease(spec())
        cache.lease(spec(SOURCE_B, name="two"))
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["entries"] == 0
