"""The functional golden store as a pristine recording plus monitor overlays.

The CIC only observes the fetch stream, so a pristine run executes
identically under every monitor configuration; the monitor changes only
timing.  :func:`repro.exec.golden.build_golden_store` therefore records
the golden run once per program and inputs in a process, untimed, and
overlays every further configuration on it.  These tests pin an overlaid
store equal, checkpoint for checkpoint, to an untimed monitored
recording of the same configuration — architected state, syscalls, CIC
registers, IHT rows, handler counters and policy state, with no timing
state on either side — and the DSE points it feeds independent of the
order configurations are measured in.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace

import pytest

from repro.asm.assembler import assemble
from repro.dse.engine import DseWorkspace, evaluate_point
from repro.dse.space import ConfigSpace
from repro.exec import CampaignSpec, build_golden_store, run_batch_golden
from repro.exec import golden
from repro.exec.golden import pristine_recording, record_store
from repro.faults.campaign import (
    FaultCampaign,
    WarmProcess,
    build_context,
    run_one,
)
from repro.faults.models import BitFlipFault
from repro.obs import core as obs
from repro.pipeline.funcsim import FuncSim

from tests.programs import SELF_READING

#: (hash, IHT size, policy, miss penalty): every axis moves at least once.
CONFIGS = [
    ("crc32", 1, "lru_one", 50),
    ("add", 64, "fifo", 200),
    ("rotxor", 4, "random", 7),
    ("xor", 16, "lru_half", 100),
]


def monitored_store(context, interval=None):
    """The reference: one untimed monitored recording of *context*'s
    config."""
    warm = WarmProcess.from_context(context)
    simulator = FuncSim(
        context.program,
        monitor=warm.fresh_checker(context),
        inputs=context.inputs,
        max_instructions=context.instruction_budget,
        decode_cache=warm.decode_cache,
        timed=False,
    )
    return record_store(context, warm, interval, simulator, "reference")


def assert_same_store(overlaid, recorded):
    assert len(overlaid.checkpoints) == len(recorded.checkpoints) > 1
    for mine, theirs in zip(overlaid.checkpoints, recorded.checkpoints):
        assert mine == theirs, mine.instructions
        assert mine.sim.scoreboard is None
    assert overlaid.fetch_ordinals == recorded.fetch_ordinals
    assert overlaid.unsafe_words == recorded.unsafe_words
    assert overlaid.golden_instructions == recorded.golden_instructions
    assert overlaid.interval == recorded.interval


def overlaid_stores(base, interval=None):
    """Record *base*'s store, then overlay each of :data:`CONFIGS` on
    the same recording; yield (context, overlaid store)."""
    pristine = pristine_recording(base, interval=interval)
    for hash_name, size, policy, penalty in CONFIGS:
        context = replace(
            base,
            hash_name=hash_name,
            iht_size=size,
            policy_name=policy,
            miss_penalty=penalty,
        )
        warm = WarmProcess.from_context(context)
        store = build_golden_store(context, warm, interval)
        # Overlaid, not recorded again.
        assert pristine_recording(context, interval=interval) is pristine
        yield context, store


@pytest.mark.parametrize("workload", ["sha", "dijkstra", "bitcount"])
def test_overlay_equals_monitored_recording(workload):
    base = CampaignSpec(workload=workload, scale="tiny").build_context()
    for context, store in overlaid_stores(base):
        assert_same_store(store, monitored_store(context))


def test_overlay_on_a_program_that_reads_its_own_text():
    base = build_context(assemble(SELF_READING))
    # A checkpoint every third instruction lands inside blocks too.
    for context, store in overlaid_stores(base, interval=3):
        recorded = monitored_store(context, interval=3)
        assert recorded.unsafe_words
        assert_same_store(store, recorded)
        # Forks at zero on the unsafe words classify as the full kernel.
        for address in sorted(store.unsafe_words):
            fault = BitFlipFault(address, (2,))
            [golden] = run_batch_golden(store, [fault])
            full = run_one(context, fault)
            assert (golden.outcome, golden.detail, golden.latency) == (
                full.outcome,
                full.detail,
                full.latency,
            )


def test_overlaid_store_classifies_like_the_full_kernel():
    base = CampaignSpec(workload="sha", scale="tiny").build_context()
    faults = FaultCampaign.from_context(base).random_single_bit(12, seed=5)
    for context, store in overlaid_stores(base):
        for fault, golden in zip(faults, run_batch_golden(store, faults)):
            full = run_one(context, fault)
            assert (golden.outcome, golden.detail, golden.latency) == (
                full.outcome,
                full.detail,
                full.latency,
            )


class TestDseSharing:
    @pytest.fixture(scope="class")
    def space(self):
        return ConfigSpace(
            hash_names=("xor", "crc32"),
            iht_sizes=(1, 8),
            policy_names=("lru_half", "lru_one"),
            miss_penalties=(100,),
            workloads=("bitcount", "dijkstra"),
            scale="tiny",
            per_class=1,
        )

    def evaluate(self, workspace, configs):
        return {
            index: evaluate_point(workspace, index, 0, config).to_json()
            for index, config in configs
        }

    def test_measure_order_changes_no_point(self, space, monkeypatch):
        monkeypatch.setattr(golden, "_RECORDINGS", OrderedDict())
        configs = list(enumerate(space.points()))
        forward = DseWorkspace(space, seed=3)
        backward = DseWorkspace(space, seed=3)
        with obs.scoped(True):
            obs.local().drain()
            points = self.evaluate(forward, configs)
            assert self.evaluate(backward, configs[::-1]) == points
            recorded = obs.local().drain()["counters"]["golden.stores_recorded"]
        # One recording per workload in the process, however many points.
        assert recorded == len(space.workloads)
        # A cold workspace per point: same points.
        for index, config in configs[::5]:
            cold = DseWorkspace(space, seed=3)
            assert self.evaluate(cold, [(index, config)])[index] == points[index]
