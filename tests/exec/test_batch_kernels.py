"""Differential pinning of the batched replay kernels.

The batched kernels may only ever be a *faster* way to compute the same
answers: ``run_batch_golden ≡ batches of one ≡ [run_one]`` on outcome,
detail, and detection latency, and ``run_batch_pipeline_golden ≡
batches of one ≡ [run_one_pipeline]`` with measured cycles included.
Pinned per Outcome class on both simulators (the crafted hash-escape
programs of ``tests/exec/test_outcomes.py``), per fault model, and across
all ten attack classes, with the whole list going through one kernel
call so prefix sharing, micro-snapshot reuse, and simulator reuse are all
exercised.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple

import pytest

from repro.asm.assembler import assemble
from repro.attacks import AttackCorpus
from repro.attacks.generators import ATTACK_CLASSES
from repro.exec import (
    CampaignRunner,
    CampaignSpec,
    build_golden_store,
    run_batch_golden,
)
from repro.exec.pipeline_golden import (
    build_pipeline_golden_store,
    classify_pipeline_run,
    run_batch_pipeline_golden,
    run_one_pipeline,
    run_one_pipeline_golden,
)
from repro.faults.campaign import (
    FaultCampaign,
    Outcome,
    WarmProcess,
    build_context,
    make_probe,
    run_one,
    same_column_pairs,
)
from repro.faults.models import BitFlipFault, TransientFetchFault
from repro.pipeline.cpu import PipelineCPU

SEED = 17


def fverdict(result):
    return (result.outcome, result.detail, result.latency)


def cverdict(result):
    return (result.outcome, result.detail, result.latency, result.cycles)


class Pair(NamedTuple):
    """One simulator's batch kernel and its independent full-replay oracle."""

    build_store: Callable
    kernel: Callable
    oracle: Callable
    verdict: Callable


FUNCTIONAL = Pair(
    build_golden_store,
    run_batch_golden,
    lambda store, fault: run_one(store.context, fault),
    fverdict,
)
PIPELINE = Pair(
    build_pipeline_golden_store,
    run_batch_pipeline_golden,
    lambda store, fault: run_one_pipeline(store.context, fault, store.warm),
    cverdict,
)


def assert_batch_equivalent(store, faults, pair=FUNCTIONAL):
    """One batch call ≡ batches of one ≡ full replay, element-wise."""
    faults = list(faults)
    batched = pair.kernel(store, faults)
    assert len(batched) == len(faults)
    for fault, batch in zip(faults, batched):
        assert batch.fault is fault
        [alone] = pair.kernel(store, [fault])
        assert pair.verdict(batch) == pair.verdict(alone), fault
        assert pair.verdict(batch) == pair.verdict(pair.oracle(store, fault)), fault
    return batched


class TestPerOutcome:
    """One crafted injection per Outcome class, batched with company.

    Each batch mixes the crafted fault with a batch-of-1 re-check and a
    never-delivered transient (the BENIGN fast path), so every batch
    exercises the planner's benign short-circuit next to a planned fork.
    """

    pair = FUNCTIONAL

    def store_for(self, source: str):
        return self.pair.build_store(build_context(assemble(source)), interval=4)

    def check(self, store, fault, expected):
        main_fetch = min(
            ordinals[0] for ordinals in store.fetch_ordinals.values()
        )
        assert main_fetch  # the store recorded a live program
        company = TransientFetchFault(
            next(iter(store.fetch_ordinals)), (0,), occurrence=100_000
        )
        [result] = assert_batch_equivalent(store, [fault], self.pair)
        assert result.outcome is expected
        mixed = assert_batch_equivalent(store, [company, fault, fault], self.pair)
        assert mixed[0].outcome is Outcome.BENIGN
        assert mixed[1].outcome is expected
        assert self.pair.verdict(mixed[1]) == self.pair.verdict(mixed[2])

    def test_detected_cic(self):
        store = self.store_for("""
main:   li $a0, 2
        li $v0, 1
        syscall
        li $v0, 10
        syscall
        """)
        main = store.context.program.symbols["main"]
        self.check(store, BitFlipFault(main, (0,)), Outcome.DETECTED_CIC)

    def test_detected_baseline(self):
        store = self.store_for("""
main:   li $a0, 2
        li $v0, 1
        syscall
        li $v0, 10
        syscall
        """)
        main = store.context.program.symbols["main"]
        for bit in range(26, 32):
            if (
                self.pair.oracle(store, BitFlipFault(main, (bit,))).outcome
                is Outcome.DETECTED_BASELINE
            ):
                self.check(
                    store, BitFlipFault(main, (bit,)), Outcome.DETECTED_BASELINE
                )
                return
        pytest.fail("no baseline-detected flip found")

    def test_crashed(self):
        store = self.store_for("""
main:   li $v0, 1
        li $a0, 5
        syscall
        li $v0, 10
        syscall
        """)
        main = store.context.program.symbols["main"]
        self.check(
            store,
            (BitFlipFault(main, (6,)), BitFlipFault(main + 4, (6,))),
            Outcome.CRASHED,
        )

    def test_hang(self):
        store = self.store_for("""
main:   li $t0, 0
loop:   addi $t0, $t0, 1
        li $t1, 5
        bne $t0, $t1, loop
        li $v0, 10
        syscall
        """)
        loop = store.context.program.symbols["loop"]
        self.check(
            store,
            (BitFlipFault(loop, (1,)), BitFlipFault(loop + 4, (1,))),
            Outcome.HANG,
        )

    def test_silent_corruption(self):
        store = self.store_for("""
main:   li $t0, 1
        li $t1, 1
        addu $a0, $t0, $t1
        li $v0, 1
        syscall
        li $v0, 10
        syscall
        """)
        main = store.context.program.symbols["main"]
        self.check(
            store,
            (BitFlipFault(main, (3,)), BitFlipFault(main + 4, (3,))),
            Outcome.SDC,
        )

    def test_benign_never_executed(self):
        store = self.store_for("""
main:   j live
dead:   addu $s0, $s0, $s0
live:   li $v0, 10
        syscall
        """)
        self.check(
            store,
            BitFlipFault(store.context.program.symbols["dead"], (7,)),
            Outcome.BENIGN,
        )

    def test_unsafe_word_falls_back_mid_batch(self):
        """A batch mixing an unsafe-word fault (text the program stores
        to — planned as a fork at zero, delivery ordinal 1) with
        plannable faults: the fork at zero must not disturb its
        neighbours."""
        store = self.store_for("""
main:   la   $t0, target
        lw   $t1, 0($t0)
        sw   $t1, 0($t0)     # rewrite the word about to execute
target: li   $a0, 7
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
        """)
        program = store.context.program
        target = program.symbols["target"]
        assert target in store.unsafe_words
        main = program.symbols["main"]
        batch = [
            BitFlipFault(main, (0,)),
            BitFlipFault(target, (0,)),  # unsafe: fork at zero
            BitFlipFault(main, (1,)),
        ]
        results = assert_batch_equivalent(store, batch, self.pair)
        assert results[1].outcome is Outcome.DETECTED_CIC


class TestPerOutcomePipeline(TestPerOutcome):
    """The same crafted injections through ``run_batch_pipeline_golden``
    ≡ ``run_one_pipeline``, measured cycles included."""

    pair = PIPELINE

    def test_cycle_ceiling_classifies_hang(self):
        """The pipeline's cycle ceiling is a budget like the instruction
        limit: HANG with the canonical detail, cycles at the ceiling."""
        context = build_context(assemble("""
main:   li $t0, 0
loop:   addi $t0, $t0, 1
        li $t1, 5
        bne $t0, $t1, loop
        li $v0, 10
        syscall
        """))
        probe = make_probe((), ())
        # Unmonitored, so no OS miss penalty jumps the cycle count past
        # the ceiling.
        cpu = PipelineCPU(context.program, fetch_hook=probe, max_cycles=20)
        result = classify_pipeline_run(context, (), cpu, probe)
        assert result.outcome is Outcome.HANG
        assert result.detail == (
            f"instruction limit {context.instruction_budget} exceeded"
        )
        assert result.cycles == 20


@pytest.fixture(scope="module")
def sha_store():
    spec = CampaignSpec(workload="sha", scale="tiny", iht_size=8)
    return build_golden_store(spec.build_context())


@pytest.fixture(scope="module")
def sha_campaign(sha_store):
    return FaultCampaign.from_context(sha_store.context)


class TestFaultModels:
    """Every fault model the campaign generators emit, one batch each."""

    def test_random_single_bit(self, sha_store, sha_campaign):
        assert_batch_equivalent(
            sha_store, sha_campaign.random_single_bit(24, seed=SEED)
        )

    def test_random_multi_bit(self, sha_store, sha_campaign):
        assert_batch_equivalent(
            sha_store, sha_campaign.random_multi_bit(10, flips=3, seed=SEED + 1)
        )

    def test_same_column_multi_word(self, sha_store, sha_campaign):
        assert_batch_equivalent(
            sha_store,
            sha_campaign.random_multi_bit(
                10, flips=2, seed=SEED + 2, same_column=True
            ),
        )

    def test_transient_occurrences(self, sha_store, sha_campaign):
        rng = random.Random(SEED + 3)
        addresses = sha_campaign.context.executed_addresses
        batch = [
            TransientFetchFault(
                rng.choice(addresses), (rng.randrange(32),), occurrence=occurrence
            )
            for occurrence in (1, 2, 3, 50)
            for _ in range(4)
        ]
        assert_batch_equivalent(sha_store, batch)

    def test_mixed_persistent_and_transient(self, sha_store, sha_campaign):
        rng = random.Random(SEED + 4)
        addresses = sha_campaign.context.executed_addresses
        batch = [
            (
                BitFlipFault(rng.choice(addresses), (rng.randrange(32),)),
                TransientFetchFault(
                    rng.choice(addresses), (rng.randrange(32),), occurrence=2
                ),
            )
            for _ in range(6)
        ]
        assert_batch_equivalent(sha_store, batch)

    def test_unexecuted_code(self, sha_store, sha_campaign):
        assert_batch_equivalent(
            sha_store,
            sha_campaign.random_single_bit(
                10, seed=SEED + 5, executed_only=False
            ),
        )

    def test_batch_of_one_equals_batch_of_n(self, sha_store, sha_campaign):
        faults = sha_campaign.random_single_bit(16, seed=SEED + 6)
        whole = run_batch_golden(sha_store, faults)
        ones = [
            result
            for fault in faults
            for result in run_batch_golden(sha_store, [fault])
        ]
        assert [fverdict(result) for result in whole] == [
            fverdict(result) for result in ones
        ]

    def test_input_order_is_preserved(self, sha_store, sha_campaign):
        """Execution is delivery-sorted internally; results come back in
        input order regardless — shuffle and check the alignment."""
        faults = sha_campaign.random_single_bit(20, seed=SEED + 7)
        rng = random.Random(SEED + 7)
        shuffled = list(faults)
        rng.shuffle(shuffled)
        results = run_batch_golden(sha_store, shuffled)
        for fault, result in zip(shuffled, results):
            assert result.fault is fault


class TestAttackClasses:
    """All ten attack classes through the batched kernel, one batch per
    class (persistent and transient delivery both covered)."""

    @pytest.mark.parametrize("attack_class", ATTACK_CLASSES)
    def test_class_equivalence(self, sha_store, attack_class):
        corpus = AttackCorpus.from_context(sha_store.context)
        scenarios = corpus.sample(attack_class, 4, seed=SEED)
        assert scenarios, attack_class
        assert_batch_equivalent(sha_store, scenarios)


@pytest.fixture(scope="module", params=("sha", "bitcount"))
def pipeline_rig(request):
    """(campaign, store) on one smoke workload for the cycle-level pair."""
    spec = CampaignSpec(
        workload=request.param, scale="tiny", backend="pipeline-golden"
    )
    campaign = CampaignRunner(spec).campaign
    warm = WarmProcess.from_context(campaign.context)
    return campaign, build_pipeline_golden_store(campaign.context, warm)


def assert_pipeline_batch_equivalent(rig, faults, full_sample=2):
    """One batch call ≡ per-fault forking, cycles included; the first
    *full_sample* elements are additionally pinned against full replay."""
    campaign, store = rig
    faults = list(faults)
    batched = run_batch_pipeline_golden(store, faults)
    assert len(batched) == len(faults)
    for position, (fault, batch) in enumerate(zip(faults, batched)):
        assert cverdict(batch) == cverdict(
            run_one_pipeline_golden(store, fault)
        ), fault
        if position < full_sample:
            assert cverdict(batch) == cverdict(
                run_one_pipeline(campaign.context, fault, store.warm)
            ), fault
    return batched


class TestPipelineBatch:
    def test_random_single_bit(self, pipeline_rig):
        campaign, _store = pipeline_rig
        assert_pipeline_batch_equivalent(
            pipeline_rig, campaign.random_single_bit(12, seed=SEED)
        )

    def test_random_multi_bit(self, pipeline_rig):
        campaign, _store = pipeline_rig
        assert_pipeline_batch_equivalent(
            pipeline_rig, campaign.random_multi_bit(6, flips=2, seed=SEED + 1)
        )

    def test_same_column_pairs(self, pipeline_rig):
        from repro.eval.common import baseline_run

        campaign, _store = pipeline_rig
        workload = campaign.context.program.name.rsplit("-", 1)[0]
        trace = baseline_run(workload, "tiny").block_trace
        assert_pipeline_batch_equivalent(
            pipeline_rig, same_column_pairs(trace, 6, SEED + 2)
        )

    def test_transient_fetch_faults(self, pipeline_rig):
        campaign, _store = pipeline_rig
        addresses = campaign.context.executed_addresses
        batch = [
            TransientFetchFault(
                addresses[offset % len(addresses)],
                (offset % 32,),
                occurrence=occurrence,
            )
            for offset, occurrence in ((0, 1), (3, 1), (5, 2), (9, 3))
        ]
        assert_pipeline_batch_equivalent(pipeline_rig, batch)

    def test_attack_scenarios(self, pipeline_rig):
        campaign, _store = pipeline_rig
        corpus = AttackCorpus.from_context(campaign.context)
        scenarios = corpus.build(
            ["branch-retarget", "nop-slide", "opcode-sub/transient"],
            per_class=2,
            seed=SEED,
        )
        assert scenarios
        assert_pipeline_batch_equivalent(pipeline_rig, scenarios)

    def test_benign_fast_path_carries_golden_cycles(self, pipeline_rig):
        campaign, store = pipeline_rig
        never = TransientFetchFault(
            campaign.context.executed_addresses[0], (0,), occurrence=1_000_000
        )
        [result] = run_batch_pipeline_golden(store, [never])
        assert result.outcome is Outcome.BENIGN
        assert result.cycles == store.golden_cycles
