"""Differential pinning of the golden-trace backend: ``golden ≡ full``.

The golden backend may only ever be a *faster* way to compute the same
answer.  These tests compare :func:`repro.exec.golden.run_batch_golden`
on batches of one against the full-replay kernel :func:`repro.faults.campaign.run_one` on
outcome, detail, *and* detection latency — for a crafted injection per
Outcome class, for every fault model, and for all five attack classes in
both persistent and transient delivery.
"""

from __future__ import annotations

import random

import pytest

from repro.asm.assembler import assemble
from repro.attacks import AttackCorpus
from repro.attacks.generators import ATTACK_CLASSES, PERSISTENT_CLASSES
from repro.errors import ConfigurationError
from repro.exec import CampaignRunner, CampaignSpec, build_golden_store, run_batch_golden
from repro.faults.campaign import FaultCampaign, Outcome, build_context, run_one
from repro.faults.models import BitFlipFault, TransientFetchFault


def assert_equivalent(store, fault):
    """golden and full classify *fault* identically, latency included."""
    full = run_one(store.context, fault)
    [golden] = run_batch_golden(store, [fault])
    assert (golden.outcome, golden.latency, golden.detail) == (
        full.outcome,
        full.latency,
        full.detail,
    ), fault
    return full


def store_for(source: str):
    return build_golden_store(build_context(assemble(source)), interval=4)


class TestPerOutcome:
    """One crafted injection per Outcome class, both backends agreeing."""

    def test_detected_cic(self):
        store = store_for("""
main:   li $a0, 2
        li $v0, 1
        syscall
        li $v0, 10
        syscall
        """)
        result = assert_equivalent(
            store, BitFlipFault(store.context.program.symbols["main"], (0,))
        )
        assert result.outcome is Outcome.DETECTED_CIC

    def test_detected_baseline(self):
        store = store_for("""
main:   li $a0, 2
        li $v0, 1
        syscall
        li $v0, 10
        syscall
        """)
        main = store.context.program.symbols["main"]
        # Bit 29 turns `addiu` into an undecodable major opcode.
        for bit in range(26, 32):
            result = run_one(store.context, BitFlipFault(main, (bit,)))
            if result.outcome is Outcome.DETECTED_BASELINE:
                assert_equivalent(store, BitFlipFault(main, (bit,)))
                return
        pytest.fail("no baseline-detected flip found")

    def test_crashed(self):
        store = store_for("""
main:   li $v0, 1
        li $a0, 5
        syscall
        li $v0, 10
        syscall
        """)
        main = store.context.program.symbols["main"]
        result = assert_equivalent(
            store, (BitFlipFault(main, (6,)), BitFlipFault(main + 4, (6,)))
        )
        assert result.outcome is Outcome.CRASHED

    def test_hang(self):
        store = store_for("""
main:   li $t0, 0
loop:   addi $t0, $t0, 1
        li $t1, 5
        bne $t0, $t1, loop
        li $v0, 10
        syscall
        """)
        loop = store.context.program.symbols["loop"]
        result = assert_equivalent(
            store, (BitFlipFault(loop, (1,)), BitFlipFault(loop + 4, (1,)))
        )
        assert result.outcome is Outcome.HANG

    def test_silent_corruption(self):
        store = store_for("""
main:   li $t0, 1
        li $t1, 1
        addu $a0, $t0, $t1
        li $v0, 1
        syscall
        li $v0, 10
        syscall
        """)
        main = store.context.program.symbols["main"]
        result = assert_equivalent(
            store, (BitFlipFault(main, (3,)), BitFlipFault(main + 4, (3,)))
        )
        assert result.outcome is Outcome.SDC

    def test_benign_never_executed(self):
        store = store_for("""
main:   j live
dead:   addu $s0, $s0, $s0
live:   li $v0, 10
        syscall
        """)
        result = assert_equivalent(
            store, BitFlipFault(store.context.program.symbols["dead"], (7,))
        )
        assert result.outcome is Outcome.BENIGN

    def test_store_into_text_forces_full_fork(self):
        """A store over soon-to-execute text, sourced from an *identical*
        instruction elsewhere: the full backend's boot-time patch is
        silently repaired before its first fetch (BENIGN), which the
        golden backend only reproduces because written text words fork at
        checkpoint 0 instead of planning from fetch ordinals."""
        store = store_for("""
main:   la   $t0, src
        la   $t2, target
        lw   $t1, 0($t0)
        sw   $t1, 0($t2)     # overwrite target with src's equal word
src:    li   $a0, 7
target: li   $a0, 7
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
        """)
        target = store.context.program.symbols["target"]
        assert target in store.unsafe_words
        for bit in (0, 3, 16):
            result = assert_equivalent(store, BitFlipFault(target, (bit,)))
            # The store restored the pristine word before target ever
            # fetched, so the fault is masked — and golden must agree.
            assert result.outcome is Outcome.BENIGN

    def test_store_of_patched_word_back_into_text(self):
        """Read-modify-write of the patched word itself: the store writes
        the *corrupted* value back, the fetch sees it, both backends
        detect with identical latency."""
        store = store_for("""
main:   la   $t0, target
        lw   $t1, 0($t0)
        sw   $t1, 0($t0)     # rewrite the word about to execute
target: li   $a0, 7
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
        """)
        target = store.context.program.symbols["target"]
        assert target in store.unsafe_words
        result = assert_equivalent(store, BitFlipFault(target, (0,)))
        assert result.outcome is Outcome.DETECTED_CIC

    def test_benign_transient_occurrence_never_reached(self):
        """A transient fault on the 1000th fetch of a once-fetched word."""
        store = store_for("""
main:   li $a0, 2
        li $v0, 1
        syscall
        li $v0, 10
        syscall
        """)
        main = store.context.program.symbols["main"]
        result = assert_equivalent(
            store, TransientFetchFault(main, (0,), occurrence=1000)
        )
        assert result.outcome is Outcome.BENIGN


@pytest.fixture(scope="module")
def sha_store():
    spec = CampaignSpec(workload="sha", scale="tiny", iht_size=8)
    context = spec.build_context()
    return build_golden_store(context)


@pytest.fixture(scope="module")
def sha_campaign(sha_store):
    return FaultCampaign.from_context(sha_store.context)


class TestFaultModels:
    """Every fault model the campaign generators emit, both backends."""

    def test_random_single_bit(self, sha_store, sha_campaign):
        for fault in sha_campaign.random_single_bit(25, seed=11):
            assert_equivalent(sha_store, fault)

    def test_random_multi_bit(self, sha_store, sha_campaign):
        for fault in sha_campaign.random_multi_bit(10, flips=3, seed=12):
            assert_equivalent(sha_store, fault)

    def test_same_column_multi_word(self, sha_store, sha_campaign):
        for fault in sha_campaign.random_multi_bit(
            10, flips=2, seed=13, same_column=True
        ):
            assert_equivalent(sha_store, fault)

    def test_transient_occurrences(self, sha_store, sha_campaign):
        rng = random.Random(14)
        addresses = sha_campaign.context.executed_addresses
        for occurrence in (1, 2, 3, 50):
            for _ in range(5):
                fault = TransientFetchFault(
                    rng.choice(addresses),
                    (rng.randrange(32),),
                    occurrence=occurrence,
                )
                assert_equivalent(sha_store, fault)

    def test_mixed_persistent_and_transient(self, sha_store, sha_campaign):
        rng = random.Random(15)
        addresses = sha_campaign.context.executed_addresses
        for _ in range(8):
            fault = (
                BitFlipFault(rng.choice(addresses), (rng.randrange(32),)),
                TransientFetchFault(
                    rng.choice(addresses), (rng.randrange(32),), occurrence=2
                ),
            )
            assert_equivalent(sha_store, fault)

    def test_unexecuted_code(self, sha_store, sha_campaign):
        for fault in sha_campaign.random_single_bit(
            10, seed=16, executed_only=False
        ):
            assert_equivalent(sha_store, fault)


class TestAttackClasses:
    """All five attack classes, persistent and transient delivery."""

    @pytest.mark.parametrize("attack_class", ATTACK_CLASSES)
    def test_class_equivalence(self, sha_store, attack_class):
        corpus = AttackCorpus.from_context(sha_store.context)
        scenarios = corpus.sample(attack_class, 4, seed=21)
        assert scenarios, attack_class
        for scenario in scenarios:
            assert_equivalent(sha_store, scenario)

    def test_class_list_is_the_papers_five(self):
        assert len(PERSISTENT_CLASSES) == 5
        assert len(ATTACK_CLASSES) == 10


class TestRunnerIntegration:
    """The backend knob on the engine: same records, any worker count."""

    def test_backend_validation(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(workload="sha", scale="tiny", backend="warp")

    def test_campaign_records_identical(self, tmp_path):
        faults_seed = 31
        records = {}
        for backend in ("full", "golden"):
            spec = CampaignSpec(workload="sha", scale="tiny", backend=backend)
            runner = CampaignRunner(spec)
            faults = runner.campaign.random_single_bit(40, seed=faults_seed)
            out = tmp_path / f"{backend}.jsonl"
            result = runner.run(faults, seed=faults_seed, out=out)
            records[backend] = [
                (record.index, record.outcome, record.latency, record.detail)
                for record in sorted(result.records, key=lambda r: r.index)
            ]
        assert records["golden"] == records["full"]

    def test_golden_resume(self, tmp_path):
        spec = CampaignSpec(workload="sha", scale="tiny", backend="golden")
        runner = CampaignRunner(spec, chunk_size=8)
        faults = runner.campaign.random_single_bit(32, seed=5)
        out = tmp_path / "resume.jsonl"
        partial = runner.run(faults, seed=5, out=out, stop_after_shards=2)
        assert not partial.complete
        resumed = CampaignRunner(spec, chunk_size=8).run(
            faults, seed=5, out=out, resume=True
        )
        assert resumed.complete
        reference = CampaignRunner(spec, chunk_size=8).run(faults, seed=5)
        assert resumed.report().summary() == reference.report().summary()

    def test_full_resume_refuses_golden_file(self, tmp_path):
        golden = CampaignSpec(workload="sha", scale="tiny", backend="golden")
        runner = CampaignRunner(golden, chunk_size=8)
        faults = runner.campaign.random_single_bit(16, seed=5)
        out = tmp_path / "golden.jsonl"
        runner.run(faults, seed=5, out=out, stop_after_shards=1)
        full = CampaignSpec(workload="sha", scale="tiny", backend="full")
        with pytest.raises(ConfigurationError, match="fingerprint"):
            CampaignRunner(full, chunk_size=8).run(
                faults, seed=5, out=out, resume=True
            )


class TestGoldenStoreInternals:
    def test_checkpoints_cover_the_run(self, sha_store):
        marks = [checkpoint.instructions for checkpoint in sha_store.checkpoints]
        assert marks[0] == 0
        assert marks == sorted(marks)
        assert marks[-1] < sha_store.golden_instructions
        # The spacing honours the configured interval.
        assert all(
            later - earlier <= sha_store.interval
            for earlier, later in zip(marks, marks[1:])
        )

    def test_fetch_ordinals_account_for_every_instruction(self, sha_store):
        total = sum(
            len(ordinals) for ordinals in sha_store.fetch_ordinals.values()
        )
        assert total == sha_store.golden_instructions

    def test_trace_matches_context_executed_set(self, sha_store):
        # The pristine recording's fetch stream covers exactly the
        # addresses the context's golden block trace executed.
        [pristine] = sha_store.warm.recordings.values()
        fetched = {pristine.ops[op][0] for op in pristine.stream}
        assert tuple(sorted(fetched)) == sha_store.context.executed_addresses
        assert len(pristine.stream) == sha_store.golden_instructions
