"""Fault campaign tests: the paper's Section 6.3 claims, made executable."""

import pytest

from repro.asm.assembler import assemble
from repro.faults.campaign import DETECTED, FaultCampaign, Outcome
from repro.faults.models import BitFlipFault, TransientFetchFault

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


@pytest.fixture(scope="module")
def campaign():
    return FaultCampaign(assemble(SOURCE), iht_size=4)


class TestGolden:
    def test_golden_captured(self, campaign):
        assert campaign.context.golden_console == "21"
        assert campaign.context.executed_addresses


class TestSingleBit:
    def test_exhaustive_single_bit_never_silent(self, campaign):
        """Paper §6.3: a single bit flip in executed code is always caught —
        by the CIC, or earlier by a baseline machine check."""
        report = campaign.run_campaign(campaign.exhaustive_single_bit())
        counts = report.counts()
        assert counts[Outcome.SDC] == 0
        assert counts[Outcome.BENIGN] == 0
        assert counts[Outcome.HANG] == 0
        assert report.detection_rate == 1.0

    def test_random_generator_targets_executed_code(self, campaign):
        faults = campaign.random_single_bit(50, seed=3)
        executed = set(campaign.context.executed_addresses)
        assert all(fault.address in executed for fault in faults)

    def test_generators_deterministic(self, campaign):
        first = campaign.random_single_bit(10, seed=9)
        second = campaign.random_single_bit(10, seed=9)
        assert first == second


class TestUnexecutedCode:
    def test_flip_in_dead_code_is_benign(self):
        program = assemble("""
main:   j live
dead:   addu $s0, $s0, $s0
live:   li $v0, 10
        syscall
        """)
        campaign = FaultCampaign(program, iht_size=4)
        dead = program.symbols["dead"]
        result = campaign.run_single(BitFlipFault(dead, (7,)))
        assert result.outcome is Outcome.BENIGN


class TestMultiBit:
    def test_same_column_pairs_can_escape_xor(self, campaign):
        faults = campaign.random_multi_bit(
            30, flips=2, seed=5, same_column=True
        )
        report = campaign.run_campaign(faults)
        # The XOR checksum provably cannot see these inside one block; some
        # pairs span blocks (detected) and some alter semantics (SDC).
        assert report.detection_rate < 1.0

    def test_two_bits_one_word_always_flagged_by_xor(self, campaign):
        """Two flips in ONE word always change the XOR (two columns)."""
        faults = campaign.random_multi_bit(30, flips=2, seed=6)
        report = campaign.run_campaign(faults)
        counts = report.counts()
        assert counts[Outcome.SDC] == 0
        assert counts[Outcome.BENIGN] == 0


class TestTransient:
    def test_transient_fetch_fault_detected(self, campaign):
        address = campaign.context.executed_addresses[2]
        fault = TransientFetchFault(address, (5,), occurrence=1)
        result = campaign.run_single(fault)
        assert result.outcome in DETECTED

    def test_summary_readable(self, campaign):
        report = campaign.run_campaign(campaign.random_single_bit(5, seed=1))
        text = report.summary()
        assert "coverage" in text
        assert "5 faults" in text
