"""Hang early-exit: the PC-set cycling detector.

``hang`` outcomes used to burn the entire instruction budget.  The armed
detector in :class:`~repro.pipeline.funcsim.FuncSim` declares the hang as
soon as the architected state provably cycles — and must classify exactly
like the budget-burning run it replaces, which these tests pin
differentially for every fault class (the detector is *sound*: it only
fires on recurrences that imply the budget would be exceeded).
"""

import pytest

from repro.asm.assembler import assemble
from repro.errors import BudgetExceeded
from repro.faults import BitFlipFault, Outcome, build_context, run_one
from repro.faults.campaign import classify_run, make_probe, split_perturbation
from repro.faults.models import TransientFetchFault
from repro.osmodel.loader import load_process
from repro.pipeline.funcsim import FuncSim

COUNTER_LOOP = """
main:   li $t0, 0
loop:   addi $t0, $t0, 1
        li $t1, 5
        bne $t0, $t1, loop
        li $v0, 10
        syscall
"""


def run_one_budget(context, fault):
    """The pre-detector kernel: identical to run_one, detector disabled."""
    monitor = load_process(
        context.program,
        iht_size=context.iht_size,
        hash_name=context.hash_name,
        policy_name=context.policy_name,
    ).monitor
    persistents, transients = split_perturbation(fault)
    for part in transients:
        part.reset()
    probe = make_probe(persistents, transients)
    simulator = FuncSim(
        context.program,
        monitor=monitor,
        fetch_hook=probe,
        inputs=context.inputs,
        max_instructions=context.instruction_budget,
    )
    for part in persistents:
        part.apply_to_memory(simulator.state.memory)
    return classify_run(context, fault, simulator, probe)


class TestDetectorMechanics:
    def test_pure_loop_caught_in_a_fraction_of_the_budget(self):
        program = assemble("main:   j main\n")
        simulator = FuncSim(program, hang_detector=0, max_instructions=10_000)
        with pytest.raises(BudgetExceeded, match="instruction limit"):
            simulator.run()
        assert simulator._executed < 100

    def test_disabled_by_default(self):
        program = assemble("main:   j main\n")
        simulator = FuncSim(program, max_instructions=500)
        with pytest.raises(BudgetExceeded, match="instruction limit"):
            simulator.run()
        assert simulator._executed == 500

    def test_arming_threshold_respected(self):
        program = assemble("main:   j main\n")
        simulator = FuncSim(program, hang_detector=300, max_instructions=10_000)
        with pytest.raises(BudgetExceeded, match="instruction limit"):
            simulator.run()
        assert 300 <= simulator._executed < 400

    def test_store_clears_the_state_table(self):
        # A loop that writes memory is never declared a cycle (the write
        # makes the recurrence test unsound), so the budget path rules.
        program = assemble("""
main:   li $t0, 4096
loop:   sw $zero, 0($t0)
        j loop
        """)
        simulator = FuncSim(program, hang_detector=0, max_instructions=2_000)
        with pytest.raises(BudgetExceeded, match="instruction limit"):
            simulator.run()
        assert simulator._executed == 2_000


class TestClassificationPinned:
    def test_stable_loop_pair_classifies_hang_early(self):
        context = build_context(assemble(COUNTER_LOOP))
        loop = context.program.symbols["loop"]
        # Same bit column (the rs-field bit for register 8), two words of
        # one block: the XOR hash is preserved, and the patched code is
        # `addi $t0, $zero, 1` / `addiu $t1, $t0, 5` — registers stabilize
        # after one iteration, so the state provably cycles.
        pair = (BitFlipFault(loop, (24,)), BitFlipFault(loop + 4, (24,)))
        result = run_one(context, pair)
        budget = run_one_budget(context, pair)
        assert result.outcome is Outcome.HANG
        assert (result.outcome, result.detail, result.latency) == (
            budget.outcome, budget.detail, budget.latency
        )
        # And the detector really did exit early.
        monitor = load_process(context.program).monitor
        probe = make_probe(*split_perturbation(pair))
        simulator = FuncSim(
            context.program,
            monitor=monitor,
            fetch_hook=probe,
            max_instructions=context.instruction_budget,
            hang_detector=context.golden_instructions,
        )
        for part in split_perturbation(pair)[0]:
            part.apply_to_memory(simulator.state.memory)
        with pytest.raises(BudgetExceeded):
            simulator.run()
        assert simulator._executed < context.instruction_budget // 20

    def test_counter_loop_pair_still_classifies_hang(self):
        # Registers change every iteration: no recurrence, so this hang
        # burns the budget exactly as before — classification unchanged.
        context = build_context(assemble(COUNTER_LOOP))
        loop = context.program.symbols["loop"]
        pair = (BitFlipFault(loop, (1,)), BitFlipFault(loop + 4, (1,)))
        result = run_one(context, pair)
        budget = run_one_budget(context, pair)
        assert result.outcome is Outcome.HANG
        assert (result.outcome, result.detail, result.latency) == (
            budget.outcome, budget.detail, budget.latency
        )

    def test_pending_transient_disarms_the_detector(self):
        # The persistent pair makes the loop register-stable (a provable
        # cycle on its own), but a transient part will corrupt the EIGHTH
        # fetch of the bne — an escape hatch the state table cannot see.
        # A detector that ignored the pending transient would declare a
        # hang around iteration two and misclassify; the gated detector
        # waits, the transient delivers, and the altered block hash is
        # caught by the CIC exactly as in the budget-burning run.
        context = build_context(assemble(COUNTER_LOOP))
        loop = context.program.symbols["loop"]
        fault = (
            BitFlipFault(loop, (24,)),
            BitFlipFault(loop + 4, (24,)),
            TransientFetchFault(loop + 8, (16,), occurrence=8),
        )
        result = run_one(context, fault)
        budget = run_one_budget(context, fault)
        assert result.outcome is not Outcome.HANG
        assert (result.outcome, result.detail, result.latency) == (
            budget.outcome, budget.detail, budget.latency
        )

    def test_random_campaign_differential(self):
        """Detector-on ≡ detector-off over a seeded mixed fault corpus."""
        from repro.faults.campaign import FaultCampaign
        from repro.workloads.suite import build, workload_inputs

        program = build("sha", "tiny")
        campaign = FaultCampaign(
            program, inputs=workload_inputs("sha", "tiny")
        )
        faults = campaign.random_single_bit(30, seed=9)
        faults += campaign.random_multi_bit(15, flips=2, seed=10)
        faults += campaign.random_multi_bit(
            15, flips=2, seed=11, same_column=True
        )
        for fault in faults:
            detected = run_one(campaign.context, fault)
            budget = run_one_budget(campaign.context, fault)
            assert (
                detected.outcome, detected.detail, detected.latency
            ) == (budget.outcome, budget.detail, budget.latency)
