"""An untimed :class:`FuncSim` run is the timed run without its cycles.

Only Table 1's overhead reads cycles, so the pristine recording, the
monitor overlays and both functional fault kernels run untimed: with no
scoreboard, and no timing state in their snapshots.  These tests pin that
skipping the scoreboard changes nothing else — console, exit code,
instruction count, block trace, final architected state and monitor
state — on the nine workloads, a program that reads its own text and
generated hazard programs; that :func:`classify_run` gives every outcome
the same verdict over either mode; and that the two kinds of snapshot
never mix.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings

from repro.asm.assembler import assemble
from repro.errors import ConfigurationError
from repro.faults.campaign import (
    Outcome,
    WarmProcess,
    build_context,
    classify_run,
    make_probe,
    run_one,
)
from repro.faults.models import BitFlipFault, split_perturbation
from repro.osmodel.loader import load_process
from repro.pipeline.funcsim import FuncSim
from repro.workloads.suite import WORKLOAD_NAMES, build, workload_inputs

from tests.exec.test_outcomes import _undecodable
from tests.pipeline.test_differential_control_flow import hazard_programs
from tests.programs import SELF_READING


def monitored_run(program, inputs, timed):
    """A finished monitored run and the simulator that made it."""
    simulator = FuncSim(
        program,
        monitor=load_process(program, iht_size=4).monitor,
        inputs=inputs,
        collect_trace=True,
        timed=timed,
    )
    return simulator.run(), simulator


def assert_same_run(program, inputs=None):
    timed, timed_sim = monitored_run(program, inputs, timed=True)
    untimed, untimed_sim = monitored_run(program, inputs, timed=False)
    assert isinstance(timed.cycles, int)
    assert untimed.cycles is None
    # Console, exit code, instructions, block trace and monitor stats.
    assert untimed == replace(timed, cycles=None)
    # Architected state, syscalls and the open block.
    assert untimed_sim.snapshot() == replace(timed_sim.snapshot(), scoreboard=None)
    # CIC registers, IHT rows, handler counters and policy state.
    assert untimed_sim.monitor.snapshot() == timed_sim.monitor.snapshot()
    assert (
        untimed_sim.monitor.handler.snapshot()
        == timed_sim.monitor.handler.snapshot()
    )


@pytest.mark.parametrize(
    "name, scale", [(name, "tiny") for name in WORKLOAD_NAMES] + [("sha", "small")]
)
def test_workloads(name, scale):
    assert_same_run(build(name, scale), workload_inputs(name, scale))


def test_program_that_reads_its_own_text():
    assert_same_run(assemble(SELF_READING))


@settings(max_examples=40, deadline=None)
@given(source=hazard_programs())
def test_hazard_programs(source):
    assert_same_run(assemble(source))


PRINT_TWO = """
main:   li $a0, 2
        li $v0, 1
        syscall
        li $v0, 10
        syscall
"""

#: One crafted fault per outcome (tests/exec/test_outcomes.py explains
#: each): the source and the flips, as (label, offset, bit); bit ``None``
#: is the first flip that leaves the word undecodable.
CRAFTED = [
    (Outcome.DETECTED_CIC, PRINT_TWO, [("main", 0, 0)]),
    (Outcome.DETECTED_BASELINE, PRINT_TWO, [("main", 0, None)]),
    (
        Outcome.CRASHED,
        """
main:   li $v0, 1
        li $a0, 5
        syscall
        li $v0, 10
        syscall
        """,
        [("main", 0, 6), ("main", 4, 6)],
    ),
    (
        Outcome.HANG,
        """
main:   li $t0, 0
loop:   addi $t0, $t0, 1
        li $t1, 5
        bne $t0, $t1, loop
        li $v0, 10
        syscall
        """,
        [("loop", 0, 1), ("loop", 4, 1)],
    ),
    (
        Outcome.SDC,
        """
main:   li $t0, 1
        li $t1, 1
        addu $a0, $t0, $t1
        li $v0, 1
        syscall
        li $v0, 10
        syscall
        """,
        [("main", 0, 3), ("main", 4, 3)],
    ),
    (
        Outcome.BENIGN,
        """
main:   j live
dead:   addu $s0, $s0, $s0
live:   li $v0, 10
        syscall
        """,
        [("dead", 0, 7)],
    ),
]


def crafted_fault(program, flips):
    faults = []
    for label, offset, bit in flips:
        address = program.symbols[label] + offset
        if bit is None:
            bit = next(
                bit
                for bit in range(32)
                if _undecodable(program.word_at(address) ^ (1 << bit), address)
            )
        faults.append(BitFlipFault(address, (bit,)))
    return tuple(faults)


def classify(context, fault, timed):
    """:func:`run_one`'s injection, on a simulator of either kind."""
    warm = WarmProcess.from_context(context)
    persistents, transients = split_perturbation(fault)
    probe = make_probe(persistents, transients)
    simulator = FuncSim(
        context.program,
        monitor=warm.fresh_checker(context),
        fetch_hook=probe,
        inputs=context.inputs,
        max_instructions=context.instruction_budget,
        hang_detector=context.golden_instructions,
        timed=timed,
    )
    for part in persistents:
        part.apply_to_memory(simulator.state.memory)
    result = classify_run(context, fault, simulator, probe)
    return result.outcome, result.detail, result.latency


@pytest.mark.parametrize(
    "outcome, source, flips",
    CRAFTED,
    ids=[outcome.value for outcome, _source, _flips in CRAFTED],
)
def test_classify_run_gives_the_same_verdict(outcome, source, flips):
    context = build_context(assemble(source))
    fault = crafted_fault(context.program, flips)
    timed = classify(context, fault, timed=True)
    assert timed[0] is outcome
    assert classify(context, fault, timed=False) == timed
    full = run_one(context, fault)
    assert (full.outcome, full.detail, full.latency) == timed


class TestSnapshots:
    PAUSE = 9

    def paused(self, timed):
        simulator = FuncSim(assemble(SELF_READING), timed=timed)
        simulator.run(until=self.PAUSE)
        return simulator

    def test_untimed_snapshot_carries_no_timing(self):
        snapshot = self.paused(timed=False).snapshot()
        assert snapshot.scoreboard is None
        resumed = FuncSim(assemble(SELF_READING), timed=False)
        resumed.restore(snapshot)
        assert resumed.run() == FuncSim(assemble(SELF_READING), timed=False).run()

    @pytest.mark.parametrize("timed", [True, False])
    def test_kinds_never_mix(self, timed):
        simulator = self.paused(timed)
        other = self.paused(not timed).snapshot()
        with pytest.raises(ConfigurationError, match="never mix"):
            simulator.restore(other)
        # The refused restore left the simulator where it was.
        assert simulator.run() == FuncSim(assemble(SELF_READING), timed=timed).run()
