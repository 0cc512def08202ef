"""Snapshot/restore round-trip properties for both simulators.

The contract the golden-trace campaign backend rests on: pause a run at
*any* instruction boundary k, snapshot, restore into a **fresh** simulator,
run to completion — the final result (console, exit code, instruction
count, block trace, and on the pipeline the cycle count) is identical to
an uninterrupted run.  Checked for the functional simulator and the
cycle-level pipeline, with and without a monitor attached, at
hypothesis-chosen pause points.  A ``FuncSim`` snapshot carries no
timing: ``FuncSim.run`` reports none, and ``run_timed`` replays a whole
run's cycles from an empty pipeline.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm.assembler import assemble
from repro.osmodel.loader import load_process
from repro.pipeline.cpu import PipelineCPU
from repro.pipeline.funcsim import FuncSim
from repro.workloads.suite import build, workload_inputs

PROGRAM_SOURCE = """
        .data
arr:    .word 9, 4, 7, 1, 8
        .text
main:   li   $t0, 0          # index
        li   $t3, 0          # running sum
        la   $t9, arr
loop:   sll  $t1, $t0, 2
        addu $t1, $t1, $t9
        lw   $t2, 0($t1)
        addu $t3, $t3, $t2
        mult $t3, $t2
        mflo $t4
        addi $t0, $t0, 1
        li   $t5, 5
        bne  $t0, $t5, loop
        move $a0, $t3
        li   $v0, 1
        syscall              # print sum
        li   $a0, 10
        li   $v0, 11
        syscall              # newline
        move $a0, $t4
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
"""


def result_key(result, engine):
    """What a resumed run must reproduce; cycles on the pipeline only,
    since ``FuncSim.run`` reports none."""
    return (
        result.console,
        result.exit_code,
        result.instructions,
        result.finished,
        tuple(event.key for event in result.block_trace or ()),
    ) + ((result.cycles,) if engine is PipelineCPU else ())


def roundtrip(engine, k: int, monitored: bool = False):
    """Run PROGRAM_SOURCE paused at k + resumed in a fresh simulator."""
    program = assemble(PROGRAM_SOURCE, name="snapshot-corpus")

    def make(monitor):
        return engine(program, monitor=monitor, collect_trace=True)

    def monitor():
        return load_process(program, iht_size=4).monitor if monitored else None

    reference = make(monitor()).run()

    first = make(monitor())
    paused = first.run(until=k)
    if not paused.finished:
        assert paused.instructions == k
    checker = first.monitor
    second = make(checker)
    if checker is not None:
        # The monitor snapshot travels separately, into the same checker
        # (restored below) or an equivalent fresh one.
        checker_state = checker.snapshot()
        handler_state = checker.handler.snapshot()
        checker.restore(checker_state)
        checker.handler.restore(handler_state)
    second.restore(first.snapshot())
    resumed = second.run()
    assert result_key(resumed, engine) == result_key(reference, engine)


@settings(max_examples=20, deadline=None)
@given(k=st.integers(min_value=0, max_value=120))
def test_funcsim_roundtrip_unmonitored(k):
    roundtrip(FuncSim, k)


@settings(max_examples=20, deadline=None)
@given(k=st.integers(min_value=0, max_value=120))
def test_funcsim_roundtrip_monitored(k):
    """Mid-block pauses included: STA/RHASH travel with the snapshot."""
    roundtrip(FuncSim, k, monitored=True)


@settings(max_examples=15, deadline=None)
@given(k=st.integers(min_value=0, max_value=120))
def test_pipeline_roundtrip_unmonitored(k):
    roundtrip(PipelineCPU, k)


@settings(max_examples=15, deadline=None)
@given(k=st.integers(min_value=0, max_value=120))
def test_pipeline_roundtrip_monitored(k):
    roundtrip(PipelineCPU, k, monitored=True)


@pytest.mark.parametrize("engine", [FuncSim, PipelineCPU])
def test_run_until_is_idempotent_at_exit(engine):
    """run() after the program finished returns the same final result."""
    program = assemble(PROGRAM_SOURCE, name="snapshot-corpus")
    simulator = engine(program)
    final = simulator.run()
    assert final.finished
    again = simulator.run()
    assert result_key(again, engine) == result_key(final, engine)


@pytest.mark.parametrize("engine", [FuncSim, PipelineCPU])
def test_incremental_stepping_equals_one_shot(engine):
    """Many small run(until=...) slices compose to the uninterrupted run."""
    program = assemble(PROGRAM_SOURCE, name="snapshot-corpus")
    reference = engine(program, collect_trace=True).run()
    stepped = engine(program, collect_trace=True)
    mark = 7
    while True:
        result = stepped.run(until=mark)
        if result.finished:
            break
        mark += 7
    assert result_key(result, engine) == result_key(reference, engine)


def test_workload_checkpoint_roundtrip():
    """A real workload pauses/restores mid-run with monitor attached."""
    program = build("sha", "tiny")
    inputs = workload_inputs("sha", "tiny")

    def monitored():
        return FuncSim(
            program, monitor=load_process(program, iht_size=8).monitor,
            inputs=inputs,
        )

    reference = monitored().run()
    first = monitored()
    paused = first.run(until=reference.instructions // 2)
    assert not paused.finished
    second = monitored()
    second.monitor.restore(first.monitor.snapshot())
    second.monitor.handler.restore(first.monitor.handler.snapshot())
    second.restore(first.snapshot())
    resumed = second.run()
    assert resumed.console == reference.console
    assert resumed.instructions == reference.instructions
    assert resumed.monitor_stats.misses == reference.monitor_stats.misses
    assert resumed.monitor_stats.os_cycles == reference.monitor_stats.os_cycles
