"""A timed run is the run: :func:`run_timed` only adds its cycles.

``FuncSim`` keeps no timing; :func:`run_timed` runs it to its end with a
chained fetch hook and a block-end hook, then replays the scoreboard
over what it executed.  These tests pin that timing a run changes
nothing else — console, exit code, instruction count, block trace,
final simulator snapshot, checker and handler state — on the nine
workloads, a program that reads its own text and generated hazard
programs; that the simulator gets its hooks back, even when the run
raises; and that a run longer than one replay slice is timed exactly.
The cycles themselves are pinned against the cycle-level pipeline by
the differential tests.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings

from repro.asm.assembler import assemble
from repro.errors import BudgetExceeded, MonitorViolation
from repro.osmodel.loader import load_process
from repro.pipeline import funcsim
from repro.pipeline.cpu import PipelineCPU
from repro.pipeline.funcsim import FuncSim, run_timed
from repro.workloads.suite import WORKLOAD_NAMES, build, workload_inputs

from tests.pipeline.test_differential_control_flow import hazard_programs
from tests.programs import SELF_READING


def monitored(program, inputs=None, **options):
    return FuncSim(
        program,
        monitor=load_process(program, iht_size=4).monitor,
        inputs=inputs,
        collect_trace=True,
        **options,
    )


def assert_same_run(program, inputs=None):
    plain_sim = monitored(program, inputs)
    plain = plain_sim.run()
    timed_sim = monitored(program, inputs)
    timed = run_timed(timed_sim)
    assert plain.cycles is None
    assert isinstance(timed.cycles, int)
    # Console, exit code, instructions, block trace and monitor stats.
    assert timed == replace(plain, cycles=timed.cycles)
    # Architected state, syscalls and the open block.
    assert timed_sim.snapshot() == plain_sim.snapshot()
    # CIC registers, IHT rows, handler counters and policy state.
    assert timed_sim.monitor.snapshot() == plain_sim.monitor.snapshot()
    assert (
        timed_sim.monitor.handler.snapshot()
        == plain_sim.monitor.handler.snapshot()
    )
    # The simulator's own hooks are back.
    assert timed_sim.fetch_hook is None
    assert timed_sim._on_block_end is None


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


def test_slices_replay_as_one_run(monkeypatch):
    """A run replayed in slices of 7 instructions, pausing mid-block,
    times exactly as the pipeline does."""
    monkeypatch.setattr(funcsim, "TIMED_SLICE", 7)
    program = build("sha", "tiny")
    inputs = workload_inputs("sha", "tiny")
    timed = run_timed(monitored(program, inputs))
    pipeline = PipelineCPU(
        program, monitor=load_process(program, iht_size=4).monitor, inputs=inputs
    ).run()
    assert timed.instructions > 7 and timed.finished
    assert timed.cycles == pipeline.cycles


class TestHooks:
    def test_a_fetch_hook_is_chained_and_given_back(self):
        fetched = []

        def hook(address, word):
            fetched.append(address)
            return word

        program = assemble(SELF_READING)
        simulator = FuncSim(program, fetch_hook=hook)
        result = run_timed(simulator)
        assert len(fetched) == result.instructions
        assert simulator.fetch_hook is hook
        assert result.cycles == PipelineCPU(program).run().cycles

    def test_hooks_are_given_back_when_the_run_raises(self):
        program = build("bitcount", "tiny")
        simulator = FuncSim(program, max_instructions=100)
        with pytest.raises(BudgetExceeded):
            run_timed(simulator)
        assert simulator.fetch_hook is None
        assert simulator._on_block_end is None

    def test_a_violation_propagates(self):
        program = build("bitcount", "tiny")
        simulator = monitored(program)
        simulator.state.memory.flip_bit(program.text_start, 3)
        with pytest.raises(MonitorViolation):
            run_timed(simulator)
        assert simulator.fetch_hook is None
