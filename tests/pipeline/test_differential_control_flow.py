"""Hypothesis-generated programs with branches, loads, and stores.

Extends the ALU-only random differential testing to the hazard-bearing
instruction classes: random dependency patterns around loads, stores,
conditional branches (always forward, so programs terminate), and
multiply/divide — the cases where the scoreboard and the stage machine
could plausibly diverge.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm.assembler import assemble

from tests.conftest import run_both


@st.composite
def hazard_programs(draw):
    """Straight-line-with-forward-branches programs over $t0-$t5."""
    lines = [
        "        .data",
        "    buf: .word " + ", ".join(
            str(draw(st.integers(0, 1000))) for _ in range(8)
        ),
        "        .text",
        "        la $t9, buf",
    ]
    for register in range(6):
        lines.append(f"        li $t{register}, {draw(st.integers(0, 200))}")
    block_count = draw(st.integers(min_value=2, max_value=6))
    for block in range(block_count):
        lines.append(f"    blk{block}:")
        for _ in range(draw(st.integers(min_value=1, max_value=6))):
            choice = draw(st.integers(0, 5))
            rd = draw(st.integers(0, 5))
            rs = draw(st.integers(0, 5))
            rt = draw(st.integers(0, 5))
            if choice == 0:
                offset = draw(st.integers(0, 7)) * 4
                lines.append(f"        lw $t{rd}, {offset}($t9)")
            elif choice == 1:
                offset = draw(st.integers(0, 7)) * 4
                lines.append(f"        sw $t{rs}, {offset}($t9)")
            elif choice == 2:
                lines.append(f"        addu $t{rd}, $t{rs}, $t{rt}")
            elif choice == 3:
                lines.append(f"        mul $t{rd}, $t{rs}, $t{rt}")
            elif choice == 4:
                lines.append(
                    f"        addiu $t{rd}, $t{rs}, {draw(st.integers(0, 99))}"
                )
            else:
                lines.append(f"        slt $t{rd}, $t{rs}, $t{rt}")
        # Forward branch: either taken or not, target is the next block.
        condition = draw(st.sampled_from(["beq", "bne"]))
        lines.append(
            f"        {condition} $t{draw(st.integers(0, 5))}, "
            f"$t{draw(st.integers(0, 5))}, blk{block + 1}"
        )
    lines.append(f"    blk{block_count}:")
    # Print a digest of the registers so state differences become visible.
    lines.append("        addu $a0, $t0, $t1")
    lines.append("        addu $a0, $a0, $t2")
    lines.append("        addu $a0, $a0, $t3")
    lines.append("        li $v0, 1")
    lines.append("        syscall")
    lines.append("        li $v0, 10")
    lines.append("        syscall")
    return "\n".join(lines)


@settings(max_examples=40, deadline=None)
@given(source=hazard_programs())
def test_random_hazard_programs_equivalent(source):
    program = assemble(source)
    func_result, pipe_result = run_both(program, collect_trace=True)
    assert [e.key for e in func_result.block_trace] == [
        e.key for e in pipe_result.block_trace
    ]


@settings(max_examples=15, deadline=None)
@given(source=hazard_programs())
def test_random_programs_monitored_equivalence(source):
    """Same corpus, with the integrity monitor attached to both engines."""
    from repro.osmodel.loader import load_process
    from repro.pipeline.cpu import PipelineCPU
    from repro.pipeline.funcsim import FuncSim, run_timed

    program = assemble(source)
    func_sim = FuncSim(program, monitor=load_process(program, iht_size=4).monitor)
    pipe_sim = PipelineCPU(
        program, monitor=load_process(program, iht_size=4).monitor
    )
    func_result = run_timed(func_sim)
    pipe_result = pipe_sim.run()
    assert func_result.cycles == pipe_result.cycles
    assert func_result.monitor_stats.misses == pipe_result.monitor_stats.misses
    assert func_result.monitor_stats.hits == pipe_result.monitor_stats.hits
