"""Differential tests: FuncSim vs PipelineCPU on a program corpus.

The scoreboard replayed over a functional run (``run_timed``) and the
stage-latch pipeline must agree on cycles, console, instruction counts, block traces, architected
registers, and memory effects — for handcrafted corner programs, for
hypothesis-generated ALU programs, and (in test_workloads_differential)
for every workload.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm.assembler import assemble
from repro.pipeline.cpu import PipelineCPU
from repro.pipeline.funcsim import FuncSim

from tests.conftest import run_both

CORPUS = {
    "dependent-chain": """
        li $t0, 1
        addi $t1, $t0, 2
        add $t2, $t1, $t0
        sub $t3, $t2, $t1
        xor $a0, $t3, $t2
        li $v0, 1
        syscall
    """,
    "load-use-chains": """
        .data
    arr: .word 3, 1, 4, 1, 5
        .text
        la $t9, arr
        lw $t0, 0($t9)
        lw $t1, 4($t9)
        addu $t2, $t0, $t1
        lw $t3, 8($t9)
        addu $t2, $t2, $t3
        sw $t2, 16($t9)
        lw $a0, 16($t9)
        li $v0, 1
        syscall
    """,
    "branch-dance": """
        li $t0, 0
        li $t1, 6
    top:
        andi $t2, $t1, 1
        beqz $t2, even
        addi $t0, $t0, 100
        j next
    even:
        addi $t0, $t0, 1
    next:
        addi $t1, $t1, -1
        bgtz $t1, top
        move $a0, $t0
        li $v0, 1
        syscall
    """,
    "muldiv-pressure": """
        li $t0, 123456
        li $t1, 789
        div $t2, $t0, $t1
        rem $t3, $t0, $t1
        mul $t4, $t2, $t1
        addu $t4, $t4, $t3
        move $a0, $t4
        li $v0, 1
        syscall
    """,
    "call-tree": """
        li $a0, 4
        jal fib
        move $a0, $v0
        li $v0, 1
        syscall
        j end
    fib:
        li $v0, 1
        li $t0, 2
        blt $a0, $t0, fib_ret
        addi $sp, $sp, -12
        sw $ra, 0($sp)
        sw $a0, 4($sp)
        addi $a0, $a0, -1
        jal fib
        sw $v0, 8($sp)
        lw $a0, 4($sp)
        addi $a0, $a0, -2
        jal fib
        lw $t1, 8($sp)
        addu $v0, $v0, $t1
        lw $ra, 0($sp)
        addi $sp, $sp, 12
    fib_ret:
        jr $ra
    end:
    """,
    "store-forward-mix": """
        .data
    buf: .space 16
        .text
        la $t9, buf
        li $t0, 0x11
        sw $t0, 0($t9)
        lw $t1, 0($t9)
        sw $t1, 4($t9)
        lb $t2, 4($t9)
        sb $t2, 8($t9)
        lw $a0, 8($t9)
        li $v0, 1
        syscall
    """,
    "jr-through-table": """
        .data
    table: .word f1, f2
        .text
        la $t9, table
        lw $t0, 0($t9)
        jalr $t0
        move $s0, $v0
        lw $t0, 4($t9)
        jalr $t0
        addu $a0, $s0, $v0
        li $v0, 1
        syscall
        j end
    f1: li $v0, 10
        jr $ra
    f2: li $v0, 32
        jr $ra
    end:
    """,
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_program_equivalence(name):
    program = assemble(CORPUS[name] + "\nli $v0, 10\nsyscall\n", name=name)
    func_result, pipe_result = run_both(program, collect_trace=True)
    assert [e.key for e in func_result.block_trace] == [
        e.key for e in pipe_result.block_trace
    ]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_final_state_equivalence(name):
    program = assemble(CORPUS[name] + "\nli $v0, 10\nsyscall\n", name=name)
    func_sim = FuncSim(program)
    pipe_sim = PipelineCPU(program)
    func_sim.run()
    pipe_sim.run()
    assert func_sim.state.regs == pipe_sim.state.regs
    assert func_sim.state.hi == pipe_sim.state.hi
    assert func_sim.state.lo == pipe_sim.state.lo


_ALU_OPS = ["addu", "subu", "and", "or", "xor", "nor", "slt", "sltu"]
_IMM_OPS = ["addiu", "andi", "ori", "xori", "slti"]


@st.composite
def alu_programs(draw):
    """Random straight-line ALU programs over $t0-$t7."""
    lines = ["        li $t0, %d" % draw(st.integers(-1000, 1000))]
    for register in range(1, 8):
        lines.append(
            "        li $t%d, %d" % (register, draw(st.integers(-1000, 1000)))
        )
    count = draw(st.integers(min_value=3, max_value=25))
    for _ in range(count):
        if draw(st.booleans()):
            op = draw(st.sampled_from(_ALU_OPS))
            rd, rs, rt = (draw(st.integers(0, 7)) for _ in range(3))
            lines.append(f"        {op} $t{rd}, $t{rs}, $t{rt}")
        else:
            op = draw(st.sampled_from(_IMM_OPS))
            rt, rs = draw(st.integers(0, 7)), draw(st.integers(0, 7))
            imm = draw(st.integers(0, 255))
            lines.append(f"        {op} $t{rt}, $t{rs}, {imm}")
    lines.append("        move $a0, $t%d" % draw(st.integers(0, 7)))
    lines.append("        li $v0, 1")
    lines.append("        syscall")
    lines.append("        li $v0, 10")
    lines.append("        syscall")
    return "\n".join(lines)


@settings(max_examples=30, deadline=None)
@given(source=alu_programs())
def test_random_alu_programs_equivalent(source):
    program = assemble(source)
    run_both(program)
