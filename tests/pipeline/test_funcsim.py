"""Functional simulator tests: architected behaviour of whole programs."""

import pytest

from repro.errors import BudgetExceeded, SimulationError
from repro.asm.assembler import assemble
from repro.pipeline.funcsim import FuncSim

from tests.conftest import assemble_with_exit


def _run(body, **kwargs):
    return FuncSim(assemble_with_exit(body), **kwargs)


class TestArithmetic:
    def test_register_arithmetic(self):
        sim = _run("""
        li $t0, 21
        li $t1, 2
        mul $t2, $t0, $t1
        move $a0, $t2
        li $v0, 1
        syscall
        """)
        assert sim.run().console == "42"

    def test_wraparound(self):
        sim = _run("""
        li $t0, 0x7FFFFFFF
        addi $t0, $t0, 1
        move $a0, $t0
        li $v0, 1
        syscall
        """)
        assert sim.run().console == str(-(1 << 31))

    def test_hi_lo(self):
        sim = _run("""
        li $t0, 100000
        li $t1, 100000
        multu $t0, $t1
        mfhi $a0
        li $v0, 1
        syscall
        li $a0, ' '
        li $v0, 11
        syscall
        mflo $a0
        li $v0, 1
        syscall
        """)
        hi, lo = divmod(100000 * 100000, 1 << 32)
        result = sim.run()
        from repro.utils.bitops import to_signed32
        assert result.console == f"{hi} {to_signed32(lo)}"


class TestControlFlow:
    def test_loop_sum(self):
        sim = _run("""
        li $t0, 10
        li $s0, 0
    loop:
        addu $s0, $s0, $t0
        addi $t0, $t0, -1
        bgtz $t0, loop
        move $a0, $s0
        li $v0, 1
        syscall
        """)
        assert sim.run().console == "55"

    def test_function_call(self):
        sim = _run("""
        li $a0, 5
        jal double
        move $a0, $v0
        li $v0, 1
        syscall
        j done
    double:
        sll $v0, $a0, 1
        jr $ra
    done:
        """)
        assert sim.run().console == "10"

    def test_nested_calls_with_stack(self):
        sim = _run("""
        li $a0, 6
        jal fact
        move $a0, $v0
        li $v0, 1
        syscall
        j done
    fact:
        li $v0, 1
        blez $a0, fact_end
        addi $sp, $sp, -8
        sw $ra, 0($sp)
        sw $a0, 4($sp)
        addi $a0, $a0, -1
        jal fact
        lw $a0, 4($sp)
        lw $ra, 0($sp)
        addi $sp, $sp, 8
        mul $v0, $v0, $a0
    fact_end:
        jr $ra
    done:
        """)
        assert sim.run().console == "720"


class TestMemoryOps:
    def test_store_load_bytes_halves(self):
        sim = _run("""
        .data
    buf: .space 8
        .text
        la $t0, buf
        li $t1, 0xAB
        sb $t1, 0($t0)
        li $t1, 0x1234
        sh $t1, 2($t0)
        lbu $a0, 0($t0)
        li $v0, 1
        syscall
        li $a0, ' '
        li $v0, 11
        syscall
        lh $a0, 2($t0)
        li $v0, 1
        syscall
        """)
        assert sim.run().console == "171 4660"

    def test_sign_extending_load(self):
        sim = _run("""
        .data
    v: .byte 0xFF
        .text
        la $t0, v
        lb $a0, 0($t0)
        li $v0, 1
        syscall
        """)
        assert sim.run().console == "-1"


class TestSyscalls:
    def test_print_string(self):
        sim = _run("""
        .data
    msg: .asciiz "hi there"
        .text
        la $a0, msg
        li $v0, 4
        syscall
        """)
        assert sim.run().console == "hi there"

    def test_read_int(self):
        sim = _run("""
        li $v0, 5
        syscall
        move $a0, $v0
        li $v0, 1
        syscall
        """, inputs=[1234])
        assert sim.run().console == "1234"

    def test_exit_code(self):
        program = assemble("""
        li $a0, 7
        li $v0, 17
        syscall
        """)
        assert FuncSim(program).run().exit_code == 7

    def test_read_int_empty_queue_errors(self):
        sim = _run("""
        li $v0, 5
        syscall
        """)
        with pytest.raises(SimulationError):
            sim.run()


class TestLimitsAndHooks:
    def test_instruction_limit(self):
        program = assemble("spin: j spin")
        with pytest.raises(BudgetExceeded, match="instruction limit"):
            FuncSim(program, max_instructions=100).run()

    def test_fetch_hook_sees_every_word(self):
        seen = []
        program = assemble_with_exit("nop\nnop")

        def hook(address, word):
            seen.append(address)
            return word

        FuncSim(program, fetch_hook=hook).run()
        assert seen[0] == program.entry
        assert len(seen) == 4  # 2 nops + li + syscall

    def test_block_trace_partitions_execution(self):
        program = assemble_with_exit("""
        li $t0, 3
    loop:
        addi $t0, $t0, -1
        bgtz $t0, loop
        """)
        result = FuncSim(program, collect_trace=True).run()
        total = sum(event.length for event in result.block_trace)
        assert total == result.instructions

    def test_trace_blocks_end_at_control_flow(self):
        from repro.isa.encoding import decode
        from repro.isa.properties import is_control_flow

        program = assemble_with_exit("""
        li $t0, 2
    loop:
        addi $t0, $t0, -1
        bgtz $t0, loop
        """)
        sim = FuncSim(program, collect_trace=True)
        result = sim.run()
        for event in result.block_trace:
            word = sim.state.memory.read_word(event.end)
            assert is_control_flow(decode(word))
