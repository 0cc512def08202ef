"""Instruction classification predicates and static control-flow analysis.

These predicates define what counts as a *flow-control instruction* — the
events that delimit basic blocks in the paper's monitoring scheme (Section
4.2: "Flow control instructions, such as branch and jump, indicate the end
of a basic block").  ``syscall`` and ``break`` also transfer control (to the
OS) and are treated as block terminators; the run-time monitor checks the
block ending at them as well.
"""

from __future__ import annotations

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Mnemonic
from repro.utils.bitops import MASK32

#: Conditional branches (PC-relative, may fall through).
BRANCHES = frozenset(
    {
        Mnemonic.BEQ,
        Mnemonic.BNE,
        Mnemonic.BLEZ,
        Mnemonic.BGTZ,
        Mnemonic.BLTZ,
        Mnemonic.BGEZ,
    }
)

#: Unconditional direct jumps.
DIRECT_JUMPS = frozenset({Mnemonic.J, Mnemonic.JAL})

#: Register-indirect jumps (targets unknown statically in general).
INDIRECT_JUMPS = frozenset({Mnemonic.JR, Mnemonic.JALR})

#: Control transfers to the operating system.
TRAPS = frozenset({Mnemonic.SYSCALL, Mnemonic.BREAK})

#: Everything that terminates a dynamic basic block.
CONTROL_FLOW = BRANCHES | DIRECT_JUMPS | INDIRECT_JUMPS | TRAPS

#: Call instructions (write a return address).
CALLS = frozenset({Mnemonic.JAL, Mnemonic.JALR})


def is_branch(instruction: Instruction) -> bool:
    """True for conditional PC-relative branches."""
    return instruction.mnemonic in BRANCHES


def is_jump(instruction: Instruction) -> bool:
    """True for unconditional jumps, direct or indirect."""
    return instruction.mnemonic in DIRECT_JUMPS or instruction.mnemonic in INDIRECT_JUMPS


def is_control_flow(instruction: Instruction) -> bool:
    """True for every basic-block-terminating instruction."""
    return instruction.mnemonic in CONTROL_FLOW


def is_call(instruction: Instruction) -> bool:
    """True for jal/jalr."""
    return instruction.mnemonic in CALLS


def is_load(instruction: Instruction) -> bool:
    return instruction.is_load()


def is_store(instruction: Instruction) -> bool:
    return instruction.is_store()


def branch_target(instruction: Instruction, address: int) -> int:
    """Target address of a conditional branch located at *address*.

    The offset is in words relative to the instruction following the branch,
    matching the MIPS encoding the assembler emits.
    """
    if not is_branch(instruction):
        raise ValueError(f"{instruction.mnemonic} is not a branch")
    return (address + 4 + (instruction.imm << 2)) & MASK32


def jump_target(instruction: Instruction, address: int) -> int:
    """Target address of a direct jump located at *address*."""
    if instruction.mnemonic not in DIRECT_JUMPS:
        raise ValueError(f"{instruction.mnemonic} is not a direct jump")
    return ((address + 4) & 0xF0000000) | (instruction.target << 2)


def static_successors(instruction: Instruction, address: int) -> tuple[int, ...]:
    """Statically known successor addresses of the instruction at *address*.

    Conditional branches contribute both the taken target and the
    fall-through; direct jumps contribute the target; indirect jumps and
    traps contribute nothing statically (their successors are discovered via
    the entry-point rule during basic-block enumeration); ordinary
    instructions contribute the fall-through.
    """
    if is_branch(instruction):
        return (branch_target(instruction, address), (address + 4) & MASK32)
    if instruction.mnemonic in DIRECT_JUMPS:
        return (jump_target(instruction, address),)
    if instruction.mnemonic in INDIRECT_JUMPS or instruction.mnemonic in TRAPS:
        return ()
    return ((address + 4) & MASK32,)
