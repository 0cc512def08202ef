"""Control-flow graph construction on top of the canonical partition.

The CFG maps each canonical basic block (keyed by ``(start, end)``) to
the set of its static successors.  Indirect jumps (``jr``/``jalr``) get
edges to every text-symbol block, the same conservative cover the
entry-point enumeration uses.

The graph backs workload structure reports (block counts, loop detection)
and the DESIGN-level sanity checks comparing our workloads' shapes to the
paper's quoted block counts.
"""

from __future__ import annotations

from repro.asm.program import Program
from repro.cfg.basic_blocks import partition_blocks
from repro.errors import DecodingError
from repro.isa.encoding import decode
from repro.isa.properties import (
    BRANCHES,
    DIRECT_JUMPS,
    INDIRECT_JUMPS,
    TRAPS,
    branch_target,
    jump_target,
)

#: A canonical basic block's ``(start, end)`` key.
Block = tuple[int, int]


def control_flow_graph(program: Program) -> dict[Block, set[Block]]:
    """Build the canonical CFG of *program*: block -> successor blocks."""
    blocks = partition_blocks(program)
    graph: dict[Block, set[Block]] = {block.key: set() for block in blocks}
    by_start = {block.start: block for block in blocks}
    text_symbols = sorted(
        value
        for value in program.symbols.values()
        if program.text_start <= value < program.text_end and value in by_start
    )
    for block in blocks:
        terminator_address = block.end
        try:
            terminator = decode(
                program.text.word_at(terminator_address), terminator_address
            )
        except DecodingError:
            continue
        successors: list[int] = []
        m = terminator.mnemonic
        if m in BRANCHES:
            successors.append(branch_target(terminator, terminator_address))
            successors.append(terminator_address + 4)
        elif m in DIRECT_JUMPS:
            successors.append(jump_target(terminator, terminator_address))
            if m.value == "jal":
                # The return lands at the call's fall-through eventually;
                # model the call edge only (interprocedural edge).
                pass
        elif m in INDIRECT_JUMPS:
            successors.extend(text_symbols)
        elif m in TRAPS:
            successors.append(terminator_address + 4)
        else:  # block split at a leader: plain fall-through
            successors.append(terminator_address + 4)
        for target in successors:
            successor = by_start.get(target)
            if successor is not None:
                graph[block.key].add(successor.key)
    return graph


def reachable_blocks(program: Program) -> set[Block]:
    """Blocks reachable from the entry block in the canonical CFG."""
    graph = control_flow_graph(program)
    entry_block = next((node for node in graph if node[0] == program.entry), None)
    if entry_block is None:
        return set()
    reached = {entry_block}
    stack = [entry_block]
    while stack:
        for successor in graph[stack.pop()]:
            if successor not in reached:
                reached.add(successor)
                stack.append(successor)
    return reached
