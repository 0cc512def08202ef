"""CFG construction tests."""

from repro.asm.assembler import assemble
from repro.cfg.graph import control_flow_graph, reachable_blocks

SOURCE = """
main:   li $t0, 3
loop:   addi $t0, $t0, -1
        bgtz $t0, loop
        li $v0, 10
        syscall
"""


class TestControlFlowGraph:
    def test_nodes_are_partition_blocks(self):
        program = assemble(SOURCE)
        graph = control_flow_graph(program)
        starts = {node[0] for node in graph}
        assert program.entry in starts
        assert program.symbols["loop"] in starts

    def test_loop_edge_exists(self):
        program = assemble(SOURCE)
        graph = control_flow_graph(program)
        loop_block = next(n for n in graph if n[0] == program.symbols["loop"])
        assert loop_block in graph[loop_block] or any(
            successor[0] == program.symbols["loop"]
            for successor in graph[loop_block]
        )

    def test_branch_has_two_successors(self):
        program = assemble(SOURCE)
        graph = control_flow_graph(program)
        loop_block = next(n for n in graph if n[0] == program.symbols["loop"])
        assert len(graph[loop_block]) == 2

    def test_reachability_covers_live_code(self):
        program = assemble(SOURCE)
        reachable = reachable_blocks(program)
        starts = {key[0] for key in reachable}
        assert program.entry in starts
        assert program.symbols["loop"] in starts

    def test_dead_code_unreachable(self):
        program = assemble("""
main:   j end
dead:   li $t0, 1
        nop
end:    li $v0, 10
        syscall
        """)
        reachable = reachable_blocks(program)
        starts = {key[0] for key in reachable}
        assert program.symbols["dead"] not in starts
