"""Shared test fixtures and helpers."""

from __future__ import annotations

import pytest

from repro.asm.assembler import assemble
from repro.pipeline.cpu import PipelineCPU
from repro.pipeline.funcsim import FuncSim, run_timed


EXIT_SNIPPET = """
        li   $v0, 10
        syscall
"""


def assemble_with_exit(body: str, name: str = "test"):
    """Assemble *body* with a standard exit appended."""
    return assemble(body + EXIT_SNIPPET, name=name)


def run_both(program, **kwargs):
    """Run on both engines; assert architected equivalence, and cycles
    replayed over the FuncSim run equal to the pipeline's; return results."""
    func_result = run_timed(FuncSim(program, **kwargs))
    pipe_result = PipelineCPU(program, **kwargs).run()
    assert func_result.console == pipe_result.console
    assert func_result.exit_code == pipe_result.exit_code
    assert func_result.instructions == pipe_result.instructions
    assert func_result.cycles == pipe_result.cycles, (
        f"cycle mismatch: funcsim={func_result.cycles} "
        f"pipeline={pipe_result.cycles}"
    )
    return func_result, pipe_result


@pytest.fixture
def run_source():
    """Fixture: assemble a snippet (exit appended) and run on both engines."""

    def runner(body: str, **kwargs):
        program = assemble_with_exit(body)
        return run_both(program, **kwargs)[0]

    return runner
