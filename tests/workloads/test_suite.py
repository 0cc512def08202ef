"""Workload suite tests: every program computes what its reference says."""

import pytest

from repro.pipeline.funcsim import FuncSim, run_timed
from repro.workloads.suite import (
    WORKLOAD_NAMES,
    build,
    expected_console,
    verify,
    workload_inputs,
)


class TestRegistry:
    def test_nine_workloads(self):
        assert len(WORKLOAD_NAMES) == 9

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            build("quicksort")

    def test_build_cached(self):
        assert build("bitcount", "tiny") is build("bitcount", "tiny")


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
class TestVerification:
    def test_tiny_scale_matches_reference(self, name):
        assert verify(name, "tiny")

    def test_small_scale_matches_reference(self, name):
        assert verify(name, "small")

    def test_console_output_nonempty(self, name):
        assert expected_console(name, "tiny").strip()

    def test_deterministic(self, name):
        program = build(name, "tiny")
        first = run_timed(FuncSim(program, inputs=workload_inputs(name, "tiny")))
        second = run_timed(FuncSim(program, inputs=workload_inputs(name, "tiny")))
        assert first.console == second.console
        assert first.cycles == second.cycles > 0


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_exits_cleanly(name):
    program = build(name, "tiny")
    result = FuncSim(program, inputs=workload_inputs(name, "tiny")).run()
    assert result.exit_code == 0
    assert result.instructions > 100
