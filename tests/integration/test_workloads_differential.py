"""Integration: both simulators, both monitor implementations, all workloads.

For every workload (tiny scale), the functional ISS with the behavioural
checker and the cycle-level pipeline with the *microoperation-driven*
monitor must agree on every observable: cycles (replayed over the ISS run
by ``run_timed``), console, instruction count, block trace, and monitor
statistics.  This single property transitively validates the scoreboard
replay against the stage machine and the paper's microoperation listings
against the behavioural CIC.
"""

import pytest

from repro.cfg.hashgen import build_fht
from repro.cic.hashes import get_hash
from repro.cic.iht import InternalHashTable
from repro.cic.micromonitor import MicroMonitor
from repro.osmodel.handler import OSExceptionHandler
from repro.osmodel.loader import load_process
from repro.osmodel.policies import get_policy
from repro.pipeline.cpu import PipelineCPU
from repro.pipeline.funcsim import FuncSim, run_timed
from repro.workloads.suite import WORKLOAD_NAMES, build, workload_inputs

IHT_SIZE = 8


def _micro_monitor(program, hash_name="xor"):
    algorithm = get_hash(hash_name)
    fht = build_fht(program, algorithm)
    iht = InternalHashTable(IHT_SIZE)
    handler = OSExceptionHandler(fht=fht, iht=iht, policy=get_policy("lru_half"))
    return MicroMonitor(iht, handler, algorithm)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_unmonitored_equivalence(name):
    program = build(name, "tiny")
    inputs = workload_inputs(name, "tiny")
    func_result = run_timed(FuncSim(program, collect_trace=True, inputs=inputs))
    pipe_result = PipelineCPU(program, collect_trace=True, inputs=inputs).run()
    assert func_result.cycles == pipe_result.cycles
    assert func_result.console == pipe_result.console
    assert func_result.instructions == pipe_result.instructions
    assert [e.key for e in func_result.block_trace] == [
        e.key for e in pipe_result.block_trace
    ]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_monitored_equivalence_fast_vs_micro(name):
    program = build(name, "tiny")
    inputs = workload_inputs(name, "tiny")
    process = load_process(program, iht_size=IHT_SIZE)
    func_result = run_timed(FuncSim(program, monitor=process.monitor, inputs=inputs))
    pipe_result = PipelineCPU(
        program, monitor=_micro_monitor(program), inputs=inputs
    ).run()
    assert func_result.cycles == pipe_result.cycles
    assert func_result.console == pipe_result.console
    for field in ("lookups", "hits", "misses", "mismatches", "os_cycles"):
        assert getattr(func_result.monitor_stats, field) == getattr(
            pipe_result.monitor_stats, field
        ), field


@pytest.mark.parametrize("name", ["bitcount", "stringsearch", "sha"])
def test_monitoring_cost_is_exactly_os_cycles(name):
    program = build(name, "tiny")
    inputs = workload_inputs(name, "tiny")
    baseline = run_timed(FuncSim(program, inputs=inputs))
    process = load_process(program, iht_size=IHT_SIZE)
    monitored = run_timed(FuncSim(program, monitor=process.monitor, inputs=inputs))
    assert monitored.cycles == baseline.cycles + monitored.monitor_stats.os_cycles
