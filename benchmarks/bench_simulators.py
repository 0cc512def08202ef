"""Simulator and component micro-benchmarks.

Not a paper artifact — these track the performance of the substrate itself
(instructions/second of each engine, hash/CAM kernel throughput), which is
what bounds how large an evaluation sweep can get.  ``FuncSim`` is timed
both ways: alone (what the fault kernels and the recording run) and
through ``run_timed`` (the default ``--engine func`` CLI path), with the
share of that call its cycle replay takes.  Each test records the
seconds of one call from pytest-benchmark's timing (its fastest round:
other tenants of a shared host only ever slow a call down) and the rate
of the work that call does.
"""

import timeit

from repro.cic.hashes import get_hash
from repro.cic.iht import InternalHashTable
from repro.isa.encoding import decode
from repro.pipeline.cpu import PipelineCPU
from repro.pipeline.funcsim import FuncSim, run_timed
from repro.workloads.suite import build, workload_inputs


def record_rate(benchmark, record_bench, **work) -> None:
    """Record the seconds of one timed call and, per ``name=count`` of
    work that call does, the count and ``<name>_per_second``."""
    seconds = benchmark.stats.stats.min
    record_bench(
        seconds=float(f"{seconds:.4g}"),
        **work,
        **{
            f"{name}_per_second": round(count / seconds, 1)
            for name, count in work.items()
        },
    )


def test_funcsim_throughput(benchmark, record_bench):
    program = build("sha", "tiny")

    def run():
        return FuncSim(program, inputs=workload_inputs("sha", "tiny")).run()

    result = benchmark(run)
    benchmark.extra_info["instructions"] = result.instructions
    record_rate(benchmark, record_bench, instructions=result.instructions)
    assert result.exit_code == 0


def test_run_timed_throughput(benchmark, record_bench):
    program = build("sha", "tiny")
    inputs = workload_inputs("sha", "tiny")

    def plain():
        return FuncSim(program, inputs=inputs).run()

    def timed():
        return run_timed(FuncSim(program, inputs=inputs))

    result = benchmark(timed)
    # Best of ten each, interleaved so both see the same host load.
    best = {plain: float("inf"), timed: float("inf")}
    for _ in range(10):
        for run in best:
            best[run] = min(best[run], timeit.timeit(run, number=1))
    record_rate(benchmark, record_bench, instructions=result.instructions)
    record_bench(replay_share=round(1 - best[plain] / best[timed], 3))
    assert result.cycles == PipelineCPU(program, inputs=inputs).run().cycles


def test_pipeline_throughput(benchmark, record_bench):
    program = build("sha", "tiny")

    def run():
        return PipelineCPU(program, inputs=workload_inputs("sha", "tiny")).run()

    result = benchmark(run)
    benchmark.extra_info["cycles"] = result.cycles
    record_rate(benchmark, record_bench, cycles=result.cycles)
    assert result.exit_code == 0


def test_decode_throughput(benchmark, record_bench):
    program = build("rijndael", "tiny")
    words = [program.text.word_at(a) for a in program.text_addresses()]

    def decode_all():
        return [decode(word) for word in words]

    decoded = benchmark(decode_all)
    record_rate(benchmark, record_bench, words=len(words))
    assert len(decoded) == len(words)


def test_xor_hash_throughput(benchmark, record_bench):
    algorithm = get_hash("xor")
    words = list(range(0, 4000))

    def fold():
        state = algorithm.initial()
        for word in words:
            state = algorithm.update(state, word)
        return algorithm.finalize(state)

    benchmark(fold)
    record_rate(benchmark, record_bench, words=len(words))


def test_sha1_hash_throughput(benchmark, record_bench):
    algorithm = get_hash("sha1")
    words = list(range(0, 400))

    def fold():
        state = algorithm.initial()
        for word in words:
            state = algorithm.update(state, word)
        return algorithm.finalize(state)

    benchmark(fold)
    record_rate(benchmark, record_bench, words=len(words))


def test_iht_lookup_throughput(benchmark, record_bench):
    iht = InternalHashTable(16)
    for index in range(16):
        iht.insert(index * 16, index * 16 + 12, index)

    def lookups():
        for index in range(16):
            iht.lookup(index * 16, index * 16 + 12, index)

    benchmark(lookups)
    record_rate(benchmark, record_bench, lookups=16)
