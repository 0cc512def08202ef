"""Simulator and component micro-benchmarks.

Not a paper artifact — these track the performance of the substrate itself
(instructions/second of each engine, hash/CAM kernel throughput), which is
what bounds how large an evaluation sweep can get.  Each test records the
seconds of one call from pytest-benchmark's timing (its fastest round:
other tenants of a shared host only ever slow a call down) and the rate
of the work that call does.
"""

from repro.cic.hashes import get_hash
from repro.cic.iht import InternalHashTable
from repro.isa.encoding import decode
from repro.pipeline.cpu import PipelineCPU
from repro.pipeline.funcsim import FuncSim
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
