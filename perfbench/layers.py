"""Per-layer metrics: the traced operation's ledger and fixed-work rates.

:data:`PER_LAYER` is the single list of per-layer metrics, each with its
unit, the end-to-end metric it should move and the workloads it should
move it on (written down before measuring).  A metric a workload does
not exercise reads 0 there and is reported as not exercised.
"""

from __future__ import annotations

import time
from collections import defaultdict

from probes import PREFIX
from hostspeed import host_loop_s

CAMPAIGNS = "campaign-golden, campaign-pipeline"
SERVICE = "campaign-golden's traced serve lifetime"

#: name, unit, end-to-end metric it should move, workloads it moves it on.
PER_LAYER: list[tuple[str, str, str, str]] = [
    ("cli.import_s", "s", "setup_s", "all"),
    ("faults.context_s", "s", "setup_s", CAMPAIGNS),
    ("faults.classify_us", "us", "ops_per_s", "campaign-golden"),
    ("golden.record_s", "s", "setup_s; ops_per_s", "campaign-golden; dse-sweep"),
    ("golden.batch_ms", "ms", "ops_per_s", "campaign-golden"),
    ("golden.instr_per_fault", "count", "ops_per_s", "campaign-golden"),
    ("golden.restores_per_fault", "count", "ops_per_s", "campaign-golden"),
    ("golden.prefix_replayed_per_fault", "count", "ops_per_s", "campaign-golden"),
    ("funcsim.instr_per_s", "1/s", "ops_per_s", "campaign-golden, dse-sweep; not campaign-pipeline"),
    ("funcsim.monitored_instr_per_s", "1/s", "ops_per_s", "dse-sweep, campaign-golden; not campaign-pipeline"),
    ("funcsim.snapshot_us", "us", "ops_per_s", "dse-sweep; not campaign-pipeline"),
    ("funcsim.restore_us", "us", "ops_per_s", "campaign-golden; not campaign-pipeline"),
    ("isa.decode_words_per_s", "1/s", "setup_s", "all"),
    ("pipeline.cycles_per_s", "1/s", "ops_per_s", "campaign-pipeline"),
    ("pgolden.batch_ms", "ms", "ops_per_s", "campaign-pipeline"),
    ("pgolden.record_s", "s", "setup_s", "campaign-pipeline"),
    ("pgolden.cycles_per_fault", "count", "ops_per_s", "campaign-pipeline"),
    ("cic.blocks_per_s", "1/s", "ops_per_s", "campaign-golden"),
    ("cic.replay_blocks_per_s", "1/s", "ops_per_s", "dse-sweep"),
    ("records.encode_us", "us", "ops_per_s", "campaign-golden"),
    ("records.bytes_per_fault", "count", "ops_per_s", "campaign-golden"),
    ("harness.commit_ms", "ms", "ops_per_s", "campaign-golden"),
    ("pool.spinup_s", "s", "setup_s", "dse-sweep"),
    ("pool.roundtrip_ms", "ms", "ops_per_s", "dse-sweep"),
    ("dse.measure_s", "s", "ops_per_s", "dse-sweep"),
    ("dse.cache_hit_rate", "fraction", "ops_per_s", "dse-sweep"),
    ("service.jobs_per_s", "1/s", "(service, untimed)", SERVICE),
    ("service.first_record_p50_ms", "ms", "(service, untimed)", SERVICE),
    ("service.first_record_p90_ms", "ms", "(service, untimed)", SERVICE),
    ("service.queue_wait_ms", "ms", "service.first_record_p90_ms; service.jobs_per_s", SERVICE),
    ("service.stream_lag_ms", "ms", "service.first_record_p90_ms; service.jobs_per_s", SERVICE),
    ("service.cache_hit_rate", "fraction", "service.first_record_p90_ms; service.jobs_per_s", SERVICE),
    ("ledger.residual_frac", "fraction", "(ledger check)", f"{CAMPAIGNS}, dse-sweep"),
    ("ledger.kernel_model_ratio", "fraction", "(ledger check)", "campaign-golden"),
    ("trace.overhead_frac", "fraction", "(tracing cost)", f"{CAMPAIGNS}, dse-sweep"),
]

#: Kernel-only golden faults/s must lie within this factor band of
#: ``funcsim.monitored_instr_per_s / golden.instr_per_fault``.  The
#: kernel also restores, snapshots, plans and classifies, and runs with
#: the tracing probes on, so it reads below the pure-simulation model:
#: 0.67 to 0.92 over six traced runs of ``campaign-golden`` on a
#: two-core test host, widened by a fifth for host noise.
KERNEL_MODEL_BAND = (0.55, 1.1)


def kernel_model_ratio(ledgers: list[tuple[Ledger, float]],
                       monitored_rate: float) -> float | None:
    """Kernel-only golden faults/s over the traced operations, against
    ``monitored_rate / golden.instr_per_fault``.

    *ledgers* pairs each operation's ledger with the factor that scales
    its times to the reference host speed; *monitored_rate* is already at
    that speed.  ``None`` when no operation ran the golden kernel in the
    main process (a sweep's kernels run in pool workers, in small attack
    batches that fall back to forking at zero too often to fit a model).
    """
    faults = instr = 0
    seconds = 0.0
    for ledger, scale in ledgers:
        if ledger.in_workers:
            continue
        faults += ledger.count("golden.batch_faults")
        instr += ledger.count("funcsim.instr@golden.batch") + ledger.count(
            "funcsim.instr@faults.classify"
        )
        seconds += ledger.inclusive["golden.batch"] * scale
    if not faults:
        return None
    return (faults / seconds) / (monitored_rate / (instr / faults))


# ----------------------------------------------------------------------
# The traced operation's ledger
# ----------------------------------------------------------------------


def merge_telemetry(*parts: dict) -> dict:
    """Add telemetry snapshots (spans, counters, histograms) together."""
    merged = {"spans": defaultdict(lambda: {"count": 0, "seconds": 0.0}),
              "counters": defaultdict(int),
              "histograms": defaultdict(lambda: {"count": 0, "sum": 0.0})}
    for part in parts:
        for path, entry in (part or {}).get("spans", {}).items():
            merged["spans"][path]["count"] += entry["count"]
            merged["spans"][path]["seconds"] += entry["seconds"]
        for name, value in (part or {}).get("counters", {}).items():
            merged["counters"][name] += value
        for name, entry in (part or {}).get("histograms", {}).items():
            merged["histograms"][name]["count"] += entry["count"]
            merged["histograms"][name]["sum"] += entry["sum"]
    return merged


class Ledger:
    """Inclusive time, self time and calls per layer, from span paths.

    A layer's self time is its span's time minus that of the layer
    spans nested directly inside it; the program's own spans between
    them are transparent.
    """

    def __init__(self, telemetry: dict, in_workers: bool):
        self.in_workers = in_workers
        self.counters = telemetry["counters"]
        self.histograms = telemetry["histograms"]
        self.inclusive: dict[str, float] = defaultdict(float)
        self.own: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Layer time in the main process not nested in another layer.
        self.top_level = 0.0
        for path, entry in telemetry["spans"].items():
            parts = path.split("/")
            if not parts[-1].startswith(PREFIX):
                continue
            name = parts[-1][len(PREFIX):]
            self.inclusive[name] += entry["seconds"]
            self.own[name] += entry["seconds"]
            self.calls[name] += entry["count"]
            parent = next(
                (part for part in reversed(parts[:-1]) if part.startswith(PREFIX)),
                None,
            )
            if parent is not None:
                self.own[parent[len(PREFIX):]] -= entry["seconds"]
            elif not (in_workers and (parts[0] == "shard" or name == "pool.init")):
                self.top_level += entry["seconds"]

    def count(self, name: str) -> int:
        return self.counters.get(PREFIX + name, 0)


def traced_metrics(ledger: Ledger, import_s: float, wall_s: float,
                   untraced_wall_s: float, faults: int,
                   bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced operation.

    A metric whose layer the operation never entered is left out, so the
    report can tell "not exercised" from a measured zero.
    """
    inc, own, calls = ledger.inclusive, ledger.own, ledger.calls
    metrics = {"cli.import_s": import_s}
    for metric, layer, table, scale in (
        ("faults.context_s", "faults.context", inc, 1.0),
        ("faults.classify_us", "faults.classify", own, 1e6),
        ("golden.record_s", "golden.record", inc, 1.0),
        ("golden.batch_ms", "golden.batch", own, 1e3),
        ("pgolden.record_s", "pgolden.record", inc, 1.0),
        ("pgolden.batch_ms", "pgolden.batch", own, 1e3),
        ("dse.measure_s", "dse.measure", inc, 1.0),
    ):
        if calls.get(layer):
            metrics[metric] = table[layer] / calls[layer] * scale
    golden_faults = ledger.count("golden.batch_faults")
    instr = ledger.count("funcsim.instr@golden.batch") + ledger.count(
        "funcsim.instr@faults.classify"
    )
    if golden_faults:
        metrics["golden.instr_per_fault"] = instr / golden_faults
        metrics["golden.restores_per_fault"] = (
            ledger.count("funcsim.restores@golden.batch") / golden_faults
        )
        metrics["golden.prefix_replayed_per_fault"] = (
            ledger.counters.get("golden.batch.prefix_replayed", 0) / golden_faults
        )
    pipeline_faults = ledger.count("pgolden.batch_faults")
    if pipeline_faults:
        metrics["pgolden.cycles_per_fault"] = (
            ledger.count("pipeline.cycles@faults.classify_pipeline") / pipeline_faults
        )
    if faults:
        metrics["records.bytes_per_fault"] = bytes_written / faults
    commits = ledger.histograms.get(PREFIX + "harness.commit_s")
    if commits and commits["count"]:
        metrics["harness.commit_ms"] = commits["sum"] / commits["count"] * 1e3
    if calls.get("pool.create"):
        metrics["pool.spinup_s"] = (
            inc["pool.publish"] + inc["pool.create"] + inc["pool.init"] / calls["pool.init"]
        )
    measure_calls = ledger.count("dse.measure_calls")
    if measure_calls:
        metrics["dse.cache_hit_rate"] = 1.0 - calls["dse.measure"] / measure_calls
    metrics["ledger.residual_frac"] = (wall_s - import_s - ledger.top_level) / wall_s
    metrics["trace.overhead_frac"] = wall_s / untraced_wall_s - 1.0
    return metrics


# ----------------------------------------------------------------------
# Fixed-work rates
# ----------------------------------------------------------------------


def _best_of(repeats: int, work) -> float:
    """Fewest seconds of *repeats* calls of ``work()``: other tenants of
    a shared host only ever slow a call down."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        work()
        times.append(time.perf_counter() - started)
    return min(times)


def micro_rates(scale: str, repeats: int = 5) -> tuple[dict[str, float], float]:
    """Fixed-work rates of each layer on the ``sha`` workload at *scale*,
    and :func:`hostspeed.host_loop_s` around the monitored ``FuncSim`` rate
    (the ledger check compares that rate with a traced operation's).

    Every rate times the same work on every run, so it moves only when
    the layer's code does: decode the text segment, run the program
    unmonitored and monitored on ``FuncSim`` and monitored on
    ``PipelineCPU``, snapshot and restore a mid-run simulator, fold and
    check each executed block through a fresh checker, replay the block
    trace through the IHT, encode campaign records, and round-trip empty
    shards through a two-worker pool.
    """
    from repro.cic.replay import replay_trace
    from repro.exec import CampaignSpec
    from repro.exec.golden import build_golden_store, run_batch_golden
    from repro.exec.records import FaultRecord, dump_line
    from repro.faults.campaign import FaultCampaign, WarmProcess
    from repro.isa.encoding import decode
    from repro.osmodel.policies import get_policy
    from repro.pipeline.cpu import PipelineCPU
    from repro.pipeline.funcsim import FuncSim, run_program
    from repro.errors import DecodingError

    spec = CampaignSpec(workload="sha", scale=scale, backend="golden")
    context = spec.build_context()
    warm = WarmProcess.from_context(context)
    program = context.program
    golden = run_program(program, collect_trace=True, inputs=context.inputs)
    instructions = golden.instructions
    rates: dict[str, float] = {}

    words = [(address, program.word_at(address)) for address in program.text_addresses()]

    def decode_all():
        for address, word in words:
            try:
                decode(word, address)
            except DecodingError:
                pass

    rates["isa.decode_words_per_s"] = len(words) * 20 / _best_of(
        repeats, lambda: [decode_all() for _ in range(20)]
    )

    def funcsim(monitored: bool):
        return FuncSim(
            program,
            monitor=warm.fresh_checker(context) if monitored else None,
            inputs=context.inputs,
            decode_cache=warm.decode_cache,
        )

    rates["funcsim.instr_per_s"] = instructions / _best_of(
        repeats, lambda: funcsim(False).run()
    )
    loop_before = host_loop_s()
    rates["funcsim.monitored_instr_per_s"] = instructions / _best_of(
        repeats, lambda: funcsim(True).run()
    )
    monitored_loop_s = (loop_before + host_loop_s()) / 2

    paused = funcsim(True)
    paused.run(until=instructions // 2)
    snapshot = paused.snapshot()
    spins = 200
    rates["funcsim.snapshot_us"] = _best_of(
        repeats, lambda: [paused.snapshot() for _ in range(spins)]
    ) / spins * 1e6
    rates["funcsim.restore_us"] = _best_of(
        repeats, lambda: [paused.restore(snapshot) for _ in range(spins)]
    ) / spins * 1e6

    pipeline_cycles = []

    def pipeline_run():
        cpu = PipelineCPU(
            program, monitor=warm.fresh_checker(context),
            inputs=context.inputs, decode_cache=warm.decode_cache,
        )
        pipeline_cycles.append(cpu.run().cycles)

    seconds = _best_of(max(repeats - 2, 1), pipeline_run)
    rates["pipeline.cycles_per_s"] = pipeline_cycles[0] / seconds

    blocks = [
        (event.end, [(address, program.word_at(address))
                     for address in range(event.start, event.end + 4, 4)])
        for event in golden.block_trace
    ]

    def fold_and_check():
        checker = warm.fresh_checker(context)
        for end, block in blocks:
            for address, word in block:
                checker.on_instruction(address, word)
            checker.on_block_end(end)

    rates["cic.blocks_per_s"] = len(blocks) / _best_of(repeats, fold_and_check)
    rates["cic.replay_blocks_per_s"] = len(golden.block_trace) / _best_of(
        repeats,
        lambda: replay_trace(
            golden.block_trace, warm.fht, context.iht_size,
            get_policy(context.policy_name),
        ),
    )

    faults = FaultCampaign.from_context(context).random_single_bit(256, seed=1)
    results = run_batch_golden(build_golden_store(context, warm), faults)

    def encode_all():
        for index, result in enumerate(results):
            dump_line(FaultRecord.from_result(index, index // 16, result).to_json())

    rates["records.encode_us"] = _best_of(repeats, encode_all) / len(results) * 1e6
    rates["pool.roundtrip_ms"] = _pool_roundtrip_ms(repeats)
    return rates, monitored_loop_s


class NullFactory:
    """A workspace factory with no work: shards round-trip empty."""

    record_type = "record"
    kind = "null"

    def build(self, shared=None):
        return {}

    def run_items(self, workspace, start, shard, items):
        return []


def _pool_roundtrip_ms(repeats: int, trips: int = 40) -> float:
    from repro.exec.pool import WarmPool

    pool = WarmPool(("perfbench-null",), NullFactory(), 2, None)
    try:
        list(pool.imap_shards([(0, 0, [], 0)]))  # workers are up

        def dispatch():
            for trip in range(trips):
                list(pool.imap_shards([(trip, 0, [], 0)]))

        return _best_of(repeats, dispatch) / trips * 1e3
    finally:
        pool.close()
