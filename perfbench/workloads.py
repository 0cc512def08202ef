"""The benchmark's workloads: what each runs, how it is timed, what is checked.

Every timed operation is a cold ``repro`` CLI process (:class:`procs.Cli`).
A run makes a fixed number of operations, ``--seconds`` divided by the
workload's nominal operation time, each on its own input drawn from the
run's seed (a fault list, a sweep seed): the count never depends on how
fast the program is, so two commits time the same inputs, and the run
averages over as many inputs as it makes operations.  An untraced run
reports the end-to-end metrics; a traced run alternates untraced and
traced operations on one input, reads the layer ledger of the fastest
traced one, and adds the fixed-work rates of :func:`layers.micro_rates`
(and, on ``campaign-golden``, one lifetime of ``repro serve``: see
:class:`ServiceProbe`).  Correctness checks run after the timed region
and feed ``failed``.

Timings are scaled to a reference host speed.  Other tenants of a shared
host slow every process on it, by up to half for seconds to minutes at
a time; CPU time slows with wall time, so it is no way out.  The
measured process reads :func:`hostspeed.host_loop_s` just before it
imports ``repro`` and just after ``main`` returns (that time is left out
of its own), and its times are multiplied by ``REF_LOOP_S / loop_s``:
the time it would have taken on a host where the loop takes
``REF_LOOP_S``.  On a two-core test host, over six to eight 25-second
windows of the same operation, the median raw wall time spread by 0.10
to 0.27 (interquartile range over median), the scaled one by 0.08 to
0.09; the loop read in the benchmark's own process between operations
tracked the operation less well, and reading it on every CPU in turn
steadied the two-worker sweep.  Throughput is the run's units over its
summed scaled seconds; set-up time and memory are medians.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import checks
import layers
from procs import Cli

#: Work per operation.  ``full`` is the benchmark; ``tiny`` is the
#: self-test's quick pass over the same code paths.
SIZES = {
    "full": {"scale": "small", "faults": 1000, "oracle": 12, "dse_preset": "paper",
             "job_faults": 16, "job_chunk": 8, "service_s": 6},
    "tiny": {"scale": "tiny", "faults": 48, "oracle": 4, "dse_preset": "smoke",
             "job_faults": 16, "job_chunk": 8, "service_s": 2},
}

#: name and unit of every end-to-end metric, reported on every workload.
END_TO_END = [
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

#: The reference host speed: seconds :func:`hostspeed.host_loop_s` reads on
#: it (about a quiet moment of a two-core test host).
REF_LOOP_S = 0.025


def op_seed(seed: int, *path) -> int:
    """The seed handed to the program for the operation at *path* of a run."""
    return random.Random(":".join(map(str, (seed, *path)))).randrange(1, 2**31)


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(fraction * len(ordered)) - 1, 0)]


@dataclass
class Context:
    """One benchmark run's settings."""

    root: str
    workdir: str
    seed: int
    seconds: float
    trace: bool
    size: dict
    #: Called on each finished operation before its checks (self-test only).
    tamper: Callable | None = None


@dataclass
class RunResult:
    metrics: dict[str, float]
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


@dataclass
class Op:
    """One CLI operation and the results file it wrote."""

    cli: Cli
    out: str
    seed: int

    def scaled(self, seconds: float) -> float:
        """*seconds* of this operation at the reference host speed."""
        return seconds * REF_LOOP_S / self.cli.loop_s


def cli_metrics(done: list[tuple[Op, int]]) -> tuple[dict, list[str]]:
    """End-to-end metrics of the operations that completed work.

    A metric with no sample is left out, never reported as 0.
    """
    done = [(op, units) for op, units in done if units]
    setups = [op.scaled(op.cli.first_kernel_s) for op, _units in done
              if op.cli.first_kernel_s is not None]
    metrics = {}
    if done:
        metrics["ops_per_s"] = sum(units for _op, units in done) / sum(
            op.scaled(op.cli.wall_s) for op, _units in done
        )
        metrics["peak_rss_mb"] = statistics.median(op.cli.peak_rss_mb for op, _units in done)
    if setups:
        metrics["setup_s"] = statistics.median(setups)
    notes = [f"{len(done)} cold processes, {len(setups)} set-up samples, "
             f"reference loop {REF_LOOP_S * 1e3:.1f} ms"]
    notes += [
        f"op {op.out.rsplit('/', 1)[-1]}: {units} units in {op.cli.wall_s:.3f} s "
        f"(loop {op.cli.loop_s * 1e3:.1f} ms, scaled {op.scaled(op.cli.wall_s):.3f} s), "
        f"set-up {op.cli.first_kernel_s or 0:.3f} s, peak {op.cli.peak_rss_mb:.1f} MB"
        for op, units in done
    ]
    return metrics, notes


def unstamped(done: list[tuple[Op, int]]) -> list[str]:
    """Operations that did work but never reached a stamped kernel call:
    the set-up probe has lost its seam, and their set-up time is unknown."""
    return [
        f"op {op.out.rsplit('/', 1)[-1]}: no batch-kernel call was stamped, "
        f"so its set-up time is unknown"
        for op, units in done if units and op.cli.first_kernel_s is None
    ]


def ledger_check(metrics: dict[str, float]) -> tuple[list[str], list[str]]:
    """The two ledger checks: notes, and problems when the kernel-only
    golden rate leaves the stated band around the simulator model."""
    notes = [f"ledger: {metrics['ledger.residual_frac']:.1%} of the traced process's "
             f"wall time lies outside every named layer span"]
    ratio = metrics.get("ledger.kernel_model_ratio")
    if ratio is None:
        return notes, []
    low, high = layers.KERNEL_MODEL_BAND
    notes.append(
        f"ledger: kernel-only golden faults/s = {ratio:.3f} x "
        f"(funcsim.monitored_instr_per_s / golden.instr_per_fault), band [{low}, {high}]"
    )
    if low <= ratio <= high:
        return notes, []
    return notes, [f"ledger: kernel-only golden faults/s is {ratio:.3f} x the simulator "
                   f"model, outside the band [{low}, {high}]"]


def op_ledger(op: Op, in_workers: bool) -> layers.Ledger:
    """The layer ledger of a traced operation: its run's telemetry plus
    what the process still held when ``main`` returned."""
    metrics_path = op.out[: -len(".jsonl")] + ".metrics.json"
    with open(metrics_path, encoding="utf-8") as handle:
        run_telemetry = json.load(handle)["telemetry"]
    telemetry = layers.merge_telemetry(run_telemetry, op.cli.report.get("telemetry"))
    return layers.Ledger(telemetry, in_workers)


def ledger_of(op: Op, untraced: Op, in_workers: bool, faults: int) -> dict[str, float]:
    """Per-layer metrics of a traced operation against its untraced twin."""
    with open(op.out, encoding="utf-8") as handle:
        written = sum(len(line.encode()) for line in handle if '"type":"record"' in line)
    return layers.traced_metrics(
        op_ledger(op, in_workers),
        import_s=op.cli.report["import_s"],
        wall_s=op.cli.wall_s,
        untraced_wall_s=untraced.cli.wall_s,
        faults=faults,
        bytes_written=written,
    )


class CliWorkload:
    """Timing shared by the workloads whose operation is one CLI process.

    Subclasses name the argv, the JSONL record type of the results file,
    the nominal seconds of one operation, and the checks; this class
    makes the operations, reduces them to the end-to-end metrics, and
    runs the traced twin pairs.
    """

    name = ""
    why = ""
    record_type = "record"
    #: The layers run in pool workers (spans from ``shard`` paths are
    #: not the main process's time).
    in_workers = False
    #: About the seconds one operation takes: sets how many operations a
    #: run of ``--seconds`` makes.
    nominal_op_s = 1.0

    def argv(self, size: dict, seed, out, **options) -> list[str]:
        raise NotImplementedError

    def check(self, ctx: Context, ops: list[Op], cross: bool):
        """``(attempted, failed, problems, [(op, units done)])``; *cross*
        adds the costlier cross-checks on the first operation."""
        raise NotImplementedError

    def op_count(self, seconds: float) -> int:
        """Operations in a run of *seconds*, whatever the program's speed."""
        return max(1, round(seconds / self.nominal_op_s))

    def op(self, ctx: Context, index: int, seed: int, trace: bool = False, **options) -> Op:
        out = os.path.join(ctx.workdir, f"op{index}.jsonl")
        argv = self.argv(ctx.size, seed, out, **options)
        return Op(Cli(ctx.root, ctx.workdir, f"op{index}", argv, trace).run(), out, seed)

    def run(self, ctx: Context) -> RunResult:
        if ctx.trace:
            return self.run_traced(ctx)
        ops = [self.op(ctx, index, op_seed(ctx.seed, index))
               for index in range(self.op_count(ctx.seconds))]
        attempted, failed, problems, done = self.check(ctx, ops, cross=True)
        found = unstamped(done)
        failed += len(found)
        metrics, notes = cli_metrics(done)
        return RunResult(metrics, attempted, failed, problems + found, notes)

    def run_traced(self, ctx: Context) -> RunResult:
        """Untraced and traced operations on one input, in alternating
        pairs (half the untraced run's count): the fastest
        traced operation's ledger, the fastest of each kind for the
        tracing cost, and the requirement that tracing changes no record."""
        pairs = max(1, self.op_count(ctx.seconds) // 2)
        seed = op_seed(ctx.seed, 0)
        ops = [self.op(ctx, index, seed, trace=index % 2 == 1) for index in range(2 * pairs)]
        untraced, traced = ops[0::2], ops[1::2]
        attempted, failed, problems, _done = self.check(ctx, ops, cross=False)
        if not all(op.cli.ok for op in ops):
            return RunResult({}, attempted, failed, problems)
        micro, micro_loop_s = layers.micro_rates(ctx.size["scale"])
        records = checks.committed(traced[0].out, self.record_type)[1]
        faults = len(records) if self.record_type == "record" else 0
        fastest = min(traced, key=lambda op: op.cli.wall_s)
        plain = min(untraced, key=lambda op: op.cli.wall_s)
        metrics = ledger_of(fastest, plain, self.in_workers, faults)
        metrics.update(micro)
        ratio = layers.kernel_model_ratio(
            [(op_ledger(op, self.in_workers), op.scaled(1.0)) for op in traced],
            micro["funcsim.monitored_instr_per_s"] * micro_loop_s / REF_LOOP_S,
        )
        if ratio is not None:
            metrics["ledger.kernel_model_ratio"] = ratio
        notes, found = ledger_check(metrics)
        notes.insert(0, f"{pairs} twin pairs; fastest traced op {fastest.cli.wall_s:.3f} s, "
                        f"fastest untraced {plain.cli.wall_s:.3f} s")
        return RunResult(metrics, attempted, failed + len(found), problems + found, notes)


# ----------------------------------------------------------------------
# Fault campaigns through `repro campaign`
# ----------------------------------------------------------------------


class CampaignWorkload(CliWorkload):
    """``repro campaign sha`` with random single-bit faults, one worker."""

    def __init__(self, name: str, backend: str, nominal_op_s: float, why: str):
        self.name = name
        self.backend = backend
        self.nominal_op_s = nominal_op_s
        self.why = why

    def argv(self, size: dict, seed, out, **options) -> list[str]:
        return [
            "campaign", "sha", "--scale", size["scale"], "--backend", self.backend,
            "--faults", str(size["faults"]), "--seed", str(seed),
            "--workers", "1", "--out", str(out),
        ]

    def definition(self, size: dict) -> dict:
        work = {"argv": self.argv(size, "SEED", "OUT"), "oracle_sample": size["oracle"],
                "cross_backend": True}
        if self.backend == "golden":
            work["traced_service"] = ServiceProbe().definition(size)
        return work

    def check(self, ctx: Context, ops: list[Op], cross: bool):
        """Structure and printed summary of every operation; records equal
        to those of an earlier operation on the same fault list; on each
        first run of a fault list an oracle sample; and with *cross*, on
        the first operation, the other backend's detection coverage."""
        total = ctx.size["faults"]
        attempted = failed = 0
        problems: list[str] = []
        oracle = None
        sample = max(1, ctx.size["oracle"] // len({op.seed for op in ops}))
        seen: dict[int, tuple[int, dict]] = {}
        done: list[tuple[Op, int]] = []
        for number, op in enumerate(ops):
            attempted += total
            if not op.cli.ok:
                failed += total
                done.append((op, 0))
                problems.append(f"op {number} exited {op.cli.status}: {op.cli.stderr_tail()}")
                continue
            if ctx.tamper is not None:
                ctx.tamper(op)
            header, records, found = checks.committed(op.out, "record")
            if header.get("total") != total:
                found.append(f"op {number}: header total {header.get('total')} != {total}")
            found += checks.count_mismatch(
                f"op {number} printed summary vs records",
                checks.summary_counts(op.cli.stdout()), checks.record_counts(records),
            )
            if op.seed in seen:
                earlier, expected = seen[op.seed]
                found += [f"op {number}: record {index} differs from op {earlier}'s"
                          for index in sorted(set(records) | set(expected))
                          if records.get(index) != expected.get(index)]
            elif header:
                seen[op.seed] = (number, records)
                oracle = oracle or checks.CampaignOracle(header["spec"])
                found += oracle.mismatches(records, checks.oracle_sample(op.seed, total, sample))
                if cross and number == 0:
                    found += checks.count_mismatch(
                        f"op {number} outcome counts vs the other backend",
                        checks.coverage_counts(checks.record_counts(records)),
                        checks.coverage_counts(oracle.other_backend_counts(records)),
                    )
            done.append((op, len(records)))
            failed += min(len(found), total)
            problems += found
        return attempted, failed, problems, done

    def run_traced(self, ctx: Context) -> RunResult:
        """The twin pair, plus a ``repro serve`` lifetime on the golden
        backend (the service layer's only measurement)."""
        result = super().run_traced(ctx)
        if self.backend == "golden":
            service = ServiceProbe().run(ctx)
            result.metrics.update(service.metrics)
            result.attempted += service.attempted
            result.failed += service.failed
            result.problems += service.problems
            result.notes += service.notes
        return result


# ----------------------------------------------------------------------
# Design-space sweep through `repro dse sweep`
# ----------------------------------------------------------------------


class DseWorkload(CliWorkload):
    """``repro dse sweep --preset paper --workers 2``."""

    name = "dse-sweep"
    why = ("DSE sweep on a 2-worker warm pool: records 144 golden stores, "
           "replays Fig-6 block traces, runs attack batches")
    record_type = "point"
    in_workers = True
    nominal_op_s = 6.0
    workers = 2

    def argv(self, size: dict, seed, out, workers: int = workers) -> list[str]:
        return [
            "dse", "sweep", "--preset", size["dse_preset"], "--workers", str(workers),
            "--seed", str(seed), "--out", str(out),
        ]

    def definition(self, size: dict) -> dict:
        return {"argv": self.argv(size, "SEED", "OUT"), "identity_check_workers": 1}

    def check(self, ctx: Context, ops: list[Op], cross: bool):
        """Structure of every sweep file; points equal to those of an
        earlier operation on the same sweep seed; and with *cross*, on the
        first operation, identical points from a one-worker run."""
        attempted = failed = 0
        done: list[tuple[Op, int]] = []
        problems: list[str] = []
        seen: dict[int, tuple[str, dict]] = {}
        for number, op in enumerate(ops):
            if op.cli.ok and ctx.tamper is not None:
                ctx.tamper(op)
            header, records, found = checks.committed(op.out, "point")
            total = max(header.get("total", 0), 1)
            attempted += total
            if not op.cli.ok:
                failed += total
                done.append((op, 0))
                problems.append(f"op {number} exited {op.cli.status}: {op.cli.stderr_tail()}")
                continue
            mine = checks.point_lines(op.out)
            if cross and number == 0:
                serial = self.op(ctx, len(ops) + 1, op.seed, workers=1)
                if not serial.cli.ok:
                    found.append(f"one-worker sweep exited {serial.cli.status}")
                seen[op.seed] = ("the one-worker sweep", checks.point_lines(serial.out))
            reference, expected = seen.setdefault(op.seed, (f"op {number}", mine))
            found += [
                f"op {number}: point {index} differs from {reference}"
                for index in sorted(set(mine) | set(expected))
                if mine.get(index) != expected.get(index)
            ]
            done.append((op, len(records)))
            failed += min(len(found), total)
            problems += found
        return attempted, failed, problems, done


# ----------------------------------------------------------------------
# The multi-tenant service through `repro serve`
# ----------------------------------------------------------------------


class ServiceProbe:
    """One cold ``repro serve`` lifetime under a closed loop of two tenants.

    Each tenant submits a small ``sha`` golden campaign job, watches it
    to its end, and submits the next: a closed loop, so a slower server
    receives less load.  Every job has the same spec (so all but the
    first hit the checkpoint cache) and its own fault seed (so the loop
    averages over many fault lists).  The first job, the cache miss, is
    the warm-up; the loop after it is the sustained phase.

    Not a timed workload: its jobs/s and latency percentiles drift by a
    quarter between runs on a shared host.  It runs inside the traced
    run of ``campaign-golden``, whose kernel its jobs drive, so the
    service layer is measured and checked on every traced run.
    """

    tenants = 2

    def job(self, size: dict, seed) -> dict:
        return {
            "kind": "campaign",
            "spec": {"workload": "sha", "scale": size["scale"], "backend": "golden"},
            "faults": size["job_faults"], "seed": seed, "workers": 1,
            "chunk_size": size["job_chunk"],
        }

    def definition(self, size: dict) -> dict:
        return {"argv": ["serve", "--state-dir", "DIR"], "job": self.job(size, "SEED"),
                "tenants": self.tenants, "seconds": size["service_s"]}

    def submit_and_watch(self, client, size: dict, seed: int) -> dict:
        """One job from submit to the end of its stream."""
        submitted = time.perf_counter()
        job_id = client.submit(self.job(size, seed))["id"]
        watched = {"seed": seed, "first_record_s": None, "lags": [], "records": [],
                   "final": None}
        for line in client.watch(job_id):
            stream = line.get("stream")
            data = line.get("data") or {}
            if stream == "record" and data.get("type") == "record":
                if watched["first_record_s"] is None:
                    watched["first_record_s"] = time.perf_counter() - submitted
                watched["records"].append(data)
            elif stream == "event" and data.get("type") == "shard-committed":
                watched["lags"].append(time.time() - data["t"])
            elif stream == "end":
                watched["final"] = line["job"]
        return watched

    def lifetime(self, ctx: Context) -> dict:
        """Start a server, run the closed loop, stop the server."""
        from repro.service.client import ServiceClient, ServiceError

        seconds = ctx.size["service_s"]
        state_dir = os.path.join(ctx.workdir, "svc")
        socket_path = os.path.join(state_dir, "service.sock")
        server = Cli(ctx.root, ctx.workdir, "svc", ["serve", "--state-dir", state_dir])
        control = ServiceClient(socket_path=socket_path, client="warmup", timeout=60)
        life = {"server": server, "jobs": [], "problems": []}
        server.start()
        try:
            while "warm" not in life:
                if server.process.poll() is not None:
                    raise ServiceError("server exited before accepting a job")
                if time.perf_counter() - server.launched > 60:
                    raise ServiceError("server accepted no job within 60 s")
                try:
                    if not os.path.exists(socket_path):
                        raise ServiceError("not listening yet")
                    control.ping()
                except ServiceError:
                    time.sleep(0.002)
                    continue
                life["warm"] = self.submit_and_watch(
                    control, ctx.size, op_seed(ctx.seed, "svc", "warm")
                )
            lock = threading.Lock()
            started = time.perf_counter()
            deadline = started + seconds

            def tenant(number: int) -> None:
                client = ServiceClient(socket_path=socket_path, client=f"tenant-{number}",
                                       timeout=60)
                try:
                    for job in range(10**6):
                        if time.perf_counter() >= deadline:
                            return
                        watched = self.submit_and_watch(
                            client, ctx.size, op_seed(ctx.seed, "svc", number, job)
                        )
                        with lock:
                            life["jobs"].append(watched)
                except ServiceError as error:
                    with lock:
                        life["problems"].append(f"tenant {number}: {error}")

            threads = [threading.Thread(target=tenant, args=(n,)) for n in range(self.tenants)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=seconds + 120)
            life["loop_s"] = time.perf_counter() - started
            life["stats"] = control.stats()
        except ServiceError as error:
            life["problems"].append(f"service: {error}")
        finally:
            try:
                control.shutdown()
            except ServiceError:
                server.kill_tree()
            server.wait(timeout=60)
        return life

    def check(self, ctx: Context, life: dict):
        """Every job ends ``done`` with the records the golden kernel gives
        its fault list in-process, and the checkpoint cache misses once."""
        from repro.exec import CampaignSpec
        from repro.exec.records import fault_to_json
        from repro.exec.runner import Workspace
        from repro.faults.campaign import FaultCampaign

        workspace = Workspace.build(CampaignSpec(**self.job(ctx.size, 0)["spec"]))
        campaign = FaultCampaign.from_context(workspace.context)
        problems = list(life["problems"])
        jobs = ([life["warm"]] if "warm" in life else []) + life["jobs"]
        failed = len(problems) + (0 if jobs else 1)
        for watched in jobs:
            if ctx.tamper is not None:
                ctx.tamper(watched)
            faults = campaign.random_single_bit(ctx.size["job_faults"], seed=watched["seed"])
            expected = checks.canonical_records([
                {"index": index, "outcome": result.outcome.value, "detail": result.detail,
                 "latency": result.latency, "fault": fault_to_json(result.fault)}
                for index, result in enumerate(workspace.run_batch(faults))
            ])
            final = watched["final"] or {}
            if (final.get("state") != "done" or watched["first_record_s"] is None
                    or checks.canonical_records(watched["records"]) != expected):
                failed += 1
                problems.append(
                    f"service job {final.get('id')} (seed {watched['seed']}) ended "
                    f"{final.get('state')} ({final.get('error')}) with "
                    f"{len(watched['records'])} records, not the kernel's"
                )
        misses = life.get("stats", {}).get("cache", {}).get("misses")
        if misses != 1:
            failed += 1
            problems.append(f"service: {misses} checkpoint-cache misses, not 1")
        if life["server"].status != 0:
            failed += 1
            problems.append(f"service: server exited {life['server'].status}")
        return max(len(jobs), 1), failed, problems

    def run(self, ctx: Context) -> RunResult:
        """The lifetime, its checks, and the service's per-layer metrics."""
        life = self.lifetime(ctx)
        attempted, failed, problems = self.check(ctx, life)
        jobs = life["jobs"]
        done = sum(1 for job in jobs if (job["final"] or {}).get("state") == "done")
        firsts = [job["first_record_s"] for job in jobs if job["first_record_s"] is not None]
        waits = [
            job["final"]["started_t"] - job["final"]["submitted_t"]
            for job in jobs if job["final"] and job["final"].get("started_t")
        ]
        lags = [lag for job in jobs for lag in job["lags"]]
        cache = life.get("stats", {}).get("cache", {})
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        metrics = {
            "service.jobs_per_s": done / life["loop_s"] if life.get("loop_s") else 0.0,
            "service.first_record_p50_ms": percentile(firsts, 0.5) * 1e3 if firsts else 0.0,
            "service.first_record_p90_ms": percentile(firsts, 0.9) * 1e3 if firsts else 0.0,
            "service.queue_wait_ms": statistics.fmean(waits) * 1e3 if waits else 0.0,
            "service.stream_lag_ms": statistics.fmean(lags) * 1e3 if lags else 0.0,
            "service.cache_hit_rate": cache.get("hits", 0) / lookups if lookups else 0.0,
        }
        notes = [f"service: {len(jobs)} sustained jobs in {life.get('loop_s', 0):.3f} s, "
                 f"{len(firsts)} first-record samples, server peak "
                 f"{life['server'].peak_rss_mb:.1f} MB"]
        return RunResult(metrics, attempted, failed, problems, notes)


WORKLOADS = {
    workload.name: workload
    for workload in (
        CampaignWorkload(
            "campaign-golden", "golden", 2.4,
            "headline path: per-shard prefix replay, monitored FuncSim after the "
            "fork, restore, classify, one shard commit per 16 faults",
        ),
        CampaignWorkload(
            "campaign-pipeline", "pipeline-golden", 4.0,
            "same faults on the cycle-level pipeline: PipelineCPU-bound, FuncSim only "
            "in set-up, so FuncSim and golden-planning changes must not move it",
        ),
        DseWorkload(),
    )
}
