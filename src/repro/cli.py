"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``asm FILE``
    Assemble a source file and print the listing (address, encoding,
    disassembly).

``run FILE``
    Assemble and execute unmonitored on the functional ISS; print console
    output and cycle statistics.  ``--engine pipeline`` uses the
    cycle-level pipeline; ``--input N`` queues integers for ``read_int``.

``monitor FILE``
    Execute under the OS-managed integrity monitor; report monitor
    statistics.  ``--iht N``, ``--hash NAME``, ``--policy NAME`` select the
    configuration; ``--flip ADDR:BIT`` injects a persistent fault before
    the run to exercise detection.

``workload NAME``
    Run one of the nine built-in workloads monitored and report statistics
    (``--scale tiny|small|default``).

``experiments``
    Regenerate every paper table/figure into ``results/`` (equivalent to
    ``examples/paper_experiments.py``).

``campaign TARGET`` / ``attack TARGET`` / ``dse sweep`` / ``coverage run CORPUS``
    The four job kinds (:mod:`repro.jobs`): the §6.3 fault-injection
    campaign, the adversarial tampering sweep and its detection matrix,
    the design-space sweep behind Figure 6, and the exhaustive coverage
    corpora.  Each kind declares its flags once; the local subcommand
    runs the job in this process, sharded across ``--workers`` and
    streamed to ``--out`` so ``--resume`` picks an interrupted run back
    up, and ``submit KIND`` (below) enqueues exactly the same job on a
    server.  TARGET is a workload name, an assembly file, or ``all``
    (one run per workload — a campaign preset's roster, or the whole
    suite); ``--preset NAME`` supplies a campaign's fault plan and
    scale/backend, or a DSE space, and explicit flags override it.
    ``--backend`` picks the execution backend from the registry:
    ``golden`` forks each injection from the recorded golden run instead
    of re-simulating from instruction zero (``full``),
    ``pipeline-golden`` forks the cycle-level pipeline and measures
    cycles.  Results are identical for any worker count and either
    functional backend.

``coverage diff|check``
    The exhaustive ground-truth gate (:mod:`repro.coverage`): ``check``
    validates committed matrices (schema, fingerprint, internal
    consistency); ``diff`` re-derives a matrix from the spec embedded in
    the artifact (``--workload`` restricts the re-derivation) and
    reports divergence cell by cell, exiting 1 on any delta.  ``make
    coverage-smoke`` runs the CI subset.

``stats PATH``
    Render the ``*.metrics.json`` telemetry artifacts written beside
    campaign/DSE/coverage results files (:mod:`repro.obs`): run
    manifest, span tree with wall-time shares, counters, and per-shard /
    per-worker breakdowns.  PATH is one metrics file or a directory to
    scan recursively; ``--check`` additionally validates every file —
    and its ``*.events.jsonl`` sibling when present — against the
    schemas.  ``--follow`` tails the run's live event log instead
    (shard progress, per-worker throughput, cache-hit rate, ETA),
    degrading to the final summary when the run already finished;
    ``--export-trace FILE`` converts the event timeline plus span tree
    to Chrome/Perfetto ``trace_event`` JSON.

``stats diff A B [--gate PCT]``
    Compare two metrics or ``BENCH_*.json`` artifacts metric by metric
    (wall seconds, records/s, cache-hit rates, span shares, per-test
    bench numbers), each drift signed toward *worse*; with ``--gate``
    the exit code becomes the regression gate: 1 when anything got at
    least PCT percent worse.

``top PATH``
    Alias of ``stats PATH --follow`` — the live view of an in-flight
    run.

``dse frontier|report``
    ``frontier`` computes the Pareto-non-dominated configurations of a
    ``dse sweep`` file over any ``--objective`` subset; ``report``
    prints the full ranked trade-off report.

``serve`` / ``submit`` / ``jobs``
    The campaign-as-a-service tier (:mod:`repro.service`,
    ``docs/SERVICE.md``).  ``serve`` runs the long-lived multi-tenant job
    server: a unix-socket (optionally TCP) line-JSON protocol, a fair
    per-client queue, a content-addressed cache of golden checkpoint
    stores, and a crash-tolerant job journal — kill the server mid-job
    and the next ``serve`` resumes it shard-exact.  ``submit
    campaign|dse|attack|coverage`` takes the local subcommand's flags,
    validates, and enqueues the jobs it would run (``--wait`` blocks,
    ``--watch`` streams the live event/record lines);
    ``jobs`` lists jobs, ``--stats`` shows queue depth and cache hit
    rates, ``--cancel`` stops a job at its next shard-step boundary,
    ``--shutdown`` stops the server gracefully.

Exit codes are uniform across commands: ``0`` success, ``1`` usage or
toolchain error (including assembly failures), ``2`` a
:class:`~repro.errors.MonitorViolation` — so scripts can distinguish
"the monitor caught tampering" from "the tool failed".

Every subcommand takes the uniform observability flags: ``-v/--verbose``
(debug-level progress), ``-q/--quiet`` (warnings and errors only), and
``--no-telemetry`` (disable the :mod:`repro.obs` instruments — results
are byte-identical either way).  Progress goes through the shared
structured logger (:mod:`repro.obs.log`) on stderr; stdout stays
machine-clean.  ``run``/``monitor``/``workload`` additionally take
``--profile`` to print a host-time fetch/decode/execute/monitor phase
breakdown of the simulated run.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro import __version__
from repro.asm.assembler import assemble
from repro.errors import MonitorViolation, ReproError
from repro.jobs import KINDS
from repro.obs import core as obs_core
from repro.obs.log import log, set_level
from repro.osmodel.loader import load_process
from repro.pipeline.cpu import PipelineCPU
from repro.pipeline.funcsim import FuncSim
from repro.utils.atomic import write_atomic
from repro.workloads.suite import SCALES, WORKLOAD_NAMES, build, workload_inputs

#: Exit code signalling a detected integrity violation (vs 1 = tool error).
EXIT_VIOLATION = 2


def _engine(name: str):
    return PipelineCPU if name == "pipeline" else FuncSim


def _read_source(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _print_console(result) -> None:
    if result.console:
        print(result.console, end="" if result.console.endswith("\n") else "\n")


def cmd_asm(args: argparse.Namespace) -> int:
    program = assemble(_read_source(args.file), name=args.file)
    print(program.listing())
    print(f"; entry {program.entry:#010x}, "
          f"{len(program.text.data) // 4} instructions, "
          f"{len(program.data.data)} data bytes")
    return 0


def _maybe_profile(args: argparse.Namespace, simulator):
    """Attach the opt-in phase profiler (``--profile``) to *simulator*."""
    if not getattr(args, "profile", False):
        return None
    from repro.obs.profiler import PhaseProfiler

    return PhaseProfiler().attach(simulator)


def _run_profiled(args: argparse.Namespace, simulator):
    """Run *simulator*, printing the phase table even when the run raises
    (a ``monitor --flip`` violation still deserves its breakdown)."""
    profiler = _maybe_profile(args, simulator)
    try:
        return simulator.run()
    finally:
        if profiler is not None:
            print(profiler.render(), file=sys.stderr)


def cmd_run(args: argparse.Namespace) -> int:
    program = assemble(_read_source(args.file), name=args.file)
    simulator = _engine(args.engine)(program, inputs=args.input or None)
    result = _run_profiled(args, simulator)
    _print_console(result)
    log.info(f"exit {result.exit_code}, {result.instructions} instructions, "
             f"{result.cycles} cycles ({args.engine})")
    return result.exit_code


def cmd_monitor(args: argparse.Namespace) -> int:
    program = assemble(_read_source(args.file), name=args.file)
    process = load_process(
        program,
        iht_size=args.iht,
        hash_name=args.hash,
        policy_name=args.policy,
    )
    simulator = _engine(args.engine)(
        program, monitor=process.monitor, inputs=args.input or None
    )
    for spec in args.flip or []:
        address_text, _, bit_text = spec.partition(":")
        simulator.state.memory.flip_bit(int(address_text, 0), int(bit_text))
    # A MonitorViolation exits 2 via main().
    result = _run_profiled(args, simulator)
    stats = result.monitor_stats
    _print_console(result)
    log.info(
        f"cycles {result.cycles}, lookups {stats.lookups}, "
        f"hits {stats.hits}, misses {stats.misses} "
        f"(miss rate {100 * stats.miss_rate:.2f}%), "
        f"OS cycles {stats.os_cycles}"
    )
    return result.exit_code


def cmd_workload(args: argparse.Namespace) -> int:
    if args.name not in WORKLOAD_NAMES:
        log.error(f"unknown workload {args.name!r}; "
                  f"choose from: {', '.join(WORKLOAD_NAMES)}")
        return 1
    program = build(args.name, args.scale)
    process = load_process(program, iht_size=args.iht, hash_name=args.hash)
    simulator = _engine(args.engine)(
        program,
        monitor=process.monitor,
        inputs=workload_inputs(args.name, args.scale),
    )
    result = _run_profiled(args, simulator)
    stats = result.monitor_stats
    _print_console(result)
    log.info(
        f"{args.name}[{args.scale}]: {result.instructions} instructions, "
        f"{result.cycles} cycles, miss rate {100 * stats.miss_rate:.2f}% "
        f"@ IHT {args.iht}"
    )
    return 0


def _suffixed(path: str | None, suffix: str | None, default_ext: str) -> str | None:
    if not path or suffix is None:
        return path
    root, ext = os.path.splitext(path)
    return f"{root}-{suffix}{ext or default_ext}"


def cmd_job(args: argparse.Namespace) -> int:
    """``repro campaign|attack``, ``repro dse sweep``, ``repro coverage run``:
    run each job the flags describe (:mod:`repro.jobs`) in this process."""
    kind = KINDS[args.kind]
    for suffix, payload in kind.payloads(args):
        paths = {
            "out": _suffixed(args.out, suffix, kind.extension),
            "json": _suffixed(getattr(args, "json", None), suffix, ".json"),
        }
        result = kind.start(payload)(
            paths["out"],
            getattr(args, "resume", False),
            getattr(args, "stop_after_shards", None),
        )
        kind.show(result, payload, paths)
    return 0


def _service_client(args: argparse.Namespace):
    from repro.service.client import ServiceClient, default_socket_path

    host, port = args.tcp or (None, None)
    socket_path = args.socket or default_socket_path(args.state_dir)
    return ServiceClient(
        socket_path=None if host else socket_path,
        host=host,
        port=port,
        client=getattr(args, "client", "anonymous"),
    )


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import ServiceConfig, run_server

    host, port = args.tcp or (None, None)
    return run_server(
        ServiceConfig(
            state_dir=args.state_dir,
            socket_path=args.socket,
            host=host,
            port=port,
            max_jobs=args.max_jobs,
            per_client=args.per_client,
            cache_capacity=args.cache_capacity,
            step_shards=args.step_shards,
        )
    )


def _job_line(status: dict) -> str:
    progress = str(status["records_done"])
    if status["total"] is not None:
        progress += f"/{status['total']}"
    line = (
        f"{status['id']:8s} {status['client']:12s} {status['kind']:9s} "
        f"{status['label']:24s} {status['state']:9s} {progress}"
    )
    if status["error"]:
        line += f"  ! {status['error']}"
    return line


def cmd_submit(args: argparse.Namespace) -> int:
    """``repro submit KIND``: enqueue exactly the jobs ``repro KIND`` runs."""
    import json as json_module

    payloads = KINDS[args.kind].payloads(args)
    client = _service_client(args)
    submitted = []
    for suffix, payload in payloads:
        submitted.append(client.submit(payload, priority=args.priority))
        log.debug(f"submitted {submitted[-1]['id']} ({suffix or args.kind})")
        print(_job_line(submitted[-1]))
    finals = []
    if args.watch:
        for job in submitted:
            for line in client.watch(job["id"]):
                if line.get("stream") == "end":
                    finals.append(line["job"])
                    log.info(f"{line['job']['id']} {line['job']['state']} "
                             f"({line['job']['records_done']} records)")
                else:
                    print(json_module.dumps(line, sort_keys=True))
    elif args.wait:
        for job in submitted:
            finals.append(client.wait(job["id"], timeout=args.timeout))
            print(_job_line(finals[-1]))
    return int(any(final["state"] != "done" for final in finals))


def cmd_jobs(args: argparse.Namespace) -> int:
    import json as json_module

    client = _service_client(args)
    if args.shutdown:
        client.shutdown()
        log.info("server asked to shut down")
        return 0
    if args.cancel:
        response = client.cancel(args.cancel)
        print(_job_line(response["job"]))
        if response.get("cancel_pending"):
            log.info("cancellation lands at the next shard-step boundary")
        return 0
    if args.watch:
        for line in client.watch(args.watch):
            print(json_module.dumps(line, sort_keys=True))
        return 0
    if args.stats:
        stats = client.stats()
        cache = stats["cache"]
        print(f"uptime {stats['uptime']}s, "
              f"{stats['running']} running / {stats['queued']} queued "
              f"(max {stats['max_jobs']}, per-client {stats['per_client']})")
        print(f"jobs by state: "
              + (", ".join(f"{state}={count}"
                           for state, count in sorted(stats["jobs"].items()))
                 or "none"))
        print(f"checkpoint cache: {cache['hits']} hits, "
              f"{cache['misses']} misses, {cache['evictions']} evictions, "
              f"{cache['entries']}/{cache['capacity']} stores, "
              f"{cache['bytes']} bytes")
        for store in cache["stores"]:
            print(f"  {store['key']}  {store['label']:24s} "
                  f"{store['hits']} hits, {store['bytes']} bytes")
        return 0
    jobs = client.jobs()
    if not jobs:
        log.info("no jobs")
        return 0
    for status in jobs:
        print(_job_line(status))
    return 0


def _frontier_report(args: argparse.Namespace):
    from repro.dse import DEFAULT_FRONTIER, FrontierReport, load_points

    objectives = (
        tuple(args.objective) if args.objective else DEFAULT_FRONTIER
    )
    header, points = load_points(args.points)
    if not points:
        log.error(f"error: {args.points} holds no point records")
        return None, None
    return header, FrontierReport.build(points, objectives)


def cmd_dse_frontier(args: argparse.Namespace) -> int:
    _header, report = _frontier_report(args)
    if report is None:
        return 1
    print(report.table().render())
    if args.json:
        write_atomic(args.json, report.render_json())
        log.info(f"frontier written to {args.json}")
    return 0


def cmd_dse_report(args: argparse.Namespace) -> int:
    from repro.dse import OBJECTIVES

    header, report = _frontier_report(args)
    if report is None:
        return 1
    lines = [report.table().render(), ""]
    lines.append("Per-objective champions:")
    for name, objective in OBJECTIVES.items():
        scored = [
            point
            for point in report.points
            if point.objectives.get(name) is not None
        ]
        if not scored:
            continue
        best = min(scored, key=lambda point: objective.key(point.objectives[name]))
        lines.append(
            f"  {name:18s} {best.config.config_id:28s} "
            f"{best.objectives[name]:.6g}  ({objective.sense})"
        )
    space = header.get("space", {})
    lines.append("")
    lines.append(
        f"Swept {len(report.points)} configurations on "
        f"{', '.join(space.get('workloads', ()))} @ "
        f"{space.get('scale', '?')}; adversary={space.get('adversary', '?')}; "
        f"seed {header.get('seed')}."
    )
    text = "\n".join(lines)
    print(text)
    if args.out:
        write_atomic(args.out, text + "\n")
        log.info(f"report written to {args.out}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    # `repro stats diff A B` rides the same subcommand: the positional
    # `path` doubles as the verb so `repro stats PATH [--check]` keeps
    # its exact historical shape.
    if args.path == "diff":
        return _stats_diff(args)
    if args.extra:
        log.error(
            "error: `repro stats` takes one path "
            "(did you mean `repro stats diff A B`?)"
        )
        return 1
    if args.follow:
        return _stats_follow(args)
    if args.export_trace:
        return _stats_export_trace(args)
    return _stats_render(args)


def _stats_render(args: argparse.Namespace) -> int:
    from repro.obs.events import read_events, resolve_events_path
    from repro.obs.metrics import load_metrics
    from repro.obs.schema import validate_events, validate_metrics
    from repro.obs.stats import find_metrics, render_metrics

    files = find_metrics(args.path)
    if not files:
        log.error(f"error: no metrics files under {args.path} "
                  "(runs emit them beside --out when telemetry is on)")
        return 1
    status = 0
    reports = []
    events_checked = 0
    for path in files:
        try:
            payload = load_metrics(path)
        except ValueError:
            payload = None
        if not isinstance(payload, dict) or payload.get("type") != "metrics":
            log.error(f"error: {path} is not a metrics artifact")
            status = 1
            continue
        if args.check:
            errors = validate_metrics(payload)
            events_file = resolve_events_path(path)
            if os.path.exists(events_file):
                events_checked += 1
                errors += [
                    f"{os.path.basename(events_file)}: {problem}"
                    for problem in validate_events(read_events(events_file))
                ]
            for problem in errors:
                log.error(f"{path}: {problem}")
            if errors:
                status = 1
        reports.append(
            render_metrics(payload, path=path if len(files) > 1 else None)
        )
    print("\n\n".join(reports))
    if args.check and status == 0:
        log.info(
            f"{len(files)} metrics file(s) schema-valid"
            + (
                f" ({events_checked} event log(s) checked)"
                if events_checked
                else ""
            )
        )
    return status


def _stats_follow(args: argparse.Namespace) -> int:
    from repro.obs.stats import follow_path

    return follow_path(
        args.path,
        interval=args.interval,
        timeout=args.timeout,
        verbose=getattr(args, "verbose", False),
    )


def _stats_export_trace(args: argparse.Namespace) -> int:
    from repro.obs.trace import export_trace

    trace = export_trace(args.path, args.export_trace)
    log.info(
        f"trace with {len(trace['traceEvents'])} events written to "
        f"{args.export_trace} (load in https://ui.perfetto.dev "
        "or chrome://tracing)"
    )
    return 0


def _stats_diff(args: argparse.Namespace) -> int:
    from repro.obs.diff import diff_artifacts, render_diff

    if len(args.extra) != 2:
        log.error("error: usage: repro stats diff A B [--gate PCT]")
        return 1
    report = diff_artifacts(args.extra[0], args.extra[1])
    print(render_diff(report, gate=args.gate))
    if args.gate is not None and report.worst >= args.gate:
        return 1
    return 0


def _coverage_files(path: str) -> list[str]:
    """One artifact file, or every matrix ``*.json`` under a directory.

    Observability siblings (``*.metrics.json`` written beside coverage
    artifacts) are not matrices and are skipped — ``repro stats --check``
    owns them.
    """
    if os.path.isdir(path):
        found = []
        for root, _dirs, files in os.walk(path):
            for name in sorted(files):
                if name.endswith(".json") and not name.endswith(".metrics.json"):
                    found.append(os.path.join(root, name))
        return sorted(found)
    return [path]


def cmd_coverage_check(args: argparse.Namespace) -> int:
    from repro.coverage import check_payload, load_payload

    files = _coverage_files(args.path)
    if not files:
        log.error(f"error: no coverage artifacts under {args.path}")
        return 1
    status = 0
    for path in files:
        errors = check_payload(load_payload(path))
        for problem in errors:
            log.error(f"{path}: {problem}")
        if errors:
            status = 1
    if status == 0:
        log.info(f"{len(files)} coverage matrix(es) sound")
    return status


def cmd_coverage_diff(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.coverage import (
        CoverageSpec,
        diff_payloads,
        load_payload,
        render_deltas,
        run_coverage,
    )

    coverage = KINDS["coverage"]
    knobs = coverage.fill(coverage.raw(args))
    expected = load_payload(args.path)
    workloads = tuple(args.workload) if args.workload else None
    if args.against is not None:
        actual = load_payload(args.against)
    else:
        spec = CoverageSpec.from_json(expected["spec"])
        if workloads:
            unknown = set(workloads) - set(spec.targets())
            if unknown:
                log.error(
                    f"error: {', '.join(sorted(unknown))} not in corpus "
                    f"{spec.name!r} (targets: {', '.join(spec.targets())})"
                )
                return 1
            if spec.workloads:
                # Source-based corpora have a single target; restricting
                # to it is the identity, and workloads= must stay unset.
                spec = dataclasses.replace(spec, workloads=workloads)
        actual = run_coverage(
            spec,
            workers=knobs["workers"],
            chunk_size=knobs["chunk_size"],
            batch_size=knobs["batch_size"],
            progress=log.info,
        )
    deltas = diff_payloads(expected, actual, workloads=workloads)
    print(render_deltas(deltas))
    return 1 if deltas else 0


def cmd_experiments(args: argparse.Namespace) -> int:
    import importlib.util
    import pathlib

    script = (
        pathlib.Path(__file__).resolve().parent.parent.parent
        / "examples" / "paper_experiments.py"
    )
    if script.exists():
        spec = importlib.util.spec_from_file_location("paper_experiments", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.main(["--scale", args.scale])
        return 0
    # Installed without the examples tree: drive the harnesses directly.
    from repro.eval import run_fig6, run_table1, run_table2

    for result in (run_fig6(scale=args.scale), run_table1(scale=args.scale),
                   run_table2()):
        print(result.table().render())
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Fei & Shi (DATE 2007) reproduction toolkit"
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )

    # Uniform observability flags, shared by every subcommand via the
    # argparse parents= mechanism so `repro campaign -v ...` and
    # `repro dse sweep -v ...` mean the same thing (repro.obs.log).
    observability = argparse.ArgumentParser(add_help=False)
    observability.add_argument(
        "-v", "--verbose", action="store_true",
        help="debug-level progress on stderr",
    )
    observability.add_argument(
        "-q", "--quiet", action="store_true",
        help="only warnings and errors on stderr",
    )
    observability.add_argument(
        "--no-telemetry", action="store_true",
        help="disable execution telemetry (repro.obs counters/spans and "
             "the *.metrics.json written beside --out); results are "
             "byte-identical either way",
    )

    commands = parser.add_subparsers(dest="command", required=True)
    obs = [observability]

    asm_command = commands.add_parser("asm", help="assemble and list",
                                      parents=obs)
    asm_command.add_argument("file")
    asm_command.set_defaults(handler=cmd_asm)

    # Simulation flags shared by run / monitor / workload.
    simulate = argparse.ArgumentParser(add_help=False)
    simulate.add_argument("--engine", choices=("func", "pipeline"), default="func")
    simulate.add_argument(
        "--profile", action="store_true",
        help="print a host-time fetch/decode/execute/monitor phase "
             "breakdown of the run to stderr "
             "(repro.obs.profiler.PhaseProfiler)",
    )
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument(
        "--input", type=int, action="append",
        help="queue an integer for read_int (repeatable)",
    )
    monitored = argparse.ArgumentParser(add_help=False)
    monitored.add_argument("--iht", type=int, default=8)
    monitored.add_argument("--hash", default="xor")

    run_command = commands.add_parser("run", help="execute unmonitored",
                                      parents=[*obs, simulate, inputs])
    run_command.add_argument("file")
    run_command.set_defaults(handler=cmd_run)

    monitor_command = commands.add_parser(
        "monitor", help="execute monitored",
        parents=[*obs, simulate, inputs, monitored],
    )
    monitor_command.add_argument("file")
    monitor_command.add_argument("--policy", default="lru_half")
    monitor_command.add_argument(
        "--flip", action="append", metavar="ADDR:BIT",
        help="flip a bit of a stored word before running (repeatable)",
    )
    monitor_command.set_defaults(handler=cmd_monitor)

    workload_command = commands.add_parser(
        "workload", help="run a workload", parents=[*obs, simulate, monitored]
    )
    workload_command.add_argument("name")
    workload_command.add_argument("--scale", choices=SCALES, default="small")
    workload_command.set_defaults(handler=cmd_workload)

    # ------------------------------------------------------------------
    # The job kinds (repro.jobs): each kind's fields become the flags of
    # its local subcommand and of its `submit` variant alike.
    # ------------------------------------------------------------------

    dse_command = commands.add_parser(
        "dse", help="design-space exploration (sweep / frontier / report)"
    )
    dse_commands = dse_command.add_subparsers(dest="dse_command", required=True)
    coverage_command = commands.add_parser(
        "coverage",
        help="exhaustive ground-truth coverage matrices (run/diff/check)",
    )
    coverage_commands = coverage_command.add_subparsers(
        dest="coverage_command", required=True
    )
    local_homes = {
        "campaign": (commands, "campaign"),
        "attack": (commands, "attack"),
        "dse": (dse_commands, "sweep"),
        "coverage": (coverage_commands, "run"),
    }
    for kind in KINDS.values():
        home, name = local_homes[kind.name]
        local = home.add_parser(name, help=kind.help, parents=obs)
        kind.add_arguments(local)
        for flag, options in kind.local:
            local.add_argument(flag, **options)
        local.set_defaults(handler=cmd_job, kind=kind.name)

    # ------------------------------------------------------------------
    # The service tier: serve / submit / jobs (repro.service)
    # ------------------------------------------------------------------

    def _tcp_endpoint(value: str) -> tuple[str, int]:
        host, _, port_text = value.rpartition(":")
        if not host or not port_text.isdigit():
            raise argparse.ArgumentTypeError(
                f"expected HOST:PORT, got {value!r}"
            )
        return host, int(port_text)

    service_parent = argparse.ArgumentParser(add_help=False)
    service_parent.add_argument(
        "--state-dir", default=".repro-service", metavar="DIR",
        help="service state directory: journal, socket, per-job results "
             "(default .repro-service)",
    )
    service_parent.add_argument(
        "--socket", metavar="PATH",
        help="unix socket path (default <state-dir>/service.sock)",
    )
    service_parent.add_argument(
        "--tcp", type=_tcp_endpoint, metavar="HOST:PORT",
        help="talk TCP instead of the unix socket",
    )

    serve_command = commands.add_parser(
        "serve",
        help="run the long-lived multi-tenant job server (repro.service)",
        parents=[observability, service_parent],
    )
    serve_command.add_argument(
        "--max-jobs", type=int, default=2, metavar="N",
        help="jobs executing concurrently (default 2)",
    )
    serve_command.add_argument(
        "--per-client", type=int, default=2, metavar="N",
        help="per-client concurrent-jobs cap (default 2)",
    )
    serve_command.add_argument(
        "--cache-capacity", type=int, default=8, metavar="N",
        help="checkpoint stores kept warm before LRU eviction (default 8)",
    )
    serve_command.add_argument(
        "--step-shards", type=int, default=4, metavar="N",
        help="shards per job step — the cancellation/drain granularity "
             "(default 4)",
    )
    serve_command.set_defaults(handler=cmd_serve)

    submit_parent = argparse.ArgumentParser(add_help=False)
    submit_parent.add_argument(
        "--client", default="anonymous", metavar="NAME",
        help="tenant name for fair scheduling (default anonymous)",
    )
    submit_parent.add_argument(
        "--priority", type=int, default=0, metavar="N",
        help="scheduling priority (higher first; default 0)",
    )
    submit_parent.add_argument(
        "--wait", action="store_true",
        help="block until the job(s) finish; exit 1 unless all done",
    )
    submit_parent.add_argument(
        "--watch", action="store_true",
        help="stream the job's live event/record lines as JSON to stdout",
    )
    submit_parent.add_argument(
        "--timeout", type=float, default=600.0, metavar="SECONDS",
        help="--wait gives up after this long (default 600)",
    )

    submit_command = commands.add_parser(
        "submit",
        help="submit a job to a running `repro serve`",
    )
    submit_commands = submit_command.add_subparsers(
        dest="submit_command", required=True
    )
    for kind in KINDS.values():
        submit = submit_commands.add_parser(
            kind.name, help=f"submit: {kind.help}",
            parents=[observability, service_parent, submit_parent],
        )
        kind.add_arguments(submit)
        submit.set_defaults(handler=cmd_submit, kind=kind.name)

    jobs_command = commands.add_parser(
        "jobs",
        help="list/inspect/cancel jobs on a running `repro serve`",
        parents=[observability, service_parent],
    )
    jobs_command.add_argument(
        "--client", default="anonymous", metavar="NAME",
        help="tenant name to identify as (default anonymous)",
    )
    jobs_group = jobs_command.add_mutually_exclusive_group()
    jobs_group.add_argument(
        "--stats", action="store_true",
        help="server statistics: queue depth, checkpoint-cache hit rates",
    )
    jobs_group.add_argument(
        "--watch", metavar="ID",
        help="stream one job's live event/record lines as JSON",
    )
    jobs_group.add_argument(
        "--cancel", metavar="ID",
        help="cancel a job (queued: immediately; running: at the next "
             "shard-step boundary)",
    )
    jobs_group.add_argument(
        "--shutdown", action="store_true",
        help="gracefully stop the server (running jobs resume on restart)",
    )
    jobs_command.set_defaults(handler=cmd_jobs)

    sweep_file = argparse.ArgumentParser(add_help=False)
    sweep_file.add_argument(
        "points", help="JSONL sweep file written by `dse sweep --out`"
    )
    sweep_file.add_argument(
        "--objective", action="append", metavar="NAME",
        help="objective of the frontier (repeatable; default "
             "area_overhead,detection_latency,miss_rate)",
    )
    frontier_command = dse_commands.add_parser(
        "frontier", help="Pareto frontier of a sweep file",
        parents=[*obs, sweep_file],
    )
    frontier_command.add_argument(
        "--json", help="also write the frontier as JSON to this file"
    )
    frontier_command.set_defaults(handler=cmd_dse_frontier)

    report_command = dse_commands.add_parser(
        "report", help="ranked trade-off report of a sweep file",
        parents=[*obs, sweep_file],
    )
    report_command.add_argument(
        "--out", help="also write the rendered report to this file"
    )
    report_command.set_defaults(handler=cmd_dse_report)

    coverage_diff_command = coverage_commands.add_parser(
        "diff",
        help="re-derive a committed matrix and report per-cell deltas",
        parents=obs,
    )
    coverage_diff_command.add_argument(
        "path", help="committed coverage matrix artifact"
    )
    coverage_diff_command.add_argument(
        "--against", metavar="FILE",
        help="compare against another matrix file instead of re-deriving",
    )
    coverage_diff_command.add_argument(
        "--workload", action="append", metavar="NAME",
        help="restrict the re-derivation and comparison to these corpus "
             "targets (repeatable; default: the whole corpus)",
    )
    KINDS["coverage"].add_arguments(coverage_diff_command, fields_only=True)
    coverage_diff_command.set_defaults(handler=cmd_coverage_diff)

    coverage_check_command = coverage_commands.add_parser(
        "check",
        help="validate matrix artifacts (schema, fingerprint, consistency)",
        parents=obs,
    )
    coverage_check_command.add_argument(
        "path", help="one matrix file, or a directory scanned recursively"
    )
    coverage_check_command.set_defaults(handler=cmd_coverage_check)

    # Live-follow flags shared by `stats --follow` and `top`.
    follow = argparse.ArgumentParser(add_help=False)
    follow.add_argument(
        "--interval", type=float, default=0.2, metavar="SECONDS",
        help="poll interval while following (default 0.2s)",
    )
    follow.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="stop following (exit 1) after this long without a "
             "run-finished event (default: wait forever)",
    )
    stats_command = commands.add_parser(
        "stats",
        help="render, follow, export, or diff run telemetry",
        parents=[*obs, follow],
    )
    stats_command.add_argument(
        "path",
        help="one metrics file or a directory scanned recursively; "
             "or the verb `diff` followed by two artifacts",
    )
    stats_command.add_argument(
        "extra", nargs="*",
        help="for `stats diff`: the two artifacts to compare "
             "(*.metrics.json or BENCH_*.json)",
    )
    stats_command.add_argument(
        "--check", action="store_true",
        help="also validate each file against the metrics schema — and "
             "its *.events.jsonl sibling when present — "
             "(repro.obs.schema); exit 1 on any violation",
    )
    stats_command.add_argument(
        "--follow", action="store_true",
        help="tail the run's *.events.jsonl live (alias: `repro top`); "
             "prints shard progress, throughput, cache hits, and ETA, "
             "or just the final summary when the run already finished",
    )
    stats_command.add_argument(
        "--export-trace", metavar="FILE",
        help="write the run as Chrome/Perfetto trace_event JSON "
             "(event timeline + span tree; open in ui.perfetto.dev)",
    )
    stats_command.add_argument(
        "--gate", type=float, default=None, metavar="PCT",
        help="for `stats diff`: exit 1 when any gated metric regressed "
             "by at least PCT percent",
    )
    stats_command.set_defaults(handler=cmd_stats)

    top_command = commands.add_parser(
        "top",
        help="live view of a running campaign/sweep "
             "(alias of `stats --follow`)",
        parents=[*obs, follow],
    )
    top_command.add_argument(
        "path", help="the run's results, metrics, or events file"
    )
    top_command.set_defaults(
        handler=cmd_stats, follow=True, check=False,
        export_trace=None, gate=None, extra=[],
    )

    experiments_command = commands.add_parser(
        "experiments", help="regenerate paper tables/figures", parents=obs
    )
    experiments_command.add_argument(
        "--scale", choices=SCALES, default="default"
    )
    experiments_command.set_defaults(handler=cmd_experiments)
    return parser


def _apply_observability(args: argparse.Namespace) -> None:
    """Map the uniform flags onto the process-wide logger and telemetry.

    The level is set unconditionally (not only when a flag is given) so
    repeated in-process ``main()`` calls — the test suite's idiom — don't
    leak one invocation's verbosity into the next.
    """
    if getattr(args, "quiet", False):
        set_level("warning")
    elif getattr(args, "verbose", False):
        set_level("debug")
    else:
        set_level("info")
    if getattr(args, "no_telemetry", False):
        obs_core.set_enabled(False)
    else:
        obs_core.set_enabled(
            os.environ.get(obs_core.ENV_SWITCH, "1") != "0"
        )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_observability(args)
    try:
        return args.handler(args)
    except MonitorViolation as violation:
        # A detection event, not a tool failure: distinct exit code so
        # scripts can tell "tampering caught" from "invocation broken".
        log.error(f"VIOLATION: {violation}")
        return EXIT_VIOLATION
    except ReproError as error:
        log.error(f"error: {error}")
        return 1
    except OSError as error:
        log.error(f"error: {error}")
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
