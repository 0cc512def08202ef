"""The repository benchmark: cold-CLI workloads, end-to-end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign-golden --seed 1 --seconds 10 --trace 0

Workloads: ``campaign-golden``, ``campaign-pipeline`` and ``dse-sweep``
(see :mod:`workloads` for what each runs and why; the service layer is
measured inside the traced run of ``campaign-golden``).
With ``--trace 0`` the run makes a fixed number of cold operations on
one seeded input (about ``--seconds`` of them, whatever the program's
speed) and prints the end-to-end metrics, scaled to a reference host
speed; with ``--trace 1`` it prints the
per-layer metrics, each beside the end-to-end metric and workloads it
should move.  Every operation's output is checked after the timed
region; failures count in ``failed`` (``error_rate = failed /
attempted``).  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Each run also writes a result set to ``.perfbench/results/``: the
metrics, the host manifest, and the workload definition, which
``perfbench/compare.py`` requires to match before comparing two sets.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Bumped whenever a workload's work or checks change: result sets of
#: different versions are not comparable.
BENCH_VERSION = 2


def source_digest(root: str) -> str:
    """Digest of every ``src`` Python file: the code a result measured."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def commit(root: str) -> str | None:
    """The checked-out commit, when the tree is a git checkout."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), encoding="ascii") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return None


def host_manifest(root: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "effective_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit(root),
        "src_digest": source_digest(root),
    }


def workload_definition(workload, size_name: str, seconds: int, trace: bool) -> dict:
    """What a result set measured; equal definitions are comparable."""
    from workloads import REF_LOOP_S, SIZES

    body = {
        "bench_version": BENCH_VERSION,
        "workload": workload.name,
        "size": size_name,
        "seconds": seconds,
        "operations": workload.op_count(seconds),
        "ref_loop_s": REF_LOOP_S,
        "trace": trace,
        "work": workload.definition(SIZES[size_name]),
    }
    body["fingerprint"] = hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()
    ).hexdigest()[:16]
    return body


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args, size: str = "full", tamper=None) -> dict:
    """Run one benchmark invocation; return its result set.

    *size* and *tamper* are the self-test's: a quick pass, and a hook
    that corrupts each finished operation's output before its checks.
    """
    import layers
    from workloads import END_TO_END, SIZES, WORKLOADS, Context

    workload = WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    ctx = Context(ROOT, workdir, args.seed, args.seconds, bool(args.trace),
                  SIZES[size], tamper)
    started = time.perf_counter()
    try:
        result = workload.run(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        table = [(name, unit) for name, unit, _moves, _on in layers.PER_LAYER]
        # A per-layer metric of a layer this workload never enters reads 0
        # and is listed as not exercised.
        metrics = {
            name: {"value": float(result.metrics.get(name, 0.0)), "unit": unit}
            for name, unit in table
        }
    else:
        # An end-to-end metric without a sample is a failure, never a 0.
        metrics = {
            name: {"value": float(result.metrics[name]), "unit": unit}
            for name, unit in END_TO_END if name in result.metrics
        }
        for name, _unit in END_TO_END:
            if name not in metrics:
                result.failed += 1
                result.problems.append(f"{name}: no sample")
    return {
        "definition": workload_definition(workload, size, args.seconds, bool(args.trace)),
        "host": host_manifest(ROOT),
        "seed": args.seed,
        "run_seconds": time.perf_counter() - started,
        "attempted": result.attempted,
        "failed": result.failed,
        "error_rate": result.failed / max(result.attempted, 1),
        "problems": result.problems,
        "notes": result.notes,
        "not_exercised": sorted(set(metrics) - set(result.metrics)) if args.trace else [],
        "metrics": metrics,
    }


def report(result_set: dict) -> None:
    """Print the result set for a reader, then the final JSON line."""
    import layers

    definition = result_set["definition"]
    host = result_set["host"]
    print(f"perfbench {definition['workload']} seed={result_set['seed']} "
          f"seconds={definition['seconds']} trace={int(definition['trace'])} "
          f"definition={definition['fingerprint']}")
    print("host: " + ", ".join(f"{key}={value}" for key, value in host.items()))
    for note in result_set["notes"]:
        print(f"  {note}")
    moves = {name: (target, on) for name, _unit, target, on in layers.PER_LAYER}
    for name, entry in result_set["metrics"].items():
        line = f"  {name:34s} {entry['value']:>16.6g} {entry['unit']}"
        if name in moves:
            target, on = moves[name]
            exercised = "  (not exercised)" if name in result_set["not_exercised"] else ""
            line = f"{line:66s} -> {target} on {on}{exercised}"
        print(line)
    print(f"  {'error_rate':34s} {result_set['error_rate']:>16.6g} "
          f"({result_set['failed']}/{result_set['attempted']})")
    for problem in result_set["problems"][:10]:
        print(f"  FAILED: {problem}")
    print(json.dumps({
        "correct": result_set["failed"] == 0,
        "attempted": result_set["attempted"],
        "failed": result_set["failed"],
        "metrics": result_set["metrics"],
    }))


def save(result_set: dict) -> str:
    folder = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(folder, exist_ok=True)
    definition = result_set["definition"]
    path = os.path.join(
        folder,
        f"{definition['workload']}-seed{result_set['seed']}-trace"
        f"{int(definition['trace'])}-{int(time.time())}.json",
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result_set, handle, indent=1, sort_keys=True)
    return path


def main(argv=None) -> int:
    if not os.path.exists(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(f"perfbench: no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    args = parse_args(argv)
    result_set = run(args)
    print(f"result set: {os.path.relpath(save(result_set), ROOT)}")
    report(result_set)
    return 0


if __name__ == "__main__":
    sys.exit(main())
