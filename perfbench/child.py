"""One ``repro`` CLI invocation in a fresh interpreter, with probes.

Usage::

    python perfbench/child.py REPORT TRACE -- ARGV...

Reads the host's speed (:mod:`hostspeed`), imports ``repro.cli`` (timed),
installs the probes of :mod:`probes` (layer spans only when TRACE is
``1``), calls ``repro.cli.main(ARGV)`` exactly as ``python -m repro ARGV``
would, reads the host's speed again, and writes a JSON report to REPORT:
the two readings and the seconds they took, the import time, and the
telemetry still held in the process after ``main`` returned.  First batch-kernel calls are appended to
``REPORT + ".kernel"``.  The exit code is ``main``'s.
"""

from __future__ import annotations

import json
import sys
import time

from hostspeed import host_loop_s


def main() -> int:
    report_path, trace = sys.argv[1], sys.argv[2] == "1"
    if sys.argv[3] != "--":
        raise SystemExit("usage: child.py REPORT TRACE -- ARGV...")
    argv = sys.argv[4:]
    loops, spent = [], []
    started = time.perf_counter()
    loops.append(host_loop_s())
    spent.append(time.perf_counter() - started)
    started = time.perf_counter()
    import repro.cli
    from repro.obs import core as obs

    import_s = time.perf_counter() - started
    import probes

    probes.install_kernel_probe(report_path + ".kernel")
    if trace:
        probes.install_layer_spans()
    status = repro.cli.main(argv)
    started = time.perf_counter()
    loops.append(host_loop_s())
    spent.append(time.perf_counter() - started)
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "status": status,
                "loop_s": loops,
                "loop_spent_s": spent,
                "import_s": import_s,
                "telemetry": obs.local().snapshot(),
            },
            handle,
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
