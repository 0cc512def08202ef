"""The host's speed at the moment: a fixed pure-Python loop, timed.

Other tenants of a shared host slow every process on it, by up to half
for seconds to minutes at a time, and CPU time slows with wall time.
:mod:`child` times this loop in the measured process itself, just before
``repro`` is imported and just after ``main`` returns, so the benchmark
can scale the operation's times to a reference speed (see
:mod:`workloads`).  The module imports only what the interpreter has
loaded at start, so it adds no import time to the process it runs in.
"""

import os
import time


def _loop() -> None:
    total = 0
    for number in range(300_000):
        total += number * number % 7


def _fewest_s() -> float:
    times = []
    for _ in range(3):
        started = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - started)
    return min(times)


def host_loop_s() -> float:
    """Mean, over the CPUs this process may run on, of the loop's fewest
    seconds in three runs on that CPU.

    The other tenants load each CPU differently, and a workload with
    pool workers runs on all of them.
    """
    allowed = os.sched_getaffinity(0)
    readings = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            readings.append(_fewest_s())
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(readings) / len(readings)
