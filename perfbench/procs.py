"""Cold CLI processes: launch, watch the process tree's memory, collect.

Every operation the benchmark times is one :class:`Cli` process: a fresh
interpreter running :mod:`child`, which calls ``repro.cli.main(argv)``.
While it runs, a thread reads the proportional set size (``Pss``) of
every process in its tree from ``/proc/PID/smaps_rollup`` and keeps the
largest sum seen.  Pss charges each shared page (copy-on-write pages of a
forked pool worker, shared-memory segments) once across the processes
that map it, so the sum is the tree's own memory, not a multiple of it.
A descendant counts from its second sighting on: a child spawned with
``vfork`` (as ``subprocess`` does) shares its parent's address space
until it execs, and would count that memory twice.

The child times :func:`hostspeed.host_loop_s` before and after the
operation; :attr:`Cli.wall_s` and :attr:`Cli.first_kernel_s` leave that
time out, and :attr:`Cli.loop_s` is the mean of the two readings.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))

#: Memory sampling interval (seconds).
POLL_S = 0.02

#: A process still running after this long is killed and counted failed.
TIMEOUT_S = 150.0


def _children(pid: int) -> list[int]:
    try:
        with open(f"/proc/{pid}/task/{pid}/children", encoding="ascii") as handle:
            return [int(token) for token in handle.read().split()]
    except OSError:
        return []


def _tree(root: int) -> list[int]:
    """*root* and all its live descendants."""
    tree, stack = [], [root]
    while stack:
        pid = stack.pop()
        tree.append(pid)
        stack.extend(_children(pid))
    return tree


def _pss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Cli:
    """One ``repro`` CLI invocation in a fresh interpreter."""

    def __init__(self, root: str, workdir: str, name: str, argv: list[str],
                 trace: bool = False):
        self.root = root
        self.argv = argv
        self.report_path = os.path.join(workdir, name + ".report.json")
        self.stdout_path = os.path.join(workdir, name + ".stdout")
        self.stderr_path = os.path.join(workdir, name + ".stderr")
        self.trace = trace
        self.process: subprocess.Popen | None = None
        self._peak_kb = 0
        self._sampler: threading.Thread | None = None
        self._done = threading.Event()
        self.launched = 0.0
        self.ended = 0.0
        self.status: int | None = None
        self.report: dict = {}

    def start(self) -> "Cli":
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        command = [
            sys.executable, os.path.join(HERE, "child.py"),
            self.report_path, "1" if self.trace else "0", "--", *self.argv,
        ]
        with open(self.stdout_path, "wb") as out, open(self.stderr_path, "wb") as err:
            self.launched = time.perf_counter()
            self.process = subprocess.Popen(
                command, cwd=self.root, env=env, stdout=out, stderr=err,
                stdin=subprocess.DEVNULL,
            )
        self._sampler = threading.Thread(target=self._sample, daemon=True)
        self._sampler.start()
        return self

    def _sample(self) -> None:
        root = self.process.pid
        seen: set[int] = set()
        while not self._done.is_set():
            tree = set(_tree(root))
            total = sum(_pss_kb(pid) for pid in tree if pid == root or pid in seen)
            self._peak_kb = max(self._peak_kb, total)
            seen = tree
            self._done.wait(POLL_S)

    def wait(self, timeout: float = TIMEOUT_S) -> "Cli":
        # A blocking wait sees the exit at once; ``Popen.wait(timeout)``
        # polls, in sleeps of up to 50 ms, which would land in wall_s.
        watchdog = threading.Timer(timeout, self.kill_tree)
        watchdog.start()
        try:
            self.status = self.process.wait()
        finally:
            watchdog.cancel()
        self.ended = time.perf_counter()
        self._done.set()
        self._sampler.join()
        if os.path.exists(self.report_path):
            with open(self.report_path, encoding="utf-8") as handle:
                self.report = json.load(handle)
        return self

    def kill_tree(self) -> None:
        """Kill the process and every descendant (pool workers included)."""
        for pid in _tree(self.process.pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def run(self) -> "Cli":
        return self.start().wait()

    @property
    def ok(self) -> bool:
        return self.status == 0 and self.report.get("status") == 0

    @property
    def wall_s(self) -> float:
        """Launch to exit, less the child's host-speed readings."""
        spent = self.report.get("loop_spent_s", [0.0, 0.0])
        return self.ended - self.launched - sum(spent)

    @property
    def loop_s(self) -> float | None:
        """Mean host-speed reading before and after the operation."""
        loops = self.report.get("loop_s")
        return sum(loops) / len(loops) if loops else None

    @property
    def peak_rss_mb(self) -> float:
        """Largest summed Pss of the process tree (MB)."""
        return self._peak_kb / 1024.0

    @property
    def first_kernel_s(self) -> float | None:
        """Launch until the first batch-kernel call in any process, less
        the child's first host-speed reading."""
        path = self.report_path + ".kernel"
        if not os.path.exists(path):
            return None
        with open(path, encoding="utf-8") as handle:
            stamps = [float(line.split()[1]) for line in handle if line.strip()]
        if not stamps:
            return None
        return min(stamps) - self.launched - self.report.get("loop_spent_s", [0.0])[0]

    def stdout(self) -> str:
        with open(self.stdout_path, encoding="utf-8", errors="replace") as handle:
            return handle.read()

    def stderr_tail(self, limit: int = 600) -> str:
        with open(self.stderr_path, encoding="utf-8", errors="replace") as handle:
            return handle.read()[-limit:]
