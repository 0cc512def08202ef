"""Probes installed around the program's layer entry points.

Nothing under ``src/`` knows about these: :mod:`child` installs them by
replacing module attributes and methods *before* ``repro.cli.main``
runs, at the call sites the program actually resolves (for example
``repro.exec.backends.run_batch_golden``, because ``backends`` imported
the name).  Pool workers are forked, so they inherit the replacements.

Two levels:

* :func:`install_kernel_probe` (always on) appends ``"<pid> <t>"`` to a
  side file at the first batch-kernel call of each process.  One file
  append per process: the untimed cost of knowing when set-up ended.
* :func:`install_layer_spans` (traced runs only) times each layer call
  with the program's own telemetry spans (``repro.obs``), named
  ``L:<layer>``, and adds exact work counters.  Spans and counters
  recorded in pool workers ride back to the parent through the harness's
  per-shard telemetry drain and land in the run's ``*.metrics.json``.
"""

from __future__ import annotations

import functools
import os
import time

#: Prefix that marks the benchmark's spans and counters in telemetry.
PREFIX = "L:"

#: Layer names open in this process, innermost last; work counters are
#: keyed by the innermost one so a count made during set-up never lands
#: in a per-fault figure.
_ACTIVE: list[str] = []


def _replace(owner, attr: str, make) -> None:
    original = getattr(owner, attr)
    wrapper = make(original)
    functools.update_wrapper(wrapper, original)
    setattr(owner, attr, wrapper)


def install_kernel_probe(path: str) -> None:
    """Record the first batch-kernel call of every process in *path*."""
    from repro.exec import backends

    seen: set[int] = set()

    def make(original):
        def first_call(self, state, faults):
            pid = os.getpid()
            if pid not in seen:
                seen.add(pid)
                with open(path, "a", encoding="utf-8") as handle:
                    handle.write(f"{pid} {time.perf_counter()!r}\n")
            return original(self, state, faults)

        return first_call

    for backend in (backends.GoldenBackend, backends.PipelineGoldenBackend):
        _replace(backend, "run_batch", make)


def install_layer_spans() -> None:
    """Wrap every layer entry point the per-layer metrics are read from."""
    from repro.obs import core as obs
    from repro.dse import engine
    from repro.exec import backends, harness, pipeline_golden, pool, spec
    from repro.exec import golden
    from repro.pipeline.cpu import PipelineCPU
    from repro.pipeline.funcsim import FuncSim

    def spanned(name: str):
        label = PREFIX + name

        def make(original):
            def wrapper(*args, **kwargs):
                _ACTIVE.append(name)
                try:
                    with obs.span(label):
                        return original(*args, **kwargs)
                finally:
                    _ACTIVE.pop()

            return wrapper

        return make

    def scope() -> str:
        return _ACTIVE[-1] if _ACTIVE else "-"

    def batch(name: str):
        span = spanned(name)

        def make(original):
            timed = span(original)

            def wrapper(store, faults):
                obs.count(f"{PREFIX}{name}_faults", len(faults))
                return timed(store, faults)

            return wrapper

        return make

    for owner, attr, name in (
        (spec, "build_context", "faults.context"),
        (backends, "build_golden_store", "golden.record"),
        (backends, "run_batch_golden", "golden.batch"),
        (golden, "classify_run", "faults.classify"),
        (backends, "build_pipeline_golden_store", "pgolden.record"),
        (backends, "run_batch_pipeline_golden", "pgolden.batch"),
        (pipeline_golden, "classify_pipeline_run", "faults.classify_pipeline"),
        (FuncSim, "snapshot", "funcsim.snapshot"),
        (engine.DseWorkspace, "_measure", "dse.measure"),
        (pool, "publish", "pool.publish"),
        (pool.WarmPool, "__init__", "pool.create"),
        (harness.HarnessRunner, "_run_pool", "pool.dispatch"),
    ):
        _replace(owner, attr, (batch if name.endswith(".batch") else spanned)(name))

    def make_pool_init(original):
        timed = spanned("pool.init")(original)

        def pool_init(factory, ticket):
            # A forked worker inherits the spans the parent had open at
            # the fork; the worker's own spans start at the root.
            _ACTIVE.clear()
            del obs.local()._stack[:]
            return timed(factory, ticket)

        return pool_init

    _replace(harness, "_pool_init", make_pool_init)

    def make_funcsim_run(original):
        # Instructions are counted by the simulator's own position, which
        # run() updates even when the run ends in a raised machine check.
        def run(self, until=None):
            where = scope()
            before = self._executed
            _ACTIVE.append("funcsim.run")
            try:
                with obs.span(PREFIX + "funcsim.run"):
                    return original(self, until)
            finally:
                _ACTIVE.pop()
                obs.count(f"{PREFIX}funcsim.instr@{where}", self._executed - before)

        return run

    def make_funcsim_restore(original):
        def restore(self, snapshot):
            obs.count(f"{PREFIX}funcsim.restores@{scope()}")
            with obs.span(PREFIX + "funcsim.restore"):
                return original(self, snapshot)

        return restore

    def make_pipeline_run(original):
        def run(self, until=None):
            where = scope()
            before = self.cycles
            _ACTIVE.append("pipeline.run")
            try:
                with obs.span(PREFIX + "pipeline.run"):
                    return original(self, until)
            finally:
                _ACTIVE.pop()
                obs.count(f"{PREFIX}pipeline.cycles@{where}", self.cycles - before)

        return run

    def make_measure(original):
        def measure(self, workload, config):
            obs.count(PREFIX + "dse.measure_calls")
            return original(self, workload, config)

        return measure

    _replace(FuncSim, "run", make_funcsim_run)
    _replace(FuncSim, "restore", make_funcsim_restore)
    _replace(PipelineCPU, "run", make_pipeline_run)
    _replace(engine.DseWorkspace, "measure", make_measure)
    _install_commit_gaps(harness, obs)


def _install_commit_gaps(harness, obs) -> None:
    """Time the serial harness's per-shard commit.

    The commit (encode, write, marker, events) is a closure inside
    ``HarnessRunner.run``, so it cannot be wrapped.  On the serial path
    the loop alternates ``_run_shard`` and ``commit``; the gap between
    one shard's end and the next shard's start in the main process is
    one commit.  Pool workers are skipped: their gaps are idle time.
    """
    main_pid = os.getpid()
    last_end: list[float] = []

    def make(original):
        def run_shard(factory, workspace, task):
            if os.getpid() == main_pid and last_end:
                obs.observe(
                    PREFIX + "harness.commit_s",
                    time.perf_counter() - last_end[0],
                )
            try:
                return original(factory, workspace, task)
            finally:
                last_end[:] = [time.perf_counter()]

        return run_shard

    _replace(harness, "_run_shard", make)
