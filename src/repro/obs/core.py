"""Structured telemetry core: counters, gauges, histograms, timed spans.

The 2007 paper's CIC is an observability device bolted *beside* the fetch
path — it watches, it never steers.  :class:`Telemetry` applies the same
discipline to the reproduction's own execution tier: every instrument is
an accumulate-only side channel, so classification results are
byte-identical with telemetry enabled, disabled, or at any verbosity
(``tests/obs/test_neutrality.py`` pins this).

Design
------

* **Four instrument kinds**, all stored as plain mergeable dicts:
  monotonically increasing *counters*, last-value *gauges*,
  summary-statistic *histograms* (count / sum / min / max plus
  power-of-two bucket counts, enough for rate and tail estimates without
  keeping samples), and *spans* — wall-time intervals measured on the
  monotonic clock (:func:`time.perf_counter`), accumulated per *path*.
* **Span paths form a tree.**  ``span()`` maintains a stack per
  :class:`Telemetry` instance; a span opened while another is active
  records under ``"parent/child"``.  A rendered span tree is just the
  paths split on ``/`` (:mod:`repro.obs.stats`).
* **Process-safe by construction.**  Nothing here locks or shares:
  every process accumulates into its own process-local instance
  (:func:`local`), and the execution harness moves data across process
  boundaries by value — each worker calls :meth:`~Telemetry.drain` on
  its local instance at shard end and the parent
  :meth:`~Telemetry.merge` folds the delta in at shard commit, riding
  the same seams the JSONL records already cross.
* **Cheap enough to leave on.**  A counter bump is one dict operation;
  a span is two clock reads.  Disabled instances no-op entirely
  (``REPRO_OBS=0`` in the environment, :func:`set_enabled`, or the
  CLI's ``--no-telemetry`` flag).

The per-run aggregation (manifest + merged telemetry + per-shard stats)
lives in :mod:`repro.obs.metrics`; this module is only the accumulator.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

#: Environment switch: ``REPRO_OBS=0`` starts the process-local
#: telemetry disabled (workers inherit the parent's choice under fork;
#: spawn-started workers re-read the environment).
ENV_SWITCH = "REPRO_OBS"


def _bucket(value: float) -> int:
    """Power-of-two histogram bucket: smallest ``e`` with ``value <= 2**e``."""
    exponent = 0
    while value > (1 << exponent) and exponent < 63:
        exponent += 1
    return exponent


class Telemetry:
    """One process-local accumulator of counters, gauges, histograms, spans.

    All state is plain dicts of JSON-serializable scalars, so a
    snapshot travels through pickle, JSON, and :meth:`merge` unchanged.
    """

    __slots__ = ("enabled", "counters", "gauges", "histograms", "spans", "_stack")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, dict] = {}
        self.spans: dict[str, dict] = {}
        self._stack: list[str] = []

    # -- instruments -----------------------------------------------------

    def count(self, name: str, value: int = 1) -> None:
        """Add *value* to the monotonically increasing counter *name*."""
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set gauge *name* to its latest observed *value*."""
        if not self.enabled:
            return
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Fold *value* into histogram *name* (count/sum/min/max/buckets)."""
        if not self.enabled:
            return
        entry = self.histograms.get(name)
        if entry is None:
            entry = self.histograms[name] = {
                "count": 0, "sum": 0.0, "min": value, "max": value,
                "buckets": {},
            }
        entry["count"] += 1
        entry["sum"] += value
        if value < entry["min"]:
            entry["min"] = value
        if value > entry["max"]:
            entry["max"] = value
        key = str(_bucket(value))
        entry["buckets"][key] = entry["buckets"].get(key, 0) + 1

    @contextmanager
    def span(self, name: str):
        """Time a block on the monotonic clock, accumulated per span path.

        Nested spans record under ``"outer/inner"`` paths; the interval
        is charged on exit even when the body raises.
        """
        if not self.enabled:
            yield
            return
        self._stack.append(name)
        path = "/".join(self._stack)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            entry = self.spans.get(path)
            if entry is None:
                self.spans[path] = {"count": 1, "seconds": elapsed}
            else:
                entry["count"] += 1
                entry["seconds"] += elapsed

    # -- movement --------------------------------------------------------

    @property
    def empty(self) -> bool:
        return not (self.counters or self.gauges or self.histograms or self.spans)

    def snapshot(self) -> dict:
        """A deep-enough copy of everything recorded (empty kinds omitted)."""
        data: dict = {}
        if self.counters:
            data["counters"] = dict(self.counters)
        if self.gauges:
            data["gauges"] = dict(self.gauges)
        if self.histograms:
            data["histograms"] = {
                name: {**entry, "buckets": dict(entry["buckets"])}
                for name, entry in self.histograms.items()
            }
        if self.spans:
            data["spans"] = {
                path: dict(entry) for path, entry in self.spans.items()
            }
        return data

    def drain(self) -> dict:
        """Snapshot and reset: the shard-commit delta workers hand back."""
        data = self.snapshot()
        self.clear()
        return data

    def clear(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()
        self.spans.clear()

    def merge(self, data: dict | None) -> None:
        """Fold a :meth:`snapshot`/:meth:`drain` delta into this instance.

        Merging is the parent-side half of the shard-commit protocol:
        counters and span/histogram statistics add, gauges keep the
        newest value.  Merging ignores ``enabled`` on purpose — a parent
        that collects always absorbs what workers measured.
        """
        if not data:
            return
        for name, value in data.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + value
        self.gauges.update(data.get("gauges", {}))
        for name, delta in data.get("histograms", {}).items():
            entry = self.histograms.get(name)
            if entry is None:
                self.histograms[name] = {
                    **delta, "buckets": dict(delta.get("buckets", {}))
                }
                continue
            entry["count"] += delta["count"]
            entry["sum"] += delta["sum"]
            entry["min"] = min(entry["min"], delta["min"])
            entry["max"] = max(entry["max"], delta["max"])
            for key, count in delta.get("buckets", {}).items():
                entry["buckets"][key] = entry["buckets"].get(key, 0) + count
        for path, delta in data.get("spans", {}).items():
            entry = self.spans.get(path)
            if entry is None:
                self.spans[path] = dict(delta)
            else:
                entry["count"] += delta["count"]
                entry["seconds"] += delta["seconds"]


# ----------------------------------------------------------------------
# The process-local instance and its module-level face
# ----------------------------------------------------------------------

_LOCAL = Telemetry(enabled=os.environ.get(ENV_SWITCH, "1") != "0")


def local() -> Telemetry:
    """This process's telemetry accumulator (workers drain it per task)."""
    return _LOCAL


def enabled() -> bool:
    return _LOCAL.enabled


def set_enabled(flag: bool) -> None:
    """Turn the process-local instruments on or off (observer only —
    execution results are identical either way)."""
    _LOCAL.enabled = bool(flag)


@contextmanager
def scoped(flag: bool):
    """Temporarily force telemetry on/off (the neutrality tests' lever)."""
    previous = _LOCAL.enabled
    _LOCAL.enabled = bool(flag)
    try:
        yield
    finally:
        _LOCAL.enabled = previous


def count(name: str, value: int = 1) -> None:
    _LOCAL.count(name, value)


def gauge(name: str, value: float) -> None:
    _LOCAL.gauge(name, value)


def observe(name: str, value: float) -> None:
    _LOCAL.observe(name, value)


def span(name: str):
    return _LOCAL.span(name)
