"""Content-addressed cache of golden checkpoint stores.

A campaign workspace — golden reference run, FHT, decode cache, and the
backend's prepared checkpoint store — is the expensive, *deterministic*
function of one :class:`~repro.exec.spec.CampaignSpec`: the (workload,
monitor config, scale, backend) tuple fully determines every byte of it.
That makes it content-addressable: the spec's fingerprint (a sha256 over
its canonical JSON) **is** the cache key, and two tenants whose jobs
agree on it need exactly one recording between them.

The cache keeps :class:`~repro.exec.runner.Workspace` objects and hands
every lease of a fingerprint the same one.  Concurrent jobs may share
it: its checkpoints are immutable values that every restore copies
from, and the kernels write nothing in it but the decode cache's memo.
A golden store already shares its checkpoints with the process's one
recording of the program (:func:`~repro.exec.golden.
pristine_recording`), so an entry adds little to what that recording
holds.  It applies :class:`~repro.exec.harness.MeasureCache`'s keyed
compute-once discipline at server scope, made eviction-aware.

Concurrency: misses on the *same* key are deduplicated — the second
tenant blocks on the first build's completion and then hits — while
misses on different keys build in parallel.  Entries are evicted
least-recently-used beyond ``capacity``.  Every lease counts
``service.cache.hit`` / ``.miss`` telemetry (:mod:`repro.obs`), and
:meth:`CheckpointCache.stats` exposes the same numbers to the ``stats``
protocol op, so a benchmark or smoke test can assert the reuse actually
happened.

Leases are behaviourally invisible: a cached workspace, run by several
jobs at once, classifies every injection exactly as a freshly recorded
one — pinned by ``tests/service/test_cache.py``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.exec.runner import Workspace
from repro.exec.spec import CampaignSpec
from repro.obs import core as obs

#: Default number of cached checkpoint stores before LRU eviction.
DEFAULT_CAPACITY = 8


@dataclass(slots=True)
class CacheEntry:
    """One cached workspace plus bookkeeping."""

    key: str
    label: str
    workspace: Workspace
    build_seconds: float
    hits: int = 0

    def to_json(self) -> dict:
        return {
            "key": self.key,
            "label": self.label,
            "build_seconds": round(self.build_seconds, 6),
            "hits": self.hits,
        }


class CheckpointCache:
    """LRU cache of campaign workspaces, keyed by spec fingerprint."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        #: Insertion-ordered; order doubles as the LRU list (oldest first).
        self._entries: dict[str, CacheEntry] = {}
        self._lock = threading.Lock()
        #: Per-key build gates: concurrent misses on one key build once.
        self._building: dict[str, threading.Lock] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------

    def lease(self, spec: CampaignSpec) -> Workspace:
        """The warm workspace for *spec*: cached on a hit, recorded on a
        miss.  Every lease of one fingerprint returns the same object."""
        key = spec.fingerprint()
        entry = self._touch(key)
        if entry is not None:
            return entry.workspace
        # Miss path: serialize builds per key so an overlapping tenant
        # arriving mid-recording waits for the first build and then hits.
        with self._lock:
            gate = self._building.setdefault(key, threading.Lock())
        with gate:
            entry = self._touch(key)
            if entry is not None:
                return entry.workspace
            self._misses += 1
            obs.count("service.cache.miss")
            started = time.perf_counter()
            with obs.span("service.cache.build"):
                workspace = Workspace.build(spec)
            entry = CacheEntry(
                key=key,
                label=spec.label,
                workspace=workspace,
                build_seconds=time.perf_counter() - started,
            )
            with self._lock:
                self._entries[key] = entry
                self._evict_over_capacity()
                self._building.pop(key, None)
            return workspace

    def _touch(self, key: str) -> CacheEntry | None:
        """Look *key* up and mark it most-recently-used."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return None
            self._entries[key] = entry
            entry.hits += 1
            self._hits += 1
        obs.count("service.cache.hit")
        return entry

    def _evict_over_capacity(self) -> None:
        """Drop least-recently-used entries beyond capacity (lock held)."""
        while len(self._entries) > self.capacity:
            del self._entries[next(iter(self._entries))]
            self._evictions += 1
            obs.count("service.cache.evict")

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> dict:
        """Hit/miss/eviction counts and the resident entries, for ``stats``."""
        with self._lock:
            entries = [entry.to_json() for entry in self._entries.values()]
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "entries": len(entries),
                "capacity": self.capacity,
                "stores": entries,
            }

    def clear(self) -> None:
        """Drop every cached workspace (server shutdown path)."""
        with self._lock:
            self._entries.clear()
