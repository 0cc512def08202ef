"""Persistent warm worker pools: spin up once, reuse everywhere.

Before this module, every :meth:`HarnessRunner.run` call that went
parallel built a fresh :class:`multiprocessing.Pool`, had every worker
re-materialize its warm workspace, and tore the whole thing down when
the run finished.  For the checkpointed backends that warm state *is*
the campaign's fixed cost — golden run, FHT, decode cache, checkpoint
store — so benchmarks that ran one campaign per cell measured pool
spin-up, not execution, and adding workers made throughput **fall**
(``results/BENCH_bench_campaign_scaling.json`` before this change:
golden 1071 → 671 faults/s from 1 to 4 workers).

A :class:`WarmPool` is created once per ``(factory, workers)`` identity
and kept for the life of the process:

* the pool initializer receives the parent's workspace itself
  (:func:`publish`), and the ``fork`` start method hands it to every
  worker by inheritance — nothing is pickled, rebuilt or re-recorded;
  where only ``spawn`` exists, multiprocessing pickles the argument;
* every later harness run whose job carries an *equal* factory (same
  pickle) reuses the live pool: no fork/spawn and no parent workspace —
  shards go straight to warm workers;
* campaigns and DSE sweeps share the mechanism because identity is the
  factory itself, not the client type.

Identity is the factory's pickle: two runners whose specs/spaces are
equal reuse one pool; any difference (another workload, another backend,
another batch plan) transparently gets its own.  The registry holds at
most :data:`MAX_POOLS` pools and evicts least-recently-used beyond that,
so long pytest sessions cannot accumulate worker processes.  All pools
are torn down at interpreter exit (and by :func:`shutdown_pools`, which
tests call to assert reuse from a clean slate).

Correctness is unaffected by reuse: workspaces are read-only recipes for
per-item execution (per-injection state is rebuilt or restored inside
the kernels), and the scaling/invariance tier pins that a reused pool
produces byte-identical records to a cold one.
"""

from __future__ import annotations

import atexit
import pickle
from typing import Callable

from repro.obs import core as obs

#: Live pools kept before least-recently-used eviction kicks in.  Four
#: pools of at most a few workers each bounds stray processes while
#: letting a bench sweep (three backends) plus a test file coexist.
MAX_POOLS = 4


def _factory_key(factory, workers: int) -> tuple:
    """Pool identity: the factory's pickled value plus the pool size.

    Pickle equality is conservative — a spurious mismatch only costs a
    fresh pool, never a wrong reuse.
    """
    return (
        type(factory).__qualname__,
        pickle.dumps(factory, protocol=pickle.HIGHEST_PROTOCOL),
        workers,
    )


def publish(workspace):
    """Hand the parent's *workspace* to a new pool's initializer: under
    ``fork`` every worker inherits this very object."""
    return workspace


class WarmPool:
    """One persistent pool of workers warmed for one factory."""

    def __init__(self, key: tuple, factory, workers: int, workspace):
        import multiprocessing

        from repro.exec.harness import _pool_init

        method = (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        context = multiprocessing.get_context(method)
        self.key = key
        self.workers = workers
        #: Harness runs served (1 = just built): tests and benchmarks
        #: read this to assert a pool was actually reused.
        self.runs = 0
        self._pool = context.Pool(
            processes=workers,
            initializer=_pool_init,
            initargs=(factory, workspace),
        )

    def imap_shards(self, tasks):
        """Dispatch shard tasks — one shard or a window of consecutive
        ones each — to the warm workers, unordered."""
        from repro.exec.harness import _pool_shard

        self.runs += 1
        return self._pool.imap_unordered(_pool_shard, tasks)

    def close(self) -> None:
        """Tear the pool down."""
        self._pool.terminate()
        self._pool.join()


#: Insertion-ordered registry; order doubles as the LRU list.
_POOLS: dict[tuple, WarmPool] = {}


def acquire(
    factory, workers: int, workspace_supplier: Callable[[], object]
) -> WarmPool:
    """The warm pool for *factory*, creating (and caching) it on first use.

    *workspace_supplier* is only invoked when a pool is actually built —
    reusing a pool never touches the parent workspace, which is what
    makes repeat campaigns skip the recording entirely.
    """
    key = _factory_key(factory, workers)
    pool = _POOLS.pop(key, None)
    if pool is None:
        obs.count("pool.build")
        pool = WarmPool(key, factory, workers, publish(workspace_supplier()))
        while len(_POOLS) >= MAX_POOLS:
            obs.count("pool.evict")
            _POOLS.pop(next(iter(_POOLS))).close()
    else:
        obs.count("pool.reuse")
    _POOLS[key] = pool  # (re)append: most recently used sits last
    return pool


def pool_stats() -> dict[tuple, int]:
    """Live pools and their run counts (introspection for tests/benchmarks)."""
    return {key: pool.runs for key, pool in _POOLS.items()}


def shutdown_pools() -> None:
    """Close every live pool (idempotent; also runs at interpreter exit)."""
    while _POOLS:
        _, pool = _POOLS.popitem()
        pool.close()


atexit.register(shutdown_pools)
