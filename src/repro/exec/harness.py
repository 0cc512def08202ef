"""One execution harness: sharded, streamed, resumable evaluation runs.

The paper's evaluation is a single shape repeated at different
granularities — *run a monitored program under a perturbation and score
the outcome* — and every experiment that scales it (fault campaigns,
attack sweeps, whole design-space sweeps) needs the same machinery:
shard a work list into fixed chunks, evaluate shards on a worker pool
with warm per-worker state, stream records to a JSONL file with commit
markers, and resume an interrupted run from the last committed shard.
This module is that machinery, written **once**:

* :class:`Job` — what to run: the item list in canonical index order,
  the seed, the JSONL schema version and header payload (the client's
  identity: spec/space + fingerprint), and the shard plan (chunk size);
* :class:`WorkspaceFactory` — how to run it: a picklable recipe that
  builds a warm workspace, executes one item against it, and
  encodes/decodes the client's record type for the wire;
* :class:`HarnessRunner` — the engine: serial and pooled execution of
  windows of shards, JSONL streaming, ``shard-done`` commit markers,
  kill/resume, and the worker-count-invariance guarantees;
* :class:`MeasureCache` — the workspace-layer memo for measures shared
  across the items a worker evaluates.

:class:`~repro.exec.runner.CampaignRunner` (items = perturbations,
records = :class:`~repro.exec.records.FaultRecord`) and
:class:`~repro.dse.engine.DseSweep` (items = monitor configurations,
records = :class:`~repro.dse.engine.DsePoint`) are thin clients; the two
resume protocols are one protocol and cannot diverge.  The on-disk JSONL
formats are exactly the pre-harness ones — files written before the
redesign load and resume byte-identically
(``tests/harness/test_artifact_compat.py``).

Guarantees (inherited by every client)
    * **Determinism** — shard boundaries depend only on the item list
      and ``chunk_size``; each shard's seed derives from ``(seed,
      shard_id)``; aggregates ordered by item index are identical for
      any ``workers`` value.
    * **Durability** — a shard's records only count once its
      ``shard-done`` marker is on disk; torn lines, orphaned records,
      and duplicate lines from interrupted runs are all resolved in the
      committed shard's favour on resume.
    * **Identity** — resume refuses, without writing to it, a file
      that does not begin with this job's header: fingerprint, seed,
      total, chunk size, and schema version must all agree.

Windows
    The shard is the unit of resume; the *window* is the unit of
    dispatch.  A factory whose kernel shares work across a batch sets
    :attr:`WorkspaceFactory.window`, and :func:`plan_windows` groups
    runs of consecutive pending shards into windows of up to that many
    items — whole shards only, at least one, and on a pool at most one
    worker's share of the pending items.  A window runs as one task;
    once it completes, its shards commit in index order, each with its
    own records and marker, so a serial file is the same bytes under any
    window and a kill loses at most one window.  Without a window every
    task is one shard.

One workspace per process tree
    The parent's workspace is the only way recorded state reaches the
    pool: a new pool's initializer receives that object, and the
    ``fork`` start method hands it to every worker by inheritance, so
    golden runs, contexts and checkpoint stores are recorded once in
    the parent and neither pickled nor rebuilt per worker
    (:mod:`repro.exec.pool`).  The parent builds it only when a shard
    runs in the parent or a pool is built.

Telemetry
    Every run is observed through :mod:`repro.obs`: workers accumulate
    counters and spans process-locally and drain them per task, the
    parent merges each delta at commit (riding the same seam the JSONL
    records cross), and a ``<out>.metrics.json`` manifest +
    metrics artifact lands beside the results file.  Runs with an
    ``out`` also stream a live ``<out>.events.jsonl`` event log at the
    same commit seam (:mod:`repro.obs.events`): run-started /
    shard-committed / worker-heartbeat / resume / run-finished lines
    that ``repro stats --follow`` tails in flight.  Strictly an
    observer — results files are byte-identical with telemetry on, off,
    or at any verbosity (``tests/obs/test_neutrality.py`` pins this).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ConfigurationError
from repro.obs import core as obs
from repro.obs.events import EventWriter, events_path
from repro.obs.metrics import (
    build_payload,
    environment,
    metrics_path,
    write_metrics,
)
from repro.exec.spec import shard_seed
from repro.utils.jsonl import AppendLog, read_complete

#: Items per shard when a job does not choose: the unit of resume, and
#: of work distribution unless the factory sets a window.
DEFAULT_CHUNK_SIZE = 16

#: Header keys resume validates against the requesting job.
RESUME_KEYS = ("fingerprint", "seed", "total", "chunk_size", "version")

#: A shard task: (shard_id, first index, items, derived seed).  A task
#: dispatched for a window has the same shape: its first shard's id,
#: index and seed, and the items of all its shards.
ShardTask = tuple[int, int, list, int]


def validate_plan(workers: int, chunk_size: int) -> None:
    """Constructor-time validation shared by the harness and its clients."""
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")


class WorkspaceFactory:
    """Picklable recipe for warm state and per-item execution.

    Instances cross process boundaries (pool initializers receive them)
    and key the warm pools, so subclasses must stay plain data —
    everything heavyweight is built inside :meth:`build`.
    """

    #: JSONL line type of this client's records (``"record"``/``"point"``).
    record_type: str = "record"
    #: Human label for diagnostics ("campaign results", "DSE sweep").
    kind: str = "results"
    #: Items one task may carry: the harness dispatches consecutive
    #: shards together as a *window* of up to this many items (at least
    #: one whole shard), and :meth:`run_items` must then stamp each
    #: record with its own shard.  ``None`` keeps one shard per task.
    window: int | None = None

    def build(self):
        """Materialize the parent's warm workspace, unless its client
        supplies one; pool workers inherit it and never call this."""
        raise NotImplementedError

    def run_item(self, workspace, index: int, shard: int, item):
        """Execute one item; return the client's record (with
        ``.index``/``.shard`` set to the given coordinates)."""
        raise NotImplementedError

    def run_items(self, workspace, start: int, shard: int, items: list) -> list:
        """Execute one task's items; return their records in item order.

        *items* are the job's items from index *start*, which lies in
        shard *shard*: one shard, or — for a client that sets
        :attr:`window` — the consecutive shards of a window, whose
        records each carry their own shard.  The default runs
        :meth:`run_item` per item, all in *shard*.  Clients whose backends have a
        *batched* kernel (the campaign factory, whose golden backend
        shares one advancer pass across a batch) override this to hand
        the kernel the whole window — the records must be exactly what
        the per-item path produces, which the scaling-invariance tier
        pins.
        """
        return [
            self.run_item(workspace, start + offset, shard, item)
            for offset, item in enumerate(items)
        ]

    def encode(self, record) -> dict:
        """Record -> its JSONL dict (``{"type": record_type, ...}``)."""
        raise NotImplementedError

    def decode(self, data: dict):
        """JSONL dict -> record (inverse of :meth:`encode`)."""
        raise NotImplementedError

    def check_resume_header(self, header: dict, out: str) -> None:
        """Client-specific resume validation beyond :data:`RESUME_KEYS`.

        Called after the generic identity checks pass; raise
        :class:`~repro.errors.ConfigurationError` to refuse the file
        (e.g. a DSE sweep refusing to mix record shapes from a
        cycle-measuring backend with functional-backend points).  The
        default accepts everything the generic checks accepted.
        """

    def describe(self) -> dict:
        """Client-specific manifest fields for the run's metrics artifact.

        Merged verbatim into the ``manifest`` of the ``.metrics.json``
        written beside the results file (backend, batch plan, workload
        set, ...).  Provenance only — nothing here may influence
        execution or the results artifact.  The default adds nothing.
        """
        return {}


@dataclass(slots=True)
class Job:
    """One harness run: items, identity, and the shard plan.

    ``payload`` carries the client's header identity — for campaigns the
    serialized spec and its fingerprint, for DSE sweeps the space, its
    fingerprint, and the informational backend — and is merged verbatim
    into the JSONL header, so the wire format is exactly what each
    client wrote before the harness existed.
    """

    factory: WorkspaceFactory
    items: list
    seed: int
    version: int
    payload: dict = field(default_factory=dict)
    chunk_size: int = DEFAULT_CHUNK_SIZE

    def __post_init__(self) -> None:
        validate_plan(workers=1, chunk_size=self.chunk_size)

    @property
    def total(self) -> int:
        return len(self.items)

    def header(self) -> dict:
        """The JSONL header line (first line of every results file)."""
        return {
            "type": "header",
            "version": self.version,
            "seed": self.seed,
            "total": self.total,
            "chunk_size": self.chunk_size,
            **self.payload,
        }

    def shards(self) -> list[ShardTask]:
        """The shard plan: chunked items with derived per-shard seeds.

        Boundaries depend only on the item list and ``chunk_size`` —
        never on worker count or completion order — which is what makes
        every aggregate worker-count invariant.
        """
        return [
            (
                shard_id,
                start,
                self.items[start : start + self.chunk_size],
                shard_seed(self.seed, shard_id),
            )
            for shard_id, start in enumerate(
                range(0, len(self.items), self.chunk_size)
            )
        ]


@dataclass(slots=True)
class HarnessResult:
    """Outcome of one :meth:`HarnessRunner.run` call.

    ``telemetry`` and ``shard_stats`` carry the run-level observation
    (the merged :class:`~repro.obs.core.Telemetry` snapshot and the
    per-shard commit metadata) when telemetry was enabled — the same
    material the ``.metrics.json`` artifact is built from, exposed so
    in-process clients (e.g. :func:`repro.coverage.runner.run_coverage`)
    can aggregate runs that never named an ``out`` file.  Both are empty
    with telemetry off; neither influences the records.
    """

    job: Job
    records: list = field(default_factory=list)
    out: str | None = None
    telemetry: dict | None = None
    shard_stats: list = field(default_factory=list)

    @property
    def total(self) -> int:
        return self.job.total

    @property
    def complete(self) -> bool:
        return len(self.records) == self.total

    def ordered(self) -> list:
        """Records by canonical item index — identical for any worker
        count and shard completion order."""
        return sorted(self.records, key=lambda record: record.index)


class MeasureCache:
    """Per-worker keyed memo: measure once, reuse across items.

    The workspace-layer cache the DSE engine's measures made necessary,
    hoisted into the harness so every client's workspace shares one
    implementation: measures keyed by whatever subset of an item's
    configuration they depend on are computed on first request and
    replayed for every later item that agrees on the key.
    """

    __slots__ = ("_data",)

    def __init__(self):
        self._data: dict = {}

    def get(self, key, build: Callable):
        """The cached value for *key*, computing it via *build()* once."""
        try:
            value = self._data[key]
        except KeyError:
            obs.count("measure_cache.miss")
            value = build()
            self._data[key] = value
            return value
        obs.count("measure_cache.hit")
        return value

    def __contains__(self, key) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)


def plan_windows(
    pending: list[ShardTask], window: int | None, workers: int
) -> list[list[ShardTask]]:
    """Group *pending* shards into windows, the unit of dispatch.

    A window is a run of consecutive shards holding at most *window*
    items, and at least one shard; ``None`` keeps one shard per window.
    With several *workers* a window also holds at most its share of
    the pending items, so a pooled run stays pooled.
    """
    if window is not None and workers > 1:
        share = -(-sum(len(task[2]) for task in pending) // workers)
        window = min(window, share)
    windows: list[list[ShardTask]] = []
    size = 0
    for task in pending:
        if (
            windows
            and window is not None
            and task[0] == windows[-1][-1][0] + 1
            and size + len(task[2]) <= window
        ):
            windows[-1].append(task)
            size += len(task[2])
        else:
            windows.append([task])
            size = len(task[2])
    return windows


def window_task(window: list[ShardTask]) -> ShardTask:
    """The one task that dispatches *window*: its first shard's
    coordinates and seed with every shard's items."""
    shard_id, start, _items, seed = window[0]
    return shard_id, start, [item for task in window for item in task[2]], seed


# ----------------------------------------------------------------------
# Pool workers (module-level so they pickle under any start method)
# ----------------------------------------------------------------------

_WORKER_FACTORY: WorkspaceFactory | None = None
_WORKER_WORKSPACE = None


def _pool_init(factory: WorkspaceFactory, workspace) -> None:
    """Pool initializer: adopt the parent's *workspace* (inherited under
    ``fork``)."""
    global _WORKER_FACTORY, _WORKER_WORKSPACE
    # Under fork the worker inherits the parent's accumulated telemetry;
    # clear it so the first shard's drained delta holds only what this
    # worker measured itself (parent-side counts are merged parent-side).
    obs.local().clear()
    _WORKER_FACTORY = factory
    _WORKER_WORKSPACE = workspace


def _run_shard(
    factory: WorkspaceFactory, workspace, task: ShardTask
) -> tuple[int, list, dict]:
    """Execute one task — a shard or a window of shards; return
    ``(shard_id, records, meta)`` for its first shard.

    ``meta`` is the execution-side observation the parent folds in at
    commit: which worker ran the task, its wall seconds and record
    count, and — when telemetry is enabled — the worker's drained
    :class:`~repro.obs.core.Telemetry` delta (kernel counters and spans
    accumulated since the previous drain; a worker's warm-up counters
    ride along with its first task).  Draining per task is what keeps
    persistent pool workers from leaking telemetry across runs.
    """
    shard_id, start, items, _seed = task
    telemetry = obs.local()
    started = time.perf_counter()
    with telemetry.span("shard"):
        records = factory.run_items(workspace, start, shard_id, items)
    meta = {
        "shard": shard_id,
        "worker": os.getpid(),
        "seconds": time.perf_counter() - started,
        "records": len(records),
    }
    if telemetry.enabled:
        meta["telemetry"] = telemetry.drain()
    return shard_id, records, meta


def _pool_shard(task: ShardTask) -> tuple[int, list, dict]:
    assert _WORKER_FACTORY is not None, "pool worker used before _pool_init"
    return _run_shard(_WORKER_FACTORY, _WORKER_WORKSPACE, task)


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------


class HarnessRunner:
    """Execute one :class:`Job`: shard, stream, commit, resume.

    The single implementation of the execution contract every client
    inherits — see the module docstring for the guarantees.
    """

    def __init__(
        self,
        job: Job,
        workers: int = 1,
        workspace_supplier: Callable | None = None,
    ):
        validate_plan(workers=workers, chunk_size=job.chunk_size)
        self.job = job
        self.workers = workers
        # An optional supplier lets the client hand over a parent-side
        # workspace it can build more cheaply than the factory (e.g.
        # around a prebuilt campaign context) — still lazily, so runs
        # that touch no workspace never pay for one.  What it returns
        # must be equivalent to factory.build(): pools are keyed by the
        # factory and reused, so a later runner with an equal factory
        # is served by workers holding this runner's workspace.
        self._supplier = workspace_supplier
        self._workspace = None

    @property
    def workspace(self):
        """Parent-side workspace (lazy): the serial execution path and
        what every worker of a pool built for this run inherits."""
        if self._workspace is None:
            build = self._supplier or self.job.factory.build
            self._workspace = build()
        return self._workspace

    # ------------------------------------------------------------------

    def _load_resume(self, out: str) -> tuple[set[int], list, int] | None:
        """Committed shards, their records, and the committed prefix's
        length in bytes, from one read of a previous run's file.

        Returns ``None`` when the file holds no complete line — empty, or
        one torn line (a run that died before its header landed; it
        begins with ``{`` like every line the harness writes): the job
        starts fresh.  Any other file must begin with this job's header,
        or this raises before anything is written.  The committed
        prefix ends at the last ``header`` or ``shard-done`` line; what
        follows (orphan records of a shard killed mid-commit, a torn
        line) is cut before the run appends.  A shard only counts as
        committed if its marker is in the prefix *and* exactly its
        expected item indexes decode — a shard with corrupted or orphaned
        record lines is re-run, and duplicate lines (from an earlier run
        interrupted mid-shard and later re-run) collapse to the last
        committed copy.
        """
        factory = self.job.factory
        lines, tail = read_complete(out)
        torn = sum(entry is None for _, entry in lines) + bool(tail)
        if torn:
            obs.count("records.torn_lines", torn)
        if not lines and tail[:1] in (b"", b"{"):
            return None
        header = lines[0][1] if lines else None
        if header is None or header.get("type") != "header":
            raise ConfigurationError(f"{out}: not a {factory.kind} file")
        expected = self.job.header()
        for key in RESUME_KEYS:
            if header.get(key) != expected[key]:
                raise ConfigurationError(
                    f"{out}: cannot resume — {key} is {header.get(key)!r}, "
                    f"this {factory.kind} has {expected[key]!r}"
                )
        factory.check_resume_header(header, out)
        committed = max(
            end for end, entry in lines
            if entry and entry.get("type") in ("header", "shard-done")
        )
        dropped = lines[-1][0] + len(tail) - committed
        if dropped:
            obs.count("records.truncated_bytes", dropped)
        entries = [entry for end, entry in lines if entry and end <= committed]
        marked = {
            entry["shard"]
            for entry in entries
            if entry.get("type") == "shard-done"
        }
        by_shard: dict[int, dict[int, object]] = {}
        for entry in entries:
            if entry.get("type") == factory.record_type and entry["shard"] in marked:
                record = factory.decode(entry)
                by_shard.setdefault(record.shard, {})[record.index] = record
        done: set[int] = set()
        records: list = []
        total = self.job.total
        for shard_id in marked:
            start = shard_id * self.job.chunk_size
            expected_indexes = set(
                range(start, min(start + self.job.chunk_size, total))
            )
            found = by_shard.get(shard_id, {})
            if set(found) == expected_indexes:
                done.add(shard_id)
                records.extend(found.values())
        return done, records, committed

    # ------------------------------------------------------------------

    def run(
        self,
        out: str | os.PathLike | None = None,
        resume: bool = False,
        stop_after_shards: int | None = None,
    ) -> HarnessResult:
        """Execute the job; return the (possibly partial) result.

        Parameters
        ----------
        out:
            JSONL results path.  Required for ``resume``.
        resume:
            Replay committed shards from *out* and run only the rest.
        stop_after_shards:
            Execute at most this many new shards, then return a partial
            result — the test/CLI hook for simulating interruption.
        """
        job = self.job
        out_path = os.fspath(out) if out is not None else None
        if resume and out_path is None:
            raise ConfigurationError("resume=True requires out=")

        # Run-level telemetry is a dedicated instance: parent spans live
        # here, worker deltas merge in at shard commit, and the process-
        # local accumulator is drained around the run so client-side setup
        # (contexts, corpora) and parent-side counters (pool builds and
        # reuse) are folded in without leaking across runs.  Pure
        # observation: the results artifact is byte-identical either way.
        collect = obs.enabled()
        telem = obs.Telemetry(enabled=collect)
        shard_stats: list[dict] = []
        executed = 0
        if collect:
            telem.merge(obs.local().drain())

        done_shards: set[int] = set()
        records: list = []
        committed = 0  # bytes of the results file this run keeps
        resuming = resume and out_path is not None and os.path.exists(out_path)
        with telem.span("run"):
            if resuming:
                with telem.span("resume"):
                    loaded = self._load_resume(out_path)
                if loaded is None:
                    resuming = False  # no complete line: start fresh
                else:
                    done_shards, records, committed = loaded
                    telem.count("harness.resume.shards", len(done_shards))
                    telem.count("harness.resume.records", len(records))

            with telem.span("plan"):
                plan = job.shards()
                pending = [task for task in plan if task[0] not in done_shards]
                if stop_after_shards is not None:
                    pending = pending[:stop_after_shards]
                windows = {
                    window[0][0]: window
                    for window in plan_windows(
                        pending, job.factory.window, self.workers
                    )
                }
                tasks = [window_task(window) for window in windows.values()]

            # The event log rides the same switch as the rest of the
            # telemetry (pure observer; repro.obs.events) and the same
            # lifecycle as the results file: fresh runs truncate, resumed
            # sessions append after the committed prefix — terminating a
            # tail torn by a mid-append kill.
            events = None
            if out_path is not None and collect:
                with telem.span("events"):
                    events = EventWriter(
                        events_path(out_path), fresh=not resuming
                    )

            results = None
            if out_path is not None:
                with telem.span("open"):
                    results = AppendLog(out_path, keep=committed)
                    if not resuming:
                        results.append(job.header())

            progress = {
                "shards_done": len(done_shards),
                "total": job.total,
                "cache_hits": 0,
                "cache_misses": 0,
                "workers": {},
            }
            exec_started = time.perf_counter()
            if events is not None:
                with telem.span("events"):
                    events.emit(
                        "run-started",
                        kind=job.factory.kind,
                        seed=job.seed,
                        total=job.total,
                        chunk_size=job.chunk_size,
                        workers=self.workers,
                        shards_total=len(plan),
                        shards_pending=len(pending),
                        records_done=len(records),
                        resumed=resuming,
                    )
                    if resuming:
                        events.emit(
                            "resume",
                            shards_done=len(done_shards),
                            records_done=len(records),
                        )

            def commit(first: int, task_records: list, meta: dict) -> None:
                """Commit a finished window's shards, in index order, each
                with its own records and ``shard-done`` marker."""
                nonlocal executed
                telem.count("harness.windows")
                per_record = meta["seconds"] / len(task_records)
                for task in windows[first]:
                    shard_id, size = task[0], len(task[2])
                    shard_records = task_records[:size]
                    task_records = task_records[size:]
                    shard_meta = dict(
                        meta, shard=shard_id, records=size,
                        seconds=per_record * size,
                    )
                    if shard_id != first:
                        # The window's telemetry delta rides on its first
                        # shard, so it is merged exactly once.
                        shard_meta.pop("telemetry", None)
                    records.extend(shard_records)
                    executed += size
                    telem.count("harness.shards.executed")
                    telem.count("harness.records.executed", size)
                    if collect:
                        telem.merge(shard_meta.get("telemetry"))
                        shard_stats.append(shard_meta)
                    if results is not None:
                        results.append(
                            *map(job.factory.encode, shard_records),
                            {
                                "type": "shard-done",
                                "shard": shard_id,
                                "seed": shard_seed(job.seed, shard_id),
                            },
                        )
                    if events is not None:
                        self._emit_commit(
                            events, progress, shard_meta, shard_id,
                            size, len(records), len(plan),
                            executed, time.perf_counter() - exec_started,
                        )

            try:
                with telem.span("execute"):
                    if self.workers == 1 or len(tasks) <= 1:
                        for task in tasks:
                            commit(*_run_shard(job.factory, self.workspace, task))
                    else:
                        self._run_pool(tasks, commit)
                if events is not None:
                    wall = time.perf_counter() - exec_started
                    with telem.span("events"):
                        events.emit(
                            "run-finished",
                            records_done=len(records),
                            total=job.total,
                            complete=len(records) == job.total,
                            shards_done=progress["shards_done"],
                            shards_total=len(plan),
                            wall_seconds=round(wall, 6),
                            throughput=(
                                round(executed / wall, 3) if wall > 0 else 0.0
                            ),
                        )
            finally:
                with telem.span("close"):
                    if results is not None:
                        results.close()
                    if events is not None:
                        events.close()

        if collect:
            telem.merge(obs.local().drain())
            execute = telem.spans.get("run/execute")
            if executed and execute and execute["seconds"] > 0:
                telem.gauge(
                    "run.records_per_second", executed / execute["seconds"]
                )
            if out_path is not None:
                self._write_metrics(out_path, telem, shard_stats, resuming)

        return HarnessResult(
            job=job,
            records=records,
            out=out_path,
            telemetry=telem.snapshot() if collect else None,
            shard_stats=shard_stats,
        )

    @staticmethod
    def _emit_commit(
        events: EventWriter,
        progress: dict,
        meta: dict,
        shard_id: int,
        shard_records: int,
        records_done: int,
        shards_total: int,
        executed: int,
        elapsed: float,
    ) -> None:
        """Emit the ``shard-committed`` + ``worker-heartbeat`` pair.

        Throughput counts only *this session's* records over its own
        elapsed time (resumed records were free), so the ETA is honest
        for resumed runs too.
        """
        progress["shards_done"] += 1
        counters = (meta.get("telemetry") or {}).get("counters", {})
        progress["cache_hits"] += counters.get("measure_cache.hit", 0)
        progress["cache_misses"] += counters.get("measure_cache.miss", 0)
        rate = executed / elapsed if elapsed > 0 else 0.0
        total = progress.get("total")
        events.emit(
            "shard-committed",
            shard=shard_id,
            worker=meta["worker"],
            seconds=round(meta["seconds"], 6),
            records=shard_records,
            records_done=records_done,
            total=total,
            shards_done=progress["shards_done"],
            shards_total=shards_total,
            throughput=round(rate, 3),
            eta_seconds=(
                round((total - records_done) / rate, 3)
                if rate > 0 and total is not None
                else None
            ),
            cache_hits=progress["cache_hits"],
            cache_misses=progress["cache_misses"],
        )
        worker = progress["workers"].setdefault(
            meta["worker"], {"shards": 0, "records": 0, "seconds": 0.0}
        )
        worker["shards"] += 1
        worker["records"] += shard_records
        worker["seconds"] += meta["seconds"]
        events.emit(
            "worker-heartbeat",
            worker=meta["worker"],
            shards=worker["shards"],
            records=worker["records"],
            seconds=round(worker["seconds"], 6),
            throughput=(
                round(worker["records"] / worker["seconds"], 3)
                if worker["seconds"] > 0
                else 0.0
            ),
        )

    def _write_metrics(
        self, out_path: str, telem, shard_stats: list[dict], resumed: bool
    ) -> None:
        """Emit the ``.metrics.json`` sibling of a finished run's file."""
        job = self.job
        manifest = {
            **environment(),
            "kind": job.factory.kind,
            "seed": job.seed,
            "total": job.total,
            "chunk_size": job.chunk_size,
            "version": job.version,
            "fingerprint": job.payload.get("fingerprint"),
            "workers": self.workers,
            "resumed": bool(resumed),
            "out": os.path.basename(out_path),
            **job.factory.describe(),
        }
        write_metrics(
            metrics_path(out_path),
            build_payload(manifest, telem, shard_stats),
        )

    def _run_pool(self, tasks: list[ShardTask], commit) -> None:
        from repro.exec.pool import acquire

        # Workers come from the process-wide warm pool registry
        # (repro.exec.pool): the pool for this job's factory is built
        # once and reused across shards, runs, and campaigns, so it is
        # sized for the job family — the full worker count — not for
        # the pending remainder of one resume.  Each task is a window.
        pool = acquire(self.job.factory, self.workers, lambda: self.workspace)
        for first, task_records, meta in pool.imap_shards(tasks):
            commit(first, task_records, meta)
