"""Parallel, resumable campaign execution — a thin harness client.

:class:`CampaignRunner` runs a perturbation list — random faults, attack
scenarios from :mod:`repro.attacks`, or any mix of objects satisfying the
:class:`repro.faults.models.Perturbation` protocol — through the generic
execution harness (:mod:`repro.exec.harness`).  All sharding, JSONL
streaming, ``shard-done`` commit markers, kill/resume, and worker-count
invariance live in :class:`~repro.exec.harness.HarnessRunner`; this
module only contributes the campaign-shaped pieces:

* :class:`CampaignWorkspaceFactory` — builds a :class:`Workspace` from
  the picklable :class:`~repro.exec.spec.CampaignSpec`, hands each window
  of shards to the batch kernel of the spec's backend
  (:mod:`repro.exec.backends`: ``full`` replay, ``golden`` fork-at-fault,
  or cycle-measuring ``pipeline-golden``) in calls of ``batch_size``
  faults — by default 256 on ``golden``, whose kernel replays the
  pristine prefix once per call, and one shard elsewhere — and
  translates :class:`~repro.exec.records.FaultRecord` to and from the
  JSONL wire;
* :class:`CampaignRunner`/:class:`CampaignResult` — the stable public
  API and result aggregation.

The on-disk artifacts are byte-for-byte the pre-harness SPEC_VERSION-3
format: existing campaign files load and resume unchanged
(``tests/harness/test_artifact_compat.py`` pins this against committed
pre-redesign fixtures).

Determinism and resumability are the harness's guarantees — see
:mod:`repro.exec.harness`.  The parent records the pristine program once,
derives the campaign context from that recording, and builds its
workspace (warm caches, checkpoint store) on it; with ``workers > 1``
every forked worker inherits that workspace (:mod:`repro.exec.pool`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

from repro.errors import ConfigurationError
from repro.obs import core as obs
from repro.faults.campaign import (
    CampaignContext,
    CampaignReport,
    FaultCampaign,
    FaultResult,
    WarmProcess,
)
from repro.exec.backends import Backend, get_backend
from repro.exec.harness import (
    DEFAULT_CHUNK_SIZE,
    HarnessResult,
    HarnessRunner,
    Job,
    WorkspaceFactory,
    validate_plan,
)
from repro.exec.records import FaultRecord
from repro.exec.spec import SPEC_VERSION, CampaignSpec


@dataclass(slots=True)
class CampaignResult:
    """Outcome of one :meth:`CampaignRunner.run` call.

    ``telemetry``/``shard_stats`` relay the harness's run-level
    observation (see :class:`~repro.exec.harness.HarnessResult`) so
    callers that aggregate many campaigns — coverage runs foremost — can
    build one metrics artifact without each inner run naming an ``out``.
    """

    spec: CampaignSpec
    seed: int
    total: int
    records: list[FaultRecord] = field(default_factory=list)
    out: str | None = None
    telemetry: dict | None = None
    shard_stats: list = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return len(self.records) == self.total

    def report(self) -> CampaignReport:
        """Aggregate as a :class:`CampaignReport`, ordered by fault index.

        The ordering makes aggregates byte-identical regardless of worker
        count or shard completion order.
        """
        ordered = sorted(self.records, key=lambda record: record.index)
        return CampaignReport(results=[record.to_result() for record in ordered])

    def summary(self) -> str:
        return self.report().summary()


@dataclass(slots=True)
class Workspace:
    """Everything a campaign holds warm across its injections.

    Built once in the parent (or leased from the service's checkpoint
    cache) and used by every shard, serial or on the pool workers that
    inherit it: the context (golden reference), the :class:`WarmProcess`
    (built program, FHT, shared decode cache), the spec's
    :class:`~repro.exec.backends.Backend`, and the backend's prepared
    state (for the golden backends, the checkpoint store).  Concurrent
    runs may share one: kernels restore copies of its immutable
    checkpoints and never write to it, bar the decode cache's memo.
    """

    context: CampaignContext
    warm: WarmProcess
    backend: Backend
    state: object

    @classmethod
    def build(
        cls, spec: CampaignSpec, context: CampaignContext | None = None
    ) -> "Workspace":
        if context is None:
            context = spec.build_context()
        warm = WarmProcess.from_context(context)
        backend = get_backend(spec.backend)
        return cls(
            context=context,
            warm=warm,
            backend=backend,
            state=backend.prepare(context, warm),
        )

    def run_batch(self, faults: list) -> list[FaultResult]:
        """Classify *faults* through the backend's batched kernel; a
        single fault is a batch of one."""
        return self.backend.run_batch(self.state, faults)


@dataclass(slots=True)
class CampaignWorkspaceFactory(WorkspaceFactory):
    """The campaign client: spec-derived workspaces, FaultRecord wire."""

    spec: CampaignSpec
    #: The job's shard size: a window's records take their shard from
    #: their index.
    chunk_size: int = DEFAULT_CHUNK_SIZE
    #: Faults per batched-kernel call; ``None`` takes the backend's
    #: default.  An execution knob like ``workers`` — never serialized
    #: into headers, so artifacts stay byte-identical across batch plans.
    batch_size: int | None = None

    record_type = "record"
    kind = "campaign results"

    @property
    def window(self) -> int:
        """Faults per batched-kernel call: ``batch_size``, else the
        backend's default, else one shard.  The harness dispatches
        consecutive shards together up to this many faults."""
        return (
            self.batch_size
            or get_backend(self.spec.backend).batch_size
            or self.chunk_size
        )

    def build(self) -> Workspace:
        return Workspace.build(self.spec)

    def run_items(
        self, workspace: Workspace, start: int, shard: int, items: list
    ) -> list[FaultRecord]:
        """Run a window through the backend's batched kernel.

        The window is cut into calls of :attr:`window` faults: one call
        when the harness grouped whole shards, several when one shard
        exceeds it.  Either way the records are exactly what batches of
        one yield — pinned by ``tests/exec/test_scaling_invariants.py``.
        """
        size = self.window
        records: list[FaultRecord] = []
        for base in range(0, len(items), size):
            batch = workspace.run_batch(items[base : base + size])
            for index, result in enumerate(batch, start + base):
                obs.count(f"outcome.{result.outcome.value}")
                records.append(
                    FaultRecord.from_result(
                        index, index // self.chunk_size, result
                    )
                )
        return records

    def encode(self, record: FaultRecord) -> dict:
        return record.to_json()

    def decode(self, data: dict) -> FaultRecord:
        return FaultRecord.from_json(data)

    def describe(self) -> dict:
        """Campaign provenance for the run's metrics manifest."""
        return {
            "backend": self.spec.backend,
            "batch_size": self.window,
            "workload": self.spec.workload,
            "scale": self.spec.scale,
        }


class CampaignRunner:
    """Run perturbation lists on the execution harness; resume cleanly."""

    def __init__(
        self,
        spec: CampaignSpec,
        workers: int = 1,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        batch_size: int | None = None,
        workspace: Workspace | None = None,
    ):
        self.spec = spec
        self.workers = workers
        self.chunk_size = chunk_size
        # Execution knob only — never recorded in artifacts: batch_size
        # sizes the batched-kernel calls (None = the backend's default).
        self.batch_size = batch_size
        # An optional pre-built workspace (a service-tier checkpoint-cache
        # lease) supplies the context and the checkpoint store.
        self._workspace: Workspace | None = workspace
        self._factory = CampaignWorkspaceFactory(
            spec, chunk_size=chunk_size, batch_size=batch_size
        )
        validate_plan(workers=workers, chunk_size=chunk_size)
        if batch_size is not None and batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")

    @property
    def campaign(self) -> FaultCampaign:
        """Fault generators over the workspace's context, which is derived
        from the program's one pristine recording."""
        return FaultCampaign.from_context(self.workspace.context)

    @property
    def workspace(self) -> Workspace:
        """Parent-side workspace (lazy): the serial path, and what every
        worker of a pool built for this runner inherits."""
        if self._workspace is None:
            self._workspace = Workspace.build(self.spec)
        return self._workspace

    # ------------------------------------------------------------------

    def _job(self, perturbations: list, seed: int) -> Job:
        return Job(
            factory=self._factory,
            items=perturbations,
            seed=seed,
            version=SPEC_VERSION,
            payload={
                "spec": self.spec.to_json(),
                "fingerprint": self.spec.fingerprint(),
            },
            chunk_size=self.chunk_size,
        )

    def run(
        self,
        perturbations: Iterable,
        seed: int = 0,
        out: str | os.PathLike | None = None,
        resume: bool = False,
        stop_after_shards: int | None = None,
    ) -> CampaignResult:
        """Execute *perturbations*; return the (possibly partial) result.

        Parameters
        ----------
        perturbations:
            The injection list — fault models, attack scenarios, or any
            mix.  Index order is the campaign's canonical order; generate
            it from a seeded generator for full reproducibility.
        seed:
            Campaign seed recorded in the header and used to derive each
            shard's seed.  Resume requires the same value.
        out:
            JSONL results path.  Required for ``resume``.
        resume:
            Replay committed shards from *out* and run only the rest.
        stop_after_shards:
            Execute at most this many new shards, then return a partial
            result — the test/CLI hook for simulating interruption.
        """
        job = self._job(list(perturbations), seed)
        harness = HarnessRunner(
            job,
            workers=self.workers,
            workspace_supplier=lambda: self.workspace,
        )
        result: HarnessResult = harness.run(
            out=out, resume=resume, stop_after_shards=stop_after_shards
        )
        return CampaignResult(
            spec=self.spec,
            seed=seed,
            total=result.total,
            records=result.records,
            out=result.out,
            telemetry=result.telemetry,
            shard_stats=result.shard_stats,
        )


def config_runners(
    spec: CampaignSpec, hash_names, policy_names, **options
) -> Iterator[CampaignRunner]:
    """One runner per hash × policy configuration of *spec*'s program.

    The program and its inputs fix the pristine run, never the monitor
    configuration: the first configuration records it, with no monitor,
    and every configuration overlays its monitor on that recording.
    *options* go to every runner.
    """
    for hash_name in hash_names:
        for policy_name in policy_names:
            cell = replace(spec, hash_name=hash_name, policy_name=policy_name)
            yield CampaignRunner(cell, **options)
