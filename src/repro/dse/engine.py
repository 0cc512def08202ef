"""Sharded, resumable design-space sweep — a thin harness client.

One :class:`DseSweep` evaluates every :class:`~repro.dse.space.MonitorConfig`
of a :class:`~repro.dse.space.ConfigSpace` and scores it on the objective
vocabulary of :mod:`repro.dse.objectives`:

* **miss rate** replays each workload's recorded block trace through the
  point's IHT geometry and policy — the Figure-6 kernel, no re-simulation;
* **cycle overhead** applies the point's penalty model to the replay's
  miss count over the baseline cycle count — the Table-1 accounting,
  which the tier-1 suite pins as *exact* for this design
  (``monitored == base + penalty × misses``);
* **measured cycle overhead** (``backend="pipeline-golden"`` only) runs
  the monitored program on the cycle-level pipeline with the point's
  miss penalty configured in the OS handler and *measures* the overhead
  — the empirical check on the accounting, per penalty model;
* **detection rate and latency** run the space's adversary — the seeded
  :mod:`repro.attacks` corpus or the §6.3 same-column pairs — through the
  campaign kernels of the selected :class:`~repro.exec.backends.Backend`
  (default ``golden``: fork each injection from a per-configuration
  checkpoint store, overlaid on the workload's one pristine recording);
* **area and period** come from the Table-2 synthesis model.

Execution runs on the generic harness (:mod:`repro.exec.harness`):
:class:`DseWorkspaceFactory` describes how to build one
:class:`DseWorkspace` per worker and evaluate one configuration;
:class:`~repro.exec.harness.HarnessRunner` owns all sharding, JSONL
streaming, ``shard-done`` commit markers, kill/resume, and worker-count
invariance — the campaign engine and this sweep share one
implementation, so the two resume protocols cannot diverge.  Sweep files
written before the harness redesign load and resume byte-identically.

Every point's evaluation is deterministic given ``(space, seed, index)``,
so the point records — and any aggregate ordered by point index, such as
the frontier — are identical for any worker count and either functional
backend (shards *commit* in completion order, so only the line order of
a multi-worker file varies).  With ``workers > 1`` the parent records
each workload once, ships the contexts and adversary corpora derived
from it to the pool through shared memory (:mod:`repro.exec.sharing`),
and the forked workers inherit the recordings themselves.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass, field, replace

from repro.area.synthesis import SynthesisReport, synthesize
from repro.attacks.corpus import AttackCorpus, resolve_classes
from repro.cic.replay import replay_trace
from repro.errors import ConfigurationError
from repro.eval.common import baseline_run, workload_fht
from repro.exec.backends import Backend, get_backend
from repro.exec.golden import pristine_recording
from repro.exec.harness import (
    HarnessRunner,
    Job,
    MeasureCache,
    WorkspaceFactory,
    validate_plan,
)
from repro.obs import core as obs
from repro.faults.campaign import (
    CampaignContext,
    CampaignReport,
    WarmProcess,
    build_context,
    same_column_pairs,
)
from repro.dse.objectives import DEFAULT_FRONTIER
from repro.dse.pareto import FrontierReport, pareto_frontier
from repro.dse.space import DSE_VERSION, ConfigSpace, MonitorConfig
from repro.osmodel.policies import get_policy
from repro.utils.jsonl import read_lines
from repro.utils.tables import TextTable
from repro.workloads.suite import build, workload_inputs

#: Configurations per shard: the unit of distribution *and* of resume.
DEFAULT_DSE_CHUNK = 4


@dataclass(slots=True)
class DsePoint:
    """One evaluated configuration, positioned inside its sweep."""

    index: int
    shard: int
    config: MonitorConfig
    #: Objective name -> value (None = not measured / nothing detected).
    objectives: dict[str, float | None]
    #: Per-workload breakdown backing the aggregates.
    per_workload: dict[str, dict]

    def to_json(self) -> dict:
        return {
            "type": "point",
            "index": self.index,
            "shard": self.shard,
            "config": self.config.to_json(),
            "objectives": dict(self.objectives),
            "per_workload": self.per_workload,
        }

    @classmethod
    def from_json(cls, data: dict) -> "DsePoint":
        return cls(
            index=data["index"],
            shard=data["shard"],
            config=MonitorConfig.from_json(data["config"]),
            objectives=dict(data["objectives"]),
            per_workload=data["per_workload"],
        )


# ----------------------------------------------------------------------
# Per-worker evaluation caches
# ----------------------------------------------------------------------


class DseWorkspace:
    """Everything one worker keeps warm across the points it evaluates.

    Contexts, FHTs, adversary corpora, and the penalty-independent
    measures — replay statistics and detection reports keyed by
    ``(workload, hash, iht, policy)`` — are shared across every point
    that agrees on them through the harness's
    :class:`~repro.exec.harness.MeasureCache`, so a penalty-model axis
    multiplies the space for free and repeated hash/policy combinations
    are measured once.  (The cycle-measuring ``pipeline-golden`` backend
    adds the penalty to the key: its monitored cycle counts *depend* on
    the penalty model — that is the point of measuring.)  Every measure
    of a workload shares one decode cache and the process's one pristine
    recording of the workload, whence its context, block trace, base
    cycles and every measure's checkpoint store.
    """

    def __init__(
        self,
        space: ConfigSpace,
        seed: int,
        backend: str = "golden",
        shared: dict | None = None,
    ):
        self.space = space
        self.seed = seed
        self.backend: Backend = get_backend(backend)
        shared = shared or {}
        self._contexts = MeasureCache(shared.get("contexts"))
        self._adversaries = MeasureCache(shared.get("adversaries"))
        self._measures = MeasureCache()
        self._synthesis = MeasureCache()
        self._baseline_synthesis = synthesize(None)
        #: Per workload: the decode cache its measures share.
        self._decode_caches: dict[str, dict] = {}

    # -- shared inputs ---------------------------------------------------

    def base_context(self, workload: str) -> CampaignContext:
        """Monitor-agnostic campaign context, derived from the workload's
        pristine recording (the Figure-6 replay consumes its trace)."""
        scale = self.space.scale
        return self._contexts.get(
            workload,
            lambda: build_context(
                build(workload, scale), inputs=workload_inputs(workload, scale)
            ),
        )

    def adversary(self, workload: str) -> list:
        """The seeded injection list scored for detection objectives."""
        return self._adversaries.get(
            workload, lambda: self._build_adversary(workload)
        )

    def _build_adversary(self, workload: str) -> list:
        space = self.space
        if space.adversary == "attacks":
            corpus = AttackCorpus.from_context(self.base_context(workload))
            return corpus.build(
                resolve_classes(space.attack_classes),
                per_class=space.per_class,
                seed=self.seed,
            )
        if space.adversary == "same-column":
            golden = pristine_recording(self.base_context(workload)).store.result
            return same_column_pairs(
                golden.block_trace, space.pair_count, self.seed
            )
        return []

    def synthesis(self, config: MonitorConfig) -> SynthesisReport:
        key = (config.iht_size, config.hash_name)
        return self._synthesis.get(
            key, lambda: synthesize(config.iht_size, config.hash_name)
        )

    @property
    def baseline_synthesis(self) -> SynthesisReport:
        return self._baseline_synthesis

    def shared_payload(self) -> dict:
        """The once-recorded inputs worth shipping to pool workers:
        per-workload golden contexts and adversary corpora (measures stay
        per-worker — they are what the sweep is about to compute)."""
        for workload in self.space.workloads:
            self.base_context(workload)
            self.adversary(workload)
        return {
            "contexts": self._contexts.snapshot(),
            "adversaries": self._adversaries.snapshot(),
        }

    # -- per-point measurement -------------------------------------------

    def measure(self, workload: str, config: MonitorConfig) -> dict:
        """Measures of one (workload, config) pair, cached by the subset
        of the configuration they actually depend on."""
        key = (workload, config.hash_name, config.iht_size, config.policy_name)
        if self.backend.measures_cycles:
            key += (config.miss_penalty,)
        return self._measures.get(key, lambda: self._measure(workload, config))

    def _warm(self, workload: str, context: CampaignContext) -> WarmProcess:
        """The warm caches of one measure: the FHT cached for its
        (workload, hash), plus the decode cache every measure of the
        workload shares in this workspace."""
        return WarmProcess(
            program=context.program,
            fht=workload_fht(workload, self.space.scale, context.hash_name),
            hash_name=context.hash_name,
            decode_cache=self._decode_caches.setdefault(workload, {}),
        )

    def _measure(self, workload: str, config: MonitorConfig) -> dict:
        obs.count("dse.measures")
        space = self.space
        golden = baseline_run(workload, space.scale)
        fht = workload_fht(workload, space.scale, config.hash_name)
        stats = replay_trace(
            golden.block_trace, fht, config.iht_size,
            get_policy(config.policy_name),
        )
        measures = {
            "lookups": stats.lookups,
            "misses": stats.misses,
            "miss_rate": stats.miss_rate,
            "base_cycles": golden.cycles,
        }
        injections = self.adversary(workload)
        if injections or self.backend.measures_cycles:
            context = replace(
                self.base_context(workload),
                hash_name=config.hash_name,
                iht_size=config.iht_size,
                policy_name=config.policy_name,
            )
            if self.backend.measures_cycles:
                context = replace(context, miss_penalty=config.miss_penalty)
            state = self.backend.prepare(context, self._warm(workload, context))
            monitored_cycles = getattr(state, "golden_cycles", None)
            if monitored_cycles is not None:
                # The pipeline-golden recording *is* the measurement: the
                # monitored pristine run's cycle count under this penalty.
                measures["monitored_cycles"] = monitored_cycles
            if injections:
                # Batched kernel: one pass amortizes prefix replay and
                # simulator construction over the whole adversary corpus.
                report = CampaignReport(
                    results=self.backend.run_batch(state, injections)
                )
                measures.update(
                    injections=report.total,
                    detected=report.detected,
                    detection_rate=report.detection_rate,
                    detection_latencies=report.detection_latencies(),
                )
        return measures


def evaluate_point(
    workspace: DseWorkspace, index: int, shard: int, config: MonitorConfig
) -> DsePoint:
    """Score one configuration over the space's workload set."""
    per_workload: dict[str, dict] = {}
    miss_rates: list[float] = []
    overheads: list[float] = []
    measured_overheads: list[float] = []
    injections = 0
    detected = 0
    latencies: list[int] = []
    for workload in workspace.space.workloads:
        measures = workspace.measure(workload, config)
        overhead = (
            measures["misses"] * config.miss_penalty / measures["base_cycles"]
        )
        entry = {
            "lookups": measures["lookups"],
            "misses": measures["misses"],
            "miss_rate": measures["miss_rate"],
            "base_cycles": measures["base_cycles"],
            "cycle_overhead": overhead,
        }
        miss_rates.append(measures["miss_rate"])
        overheads.append(overhead)
        if "monitored_cycles" in measures:
            measured = (
                measures["monitored_cycles"] - measures["base_cycles"]
            ) / measures["base_cycles"]
            entry["monitored_cycles"] = measures["monitored_cycles"]
            entry["measured_cycle_overhead"] = measured
            measured_overheads.append(measured)
        if "injections" in measures:
            entry["injections"] = measures["injections"]
            entry["detected"] = measures["detected"]
            entry["detection_rate"] = measures["detection_rate"]
            injections += measures["injections"]
            detected += measures["detected"]
            latencies.extend(measures["detection_latencies"])
        per_workload[workload] = entry
    synthesis = workspace.synthesis(config)
    objectives: dict[str, float | None] = {
        "miss_rate": statistics.fmean(miss_rates),
        "cycle_overhead": statistics.fmean(overheads),
        "detection_rate": detected / injections if injections else None,
        "detection_latency": (
            statistics.fmean(latencies) if latencies else None
        ),
        "area_overhead": synthesis.area_overhead(
            workspace.baseline_synthesis
        ),
        "min_period": synthesis.min_period,
    }
    if measured_overheads:
        # Only present on cycle-measuring sweeps, so point payloads from
        # the functional backends stay byte-identical to pre-redesign
        # files (the artifact-compat fixtures pin this).
        objectives["measured_cycle_overhead"] = statistics.fmean(
            measured_overheads
        )
    return DsePoint(
        index=index,
        shard=shard,
        config=config,
        objectives=objectives,
        per_workload=per_workload,
    )


@dataclass(slots=True)
class DseWorkspaceFactory(WorkspaceFactory):
    """The DSE client: space-derived workspaces, DsePoint wire format."""

    space: ConfigSpace
    seed: int
    backend: str

    record_type = "point"
    kind = "DSE sweep"

    def build(self, shared=None) -> DseWorkspace:
        return DseWorkspace(self.space, self.seed, self.backend, shared=shared)

    def shared_payload(self, workspace: DseWorkspace) -> dict:
        return workspace.shared_payload()

    def run_item(
        self, workspace: DseWorkspace, index: int, shard: int, item
    ) -> DsePoint:
        return evaluate_point(workspace, index, shard, item)

    def encode(self, record: DsePoint) -> dict:
        return record.to_json()

    def decode(self, data: dict) -> DsePoint:
        return DsePoint.from_json(data)

    def describe(self) -> dict:
        """Sweep provenance for the run's metrics manifest."""
        return {
            "backend": self.backend,
            "workloads": list(self.space.workloads),
            "scale": self.space.scale,
            "adversary": self.space.adversary,
        }

    def check_resume_header(self, header: dict, out: str) -> None:
        """Refuse mixing cycle-measuring and functional point records.

        The functional backends are differentially pinned to identical
        points, so ``golden`` and ``full`` sweeps resume each other's
        files freely — but a cycle-measuring backend writes points with
        ``measured_cycle_overhead``/``monitored_cycles`` fields the
        functional ones lack.  Resuming across that divide would yield a
        file where only some points carry the measured objective, so it
        is refused.
        """
        recorded = header.get("backend")
        if recorded is None:
            return
        try:
            recorded_measures = get_backend(recorded).measures_cycles
        except ConfigurationError:
            raise ConfigurationError(
                f"{out}: cannot resume — written by unknown backend "
                f"{recorded!r}"
            ) from None
        mine = get_backend(self.backend).measures_cycles
        if recorded_measures != mine:
            raise ConfigurationError(
                f"{out}: cannot resume — written by backend {recorded!r} "
                f"(measures cycles: {recorded_measures}), this sweep's "
                f"{self.backend!r} (measures cycles: {mine}) would mix "
                "point record shapes"
            )


# ----------------------------------------------------------------------
# Sweep results
# ----------------------------------------------------------------------


@dataclass(slots=True)
class SweepResult:
    """Outcome of one :meth:`DseSweep.run` call."""

    space: ConfigSpace
    seed: int
    backend: str
    total: int
    points: list[DsePoint] = field(default_factory=list)
    out: str | None = None

    @property
    def complete(self) -> bool:
        return len(self.points) == self.total

    def ordered(self) -> list[DsePoint]:
        """Points by canonical index — identical for any worker count."""
        return sorted(self.points, key=lambda point: point.index)

    def frontier(self, objectives=DEFAULT_FRONTIER) -> list[DsePoint]:
        return pareto_frontier(self.ordered(), objectives)

    def report(self, objectives=DEFAULT_FRONTIER) -> FrontierReport:
        return FrontierReport.build(self.ordered(), objectives)

    def table(self) -> TextTable:
        table = TextTable(
            [
                "idx", "configuration", "miss %", "ovhd %", "det %",
                "lat μ", "area ovhd %", "period ns",
            ],
            title=(
                f"DSE sweep — {len(self.points)}/{self.total} points, "
                f"{len(self.space.workloads)} workloads "
                f"({', '.join(self.space.workloads)}) @ {self.space.scale}, "
                f"adversary={self.space.adversary}, seed {self.seed}, "
                f"backend {self.backend}"
            ),
        )
        for point in self.ordered():
            values = point.objectives

            def cell(name, scale=1.0, fmt="{:.2f}"):
                value = values.get(name)
                return "-" if value is None else fmt.format(scale * value)

            table.add_row(
                [
                    point.index,
                    point.config.config_id,
                    cell("miss_rate", 100.0),
                    cell("cycle_overhead", 100.0),
                    cell("detection_rate", 100.0, "{:.1f}"),
                    cell("detection_latency"),
                    cell("area_overhead"),
                    cell("min_period"),
                ]
            )
        return table

    def summary(self) -> str:
        frontier = self.frontier()
        return (
            f"{len(self.points)}/{self.total} configurations evaluated on "
            f"{len(self.space.workloads)} workloads, "
            f"{len(frontier)} on the default frontier "
            f"({', '.join(DEFAULT_FRONTIER)})"
        )


# ----------------------------------------------------------------------
# The sweep: a thin client of the execution harness
# ----------------------------------------------------------------------


class DseSweep:
    """Evaluate a configuration space on the execution harness."""

    def __init__(
        self,
        space: ConfigSpace,
        seed: int = 0,
        workers: int = 1,
        chunk_size: int = DEFAULT_DSE_CHUNK,
        backend: str = "golden",
        share: bool = True,
    ):
        validate_plan(workers=workers, chunk_size=chunk_size)
        get_backend(backend)  # raises on unknown names
        self.space = space
        self.seed = seed
        self.workers = workers
        self.chunk_size = chunk_size
        self.backend = backend
        self.share = share
        self._factory = DseWorkspaceFactory(space, seed, backend)
        self._workspace: DseWorkspace | None = None

    @property
    def workspace(self) -> DseWorkspace:
        """Parent-side workspace (lazy): the serial execution path and
        the source of the pool's shared payload."""
        if self._workspace is None:
            self._workspace = self._factory.build()
        return self._workspace

    def _job(self) -> Job:
        return Job(
            factory=self._factory,
            items=self.space.points(),
            seed=self.seed,
            version=DSE_VERSION,
            payload={
                "space": self.space.to_json(),
                "fingerprint": self.space.fingerprint(),
                # The functional backends are differentially pinned to
                # identical points, so resume accepts golden <-> full
                # freely; crossing the cycle-measuring divide is refused
                # (see DseWorkspaceFactory.check_resume_header).
                "backend": self.backend,
            },
            chunk_size=self.chunk_size,
        )

    def run(
        self,
        out: str | os.PathLike | None = None,
        resume: bool = False,
        stop_after_shards: int | None = None,
    ) -> SweepResult:
        """Evaluate the space; return the (possibly partial) result.

        ``stop_after_shards`` executes at most that many new shards and
        returns a partial result — the test/CLI hook for simulating
        interruption, shared with the campaign client.
        """
        job = self._job()
        harness = HarnessRunner(
            job,
            workers=self.workers,
            workspace_supplier=lambda: self.workspace,
            share=self.share,
        )
        result = harness.run(
            out=out, resume=resume, stop_after_shards=stop_after_shards
        )
        return SweepResult(
            space=self.space,
            seed=self.seed,
            backend=self.backend,
            total=result.total,
            points=result.records,
            out=result.out,
        )


# ----------------------------------------------------------------------
# Sweep-file loading (the frontier/report CLI entry points)
# ----------------------------------------------------------------------


def load_points(path) -> tuple[dict, list[DsePoint]]:
    """Header and points of a sweep file, deduplicated by index.

    Accepts partial files: points from uncommitted shards count too (a
    frontier over whatever finished is still a valid frontier), and a
    point re-run after an interrupted shard collapses to its last copy.
    """
    entries = read_lines(path)
    if not entries or entries[0].get("type") != "header":
        raise ConfigurationError(f"{path}: not a DSE sweep file")
    by_index: dict[int, DsePoint] = {}
    for entry in entries:
        if entry.get("type") == "point":
            point = DsePoint.from_json(entry)
            by_index[point.index] = point
    return entries[0], [by_index[index] for index in sorted(by_index)]
