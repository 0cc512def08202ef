"""Drive one coverage corpus end to end and reduce it to a matrix.

:func:`run_coverage` is a thin orchestration over the execution harness:
for every target program it runs the golden reference once, enumerates
the spec's exhaustive fault space once (the space depends only on the
program, never on hash or policy), then replays that same list through a
:class:`~repro.exec.runner.CampaignRunner` per ``(hash, policy)``
configuration and folds the ordered records into
:class:`~repro.coverage.matrix.CoverageCell`\\ s.  Everything downstream
of the enumeration inherits the harness's worker-count and batch-plan
invariance, so the resulting payload — fingerprint included — is
identical however the run was parallelized.

Given ``out=``, the artifact is written there and — telemetry permitting
— a schema-valid ``<out>.metrics.json`` sibling with it, aggregated
across every inner campaign (parity with what campaign/DSE runs emit
beside ``--out``).  Telemetry stays a pure observer: the coverage
artifact itself is byte-identical with it on or off.
"""

from __future__ import annotations

import os
import time

from repro.attacks.corpus import resolve_classes
from repro.attacks.scenario import AttackScenario
from repro.coverage.matrix import (
    CoverageCell,
    build_payload,
    reduce_cell,
    render_payload,
)
from repro.coverage.spec import PAIR_SUBJECT, CoverageSpec
from repro.errors import ConfigurationError
from repro.exec.runner import config_runners
from repro.exec.spec import CampaignSpec
from repro.obs import core as obs
from repro.obs import metrics as obs_metrics
from repro.utils.atomic import write_atomic

#: Coverage shards are bigger than the interactive default (16): corpora
#: run tens of thousands of injections, and fewer shard boundaries means
#: less JSONL/commit overhead without affecting results.
COVERAGE_CHUNK_SIZE = 64


def _program_spec(spec: CoverageSpec, target: str) -> CampaignSpec:
    program = (
        {"workload": target}
        if spec.workloads
        else {"source": spec.source, "name": spec.source_name}
    )
    return CampaignSpec(
        **program, scale=spec.scale, iht_size=spec.iht_size, backend=spec.backend
    )


def _reduce_target(
    spec: CoverageSpec,
    target: str,
    hash_name: str,
    policy_name: str,
    records,
) -> list[CoverageCell]:
    """Cells of one campaign: one per subject present in the fault list."""
    ordered = sorted(records, key=lambda record: record.index)
    if spec.kind == "pairs":
        return [
            reduce_cell(target, PAIR_SUBJECT, hash_name, policy_name, ordered)
        ]
    by_class: dict[str, list] = {
        name: [] for name in resolve_classes(spec.classes)
    }
    for record in ordered:
        scenario = record.fault
        if not isinstance(scenario, AttackScenario):
            raise ConfigurationError(
                f"non-attack record in attack coverage run: {scenario!r}"
            )
        by_class[scenario.attack_class].append(record)
    return [
        reduce_cell(target, attack_class, hash_name, policy_name, group)
        for attack_class, group in by_class.items()
    ]


def run_coverage(
    spec: CoverageSpec,
    workers: int = 1,
    chunk_size: int = COVERAGE_CHUNK_SIZE,
    batch_size: int | None = None,
    progress=None,
    out: str | os.PathLike | None = None,
) -> dict:
    """Run every injection of *spec*'s fault space; return the payload.

    *progress*, when given, is called with one human-readable line per
    completed campaign (the CLI wires it to verbose output).  *out*,
    when given, writes the artifact there plus — when telemetry is
    enabled — an aggregated ``<out>.metrics.json`` sibling.
    """
    started = time.perf_counter()
    enumerator = spec.enumerator()
    cells: list[CoverageCell] = []
    total_injections = 0
    collect = out is not None and obs.enabled()
    master = obs.Telemetry(enabled=collect)
    all_shards: list[dict] = []
    for target in spec.targets():
        items = None
        for runner in config_runners(
            _program_spec(spec, target), spec.hash_names, spec.policy_names,
            workers=workers, chunk_size=chunk_size, batch_size=batch_size,
        ):
            hash_name, policy_name = runner.spec.hash_name, runner.spec.policy_name
            if items is None:
                # One enumeration per target: the fault space depends only
                # on the program image and its executed blocks.
                items = enumerator.enumerate(runner.campaign.context)
                obs.count("coverage.targets")
            result = runner.run(items, seed=spec.seed)
            total_injections += len(result.records)
            obs.count("coverage.injections", len(result.records))
            if collect:
                master.merge(result.telemetry)
                for entry in result.shard_stats:
                    # Renumber: inner campaigns all shard from 0.
                    all_shards.append({**entry, "shard": len(all_shards)})
            cells.extend(
                _reduce_target(spec, target, hash_name, policy_name, result.records)
            )
            if progress is not None:
                progress(
                    f"{spec.name}: {target} hash={hash_name} "
                    f"policy={policy_name}: {len(result.records)} injections"
                )
    if collect:
        # Inner harness runs drain ambient telemetry into their own
        # snapshots (already merged above); pick up the remainder the
        # coverage layer counted after the last run.
        master.merge(obs.local().drain())
    payload = build_payload(
        spec,
        cells,
        total_injections=total_injections,
        wall_seconds=time.perf_counter() - started,
        workers=workers,
    )
    if out is not None:
        out_path = os.fspath(out)
        directory = os.path.dirname(out_path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        write_atomic(out_path, render_payload(payload))
        if collect:
            _write_coverage_metrics(
                spec, payload, out_path, master, all_shards,
                workers=workers, chunk_size=chunk_size,
            )
    return payload


def _write_coverage_metrics(
    spec: CoverageSpec,
    payload: dict,
    out_path: str,
    master,
    shards: list[dict],
    workers: int,
    chunk_size: int,
) -> None:
    """The aggregated ``.metrics.json`` sibling of a coverage artifact.

    One METRICS_SCHEMA-shaped artifact covering every inner campaign:
    telemetry merged across runs (the summed ``run`` spans are the
    aggregate wall), shard entries renumbered into one sequence, and a
    manifest carrying the corpus identity next to the usual plan keys.
    """
    coverage_manifest = payload["manifest"]
    manifest = {
        **obs_metrics.environment(),
        "kind": "coverage results",
        "seed": spec.seed,
        "total": coverage_manifest["total_injections"],
        "chunk_size": chunk_size,
        "workers": workers,
        "fingerprint": coverage_manifest["fingerprint"],
        "corpus": spec.name,
        "backend": spec.backend,
        "resumed": False,
        "out": os.path.basename(out_path),
    }
    obs_metrics.write_metrics(
        obs_metrics.metrics_path(out_path),
        obs_metrics.build_payload(manifest, master, shards),
    )
