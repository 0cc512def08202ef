"""Attack-coverage evaluation: detection rate *and latency* per adversary.

Extends the paper's §6.3 coverage story from random soft errors to the
deliberate-tampering threat model of its introduction.  For every attack
class in the :mod:`repro.attacks` corpus — crossed with the hash functions
and IHT replacement policies under study — this harness reports:

* the **detection rate** (CIC + baseline machine checks, the same scope
  as the fault analysis), and
* the **detection latency**: how many instructions enter the pipeline
  between the first corrupted fetch and the check that catches it.  The
  paper's block-granularity guarantee bounds this by the basic-block
  length; the measured distribution quantifies it.

Sweeps run on the :mod:`repro.exec` engine, so they shard across worker
processes and resume from JSONL files exactly like fault campaigns, and
the resulting matrix is byte-identical for any worker count.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro.attacks.corpus import AttackCorpus, resolve_classes
from repro.attacks.scenario import AttackScenario
from repro.errors import ConfigurationError
from repro.exec.runner import DEFAULT_CHUNK_SIZE, config_runners
from repro.exec.spec import CampaignSpec
from repro.faults.campaign import CampaignReport, Outcome
from repro.utils.seeds import derive_seed
from repro.utils.tables import TextTable


@dataclass(slots=True)
class ClassCoverage:
    """One matrix cell: an attack class under one monitor configuration."""

    attack_class: str
    hash_name: str
    policy_name: str
    report: CampaignReport

    @property
    def total(self) -> int:
        return self.report.total

    @property
    def detection_rate(self) -> float:
        return self.report.detection_rate

    def to_json(self) -> dict:
        counts = self.report.counts()
        mean_latency = self.report.mean_detection_latency
        return {
            "class": self.attack_class,
            "hash": self.hash_name,
            "policy": self.policy_name,
            "scenarios": self.total,
            "detected_cic": counts[Outcome.DETECTED_CIC],
            "detected_baseline": counts[Outcome.DETECTED_BASELINE],
            "silent_corruption": counts[Outcome.SDC],
            "benign": counts[Outcome.BENIGN],
            "other": counts[Outcome.CRASHED] + counts[Outcome.HANG],
            "detection_rate": round(self.detection_rate, 6),
            "mean_latency": (
                None if mean_latency is None else round(mean_latency, 3)
            ),
            "median_latency": self.report.median_detection_latency,
        }


@dataclass(slots=True)
class AttackCoverageResult:
    """The detection matrix for one program."""

    target: str
    scale: str
    iht_size: int
    per_class: int
    seed: int
    cells: list[ClassCoverage] = field(default_factory=list)
    #: JSONL files actually written (one per swept configuration).
    out_files: list[str] = field(default_factory=list)

    def cell(
        self,
        attack_class: str,
        hash_name: str | None = None,
        policy_name: str | None = None,
    ) -> ClassCoverage:
        for cell in self.cells:
            if cell.attack_class != attack_class:
                continue
            if hash_name is not None and cell.hash_name != hash_name:
                continue
            if policy_name is not None and cell.policy_name != policy_name:
                continue
            return cell
        raise KeyError((attack_class, hash_name, policy_name))

    def table(self) -> TextTable:
        table = TextTable(
            [
                "attack class", "hash", "policy", "n", "cic", "base",
                "silent", "benign", "other", "det %", "lat μ", "lat med",
            ],
            title=(
                f"Attack coverage — {self.target}, IHT {self.iht_size}, "
                f"{self.per_class}/class, seed {self.seed} "
                "(detection latency in instructions)"
            ),
        )
        for cell in self.cells:
            data = cell.to_json()
            table.add_row(
                [
                    cell.attack_class,
                    cell.hash_name,
                    cell.policy_name,
                    data["scenarios"],
                    data["detected_cic"],
                    data["detected_baseline"],
                    data["silent_corruption"],
                    data["benign"],
                    data["other"],
                    f"{100 * data['detection_rate']:.1f}",
                    "-" if data["mean_latency"] is None
                    else f"{data['mean_latency']:.1f}",
                    "-" if data["median_latency"] is None
                    else data["median_latency"],
                ]
            )
        return table

    def to_json(self) -> dict:
        """Deterministic machine-readable matrix (worker-count invariant)."""
        return {
            "target": self.target,
            "scale": self.scale,
            "iht_size": self.iht_size,
            "per_class": self.per_class,
            "seed": self.seed,
            "matrix": [cell.to_json() for cell in self.cells],
        }

    def render_json(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"


def _cell_out_path(out, hash_name: str, policy_name: str, multi: bool):
    """Per-configuration results file for multi-configuration sweeps."""
    if out is None or not multi:
        return out
    root, extension = os.path.splitext(os.fspath(out))
    return f"{root}.{hash_name}.{policy_name}{extension or '.jsonl'}"


def sweep_seed(seed: int, classes: tuple[str, ...], per_class: int) -> int:
    """Campaign seed folding in the corpus identity.

    The JSONL header's resume validation compares seeds, but the scenario
    list additionally depends on which classes were requested and how many
    were sampled per class — parameters the spec fingerprint cannot see.
    Hashing them into the recorded seed makes resume refuse a file written
    by a sweep with a different corpus instead of mixing its records in.
    """
    return derive_seed(f"{seed}:{per_class}:{','.join(classes)}")


def _split_by_class(
    result, classes: tuple[str, ...]
) -> dict[str, CampaignReport]:
    """Group a campaign's records into per-attack-class reports."""
    ordered = sorted(result.records, key=lambda record: record.index)
    by_class: dict[str, CampaignReport] = {name: CampaignReport() for name in classes}
    for record in ordered:
        scenario = record.fault
        if not isinstance(scenario, AttackScenario):
            raise ConfigurationError(
                f"non-attack record in attack sweep: {scenario!r}"
            )
        if scenario.attack_class not in by_class:
            raise ConfigurationError(
                f"results file contains attack class "
                f"{scenario.attack_class!r} which this sweep did not "
                "request — it was written by a different corpus"
            )
        by_class[scenario.attack_class].results.append(record.to_result())
    return by_class


def run_attack_coverage(
    workload: str | None = "sha",
    scale: str = "tiny",
    source: str | None = None,
    name: str | None = None,
    classes=("all",),
    per_class: int = 8,
    hash_names=("xor",),
    policy_names=("lru_half",),
    iht_size: int = 8,
    inputs=None,
    seed: int = 42,
    workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    out=None,
    resume: bool = False,
    backend: str = "full",
) -> AttackCoverageResult:
    """Run the attack sweep and assemble the detection matrix.

    One campaign runs per (hash, policy) configuration; within it, the
    corpus holds up to *per_class* scenarios of every requested class,
    sampled deterministically from ``(seed, class)``.  With ``out=`` set,
    each configuration streams to its own JSONL file (suffixed
    ``.<hash>.<policy>`` when more than one configuration is swept) and
    ``resume=True`` picks interrupted sweeps back up shard-by-shard.
    ``backend="golden"`` runs every scenario on the checkpointed
    golden-trace backend (:mod:`repro.exec.golden`) — same matrix, a
    fraction of the simulated instructions.
    """
    if source is not None:
        workload = None
    hash_names = tuple(hash_names)
    policy_names = tuple(policy_names)
    class_names = resolve_classes(classes)
    multi = len(hash_names) * len(policy_names) > 1
    result = AttackCoverageResult(
        target=name or (f"{workload}-{scale}" if workload else "inline-source"),
        scale=scale,
        iht_size=iht_size,
        per_class=per_class,
        seed=seed,
    )
    program = CampaignSpec(
        workload=workload,
        scale=scale,
        source=source,
        name=name,
        iht_size=iht_size,
        inputs=None if inputs is None else tuple(inputs),
        backend=backend,
    )
    scenarios = None
    for runner in config_runners(
        program, hash_names, policy_names, workers=workers, chunk_size=chunk_size
    ):
        hash_name, policy_name = runner.spec.hash_name, runner.spec.policy_name
        if scenarios is None:
            # One corpus enumeration serves every configuration: it
            # depends only on the program and its inputs.
            corpus = AttackCorpus.from_context(runner.campaign.context)
            scenarios = corpus.build(class_names, per_class=per_class, seed=seed)
        cell_out = _cell_out_path(out, hash_name, policy_name, multi)
        campaign = runner.run(
            scenarios,
            seed=sweep_seed(seed, class_names, per_class),
            out=cell_out,
            resume=resume,
        )
        if cell_out is not None:
            result.out_files.append(os.fspath(cell_out))
        for attack_class, report in _split_by_class(campaign, class_names).items():
            result.cells.append(
                ClassCoverage(
                    attack_class=attack_class,
                    hash_name=hash_name,
                    policy_name=policy_name,
                    report=report,
                )
            )
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    print(run_attack_coverage().table().render())


if __name__ == "__main__":  # pragma: no cover
    main()
