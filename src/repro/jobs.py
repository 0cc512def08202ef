"""The four job kinds, one declarative description each.

Every experiment here runs as a ``campaign`` (§6.3 fault coverage), a
``dse`` sweep (hash × IHT × policy, Figure 6), an ``attack`` sweep, or
a ``coverage`` corpus.  A :class:`JobKind` declares its fields once
(payload key, flag, type, default, lower bound, help), resolves a
target and a preset into the canonical payload, names its label and
results-file extension, and starts one run: ``step(out, resume,
stop_after_shards)``, which the server drives step by step with its
checkpoint-cache lease and ``repro <kind>`` calls once.  ``repro
<kind>``, ``repro submit <kind>`` and the server are all built from
:data:`KINDS`, so ``repro submit X ARGS`` runs exactly the job ``repro
X ARGS`` runs.  Validation constructs spec objects only — it never
assembles a program or records a golden run — and no runner is imported
until a job starts.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.obs import core as obs_core
from repro.obs.log import log
from repro.utils.atomic import write_atomic
from repro.workloads.suite import SCALES, WORKLOAD_NAMES

#: Mirrors of the execution-layer and DSE registries, spelled out so
#: building the parser stays free of those import stacks; tests pin them.
BACKEND_CHOICES = ("full", "golden", "pipeline-golden")
CAMPAIGN_PRESET_CHOICES = ("exhaustive-single-bit", "smoke", "mibench-tiny")
COVERAGE_CORPUS_CHOICES = ("pairs-tiny", "pairs-small", "attacks-tiny")
ADVERSARY_CHOICES = ("attacks", "same-column", "none")


@dataclass(frozen=True)
class Field:
    """One job field and the flag that sets it.

    A dotted *key* (``spec.iht_size``) lives in the payload's spec or
    space object.  *default* applies when neither the payload nor the
    kind's preset gives a value (``--help`` shows it); *minimum* bounds
    every explicit value.
    """

    key: str
    flag: str
    default: object = None
    type: type = str
    minimum: int | None = None
    many: bool = False
    metavar: str | None = None
    help: str = ""

    @property
    def dest(self) -> str:
        return self.key.rpartition(".")[2]

    def check(self, value):
        """*value*, type- and bound-checked (a list when repeatable)."""
        name = self.dest
        if self.many and (not isinstance(value, (list, tuple)) or not value):
            raise ConfigurationError(f"job field {name!r} must be a non-empty list")
        for item in value if self.many else (value,):
            if type(item) is not self.type:  # exact: a bool is no integer
                noun = "an integer" if self.type is int else "a string"
                raise ConfigurationError(f"job field {name!r} must be {noun}")
            if self.minimum is not None and item < self.minimum:
                raise ConfigurationError(
                    f"job field {name!r} ({self.flag}) must be >= "
                    f"{self.minimum}, got {item}"
                )
        return list(value) if self.many else value


def _choices(names) -> str:
    return "{" + ",".join(names) + "}"


def _scale(default: str, key: str = "scale", more: str = "") -> Field:
    return Field(key, "--scale", default, metavar=_choices(SCALES),
                 help="workload build scale" + more)


def _backend(default: str, key: str = "backend", more: str = "") -> Field:
    return Field(key, "--backend", default, metavar=_choices(BACKEND_CHOICES),
                 help="injection execution backend: full replay, golden "
                      "fork-at-fault, or cycle-measuring pipeline-golden (see "
                      "docs/HARNESS.md and docs/PERFORMANCE.md)" + more)


def _chunk(default: int, unit: str) -> Field:
    return Field("chunk_size", "--chunk", default, int, 1,
                 help=f"{unit} per shard, the unit of commit and resume")


def _many(key: str, flag: str, default, help: str, type_=str, metavar="NAME") -> Field:
    return Field(key, flag, default, type_, many=True, metavar=metavar,
                 help=help + "; repeatable")


SEED = Field("seed", "--seed", 42, int, 0,
             help="fault-generation and corpus-sampling seed, recorded in the "
                  "results header for resume validation")
WORKERS = Field("workers", "--workers", 1, int, 1,
                help="worker processes; 1 runs serially in-process")
BATCH_SIZE = Field("batch_size", "--batch-size", None, int, 1,
                   help="faults per batched-kernel call; above --chunk a "
                        "call spans consecutive whole shards, which commit "
                        "once it completes (default: 256 on golden, whose "
                        "kernel replays the pristine prefix once per call; "
                        "one shard on the other backends); an execution "
                        "knob, never recorded")

#: Local-only run flags of ``repro <kind>``: never part of a payload.
RESUME = ("--resume", {"action": "store_true",
                       "help": "skip shards already committed to --out"})
STOP_AFTER_SHARDS = ("--stop-after-shards", {
    "type": int, "metavar": "N",
    "help": "run at most N new shards then exit with partial results "
            "(the kill/resume exercise of `make harness-smoke`)",
})


def resolve_target(target: str) -> dict:
    """``{"workload": name}`` or ``{"source": text, "name": path}``."""
    if target in WORKLOAD_NAMES:
        return {"workload": target}
    if os.path.exists(target):
        with open(target, encoding="utf-8") as handle:
            return {"source": handle.read(), "name": target}
    raise ConfigurationError(
        f"unknown target {target!r}: not a workload "
        f"({', '.join(WORKLOAD_NAMES)}) and no such file"
    )


def _section(payload: dict, values: dict, name: str) -> dict:
    """Payload object *name* with its declared fields' values laid over it."""
    prefix = name + "."
    declared = {key[len(prefix):]: value for key, value in values.items()
                if key.startswith(prefix)}
    return {**(payload.get(name) or {}), **declared}


class JobKind:
    """What a job of one kind is.

    Subclasses implement ``normalize(payload)`` (the idempotent canonical
    payload, or :class:`ConfigurationError`), ``label(payload)``,
    ``start(payload, lease=None)`` (the run as ``step(out, resume,
    stop_after_shards)``; *lease* maps a campaign spec to a warm
    workspace from the server's checkpoint cache; kinds without shard
    steps run whole), ``progress(result)`` (``(done, total, complete)``)
    and ``show(result, payload, paths)`` (a local run's report).
    """

    name = help = ""
    #: ``(dest, help)`` of the positional: ``target`` takes a workload,
    #: an assembly file, or ``all``; any other dest is a payload key.
    positional: tuple[str, str] | None = None
    fields: tuple[Field, ...] = ()
    extension = ".jsonl"
    #: Whether records and events can be tailed while the job runs.
    streams = True
    #: Local-only flags of ``repro <kind>``, as ``(flag, argparse options)``.
    local: tuple = ()

    def add_arguments(self, parser: argparse.ArgumentParser, fields_only=False) -> None:
        """The positional and every field flag (``None`` when not given)."""
        if not fields_only and self.positional is not None:
            parser.add_argument(self.positional[0], help=self.positional[1])
        for field in self.fields:
            default = field.default
            if field.many and default:
                default = ",".join(map(str, default))
            parser.add_argument(
                field.flag, dest=field.dest, type=field.type,
                action="append" if field.many else "store",
                metavar=field.metavar or ("N" if field.type is int else None),
                help=field.help + ("" if default is None else f" (default {default})"),
            )

    def raw(self, args: argparse.Namespace) -> dict:
        """The payload *args* spell: only the flags given explicitly."""
        raw: dict = {"kind": self.name}
        for field in self.fields:
            section, _, key = field.key.rpartition(".")
            holder = raw.setdefault(section, {}) if section else raw
            if getattr(args, field.dest) is not None:
                holder[key] = getattr(args, field.dest)
        return raw

    def payloads(self, args: argparse.Namespace) -> list[tuple[str | None, dict]]:
        """``(suffix, canonical payload)`` per job *args* describe:
        ``TARGET=all`` is one job per roster workload, suffixed by it."""
        raw = self.raw(args)
        if self.positional is None:
            return [(None, self.normalize(raw))]
        dest = self.positional[0]
        target = getattr(args, dest)
        if dest != "target":
            return [(None, self.normalize({**raw, dest: target}))]
        if target == "all":
            return [(workload, self.normalize(self.aim(raw, {"workload": workload})))
                    for workload in self.roster(raw)]
        return [(None, self.normalize(self.aim(raw, resolve_target(target))))]

    def aim(self, raw: dict, target: dict) -> dict:
        return {**raw, **target}

    def roster(self, raw: dict) -> tuple[str, ...]:
        return WORKLOAD_NAMES

    def fill(self, payload: dict, base: dict | None = None) -> dict:
        """Every declared field by key: the payload's value, checked; else
        *base*'s (a preset's); else the field default."""
        values = {}
        for field in self.fields:
            section, _, key = field.key.rpartition(".")
            holder = payload.get(section) if section else payload
            value = holder.get(key) if isinstance(holder, dict) else None
            if value is not None:
                values[field.key] = field.check(value)
            else:
                value = (base or {}).get(field.key, field.default)
                values[field.key] = list(value) if field.many and value else value
        return values

    def log_out(self, result, payload: dict, out, records: str, unit: str) -> None:
        """Log where a local run's *records* went, and how far it got."""
        done, total, complete = self.progress(result)
        if out:
            log.info(f"{'complete' if complete else 'partial'} {records} in "
                     f"{out} ({done}/{total} {unit}, {payload['workers']} workers)")


class CampaignKind(JobKind):
    name = "campaign"
    help = "parallel fault-injection campaign"
    positional = ("target", "workload name, assembly file, or `all` (one run "
                            "per workload: the preset's roster, or the suite)")
    fields = (
        Field("preset", "--preset", metavar="NAME",
              help="named campaign (" + ", ".join(CAMPAIGN_PRESET_CHOICES)
                   + "): the fault plan and scale/backend defaults"),
        _scale("small", "spec.scale", "; a preset supplies its own"),
        _backend("full", "spec.backend", "; a preset supplies its own"),
        Field("spec.iht_size", "--iht", 8, int, help="IHT entries"),
        Field("spec.hash_name", "--hash", "xor", metavar="NAME", help="hash function"),
        Field("spec.policy_name", "--policy", "lru_half", metavar="NAME",
              help="IHT replacement policy"),
        Field("faults", "--faults", 200, int, 1, help="random single-bit "
              "faults to inject; overrides a preset's fault plan"),
        SEED, WORKERS, _chunk(16, "faults"), BATCH_SIZE,
    )
    local = (("--out", {"help": "stream per-fault JSONL records to this file"}),
             RESUME, STOP_AFTER_SHARDS)

    def aim(self, raw: dict, target: dict) -> dict:
        return {**raw, "spec": {**raw["spec"], **target}}

    def roster(self, raw: dict) -> tuple[str, ...]:
        from repro.exec.presets import get_campaign_preset

        if raw.get("preset") is not None:
            workloads = get_campaign_preset(raw["preset"]).workloads
            if workloads:
                return workloads
        return super().roster(raw)

    def normalize(self, payload: dict) -> dict:
        from repro.exec.presets import get_campaign_preset
        from repro.exec.spec import CampaignSpec

        if not isinstance(payload.get("spec"), dict):
            raise ConfigurationError("campaign job needs a 'spec' object")
        values = self.fill(payload)
        preset = values["preset"]
        if preset is not None:
            chosen = get_campaign_preset(preset)
            values = self.fill(
                payload, {"spec.scale": chosen.scale, "spec.backend": chosen.backend}
            )
        try:
            spec = CampaignSpec.from_json(_section(payload, values, "spec"))
        except TypeError as error:
            raise ConfigurationError(f"bad campaign spec: {error}") from error
        if payload.get("faults") is not None:
            preset = None  # an explicit count overrides the preset's plan
        return {
            "kind": self.name, "spec": spec.to_json(), "preset": preset,
            "faults": None if preset is not None else values["faults"],
            **{key: values[key] for key in
               ("seed", "workers", "chunk_size", "batch_size")},
        }

    def label(self, payload: dict) -> str:
        spec = payload["spec"]
        return f"{spec.get('workload') or spec.get('name') or 'inline'}-{spec['scale']}"

    def start(self, payload: dict, lease=None):
        from repro.exec.presets import get_campaign_preset
        from repro.exec.runner import CampaignRunner
        from repro.exec.spec import CampaignSpec

        spec = CampaignSpec.from_json(payload["spec"])
        runner = CampaignRunner(
            spec, workers=payload["workers"], chunk_size=payload["chunk_size"],
            batch_size=payload.get("batch_size"),
            workspace=lease(spec) if lease is not None else None,
        )
        seed = payload["seed"]
        if payload.get("preset"):
            preset = get_campaign_preset(payload["preset"])
            faults = preset.faults(runner.campaign, seed=seed)
        else:
            faults = runner.campaign.random_single_bit(payload["faults"], seed=seed)
        return lambda out, resume, stop_after_shards: runner.run(
            faults, seed, out, resume, stop_after_shards
        )

    def progress(self, result) -> tuple[int, int, bool]:
        return len(result.records), result.total, result.complete

    def show(self, result, payload: dict, paths: dict) -> None:
        from repro.faults.campaign import Outcome

        report = result.report()
        counts = report.counts()
        print(f"campaign {result.spec.label}: {report.summary()}")
        for outcome in Outcome:
            if counts[outcome]:
                print(f"  {outcome.value:20s} {counts[outcome]}")
        self.log_out(result, payload, paths["out"], "results", "faults")


class DseKind(JobKind):
    name = "dse"
    help = "evaluate a monitor-configuration grid (design-space sweep)"
    fields = (
        Field("preset", "--preset", metavar="NAME",
              help="named space from repro.dse.presets; explicit space "
                   "flags override its values"),
        _many("space.hash_names", "--hash", ("xor", "crc32"), "hash-axis value"),
        _many("space.iht_sizes", "--iht", (4, 8, 16, 32), "IHT-entries axis value",
              int, "N"),
        _many("space.policy_names", "--policy", ("lru_half",),
              "replacement-policy axis value"),
        _many("space.miss_penalties", "--penalty", (100,),
              "OS miss-penalty axis value", int, "CYCLES"),
        _many("space.workloads", "--workload", ("sha", "dijkstra", "bitcount"),
              "workload measured per point"),
        _scale("tiny", "space.scale"),
        Field("space.adversary", "--adversary", "attacks",
              metavar=_choices(ADVERSARY_CHOICES),
              help="detection-objective source"),
        _many("space.attack_classes", "--class", ("all",),
              "attack class for --adversary attacks"),
        Field("space.per_class", "--per-class", 4, int,
              help="scenarios sampled per attack class"),
        Field("space.pair_count", "--pair-count", 24, int,
              help="pairs per workload for --adversary same-column"),
        _backend("golden", more="; pipeline-golden also measures cycle overhead"),
        SEED, WORKERS, _chunk(4, "configurations"),
    )
    local = (("--out", {"help": "stream per-point JSONL records to this file"}),
             RESUME, STOP_AFTER_SHARDS)

    def normalize(self, payload: dict) -> dict:
        from repro.dse import ConfigSpace, get_preset
        from repro.exec.backends import get_backend

        values = self.fill(payload)
        preset = values["preset"]
        if preset is None and not isinstance(payload.get("space"), dict):
            raise ConfigurationError("dse job needs a 'space' object or 'preset'")
        if preset is not None:
            space = get_preset(preset).to_json()
            values = self.fill(payload, {f"space.{k}": v for k, v in space.items()})
        try:
            space = ConfigSpace.from_json(_section(payload, values, "space"))
        except TypeError as error:
            raise ConfigurationError(f"bad DSE space: {error}") from error
        get_backend(values["backend"])  # raises on unknown names
        return {"kind": self.name, "space": space.to_json(),
                **{key: values[key] for key in
                   ("backend", "seed", "workers", "chunk_size")}}

    def label(self, payload: dict) -> str:
        return f"dse:{'+'.join(payload['space'].get('workloads', ()))}"

    def start(self, payload: dict, lease=None):
        from repro.dse import ConfigSpace, DseSweep

        return DseSweep(
            ConfigSpace.from_json(payload["space"]), seed=payload["seed"],
            workers=payload["workers"], chunk_size=payload["chunk_size"],
            backend=payload["backend"],
        ).run

    def progress(self, result) -> tuple[int, int, bool]:
        return len(result.points), result.total, result.complete

    def show(self, result, payload: dict, paths: dict) -> None:
        print(result.table().render())
        log.info(f"{result.summary()}")
        self.log_out(result, payload, paths["out"], "point records", "configurations")


class AttackKind(JobKind):
    name = "attack"
    help = "adversarial tampering sweep + detection matrix"
    positional = ("target", "workload name, assembly file, or `all` (one "
                            "sweep per workload of the suite)")
    fields = (
        _scale("small"),
        _many("classes", "--class", ("all",),
              "attack class to sweep, or all/persistent/transient"),
        Field("per_class", "--per-class", 8, int, 1,
              help="scenarios sampled per attack class"),
        _many("inputs", "--input", None, "queue an integer for read_int", int, "N"),
        Field("iht_size", "--iht", 8, int, help="IHT entries"),
        _many("hash_names", "--hash", ("xor",), "hash function column"),
        _many("policy_names", "--policy", ("lru_half",),
              "IHT replacement policy column"),
        _backend("full"),
        SEED, WORKERS, _chunk(16, "scenarios"),
    )
    local = (("--out", {"help": "stream per-scenario JSONL records to this file"}),
             RESUME,
             ("--json", {"help": "also write the detection matrix as JSON here"}))

    def normalize(self, payload: dict) -> dict:
        from repro.attacks.corpus import resolve_classes
        from repro.exec.spec import CampaignSpec

        values = self.fill(payload)
        target = {key: payload.get(key) for key in ("workload", "source", "name")}
        resolve_classes(values["classes"])
        # One spec per matrix column: the checks each cell's run makes.
        for hash_name in values["hash_names"]:
            for policy_name in values["policy_names"]:
                CampaignSpec(**target, scale=values["scale"],
                             iht_size=values["iht_size"], hash_name=hash_name,
                             policy_name=policy_name, backend=values["backend"])
        return {"kind": self.name, **target, **values}

    def label(self, payload: dict) -> str:
        target = payload.get("workload") or payload.get("name") or "inline"
        return f"attack:{target}-{payload['scale']}"

    def start(self, payload: dict, lease=None):
        from repro.eval.attack_coverage import run_attack_coverage

        options = {key: value for key, value in payload.items() if key != "kind"}
        return lambda out, resume, stop_after_shards: run_attack_coverage(
            **options, out=out, resume=resume
        )

    def progress(self, result) -> tuple[int, int, bool]:
        total = sum(cell.total for cell in result.cells)
        return total, total, True

    def show(self, result, payload: dict, paths: dict) -> None:
        print(result.table().render())
        if paths["json"]:
            write_atomic(paths["json"], result.render_json())
            log.info(f"detection matrix written to {paths['json']}")
        if result.out_files:
            log.info(f"per-scenario records in {', '.join(result.out_files)} "
                     f"({payload['workers']} workers)")


class CoverageKind(JobKind):
    name = "coverage"
    help = "execute a named coverage corpus and write its matrix"
    positional = ("corpus", "named corpus from repro.coverage ("
                            + ", ".join(COVERAGE_CORPUS_CHOICES) + ")")
    fields = (WORKERS, _chunk(64, "injections"), BATCH_SIZE)
    extension = ".json"
    streams = False  # one JSON document, written when the run ends
    local = (("--out", {"help": "artifact path "
                                "(default: results/coverage/<name>.json)"}),)

    def normalize(self, payload: dict) -> dict:
        from repro.coverage import get_corpus

        corpus = payload.get("corpus")
        if not isinstance(corpus, str):
            raise ConfigurationError("coverage job needs a 'corpus' name")
        get_corpus(corpus)
        return {"kind": self.name, "corpus": corpus, **self.fill(payload)}

    def label(self, payload: dict) -> str:
        return f"coverage:{payload['corpus']}"

    def start(self, payload: dict, lease=None):
        from repro.coverage import get_corpus, run_coverage

        spec = get_corpus(payload["corpus"])
        return lambda out, resume, stop_after_shards: run_coverage(
            spec, workers=payload["workers"], chunk_size=payload["chunk_size"],
            batch_size=payload.get("batch_size"), progress=log.info,
            out=out or self.artifact_path(payload),
        )

    def progress(self, result) -> tuple[int, int, bool]:
        total = result["manifest"]["total_injections"]
        return total, total, True

    def artifact_path(self, payload: dict) -> str:
        """The committed artifact path: ``repro coverage run``'s default."""
        from repro.coverage import default_artifact_path

        return default_artifact_path(payload["corpus"])

    def show(self, result, payload: dict, paths: dict) -> None:
        from repro.obs.metrics import metrics_path

        out = paths["out"] or self.artifact_path(payload)
        manifest = result["manifest"]
        print(f"coverage {payload['corpus']}: {manifest['total_injections']} "
              f"injections, {len(result['cells'])} cells, fingerprint "
              f"{manifest['fingerprint']} -> {out}")
        if obs_core.enabled():
            log.info(f"run telemetry in {metrics_path(out)}")


#: The job kinds by name: ``repro <kind>``, ``repro submit <kind>``, and
#: the server's ``{"kind": ...}`` payloads.
KINDS: dict[str, JobKind] = {
    kind.name: kind
    for kind in (CampaignKind(), DseKind(), AttackKind(), CoverageKind())
}
