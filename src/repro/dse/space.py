"""Declarative monitor-configuration design space.

The paper's central claim is a *trade-off*: the IHT geometry, the hash
function, and the OS checking policy jointly set detection coverage,
detection latency, run-time overhead, and silicon area.  A
:class:`ConfigSpace` names the axes of that trade-off declaratively —
hash × IHT entries × replacement policy × miss-penalty model — plus the
workload set every point is measured on, and enumerates the Cartesian
product as picklable :class:`MonitorConfig` points in a canonical order.

Everything here is plain data: spaces and configs cross process
boundaries (pool workers re-derive their caches from them), serialize
into JSONL sweep-file headers, and fingerprint stably so a resumed sweep
refuses a results file written by a different space.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

from repro.attacks.corpus import resolve_classes
from repro.cic.hashes import HASH_ALGORITHMS
from repro.errors import ConfigurationError
from repro.osmodel.policies import POLICIES
from repro.workloads.suite import SCALES, WORKLOAD_NAMES

#: Schema version stamped into sweep-file headers.
DSE_VERSION = 1

#: How a point's detection objectives are measured (see ``objectives.py``):
#: the seeded adversarial corpus of :mod:`repro.attacks`, the same-column
#: two-bit pairs of the §6.3 analysis, or not at all (miss-rate / area /
#: overhead sweeps such as the Figure-6 preset).
ADVERSARIES = ("attacks", "same-column", "none")


@dataclass(frozen=True, slots=True)
class MonitorConfig:
    """One point of the design space: a complete monitor configuration.

    The axes mirror :class:`repro.meister.monitor_spec.MonitorSpec` — the
    generator's view of the same design point — but stay pure data so
    sweep engines can hash, pickle, and serialize them freely.  The IHT
    geometry axis is the entry count: the paper's table is a fully
    associative CAM (one set, ``iht_size`` ways, 64+32-bit rows).
    """

    hash_name: str = "xor"
    iht_size: int = 8
    policy_name: str = "lru_half"
    miss_penalty: int = 100

    def __post_init__(self) -> None:
        if self.hash_name not in HASH_ALGORITHMS:
            raise ConfigurationError(
                f"unknown hash {self.hash_name!r}; available: "
                f"{', '.join(sorted(HASH_ALGORITHMS))}"
            )
        if self.policy_name not in POLICIES:
            raise ConfigurationError(
                f"unknown policy {self.policy_name!r}; available: "
                f"{', '.join(sorted(POLICIES))}"
            )
        if self.iht_size < 1:
            raise ConfigurationError(
                f"IHT needs at least one entry, got {self.iht_size}"
            )
        if self.miss_penalty < 0:
            raise ConfigurationError(
                f"negative miss penalty {self.miss_penalty}"
            )

    @property
    def config_id(self) -> str:
        """Stable human-readable point identifier."""
        return (
            f"{self.hash_name}/iht{self.iht_size}/"
            f"{self.policy_name}/p{self.miss_penalty}"
        )

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "MonitorConfig":
        return cls(**data)


@dataclass(frozen=True, slots=True)
class ConfigSpace:
    """The declarative sweep specification: axes × workload set.

    ``points()`` enumerates the product in declared axis order (hash
    outermost, penalty innermost), which is the canonical point index
    every sweep, results file, and resume handshake agrees on.
    """

    hash_names: tuple[str, ...] = ("xor",)
    iht_sizes: tuple[int, ...] = (8, 16)
    policy_names: tuple[str, ...] = ("lru_half",)
    miss_penalties: tuple[int, ...] = (100,)
    workloads: tuple[str, ...] = ("sha", "dijkstra", "bitcount")
    scale: str = "tiny"
    #: Detection-objective source (see module docstring).
    adversary: str = "attacks"
    #: ``adversary="attacks"``: classes swept and scenarios per class.
    attack_classes: tuple[str, ...] = ("all",)
    per_class: int = 4
    #: ``adversary="same-column"``: XOR-blind two-bit pairs per workload.
    pair_count: int = 24

    def __post_init__(self) -> None:
        for axis, name in (
            (self.hash_names, "hash_names"),
            (self.iht_sizes, "iht_sizes"),
            (self.policy_names, "policy_names"),
            (self.miss_penalties, "miss_penalties"),
            (self.workloads, "workloads"),
        ):
            if not axis:
                raise ConfigurationError(f"empty axis {name}")
            if len(set(axis)) != len(axis):
                raise ConfigurationError(f"duplicate values on axis {name}")
        for workload in self.workloads:
            if workload not in WORKLOAD_NAMES:
                raise ConfigurationError(
                    f"unknown workload {workload!r}; available: "
                    f"{', '.join(WORKLOAD_NAMES)}"
                )
        if self.scale not in SCALES:
            raise ConfigurationError(
                f"unknown scale {self.scale!r}; choose from: "
                f"{', '.join(SCALES)}"
            )
        if self.adversary not in ADVERSARIES:
            raise ConfigurationError(
                f"unknown adversary {self.adversary!r}; choose from: "
                f"{', '.join(ADVERSARIES)}"
            )
        resolve_classes(self.attack_classes)  # raises on unknown names
        if self.per_class < 1:
            raise ConfigurationError("per_class must be >= 1")
        if self.pair_count < 1:
            raise ConfigurationError("pair_count must be >= 1")
        # Every point must validate; constructing one per axis value
        # surfaces bad hash/policy/size entries at space-build time.
        for hash_name in self.hash_names:
            for size in self.iht_sizes:
                for policy in self.policy_names:
                    for penalty in self.miss_penalties:
                        MonitorConfig(hash_name, size, policy, penalty)

    @property
    def size(self) -> int:
        """Number of configuration points (not point × workload pairs)."""
        return (
            len(self.hash_names)
            * len(self.iht_sizes)
            * len(self.policy_names)
            * len(self.miss_penalties)
        )

    def points(self) -> list[MonitorConfig]:
        """Every configuration, in canonical (index) order."""
        return [
            MonitorConfig(hash_name, size, policy, penalty)
            for hash_name in self.hash_names
            for size in self.iht_sizes
            for policy in self.policy_names
            for penalty in self.miss_penalties
        ]

    def to_json(self) -> dict:
        data = asdict(self)
        for key, value in data.items():
            if isinstance(value, tuple):
                data[key] = list(value)
        return data

    @classmethod
    def from_json(cls, data: dict) -> "ConfigSpace":
        fields = dict(data)
        for key in (
            "hash_names", "iht_sizes", "policy_names", "miss_penalties",
            "workloads", "attack_classes",
        ):
            if key in fields:
                fields[key] = tuple(fields[key])
        return cls(**fields)

    def fingerprint(self) -> str:
        """Stable digest used to refuse resuming onto a different space."""
        canonical = json.dumps(self.to_json(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]
