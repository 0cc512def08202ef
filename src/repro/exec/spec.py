"""Picklable campaign specification.

Simulators, monitors, and assembled :class:`~repro.asm.program.Program`
images never cross a process boundary: a :class:`CampaignSpec` carries only
plain data — a workload name (or raw assembly source) plus the monitor
configuration — from which any process derives the program, its one
pristine recording, and the :class:`~repro.faults.campaign.CampaignContext`
read off that recording.  Because the derivation is deterministic, a
context built in any process is equivalent, and campaign results are
reproducible regardless of how many workers the pool uses.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

from repro.asm.assembler import assemble
from repro.asm.program import Program
from repro.cic.hashes import get_hash
from repro.errors import ConfigurationError
from repro.exec.backends import get_backend
from repro.faults.campaign import CampaignContext, build_context
from repro.osmodel.policies import get_policy
from repro.utils.seeds import derive_seed
from repro.workloads.suite import SCALES, WORKLOAD_NAMES

#: Schema version stamped into headers; bump on incompatible changes.
#: v2: the spec gained ``backend`` (full-replay vs golden-trace fork).
#: v3: HANG record details are canonical (``instruction limit N
#: exceeded``, no pc suffix) — files from earlier versions would mix
#: formats on resume, so the handshake refuses them.  The harness
#: redesign (one ``HarnessRunner`` behind both clients) kept the format
#: bit-for-bit: v3 files written before it resume unchanged.
SPEC_VERSION = 3

__all__ = ["CampaignSpec", "SPEC_VERSION", "shard_seed"]


@dataclass(frozen=True, slots=True)
class CampaignSpec:
    """Self-contained, picklable description of one fault campaign.

    Exactly one of *workload* (a name from
    :data:`repro.workloads.suite.WORKLOAD_NAMES`, built at *scale*) or
    *source* (raw assembly text) selects the program under test.  The
    remaining fields configure the monitor and the hang budget, mirroring
    :class:`~repro.faults.campaign.FaultCampaign`.

    *backend* names an execution backend
    (:mod:`repro.exec.backends`) — ``"full"`` re-simulates from
    instruction zero, ``"golden"`` forks the recorded golden run at the
    nearest checkpoint before the fault (:mod:`repro.exec.golden`), and
    ``"pipeline-golden"`` does the same on the cycle-level pipeline with
    measured cycle counts.  The functional pair produces identical
    :class:`~repro.faults.campaign.FaultResult`\\ s; the choice is a
    throughput / fidelity knob and is recorded in results-file headers.
    """

    workload: str | None = None
    scale: str = "small"
    source: str | None = None
    name: str | None = None
    iht_size: int = 8
    hash_name: str = "xor"
    policy_name: str = "lru_half"
    inputs: tuple[int, ...] | None = None
    instruction_budget_factor: int = 20
    backend: str = "full"

    def __post_init__(self) -> None:
        """Reject at construction what would fail when the spec runs."""
        if (self.workload is None) == (self.source is None):
            raise ConfigurationError(
                "CampaignSpec needs exactly one of workload= or source="
            )
        if self.workload is not None and self.workload not in WORKLOAD_NAMES:
            raise ConfigurationError(
                f"unknown workload {self.workload!r}; "
                f"available: {', '.join(WORKLOAD_NAMES)}"
            )
        if self.scale not in SCALES:
            raise ConfigurationError(
                f"unknown scale {self.scale!r}; choose from: {', '.join(SCALES)}"
            )
        get_hash(self.hash_name)  # each raises on unknown names
        get_policy(self.policy_name)
        get_backend(self.backend)
        if self.iht_size < 1:
            raise ConfigurationError(f"IHT size must be >= 1, got {self.iht_size}")

    # ------------------------------------------------------------------
    # Derivation (in the parent; pool workers inherit what it built)
    # ------------------------------------------------------------------

    @property
    def label(self) -> str:
        """Human-readable campaign target, e.g. ``sha-tiny``."""
        if self.workload is not None:
            return f"{self.workload}-{self.scale}"
        return self.name or "inline-source"

    def build_program(self) -> Program:
        if self.workload is not None:
            from repro.workloads.suite import build

            return build(self.workload, self.scale)
        return assemble(self.source, name=self.label)

    def resolved_inputs(self) -> list[int] | None:
        """Explicit inputs, else the workload's registered input queue."""
        if self.inputs is not None:
            return list(self.inputs)
        if self.workload is not None:
            from repro.workloads.suite import workload_inputs

            return workload_inputs(self.workload, self.scale)
        return None

    def build_context(self) -> CampaignContext:
        """Assemble the program and derive its golden reference from the
        backend's one pristine recording of it."""
        return build_context(
            self.build_program(),
            iht_size=self.iht_size,
            hash_name=self.hash_name,
            policy_name=self.policy_name,
            inputs=self.resolved_inputs(),
            instruction_budget_factor=self.instruction_budget_factor,
            backend=self.backend,
        )

    # ------------------------------------------------------------------
    # Serialization (JSONL headers, resume validation)
    # ------------------------------------------------------------------

    def to_json(self) -> dict:
        data = asdict(self)
        if data["inputs"] is not None:
            data["inputs"] = list(data["inputs"])
        return data

    @classmethod
    def from_json(cls, data: dict) -> "CampaignSpec":
        fields = dict(data)
        if fields.get("inputs") is not None:
            fields["inputs"] = tuple(fields["inputs"])
        return cls(**fields)

    def fingerprint(self) -> str:
        """Stable digest used to refuse resuming onto a different spec."""
        canonical = json.dumps(self.to_json(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def shard_seed(campaign_seed: int, shard_id: int) -> int:
    """Deterministic per-shard seed, independent of worker count.

    Derived by hashing ``(campaign_seed, shard_id)`` so it depends only on
    the campaign seed and the shard's position in the fault list — never
    on which worker ran it or in what order shards completed.  Today's
    :func:`~repro.faults.campaign.run_one` kernel is fully determined by
    ``(spec, fault)`` and consumes no randomness; the per-shard seed is
    derived and recorded in ``shard-done`` markers so that future
    *stochastic* fault models (e.g. randomized transient timing) stay
    reproducible under any pool layout without a schema change.
    """
    return derive_seed(f"{campaign_seed}:{shard_id}")
