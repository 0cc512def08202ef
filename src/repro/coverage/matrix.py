"""Coverage matrices: canonical reductions of exhaustive campaigns.

A matrix artifact is one JSON document::

    {"type": "coverage", "version": 1,
     "spec": {...},            # the CoverageSpec, verbatim
     "manifest": {...},        # environment + fingerprint + run stats
     "cells": [...]}           # sorted (workload, subject, hash, policy)

Each cell reduces every injection of one ``(workload, subject, hash,
policy)`` coordinate to outcome counts, a detection rate, a detection
latency histogram, and the *escape list* — the individual injections
that corrupted the run without any check firing (silent corruption,
hang, or simulator crash), pinned by index and fault label so a single
new escape is attributable to one concrete fault.

The fingerprint is a SHA-256 prefix over the canonical compact JSON of
``{"spec": ..., "cells": ...}`` — deliberately excluding the manifest,
so re-deriving the matrix on a different host (different Python patch
level, wall time, worker count) reproduces the fingerprint exactly or
fails the diff for a real behavioural reason.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.attacks.scenario import AttackScenario
from repro.errors import ConfigurationError
from repro.faults.campaign import DETECTED, Outcome
from repro.faults.models import BitFlipFault, TransientFetchFault

COVERAGE_TYPE = "coverage"
COVERAGE_VERSION = 1

#: Outcomes recorded in the per-cell escape list: the run was corrupted
#: and nothing detected it.  (BENIGN is a masked fault, not an escape.)
ESCAPE_OUTCOMES = (Outcome.SDC, Outcome.HANG, Outcome.CRASHED)


def fault_label(fault) -> str:
    """Compact canonical label for one perturbation (or tuple of them)."""
    if isinstance(fault, tuple):
        return "+".join(fault_label(part) for part in fault)
    if isinstance(fault, BitFlipFault):
        bits = ",".join(str(bit) for bit in fault.bits)
        return f"bitflip@{fault.address:#x}:b{bits}"
    if isinstance(fault, TransientFetchFault):
        bits = ",".join(str(bit) for bit in fault.bits)
        return f"transient@{fault.address:#x}:b{bits}:n{fault.occurrence}"
    if isinstance(fault, AttackScenario):
        return f"{fault.attack_class}:{fault.label}"
    raise ConfigurationError(f"unlabelable perturbation {fault!r}")


def escape_entry(index: int, fault, outcome: Outcome) -> str:
    """One escape-list line: ``index|fault label|outcome``."""
    return f"{index}|{fault_label(fault)}|{outcome.value}"


@dataclass(slots=True)
class CoverageCell:
    """All injections of one (workload, subject, hash, policy) coordinate."""

    workload: str
    subject: str
    hash_name: str
    policy_name: str
    total: int = 0
    outcomes: dict[str, int] = field(default_factory=dict)
    detection_rate: float = 0.0
    #: Detection latency (instructions, as a string key) → count, over
    #: detected injections that delivered their corruption.
    latency_histogram: dict[str, int] = field(default_factory=dict)
    escapes: list[str] = field(default_factory=list)

    @property
    def key(self) -> tuple[str, str, str, str]:
        return (self.workload, self.subject, self.hash_name, self.policy_name)

    @property
    def label(self) -> str:
        return "/".join(self.key)

    def to_json(self) -> dict:
        return {
            "workload": self.workload,
            "subject": self.subject,
            "hash": self.hash_name,
            "policy": self.policy_name,
            "total": self.total,
            "outcomes": dict(sorted(self.outcomes.items())),
            "detection_rate": self.detection_rate,
            "latency_histogram": dict(
                sorted(self.latency_histogram.items(), key=lambda kv: int(kv[0]))
            ),
            "escapes": list(self.escapes),
        }

    @classmethod
    def from_json(cls, data: dict) -> "CoverageCell":
        return cls(
            workload=data["workload"],
            subject=data["subject"],
            hash_name=data["hash"],
            policy_name=data["policy"],
            total=data["total"],
            outcomes=dict(data["outcomes"]),
            detection_rate=data["detection_rate"],
            latency_histogram=dict(data["latency_histogram"]),
            escapes=list(data["escapes"]),
        )


def reduce_cell(
    workload: str,
    subject: str,
    hash_name: str,
    policy_name: str,
    records,
) -> CoverageCell:
    """Reduce ordered :class:`~repro.exec.records.FaultRecord`\\ s to a cell.

    *records* must already be in campaign-index order; the reduction is a
    pure fold, so the cell is identical for any worker count or batch
    plan that produced the records.
    """
    cell = CoverageCell(
        workload=workload,
        subject=subject,
        hash_name=hash_name,
        policy_name=policy_name,
        outcomes={outcome.value: 0 for outcome in Outcome},
    )
    detected = 0
    for record in records:
        cell.total += 1
        cell.outcomes[record.outcome.value] += 1
        if record.outcome in DETECTED:
            detected += 1
            if record.latency is not None:
                bucket = str(record.latency)
                cell.latency_histogram[bucket] = (
                    cell.latency_histogram.get(bucket, 0) + 1
                )
        elif record.outcome in ESCAPE_OUTCOMES:
            cell.escapes.append(
                escape_entry(record.index, record.fault, record.outcome)
            )
    cell.detection_rate = (
        round(detected / cell.total, 6) if cell.total else 0.0
    )
    return cell


def sort_cells(cells) -> list[CoverageCell]:
    """Canonical cell order: (workload, subject, hash, policy)."""
    return sorted(cells, key=lambda cell: cell.key)


def fingerprint(spec_json: dict, cells_json: list[dict]) -> str:
    """SHA-256 prefix over the canonical compact spec+cells JSON."""
    payload = json.dumps(
        {"spec": spec_json, "cells": cells_json},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def build_payload(
    spec,
    cells,
    total_injections: int,
    wall_seconds: float,
    workers: int,
) -> dict:
    """Assemble the full artifact document for one coverage run."""
    from repro.obs.metrics import environment

    spec_json = spec.to_json()
    cells_json = [cell.to_json() for cell in sort_cells(cells)]
    manifest = dict(environment())
    manifest.update(
        {
            "fingerprint": fingerprint(spec_json, cells_json),
            "total_injections": total_injections,
            "wall_seconds": round(wall_seconds, 3),
            "workers": workers,
        }
    )
    return {
        "type": COVERAGE_TYPE,
        "version": COVERAGE_VERSION,
        "spec": spec_json,
        "manifest": manifest,
        "cells": cells_json,
    }


def render_payload(payload: dict) -> str:
    """Stable on-disk serialization (committed artifacts diff cleanly)."""
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def load_payload(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except ValueError as error:  # JSONDecodeError, UnicodeDecodeError
            raise ConfigurationError(f"{path}: not JSON ({error})") from None
    if not isinstance(data, dict) or data.get("type") != COVERAGE_TYPE:
        raise ConfigurationError(
            f"{path}: not a coverage matrix artifact"
        )
    return data
