"""Campaign result records and their JSONL wire format.

A campaign results file is JSON Lines: one JSON object per line, written
append-only (:mod:`repro.utils.jsonl`, whose :func:`dump_line` this
module re-exports) so an interrupted campaign loses at most the shard in
flight.  Three line types exist, discriminated by ``"type"``:

``header`` (first line of the file)
    ``{"type": "header", "version": 1, "spec": {...}, "fingerprint": str,
    "seed": int, "total": int, "chunk_size": int}`` — the campaign's
    identity.  Resume refuses a file whose fingerprint, seed, total, or
    chunk size differ from the requested campaign.

``record`` (one per completed injection)
    ``{"type": "record", "index": int, "shard": int, "fault": {...},
    "outcome": str, "detail": str, "latency": int|null}`` — *index* is the
    perturbation's position in the campaign's list (the global ordering
    key), *shard* the chunk it was executed in, *outcome* one of the
    :class:`Outcome` values (``detected-cic``, ``detected-baseline``,
    ``crashed``, ``hang``, ``silent-corruption``, ``benign``), *latency*
    the detection latency in instructions (``null`` when not detected; the
    key is absent in files written before it existed).

``shard-done`` (one per completed shard)
    ``{"type": "shard-done", "shard": int, "seed": int}`` — the commit
    marker resume trusts: records from a shard without its marker are
    discarded and the shard re-runs.

Perturbation payloads serialize the two fault models, attack scenarios,
and multi-part tuples::

    {"kind": "bitflip", "address": int, "bits": [int, ...]}
    {"kind": "transient", "address": int, "bits": [...], "occurrence": int}
    {"kind": "attack", "class": str, "label": str,
     "patches": [{"address": int, "word": int}, ...],
     "transient": bool, "occurrence": int}
    {"kind": "multi", "parts": [{...}, {...}]}
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attacks.scenario import AttackScenario
from repro.errors import ConfigurationError
from repro.faults.campaign import FaultResult, Outcome
from repro.faults.models import BitFlipFault, TransientFetchFault
from repro.utils.jsonl import dump_line  # noqa: F401 - re-exported


def fault_to_json(fault) -> dict:
    """Serialize a perturbation (or tuple of them) to its wire dict."""
    if isinstance(fault, tuple):
        return {"kind": "multi", "parts": [fault_to_json(part) for part in fault]}
    if isinstance(fault, BitFlipFault):
        return {
            "kind": "bitflip",
            "address": fault.address,
            "bits": list(fault.bits),
        }
    if isinstance(fault, TransientFetchFault):
        return {
            "kind": "transient",
            "address": fault.address,
            "bits": list(fault.bits),
            "occurrence": fault.occurrence,
        }
    if isinstance(fault, AttackScenario):
        return fault.to_json()
    raise ConfigurationError(f"unserializable perturbation {fault!r}")


def fault_from_json(data: dict):
    """Inverse of :func:`fault_to_json`."""
    kind = data["kind"]
    if kind == "multi":
        return tuple(fault_from_json(part) for part in data["parts"])
    if kind == "bitflip":
        return BitFlipFault(data["address"], tuple(data["bits"]))
    if kind == "transient":
        return TransientFetchFault(
            data["address"], tuple(data["bits"]), occurrence=data["occurrence"]
        )
    if kind == "attack":
        return AttackScenario.from_json(data)
    raise ConfigurationError(f"unknown perturbation kind {kind!r}")


@dataclass(slots=True)
class FaultRecord:
    """One classified injection, positioned inside its campaign."""

    index: int
    shard: int
    fault: object
    outcome: Outcome
    detail: str = ""
    latency: int | None = None

    @classmethod
    def from_result(
        cls, index: int, shard: int, result: FaultResult
    ) -> "FaultRecord":
        return cls(
            index=index,
            shard=shard,
            fault=result.fault,
            outcome=result.outcome,
            detail=result.detail,
            latency=result.latency,
        )

    def to_result(self) -> FaultResult:
        return FaultResult(self.fault, self.outcome, self.detail, self.latency)

    def to_json(self) -> dict:
        return {
            "type": "record",
            "index": self.index,
            "shard": self.shard,
            "fault": fault_to_json(self.fault),
            "outcome": self.outcome.value,
            "detail": self.detail,
            "latency": self.latency,
        }

    @classmethod
    def from_json(cls, data: dict) -> "FaultRecord":
        return cls(
            index=data["index"],
            shard=data["shard"],
            fault=fault_from_json(data["fault"]),
            outcome=Outcome(data["outcome"]),
            detail=data.get("detail", ""),
            latency=data.get("latency"),
        )
