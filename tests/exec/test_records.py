"""Wire-format tests: fault payloads, records, specs, shard seeds."""

import pytest

from repro.errors import ConfigurationError
from repro.exec.records import (
    FaultRecord,
    dump_line,
    fault_from_json,
    fault_to_json,
)
from repro.exec.spec import CampaignSpec, shard_seed
from repro.faults.campaign import FaultResult, Outcome
from repro.faults.models import BitFlipFault, TransientFetchFault
from repro.utils import jsonl


class TestFaultSerialization:
    def test_bitflip_roundtrip(self):
        fault = BitFlipFault(0x0040_0010, (3, 17))
        assert fault_from_json(fault_to_json(fault)) == fault

    def test_transient_roundtrip(self):
        fault = TransientFetchFault(0x0040_0020, (5,), occurrence=2)
        restored = fault_from_json(fault_to_json(fault))
        assert restored.address == fault.address
        assert restored.bits == fault.bits
        assert restored.occurrence == fault.occurrence

    def test_multi_word_roundtrip(self):
        pair = (BitFlipFault(0x0040_0000, (1,)), BitFlipFault(0x0040_0004, (1,)))
        assert fault_from_json(fault_to_json(pair)) == pair

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            fault_from_json({"kind": "rowhammer"})


class TestFaultRecord:
    def test_roundtrip_via_json(self):
        result = FaultResult(
            BitFlipFault(0x0040_0000, (7,)), Outcome.DETECTED_CIC, "mismatch"
        )
        record = FaultRecord.from_result(12, 3, result)
        restored = FaultRecord.from_json(record.to_json())
        assert restored == record
        assert restored.to_result() == result

    def test_json_is_typed(self):
        record = FaultRecord(0, 0, BitFlipFault(4, (1,)), Outcome.BENIGN)
        data = record.to_json()
        assert data["type"] == "record"
        assert data["outcome"] == "benign"


class TestJsonlFile:
    def test_encoder_is_the_shared_one(self):
        """Results lines are framed by the one JSON Lines module."""
        assert dump_line is jsonl.dump_line


class TestCampaignSpec:
    def test_requires_exactly_one_target(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec()
        with pytest.raises(ConfigurationError):
            CampaignSpec(workload="sha", source="main: syscall")

    def test_roundtrip(self):
        spec = CampaignSpec(workload="sha", scale="tiny", inputs=(1, 2))
        assert CampaignSpec.from_json(spec.to_json()) == spec

    def test_fingerprint_distinguishes_configs(self):
        base = CampaignSpec(workload="sha", scale="tiny")
        assert base.fingerprint() == CampaignSpec(workload="sha", scale="tiny").fingerprint()
        assert base.fingerprint() != CampaignSpec(workload="sha", scale="small").fingerprint()
        assert base.fingerprint() != CampaignSpec(workload="sha", scale="tiny", iht_size=16).fingerprint()

    def test_label(self):
        assert CampaignSpec(workload="sha", scale="tiny").label == "sha-tiny"
        assert CampaignSpec(source="x", name="demo").label == "demo"


class TestShardSeed:
    def test_deterministic_and_distinct(self):
        assert shard_seed(42, 0) == shard_seed(42, 0)
        assert shard_seed(42, 0) != shard_seed(42, 1)
        assert shard_seed(42, 0) != shard_seed(43, 0)
