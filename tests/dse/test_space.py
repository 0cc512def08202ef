"""Config-space enumeration, validation, and serialization."""

import pytest

from repro.dse.space import ConfigSpace, MonitorConfig
from repro.errors import ConfigurationError


class TestMonitorConfig:
    def test_defaults_are_the_paper_design(self):
        config = MonitorConfig()
        assert config.config_id == "xor/iht8/lru_half/p100"

    def test_json_round_trip(self):
        config = MonitorConfig("crc32", 16, "lru_one", 50)
        assert MonitorConfig.from_json(config.to_json()) == config

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hash_name": "md5000"},
            {"policy_name": "mru"},
            {"iht_size": 0},
            {"miss_penalty": -1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            MonitorConfig(**kwargs)


class TestConfigSpace:
    def test_canonical_enumeration_order(self):
        space = ConfigSpace(
            hash_names=("xor", "crc32"),
            iht_sizes=(4, 8),
            policy_names=("lru_half",),
            miss_penalties=(100, 50),
        )
        assert space.size == 8
        points = space.points()
        assert len(points) == 8
        # hash outermost, penalty innermost.
        assert points[0] == MonitorConfig("xor", 4, "lru_half", 100)
        assert points[1] == MonitorConfig("xor", 4, "lru_half", 50)
        assert points[2] == MonitorConfig("xor", 8, "lru_half", 100)
        assert points[4] == MonitorConfig("crc32", 4, "lru_half", 100)

    def test_json_round_trip(self):
        space = ConfigSpace(
            hash_names=("xor",),
            iht_sizes=(8,),
            workloads=("sha",),
            adversary="same-column",
            pair_count=7,
        )
        assert ConfigSpace.from_json(space.to_json()) == space

    def test_fingerprint_is_stable_and_sensitive(self):
        space = ConfigSpace(hash_names=("xor",), iht_sizes=(8,))
        twin = ConfigSpace(hash_names=("xor",), iht_sizes=(8,))
        other = ConfigSpace(hash_names=("xor",), iht_sizes=(16,))
        assert space.fingerprint() == twin.fingerprint()
        assert space.fingerprint() != other.fingerprint()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hash_names": ()},
            {"iht_sizes": (8, 8)},
            {"workloads": ("nosuch",)},
            {"scale": "huge"},
            {"adversary": "fuzzer"},
            {"attack_classes": ("rowhammer",)},
            {"per_class": 0},
            {"pair_count": 0},
            {"hash_names": ("xor", "md5000")},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ConfigSpace(**kwargs)
