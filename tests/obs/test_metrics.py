"""The per-run metrics artifact: emission, schema, coverage, rendering."""

import json

import pytest

from repro.exec import CampaignRunner, CampaignSpec
from repro.exec.pool import shutdown_pools
from repro.obs import core as obs
from repro.obs.metrics import (
    build_payload,
    environment,
    load_metrics,
    metrics_path,
    per_worker,
    span_coverage,
)
from repro.obs.schema import validate_metrics
from repro.obs.stats import find_metrics, render_metrics

SOURCE = """
main:   li $t0, 6
        li $s0, 0
loop:   addu $s0, $s0, $t0
        addi $t0, $t0, -1
        bgtz $t0, loop
        move $a0, $s0
        li $v0, 1
        syscall
        li $v0, 10
        syscall
"""

SEED = 42
FAULT_COUNT = 24
CHUNK = 6  # 4 shards


@pytest.fixture(scope="module")
def campaign_run(tmp_path_factory):
    """One telemetered campaign; returns (result, metrics payload, path)."""
    shutdown_pools()
    out = tmp_path_factory.mktemp("metrics") / "campaign.jsonl"
    with obs.scoped(True):
        runner = CampaignRunner(
            CampaignSpec(
                source=SOURCE, name="metrics-test", iht_size=4,
                backend="golden",
            ),
            chunk_size=CHUNK,
        )
        faults = runner.campaign.random_single_bit(FAULT_COUNT, seed=SEED)
        result = runner.run(faults, seed=SEED, out=out)
    path = metrics_path(out)
    return result, load_metrics(path), path


class TestHelpers:
    def test_metrics_path_mapping(self):
        assert metrics_path("runs/c.jsonl") == "runs/c.metrics.json"
        assert metrics_path("noext") == "noext.metrics.json"

    def test_environment_keys(self):
        env = environment()
        for key in ("host", "platform", "python", "effective_cores",
                    "cpu_count", "created"):
            assert key in env
        assert env["effective_cores"] >= 1

    def test_span_coverage(self):
        payload = {"telemetry": {"spans": {
            "run": {"count": 1, "seconds": 10.0},
            "run/execute": {"count": 1, "seconds": 9.0},
            "run/resume": {"count": 1, "seconds": 0.6},
            "run/execute/inner": {"count": 1, "seconds": 9.0},  # not direct
        }}}
        assert span_coverage(payload) == pytest.approx(0.96)
        assert span_coverage({"telemetry": {"spans": {}}}) == 0.0

    def test_per_worker_rollup(self):
        shards = [
            {"shard": 0, "worker": 1, "seconds": 1.0, "records": 4},
            {"shard": 1, "worker": 2, "seconds": 2.0, "records": 4},
            {"shard": 2, "worker": 1, "seconds": 3.0, "records": 4},
        ]
        rollup = per_worker(shards)
        assert rollup[1] == {"shards": 2, "seconds": 4.0, "records": 8}
        assert rollup[2]["records"] == 4

    def test_build_payload_wall_from_run_span(self):
        telem = obs.Telemetry()
        telem.spans["run"] = {"count": 1, "seconds": 2.5}
        payload = build_payload({"kind": "x"}, telem, [])
        assert payload["wall_seconds"] == 2.5
        assert payload["type"] == "metrics"


class TestCampaignMetrics:
    def test_emitted_and_schema_valid(self, campaign_run):
        _result, payload, _path = campaign_run
        assert validate_metrics(payload) == []

    def test_manifest_provenance(self, campaign_run):
        _result, payload, _path = campaign_run
        manifest = payload["manifest"]
        assert manifest["kind"] == "campaign results"
        assert manifest["backend"] == "golden"
        assert manifest["total"] == FAULT_COUNT
        assert manifest["seed"] == SEED
        assert manifest["chunk_size"] == CHUNK
        assert manifest["batch_size"] == 256  # the golden backend's default
        assert manifest["workers"] == 1
        assert manifest["fingerprint"]
        assert manifest["out"] == "campaign.jsonl"

    def test_coverage_gate(self, campaign_run):
        """≥95% of the measured run wall time lands in named spans."""
        _result, payload, _path = campaign_run
        assert span_coverage(payload) >= 0.95

    def test_per_shard_and_per_worker_accounting(self, campaign_run):
        result, payload, _path = campaign_run
        shards = payload["shards"]
        assert len(shards) == FAULT_COUNT // CHUNK
        assert sum(entry["records"] for entry in shards) == len(result.records)
        workers = per_worker(shards)
        assert len(workers) == 1  # serial run: every shard in-process
        assert sum(entry["records"] for entry in workers.values()) == FAULT_COUNT

    def test_execution_counters_present(self, campaign_run):
        _result, payload, _path = campaign_run
        counters = payload["telemetry"]["counters"]
        assert counters["harness.records.executed"] == FAULT_COUNT
        assert counters["harness.windows"] == 1  # every shard in one window
        assert counters["golden.batch.fork"] == FAULT_COUNT
        assert sum(
            count for name, count in counters.items()
            if name.startswith("outcome.")
        ) == FAULT_COUNT

    def test_rendering(self, campaign_run):
        _result, payload, path = campaign_run
        text = render_metrics(payload, path=str(path))
        assert "campaign results: 24 items" in text
        assert "backend: golden (batch_size=256)" in text
        assert "coverage:" in text
        assert "golden.batch.fork" in text
        assert "shard    0" in text


class TestStatsCli:
    def test_stats_renders_campaign_and_checks(self, campaign_run, capsys):
        from repro.cli import main

        _result, _payload, path = campaign_run
        assert main(["stats", str(path), "--check"]) == 0
        captured = capsys.readouterr()
        assert "coverage:" in captured.out
        assert "shards (worker, seconds, records" in captured.out
        assert "schema-valid" in captured.err

    def test_stats_scans_directories(self, campaign_run, capsys):
        import os

        from repro.cli import main

        _result, _payload, path = campaign_run
        assert main(["stats", os.path.dirname(path)]) == 0
        assert "campaign results" in capsys.readouterr().out

    def test_stats_on_empty_directory_fails(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["stats", str(tmp_path)]) == 1
        assert "no metrics files" in capsys.readouterr().err

    def test_stats_check_flags_corruption(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "x.metrics.json"
        bad.write_text(json.dumps({"type": "metrics"}))
        assert main(["stats", str(bad), "--check"]) == 1
        assert "missing required key" in capsys.readouterr().err

    def test_stats_resolves_results_and_events_paths(self, campaign_run, capsys):
        from repro.cli import main
        from repro.obs.events import events_path

        _result, _payload, path = campaign_run
        results = path[: -len(".metrics.json")] + ".jsonl"
        for sibling in (results, events_path(results)):
            assert main(["stats", sibling, "--check"]) == 0
            assert "campaign results: 24 items" in capsys.readouterr().out

    def test_stats_refuses_a_file_that_is_not_a_metrics_artifact(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        results = tmp_path / "run.jsonl"
        results.write_text('{"type":"header"}\n')
        assert main(["stats", str(results)]) == 1
        assert "no metrics files" in capsys.readouterr().err
        (tmp_path / "run.metrics.json").write_text(results.read_text() * 2)
        assert main(["stats", str(results)]) == 1
        assert "not a metrics artifact" in capsys.readouterr().err

    def test_find_metrics(self, campaign_run, tmp_path):
        _result, _payload, path = campaign_run
        assert find_metrics(path) == [str(path)]
        assert find_metrics(tmp_path) == []


class TestDseMetrics:
    def test_sweep_emits_valid_metrics(self, tmp_path):
        from repro.dse.engine import DseSweep
        from repro.dse.space import ConfigSpace

        shutdown_pools()
        out = tmp_path / "sweep.jsonl"
        space = ConfigSpace(
            hash_names=("xor",),
            iht_sizes=(4, 8),
            policy_names=("lru_half",),
            miss_penalties=(100,),
            workloads=("bitcount",),
            scale="tiny",
            adversary="same-column",
            pair_count=4,
        )
        with obs.scoped(True):
            DseSweep(space, seed=SEED, chunk_size=1).run(out=out)
        payload = load_metrics(metrics_path(out))
        assert validate_metrics(payload) == []
        manifest = payload["manifest"]
        assert manifest["kind"] == "DSE sweep"
        assert manifest["workloads"] == ["bitcount"]
        assert manifest["adversary"] == "same-column"
        assert span_coverage(payload) >= 0.95
        text = render_metrics(payload)
        assert "DSE sweep: 2 items" in text
