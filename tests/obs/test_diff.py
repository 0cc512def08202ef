"""Cross-run regression diffs: ``repro stats diff A B [--gate pct]``.

Pins the comparator's contract: a self-diff is all-zero (the
``make trace-smoke`` invariant), regression percentages are signed
*toward worse* in each metric's own direction, informational rows
(span shares, unclassified bench leaves) are reported but never gated,
and the CLI turns ``--gate`` into exit code 1 exactly when the worst
regression meets it.
"""

import json
import math

import pytest

from repro.errors import ConfigurationError
from repro.obs.diff import (
    HIGHER,
    INFO,
    LOWER,
    DiffRow,
    diff_artifacts,
    load_artifact,
    render_diff,
)


def metrics_payload(
    wall=2.0, rate=500.0, hits=80, misses=20, run_seconds=2.0,
    execute_seconds=1.5,
):
    return {
        "type": "metrics",
        "wall_seconds": wall,
        "telemetry": {
            "counters": {
                "measure_cache.hit": hits,
                "measure_cache.miss": misses,
            },
            "gauges": {"run.records_per_second": rate},
            "histograms": {},
            "spans": {
                "run": {"count": 1, "seconds": run_seconds},
                "run/execute": {"count": 1, "seconds": execute_seconds},
            },
        },
    }


def bench_payload(per_second=100.0, wall=2.0):
    return {
        "benchmark": "tests/test_perf.py",
        "results": {
            "test_campaign": {
                "faults_per_second": per_second,
                "wall_seconds": wall,
                "label": "not a number",
            },
        },
    }


def manifested(**manifest):
    """A metrics payload with a campaign manifest; *manifest* overrides."""
    payload = metrics_payload()
    payload["manifest"] = {
        "kind": "campaign results",
        "backend": "golden",
        "workload": "bitcount",
        "scale": "tiny",
        "fingerprint": "feedbeefcafe0001",
        "host": "here",
        "seed": 42,
        **manifest,
    }
    return payload


def write(path, payload):
    path.write_text(json.dumps(payload))
    return path



class TestDiffRow:
    def test_signed_toward_worse(self):
        # Lower-is-better: growing is a regression.
        assert DiffRow("w", LOWER, 2.0, 2.5).regression_pct == 25.0
        assert DiffRow("w", LOWER, 2.0, 1.5).regression_pct == -25.0
        # Higher-is-better: shrinking is a regression.
        assert DiffRow("r", HIGHER, 100.0, 80.0).regression_pct == 20.0
        assert DiffRow("r", HIGHER, 100.0, 120.0).regression_pct == -20.0

    def test_zero_and_missing_sides(self):
        assert DiffRow("x", LOWER, 0.0, 0.0).regression_pct == 0.0
        assert DiffRow("x", LOWER, 0.0, 1.0).regression_pct == math.inf
        assert DiffRow("x", HIGHER, 0.0, 1.0).regression_pct == -math.inf
        assert DiffRow("x", LOWER, None, 1.0).regression_pct is None
        assert DiffRow("x", INFO, 1.0, 9.0).regression_pct is None

    def test_no_negative_zero(self):
        assert str(DiffRow("r", HIGHER, 5.0, 5.0).regression_pct) == "0.0"


class TestMetricsDiff:
    def test_self_diff_is_all_zero(self, tmp_path):
        a = write(tmp_path / "a.metrics.json", metrics_payload())
        report = diff_artifacts(a, a)
        assert report.kind == "metrics"
        assert report.worst == 0.0
        assert report.gated(0.001) == []
        names = {row.name for row in report.rows}
        assert {"wall_seconds", "records_per_second",
                "measure_cache_hit_rate"} <= names

    def test_regression_is_gated(self, tmp_path):
        a = write(tmp_path / "a.metrics.json", metrics_payload(wall=2.0))
        b = write(tmp_path / "b.metrics.json", metrics_payload(wall=2.6))
        report = diff_artifacts(a, b)
        assert report.worst == pytest.approx(30.0)
        gated = report.gated(10.0)
        assert [row.name for row in gated] == ["wall_seconds"]

    def test_improvement_never_trips_the_gate(self, tmp_path):
        a = write(tmp_path / "a.metrics.json", metrics_payload())
        b = write(
            tmp_path / "b.metrics.json",
            metrics_payload(wall=1.0, rate=900.0, hits=95, misses=5),
        )
        assert diff_artifacts(a, b).worst == 0.0

    def test_throughput_drop_is_a_regression(self, tmp_path):
        a = write(tmp_path / "a.metrics.json", metrics_payload(rate=500.0))
        b = write(tmp_path / "b.metrics.json", metrics_payload(rate=400.0))
        report = diff_artifacts(a, b)
        by_name = {row.name: row for row in report.rows}
        assert by_name["records_per_second"].regression_pct == (
            pytest.approx(20.0)
        )

    def test_span_shares_are_info_only(self, tmp_path):
        a = write(tmp_path / "a.metrics.json", metrics_payload())
        b = write(
            tmp_path / "b.metrics.json",
            metrics_payload(execute_seconds=0.1),  # share shifts wildly
        )
        report = diff_artifacts(a, b)
        shares = [
            row for row in report.rows if row.name.startswith("span_share:")
        ]
        assert shares
        assert all(row.regression_pct is None for row in shares)
        assert report.worst == 0.0


class TestBenchDiff:
    def test_senses_from_flattened_leaf_names(self, tmp_path):
        a = write(tmp_path / "a.json", bench_payload())
        b = write(
            tmp_path / "b.json", bench_payload(per_second=80.0, wall=2.2)
        )
        report = diff_artifacts(a, b)
        assert report.kind == "bench"
        by_name = {row.name: row for row in report.rows}
        assert by_name[
            "test_campaign.faults_per_second"
        ].regression_pct == pytest.approx(20.0)
        assert by_name[
            "test_campaign.wall_seconds"
        ].regression_pct == pytest.approx(10.0)
        # Non-numeric leaves never appear; no crash on them either.
        assert "test_campaign.label" not in by_name

    def test_renamed_copy_still_sniffs_as_bench(self, tmp_path):
        # PREV_BENCH_* stashes diff fine: family is content, not filename.
        a = write(tmp_path / "PREV_BENCH_perf.json", bench_payload())
        assert load_artifact(a)[0] == "bench"


class TestLoadErrors:
    def test_mixed_families_refuse(self, tmp_path):
        a = write(tmp_path / "a.metrics.json", metrics_payload())
        b = write(tmp_path / "b.json", bench_payload())
        with pytest.raises(ConfigurationError):
            diff_artifacts(a, b)

    @pytest.mark.parametrize(
        "key, other",
        [
            ("kind", "DSE sweep"),
            ("backend", "pipeline-golden"),
            ("workload", "sha"),
            ("scale", "small"),
            ("fingerprint", "feedbeefcafe0002"),
        ],
    )
    def test_incomparable_runs_refuse(self, tmp_path, key, other):
        a = write(tmp_path / "a.metrics.json", manifested())
        b = write(tmp_path / "b.metrics.json", manifested(**{key: other}))
        with pytest.raises(ConfigurationError, match=f"differ in {key}"):
            diff_artifacts(a, b)

    def test_key_on_one_side_only_refuses(self, tmp_path):
        a = write(tmp_path / "a.metrics.json", manifested())
        lacking = manifested()
        del lacking["manifest"]["workload"]
        b = write(tmp_path / "b.metrics.json", lacking)
        with pytest.raises(ConfigurationError, match="differ in workload"):
            diff_artifacts(a, b)

    def test_comparable_runs_diff(self, tmp_path):
        # Same run identity; the host, seed and timings may all differ,
        # and a key absent from both manifests is not compared.
        a_payload = manifested(seed=1)
        b_payload = manifested(seed=2, host="elsewhere")
        b_payload["wall_seconds"] = 2.5
        for payload in (a_payload, b_payload):
            del payload["manifest"]["scale"]
        a = write(tmp_path / "a.metrics.json", a_payload)
        b = write(tmp_path / "b.metrics.json", b_payload)
        assert diff_artifacts(a, b).worst == pytest.approx(25.0)

    def test_different_benchmarks_refuse(self, tmp_path):
        a = write(tmp_path / "a.json", bench_payload())
        other = bench_payload()
        other["benchmark"] = "tests/test_other.py"
        b = write(tmp_path / "b.json", other)
        with pytest.raises(ConfigurationError, match="differ in benchmark"):
            diff_artifacts(a, b)

    def test_cli_refuses_with_a_message(self, tmp_path, capsys):
        from repro.cli import main

        a = write(tmp_path / "a.metrics.json", manifested())
        b = write(
            tmp_path / "b.metrics.json", manifested(backend="pipeline-golden")
        )
        assert main(["stats", "diff", str(a), str(b), "--gate", "5"]) == 1
        assert "differ in backend" in capsys.readouterr().err
        assert main(["stats", "diff", str(a), str(a), "--gate", "5"]) == 0

    def test_unrecognized_payload_refuses(self, tmp_path):
        stray = write(tmp_path / "stray.json", {"hello": "world"})
        with pytest.raises(ConfigurationError):
            load_artifact(stray)


class TestRender:
    def test_table_and_verdict(self, tmp_path):
        a = write(tmp_path / "a.metrics.json", metrics_payload(wall=2.0))
        b = write(tmp_path / "b.metrics.json", metrics_payload(wall=2.6))
        text = render_diff(diff_artifacts(a, b), gate=10.0)
        assert "wall_seconds" in text
        assert "+30.0%" in text
        assert "!! >= 10% gate" in text
        assert "worst regression: +30.0% (gate 10%: FAIL)" in text

    def test_self_diff_verdict_ok(self, tmp_path):
        a = write(tmp_path / "a.metrics.json", metrics_payload())
        text = render_diff(diff_artifacts(a, a), gate=5.0)
        assert "worst regression: +0.0% (gate 5%: ok)" in text


class TestCli:
    def test_gate_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        a = write(tmp_path / "a.metrics.json", metrics_payload(wall=2.0))
        b = write(tmp_path / "b.metrics.json", metrics_payload(wall=2.6))
        assert main(["stats", "diff", str(a), str(a), "--gate", "5"]) == 0
        assert main(["stats", "diff", str(a), str(b), "--gate", "5"]) == 1
        assert main(["stats", "diff", str(a), str(b)]) == 0  # no gate: report
        assert "worst regression" in capsys.readouterr().out

    def test_wrong_operand_count_fails(self, tmp_path):
        from repro.cli import main

        a = write(tmp_path / "a.metrics.json", metrics_payload())
        assert main(["stats", "diff", str(a)]) == 1
