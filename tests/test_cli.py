"""CLI tests."""

import json
import types

import pytest

from repro import __version__, cli
from repro.cli import main
from repro.errors import MonitorViolation

SOURCE = """
main:   li $t0, 3
loop:   addi $t0, $t0, -1
        bgtz $t0, loop
        li $a0, 42
        li $v0, 1
        syscall
        li $v0, 10
        syscall
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.s"
    path.write_text(SOURCE)
    return str(path)


class TestAsm:
    def test_listing_printed(self, program_file, capsys):
        assert main(["asm", program_file]) == 0
        out = capsys.readouterr().out
        assert "0x00400000" in out
        assert "addi" in out

    def test_missing_file(self, capsys):
        assert main(["asm", "/nonexistent.s"]) == 1
        assert "error" in capsys.readouterr().err

    def test_assembler_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.s"
        path.write_text("frobnicate $t0")
        assert main(["asm", str(path)]) == 1
        assert "frobnicate" in capsys.readouterr().err


class TestRun:
    def test_run_prints_console(self, program_file, capsys):
        assert main(["run", program_file]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == "42"
        assert "cycles" in captured.err

    def test_pipeline_engine(self, program_file, capsys):
        assert main(["run", program_file, "--engine", "pipeline"]) == 0
        assert capsys.readouterr().out.strip() == "42"

    def test_input_queue(self, tmp_path, capsys):
        path = tmp_path / "echo.s"
        path.write_text("""
        li $v0, 5
        syscall
        move $a0, $v0
        li $v0, 1
        syscall
        li $v0, 10
        syscall
        """)
        assert main(["run", str(path), "--input", "7"]) == 0
        assert capsys.readouterr().out.strip() == "7"


class TestMonitor:
    def test_clean_run_reports_stats(self, program_file, capsys):
        assert main(["monitor", program_file, "--iht", "4"]) == 0
        captured = capsys.readouterr()
        assert "lookups" in captured.err
        assert "miss rate" in captured.err

    def test_flip_detected(self, program_file, capsys):
        assert main(
            ["monitor", program_file, "--flip", "0x400004:3"]
        ) == 2
        assert "VIOLATION" in capsys.readouterr().err

    def test_hash_selection(self, program_file):
        assert main(["monitor", program_file, "--hash", "crc32"]) == 0


class TestCampaign:
    def test_campaign_on_source_file(self, program_file, capsys, tmp_path):
        out = tmp_path / "campaign.jsonl"
        assert main(
            ["campaign", program_file, "--faults", "10", "--seed", "7",
             "--workers", "1", "--out", str(out)]
        ) == 0
        captured = capsys.readouterr()
        assert "10 faults" in captured.out
        assert "coverage" in captured.out
        assert "complete results" in captured.err
        assert out.exists()

    def test_campaign_resume_is_identical(self, program_file, capsys, tmp_path):
        out = tmp_path / "campaign.jsonl"
        argv = ["campaign", program_file, "--faults", "10", "--seed", "7",
                "--out", str(out)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--resume"]) == 0
        assert capsys.readouterr().out == first

    def test_campaign_worker_count_does_not_change_stats(self, program_file, capsys):
        assert main(["campaign", program_file, "--faults", "12",
                     "--chunk", "4", "--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(["campaign", program_file, "--faults", "12",
                     "--chunk", "4", "--workers", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_campaign_unknown_target(self, capsys):
        assert main(["campaign", "no-such-workload"]) == 1
        assert "unknown target" in capsys.readouterr().err


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out


class TestImportFootprint:
    def test_cli_import_skips_networkx_and_meister(self):
        """Every process start imports the CLI; neither the undeclared
        graph library nor the ASIP Meister flow belongs on that path."""
        import os
        import subprocess
        import sys

        src = os.path.dirname(os.path.dirname(cli.__file__))
        probe = (
            "import sys, repro.cli; "
            "print(sorted({'networkx', 'repro.meister'} & set(sys.modules)))"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert done.stdout.strip() == "[]"


class TestExitCodes:
    def test_violation_maps_to_exit_2_from_any_command(self, monkeypatch, capsys):
        def explode(args):
            raise MonitorViolation(0x400000, 0x400004, 0x1, 0x2)

        arguments = types.SimpleNamespace(handler=explode)
        parser = types.SimpleNamespace(parse_args=lambda argv=None: arguments)
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        assert cli.main([]) == 2
        assert "VIOLATION" in capsys.readouterr().err

    def test_assembly_error_maps_to_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.s"
        path.write_text("jr $t0, $t1, $t2")
        assert main(["monitor", str(path)]) == 1
        assert "error" in capsys.readouterr().err


class TestAttack:
    def test_attack_prints_detection_matrix(self, program_file, capsys):
        assert main(
            ["attack", program_file, "--per-class", "2", "--seed", "7"]
        ) == 0
        out = capsys.readouterr().out
        assert "Attack coverage" in out
        assert "logic-invert" in out
        assert "jump-splice/transient" in out

    def test_attack_worker_count_does_not_change_matrix(
        self, program_file, capsys
    ):
        argv = ["attack", program_file, "--per-class", "2", "--seed", "7",
                "--chunk", "3"]
        assert main(argv + ["--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_attack_json_and_resume(self, program_file, capsys, tmp_path):
        out = tmp_path / "attacks.jsonl"
        matrix = tmp_path / "matrix.json"
        argv = ["attack", program_file, "--per-class", "2", "--seed", "7",
                "--out", str(out), "--json", str(matrix)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        payload = json.loads(matrix.read_text())
        assert payload["matrix"]
        assert out.exists()
        assert main(argv + ["--resume"]) == 0
        assert capsys.readouterr().out == first

    def test_attack_unknown_target(self, capsys):
        assert main(["attack", "no-such-workload"]) == 1
        assert "unknown target" in capsys.readouterr().err

    def test_attack_unknown_class(self, program_file, capsys):
        assert main(["attack", program_file, "--class", "rowhammer"]) == 1
        assert "unknown attack class" in capsys.readouterr().err


class TestDse:
    ARGS = [
        "dse", "sweep", "--hash", "xor", "--iht", "4", "--iht", "8",
        "--workload", "sha", "--per-class", "2", "--seed", "5",
    ]

    def test_sweep_prints_points(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "DSE sweep" in out
        assert "xor/iht4/lru_half/p100" in out
        assert "xor/iht8/lru_half/p100" in out

    def test_sweep_frontier_report_round_trip(self, capsys, tmp_path):
        points = tmp_path / "points.jsonl"
        frontier_json = tmp_path / "frontier.json"
        assert main(self.ARGS + ["--out", str(points)]) == 0
        capsys.readouterr()
        assert main(
            ["dse", "frontier", str(points), "--json", str(frontier_json)]
        ) == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out
        data = json.loads(frontier_json.read_text())
        assert data["swept_points"] == 2
        assert len(data["frontier"]) >= 1
        assert main(["dse", "report", str(points)]) == 0
        out = capsys.readouterr().out
        assert "Per-objective champions" in out

    def test_sweep_resume_through_cli(self, capsys, tmp_path):
        points = tmp_path / "points.jsonl"
        assert main(self.ARGS + ["--out", str(points)]) == 0
        first = points.read_text()
        assert main(self.ARGS + ["--out", str(points), "--resume"]) == 0
        assert points.read_text() == first

    def test_sweep_preset(self, capsys):
        assert main(
            ["dse", "sweep", "--preset", "smoke", "--per-class", "2"]
        ) == 0
        assert "DSE sweep" in capsys.readouterr().out

    def test_explicit_flags_override_preset(self, capsys):
        assert main(
            [
                "dse", "sweep", "--preset", "smoke",
                "--workload", "bitcount", "--iht", "4",
                "--adversary", "none",
            ]
        ) == 0
        out = capsys.readouterr().out
        # Overridden: one workload, one size, no adversary; kept from the
        # preset: both hash axis values.
        assert "1 workloads (bitcount)" in out
        assert "adversary=none" in out
        assert "xor/iht4/lru_half/p100" in out
        assert "crc32/iht4/lru_half/p100" in out
        assert "iht8" not in out

    def test_unknown_preset(self, capsys):
        assert main(["dse", "sweep", "--preset", "nosuch"]) == 1
        assert "unknown preset" in capsys.readouterr().err

    def test_unknown_objective(self, capsys, tmp_path):
        points = tmp_path / "points.jsonl"
        assert main(self.ARGS + ["--out", str(points)]) == 0
        capsys.readouterr()
        assert main(
            ["dse", "frontier", str(points), "--objective", "vibes"]
        ) == 1
        assert "unknown objective" in capsys.readouterr().err


class TestWorkload:
    def test_runs_bitcount(self, capsys):
        assert main(["workload", "bitcount", "--scale", "tiny"]) == 0
        captured = capsys.readouterr()
        assert "bitcount[tiny]" in captured.err

    def test_unknown_workload(self, capsys):
        assert main(["workload", "quicksort"]) == 1
        assert "unknown workload" in capsys.readouterr().err


class TestChoiceMirrors:
    """The parser's literal choice tuples (kept literal so build_parser
    stays free of the repro.exec import stack) must track the live
    registries."""

    def test_backend_choices_match_registry(self):
        from repro.cli import BACKEND_CHOICES
        from repro.exec.backends import backend_names

        assert BACKEND_CHOICES == backend_names()

    def test_campaign_preset_choices_match_registry(self):
        from repro.cli import CAMPAIGN_PRESET_CHOICES
        from repro.exec.presets import PRESETS

        assert CAMPAIGN_PRESET_CHOICES == tuple(PRESETS)
