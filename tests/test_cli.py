"""CLI tests."""

import json
import re
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

    def test_engines_report_the_same_cycles(self, program_file, capsys):
        cycles = []
        for engine in ("func", "pipeline"):
            assert main(["run", program_file, "--engine", engine]) == 0
            err = capsys.readouterr().err
            cycles.append(int(re.search(r"(\d+) cycles", err).group(1)))
        assert cycles[0] == cycles[1] > 0

    def test_profile_charges_decode_once_per_instruction(
        self, program_file, capsys
    ):
        assert main(["run", program_file, "--profile"]) == 0
        err = capsys.readouterr().err
        instructions = int(re.search(r"(\d+) instructions", err).group(1))
        calls = {
            line.split()[0]: int(line.split()[1])
            for line in err.splitlines()
            if line.startswith(("fetch ", "decode "))
        }
        assert calls == {"fetch": instructions, "decode": instructions}

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

    @pytest.mark.parametrize(
        "spec",
        ["zz", "0x400000", "0x400000:99", ":3", "0x400000:x", "0x100000000:1"],
    )
    def test_malformed_flip_is_a_usage_error(self, program_file, spec, capsys):
        with pytest.raises(SystemExit) as stopped:
            main(["monitor", program_file, "--flip", spec])
        assert stopped.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("error:") == 1 and "ADDR:BIT" in err

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

    def test_bad_batch_size_commits_nothing(self, capsys, tmp_path):
        out = tmp_path / "campaign.jsonl"
        assert main(
            ["campaign", "sha", "--scale", "tiny", "--backend", "golden",
             "--faults", "6", "--batch-size", "-2", "--out", str(out)]
        ) == 1
        assert "--batch-size) must be >= 1" in capsys.readouterr().err
        assert not out.exists()


class TestResumeRefusal:
    """``campaign --resume`` on a file it cannot trust exits 1 with one
    message and leaves the file byte-identical."""

    ARGV = ["campaign", "sha", "--scale", "tiny", "--backend", "golden",
            "--faults", "8", "--resume", "--out"]

    def refuse(self, out, capsys, message):
        before = out.read_bytes()
        capsys.readouterr()
        assert main(self.ARGV + [str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert out.read_bytes() == before

    def test_dse_sweep_file_with_an_orphan_point(self, tmp_path, capsys):
        out = tmp_path / "sweep.jsonl"
        assert main(["dse", "sweep", "--preset", "smoke", "--seed", "3",
                     "--out", str(out), "--stop-after-shards", "1"]) == 0
        lines = out.read_text().splitlines(keepends=True)
        assert json.loads(lines[1])["type"] == "point"
        out.write_text("".join(lines) + lines[1])
        self.refuse(out, capsys, "cannot resume — fingerprint")

    def test_json_non_object(self, tmp_path, capsys):
        out = tmp_path / "list.jsonl"
        out.write_text("[1, 2]\n")
        self.refuse(out, capsys, "not a campaign results file")

    def test_plain_text(self, tmp_path, capsys):
        out = tmp_path / "notes.txt"
        out.write_text("first line\nsecond line\n")
        self.refuse(out, capsys, "not a campaign results file")

    def test_lone_torn_header_starts_fresh(self, tmp_path, capsys):
        out = tmp_path / "torn.jsonl"
        out.write_text('{"type":"hea')
        assert main(self.ARGV + [str(out)]) == 0
        assert json.loads(out.read_text().splitlines()[0])["type"] == "header"


class TestNotJsonArtifacts:
    """Every command that reads a JSON artifact exits 1 with one
    ``error:`` line, never a traceback, whatever the file holds."""

    CONTENTS = {
        "text": b"first line\nsecond line\n",
        "empty": b"",
        "binary": bytes(range(256)),
    }

    @pytest.fixture(params=["text", "empty", "binary", "directory", "missing"])
    def bad(self, request, tmp_path):
        path = tmp_path / "artifact.json"
        if request.param == "directory":
            path.mkdir()
        elif request.param in self.CONTENTS:
            path.write_bytes(self.CONTENTS[request.param])
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["coverage", "check", "{bad}"],
        ["coverage", "diff", "{bad}"],
        ["coverage", "diff", "{good}", "--against", "{bad}"],
        ["stats", "diff", "{bad}", "{bad}"],
    ], ids=["coverage-check", "coverage-diff", "coverage-diff-against",
            "stats-diff"])
    def test_one_error_line(self, argv, bad, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"type": "coverage"}))
        argv = [arg.format(bad=bad, good=good) for arg in argv]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("\n") == 1 and "error:" in err


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out


def _loaded_modules(body: str) -> set[str]:
    """Every module a fresh interpreter has loaded after running *body*."""
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = f"import json, sys\n{body}\nprint(json.dumps(sorted(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return set(json.loads(done.stdout.strip().splitlines()[-1]))


def _loaded_packages(body: str) -> set[str]:
    """The ``repro`` subpackages a fresh interpreter has loaded after
    ``import repro.cli`` and *body*."""
    loaded = _loaded_modules(f"import contextlib, io, repro.cli\n{body}")
    return {name.split(".")[1] for name in loaded if name.startswith("repro.")}


def _quiet_main(argv: list[str]) -> str:
    return (
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert repro.cli.main({argv!r}) == 0"
    )


class TestImportFootprint:
    """Each job kind imports its runner only when it runs: the parser and
    the lighter commands never pay for the heavier kinds' stacks."""

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

    def test_cli_import_loads_only_the_obs_core_and_logger(self):
        """The ``repro.obs`` root imports nothing: the CLI takes its
        renderers from their submodules when a command needs them."""
        loaded = _loaded_modules("import repro.cli")
        assert {name for name in loaded if name.startswith("repro.obs")} == {
            "repro.obs", "repro.obs.core", "repro.obs.log",
        }

    def test_service_client_loads_no_server_side(self):
        """``repro submit`` and scripts talk to a server without paying
        for one: no harness, no job runners, no cache, no asyncio."""
        loaded = _loaded_modules("import repro.service.client")
        assert "asyncio" not in loaded
        assert not {
            name for name in loaded
            if name.startswith(("repro.exec", "repro.jobs"))
            or name in ("repro.service.server", "repro.service.cache")
        }

    def test_parser_loads_no_job_runner(self):
        loaded = _loaded_packages("repro.cli.build_parser()")
        assert not loaded & {
            "exec", "dse", "service", "coverage", "eval", "attacks"
        }

    def test_campaign_loads_no_other_kind(self, tmp_path):
        loaded = _loaded_packages(_quiet_main([
            "campaign", "sha", "--scale", "tiny", "--backend", "golden",
            "--faults", "4", "--out", str(tmp_path / "c.jsonl"),
        ]))
        assert "exec" in loaded
        assert not loaded & {"dse", "service", "coverage", "eval"}

    def test_dse_sweep_loads_no_service_or_coverage(self, tmp_path):
        loaded = _loaded_packages(_quiet_main([
            "dse", "sweep", "--hash", "xor", "--iht", "4", "--workload",
            "sha", "--adversary", "none", "--out", str(tmp_path / "d.jsonl"),
        ]))
        assert "dse" in loaded
        assert not loaded & {"service", "coverage"}


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
    """The job kinds' literal choice tuples (kept literal so build_parser
    stays free of the repro.exec import stack) must track the live
    registries."""

    def test_backend_choices_match_registry(self):
        from repro.exec.backends import BACKENDS
        from repro.jobs import BACKEND_CHOICES

        assert BACKEND_CHOICES == BACKENDS

    def test_campaign_preset_choices_match_registry(self):
        from repro.exec.presets import PRESETS
        from repro.jobs import CAMPAIGN_PRESET_CHOICES

        assert CAMPAIGN_PRESET_CHOICES == tuple(PRESETS)

    def test_adversary_choices_match_space(self):
        from repro.dse.space import ADVERSARIES
        from repro.jobs import ADVERSARY_CHOICES

        assert ADVERSARY_CHOICES == ADVERSARIES
