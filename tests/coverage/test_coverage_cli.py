"""``repro coverage run|diff|check``: happy paths and the negative gate.

The negative tier is the acceptance criterion of the diff gate: mutate
one committed matrix cell, one escape-list entry, and one manifest
field, and in each case the tooling must exit non-zero with a report
naming the exact coordinate — never just a fingerprint mismatch.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.cli import main
from repro.coverage import (
    CORPORA,
    CoverageSpec,
    render_payload,
    run_coverage,
)
from repro.jobs import COVERAGE_CORPUS_CHOICES

TOY_SOURCE = """
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

TOY_SPEC = CoverageSpec(
    name="toy",
    kind="pairs",
    source=TOY_SOURCE,
    source_name="toy.s",
    hash_names=("xor",),
    policy_names=("lru_half",),
)


@pytest.fixture(scope="module")
def toy_payload():
    return run_coverage(TOY_SPEC)


@pytest.fixture
def artifact(tmp_path, toy_payload):
    path = tmp_path / "toy.json"
    path.write_text(render_payload(toy_payload), encoding="utf-8")
    return path


def write_mutant(tmp_path, payload, mutate):
    """Write a mutated copy WITHOUT refreshing the fingerprint."""
    mutant = copy.deepcopy(payload)
    mutate(mutant)
    path = tmp_path / "mutant.json"
    path.write_text(
        json.dumps(mutant, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


class TestChoicesMirror:
    def test_corpus_choices_match_registry(self):
        assert COVERAGE_CORPUS_CHOICES == tuple(CORPORA)


class TestCheck:
    def test_sound_artifact_passes(self, artifact, capsys):
        assert main(["coverage", "check", str(artifact)]) == 0
        assert "sound" in capsys.readouterr().err

    def test_directory_scan(self, artifact, capsys):
        assert main(["coverage", "check", str(artifact.parent)]) == 0

    def test_mutated_cell_fails_with_named_cell(
        self, tmp_path, toy_payload, capsys
    ):
        def bump_detected(payload):
            payload["cells"][0]["outcomes"]["detected-cic"] += 1

        path = write_mutant(tmp_path, toy_payload, bump_detected)
        assert main(["coverage", "check", str(path)]) != 0
        err = capsys.readouterr().err
        assert "toy.s/same-column-pair/xor/lru_half" in err

    def test_mutated_manifest_fingerprint_fails(
        self, tmp_path, toy_payload, capsys
    ):
        def corrupt_fingerprint(payload):
            payload["manifest"]["fingerprint"] = "0" * 16

        path = write_mutant(tmp_path, toy_payload, corrupt_fingerprint)
        assert main(["coverage", "check", str(path)]) != 0
        assert "fingerprint" in capsys.readouterr().err

    def test_schema_violation_fails(self, tmp_path, toy_payload, capsys):
        def drop_required(payload):
            del payload["cells"][0]["escapes"]

        path = write_mutant(tmp_path, toy_payload, drop_required)
        assert main(["coverage", "check", str(path)]) != 0
        assert "escapes" in capsys.readouterr().err

    def test_empty_directory_fails(self, tmp_path, capsys):
        assert main(["coverage", "check", str(tmp_path)]) == 1
        assert "no coverage artifacts" in capsys.readouterr().err


class TestDiffAgainst:
    """--against compares two files without re-deriving anything."""

    def test_identical_files_diff_clean(self, artifact, capsys):
        assert main(
            ["coverage", "diff", str(artifact), "--against", str(artifact)]
        ) == 0
        assert "identical" in capsys.readouterr().out

    def test_mutated_cell_names_exact_cell(
        self, tmp_path, artifact, toy_payload, capsys
    ):
        def flip_outcome(payload):
            cell = payload["cells"][0]
            cell["outcomes"]["detected-cic"] -= 1
            cell["outcomes"]["silent-corruption"] += 1

        mutant = write_mutant(tmp_path, toy_payload, flip_outcome)
        assert main(
            ["coverage", "diff", str(artifact), "--against", str(mutant)]
        ) == 1
        out = capsys.readouterr().out
        assert "toy.s/same-column-pair/xor/lru_half" in out
        assert "outcomes[detected-cic]" in out
        assert "outcomes[silent-corruption]" in out

    def test_mutated_escape_entry_is_reported_verbatim(
        self, tmp_path, artifact, toy_payload, capsys
    ):
        original = toy_payload["cells"][0]["escapes"][0]
        forged = original.replace("silent-corruption", "hang")

        def swap_escape(payload):
            payload["cells"][0]["escapes"][0] = forged

        mutant = write_mutant(tmp_path, toy_payload, swap_escape)
        assert main(
            ["coverage", "diff", str(artifact), "--against", str(mutant)]
        ) == 1
        out = capsys.readouterr().out
        assert original in out
        assert forged in out

    def test_missing_cell_reported(
        self, tmp_path, artifact, toy_payload, capsys
    ):
        def drop_cell(payload):
            payload["cells"] = []

        mutant = write_mutant(tmp_path, toy_payload, drop_cell)
        assert main(
            ["coverage", "diff", str(artifact), "--against", str(mutant)]
        ) == 1
        out = capsys.readouterr().out
        assert "toy.s/same-column-pair/xor/lru_half" in out
        assert "absent" in out

    def test_spec_change_reported(
        self, tmp_path, artifact, toy_payload, capsys
    ):
        def change_seed(payload):
            payload["spec"]["seed"] = 99

        mutant = write_mutant(tmp_path, toy_payload, change_seed)
        assert main(
            ["coverage", "diff", str(artifact), "--against", str(mutant)]
        ) == 1
        assert "<spec>" in capsys.readouterr().out


class TestDiffRederive:
    """Without --against the matrix is re-derived from the embedded spec."""

    def test_committed_toy_artifact_diffs_clean(self, artifact, capsys):
        assert main(["coverage", "diff", str(artifact)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_rederive_catches_a_mutated_cell(
        self, tmp_path, toy_payload, capsys
    ):
        def nudge_rate(payload):
            payload["cells"][0]["detection_rate"] += 0.25

        mutant = write_mutant(tmp_path, toy_payload, nudge_rate)
        assert main(["coverage", "diff", str(mutant)]) == 1
        out = capsys.readouterr().out
        assert "toy.s/same-column-pair/xor/lru_half" in out
        assert "detection_rate" in out

    def test_unknown_workload_restriction_rejected(self, artifact, capsys):
        assert main(
            ["coverage", "diff", str(artifact), "--workload", "nonesuch"]
        ) == 1
        assert "nonesuch" in capsys.readouterr().err

    def test_workload_restriction_diffs_clean(self, artifact, capsys):
        assert main(
            ["coverage", "diff", str(artifact), "--workload", "toy.s"]
        ) == 0
        assert "identical" in capsys.readouterr().out
