"""Telemetry is an execution-side observer — never a participant.

The hard invariant of the observability PR: result artifacts (campaign
and DSE JSONL files) are **byte-identical** with telemetry on, off, or
at any verbosity, for any worker count, any batch plan, and across
kill/resume.  Only the observability siblings — ``*.metrics.json`` and
the live ``*.events.jsonl`` stream — appear or disappear with the
switch.

Serial (1-worker) files are compared byte-for-byte; multi-worker files
line-set-wise (shard completion order is scheduling, and the engines
only promise sorted-record equality — the same contract
``tests/exec/test_scaling_invariants.py`` pins for worker counts).
"""

import json
import os

import pytest

from repro.exec import CampaignRunner, CampaignSpec
from repro.exec.pool import shutdown_pools
from repro.obs import core as obs
from repro.obs.events import events_path
from repro.obs.metrics import metrics_path
from repro.obs.schema import validate_metrics

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


def spec():
    return CampaignSpec(
        source=SOURCE, name="neutrality-test", iht_size=4, backend="golden"
    )


def run_campaign(out, *, telemetry, workers=1, batch_size=None,
                 stop_after_shards=None, resume=False):
    with obs.scoped(telemetry):
        runner = CampaignRunner(
            spec(), workers=workers, chunk_size=CHUNK, batch_size=batch_size
        )
        faults = runner.campaign.random_single_bit(FAULT_COUNT, seed=SEED)
        return runner.run(
            faults, seed=SEED, out=out,
            stop_after_shards=stop_after_shards, resume=resume,
        )


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def line_set(path):
    return sorted(read_bytes(path).splitlines())


@pytest.fixture(autouse=True)
def fresh_pools():
    """Worker pools inherit the parent's telemetry flag at fork time;
    isolate every case from pools warmed under another flag."""
    shutdown_pools()
    yield
    shutdown_pools()


class TestCampaignNeutrality:
    def test_serial_artifact_byte_identical(self, tmp_path):
        on = tmp_path / "on.jsonl"
        off = tmp_path / "off.jsonl"
        run_campaign(on, telemetry=True)
        run_campaign(off, telemetry=False)
        assert read_bytes(on) == read_bytes(off)
        # The switch governs only the observability siblings.
        assert os.path.exists(metrics_path(on))
        assert not os.path.exists(metrics_path(off))
        assert os.path.exists(events_path(on))
        assert not os.path.exists(events_path(off))

    def test_parallel_artifact_identical(self, tmp_path):
        on = tmp_path / "on.jsonl"
        off = tmp_path / "off.jsonl"
        run_campaign(on, telemetry=True, workers=4)
        shutdown_pools()
        run_campaign(off, telemetry=False, workers=4)
        assert line_set(on) == line_set(off)
        assert os.path.exists(metrics_path(on))
        assert not os.path.exists(metrics_path(off))
        assert os.path.exists(events_path(on))
        assert not os.path.exists(events_path(off))

    def test_batch_plan_with_telemetry(self, tmp_path):
        reference = tmp_path / "ref.jsonl"
        batched = tmp_path / "batch.jsonl"
        run_campaign(reference, telemetry=False)
        run_campaign(batched, telemetry=True, batch_size=5)
        assert read_bytes(reference) == read_bytes(batched)

    @pytest.mark.parametrize("workers", (1, 2))
    def test_windowed_run(self, tmp_path, workers):
        """Two-shard windows, telemetry on and off, write the file that
        one-shard tasks write; with telemetry on, every shard keeps one
        schema-valid ``shards[]`` entry and each window's delta is
        merged exactly once."""
        reference = tmp_path / "ref.jsonl"
        run_campaign(reference, telemetry=False, batch_size=CHUNK)
        files = {}
        for telemetry in (True, False):
            shutdown_pools()
            files[telemetry] = tmp_path / f"window-{int(telemetry)}.jsonl"
            run_campaign(
                files[telemetry], telemetry=telemetry, workers=workers,
                batch_size=2 * CHUNK,
            )
            if workers == 1:
                assert read_bytes(files[telemetry]) == read_bytes(reference)
            assert line_set(files[telemetry]) == line_set(reference)
        assert not os.path.exists(metrics_path(files[False]))
        with open(metrics_path(files[True])) as handle:
            payload = json.load(handle)
        assert validate_metrics(payload) == []
        counters = payload["telemetry"]["counters"]
        assert counters["harness.windows"] == FAULT_COUNT // (2 * CHUNK)
        shards = payload["shards"]
        assert sorted(entry["shard"] for entry in shards) == [0, 1, 2, 3]
        assert [entry["records"] for entry in shards] == [CHUNK] * 4
        assert sum(
            entry.get("telemetry", {}).get("counters", {}).get(
                "golden.batch.fork", 0
            )
            for entry in shards
        ) == counters["golden.batch.fork"] == FAULT_COUNT

    def test_kill_resume_across_the_switch(self, tmp_path):
        """A run killed with telemetry ON and resumed with it OFF (and
        vice versa) converges to the uninterrupted artifact."""
        reference = tmp_path / "ref.jsonl"
        run_campaign(reference, telemetry=False)
        for first, second in ((True, False), (False, True)):
            out = tmp_path / f"resumed-{int(first)}.jsonl"
            partial = run_campaign(
                out, telemetry=first, stop_after_shards=2
            )
            assert not partial.complete
            final = run_campaign(out, telemetry=second, resume=True)
            assert final.complete
            assert read_bytes(out) == read_bytes(reference)


class TestDseNeutrality:
    def sweep(self, out, *, telemetry, workers=1):
        from repro.dse.engine import DseSweep
        from repro.dse.space import ConfigSpace

        space = ConfigSpace(
            hash_names=("xor", "crc32"),
            iht_sizes=(4,),
            policy_names=("lru_half",),
            miss_penalties=(100,),
            workloads=("bitcount",),
            scale="tiny",
            adversary="same-column",
            pair_count=4,
        )
        with obs.scoped(telemetry):
            return DseSweep(
                space, seed=SEED, workers=workers, chunk_size=1
            ).run(out=out)

    def test_serial_sweep_byte_identical(self, tmp_path):
        on = tmp_path / "on.jsonl"
        off = tmp_path / "off.jsonl"
        self.sweep(on, telemetry=True)
        self.sweep(off, telemetry=False)
        assert read_bytes(on) == read_bytes(off)
        assert os.path.exists(metrics_path(on))
        assert not os.path.exists(metrics_path(off))
        assert os.path.exists(events_path(on))
        assert not os.path.exists(events_path(off))

    def test_parallel_sweep_identical(self, tmp_path):
        on = tmp_path / "on.jsonl"
        off = tmp_path / "off.jsonl"
        self.sweep(on, telemetry=True, workers=2)
        shutdown_pools()
        self.sweep(off, telemetry=False, workers=2)
        assert line_set(on) == line_set(off)


class TestCliSwitch:
    def test_no_telemetry_flag_suppresses_metrics_only(self, tmp_path):
        from repro.cli import main

        source = tmp_path / "prog.s"
        source.write_text(SOURCE)
        base = ["campaign", str(source), "--faults", "10", "--seed", "7",
                "--chunk", "4"]
        on = tmp_path / "on.jsonl"
        off = tmp_path / "off.jsonl"
        assert main(base + ["--out", str(on)]) == 0
        assert main(base + ["--out", str(off), "--no-telemetry"]) == 0
        assert read_bytes(on) == read_bytes(off)
        assert os.path.exists(metrics_path(on))
        assert not os.path.exists(metrics_path(off))
        assert os.path.exists(events_path(on))
        assert not os.path.exists(events_path(off))

    def test_quiet_silences_progress_but_not_results(self, tmp_path, capsys):
        from repro.cli import main

        source = tmp_path / "prog.s"
        source.write_text(SOURCE)
        out = tmp_path / "q.jsonl"
        assert main(["campaign", str(source), "--faults", "10", "-q",
                     "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "10 faults" in captured.out
