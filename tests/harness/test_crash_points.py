"""Crash-point enumeration over the append-only log seam.

A kill can stop a results file, an event log or the service journal at
any byte.  These tests cut an uninterrupted log at every byte (for a
real campaign, at every line boundary and one byte before each) and
check what the next session sees: a resumed results file ends
byte-identical to the uninterrupted one, and a cut event log or journal
reads back exactly the entries whose lines survived the cut whole —
only a line's ``\\n`` may be missing — and, reopened, those entries plus
the one appended.  A write can also fail outright: for a DSE sweep and
a multi-file attack grid, the N-th append raises, for every N, and the
resumed files end byte-identical to the uninterrupted ones.
"""

from contextlib import closing

import pytest

from repro.dse.engine import DseSweep
from repro.dse.presets import get_preset
from repro.eval.attack_coverage import run_attack_coverage
from repro.exec import CampaignRunner, CampaignSpec
from repro.exec.harness import HarnessRunner
from repro.obs import core as obs
from repro.obs.events import EventWriter, read_events
from repro.service.jobs import Journal, ServiceJob, read_journal, replay_journal
from repro.utils.jsonl import AppendLog
from tests.harness.test_harness import make_job


@pytest.fixture(autouse=True)
def telemetry_off():
    with obs.scoped(False):
        yield


def line_ends(content: bytes) -> list[int]:
    """Byte offset just past each line's ``\\n``."""
    return [index + 1 for index, byte in enumerate(content) if byte == 0x0A]


def surviving(entries: list[dict], content: bytes, cut: int) -> list[dict]:
    """The entries whose line lies whole in the first *cut* bytes, its
    terminator aside."""
    return [entry for entry, end in zip(entries, line_ends(content)) if end - 1 <= cut]


class TestResultsFile:
    def test_toy_job_resumes_byte_identical_from_every_byte(self, tmp_path):
        reference = tmp_path / "reference.jsonl"
        HarnessRunner(make_job()).run(out=reference)
        whole = reference.read_bytes()
        out = tmp_path / "cut.jsonl"
        for cut in range(len(whole) + 1):
            out.write_bytes(whole[:cut])
            assert HarnessRunner(make_job()).run(out=out, resume=True).complete
            assert out.read_bytes() == whole, f"cut at byte {cut}"

    def test_tiny_campaign_resumes_byte_identical_from_every_line(self, tmp_path):
        spec = CampaignSpec(workload="sha", scale="tiny", backend="golden")
        runner = CampaignRunner(spec, chunk_size=2)
        faults = runner.campaign.random_single_bit(8, seed=42)
        reference = tmp_path / "reference.jsonl"
        runner.run(faults, seed=42, out=reference)
        whole = reference.read_bytes()
        ends = line_ends(whole)
        assert len(ends) == 1 + 8 + 4  # header, records, shard markers
        out = tmp_path / "cut.jsonl"
        for cut in sorted({0, *ends, *(end - 1 for end in ends)}):
            out.write_bytes(whole[:cut])
            assert runner.run(faults, seed=42, out=out, resume=True).complete
            assert out.read_bytes() == whole, f"cut at byte {cut}"


def failing_write(monkeypatch, fail_at: int = 0) -> list[int]:
    """Make the *fail_at*-th ``AppendLog._write`` of any log raise instead
    of writing (0: none does); returns the running count of writes."""
    original = AppendLog._write
    calls = [0]

    def write(self, data: bytes) -> None:
        calls[0] += 1
        if calls[0] == fail_at:
            raise OSError(f"write {fail_at} failed")
        original(self, data)

    monkeypatch.setattr(AppendLog, "_write", write)
    return calls


def assert_resumes_after_every_failed_write(monkeypatch, run, reference, outs):
    """Run *run(out, resume)* with its N-th write failing, for every N the
    uninterrupted run makes, then resume it: every file in *outs(out)*
    ends byte-identical to the reference's."""
    with monkeypatch.context() as patch:
        writes = failing_write(patch)
        run(reference, False)
    expected = [path.read_bytes() for path in outs(reference)]
    assert writes[0] > len(expected)  # each file: its header and a shard
    for fail_at in range(1, writes[0] + 1):
        out = reference.with_name(f"failed-{fail_at}.jsonl")
        with monkeypatch.context() as patch:
            failing_write(patch, fail_at)
            with pytest.raises(OSError, match=f"write {fail_at} failed"):
                run(out, False)
        run(out, True)
        assert [path.read_bytes() for path in outs(out)] == expected, (
            f"write {fail_at} failed"
        )


class TestFailedWrites:
    def test_dse_sweep(self, tmp_path, monkeypatch):
        space = get_preset("smoke")

        def run(out, resume):
            DseSweep(space, seed=42, workers=1).run(out=out, resume=resume)

        assert_resumes_after_every_failed_write(
            monkeypatch, run, tmp_path / "sweep.jsonl", lambda out: [out]
        )

    def test_attack_grid_with_a_file_per_cell(self, tmp_path, monkeypatch):
        cells = [("xor", "lru_half"), ("crc32", "lru_half")]

        def run(out, resume):
            run_attack_coverage(
                "sha", "tiny", per_class=2, hash_names=("xor", "crc32"),
                chunk_size=4, out=out, resume=resume, backend="golden",
            )

        def outs(out):
            return [out.with_suffix(f".{h}.{p}.jsonl") for h, p in cells]

        assert_resumes_after_every_failed_write(
            monkeypatch, run, tmp_path / "attack.jsonl", outs
        )


def event_log(path) -> None:
    with EventWriter(path, fresh=True) as writer:
        writer.emit("run-started", kind="toy results", total=3)
        for shard in range(3):
            writer.emit("shard-committed", shard=shard)
        writer.emit("run-finished", complete=True)


class TestEventLog:
    def test_every_cut_reads_its_whole_lines_and_appends_after_them(self, tmp_path):
        reference = tmp_path / "reference.events.jsonl"
        event_log(reference)
        whole = reference.read_bytes()
        events = read_events(reference)
        path = tmp_path / "cut.events.jsonl"
        for cut in range(len(whole) + 1):
            path.write_bytes(whole[:cut])
            kept = surviving(events, whole, cut)
            assert read_events(path) == kept, f"cut at byte {cut}"
            torn = cut > 0 and whole[cut - 1] != 0x0A
            with EventWriter(path) as writer:
                writer.emit("resume", shards_done=len(kept))
            after = read_events(path)
            assert after[: len(kept)] == kept
            assert [event["type"] for event in after[len(kept):]] == (
                ["torn-marker"] if torn else []
            ) + ["resume"]
            seqs = [event["seq"] for event in after]
            assert seqs == sorted(set(seqs)), f"cut at byte {cut}"


def journal_state(path) -> tuple[dict, int]:
    """What a server restarting on the journal at *path* would know."""
    jobs, next_seq = replay_journal(path)
    return {
        job_id: (job.descriptor(), job.state, job.resume, job.records_done,
                 job.total, job.error)
        for job_id, job in jobs.items()
    }, next_seq


class TestJournal:
    def test_every_cut_replays_its_whole_lines_and_appends_after_them(self, tmp_path):
        reference = tmp_path / "reference.jsonl"
        journal = Journal(reference)
        journal.append("service-started", pid=1)
        for seq in range(2):
            job = ServiceJob(
                id=f"j{seq:05d}", client="tester", kind="campaign", seq=seq,
                priority=0, payload={"kind": "campaign"},
                out=str(tmp_path / f"missing-{seq}.jsonl"),
            )
            journal.append("job-submitted", job=job.descriptor())
            journal.append("job-state", id=job.id, state="running")
        journal.append("job-state", id="j00000", state="done", records_done=8,
                       total=8, error=None)
        journal.close()
        whole = reference.read_bytes()
        entries = read_journal(reference)
        path = tmp_path / "journal.jsonl"
        replayed = tmp_path / "replayed.jsonl"
        for cut in range(len(whole) + 1):
            path.write_bytes(whole[:cut])
            kept = surviving(entries, whole, cut)
            assert read_journal(path) == kept, f"cut at byte {cut}"
            with closing(AppendLog(replayed, keep=0)) as log:
                log.append(*kept)
            assert journal_state(path) == journal_state(replayed)
            reopened = Journal(path)
            added = reopened.append("service-started", pid=2)
            reopened.close()
            assert read_journal(path) == kept + [added], f"cut at byte {cut}"
