"""Engine tests: determinism across worker counts, streaming, resume."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.exec import CampaignRunner, CampaignSpec
from repro.faults import Outcome

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
FAULT_COUNT = 40
CHUNK = 8  # 40 faults -> 5 shards


@pytest.fixture(scope="module")
def spec():
    return CampaignSpec(source=SOURCE, name="runner-test", iht_size=4)


@pytest.fixture(scope="module")
def faults(spec):
    return CampaignRunner(spec).campaign.random_single_bit(FAULT_COUNT, seed=SEED)


@pytest.fixture(scope="module")
def serial_result(spec, faults):
    return CampaignRunner(spec, workers=1, chunk_size=CHUNK).run(faults, seed=SEED)


class TestDeterminism:
    def test_workers_1_vs_4_identical(self, spec, faults, serial_result):
        pooled = CampaignRunner(spec, workers=4, chunk_size=CHUNK).run(
            faults, seed=SEED
        )
        assert pooled.summary() == serial_result.summary()
        ordered = lambda result: [
            (record.index, record.fault, record.outcome, record.detail)
            for record in sorted(result.records, key=lambda r: r.index)
        ]
        assert ordered(pooled) == ordered(serial_result)

    def test_chunk_size_does_not_change_statistics(self, spec, faults, serial_result):
        other = CampaignRunner(spec, workers=1, chunk_size=7).run(faults, seed=SEED)
        assert other.summary() == serial_result.summary()

    def test_report_matches_legacy_serial_campaign(self, spec, faults, serial_result):
        legacy = CampaignRunner(spec).campaign.run_campaign(faults)
        assert serial_result.report().summary() == legacy.summary()


class TestStreaming:
    def test_jsonl_layout(self, spec, faults, tmp_path):
        out = tmp_path / "campaign.jsonl"
        result = CampaignRunner(spec, workers=1, chunk_size=CHUNK).run(
            faults, seed=SEED, out=out
        )
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        header, body = lines[0], lines[1:]
        assert header["type"] == "header"
        assert header["fingerprint"] == spec.fingerprint()
        assert header["total"] == FAULT_COUNT
        records = [entry for entry in body if entry["type"] == "record"]
        markers = [entry for entry in body if entry["type"] == "shard-done"]
        assert len(records) == FAULT_COUNT
        assert len(markers) == 5
        assert sorted(entry["index"] for entry in records) == list(range(FAULT_COUNT))
        assert result.complete

    def test_no_out_file_is_fine(self, spec, faults):
        result = CampaignRunner(spec, chunk_size=CHUNK).run(faults, seed=SEED)
        assert result.out is None
        assert result.complete


class TestResume:
    def test_resume_after_interrupt_completes(self, spec, faults, serial_result, tmp_path):
        out = tmp_path / "interrupted.jsonl"
        runner = CampaignRunner(spec, workers=2, chunk_size=CHUNK)
        partial = runner.run(faults, seed=SEED, out=out, stop_after_shards=2)
        assert not partial.complete
        assert len(partial.records) == 2 * CHUNK

        resumed = runner.run(faults, seed=SEED, out=out, resume=True)
        assert resumed.complete
        assert resumed.summary() == serial_result.summary()
        # Exactly the remaining three shards ran; the first two replayed.
        fresh_shards = {record.shard for record in resumed.records} - {
            record.shard for record in partial.records
        }
        assert len(fresh_shards) == 3

    def test_resume_on_complete_file_runs_nothing(self, spec, faults, serial_result, tmp_path):
        out = tmp_path / "done.jsonl"
        runner = CampaignRunner(spec, chunk_size=CHUNK)
        runner.run(faults, seed=SEED, out=out)
        before = out.read_text()
        resumed = runner.run(faults, seed=SEED, out=out, resume=True)
        assert resumed.complete
        assert resumed.summary() == serial_result.summary()
        assert out.read_text() == before

    def test_uncommitted_shard_records_are_discarded(self, spec, faults, tmp_path):
        out = tmp_path / "torn.jsonl"
        runner = CampaignRunner(spec, chunk_size=CHUNK)
        runner.run(faults, seed=SEED, out=out, stop_after_shards=2)
        # Drop the last line (a shard-done marker): that shard's records
        # are now uncommitted and must re-run on resume.
        lines = out.read_text().splitlines()
        assert json.loads(lines[-1])["type"] == "shard-done"
        out.write_text("\n".join(lines[:-1]) + "\n")
        resumed = runner.run(faults, seed=SEED, out=out, resume=True)
        assert resumed.complete
        assert sorted(record.index for record in resumed.records) == list(
            range(FAULT_COUNT)
        )

    def test_orphan_records_never_double_count(self, spec, faults, serial_result, tmp_path):
        """A shard interrupted mid-write leaves orphan record lines; after
        the shard re-runs on resume, a *further* resume of the now-complete
        file must not count both copies."""
        out = tmp_path / "orphans.jsonl"
        runner = CampaignRunner(spec, chunk_size=CHUNK)
        runner.run(faults, seed=SEED, out=out, stop_after_shards=2)
        lines = out.read_text().splitlines()
        assert json.loads(lines[-1])["type"] == "shard-done"
        out.write_text("\n".join(lines[:-1]) + "\n")  # tear off the commit

        completed = runner.run(faults, seed=SEED, out=out, resume=True)
        assert completed.complete
        again = runner.run(faults, seed=SEED, out=out, resume=True)
        assert again.complete
        assert len(again.records) == FAULT_COUNT
        assert again.summary() == serial_result.summary()

    def test_orphan_tail_resume_is_byte_identical(self, spec, faults, tmp_path):
        """Orphan record lines and torn tails from a kill mid-commit are
        truncated on resume, so the finished file is byte-for-byte the
        file an uninterrupted run would have written."""
        reference = tmp_path / "reference.jsonl"
        runner = CampaignRunner(spec, chunk_size=CHUNK)
        runner.run(faults, seed=SEED, out=reference)

        out = tmp_path / "killed.jsonl"
        runner.run(faults, seed=SEED, out=out, stop_after_shards=2)
        lines = out.read_text().splitlines()
        assert json.loads(lines[-1])["type"] == "shard-done"
        # Kill -9 mid-commit: the marker never landed and the last
        # record of the next shard is half-written.
        torn = "\n".join(lines[:-1]) + "\n" + lines[1][: len(lines[1]) // 2]
        out.write_text(torn)
        resumed = runner.run(faults, seed=SEED, out=out, resume=True)
        assert resumed.complete
        assert out.read_bytes() == reference.read_bytes()

    def test_corrupted_committed_record_reruns_shard(self, spec, faults, tmp_path):
        """A committed shard with a garbled record line is not trusted:
        the shard re-runs instead of silently losing the fault."""
        out = tmp_path / "corrupt.jsonl"
        runner = CampaignRunner(spec, chunk_size=CHUNK)
        runner.run(faults, seed=SEED, out=out)
        lines = out.read_text().splitlines()
        first_record = next(
            position for position, line in enumerate(lines)
            if json.loads(line)["type"] == "record"
        )
        lines[first_record] = lines[first_record][: len(lines[first_record]) // 2]
        out.write_text("\n".join(lines) + "\n")
        resumed = runner.run(faults, seed=SEED, out=out, resume=True)
        assert resumed.complete
        assert sorted(record.index for record in resumed.records) == list(
            range(FAULT_COUNT)
        )

    def test_resume_of_empty_file_starts_fresh(self, spec, faults, tmp_path):
        """A run that died before the header flushed leaves an empty file;
        resume starts the campaign from scratch instead of refusing."""
        out = tmp_path / "empty.jsonl"
        out.write_text("")
        result = CampaignRunner(spec, chunk_size=CHUNK).run(
            faults, seed=SEED, out=out, resume=True
        )
        assert result.complete
        header = json.loads(out.read_text().splitlines()[0])
        assert header["type"] == "header"

    def test_resume_refuses_mismatched_campaign(self, spec, faults, tmp_path):
        out = tmp_path / "other.jsonl"
        CampaignRunner(spec, chunk_size=CHUNK).run(faults, seed=SEED, out=out)
        with pytest.raises(ConfigurationError, match="cannot resume"):
            CampaignRunner(spec, chunk_size=CHUNK).run(
                faults, seed=SEED + 1, out=out, resume=True
            )

    def test_resume_requires_out(self, spec, faults):
        with pytest.raises(ConfigurationError, match="requires out"):
            CampaignRunner(spec).run(faults, seed=SEED, resume=True)


class TestResumeRefusal:
    """Only an empty file, or one torn line and nothing else, starts
    fresh; any other file must begin with this campaign's header, and a
    file resume refuses is left byte-identical."""

    def refuse(self, spec, faults, out, message):
        before = out.read_bytes()
        with pytest.raises(ConfigurationError, match=message):
            CampaignRunner(spec, chunk_size=CHUNK).run(
                faults, seed=SEED, out=out, resume=True
            )
        assert out.read_bytes() == before

    def test_refused_file_keeps_its_uncommitted_tail(self, spec, faults, tmp_path):
        """Another run's file with an orphan record after its last
        commit marker: refused on identity, orphan line still there."""
        out = tmp_path / "other.jsonl"
        CampaignRunner(spec, chunk_size=CHUNK).run(
            faults, seed=SEED + 1, out=out, stop_after_shards=1
        )
        lines = out.read_text().splitlines(keepends=True)
        out.write_text("".join(lines) + lines[1])
        self.refuse(spec, faults, out, "cannot resume — seed")

    @pytest.mark.parametrize("content", ["[1, 2]\n", "[1, 2]"])
    def test_json_non_object_refused(self, spec, faults, tmp_path, content):
        out = tmp_path / "list.jsonl"
        out.write_text(content)
        self.refuse(spec, faults, out, "not a campaign results file")

    @pytest.mark.parametrize("content", ["first line\nsecond line\n", "one line"])
    def test_plain_text_refused(self, spec, faults, tmp_path, content):
        out = tmp_path / "notes.txt"
        out.write_text(content)
        self.refuse(spec, faults, out, "not a campaign results file")

    def test_lone_torn_header_starts_fresh(self, spec, faults, tmp_path):
        reference = tmp_path / "reference.jsonl"
        CampaignRunner(spec, chunk_size=CHUNK).run(faults, seed=SEED, out=reference)
        out = tmp_path / "torn.jsonl"
        out.write_text('{"type":"hea')
        result = CampaignRunner(spec, chunk_size=CHUNK).run(
            faults, seed=SEED, out=out, resume=True
        )
        assert result.complete
        assert out.read_bytes() == reference.read_bytes()


class TestValidation:
    def test_bad_worker_and_chunk_counts(self, spec):
        with pytest.raises(ConfigurationError):
            CampaignRunner(spec, workers=0)
        with pytest.raises(ConfigurationError):
            CampaignRunner(spec, chunk_size=0)

    @pytest.mark.parametrize("batch_size", [0, -2])
    def test_bad_batch_size(self, spec, batch_size):
        with pytest.raises(ConfigurationError, match="batch_size must be >= 1"):
            CampaignRunner(spec, batch_size=batch_size)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"workload": "doom"}, "unknown workload 'doom'"),
            ({"workload": "sha", "scale": "huge"}, "unknown scale 'huge'"),
            ({"workload": "sha", "hash_name": "bogus"}, "unknown hash algorithm"),
            ({"workload": "sha", "policy_name": "nope"}, "unknown replacement policy"),
            ({"workload": "sha", "iht_size": 0}, "IHT size must be >= 1"),
        ],
    )
    def test_spec_rejects_at_construction(self, fields, message):
        with pytest.raises(ConfigurationError, match=message):
            CampaignSpec(**fields)


class TestCoverage:
    def test_all_single_bit_faults_detected(self, serial_result):
        """Paper §6.3 on the engine: single-bit faults never escape."""
        counts = serial_result.report().counts()
        assert counts[Outcome.SDC] == 0
        assert counts[Outcome.BENIGN] == 0
        assert serial_result.report().detection_rate == 1.0
