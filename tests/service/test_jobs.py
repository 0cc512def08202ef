"""Job validation, labels, the journal, and journal replay."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.service.jobs import (
    Journal,
    ServiceJob,
    job_label,
    read_journal,
    replay_journal,
    validate_job,
)

SOURCE = """
main:   li $v0, 10
        syscall
"""


class TestValidateJob:
    def test_campaign_fills_defaults(self):
        payload = validate_job(
            {"kind": "campaign", "spec": {"workload": "sha", "scale": "tiny"}}
        )
        assert payload["kind"] == "campaign"
        assert payload["spec"]["workload"] == "sha"
        assert payload["faults"] == 200
        assert payload["preset"] is None
        assert payload["seed"] == 42
        assert payload["workers"] == 1
        assert payload["chunk_size"] == 16

    def test_campaign_inline_source(self):
        payload = validate_job(
            {"kind": "campaign", "spec": {"source": SOURCE, "name": "inline"}}
        )
        assert payload["spec"]["source"] == SOURCE

    def test_campaign_preset_names_the_fault_plan(self):
        payload = validate_job(
            {"kind": "campaign", "spec": {"workload": "sha"}, "preset": "smoke"}
        )
        assert payload["preset"] == "smoke"
        assert payload["faults"] is None
        # The preset supplies scale and backend unless the spec names them.
        assert payload["spec"]["scale"] == "tiny"
        assert payload["spec"]["backend"] == "golden"
        assert validate_job(payload) == payload

    def test_explicit_faults_override_the_preset_plan(self):
        payload = validate_job(
            {
                "kind": "campaign",
                "spec": {"workload": "sha", "scale": "small"},
                "preset": "smoke",
                "faults": 10,
            }
        )
        assert payload["preset"] is None
        assert payload["faults"] == 10
        assert payload["spec"]["scale"] == "small"

    def test_campaign_preset_checked(self):
        with pytest.raises(ConfigurationError, match="unknown campaign preset"):
            validate_job(
                {
                    "kind": "campaign",
                    "spec": {"workload": "sha"},
                    "preset": "no-such-preset",
                }
            )

    def test_campaign_needs_spec(self):
        with pytest.raises(ConfigurationError, match="'spec'"):
            validate_job({"kind": "campaign"})

    def test_bad_spec_field_rejected(self):
        with pytest.raises(ConfigurationError, match="bad campaign spec"):
            validate_job(
                {"kind": "campaign", "spec": {"workload": "sha", "nope": 1}}
            )

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"workload": "doom"}, "unknown workload 'doom'"),
            ({"workload": "sha", "scale": "huge"}, "unknown scale 'huge'"),
            (
                {"workload": "sha", "hash_name": "bogus"},
                "unknown hash algorithm 'bogus'",
            ),
            ({"workload": "sha", "iht_size": 0}, "IHT size must be >= 1, got 0"),
        ],
    )
    def test_campaign_spec_rejected_at_submit(self, spec, message):
        with pytest.raises(ConfigurationError, match=message):
            validate_job({"kind": "campaign", "spec": spec})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("faults", -3, "'faults' \\(--faults\\) must be >= 1, got -3"),
            ("batch_size", -2, "'batch_size' \\(--batch-size\\) must be >= 1"),
            ("chunk_size", 0, "'chunk_size' \\(--chunk\\) must be >= 1"),
            ("seed", "7", "'seed' must be an integer"),
        ],
    )
    def test_campaign_field_bounds(self, field, value, message):
        with pytest.raises(ConfigurationError, match=message):
            validate_job(
                {"kind": "campaign", "spec": {"workload": "sha"}, field: value}
            )

    def test_dse_preset(self):
        payload = validate_job({"kind": "dse", "preset": "smoke"})
        assert payload["kind"] == "dse"
        assert payload["space"]["workloads"]
        assert payload["backend"] == "golden"

    def test_dse_inline_space(self):
        payload = validate_job(
            {
                "kind": "dse",
                "space": {
                    "hash_names": ["xor"],
                    "iht_sizes": [4],
                    "policy_names": ["lru_half"],
                    "miss_penalties": [100],
                    "workloads": ["sha"],
                    "scale": "tiny",
                },
            }
        )
        assert payload["space"]["iht_sizes"] == [4]

    def test_dse_needs_space_or_preset(self):
        with pytest.raises(ConfigurationError, match="'space'"):
            validate_job({"kind": "dse"})

    def test_dse_space_overrides_preset(self):
        payload = validate_job(
            {
                "kind": "dse",
                "preset": "smoke",
                "space": {"hash_names": ["crc32"], "iht_sizes": [32]},
            }
        )
        assert payload["space"]["hash_names"] == ["crc32"]
        assert payload["space"]["iht_sizes"] == [32]
        # Kept from the preset.
        assert payload["space"]["workloads"] == ["sha", "bitcount"]
        assert payload["space"]["per_class"] == 2
        assert "preset" not in payload
        assert validate_job(payload) == payload

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"backend": "bogus"}, "unknown backend 'bogus'"),
            (
                {"space": {"attack_classes": ["rowhammer"]}},
                "unknown attack class 'rowhammer'",
            ),
        ],
    )
    def test_dse_rejected_at_submit(self, fields, message):
        with pytest.raises(ConfigurationError, match=message):
            validate_job({"kind": "dse", "preset": "smoke", **fields})

    def test_attack_defaults(self):
        payload = validate_job({"kind": "attack", "workload": "sha"})
        assert payload["scale"] == "small"
        assert payload["per_class"] == 8
        assert payload["classes"] == ["all"]
        assert payload["backend"] == "full"

    def test_attack_inline_source(self):
        payload = validate_job(
            {"kind": "attack", "source": SOURCE, "name": "inline", "inputs": [3]}
        )
        assert payload["source"] == SOURCE
        assert payload["workload"] is None
        assert payload["inputs"] == [3]

    def test_attack_unknown_workload(self):
        with pytest.raises(ConfigurationError, match="workload"):
            validate_job({"kind": "attack", "workload": "doom"})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("hash_names", ["bogus"], "unknown hash algorithm 'bogus'"),
            ("policy_names", ["nope"], "unknown replacement policy 'nope'"),
            ("per_class", 0, "'per_class' \\(--per-class\\) must be >= 1"),
            ("hash_names", "xor", "'hash_names' must be a non-empty list"),
        ],
    )
    def test_attack_rejected_at_submit(self, field, value, message):
        with pytest.raises(ConfigurationError, match=message):
            validate_job({"kind": "attack", "workload": "sha", field: value})

    def test_coverage(self):
        payload = validate_job({"kind": "coverage", "corpus": "pairs-tiny"})
        assert payload["corpus"] == "pairs-tiny"
        assert "seed" not in payload

    def test_coverage_unknown_corpus(self):
        with pytest.raises(ConfigurationError):
            validate_job({"kind": "coverage", "corpus": "everything"})

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="unknown job kind"):
            validate_job({"kind": "bake-bread"})

    def test_non_dict_payload(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            validate_job("campaign")

    def test_workers_capped(self):
        with pytest.raises(ConfigurationError, match="workers"):
            validate_job(
                {"kind": "coverage", "corpus": "pairs-tiny", "workers": 999}
            )

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ConfigurationError, match="seed"):
            validate_job(
                {"kind": "campaign", "spec": {"workload": "sha"}, "seed": True}
            )


class TestJobLabel:
    def test_labels(self):
        assert (
            job_label(
                validate_job(
                    {"kind": "campaign", "spec": {"workload": "sha", "scale": "tiny"}}
                )
            )
            == "sha-tiny"
        )
        assert job_label(
            validate_job({"kind": "attack", "workload": "susan"})
        ) == "attack:susan-small"
        assert job_label(
            validate_job({"kind": "coverage", "corpus": "pairs-tiny"})
        ) == "coverage:pairs-tiny"
        assert "dse:" in job_label(validate_job({"kind": "dse", "preset": "smoke"}))


def submitted_entry(job_id, seq, state_entries=(), out="/nonexistent/x.jsonl"):
    job = ServiceJob(
        id=job_id,
        client="t",
        kind="campaign",
        seq=seq,
        priority=0,
        payload={"kind": "campaign"},
        out=out,
    )
    return {"type": "job-submitted", "t": 1.0, "job": job.descriptor()}


class TestJournal:
    def test_append_and_read(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = Journal(path)
        journal.append("service-started", pid=1)
        journal.append("job-state", id="j00000", state="running")
        journal.close()
        entries = read_journal(path)
        assert [entry["type"] for entry in entries] == [
            "service-started",
            "job-state",
        ]
        assert all("t" in entry for entry in entries)

    def test_torn_tail_terminated_on_reopen(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        Journal(path).append("service-started", pid=1)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "job-state", "id": "torn')  # kill -9 here
        journal = Journal(path)
        journal.append("service-started", pid=2)
        journal.close()
        entries = read_journal(path)
        # The torn line is skipped; both clean entries survive.
        assert [entry["pid"] for entry in entries] == [1, 2]

    def test_replay_empty(self, tmp_path):
        jobs, next_seq = replay_journal(tmp_path / "missing.jsonl")
        assert jobs == {}
        assert next_seq == 0


class TestReplay:
    def write_journal(self, path, entries):
        with open(path, "w", encoding="utf-8") as handle:
            for entry in entries:
                handle.write(json.dumps(entry) + "\n")

    def test_terminal_jobs_stay_terminal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        self.write_journal(
            path,
            [
                submitted_entry("j00000", 0),
                {
                    "type": "job-state",
                    "id": "j00000",
                    "state": "done",
                    "records_done": 8,
                    "total": 8,
                },
            ],
        )
        jobs, next_seq = replay_journal(path)
        assert jobs["j00000"].state == "done"
        assert jobs["j00000"].records_done == 8
        assert next_seq == 1

    def test_running_requeues_with_resume(self, tmp_path):
        out = tmp_path / "j00000.jsonl"
        out.write_text('{"type": "header"}\n')
        path = tmp_path / "journal.jsonl"
        self.write_journal(
            path,
            [
                submitted_entry("j00000", 0, out=str(out)),
                {"type": "job-state", "id": "j00000", "state": "running"},
            ],
        )
        jobs, _ = replay_journal(path)
        job = jobs["j00000"]
        assert job.state == "queued"
        assert job.resume is True

    def test_queued_without_results_restarts_fresh(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        self.write_journal(path, [submitted_entry("j00000", 0)])
        jobs, _ = replay_journal(path)
        assert jobs["j00000"].state == "queued"
        assert jobs["j00000"].resume is False

    def test_failed_job_not_requeued(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        self.write_journal(
            path,
            [
                submitted_entry("j00000", 0),
                {"type": "job-state", "id": "j00000", "state": "running"},
                {
                    "type": "job-state",
                    "id": "j00000",
                    "state": "failed",
                    "error": "boom",
                },
            ],
        )
        jobs, _ = replay_journal(path)
        assert jobs["j00000"].state == "failed"
        assert jobs["j00000"].error == "boom"

    def test_next_seq_clears_existing_ids(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        self.write_journal(
            path,
            [submitted_entry("j00000", 0), submitted_entry("j00003", 3)],
        )
        _jobs, next_seq = replay_journal(path)
        assert next_seq == 4
