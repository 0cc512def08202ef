"""The job server end to end: protocol, scheduling, cache, restart.

Every test drives a real :class:`ReproService` — event loop in a
background thread, real unix socket, real harness execution — via the
blocking :class:`ServiceClient`, because the service's contracts
(byte-identical artifacts, resume, cache hits) only mean something
measured through the real stack.  Workloads are inline-source campaigns
at tiny fault counts so the whole module stays CI-fast.
"""

import asyncio
import hashlib
import json
import os
import socket
import threading
import time

import pytest

from repro.exec.runner import CampaignRunner
from repro.exec.spec import CampaignSpec
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import read_journal
from repro.service.server import ReproService, ServiceConfig

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

SPEC_JSON = {"source": SOURCE, "name": "server-test", "iht_size": 4}
SEED = 7
CHUNK = 4
FAULTS = 16  # 4 shards at CHUNK=4


def campaign_job(**overrides):
    job = {
        "kind": "campaign",
        "spec": dict(SPEC_JSON),
        "faults": FAULTS,
        "seed": SEED,
        "chunk_size": CHUNK,
    }
    job.update(overrides)
    return job


class ServerHandle:
    """One in-process server on its own event-loop thread."""

    def __init__(self, state_dir, **config_overrides):
        options = dict(
            state_dir=str(state_dir), max_jobs=2, step_shards=1, poll=0.01
        )
        options.update(config_overrides)
        self.config = ServiceConfig(**options)
        self.service = ReproService(self.config)
        self.thread = threading.Thread(
            target=lambda: asyncio.run(self.service.main()), daemon=True
        )

    def start(self):
        self.thread.start()
        deadline = time.monotonic() + 10
        while not os.path.exists(self.config.resolved_socket()):
            if time.monotonic() > deadline:  # pragma: no cover
                raise RuntimeError("server socket never appeared")
            time.sleep(0.01)
        return self

    def client(self, name="tenant"):
        return ServiceClient(
            socket_path=self.config.resolved_socket(), client=name
        )

    def stop(self):
        if not self.thread.is_alive():
            return
        try:
            self.client().shutdown()
        except ServiceError:
            pass
        self.thread.join(timeout=30)
        assert not self.thread.is_alive(), "server failed to drain"


@pytest.fixture
def server(tmp_path):
    handle = ServerHandle(tmp_path / "svc").start()
    yield handle
    handle.stop()


@pytest.fixture(scope="module")
def serial_reference(tmp_path_factory):
    """The ground truth: the same campaign run serially, no service."""
    out = tmp_path_factory.mktemp("serial") / "reference.jsonl"
    spec = CampaignSpec.from_json(SPEC_JSON)
    runner = CampaignRunner(spec, workers=1, chunk_size=CHUNK)
    faults = runner.campaign.random_single_bit(FAULTS, seed=SEED)
    runner.run(faults, seed=SEED, out=out)
    return out.read_bytes()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestProtocol:
    def test_ping(self, server):
        response = server.client().ping()
        assert response["pong"] is True
        assert response["protocol"] == 1

    def test_unknown_op(self, server):
        with pytest.raises(ServiceError, match="unknown op"):
            server.client().request("dance")

    def test_malformed_line_answered_not_dropped(self, server):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(5)
            sock.connect(server.config.resolved_socket())
            sock.sendall(b"this is not json\n")
            with sock.makefile("rb") as handle:
                reply = json.loads(handle.readline())
                assert reply["ok"] is False
                # The connection survives for the next request.
                sock.sendall(b'{"op": "ping"}\n')
                assert json.loads(handle.readline())["ok"] is True

    def test_invalid_job_rejected_at_submit(self, server):
        with pytest.raises(ServiceError, match="unknown job kind"):
            server.client().submit({"kind": "espresso"})

    def test_status_of_unknown_job(self, server):
        with pytest.raises(ServiceError, match="unknown job"):
            server.client().status("j99999")


class TestExecution:
    def test_campaign_byte_identical_to_serial(
        self, server, serial_reference
    ):
        client = server.client("alice")
        job = client.submit(campaign_job())
        final = client.wait(job["id"], timeout=120)
        assert final["state"] == "done"
        assert final["records_done"] == FAULTS
        assert final["total"] == FAULTS
        served = open(final["out"], "rb").read()
        assert digest(served) == digest(serial_reference), (
            "service execution must not change a single committed byte"
        )

    def test_second_tenant_hits_the_cache(self, server, serial_reference):
        alice, bob = server.client("alice"), server.client("bob")
        first = alice.submit(campaign_job())
        second = bob.submit(campaign_job())
        final_first = alice.wait(first["id"], timeout=120)
        final_second = bob.wait(second["id"], timeout=120)
        assert final_first["state"] == "done"
        assert final_second["state"] == "done"
        stats = alice.stats()
        assert stats["cache"]["misses"] == 1
        assert stats["cache"]["hits"] >= 1
        assert (
            open(final_first["out"], "rb").read()
            == open(final_second["out"], "rb").read()
            == serial_reference
        )

    def test_dse_job(self, server):
        client = server.client()
        job = client.submit(
            {
                "kind": "dse",
                "space": {
                    "hash_names": ["xor"],
                    "iht_sizes": [4, 8],
                    "policy_names": ["lru_half"],
                    "miss_penalties": [100],
                    "workloads": ["sha"],
                    "scale": "tiny",
                    "adversary": "none",
                },
                "chunk_size": 1,
            }
        )
        final = client.wait(job["id"], timeout=180)
        assert final["state"] == "done"
        assert final["records_done"] == 2
        records = [
            json.loads(line)
            for line in open(final["out"], encoding="utf-8")
        ]
        assert any(entry.get("type") == "point" for entry in records)

    def test_failed_job_reports_error(self, server):
        client = server.client()
        # A bogus workload, scale, hash, policy or IHT size is refused at
        # submit (test_jobs.py); to reach the *runtime* failure path the
        # spec carries a source that does not assemble, since validation
        # builds nothing.
        job = client.submit(
            campaign_job(spec={"source": "bogus $$$", "name": "broken"})
        )
        final = client.wait(job["id"], timeout=60)
        assert final["state"] == "failed"
        assert final["error"]

    def test_cancel_queued_job(self, tmp_path):
        handle = ServerHandle(tmp_path / "svc", max_jobs=1).start()
        try:
            client = handle.client()
            blocker = client.submit(campaign_job())
            victim = client.submit(campaign_job(seed=SEED + 1))
            response = client.cancel(victim["id"])
            assert response["job"]["state"] == "cancelled"
            final = client.wait(blocker["id"], timeout=120)
            assert final["state"] == "done"
            # Cancelling a terminal job is a no-op, not an error.
            again = client.cancel(victim["id"])
            assert again.get("already_terminal") is True
        finally:
            handle.stop()

    def test_cancel_running_job_stops_at_step_boundary(self, server):
        client = server.client()
        job = client.submit(campaign_job(faults=96, chunk_size=1))
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            status = client.status(job["id"])
            if status["state"] == "running" and status["records_done"] > 0:
                break
            time.sleep(0.02)
        response = client.cancel(job["id"])
        final = client.wait(job["id"], timeout=60)
        assert final["state"] == "cancelled"
        assert final["records_done"] < 96


class TestWatch:
    def test_watch_streams_events_and_records(self, server):
        client = server.client()
        job = client.submit(campaign_job())
        events, records, end = [], [], None
        for line in client.watch(job["id"]):
            if line.get("stream") == "event":
                events.append(line["data"])
            elif line.get("stream") == "record":
                records.append(line["data"])
            else:
                end = line
        assert end["job"]["state"] == "done"
        sequences = [
            event["seq"] for event in events if isinstance(event.get("seq"), int)
        ]
        assert sequences == sorted(sequences)
        assert len(sequences) == len(set(sequences)), "duplicate seq seen"
        assert any(event["type"] == "run-started" for event in events)
        assert (
            sum(1 for entry in records if entry.get("type") == "record")
            == FAULTS
        )

    def test_watch_unknown_job(self, server):
        client = server.client()
        with pytest.raises(ServiceError, match="unknown job"):
            list(client.watch("j99999"))


class TestScheduling:
    def test_per_client_cap_lets_other_tenant_through(self, tmp_path):
        handle = ServerHandle(
            tmp_path / "svc", max_jobs=2, per_client=1
        ).start()
        try:
            flood, idle = handle.client("flood"), handle.client("idle")
            first = flood.submit(campaign_job())
            second = flood.submit(campaign_job(seed=SEED + 1))
            third = idle.submit(campaign_job(seed=SEED + 2), priority=-1)
            for job in (first, second, third):
                final = flood.wait(job["id"], timeout=180)
                assert final["state"] == "done"
            # With the flooder capped at one concurrent job, the second
            # execution slot must have gone to the idle tenant despite
            # its lower priority and later submission.
            started = {
                status["id"]: status["started_t"]
                for status in flood.jobs()
            }
            assert started[third["id"]] < started[second["id"]]
        finally:
            handle.stop()


class TestRestart:
    def test_graceful_shutdown_resumes_on_restart(
        self, tmp_path, serial_reference
    ):
        state_dir = tmp_path / "svc"
        handle = ServerHandle(state_dir, max_jobs=1).start()
        client = handle.client()
        job = client.submit(campaign_job(faults=48, chunk_size=1))
        # Let at least one shard commit, then shut down mid-job.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            status = client.status(job["id"])
            if status["records_done"] > 0:
                break
            time.sleep(0.01)
        handle.stop()
        entries = read_journal(handle.config.journal_path())
        last_state = [
            entry
            for entry in entries
            if entry["type"] == "job-state" and entry["id"] == job["id"]
        ][-1]
        assert last_state["state"] == "running", (
            "drain must leave an interrupted job journaled as running"
        )
        # A new server over the same state dir finishes the job.
        second = ServerHandle(state_dir, max_jobs=1).start()
        try:
            client = second.client()
            final = client.wait(job["id"], timeout=120)
            assert final["state"] == "done"
            # 48 faults at chunk_size=1: same content, one resume seam.
            spec = CampaignSpec.from_json(SPEC_JSON)
            runner = CampaignRunner(spec, workers=1, chunk_size=1)
            faults = runner.campaign.random_single_bit(48, seed=SEED)
            reference = tmp_path / "reference-chunk1.jsonl"
            runner.run(faults, seed=SEED, out=reference)
            assert (
                open(final["out"], "rb").read() == reference.read_bytes()
            ), "kill/restart must resume byte-identical"
        finally:
            second.stop()

    def test_terminal_jobs_survive_restart(self, tmp_path):
        state_dir = tmp_path / "svc"
        handle = ServerHandle(state_dir).start()
        client = handle.client()
        job = client.submit(campaign_job())
        client.wait(job["id"], timeout=120)
        handle.stop()
        second = ServerHandle(state_dir).start()
        try:
            statuses = {item["id"]: item for item in second.client().jobs()}
            assert statuses[job["id"]]["state"] == "done"
            assert statuses[job["id"]]["records_done"] == FAULTS
        finally:
            second.stop()


class TestJournalCompatibility:
    """Journals keep replaying across payload-format changes."""

    def test_earlier_canonical_payloads_replay_and_finish(
        self, tmp_path, monkeypatch
    ):
        """One job per kind, each payload exactly as the earlier
        per-kind validators canonicalized it: a campaign naming both a
        preset and a fault count (the preset's plan runs), an attack
        with no source or inputs, and a coverage job that still carries
        the seed it never used."""
        from repro.coverage import CORPORA, CoverageSpec

        monkeypatch.setitem(
            CORPORA,
            "toy",
            CoverageSpec(
                name="toy", kind="pairs", source=SOURCE, source_name="toy.s",
                hash_names=("xor",), policy_names=("lru_half",),
            ),
        )
        spec = CampaignSpec.from_json({**SPEC_JSON, "backend": "golden"}).to_json()
        payloads = [
            {"kind": "campaign", "spec": spec, "preset": "smoke", "faults": 200,
             "batch_size": None, "seed": SEED, "workers": 1, "chunk_size": 4},
            {"kind": "dse", "backend": "golden", "seed": 42, "workers": 1,
             "chunk_size": 4,
             "space": {"hash_names": ["xor"], "iht_sizes": [4],
                       "policy_names": ["lru_half"], "miss_penalties": [100],
                       "workloads": ["sha"], "scale": "tiny", "adversary": "none",
                       "attack_classes": ["all"], "per_class": 4,
                       "pair_count": 24}},
            {"kind": "attack", "workload": "bitcount", "scale": "tiny",
             "classes": ["all"], "per_class": 1, "hash_names": ["xor"],
             "policy_names": ["lru_half"], "iht_size": 8, "backend": "golden",
             "seed": 42, "workers": 1, "chunk_size": 16},
            {"kind": "coverage", "corpus": "toy", "batch_size": None, "seed": 42,
             "workers": 1, "chunk_size": 64},
        ]
        state_dir = tmp_path / "svc"
        jobs_dir = state_dir / "jobs"
        jobs_dir.mkdir(parents=True)
        with open(state_dir / "journal.jsonl", "w", encoding="utf-8") as handle:
            for seq, payload in enumerate(payloads):
                job_id = f"j{seq:05d}"
                extension = ".json" if payload["kind"] == "coverage" else ".jsonl"
                job = {
                    "id": job_id, "client": "t", "kind": payload["kind"],
                    "seq": seq, "priority": 0, "payload": payload,
                    "out": str(jobs_dir / (job_id + extension)), "label": "",
                }
                handle.write(json.dumps({"type": "job-submitted", "job": job}) + "\n")
            handle.write(
                json.dumps({"type": "job-state", "id": "j00000", "state": "running"})
                + "\n"
            )
        handle = ServerHandle(state_dir, max_jobs=1).start()
        try:
            client = handle.client()
            finals = [
                client.wait(f"j{seq:05d}", timeout=180)
                for seq in range(len(payloads))
            ]
        finally:
            handle.stop()
        assert [final["state"] for final in finals] == ["done"] * 4, finals
        assert finals[0]["records_done"] == 32  # the smoke preset's plan
        assert finals[1]["records_done"] == 1
