"""Service-tier throughput: sustained jobs/s and submit-to-first-record p99.

Spins up one in-process :class:`repro.service.server.ReproService` (real
unix socket, real harness execution) and drives it with four concurrent
submitter threads — distinct tenants, each pushing a stream of identical
``sha-tiny`` campaigns through its own blocking :class:`ServiceClient`.
Identical specs are the point: every tenant after the first must lease
the published checkpoint store (content-addressed by spec fingerprint)
instead of re-recording it, so the measured throughput is the *warm*
multi-tenant regime the service exists for.

Per job, the watch stream timestamps the first committed record line —
submit-to-first-record is the latency a tenant actually feels.  The
artifact lands in ``results/BENCH_bench_service.json`` (schema-pinned by
``tests/obs/test_schema.py`` like every committed BENCH file).
"""

import asyncio
import json
import os
import threading
import time

import pytest

from repro.obs.schema import validate_bench
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import ReproService, ServiceConfig

SUBMITTERS = 4
JOBS_PER_SUBMITTER = 4
FAULTS = 16
CHUNK = 8
SEED = 42

JOB = {
    "kind": "campaign",
    "spec": {
        "workload": "sha",
        "scale": "tiny",
        "iht_size": 8,
        "backend": "golden",
    },
    "faults": FAULTS,
    "seed": SEED,
    "chunk_size": CHUNK,
}


class ServerThread:
    """The service on a background event-loop thread, as tests run it."""

    def __init__(self, state_dir):
        self.config = ServiceConfig(
            state_dir=str(state_dir),
            max_jobs=SUBMITTERS,
            per_client=1,
            step_shards=4,
            poll=0.005,
        )
        self.service = ReproService(self.config)
        self.thread = threading.Thread(
            target=lambda: asyncio.run(self.service.main()), daemon=True
        )

    def __enter__(self):
        # Ready once it answers a ping: the socket file appears at bind,
        # a moment before the server listens.
        self.thread.start()
        deadline = time.monotonic() + 15
        while True:
            try:
                self.client("probe").ping()
                return self
            except (ServiceError, OSError):
                if time.monotonic() > deadline:  # pragma: no cover
                    raise RuntimeError("server never answered ping")
                time.sleep(0.01)

    def client(self, name):
        return ServiceClient(
            socket_path=self.config.resolved_socket(), client=name
        )

    def __exit__(self, *exc_info):
        try:
            self.client("teardown").shutdown()
        except Exception:  # pragma: no cover - teardown safety net
            pass
        self.thread.join(timeout=60)


def submit_stream(handle, tenant, latencies, failures):
    """One tenant: submit, watch to first record, drain, repeat."""
    client = handle.client(tenant)
    for _ in range(JOBS_PER_SUBMITTER):
        submitted_at = time.perf_counter()
        job = client.submit(dict(JOB))
        first_record = None
        final = None
        for line in client.watch(job["id"]):
            stream = line.get("stream")
            if (
                first_record is None
                and stream == "record"
                and line["data"].get("type") == "record"
            ):
                first_record = time.perf_counter() - submitted_at
            elif stream == "end":
                final = line["job"]
        if final is None or final["state"] != "done" or first_record is None:
            failures.append((tenant, job["id"], final))
            return
        latencies.append(first_record)


def percentile(values, fraction):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def test_sustained_multi_tenant_throughput(tmp_path, record_bench):
    latencies: list[float] = []
    failures: list = []
    with ServerThread(tmp_path / "svc") as handle:
        # Warm-up: the first job pays the one-time checkpoint recording;
        # steady state is what the service sustains after it.
        warm = handle.client("warmup")
        job = warm.submit(dict(JOB))
        assert warm.wait(job["id"], timeout=300)["state"] == "done"

        started = time.perf_counter()
        submitters = [
            threading.Thread(
                target=submit_stream,
                args=(handle, f"tenant-{index}", latencies, failures),
            )
            for index in range(SUBMITTERS)
        ]
        for thread in submitters:
            thread.start()
        for thread in submitters:
            thread.join(timeout=600)
        elapsed = time.perf_counter() - started
        stats = handle.client("stats").stats()

    assert not failures, failures
    total_jobs = SUBMITTERS * JOBS_PER_SUBMITTER
    assert len(latencies) == total_jobs
    cache = stats["cache"]
    assert cache["misses"] == 1, (
        "every tenant after the first must attach to the published store"
    )
    assert cache["hits"] >= total_jobs

    record_bench(
        submitters=SUBMITTERS,
        jobs=total_jobs,
        faults_per_job=FAULTS,
        jobs_per_second=round(total_jobs / elapsed, 3),
        p50_submit_to_first_record_ms=round(
            percentile(latencies, 0.50) * 1e3, 2
        ),
        p99_submit_to_first_record_ms=round(
            percentile(latencies, 0.99) * 1e3, 2
        ),
        cache_hits=cache["hits"],
        cache_misses=cache["misses"],
    )

    # The artifact this run merges into must be schema-valid once the
    # session timer adds its ``seconds`` key — validate the same payload
    # shape here so a schema break fails the benchmark, not a later
    # tier-1 run over the committed file.
    artifact = os.path.join(
        os.path.dirname(__file__), "..", "results", "BENCH_bench_service.json"
    )
    payload = json.loads(open(artifact, encoding="utf-8").read())
    for entry in payload["results"].values():
        entry.setdefault("seconds", 0.0)  # the autouse timer's key
    assert validate_bench(payload) == []
