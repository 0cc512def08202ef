"""The service job model: descriptors, validation, lifecycle, journal.

A **job** is one harness experiment owned by one client (tenant): a
fault campaign, a DSE sweep, an attack sweep, or a coverage corpus run.
Its descriptor is plain JSON — the same picklable-spec discipline as the
execution tier — and is validated at submit time by its kind's
description (:mod:`repro.jobs`), which *constructs the real spec
objects* (:class:`~repro.exec.spec.CampaignSpec`,
:class:`~repro.dse.space.ConfigSpace`, :func:`~repro.coverage.spec.
get_corpus`, ...): the schemas the execution layer already enforces are
the schemas the service enforces, so a job that submits cleanly also
runs cleanly — and runs exactly as ``repro <kind>`` would.

Lifecycle: ``queued`` → ``running`` → one of ``done`` / ``failed`` /
``cancelled``.  Every transition is appended to the **journal** — an
append-only JSONL file with the same one-flushed-line-per-entry crash
tolerance as the event logs (:mod:`repro.obs.events`) — and the server
replays it on startup: terminal jobs are remembered, queued jobs
re-queue, and jobs that were ``running`` when the server died re-queue
with ``resume=True``, re-entering the harness resume protocol from
their results file's committed shards.  ``kill -9`` loses at most the
shard in flight, exactly like killing a CLI campaign.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.jobs import KINDS
from repro.obs.events import read_events
from repro.utils.jsonl import AppendLog

#: The four experiment kinds the service accepts (:mod:`repro.jobs`).
JOB_KINDS = tuple(KINDS)

#: Lifecycle states; the last three are terminal.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

#: Hard ceilings on per-job execution knobs, so one tenant cannot
#: request a pool bigger than the host.
MAX_JOB_WORKERS = 16


#: What a job's status and its journal descriptor carry (the status also
#: carries the three timestamps).
STATUS_FIELDS = ("id", "client", "kind", "label", "state", "priority",
                 "records_done", "total", "out", "error")
DESCRIPTOR_FIELDS = ("id", "client", "kind", "seq", "priority", "payload",
                     "out", "label")


@dataclass(slots=True)
class ServiceJob:
    """One submitted job: descriptor plus live lifecycle state."""

    id: str
    client: str
    kind: str
    seq: int
    priority: int
    payload: dict
    out: str
    state: str = "queued"
    label: str = ""
    resume: bool = False
    records_done: int = 0
    total: int | None = None
    error: str | None = None
    submitted_t: float = field(default_factory=time.time)
    started_t: float | None = None
    finished_t: float | None = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def status(self) -> dict:
        """The JSON status clients see (``submit``/``jobs``/``status``)."""
        status = {key: getattr(self, key) for key in STATUS_FIELDS}
        for key in ("submitted_t", "started_t", "finished_t"):
            stamp = getattr(self, key)
            status[key] = None if stamp is None else round(stamp, 6)
        return status

    def descriptor(self) -> dict:
        """The journal-side identity: everything replay needs to rebuild."""
        return {key: getattr(self, key) for key in DESCRIPTOR_FIELDS}

    @classmethod
    def from_descriptor(cls, data: dict) -> "ServiceJob":
        """The job *data* describes; ``KeyError`` when a field other than
        ``label`` is missing."""
        fields = {key: data[key] for key in DESCRIPTOR_FIELDS if key != "label"}
        return cls(**fields, label=data.get("label", ""))


# ----------------------------------------------------------------------
# Validation: the kind's own normalization plus server-only policy
# ----------------------------------------------------------------------


def validate_job(payload: dict) -> dict:
    """Normalize a submitted job payload, or raise :class:`ConfigurationError`.

    The kind's description (:mod:`repro.jobs`) validates by constructing
    the execution layer's own spec objects, so the accepted grammar is
    exactly what ``repro <kind>`` runs; the returned dict is the
    canonical payload (defaults filled, unknown keys dropped) that the
    journal records and the step loop consumes.  The worker ceiling is
    the server's own policy: local runs stay uncapped.
    """
    if not isinstance(payload, dict):
        raise ConfigurationError("job payload must be a JSON object")
    kind = payload.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise ConfigurationError(
            f"unknown job kind {kind!r}; one of: {', '.join(JOB_KINDS)}"
        )
    payload = KINDS[kind].normalize(payload)
    if payload["workers"] > MAX_JOB_WORKERS:
        raise ConfigurationError(
            f"job field 'workers' must be <= {MAX_JOB_WORKERS}"
        )
    return payload


def job_label(payload: dict) -> str:
    """Human-readable label for listings (``sha-tiny``, ``dse:smoke`` ...)."""
    return KINDS[payload["kind"]].label(payload)


# ----------------------------------------------------------------------
# The journal
# ----------------------------------------------------------------------

#: Every parseable journal entry, torn/foreign lines skipped: journal
#: lines are event-log lines, so the event log's reader reads them.
read_journal = read_events


class Journal:
    """Append-only job journal: one flushed JSON line per entry.

    An :class:`~repro.utils.jsonl.AppendLog`, like the event log: a
    ``kill -9`` mid-append leaves a valid prefix plus at most one torn
    line, which :func:`read_journal` skips and the next server's journal
    terminates before appending.  The journal is the server's *only*
    durable job state — results files are the harness's, and the two
    reconcile through the resume protocol.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)
        self._log = AppendLog(self.path)

    def append(self, entry_type: str, **fields) -> dict:
        entry = {"type": entry_type, "t": round(time.time(), 6), **fields}
        self._log.append(entry)
        return entry

    def close(self) -> None:
        self._log.close()


def replay_journal(path: str | os.PathLike) -> tuple[dict[str, ServiceJob], int]:
    """Rebuild the job table from a journal; return ``(jobs, next_seq)``.

    Jobs whose last recorded state is terminal stay terminal; everything
    else re-queues — and a job that was ``running`` re-queues with
    ``resume=True`` so its executor step re-enters the harness resume
    protocol over the results file it already wrote.
    """
    jobs: dict[str, ServiceJob] = {}
    next_seq = 0
    if not os.path.exists(os.fspath(path)):
        return jobs, next_seq
    for entry in read_journal(path):
        kind = entry.get("type")
        if kind == "job-submitted" and isinstance(entry.get("job"), dict):
            try:
                job = ServiceJob.from_descriptor(entry["job"])
            except KeyError:
                continue
            jobs[job.id] = job
            next_seq = max(next_seq, job.seq + 1)
        elif kind == "job-state":
            job = jobs.get(entry.get("id"))
            if job is None or entry.get("state") not in JOB_STATES:
                continue
            job.state = entry["state"]
            if "records_done" in entry:
                job.records_done = int(entry["records_done"])
            if "total" in entry:
                job.total = entry["total"]
            if entry.get("error") is not None:
                job.error = str(entry["error"])
    for job in jobs.values():
        if job.terminal:
            continue
        # Interrupted mid-run (or never started): back to the queue.  A
        # results file on disk means committed shards exist to resume.
        job.resume = job.state == "running" or os.path.exists(job.out)
        job.state = "queued"
        job.error = None
    return jobs, next_seq
