"""The asyncio job server: accept, schedule, execute, stream, survive.

One :class:`ReproService` owns four cooperating pieces:

* an **asyncio front end** — a unix-socket (and optionally TCP)
  listener speaking the line-JSON protocol (:mod:`repro.service.
  protocol`); every connection handles sequential requests, and the
  ``watch`` op turns a connection into a live subscription;
* the **fair queue** (:mod:`repro.service.scheduler`) plus a bounded
  thread executor: at most ``max_jobs`` jobs run concurrently, each in
  one executor thread that drives the ordinary harness runners — whose
  worker pools (:mod:`repro.exec.pool`) do the actual parallel
  simulation in persistent warm processes;
* the **checkpoint cache** (:mod:`repro.service.cache`): campaign jobs
  lease their workspace by spec fingerprint, so overlapping tenants
  attach to one recorded golden run instead of re-recording it;
* the **journal** (:mod:`repro.service.jobs`): every submit and state
  transition is one flushed JSONL line, replayed on startup.

Execution is **step-wise**: campaign and DSE jobs run
``step_shards`` shards at a time through the harness's own
``stop_after_shards`` + ``resume`` mechanism.  Stepping is what makes
the service honest about control: cancellation and graceful shutdown
take effect at the next step boundary, restart recovery *is* the
harness resume protocol (there is no second persistence mechanism to
diverge from it), and the results file a job leaves behind is
byte-identical to the same spec run serially through the CLI — stepping
and service scheduling never change a committed byte
(``tests/service/test_server.py``, ``make service-smoke``).

A ``kill -9`` at any moment loses at most the shard in flight: the
journal's last line says ``running``, replay re-queues the job with
``resume=True``, and the next server picks it up from the last
``shard-done`` marker.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.errors import ConfigurationError, ReproError
from repro.jobs import KINDS
from repro.obs import core as obs
from repro.obs.events import events_path
from repro.obs.log import log
from repro.service.cache import DEFAULT_CAPACITY, CheckpointCache
from repro.service.jobs import (
    Journal,
    ServiceJob,
    job_label,
    replay_journal,
    validate_job,
)
from repro.service.protocol import (
    DEFAULT_SOCKET_NAME,
    DEFAULT_STATE_DIR,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    error_response,
    ok_response,
)
from repro.service.scheduler import DEFAULT_PER_CLIENT, FairQueue
from repro.utils.jsonl import dump_line, parse_line, read_complete

#: Shards executed per job step: the granularity of cancellation,
#: drain, and fair interleaving.  Small enough that control actions
#: land quickly, big enough that step overhead (one resume scan of the
#: results file) stays negligible.
DEFAULT_STEP_SHARDS = 4

#: Watch-stream poll interval (seconds).
DEFAULT_POLL = 0.05


@dataclass(slots=True)
class ServiceConfig:
    """Everything one server instance needs to start."""

    state_dir: str = DEFAULT_STATE_DIR
    socket_path: str | None = None  # default: <state_dir>/service.sock
    host: str | None = None  # set (with port) to also listen on TCP
    port: int | None = None
    max_jobs: int = 2
    per_client: int = DEFAULT_PER_CLIENT
    cache_capacity: int = DEFAULT_CAPACITY
    step_shards: int = DEFAULT_STEP_SHARDS
    poll: float = DEFAULT_POLL

    def resolved_socket(self) -> str:
        if self.socket_path is not None:
            return self.socket_path
        return os.path.join(self.state_dir, DEFAULT_SOCKET_NAME)

    def jobs_dir(self) -> str:
        return os.path.join(self.state_dir, "jobs")

    def journal_path(self) -> str:
        return os.path.join(self.state_dir, "journal.jsonl")


class ReproService:
    """One long-lived, multi-tenant execution service."""

    def __init__(self, config: ServiceConfig):
        if config.max_jobs < 1:
            raise ConfigurationError(
                f"max_jobs must be >= 1, got {config.max_jobs}"
            )
        if config.step_shards < 1:
            raise ConfigurationError(
                f"step_shards must be >= 1, got {config.step_shards}"
            )
        self.config = config
        self.cache = CheckpointCache(capacity=config.cache_capacity)
        self.queue = FairQueue(per_client=config.per_client)
        self._jobs: dict[str, ServiceJob] = {}
        self._running: dict[str, ServiceJob] = {}
        self._tasks: dict[str, asyncio.Task] = {}
        self._cancel_events: dict[str, threading.Event] = {}
        self._next_seq = 0
        self._journal: Journal | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._servers: list[asyncio.base_events.Server] = []
        self._stop = asyncio.Event()
        self._draining = False
        self._started_t = time.time()
        self._loop: asyncio.AbstractEventLoop | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Replay the journal, bind the sockets, schedule pending work."""
        config = self.config
        os.makedirs(config.jobs_dir(), exist_ok=True)
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=config.max_jobs, thread_name_prefix="repro-job"
        )
        self._jobs, self._next_seq = replay_journal(config.journal_path())
        self._journal = Journal(config.journal_path())
        self._journal.append(
            "service-started",
            pid=os.getpid(),
            protocol=PROTOCOL_VERSION,
            jobs_known=len(self._jobs),
        )
        requeued = 0
        for job in sorted(self._jobs.values(), key=lambda item: item.seq):
            if not job.terminal:
                self.queue.push(job)
                requeued += 1
                if job.resume:
                    obs.count("service.jobs.requeued_resume")
        socket_path = config.resolved_socket()
        if hasattr(asyncio, "start_unix_server"):
            if os.path.exists(socket_path):
                os.unlink(socket_path)  # stale socket from a dead server
            self._servers.append(
                await asyncio.start_unix_server(
                    self._handle_client, path=socket_path,
                    limit=MAX_LINE_BYTES,
                )
            )
        if config.host is not None and config.port is not None:
            self._servers.append(
                await asyncio.start_server(
                    self._handle_client, host=config.host, port=config.port,
                    limit=MAX_LINE_BYTES,
                )
            )
        if not self._servers:
            raise ConfigurationError(
                "no listener: platform lacks unix sockets and no --tcp given"
            )
        log.info(
            "service listening",
            socket=socket_path,
            tcp=(f"{config.host}:{config.port}" if config.host else "off"),
            max_jobs=config.max_jobs,
            per_client=config.per_client,
            requeued=requeued,
        )
        self._schedule()

    async def main(self) -> None:
        """The blocking body of ``repro serve``: start, serve, drain."""
        await self.start()
        loop = asyncio.get_running_loop()
        try:
            import signal

            for signum in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(signum, self.request_shutdown)
        except (ImportError, NotImplementedError, RuntimeError):
            pass  # platforms without signal handlers: rely on the op
        await self._stop.wait()
        await self._drain()

    def request_shutdown(self) -> None:
        """Begin a graceful stop: no new work, running steps finish."""
        if self._draining:
            return
        self._draining = True
        log.info(
            "service draining",
            running=len(self._running),
            queued=len(self.queue),
        )
        self._stop.set()

    async def _drain(self) -> None:
        """Finish in-flight steps, close listeners, release resources.

        Running jobs are *not* journaled terminal — their last journal
        state stays ``running``/``queued``, so the next server resumes
        them.  That asymmetry is the restart contract.
        """
        for server in self._servers:
            server.close()
            await server.wait_closed()
        # In-flight steps observe the drain flag at their next boundary.
        if self._tasks:
            await asyncio.gather(
                *self._tasks.values(), return_exceptions=True
            )
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        self.cache.clear()
        if self._journal is not None:
            self._journal.close()
        socket_path = self.config.resolved_socket()
        if os.path.exists(socket_path):
            try:
                os.unlink(socket_path)
            except OSError:  # pragma: no cover - racing a new server
                pass
        log.info("service stopped")

    # ------------------------------------------------------------------
    # Scheduling and execution
    # ------------------------------------------------------------------

    def _schedule(self) -> None:
        """Fill free slots from the queue (event-loop side only)."""
        if self._draining:
            return
        while len(self._running) < self.config.max_jobs:
            job = self.queue.next(self._running.values())
            if job is None:
                return
            self._start_job(job)

    def _start_job(self, job: ServiceJob) -> None:
        job.state = "running"
        job.started_t = time.time()
        self._journal.append("job-state", id=job.id, state="running")
        obs.count("service.jobs.started")
        cancel = threading.Event()
        self._cancel_events[job.id] = cancel
        self._running[job.id] = job
        self._tasks[job.id] = self._loop.create_task(
            self._run_job(job, cancel)
        )
        log.debug("job started", id=job.id, kind=job.kind, client=job.client)

    async def _run_job(self, job: ServiceJob, cancel: threading.Event) -> None:
        try:
            state = await self._loop.run_in_executor(
                self._executor, self._execute, job, cancel
            )
        except ReproError as error:
            state = "failed"
            job.error = str(error)
        except Exception as error:  # noqa: BLE001 - a job must never kill the server
            state = "failed"
            job.error = f"{type(error).__name__}: {error}"
        self._running.pop(job.id, None)
        self._tasks.pop(job.id, None)
        self._cancel_events.pop(job.id, None)
        if state == "interrupted":
            # Drain path: leave the journal saying "running" so the next
            # server re-queues the job with resume=True.
            return
        job.state = state
        job.finished_t = time.time()
        obs.count(f"service.jobs.{state}")
        self._journal.append(
            "job-state",
            id=job.id,
            state=state,
            records_done=job.records_done,
            total=job.total,
            error=job.error,
        )
        log.info(
            "job finished",
            id=job.id,
            state=state,
            records=job.records_done,
            total=job.total,
        )
        self._schedule()

    # -- executor-thread side ------------------------------------------

    def _execute(self, job: ServiceJob, cancel: threading.Event) -> str:
        """Run one job to a terminal state (executor thread).

        The kind's run is built once per job (a campaign leases its
        workspace here and keeps one runner across steps), then driven
        ``step_shards`` shards at a time.  The first step starts fresh
        unless the job is resuming or its results file exists (restart
        recovery); later steps resume — the protocol a human kill/resume
        uses.  Kinds without shard steps run whole in one step.
        """
        kind = KINDS[job.kind]
        with obs.span("service.job"):
            step = kind.start(job.payload, lease=self.cache.lease)
            while True:
                if cancel.is_set():
                    return "cancelled"
                if self._draining:
                    return "interrupted"
                resume = job.resume or os.path.exists(job.out)
                result = step(job.out, resume, self.config.step_shards)
                job.records_done, job.total, complete = kind.progress(result)
                if complete:
                    return "done"

    # ------------------------------------------------------------------
    # The protocol front end
    # ------------------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(
                        dump_line(error_response("request too long")).encode()
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                request = parse_line(line)
                if request is None:
                    writer.write(
                        dump_line(error_response("malformed request")).encode()
                    )
                    await writer.drain()
                    continue
                if not await self._dispatch(request, writer):
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # client vanished mid-reply; nothing to clean up
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, request: dict, writer) -> bool:
        """Handle one request; return ``False`` to close the connection."""
        op = request.get("op")
        if op == "watch":
            return await self._op_watch(request, writer)
        if op == "ping":
            response = ok_response(
                pong=True,
                protocol=PROTOCOL_VERSION,
                pid=os.getpid(),
                uptime=round(time.time() - self._started_t, 3),
            )
        elif op == "submit":
            response = self._op_submit(request)
        elif op == "jobs":
            response = ok_response(
                jobs=[
                    job.status()
                    for job in sorted(
                        self._jobs.values(), key=lambda item: item.seq
                    )
                ]
            )
        elif op == "status":
            job = self._jobs.get(request.get("id"))
            response = (
                ok_response(job=job.status())
                if job is not None
                else error_response(f"unknown job {request.get('id')!r}")
            )
        elif op == "cancel":
            response = self._op_cancel(request)
        elif op == "stats":
            response = self._op_stats()
        elif op == "shutdown":
            response = ok_response(stopping=True)
        else:
            response = error_response(f"unknown op {op!r}")
        writer.write(dump_line(response).encode())
        await writer.drain()
        if op != "shutdown":
            return True
        self.request_shutdown()
        return False

    def _op_submit(self, request: dict) -> dict:
        if self._draining:
            return error_response("server is shutting down")
        try:
            payload = validate_job(request.get("job"))
        except ReproError as error:
            obs.count("service.submit.rejected")
            return error_response(str(error))
        client = str(request.get("client") or "anonymous")[:64]
        priority = request.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool):
            return error_response("priority must be an integer")
        seq = self._next_seq
        self._next_seq += 1
        job_id = f"j{seq:05d}"
        extension = KINDS[payload["kind"]].extension
        job = ServiceJob(
            id=job_id,
            client=client,
            kind=payload["kind"],
            seq=seq,
            priority=priority,
            payload=payload,
            out=os.path.join(self.config.jobs_dir(), job_id + extension),
            label=job_label(payload),
        )
        self._jobs[job_id] = job
        self.queue.push(job)
        self._journal.append("job-submitted", job=job.descriptor())
        obs.count("service.jobs.submitted")
        log.debug(
            "job submitted",
            id=job_id,
            kind=job.kind,
            client=client,
            label=job.label,
        )
        self._schedule()
        return ok_response(job=job.status())

    def _op_cancel(self, request: dict) -> dict:
        job = self._jobs.get(request.get("id"))
        if job is None:
            return error_response(f"unknown job {request.get('id')!r}")
        if job.terminal:
            return ok_response(job=job.status(), already_terminal=True)
        if self.queue.remove(job.id) is not None:
            job.state = "cancelled"
            job.finished_t = time.time()
            self._journal.append("job-state", id=job.id, state="cancelled")
            obs.count("service.jobs.cancelled")
            return ok_response(job=job.status())
        cancel = self._cancel_events.get(job.id)
        if cancel is not None:
            cancel.set()  # lands at the job's next step boundary
            return ok_response(job=job.status(), cancel_pending=True)
        return error_response(f"job {job.id} is in no cancellable state")

    def _op_stats(self) -> dict:
        from repro.exec.pool import pool_stats

        states: dict[str, int] = {}
        for job in self._jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return ok_response(
            stats={
                "uptime": round(time.time() - self._started_t, 3),
                "jobs": states,
                "queued": len(self.queue),
                "running": len(self._running),
                "max_jobs": self.config.max_jobs,
                "per_client": self.config.per_client,
                "step_shards": self.config.step_shards,
                "cache": self.cache.stats(),
                "warm_pools": len(pool_stats()),
            }
        )

    # -- watch ----------------------------------------------------------

    async def _op_watch(self, request: dict, writer) -> bool:
        job = self._jobs.get(request.get("id"))
        writer.write(dump_line(
            error_response(f"unknown job {request.get('id')!r}")
            if job is None
            else ok_response(job=job.status())
        ).encode())
        await writer.drain()
        if job is None:
            return True
        streams = []
        if KINDS[job.kind].streams:
            streams = [
                ["event", events_path(job.out), 0],
                ["record", job.out, 0],
            ]
        while True:
            terminal = job.terminal
            progressed = False
            for stream in streams:
                name, path, offset = stream
                if not os.path.exists(path):
                    continue
                for offset, data in read_complete(path, offset)[0]:
                    if data is not None:
                        progressed = True
                        writer.write(dump_line(
                            {"stream": name, "job": job.id, "data": data}
                        ).encode())
                stream[2] = offset
            if progressed:
                await writer.drain()
            if terminal and not progressed:
                break
            if self._draining and not progressed:
                break  # the follower can reconnect to the next server
            await asyncio.sleep(self.config.poll)
        writer.write(
            dump_line({"stream": "end", "job": job.status()}).encode()
        )
        await writer.drain()
        return True


def run_server(config: ServiceConfig) -> int:
    """Blocking entry point behind ``repro serve``."""
    service = ReproService(config)
    try:
        asyncio.run(service.main())
    except KeyboardInterrupt:  # pragma: no cover - signal path varies
        pass
    return 0
