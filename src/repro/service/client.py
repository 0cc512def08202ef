"""Blocking client for the service protocol.

:class:`ServiceClient` is the library behind ``repro submit`` / ``repro
jobs`` and the test/benchmark harnesses: a plain blocking socket (unix
or TCP) speaking one request line / one response line per call, plus a
generator for the streaming ``watch`` op.  It is deliberately free of
asyncio — callers are ordinary scripts, test functions, and benchmark
submitter threads, and a synchronous file-like loop is the simplest
correct thing in all three.

Connections are cheap (one unix connect per call) so the client opens a
fresh one per request by default; ``watch`` holds its connection for the
stream's lifetime.  All protocol-level failures raise
:class:`ServiceError` (a :class:`~repro.errors.ReproError`), so CLI
error handling is uniform with the rest of the tool.
"""

from __future__ import annotations

import os
import socket
import time
from typing import Iterator

from repro.errors import ReproError
from repro.service.protocol import (
    DEFAULT_SOCKET_NAME,
    DEFAULT_STATE_DIR,
    MAX_LINE_BYTES,
)
from repro.utils.jsonl import dump_line, parse_line


class ServiceError(ReproError):
    """The server answered with an error, or could not be reached."""


def default_socket_path(state_dir: str = DEFAULT_STATE_DIR) -> str:
    return os.path.join(state_dir, DEFAULT_SOCKET_NAME)


class ServiceClient:
    """Talk to a running :class:`~repro.service.server.ReproService`."""

    def __init__(
        self,
        socket_path: str | None = None,
        host: str | None = None,
        port: int | None = None,
        client: str = "anonymous",
        timeout: float = 30.0,
    ):
        if socket_path is None and host is None:
            socket_path = default_socket_path()
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.client = client
        self.timeout = timeout

    # ------------------------------------------------------------------

    def _connect(self) -> socket.socket:
        try:
            if self.host is not None:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
            else:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(self.timeout)
                sock.connect(self.socket_path)
        except OSError as error:
            target = (
                f"{self.host}:{self.port}"
                if self.host is not None
                else self.socket_path
            )
            raise ServiceError(
                f"cannot reach service at {target}: {error}"
            ) from error
        return sock

    @staticmethod
    def _read_line(handle) -> dict:
        line = handle.readline(MAX_LINE_BYTES + 1)
        if not line:
            raise ServiceError("connection closed by server")
        data = parse_line(line)
        if data is None:
            raise ServiceError(f"malformed server reply: {line[:80]!r}")
        return data

    def request(self, op: str, **fields) -> dict:
        """One op, one reply; raises :class:`ServiceError` on ``ok: false``."""
        with self._connect() as sock:
            sock.sendall(dump_line({"op": op, **fields}).encode())
            with sock.makefile("rb") as handle:
                response = self._read_line(handle)
        if not response.get("ok"):
            raise ServiceError(
                response.get("error") or f"op {op!r} failed"
            )
        return response

    # ------------------------------------------------------------------
    # Convenience wrappers (one per protocol op)
    # ------------------------------------------------------------------

    def ping(self) -> dict:
        return self.request("ping")

    def submit(self, job: dict, priority: int = 0) -> dict:
        """Submit a job payload; returns the assigned job status."""
        return self.request(
            "submit", job=job, client=self.client, priority=priority
        )["job"]

    def jobs(self) -> list[dict]:
        return self.request("jobs")["jobs"]

    def status(self, job_id: str) -> dict:
        return self.request("status", id=job_id)["job"]

    def cancel(self, job_id: str) -> dict:
        return self.request("cancel", id=job_id)

    def stats(self) -> dict:
        return self.request("stats")["stats"]

    def shutdown(self) -> dict:
        return self.request("shutdown")

    def watch(self, job_id: str) -> Iterator[dict]:
        """Stream a job's live lines until its ``{"stream": "end"}``.

        Yields the raw stream lines: ``{"stream": "event"|"record",
        "job": id, "data": {...}}`` then one ``{"stream": "end", "job":
        {...final status...}}``.
        """
        with self._connect() as sock:
            sock.sendall(dump_line({"op": "watch", "id": job_id}).encode())
            with sock.makefile("rb") as handle:
                header = self._read_line(handle)
                if not header.get("ok"):
                    raise ServiceError(
                        header.get("error") or f"watch {job_id!r} failed"
                    )
                while True:
                    data = self._read_line(handle)
                    yield data
                    if data.get("stream") == "end":
                        return

    def wait(
        self, job_id: str, timeout: float = 300.0, poll: float = 0.05
    ) -> dict:
        """Poll ``status`` until the job is terminal; return final status."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] in ("done", "failed", "cancelled"):
                return status
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"timed out after {timeout}s waiting for job {job_id} "
                    f"(state={status['state']})"
                )
            time.sleep(poll)
