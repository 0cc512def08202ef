"""The service wire format: line-delimited JSON over a stream socket.

Requests and responses are single ``\\n``-terminated JSON objects,
framed by :func:`repro.utils.jsonl.dump_line` and parsed by
:func:`repro.utils.jsonl.parse_line` — the framing of the results JSONL
and the event logs, chosen for the same reason: a torn line (client
killed mid-send, server killed mid-reply) damages at most itself, and
every surviving line parses.  A connection is a sequence of
request/response exchanges; the ``watch`` operation is the one
exception, answering with a *stream* of lines that ends with a
``{"stream": "end", ...}`` sentinel, after which the connection is again
request-ready.

Operations (the ``op`` field of a request)
    ``ping``
        Liveness probe; answers with the server's identity and uptime.
    ``submit``
        Validate a job descriptor (:func:`repro.service.jobs.
        validate_job`) and enqueue it; answers with the assigned job id
        and its queued status.
    ``jobs``
        All jobs the server knows (journal-replayed ones included).
    ``status``
        One job's status by id.
    ``cancel``
        Cancel a job: queued jobs cancel immediately, running jobs stop
        at the next shard-step boundary.
    ``watch``
        Subscribe to a job: the server streams the job's live
        ``*.events.jsonl`` lines (``{"stream": "event", ...}``) and
        results JSONL lines (``{"stream": "record", ...}``) as they are
        committed, ending with ``{"stream": "end", "job": {...}}`` when
        the job reaches a terminal state.
    ``stats``
        Server statistics: job counts by state, checkpoint-cache
        hits/misses/evictions/bytes, uptime.
    ``shutdown``
        Stop the server.  Running jobs stay journaled as ``running``;
        the next ``repro serve`` re-enters the harness resume protocol
        and finishes them.

Every response carries ``"ok": true`` or ``"ok": false`` plus
``"error": str`` — clients never need to guess whether a reply is an
error.  Unknown operations and malformed lines answer with an error
response rather than dropping the connection.
"""

from __future__ import annotations

#: Default service state directory (relative to the working directory):
#: job journal, unix socket, and per-job results files live here.  Kept
#: out of ``results/`` so committed artifacts and run-local service
#: state never mix; ``.gitignore`` excludes it wholesale.
DEFAULT_STATE_DIR = ".repro-service"

#: The unix socket's file name inside the state directory.
DEFAULT_SOCKET_NAME = "service.sock"

#: Protocol revision, echoed by ``ping`` and stamped into journals so a
#: future incompatible change can be refused instead of misparsed.
PROTOCOL_VERSION = 1

#: Upper bound on one request line; a client sending more is answered
#: with an error and disconnected (malice or corruption, not workload).
MAX_LINE_BYTES = 1 << 20


def ok_response(**fields) -> dict:
    """A success response envelope."""
    return {"ok": True, **fields}


def error_response(message: str, **fields) -> dict:
    """A failure response envelope; *message* is human-readable."""
    return {"ok": False, "error": message, **fields}
