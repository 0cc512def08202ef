"""`repro.service` — campaign-as-a-service: the long-lived execution tier.

The harness (:mod:`repro.exec.harness`) already owns the hard parts of a
job system — sharding, commit markers, kill/resume, worker invariance,
live event streams — but every experiment still starts and dies with one
CLI invocation.  This package wraps that machinery in a **multi-tenant
job server**, the shape the ROADMAP's "heavy traffic from millions of
users" north star actually requires:

:mod:`repro.service.protocol`
    The wire format: line-delimited JSON over a unix or TCP socket, one
    request/response (or response stream) per line.
:mod:`repro.service.jobs`
    The job model: job descriptors validated through the four kinds'
    descriptions (:mod:`repro.jobs`), the append-only crash-tolerant
    job **journal** the server replays on restart, and job lifecycle
    states.
:mod:`repro.service.scheduler`
    The fair multi-tenant queue: per-client concurrency caps, integer
    priorities, FIFO tiebreak, cancellation.
:mod:`repro.service.cache`
    The content-addressed **checkpoint cache**: campaign workspaces
    (golden checkpoint stores) keyed by the campaign spec fingerprint —
    (workload, config, scale) — recorded once and leased, as the same
    object, to every overlapping tenant instead of re-recorded, with
    LRU eviction and hit/miss telemetry in :mod:`repro.obs`.
:mod:`repro.service.server`
    The asyncio server: accepts jobs, schedules shard *steps* across
    the persistent :mod:`repro.exec.pool` worker fleet, streams JSONL
    records and :mod:`repro.obs.events` lines to subscribed clients,
    journals state transitions, and re-enters the harness resume
    protocol after any restart — graceful or ``kill -9``.
:mod:`repro.service.client`
    The blocking client behind ``repro submit`` / ``repro jobs``,
    benchmarks, and tests.

Everything is stdlib-only, and the results artifacts a job leaves behind
are byte-identical to the same spec run serially through the CLI —
pinned by ``tests/service/`` and ``make service-smoke``.  See
``docs/SERVICE.md`` for the protocol, job lifecycle, cache keying, and
restart semantics.
"""
