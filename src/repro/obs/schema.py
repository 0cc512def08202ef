"""Minimal JSON-schema validation for committed result artifacts.

Several artifact families leave the execution tier as JSON: the per-run
``*.metrics.json`` telemetry files (:mod:`repro.obs.metrics`), the live
``*.events.jsonl`` event logs (:mod:`repro.obs.events`), exported
Chrome/Perfetto traces (:mod:`repro.obs.trace`), committed
``results/coverage/*.json`` matrices, and the committed
``results/BENCH_*.json`` benchmark records.  All are checked against
schemas here — by ``repro stats --check``, by ``make obs-smoke`` /
``make trace-smoke``, and by ``tests/obs/test_schema.py`` over every
committed file — so a malformed artifact fails loudly instead of
silently rotting.

The validator supports the JSON-schema subset these artifacts need
(``type`` including lists of types, ``properties``, ``required``,
``additionalProperties`` as a schema or ``False``, ``items``, ``enum``,
``minimum``) with **no external dependency**: the container bakes in the
Python toolchain only, so the checker is ~60 lines of recursion rather
than a ``jsonschema`` install.
"""

from __future__ import annotations

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "null": type(None),
}


def _type_ok(instance, name: str) -> bool:
    expected = _TYPES[name]
    if name in ("integer", "number") and isinstance(instance, bool):
        return False
    return isinstance(instance, expected)


def validate(instance, schema: dict, path: str = "$") -> list[str]:
    """Validate *instance* against *schema*; return human-readable errors.

    An empty list means the instance conforms.  Errors name the failing
    path (``$.results.test_x.seconds``) so artifact regressions are
    one-glance diagnosable.
    """
    errors: list[str] = []
    declared = schema.get("type")
    if declared is not None:
        names = declared if isinstance(declared, list) else [declared]
        if not any(_type_ok(instance, name) for name in names):
            errors.append(
                f"{path}: expected {' or '.join(names)}, "
                f"got {type(instance).__name__}"
            )
            return errors
    if "enum" in schema and instance not in schema["enum"]:
        errors.append(f"{path}: {instance!r} not one of {schema['enum']!r}")
    minimum = schema.get("minimum")
    if minimum is not None and isinstance(instance, (int, float)):
        if not isinstance(instance, bool) and instance < minimum:
            errors.append(f"{path}: {instance!r} is below minimum {minimum}")
    if isinstance(instance, dict):
        for key in schema.get("required", ()):
            if key not in instance:
                errors.append(f"{path}: missing required key {key!r}")
        properties = schema.get("properties", {})
        additional = schema.get("additionalProperties", True)
        for key, value in instance.items():
            child_path = f"{path}.{key}"
            if key in properties:
                errors.extend(validate(value, properties[key], child_path))
            elif additional is False:
                errors.append(f"{path}: unexpected key {key!r}")
            elif isinstance(additional, dict):
                errors.extend(validate(value, additional, child_path))
    if isinstance(instance, list) and "items" in schema:
        for index, value in enumerate(instance):
            errors.extend(validate(value, schema["items"], f"{path}[{index}]"))
    return errors


#: One accumulated statistic kind inside a metrics payload.
_SPAN_SCHEMA = {
    "type": "object",
    "required": ["count", "seconds"],
    "properties": {
        "count": {"type": "integer", "minimum": 1},
        "seconds": {"type": "number", "minimum": 0},
    },
}

_HISTOGRAM_SCHEMA = {
    "type": "object",
    "required": ["count", "sum", "min", "max"],
    "properties": {
        "count": {"type": "integer", "minimum": 1},
        "sum": {"type": "number"},
        "min": {"type": "number"},
        "max": {"type": "number"},
        "buckets": {"type": "object", "additionalProperties": {"type": "integer"}},
    },
}

_TELEMETRY_SCHEMA = {
    "type": "object",
    "properties": {
        "counters": {"type": "object", "additionalProperties": {"type": "integer"}},
        "gauges": {"type": "object", "additionalProperties": {"type": "number"}},
        "histograms": {
            "type": "object", "additionalProperties": _HISTOGRAM_SCHEMA
        },
        "spans": {"type": "object", "additionalProperties": _SPAN_SCHEMA},
    },
    "additionalProperties": False,
}

#: Schema of one ``<run>.metrics.json`` artifact.
METRICS_SCHEMA = {
    "type": "object",
    "required": ["type", "version", "manifest", "wall_seconds", "telemetry"],
    "properties": {
        "type": {"enum": ["metrics"]},
        "version": {"type": "integer", "minimum": 1},
        "manifest": {
            "type": "object",
            "required": [
                "host", "python", "effective_cores", "workers",
                "chunk_size", "kind", "seed", "total",
            ],
            "properties": {
                "host": {"type": "string"},
                "platform": {"type": "string"},
                "python": {"type": "string"},
                "effective_cores": {"type": "integer", "minimum": 1},
                "cpu_count": {"type": "integer", "minimum": 1},
                "workers": {"type": "integer", "minimum": 1},
                "chunk_size": {"type": "integer", "minimum": 1},
                "kind": {"type": "string"},
                "seed": {"type": "integer"},
                "total": {"type": "integer", "minimum": 0},
                "version": {"type": "integer"},
                "fingerprint": {"type": ["string", "null"]},
                "backend": {"type": ["string", "null"]},
                "batch_size": {"type": ["integer", "null"]},
                "share": {"type": "boolean"},
                "resumed": {"type": "boolean"},
                "created": {"type": "string"},
                "out": {"type": "string"},
            },
        },
        "wall_seconds": {"type": "number", "minimum": 0},
        "telemetry": _TELEMETRY_SCHEMA,
        "shards": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["shard", "worker", "seconds", "records"],
                "properties": {
                    "shard": {"type": "integer", "minimum": 0},
                    "worker": {"type": "integer"},
                    "seconds": {"type": "number", "minimum": 0},
                    "records": {"type": "integer", "minimum": 0},
                    "telemetry": _TELEMETRY_SCHEMA,
                },
            },
        },
    },
}

#: Schema of one committed ``results/BENCH_<module>.json`` artifact.
BENCH_SCHEMA = {
    "type": "object",
    "required": ["benchmark", "results"],
    "properties": {
        "benchmark": {"type": "string"},
        "results": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["seconds"],
                "properties": {"seconds": {"type": "number", "minimum": 0}},
            },
        },
        "manifest": {
            "type": "object",
            "required": ["host", "python", "effective_cores"],
            "properties": {
                "host": {"type": "string"},
                "platform": {"type": "string"},
                "python": {"type": "string"},
                "effective_cores": {"type": "integer", "minimum": 1},
                "cpu_count": {"type": "integer", "minimum": 1},
                "created": {"type": "string"},
            },
        },
    },
}


#: One cell of a committed coverage matrix (``results/coverage/*.json``).
_COVERAGE_CELL_SCHEMA = {
    "type": "object",
    "required": [
        "workload", "subject", "hash", "policy", "total", "outcomes",
        "detection_rate", "latency_histogram", "escapes",
    ],
    "additionalProperties": False,
    "properties": {
        "workload": {"type": "string"},
        "subject": {"type": "string"},
        "hash": {"type": "string"},
        "policy": {"type": "string"},
        "total": {"type": "integer", "minimum": 0},
        "outcomes": {
            "type": "object",
            "additionalProperties": {"type": "integer", "minimum": 0},
        },
        "detection_rate": {"type": "number", "minimum": 0},
        "latency_histogram": {
            "type": "object",
            "additionalProperties": {"type": "integer", "minimum": 1},
        },
        "escapes": {"type": "array", "items": {"type": "string"}},
    },
}

#: Schema of one committed ``results/coverage/*.json`` ground-truth matrix.
COVERAGE_SCHEMA = {
    "type": "object",
    "required": ["type", "version", "spec", "manifest", "cells"],
    "additionalProperties": False,
    "properties": {
        "type": {"enum": ["coverage"]},
        "version": {"type": "integer", "minimum": 1},
        "spec": {
            "type": "object",
            "required": [
                "name", "kind", "scale", "workloads", "hash_names",
                "policy_names", "iht_size", "backend", "classes", "seed",
            ],
            "properties": {
                "name": {"type": "string"},
                "kind": {"enum": ["pairs", "attacks"]},
                "scale": {"type": "string"},
                "workloads": {"type": "array", "items": {"type": "string"}},
                "source": {"type": ["string", "null"]},
                "source_name": {"type": ["string", "null"]},
                "hash_names": {"type": "array", "items": {"type": "string"}},
                "policy_names": {"type": "array", "items": {"type": "string"}},
                "iht_size": {"type": "integer", "minimum": 1},
                "backend": {"type": "string"},
                "classes": {"type": "array", "items": {"type": "string"}},
                "seed": {"type": "integer"},
            },
        },
        "manifest": {
            "type": "object",
            "required": [
                "host", "python", "effective_cores", "fingerprint",
                "total_injections", "wall_seconds", "workers",
            ],
            "properties": {
                "host": {"type": "string"},
                "platform": {"type": "string"},
                "python": {"type": "string"},
                "effective_cores": {"type": "integer", "minimum": 1},
                "cpu_count": {"type": "integer", "minimum": 1},
                "created": {"type": "string"},
                "fingerprint": {"type": "string"},
                "total_injections": {"type": "integer", "minimum": 0},
                "wall_seconds": {"type": "number", "minimum": 0},
                "workers": {"type": "integer", "minimum": 1},
            },
        },
        "cells": {"type": "array", "items": _COVERAGE_CELL_SCHEMA},
    },
}


#: One line of a ``*.events.jsonl`` live event log (:mod:`repro.obs.events`).
#: Kind-specific fields (shard, worker, throughput, ...) are additional
#: properties on purpose — the envelope (type/seq/t) is the contract.
_EVENT_SCHEMA = {
    "type": "object",
    "required": ["type", "seq", "t"],
    "properties": {
        "type": {
            "enum": [
                "run-started", "resume", "torn-marker", "shard-committed",
                "worker-heartbeat", "run-finished",
            ],
        },
        "seq": {"type": "integer", "minimum": 0},
        "t": {"type": "number", "minimum": 0},
    },
}

#: Schema of a parsed event log: the list :func:`repro.obs.events.
#: read_events` returns.
EVENTS_SCHEMA = {"type": "array", "items": _EVENT_SCHEMA}

#: One Chrome/Perfetto ``trace_event``.  ``ph`` is the phase letter —
#: this exporter emits ``X`` (complete), ``C`` (counter), ``i``
#: (instant), and ``M`` (metadata); viewers ignore letters they don't
#: know, so the enum is the exporter's vocabulary, not the format's.
_TRACE_EVENT_SCHEMA = {
    "type": "object",
    "required": ["name", "ph", "ts", "pid", "tid"],
    "properties": {
        "name": {"type": "string"},
        "ph": {"enum": ["X", "C", "i", "M"]},
        "ts": {"type": "number", "minimum": 0},
        "dur": {"type": "number", "minimum": 0},
        "pid": {"type": "integer"},
        "tid": {"type": "integer"},
        "cat": {"type": "string"},
        "s": {"enum": ["g", "p", "t"]},
        "args": {"type": "object"},
    },
}

#: Schema of one exported Chrome/Perfetto trace (``repro stats
#: --export-trace``): the JSON-object form of the trace_event format.
TRACE_SCHEMA = {
    "type": "object",
    "required": ["traceEvents"],
    "properties": {
        "traceEvents": {"type": "array", "items": _TRACE_EVENT_SCHEMA},
        "displayTimeUnit": {"enum": ["ms", "ns"]},
        "otherData": {"type": "object"},
    },
}


def validate_metrics(data) -> list[str]:
    """Errors of a metrics payload against :data:`METRICS_SCHEMA`."""
    return validate(data, METRICS_SCHEMA)


def validate_events(data) -> list[str]:
    """Errors of a parsed event log against :data:`EVENTS_SCHEMA`.

    Beyond the per-event shape, the log-level invariants the writer
    maintains are checked too: strictly increasing ``seq`` and
    non-decreasing ``t``.
    """
    errors = validate(data, EVENTS_SCHEMA)
    if not isinstance(data, list):
        return errors
    last_seq = None
    last_t = None
    for index, event in enumerate(data):
        if not isinstance(event, dict):
            continue
        seq, t = event.get("seq"), event.get("t")
        if isinstance(seq, int) and not isinstance(seq, bool):
            if last_seq is not None and seq <= last_seq:
                errors.append(
                    f"$[{index}]: seq {seq} not greater than previous {last_seq}"
                )
            last_seq = seq
        if isinstance(t, (int, float)) and not isinstance(t, bool):
            if last_t is not None and t < last_t:
                errors.append(
                    f"$[{index}]: t {t} decreases from previous {last_t}"
                )
            last_t = t
    return errors


def validate_trace(data) -> list[str]:
    """Errors of an exported trace against :data:`TRACE_SCHEMA`."""
    return validate(data, TRACE_SCHEMA)


def validate_bench(data) -> list[str]:
    """Errors of a benchmark record against :data:`BENCH_SCHEMA`."""
    return validate(data, BENCH_SCHEMA)


def validate_coverage(data) -> list[str]:
    """Errors of a coverage matrix against :data:`COVERAGE_SCHEMA`."""
    return validate(data, COVERAGE_SCHEMA)
