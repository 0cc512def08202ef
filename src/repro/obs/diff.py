"""Cross-run regression diffs: ``repro stats diff A B [--gate pct]``.

Until now the repo accumulated performance artifacts (``*.metrics.json``
per run, committed ``results/BENCH_*.json`` per benchmark module) with
no comparator — run-over-run drift was invisible.  This module is the
comparator: load two artifacts of the same family, extract their
directional metrics, and report each one's signed regression percentage,
with an optional gate that turns "it got ≥ N% worse" into exit code 1.

Extracted metrics
-----------------

From a **metrics** artifact (``type: "metrics"``):

* ``wall_seconds`` (lower is better) and the ``run.records_per_second``
  gauge (higher is better) — the headline pair;
* cache-hit rates derived from counters (``measure_cache.*`` and pool
  ``build``/``reuse``; higher is better);
* every direct child of the ``run`` span as a *share* of the run
  (informational: shares shift for good and bad reasons, so they are
  reported but never gated).

From a **bench** artifact (``results.<test>`` objects): every numeric
leaf, flattened to dotted names.  ``*seconds*`` leaves are
lower-is-better, ``*per_second*``/``*rate*``/``*speedup*`` leaves are
higher-is-better, anything else is informational.

Regression is always signed **toward worse**: positive means B regressed
relative to A in the metric's own direction, so a single ``--gate``
percentage covers both families.  A self-diff is all-zero and exits 0 —
the ``make trace-smoke`` invariant.

Only comparable runs are compared: two metrics artifacts whose manifests
differ in any of :data:`COMPARABLE_KEYS` (a golden campaign against a
pipeline-golden one, sha against bitcount), or two bench artifacts of
different ``benchmark`` modules, are refused with the differing key
named.  A key absent from both sides is not compared.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Senses a metric can have: gated directions, or report-only.
LOWER, HIGHER, INFO = "lower", "higher", "info"

#: Metrics-manifest keys on which two comparable runs agree.
COMPARABLE_KEYS = ("kind", "backend", "workload", "scale", "fingerprint")

#: Counter pairs whose hit rate is a gated higher-is-better metric.
_RATE_COUNTERS = (
    ("measure_cache_hit_rate", "measure_cache.hit", "measure_cache.miss"),
    ("pool_reuse_rate", "pool.reuse", "pool.build"),
)


@dataclass(slots=True)
class DiffRow:
    """One compared metric: values on both sides and the signed drift."""

    name: str
    sense: str
    a: float | None
    b: float | None

    @property
    def regression_pct(self) -> float | None:
        """Drift of B vs A, signed so positive = worse; ``None`` when
        either side is missing or the sense is informational."""
        if self.a is None or self.b is None or self.sense == INFO:
            return None
        if self.a == 0:
            if self.b == 0:
                return 0.0
            # Appearing from zero: infinitely worse for lower-is-better,
            # infinitely better (negative) for higher-is-better.
            return math.inf if self.sense == LOWER else -math.inf
        drift = (self.b - self.a) / abs(self.a) * 100.0
        # + 0.0 normalizes the -0.0 a negated zero drift would yield.
        return (drift if self.sense == LOWER else -drift) + 0.0


@dataclass(slots=True)
class DiffReport:
    """Every compared metric plus the headline worst regression."""

    kind: str
    a_path: str
    b_path: str
    rows: list[DiffRow]

    @property
    def worst(self) -> float:
        """The largest signed regression across gated rows (0.0 if none)."""
        worst = 0.0
        for row in self.rows:
            pct = row.regression_pct
            if pct is not None and pct > worst:
                worst = pct
        return worst

    def gated(self, gate: float) -> list[DiffRow]:
        """Rows whose regression meets or exceeds *gate* percent."""
        return [
            row
            for row in self.rows
            if row.regression_pct is not None and row.regression_pct >= gate
        ]


def load_artifact(path: str | os.PathLike) -> tuple[str, dict]:
    """``(family, payload)`` for a metrics or bench artifact.

    The family is sniffed from the payload, not the filename, so renamed
    copies (``PREV_BENCH_*.json``) diff fine.
    """
    target = os.fspath(path)
    with open(target, encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except ValueError as error:  # JSONDecodeError, UnicodeDecodeError
            raise ConfigurationError(f"{target}: not JSON ({error})") from None
    if isinstance(payload, dict) and payload.get("type") == "metrics":
        return "metrics", payload
    if isinstance(payload, dict) and "benchmark" in payload and "results" in payload:
        return "bench", payload
    raise ConfigurationError(
        f"{target}: not a *.metrics.json or BENCH_*.json artifact"
    )


def _flatten(prefix: str, value, out: dict[str, float]) -> None:
    """Numeric leaves of nested dicts as dotted names (bools excluded)."""
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        out[prefix] = float(value)
    elif isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else str(key), value[key], out)


def _bench_sense(name: str) -> str:
    leaf = name.rsplit(".", 1)[-1].lower()
    if "per_second" in leaf or "rate" in leaf or "speedup" in leaf:
        return HIGHER
    if "seconds" in leaf:
        return LOWER
    return INFO


def _extract_bench(payload: dict) -> dict[str, tuple[float, str]]:
    flat: dict[str, float] = {}
    _flatten("", payload.get("results", {}), flat)
    return {name: (value, _bench_sense(name)) for name, value in flat.items()}


def _extract_metrics(payload: dict) -> dict[str, tuple[float, str]]:
    metrics: dict[str, tuple[float, str]] = {}
    wall = payload.get("wall_seconds")
    if isinstance(wall, (int, float)) and not isinstance(wall, bool):
        metrics["wall_seconds"] = (float(wall), LOWER)
    telemetry = payload.get("telemetry", {})
    rate = telemetry.get("gauges", {}).get("run.records_per_second")
    if isinstance(rate, (int, float)) and not isinstance(rate, bool):
        metrics["records_per_second"] = (float(rate), HIGHER)
    counters = telemetry.get("counters", {})
    for name, hit_key, miss_key in _RATE_COUNTERS:
        hits = counters.get(hit_key, 0)
        misses = counters.get(miss_key, 0)
        if hits + misses > 0:
            metrics[name] = (hits / (hits + misses), HIGHER)
    spans = telemetry.get("spans", {})
    run = spans.get("run", {}).get("seconds", 0.0)
    if run > 0:
        for path in sorted(spans):
            if path.startswith("run/") and "/" not in path[len("run/"):]:
                metrics[f"span_share:{path}"] = (
                    spans[path]["seconds"] / run,
                    INFO,
                )
    return metrics


def diff_artifacts(
    a_path: str | os.PathLike, b_path: str | os.PathLike
) -> DiffReport:
    """Compare two artifacts of the same family; see the module docstring."""
    a_kind, a_payload = load_artifact(a_path)
    b_kind, b_payload = load_artifact(b_path)
    if a_kind != b_kind:
        raise ConfigurationError(
            f"cannot diff {a_kind} artifact {os.fspath(a_path)} against "
            f"{b_kind} artifact {os.fspath(b_path)}"
        )
    if a_kind == "metrics":
        a_side = a_payload.get("manifest", {})
        b_side = b_payload.get("manifest", {})
        keys = COMPARABLE_KEYS
    else:
        a_side, b_side, keys = a_payload, b_payload, ("benchmark",)
    for key in keys:
        if (key in a_side or key in b_side) and a_side.get(key) != b_side.get(key):
            raise ConfigurationError(
                f"cannot diff {os.fspath(a_path)} against {os.fspath(b_path)}: "
                f"the runs differ in {key} ({a_side.get(key)!r} vs "
                f"{b_side.get(key)!r})"
            )
    extract = _extract_metrics if a_kind == "metrics" else _extract_bench
    a_metrics = extract(a_payload)
    b_metrics = extract(b_payload)
    rows = [
        DiffRow(
            name=name,
            sense=a_metrics.get(name, b_metrics.get(name))[1],
            a=a_metrics[name][0] if name in a_metrics else None,
            b=b_metrics[name][0] if name in b_metrics else None,
        )
        for name in sorted(set(a_metrics) | set(b_metrics))
    ]
    return DiffReport(
        kind=a_kind,
        a_path=os.fspath(a_path),
        b_path=os.fspath(b_path),
        rows=rows,
    )


def _format_value(value: float | None) -> str:
    return "-" if value is None else f"{value:.6g}"


def render_diff(report: DiffReport, gate: float | None = None) -> str:
    """The diff as an aligned table, worst offenders marked."""
    lines = [
        f"{report.kind} diff: A={report.a_path}  B={report.b_path}",
        f"{'metric':<44} {'A':>12} {'B':>12} {'regression':>11}",
    ]
    for row in report.rows:
        pct = row.regression_pct
        if pct is None:
            drift = "(info)" if row.sense == INFO else "(one side)"
        else:
            drift = f"{pct:+.1f}%"
        marker = ""
        if gate is not None and pct is not None and pct >= gate:
            marker = f"  !! >= {gate:g}% gate"
        lines.append(
            f"{row.name:<44} {_format_value(row.a):>12} "
            f"{_format_value(row.b):>12} {drift:>11}{marker}"
        )
    worst = report.worst
    verdict = f"worst regression: {worst:+.1f}%"
    if gate is not None:
        verdict += (
            f" (gate {gate:g}%: {'FAIL' if worst >= gate else 'ok'})"
        )
    lines.append(verdict)
    return "\n".join(lines)
