"""Benchmark support.

Every harness writes its rendered table under ``results/`` so the
regenerated paper artifacts are inspectable files, and every benchmark
module accumulates a machine-readable ``results/BENCH_<module>.json`` —
seconds per test plus whatever key stats the test adds via
``record_bench`` — so the performance trajectory is trackable across PRs
with ``git diff``-able artifacts.  ``seconds`` is the time of the work
the test measures when the test records it (a module fixture's
measurement pass, one timed call of a micro-benchmark), else the test's
own wall-clock duration.

Every BENCH file carries a ``manifest`` block (host, effective cores,
Python — :func:`repro.obs.metrics.environment`) so a committed number is
never divorced from the machine that produced it, and conforms to
:data:`repro.obs.schema.BENCH_SCHEMA` (pinned for every committed file
by ``tests/obs/test_schema.py``).
"""

from __future__ import annotations

import json
import pathlib
import time

import pytest

from repro.obs.log import log
from repro.obs.metrics import environment

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

#: One manifest per session: the numbers in a file were measured together.
MANIFEST = environment()


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def save_result(results_dir):
    """Write a rendered table to results/<name>.txt (and echo it)."""

    def writer(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}")
        log.info(f"saved {name} table", path=str(path))

    return writer


@pytest.fixture(scope="session")
def _bench_json_reset() -> set:
    """Paths already rewritten this session (stale entries dropped once)."""
    return set()


@pytest.fixture
def record_bench(results_dir, request, _bench_json_reset):
    """Merge stats for this test into results/BENCH_<module>.json.

    Call as ``record_bench(faults_per_second=123.4, ...)``; values must be
    JSON-serializable.  Repeated calls merge keys.  The autouse timer
    below contributes the ``seconds`` key for every benchmark test that
    did not record its own, so modules that have nothing extra to report
    still emit their file.

    Each module's file starts fresh on its first write of a session, so
    renamed or deleted tests cannot leave stale entries behind, and a
    truncated file from a killed run is simply overwritten.
    """
    module = request.module.__name__
    path = results_dir / f"BENCH_{module}.json"
    recorded: set[str] = set()

    def recorder(**stats) -> None:
        recorded.update(stats)
        payload = {"benchmark": module, "results": {}}
        if path in _bench_json_reset and path.exists():
            try:
                payload = json.loads(path.read_text())
            except json.JSONDecodeError:
                pass  # torn file from an interrupted run: start fresh
        elif path.exists():
            # First write of the session overwrites the committed
            # numbers; stash them so `make bench-gate` can diff the
            # fresh file against them (`repro stats diff`).  PREV_ files
            # stay untracked: the BENCH_ gitignore negation skips them.
            (results_dir / f"PREV_{path.name}").write_text(path.read_text())
        _bench_json_reset.add(path)
        # Provenance: which host measured the numbers in this file.
        payload["manifest"] = MANIFEST
        entry = payload["results"].setdefault(request.node.name, {})
        entry.update(stats)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    #: Keys this test recorded so far.
    recorder.recorded = recorded
    return recorder


@pytest.fixture(autouse=True)
def _record_bench_seconds(record_bench):
    """Record every benchmark test's wall-clock duration, unless the test
    recorded the seconds of the work it measures itself."""
    start = time.perf_counter()
    yield
    if "seconds" not in record_bench.recorded:
        record_bench(seconds=round(time.perf_counter() - start, 4))
