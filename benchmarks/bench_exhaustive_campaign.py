"""Exhaustive single-bit coverage at ``default`` scale — no sampling.

The paper's §6.3 argument is absolute: *every* single-bit modification
of an executed instruction word flips the XOR checksum (odd-weight error
patterns always do), so coverage over executed code is 100% by
construction.  Until the golden backend and the hang early-exit detector
landed, measuring that claim without sampling was an overnight job —
every one of ``32 × executed_words`` injections re-simulated the whole
workload, and hang outcomes burned a 20× instruction budget each.  On
the forked golden substrate the **entire** exhaustive campaign runs in
seconds, so this benchmark commits the unsampled coverage numbers:

* every single-bit flip of every executed word, per workload, at
  ``default`` scale, via the ``exhaustive-single-bit`` campaign preset
  (``repro campaign <w> --preset exhaustive-single-bit``);
* the §6.3 claim asserted exactly: **zero** silent corruptions and zero
  benign outcomes — every injection is detected (CIC or baseline
  machine check);
* throughput (faults/second), recorded into
  ``results/BENCH_bench_exhaustive_campaign.json`` for trend tracking.
"""

import time

from repro.exec import CampaignRunner, CampaignSpec, get_campaign_preset
from repro.faults.campaign import Outcome
from repro.utils.tables import TextTable

PRESET = get_campaign_preset("exhaustive-single-bit")
WORKLOADS = ("bitcount", "dijkstra", "sha")
SEED = 42
WORKERS = 2


def test_exhaustive_single_bit_default_scale(save_result, record_bench):
    assert PRESET.scale == "default"
    assert PRESET.backend == "golden"
    table = TextTable(
        [
            "workload", "executed words", "faults", "cic", "baseline",
            "hang", "silent", "benign", "coverage %", "seconds", "faults/s",
        ],
        title=(
            "Exhaustive single-bit campaigns — every flip of every executed "
            f"word @ default scale, golden backend, {WORKERS} workers"
        ),
    )
    stats = {}
    for workload in WORKLOADS:
        spec = CampaignSpec(
            workload=workload, scale=PRESET.scale, backend=PRESET.backend
        )
        runner = CampaignRunner(spec, workers=WORKERS, chunk_size=256)
        faults = PRESET.faults(runner.campaign, seed=SEED)
        executed = len(runner.campaign.context.executed_addresses)
        assert len(faults) == 32 * executed

        start = time.perf_counter()
        result = runner.run(faults, seed=SEED)
        elapsed = time.perf_counter() - start
        assert result.complete

        report = result.report()
        counts = report.counts()
        # The §6.3 claim, unsampled: single-bit faults in executed code
        # never escape — no silent corruption, nothing benign.
        assert counts[Outcome.SDC] == 0, (workload, counts)
        assert counts[Outcome.BENIGN] == 0, (workload, counts)
        assert report.detection_rate == 1.0, (workload, counts)

        table.add_row(
            [
                workload,
                executed,
                report.total,
                counts[Outcome.DETECTED_CIC],
                counts[Outcome.DETECTED_BASELINE],
                counts[Outcome.HANG],
                counts[Outcome.SDC],
                counts[Outcome.BENIGN],
                f"{100 * report.detection_rate:.1f}",
                f"{elapsed:.2f}",
                f"{report.total / elapsed:.0f}",
            ]
        )
        stats[workload] = {
            "executed_words": executed,
            "faults": report.total,
            "detected_cic": counts[Outcome.DETECTED_CIC],
            "detected_baseline": counts[Outcome.DETECTED_BASELINE],
            "hang": counts[Outcome.HANG],
            "coverage": report.detection_rate,
            "seconds": round(elapsed, 4),
            "faults_per_second": round(report.total / elapsed, 2),
        }
    save_result("exhaustive_single_bit", table.render())
    record_bench(
        preset=PRESET.name,
        scale=PRESET.scale,
        backend=PRESET.backend,
        workers=WORKERS,
        per_workload=stats,
        total_faults=sum(entry["faults"] for entry in stats.values()),
    )
