#!/usr/bin/env python3
"""Soft-error reliability study: fault-injection campaign on a workload.

Reproduces the Section 6.3 fault analysis interactively on the parallel
campaign engine (:mod:`repro.exec`): injects random single-bit and
multi-bit flips into the executed code of a chosen workload and classifies
every outcome (CIC detection, baseline machine check, silent corruption,
benign).  Results are identical for any worker count.

Run:  python examples/soft_error_campaign.py [workload] [faults] [workers]
"""

import sys

from repro.exec import CampaignRunner, CampaignSpec
from repro.faults import Outcome
from repro.utils.tables import TextTable


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "dijkstra"
    count = int(sys.argv[2]) if len(sys.argv) > 2 else 100
    workers = int(sys.argv[3]) if len(sys.argv) > 3 else 1
    spec = CampaignSpec(workload=workload, scale="small", iht_size=8)
    runner = CampaignRunner(spec, workers=workers)
    print(f"golden run of {workload} (small scale)...")
    campaign = runner.campaign
    print(f"  executed {len(campaign.context.executed_addresses)} distinct "
          f"instruction words; golden output {campaign.context.golden_console!r}")

    table = TextTable(
        ["scenario", "faults", "cic", "baseline", "silent", "benign",
         "coverage %"],
        title=(f"Fault campaign — {workload}, XOR checksum, 8-entry IHT, "
               f"{workers} worker(s)"),
    )
    scenarios = [
        ("single-bit", campaign.random_single_bit(count, seed=11)),
        ("2-bit one word", campaign.random_multi_bit(count // 2, 2, seed=12)),
        ("3-bit one word", campaign.random_multi_bit(count // 2, 3, seed=13)),
        (
            "2-bit same column",
            campaign.random_multi_bit(
                count // 2, 2, seed=14, same_column=True
            ),
        ),
    ]
    for seed, (label, faults) in enumerate(scenarios, start=11):
        result = runner.run(faults, seed=seed).report()
        counts = result.counts()
        table.add_row(
            [
                label,
                result.total,
                counts[Outcome.DETECTED_CIC],
                counts[Outcome.DETECTED_BASELINE],
                counts[Outcome.SDC],
                counts[Outcome.BENIGN],
                f"{100 * result.detection_rate:.1f}",
            ]
        )
    print()
    print(table.render())
    print(
        "\nReading: single-bit and odd-weight faults are always caught "
        "(paper §6.3); only the XOR checksum's structural blind spot —\n"
        "an even number of flips in one bit column of one block — can slip "
        "through. Try hash_name='crc32' in CampaignSpec to close it."
    )


if __name__ == "__main__":
    main()
