"""Section 6.3 fault analysis: detection coverage of the XOR checksum.

The paper argues: every single-bit flip in an executed block is detected
(odd-weight error patterns always flip the XOR checksum); even-weight
patterns aligned on one bit column can escape.  This harness measures it:

* exhaustive/random single-bit flips over executed code,
* random multi-bit flips within one word,
* the adversarial case — pairs of flips in the *same bit column* of the
  same executed block, which XOR provably cannot see,

each classified as CIC-detected, baseline-detected (invalid opcode),
crashed/hung, silent corruption, or benign.

Campaigns execute on the :mod:`repro.exec` engine: pass ``workers=N`` to
shard the injections across a process pool — results are identical to the
serial run for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faults.campaign import CampaignReport, Outcome, same_column_pairs
from repro.exec.golden import pristine_recording
from repro.exec.runner import CampaignRunner
from repro.exec.spec import CampaignSpec
from repro.utils.tables import TextTable


@dataclass(slots=True)
class FaultScenario:
    label: str
    report: CampaignReport

    @property
    def coverage(self) -> float:
        return self.report.detection_rate


@dataclass(slots=True)
class FaultAnalysisResult:
    workload: str
    hash_name: str
    scenarios: list[FaultScenario] = field(default_factory=list)

    def scenario(self, label: str) -> FaultScenario:
        for scenario in self.scenarios:
            if scenario.label == label:
                return scenario
        raise KeyError(label)

    def table(self) -> TextTable:
        table = TextTable(
            [
                "scenario", "faults", "cic", "baseline", "crash/hang",
                "silent", "benign", "coverage %",
            ],
            title=(
                f"Fault analysis — {self.workload}, hash={self.hash_name} "
                "(paper: all odd-weight patterns detected)"
            ),
        )
        for scenario in self.scenarios:
            counts = scenario.report.counts()
            table.add_row(
                [
                    scenario.label,
                    scenario.report.total,
                    counts[Outcome.DETECTED_CIC],
                    counts[Outcome.DETECTED_BASELINE],
                    counts[Outcome.CRASHED] + counts[Outcome.HANG],
                    counts[Outcome.SDC],
                    counts[Outcome.BENIGN],
                    f"{100 * scenario.coverage:.1f}",
                ]
            )
        return table


def run_fault_analysis(
    workload: str = "dijkstra",
    scale: str = "small",
    hash_name: str = "xor",
    iht_size: int = 8,
    single_bit_count: int = 120,
    multi_bit_count: int = 60,
    seed: int = 42,
    workers: int = 1,
    backend: str = "full",
) -> FaultAnalysisResult:
    """Run the three fault scenarios against one workload.

    With ``workers > 1`` each scenario's injections are sharded across a
    process pool by :class:`~repro.exec.runner.CampaignRunner`; outcomes
    are identical to the serial run.  ``backend="golden"`` forks each
    injection from the recorded golden run (identical outcomes, faster).
    """
    spec = CampaignSpec(
        workload=workload,
        scale=scale,
        iht_size=iht_size,
        hash_name=hash_name,
        backend=backend,
    )
    runner = CampaignRunner(spec, workers=workers)
    campaign = runner.campaign
    result = FaultAnalysisResult(workload=workload, hash_name=hash_name)

    single = campaign.random_single_bit(single_bit_count, seed=seed)
    result.scenarios.append(
        FaultScenario(
            "single-bit (executed code)",
            runner.run(single, seed=seed).report(),
        )
    )
    multi = campaign.random_multi_bit(multi_bit_count, flips=2, seed=seed + 1)
    result.scenarios.append(
        FaultScenario("2-bit, one word", runner.run(multi, seed=seed + 1).report())
    )
    # The recording's block trace supplies the same block set (in the same
    # iteration order) the historical sampler drew from, so the pair list
    # — and the committed BENCH numbers — stay byte-identical.
    golden = pristine_recording(campaign.context).store.result
    pairs = same_column_pairs(golden.block_trace, multi_bit_count, seed + 2)
    result.scenarios.append(
        FaultScenario(
            "2-bit, same column, same block",
            runner.run(pairs, seed=seed + 2).report(),
        )
    )
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    print(run_fault_analysis().table().render())


if __name__ == "__main__":  # pragma: no cover
    main()
