"""Table 1: cycle-count overhead of code integrity monitoring.

For every workload: total execution cycles without the CIC, with an
8-entry IHT, and with a 16-entry IHT (100-cycle OS handling per hash miss,
LRU replace-half).  The paper's measured overhead percentages are embedded
for comparison.

Every count replays the workload's one pristine recording, with no
monitor and with a fresh one per IHT size
(:meth:`~repro.exec.golden.PristineRecording.cycles`): exactly what a
timed monitored run (``run_timed``) would count, with no simulation.

Scale note (EXPERIMENTS.md discusses this in full): the paper's MiBench/
PISA builds average ~100 cycles between flow-control instructions
(software floating point inflates block length), while these hand-written
kernels average 5-20; the *ratio* overhead-per-miss-rate is therefore
higher here.  The comparison column that transfers across the scale gap is
the ordering and the 8→16 trend, which the tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.eval.common import baseline_run, workload_fht, workload_recording
from repro.osmodel.loader import load_process
from repro.utils.tables import TextTable
from repro.workloads.suite import WORKLOAD_NAMES, build

IHT_SIZES = (8, 16)

#: Paper Table 1: (cycles x1e6 baseline, CIC8, CIC16, overhead8 %, overhead16 %).
PAPER_TABLE1 = {
    "basicmath": (158.0, 174.89, 159.35, 10.7, 0.9),
    "susan": (25.58, 25.63, 25.58, 0.2, 0.0),
    "dijkstra": (54.79, 57.6, 54.81, 5.1, 0.0),
    "patricia": (133.0, 146.64, 138.81, 10.2, 4.4),
    "blowfish": (37.07, 43.32, 42.53, 16.9, 14.7),
    "rijndael": (37.6, 45.4, 37.6, 20.7, 0.0),
    "sha": (13.21, 15.65, 13.25, 18.5, 0.2),
    "stringsearch": (4.43, 6.65, 6.62, 50.1, 49.4),
    "bitcount": (43.62, 43.62, 43.62, 0.0, 0.0),
}
PAPER_AVERAGE_OVERHEAD = {8: 14.7, 16: 7.7}


@dataclass(slots=True)
class Table1Row:
    workload: str
    base_cycles: int
    monitored_cycles: dict[int, int]
    misses: dict[int, int]
    lookups: dict[int, int]

    def overhead(self, size: int) -> float:
        return 100.0 * (self.monitored_cycles[size] - self.base_cycles) / self.base_cycles

    def normalized_overhead(self, size: int) -> float:
        """Overhead if blocks averaged 100 cycles, as in the paper's
        PISA/MiBench builds: misses x 100 / (lookups x 100) = miss rate %.

        This is the scale-free number comparable to the paper's column —
        the paper's Table 1 overheads track its Figure 6 miss rates because
        its average dynamic block costs ~100 cycles (software floating
        point inflates block length on PISA).
        """
        if self.lookups[size] == 0:
            return 0.0
        return 100.0 * self.misses[size] / self.lookups[size]


@dataclass(slots=True)
class Table1Result:
    rows: list[Table1Row] = field(default_factory=list)

    def row(self, workload: str) -> Table1Row:
        for row in self.rows:
            if row.workload == workload:
                return row
        raise KeyError(workload)

    def average_overhead(self, size: int) -> float:
        return sum(row.overhead(size) for row in self.rows) / len(self.rows)

    def average_normalized_overhead(self, size: int) -> float:
        return sum(row.normalized_overhead(size) for row in self.rows) / len(self.rows)

    def table(self) -> TextTable:
        table = TextTable(
            [
                "application", "cycles (no CIC)", "CIC8", "CIC16",
                "ovhd8 %", "ovhd16 %", "norm8 %", "norm16 %",
                "paper ovhd8 %", "paper ovhd16 %",
            ],
            title=(
                "Table 1 — cycle overhead of code integrity checking "
                "(norm = overhead at the paper's ~100-cycle block scale)"
            ),
        )
        for row in self.rows:
            paper = PAPER_TABLE1.get(row.workload)
            table.add_row(
                [
                    row.workload,
                    row.base_cycles,
                    row.monitored_cycles[8],
                    row.monitored_cycles[16],
                    f"{row.overhead(8):.1f}",
                    f"{row.overhead(16):.1f}",
                    f"{row.normalized_overhead(8):.1f}",
                    f"{row.normalized_overhead(16):.1f}",
                    f"{paper[3]:.1f}" if paper else "-",
                    f"{paper[4]:.1f}" if paper else "-",
                ]
            )
        table.add_row(
            [
                "average", "-", "-", "-",
                f"{self.average_overhead(8):.1f}",
                f"{self.average_overhead(16):.1f}",
                f"{self.average_normalized_overhead(8):.1f}",
                f"{self.average_normalized_overhead(16):.1f}",
                f"{PAPER_AVERAGE_OVERHEAD[8]:.1f}",
                f"{PAPER_AVERAGE_OVERHEAD[16]:.1f}",
            ]
        )
        return table


def run_table1(
    scale: str = "default",
    sizes: tuple[int, ...] = IHT_SIZES,
    miss_penalty: int = 100,
    workloads: tuple[str, ...] = WORKLOAD_NAMES,
) -> Table1Result:
    """Every workload's recording replayed through a fresh monitor at
    each IHT size."""
    result = Table1Result()
    for name in workloads:
        base = baseline_run(name, scale)
        recording = workload_recording(name, scale)
        monitored_cycles: dict[int, int] = {}
        misses: dict[int, int] = {}
        lookups: dict[int, int] = {}
        for size in sizes:
            checker = load_process(
                build(name, scale),
                iht_size=size,
                miss_penalty=miss_penalty,
                fht=workload_fht(name, scale),
            ).monitor
            monitored_cycles[size] = recording.cycles(checker)
            misses[size] = checker.stats.misses
            lookups[size] = checker.stats.lookups
        result.rows.append(
            Table1Row(
                workload=name,
                base_cycles=base.cycles,
                monitored_cycles=monitored_cycles,
                misses=misses,
                lookups=lookups,
            )
        )
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    print(run_table1().table().render())


if __name__ == "__main__":  # pragma: no cover
    main()
