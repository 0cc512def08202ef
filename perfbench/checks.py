"""Correctness checks on every operation's output, outside the timed region.

Each check returns a list of problems, one string per failed operation
unit (a fault record, a DSE point, a service job), so the caller can
count failures against the units attempted.  The references are
independent of the code path under test:

* campaign records are re-classified by the full-replay oracles
  (:func:`repro.faults.campaign.run_one` for the functional backend,
  :func:`repro.exec.pipeline_golden.run_one_pipeline` for the pipeline,
  which must also agree on measured cycles with the forking kernel);
* detection-coverage counts must agree between the functional and the
  cycle-level backends on the same fault list (see :func:`coverage_counts`);
* DSE points must be byte-identical at one and two workers;
* service jobs must end ``done`` with the records the golden kernel
  gives their fault lists in-process, and a server lifetime must miss
  the checkpoint cache exactly once.
"""

from __future__ import annotations

import json
import random
import re
from collections import Counter
from dataclasses import replace

_SUMMARY_LINE = re.compile(r"^  (\S+)\s+(\d+)$")


def load_jsonl(path: str) -> list[dict]:
    """Every line of a JSONL file; a line that does not parse is an error."""
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def committed(path: str, record_type: str) -> tuple[dict, dict[int, dict], list[str]]:
    """Header, committed records by index, and structural problems.

    A record counts only when its shard's ``shard-done`` marker is in
    the file; each index ``0..total-1`` must appear exactly once.
    """
    try:
        lines = load_jsonl(path)
    except (OSError, ValueError) as error:
        return {}, {}, [f"{path}: unreadable ({error})"]
    if not lines or lines[0].get("type") != "header":
        return {}, {}, [f"{path}: no header line"]
    header = lines[0]
    marked = {line["shard"] for line in lines if line.get("type") == "shard-done"}
    records: dict[int, dict] = {}
    problems = []
    for line in lines[1:]:
        if line.get("type") != record_type:
            continue
        index = line.get("index")
        if index in records:
            problems.append(f"{path}: index {index} recorded twice")
        elif line.get("shard") not in marked:
            problems.append(f"{path}: index {index} in an uncommitted shard")
        else:
            records[index] = line
    for index in range(header.get("total", 0)):
        if index not in records:
            problems.append(f"{path}: index {index} missing")
    return header, records, problems


def summary_counts(stdout: str) -> Counter:
    """Outcome counts from ``repro campaign``'s printed summary."""
    counts: Counter = Counter()
    for line in stdout.splitlines():
        match = _SUMMARY_LINE.match(line)
        if match:
            counts[match.group(1)] = int(match.group(2))
    return counts


def record_counts(records: dict[int, dict]) -> Counter:
    return Counter(record["outcome"] for record in records.values())


def oracle_sample(seed: int, total: int, size: int) -> list[int]:
    """The seeded record indices an operation's oracle re-classifies."""
    return sorted(random.Random(f"oracle:{seed}").sample(range(total), min(size, total)))


class CampaignOracle:
    """Independent re-classification of campaign records."""

    def __init__(self, spec_json: dict):
        from repro.exec import CampaignSpec

        self.spec = CampaignSpec.from_json(spec_json)
        self.context = self.spec.build_context()
        self._pipeline_store = None
        self._warm = None

    def _pipeline(self):
        from repro.exec.pipeline_golden import build_pipeline_golden_store
        from repro.faults.campaign import WarmProcess

        if self._pipeline_store is None:
            self._warm = WarmProcess.from_context(self.context)
            self._pipeline_store = build_pipeline_golden_store(self.context, self._warm)
        return self._pipeline_store

    def mismatches(self, records: dict[int, dict], indices: list[int]) -> list[str]:
        """Sampled records whose outcome, detail, or latency (and, on the
        pipeline backend, measured cycles) disagree with the oracle."""
        from repro.exec.pipeline_golden import run_one_pipeline, run_one_pipeline_golden
        from repro.exec.records import fault_from_json
        from repro.faults.campaign import run_one

        problems = []
        for index in indices:
            record = records.get(index)
            if record is None:
                continue  # already reported missing
            fault = fault_from_json(record["fault"])
            got = (record["outcome"], record["detail"], record.get("latency"))
            if self.spec.backend == "pipeline-golden":
                store = self._pipeline()
                reference = run_one_pipeline(self.context, fault, self._warm)
                forked = run_one_pipeline_golden(store, fault)
                if forked.cycles != reference.cycles:
                    problems.append(
                        f"record {index}: kernel cycles {forked.cycles} != "
                        f"oracle cycles {reference.cycles}"
                    )
                    continue
            else:
                reference = run_one(self.context, fault)
            expected = (reference.outcome.value, reference.detail, reference.latency)
            if got != expected:
                problems.append(f"record {index}: {got!r} != oracle {expected!r}")
        return problems

    def other_backend_counts(self, records: dict[int, dict]) -> Counter:
        """Outcome counts of the same faults on the other simulator."""
        from repro.exec.records import fault_from_json
        from repro.exec.runner import Workspace

        other = "golden" if self.spec.backend == "pipeline-golden" else "pipeline-golden"
        workspace = Workspace.build(replace(self.spec, backend=other), context=self.context)
        faults = [fault_from_json(records[index]["fault"]) for index in sorted(records)]
        return Counter(result.outcome.value for result in workspace.run_batch(faults))


def coverage_counts(counts: Counter) -> Counter:
    """Outcome counts with the two detection mechanisms merged.

    The functional and the cycle-level simulator agree on *whether* a
    fault is detected, but not always on *which* check fires first: on
    the pipeline the block-end CIC check at ID can precede a misaligned
    store's trap at MEM (``sha`` small, bit 31 of ``0x004002e0``), while
    ``FuncSim`` executes the store before reaching the block end.
    """
    merged = Counter(counts)
    merged["detected"] = merged.pop("detected-cic", 0) + merged.pop("detected-baseline", 0)
    return +merged


def count_mismatch(label: str, mine: Counter, theirs: Counter) -> list[str]:
    """One problem per injection by which two outcome tallies differ."""
    if mine == theirs:
        return []
    gap = sum(((mine - theirs) + (theirs - mine)).values())
    return [f"{label}: {dict(mine)} != {dict(theirs)}"] * max(gap, 1)


def point_lines(path: str) -> dict[int, str]:
    """A sweep file's committed point lines, in canonical form, by index."""
    _header, records, _problems = committed(path, "point")
    return {
        index: json.dumps(record, sort_keys=True, separators=(",", ":"))
        for index, record in records.items()
    }


def canonical_records(lines: list[dict]) -> list[tuple]:
    """Streamed campaign records reduced to what identical jobs share."""
    return sorted(
        (
            line["index"],
            line["outcome"],
            line["detail"],
            line.get("latency"),
            json.dumps(line["fault"], sort_keys=True),
        )
        for line in lines
    )
