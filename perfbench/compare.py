"""Compare benchmark result sets from ``.perfbench/results/``.

Usage::

    python3 perfbench/compare.py BASE.json [BASE.json ...] -- NEW.json [NEW.json ...]

Each side's metrics are reduced to their medians and printed side by
side with the change in percent.  Result sets are comparable only when
every one of them carries the same workload definition (workload, work
per operation, checks, run length, trace mode, benchmark version):
otherwise the comparison is refused with exit code 1.  Differing host
manifests are reported but do not stop the comparison.
"""

from __future__ import annotations

import json
import statistics
import sys

HOST_KEYS = ("nproc", "effective_cores", "python", "platform")


def load(paths: list[str]) -> list[dict]:
    sets = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            sets.append(json.load(handle))
    return sets


def medians(sets: list[dict]) -> dict[str, tuple[float, str]]:
    names = sets[0]["metrics"]
    return {
        name: (
            statistics.median(result["metrics"][name]["value"] for result in sets),
            names[name]["unit"],
        )
        for name in names
    }


def compare(base: list[dict], new: list[dict]) -> int:
    fingerprints = {result["definition"]["fingerprint"] for result in base + new}
    if len(fingerprints) != 1:
        print(f"refused: the result sets measure different workload definitions "
              f"({', '.join(sorted(fingerprints))})", file=sys.stderr)
        return 1
    hosts = {
        json.dumps({key: result["host"].get(key) for key in HOST_KEYS}, sort_keys=True)
        for result in base + new
    }
    if len(hosts) != 1:
        print("warning: the result sets come from different hosts", file=sys.stderr)
    definition = base[0]["definition"]
    print(f"{definition['workload']} (definition {definition['fingerprint']}): "
          f"{len(base)} base vs {len(new)} new result sets")
    before, after = medians(base), medians(new)
    for name, (value, unit) in before.items():
        changed = after[name][0]
        delta = f"{(changed - value) / value:+.1%}" if value else "n/a"
        print(f"  {name:34s} {value:14.6g} -> {changed:14.6g} {unit:9s} {delta}")
    failed = sum(result["failed"] for result in new)
    if failed:
        print(f"  new result sets report {failed} failed operations")
    return 0


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    split = argv.index("--")
    base, new = argv[:split], argv[split + 1:]
    if not base or not new:
        print("need at least one result set on each side of --", file=sys.stderr)
        return 2
    return compare(load(base), load(new))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
