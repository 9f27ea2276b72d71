"""Compare two sets of untraced run records, metric by metric.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``*.json`` run records ``run.py`` writes.  For
every workload and end-to-end metric in BENCHMARK.json this prints the
median and quartiles of each side and a verdict (see ``stats.verdict``),
pairing runs of the two sides by seed.  The exit code is 1 when any
verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench import ROOT  # noqa: E402
from perfbench.stats import quartiles, verdict  # noqa: E402


def load(directory: Path) -> dict[str, dict[int, dict]]:
    """Untraced records by workload and seed; a later record of a seed wins."""
    out: dict[str, dict[int, dict]] = defaultdict(dict)
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        record = json.loads(path.read_text())
        if record["trace"] == 0:
            out[record["workload"]][record["seed"]] = record
    return out


def compare(parent: dict, change: dict, spec: dict) -> list[dict]:
    rows = []
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        if not seeds:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [parent[workload][s]["metrics"][name]["value"] for s in seeds]
            c = [change[workload][s]["metrics"][name]["value"] for s in seeds]
            rows.append({"workload": workload, "metric": name, "unit": metric["unit"],
                         "runs": len(seeds), "parent": quartiles(p), "change": quartiles(c),
                         "verdict": verdict(p, c, metric["better"], metric["bound"])})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--spec", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    rows = compare(load(args.parent), load(args.change), json.loads(args.spec.read_text()))
    if not rows:
        print("error: the two sets share no workload and seed", file=sys.stderr)
        return 2
    print(f"{'workload':11s} {'metric':15s} {'runs':>4s}  {'parent q1/median/q3':>32s}"
          f"  {'change q1/median/q3':>32s}  verdict")
    for r in rows:
        p = "/".join(f"{x:.4g}" for x in r["parent"])
        c = "/".join(f"{x:.4g}" for x in r["change"])
        print(f"{r['workload']:11s} {r['metric']:15s} {r['runs']:4d}  {p:>29s} {r['unit']:>2s}"
              f"  {c:>29s} {r['unit']:>2s}  {r['verdict']}")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
