#!/usr/bin/env python3
"""Compare two ledgers (two sets of runs written by ``run.py``)::

    python3 benchmarks/ledger/compare.py A.json B.json

One row per (end-to-end metric, workload): both medians with their
quartiles, B's relative difference from A, the bound, and a verdict —

- ``ok``          B is no worse than A by more than the bound;
- ``worse``       B is worse than A by more than the bound;
- ``unresolved``  either set's own inter-quartile spread exceeds the bound,
                  so the comparison cannot tell (reported, never passed off
                  as unchanged).

Then one line per workload saying whether simulated time and the program
counters are identical, which they must be for two runs of one commit and
for any change meant only to speed up the host. Exits non-zero on any
``worse``.
"""

from __future__ import annotations

import json
import sys


def spread(row: dict) -> float:
    """Inter-quartile range as a share of the median."""
    return (row["q3"] - row["q1"]) / row["median"] if row["median"] else 0.0


def worsening(a: dict, b: dict) -> float:
    """How much worse B's median is than A's, as a share of A's
    (negative when B is better)."""
    change = (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
    return -change if a["better"] == "higher" else change


def verdict(a: dict, b: dict) -> str:
    bound = a["bound"]
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    return "worse" if worsening(a, b) > bound else "ok"


def compare(ledger_a: dict, ledger_b: dict) -> list[dict]:
    rows = []
    for workload, entry_a in ledger_a["workloads"].items():
        entry_b = ledger_b["workloads"][workload]
        for metric, a in entry_a["end_to_end"].items():
            b = entry_b["end_to_end"][metric]
            rows.append({"workload": workload, "metric": metric, "a": a, "b": b,
                         "worsening": worsening(a, b), "verdict": verdict(a, b)})
    return rows


def exact_matches(ledger_a: dict, ledger_b: dict) -> dict:
    """Per workload: do simulated time and the counters agree exactly?"""
    return {workload: entry["sim_digest"]
            == ledger_b["workloads"][workload]["sim_digest"]
            for workload, entry in ledger_a["workloads"].items()}


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__)
        return 2
    ledgers = []
    for path in paths:
        with open(path) as f:
            ledgers.append(json.load(f))
    for label, ledger in zip("AB", ledgers):
        stamp = ledger["stamp"]
        print(f"{label}: commit {stamp['commit'][:12]} seed {stamp['seed']}"
              f" repeats {stamp['repeats']} seconds {stamp['seconds']}")
    print(f"\n{'workload':<15} {'metric':<16} {'A median (q1..q3)':>36}"
          f" {'B median (q1..q3)':>36} {'worse by':>9} {'bound':>6}  verdict")
    rows = compare(*ledgers)
    for row in rows:
        a, b = row["a"], row["b"]
        cells = [f"{r['median']:.4f} ({r['q1']:.4f}..{r['q3']:.4f})" for r in (a, b)]
        print(f"{row['workload']:<15} {row['metric']:<16} {cells[0]:>36}"
              f" {cells[1]:>36} {row['worsening']:>+9.2%} {a['bound']:>6.0%}"
              f"  {row['verdict']}")
    print()
    for workload, same in exact_matches(*ledgers).items():
        print(f"{workload:<15} simulated time and counters:"
              f" {'identical' if same else 'DIFFERENT'}")
    worse = [row for row in rows if row["verdict"] == "worse"]
    unresolved = sum(row["verdict"] == "unresolved" for row in rows)
    print(f"\n{len(worse)} worse, {unresolved} unresolved,"
          f" {len(rows) - len(worse) - unresolved} ok")
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
