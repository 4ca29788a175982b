"""Every count and simulated number the ledger reports stays what it was.

A change that only makes the program faster must leave each per-layer
metric whose ledger clock is ``count`` or ``sim`` exactly as it was: rows
scanned, round trips, bytes, WAL, tasks, simulated milliseconds. This runs
``benchmarks/ledger/run.py --workload W --seconds 1 --trace 1`` for each of
the four workloads (about 22 s in all, so it is ``slow``: the soak lane runs
it) and compares those metrics with ``tests/golden/ledger_counts.json``.

A change that means to move one of them re-records the file::

    PYTHONPATH=src python -m tests.test_ledger_counts --write

and says which numbers moved and why.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden", "ledger_counts.json")
WORKLOADS = ("oltp_point", "analytics_scan", "write_mix", "traffic_mix")
#: ``name  value unit  [clock]``: the line a run prints per metric.
METRIC_LINE = re.compile(r"^(\S+)\s+\S+\s+\S+\s+\[(\w+)\]$")


def record(workload: str) -> dict:
    """The ``count`` and ``sim`` metrics of one traced one-second run."""
    with tempfile.TemporaryDirectory() as scratch:
        report = os.path.join(scratch, "report.json")
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "benchmarks", "ledger", "run.py"),
             "--workload", workload, "--seconds", "1", "--trace", "1",
             "--report", report],
            cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0"),
            capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr[-4000:]
        with open(report) as f:
            values = json.load(f)["metrics"]
    clocks = dict(match.groups() for match in map(METRIC_LINE.match,
                                                  proc.stdout.splitlines())
                  if match)
    return {name: values[name] for name, clock in sorted(clocks.items())
            if clock in ("count", "sim")}


@pytest.mark.slow
@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_and_simulated_numbers_are_unchanged(workload):
    with open(GOLDEN) as f:
        expected = json.load(f)[workload]
    got = record(workload)
    assert got.keys() == expected.keys()
    moved = {name: (expected[name], got[name]) for name in expected
             if got[name] != expected[name]}
    assert not moved, f"{workload}: (golden, now) {moved}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    golden = {workload: record(workload) for workload in WORKLOADS}
    with open(GOLDEN, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
