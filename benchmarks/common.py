"""Shared benchmark machinery.

Every figure's bench does two things:

1. **Functional micro-run** — executes the workload end-to-end at reduced
   scale through the real code path on each cluster shape, timed with
   pytest-benchmark. This is regression tracking for the simulator itself
   and proof the code path works.
2. **Calibrated model report** — evaluates :mod:`repro.perf.model` at the
   paper's scale and writes a paper-vs-reproduction table to
   ``benchmarks/results/<figure>.txt`` (also printed). EXPERIMENTS.md is
   assembled from these.
"""

from __future__ import annotations

import argparse
import json
import os

from repro import PostgresInstance, make_cluster

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

# The four benchmark configurations of §4, at simulator scale. A "setup"
# is (label, factory) where factory() returns a connected session.
MINI_WORKERS = {"PostgreSQL": None, "Citus 0+1": 0, "Citus 4+1": 4, "Citus 8+1": 8}


def make_setup(label: str, shard_count: int = 8, max_connections: int = 2000):
    """Session factory for one of the paper's four configurations."""
    workers = MINI_WORKERS[label]
    if workers is None:
        return PostgresInstance("pg", max_connections=max_connections).connect(), False
    cluster = make_cluster(workers=workers, shard_count=shard_count,
                           max_connections=max_connections)
    return cluster.coordinator_session(), True


def gate_parser(doc: str) -> argparse.ArgumentParser:
    """The command line every CI gate script shares: ``--quick`` and
    ``--out``; a script adds its own flags with ``add_argument``."""
    parser = argparse.ArgumentParser(description=doc)
    parser.add_argument("--quick", action="store_true",
                        help="reduced iteration counts (CI smoke)")
    parser.add_argument("--out", help="write the JSON report to this path")
    return parser


def finish(args, report: dict, failures: list[str]) -> int:
    """Write a gate's ``report`` as JSON to ``--out``, print each failure
    as ``FAIL: …`` and return the exit code."""
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True, default=str)
        print(f"wrote {args.out}")
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("OK: every gate passed")
    return 1 if failures else 0


def write_report(name: str, text: str) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as f:
        f.write(text + "\n")
    print("\n" + text)
    return path


def paper_vs_model_table(title: str, paper_claims: list[str], rows,
                         metric: str, unit: str,
                         higher_is_better: bool = True) -> str:
    from repro.perf import model

    lines = [f"== {title} ==", ""]
    lines.append("Paper's qualitative claims:")
    for claim in paper_claims:
        lines.append(f"  - {claim}")
    lines.append("")
    lines.append("Model at paper scale:")
    lines.append(model.format_table(rows, metric, unit))
    if any(r.setup.startswith("PostgreSQL") for r in rows):
        speedups = model.speedup_over_postgres(rows, higher_is_better)
        lines.append("")
        lines.append("Relative to single PostgreSQL: " + ", ".join(
            f"{name} = {value:.2f}x" for name, value in speedups.items()
        ))
    return "\n".join(lines)
