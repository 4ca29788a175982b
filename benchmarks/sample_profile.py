#!/usr/bin/env python3
"""Sample one ledger workload's measured phase: where does a round's time go?

    python3 benchmarks/sample_profile.py --workload write_mix --seconds 8
    python3 benchmarks/sample_profile.py --workload write_mix --root ../parent
    python3 benchmarks/sample_profile.py --workload traffic_mix --deciles
    python3 benchmarks/sample_profile.py --workload oltp_point --plain

A 1 ms ``ITIMER_PROF`` signal walks the interpreter stack: unlike cProfile
it adds nothing per call, so cheap-but-frequent functions keep their true
share. Set-up, warm-up and the host canary are excluded. Prints self and
inclusive shares by function and by module. Reads ``benchmarks/ledger`` of
``--root`` (default: this checkout) and changes nothing in it; every sampled
share quoted in README / ROADMAP comes from this script.

``--deciles`` does not sample: it prints, per tenth of the measured phase, the
mean wall time of an op and the mean / max number of candidates a B-tree
equality probe returned (``BTreeIndex.scan_equal`` wrapped from outside).
A cost that grows with run length shows as a slope here; ``host.drift_frac``
sees it only in traced ledger runs.

``--plain`` does not sample either: it replays the workload's op stream
(its own ``load`` / ``run_op``, results checked as in the ledger) against a
plain ``PostgresInstance``, Citus 0+1 and Citus 4+1 (32 shards, telemetry
defaults) and prints the mean wall time of an op on each and the two ratios
over plain — Fig. 6's "Citus 0+1 is only slightly slower" bar, functionally.
For workloads that drive everything through ``self.session`` (``oltp_point``:
one statement per op).
"""

from __future__ import annotations

import argparse
import collections
import os
import signal
import sys


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="write_mix")
    parser.add_argument("--seed", type=int, default=31415)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--top", type=int, default=30)
    parser.add_argument("--deciles", action="store_true",
                        help="per tenth of the run: mean op time and index"
                        " candidates per probe, in place of the sample")
    parser.add_argument("--plain", action="store_true",
                        help="mean op time on a plain PostgresInstance, Citus"
                        " 0+1 and Citus 4+1, in place of the sample")
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    args = parser.parse_args()
    root = os.path.abspath(args.root)
    sys.path[:0] = [root, os.path.join(root, "src")]
    from benchmarks.ledger import phases
    from benchmarks.ledger.workloads import WORKLOADS

    self_fn, incl_fn = collections.Counter(), collections.Counter()
    self_mod, incl_mod = collections.Counter(), collections.Counter()
    total = 0

    def sample(_signum, frame):
        nonlocal total
        stack = []
        while frame is not None:
            code = frame.f_code
            stack.append((os.path.basename(code.co_filename), code.co_name))
            frame = frame.f_back
        if any(name == "canary_us" for _module, name in stack):
            return
        total += 1
        self_fn[stack[0]] += 1
        self_mod[stack[0][0]] += 1
        incl_fn.update(set(stack))
        incl_mod.update({module for module, _name in stack})

    cls = WORKLOADS[args.workload]
    if args.plain:
        print_plain(cls, args.seed, phases.op_count(cls, args.seconds), root)
        return
    workload = cls(args.seed, phases.op_count(cls, args.seconds))
    workload.setup()
    workload.warm_up()
    if args.deciles:
        print_deciles(args.workload, workload, root)
        return
    signal.signal(signal.SIGPROF, sample)
    signal.setitimer(signal.ITIMER_PROF, 0.001, 0.001)
    try:
        workload.measure()
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
    workload.finish()

    print(f"{args.workload}: {total} samples over {workload.ops} ops,"
          f" failed {workload.failed} ({root})")
    for title, counts in (("self, by function", self_fn),
                          ("inclusive, by function", incl_fn),
                          ("self, by module", self_mod),
                          ("inclusive, by module", incl_mod)):
        print(f"\n{title}")
        for key, n in counts.most_common(args.top):
            label = key if isinstance(key, str) else f"{key[0]}:{key[1]}"
            print(f"  {100 * n / max(total, 1):5.1f} %  {n:6d}  {label}")


def print_deciles(name: str, workload, root: str) -> None:
    from repro.engine.index import BTreeIndex

    probes = []  # (ops finished when it ran, candidates returned)
    scan_equal = BTreeIndex.scan_equal

    def counted(self, values):
        tids = scan_equal(self, values)
        probes.append((len(workload.walls), len(tids)))
        return tids

    BTreeIndex.scan_equal = counted
    try:
        workload.measure()
    finally:
        BTreeIndex.scan_equal = scan_equal
    workload.finish()

    walls = workload.walls
    print(f"{name}: {len(walls)} ops, {len(probes)} equality probes,"
          f" failed {workload.failed} ({root})")
    print("tenth     ops  mean op us   probes  candidates/probe  max")

    def row(label, lo: int, hi: int) -> None:
        ops = walls[lo:hi]
        counts = [n for op, n in probes if lo <= op < hi] or [0]
        print(f"{label:>5} {len(ops):7d} {sum(ops) / max(len(ops), 1) / 1e3:11.1f}"
              f" {len(counts):8d} {sum(counts) / len(counts):17.2f} {max(counts):4d}")

    for tenth in range(10):
        row(tenth + 1, len(walls) * tenth // 10, len(walls) * (tenth + 1) // 10)
    row("all", 0, len(walls) + 1)  # + 1: probes after the last op, if any


class _Undistributed:
    """A backend of a plain instance as a ledger workload's session: the
    same session, deaf to ``create_distributed_table`` and friends."""

    def __init__(self, session):
        self._session = session

    def execute(self, sql, params=None):
        if sql.startswith(("SELECT create_distributed_table",
                           "SELECT create_reference_table")):
            return None
        return self._session.execute(sql, params)

    def __getattr__(self, name):
        return getattr(self._session, name)


def print_plain(cls, seed: int, ops: int, root: str) -> None:
    from repro import PostgresInstance, make_cluster

    def plain():
        instance = PostgresInstance("plain")
        return _Undistributed(instance.connect("ledger")), instance

    def citus(workers):
        cluster = make_cluster(workers=workers, shard_count=32)
        return cluster.coordinator_session("ledger"), cluster.cluster.clock

    targets = (("plain", plain), ("citus 0+1", lambda: citus(0)),
               ("citus 4+1", lambda: citus(4)))
    print(f"{cls.name}: {ops} ops per target, seed {seed} ({root})")
    print(f"{'target':<10} {'mean op us':>11} {'x plain':>8} {'failed':>7}")
    base = None
    for name, build in targets:
        workload = cls(seed, ops)
        workload.session, workload.clock = build()  # in place of setup()
        workload.load()
        workload.warm_up()
        workload.measure()
        workload.finish()
        mean_us = sum(workload.walls) / len(workload.walls) / 1e3
        base = base or mean_us
        print(f"{name:<10} {mean_us:11.1f} {mean_us / base:8.2f}"
              f" {workload.failed:7d}")
        for error in workload.errors[:3]:
            print(f"  FAILED CHECK: {error}")


if __name__ == "__main__":
    main()
