#!/usr/bin/env python3
"""Sample one ledger workload's measured phase: where does a round's time go?

    python3 benchmarks/sample_profile.py --workload write_mix --seconds 8
    python3 benchmarks/sample_profile.py --workload write_mix --root ../parent
    python3 benchmarks/sample_profile.py --workload traffic_mix --deciles
    python3 benchmarks/sample_profile.py --workload oltp_point --plain
    python3 benchmarks/sample_profile.py --workload write_mix --gc
    python3 benchmarks/sample_profile.py --workload analytics_scan --step group_agg
    python3 benchmarks/sample_profile.py --workload analytics_scan --step full_order --gc
    python3 benchmarks/sample_profile.py --workload oltp_point --gc --telemetry-off
    python3 benchmarks/sample_profile.py --workload write_mix --garbage

A 1 ms ``ITIMER_PROF`` signal walks the interpreter stack: unlike cProfile
it adds nothing per call, so cheap-but-frequent functions keep their true
share. Set-up, warm-up and the host canary are excluded. Prints self and
inclusive shares by function and by module. Reads ``benchmarks/ledger`` of
``--root`` (default: this checkout) and changes nothing in it; every sampled
share quoted in README / ROADMAP comes from this script.

``--step NAME`` keeps only the samples taken inside one timed step of each
op (an ``analytics_scan`` shape, a ``write_mix`` step, or any name an op
passes to ``Workload.step``, such as ``oltp_point``'s ``select``, ``update``
and ``literal``), and prints that step's mean wall time beside them, timed
in this script's own wrapper.

Every mode exits non-zero when a correctness check of the workload failed.

``--deciles`` does not sample: it prints, per tenth of the measured phase, the
mean wall time of an op and the mean / max number of candidates a B-tree
equality probe returned (``BTreeIndex.scan_equal`` wrapped from outside).
A cost that grows with run length shows as a slope here; ``host.drift_frac``
sees it only in traced ledger runs.

``--plain`` does not sample either: it replays the workload's op stream
(its own ``load`` / ``run_op``, results checked as in the ledger) against a
plain ``PostgresInstance``, Citus 0+1 and Citus 4+1 (32 shards, telemetry
defaults) and prints the mean wall time of an op on each and the two ratios
over plain — Fig. 6's "Citus 0+1 is only slightly slower" bar, functionally
— and the round trips and connections opened per op of the measured phase
(counted from outside: the network's messages, ``Cluster.connect`` calls).
Citus 0+1 runs every task in the coordinator's own backend, so any round
trip or connection there is a failure: the mode exits non-zero. For
workloads that drive everything through ``self.session`` (``oltp_point``:
one statement per op).

``--gc`` does not sample either: it times every collection of the measured
phase through ``gc.callbacks`` and prints the collector's time and share of
the loop, collections and mean pass cost per generation, and the number of
GC-tracked objects (``gc.get_objects()``) before and after the phase. With
``--step NAME`` it times only the collections that start inside that step,
and prints its share of the step and passes per run of it.

``--garbage`` does not sample either: it runs the measured phase under
``gc.DEBUG_SAVEALL`` and prints the cyclic garbage it left, per op by type:
what only the collector frees (a statement's objects that hold each other).

``--telemetry-off`` sets the workload up with every telemetry GUC off (the
ledger's ``telemetry=False`` phase), in every mode but ``--plain``: the
same command with and without it splits a cost into telemetry's share and
the rest.
"""

from __future__ import annotations

import argparse
import collections
import gc
import os
import signal
import sys
import time


def main() -> int:
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
    parser.add_argument("--gc", action="store_true",
                        help="collector time, passes per generation and"
                        " tracked objects, in place of the sample")
    parser.add_argument("--garbage", action="store_true",
                        help="cyclic garbage per op by type, in place of the"
                        " sample")
    parser.add_argument("--step", metavar="NAME",
                        help="sample only inside this timed step of each op")
    parser.add_argument("--telemetry-off", action="store_true",
                        help="set the workload up with every telemetry GUC"
                        " off")
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
    in_step = args.step is None  # with --step: only while that step runs

    def sample(_signum, frame):
        nonlocal total
        if not in_step:
            return
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
        return print_plain(cls, args.seed, phases.op_count(cls, args.seconds), root)
    workload = cls(args.seed, phases.op_count(cls, args.seconds))
    workload.setup(not args.telemetry_off)
    workload.warm_up()
    if args.deciles:
        print_deciles(args.workload, workload, root)
        return workload.failed
    step_walls = []  # ns per run of the named step
    if args.step is not None:
        step = workload.step

        def sampled_step(name, fn, *step_args):
            nonlocal in_step
            in_step = name == args.step
            start = time.perf_counter_ns()
            try:
                return step(name, fn, *step_args)
            finally:
                if in_step:
                    step_walls.append(time.perf_counter_ns() - start)
                in_step = False

        workload.step = sampled_step  # what run_op calls, for this instance
    if args.gc:
        print_gc(args.workload, workload, root, args.step,
                 lambda: in_step, step_walls)
        return workload.failed
    if args.garbage:
        print_garbage(args.workload, workload, root, args.top)
        return workload.failed
    signal.signal(signal.SIGPROF, sample)
    signal.setitimer(signal.ITIMER_PROF, 0.001, 0.001)
    try:
        workload.measure()
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
    workload.finish()

    print(f"{args.workload}: {total} samples over {workload.ops} ops,"
          f" failed {workload.failed} ({root})")
    if args.step is not None:
        if not step_walls:
            print(f"{args.workload} ran no step {args.step!r}")
            return 1
        print(f"step {args.step}: mean"
              f" {sum(step_walls) / len(step_walls) / 1e3:.1f} us over"
              f" {len(step_walls)} runs (sampling on)")
    for title, counts in (("self, by function", self_fn),
                          ("inclusive, by function", incl_fn),
                          ("self, by module", self_mod),
                          ("inclusive, by module", incl_mod)):
        print(f"\n{title}")
        for key, n in counts.most_common(args.top):
            label = key if isinstance(key, str) else f"{key[0]}:{key[1]}"
            print(f"  {100 * n / max(total, 1):5.1f} %  {n:6d}  {label}")
    return workload.failed


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


def print_gc(name: str, workload, root: str, step=None, in_step=None,
             step_walls=()) -> None:
    """Time every collection of the measured phase; with ``step``, only
    those that start inside that step, counted per run of it."""
    passes = collections.defaultdict(list)  # generation -> ns per pass
    started = []

    def timed(phase, info):
        if phase == "start":
            started.append(time.perf_counter_ns() if step is None or in_step()
                           else None)
        else:
            start = started.pop()
            if start is not None:
                passes[info["generation"]].append(time.perf_counter_ns() - start)

    tracked_before = len(gc.get_objects())
    gc.callbacks.append(timed)
    start = time.perf_counter_ns()
    try:
        workload.measure()
    finally:
        loop_ns = time.perf_counter_ns() - start
        gc.callbacks.remove(timed)
    tracked_after = len(gc.get_objects())
    workload.finish()

    collector_ns = sum(map(sum, passes.values()))
    print(f"{name}: {workload.ops} ops, failed {workload.failed} ({root})")
    if step is None:
        print(f"loop {loop_ns / 1e9:.3f} s, collector {collector_ns / 1e9:.3f} s"
              f" = {100 * collector_ns / max(loop_ns, 1):.1f} % of the loop")
        runs = None
    else:
        runs = len(step_walls)
        if not runs:
            print(f"{name} ran no step {step!r}")
            workload.failed += 1
            return
        step_ns = sum(step_walls)
        print(f"step {step}: {runs} runs, mean {step_ns / runs / 1e3:.1f} us,"
              f" collector {collector_ns / 1e9:.3f} s"
              f" = {100 * collector_ns / max(step_ns, 1):.1f} % of the step")
    print("generation  passes  mean pass ms  total ms"
          + ("  passes per run" if runs else ""))
    for generation in range(3):
        times = passes[generation]
        print(f"{generation:10d} {len(times):7d}"
              f" {sum(times) / max(len(times), 1) / 1e6:13.2f}"
              f" {sum(times) / 1e6:9.1f}"
              + (f" {len(times) / runs:15.2f}" if runs else ""))
    print(f"GC-tracked objects: {tracked_before} before, {tracked_after} after"
          f" ({tracked_after - tracked_before:+d})")


def print_garbage(name: str, workload, root: str, top: int) -> None:
    """The measured phase under ``gc.DEBUG_SAVEALL``: every object a
    collection found unreachable is kept in ``gc.garbage`` instead of freed,
    and counted by type."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        workload.measure()
        gc.collect()
        census = collections.Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    workload.finish()
    ops = max(workload.ops, 1)
    total = sum(census.values())
    print(f"{name}: {workload.ops} ops, failed {workload.failed}, cyclic garbage"
          f" {total} objects = {total / ops:.1f} per op ({root})")
    print(" per op  objects  type")
    for kind, n in census.most_common(top):
        print(f"{n / ops:7.1f} {n:8d}  {kind}")


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


def print_plain(cls, seed: int, ops: int, root: str) -> int:
    from repro import PostgresInstance, make_cluster
    from repro.net.cluster import Cluster

    def plain():
        instance = PostgresInstance("plain")
        return _Undistributed(instance.connect("ledger")), instance, None

    def citus(workers):
        cluster = make_cluster(workers=workers, shard_count=32)
        return (cluster.coordinator_session("ledger"), cluster.cluster.clock,
                cluster.cluster.network)

    opened = collections.Counter()  # Cluster.connect calls, per cluster
    connect = Cluster.connect

    def counted_connect(self, *args, **kwargs):
        opened[id(self.network)] += 1
        return connect(self, *args, **kwargs)

    def wire(network) -> tuple:
        """(round trips, connections opened) on ``network`` so far."""
        if network is None:
            return 0, 0
        return network.messages_sent, opened[id(network)]

    targets = (("plain", plain), ("citus 0+1", lambda: citus(0)),
               ("citus 4+1", lambda: citus(4)))
    print(f"{cls.name}: {ops} ops per target, seed {seed} ({root})")
    print(f"{'target':<10} {'mean op us':>11} {'x plain':>8} {'failed':>7}"
          f" {'trips/op':>9} {'conns/op':>9}")
    base = None
    failed = 0
    Cluster.connect = counted_connect
    try:
        for name, build in targets:
            workload = cls(seed, ops)
            # In place of setup().
            workload.session, workload.clock, network = build()
            workload.load()
            workload.warm_up()
            trips, conns = wire(network)
            workload.measure()
            trips, conns = (now - then for now, then
                            in zip(wire(network), (trips, conns)))
            workload.finish()
            mean_us = sum(workload.walls) / len(workload.walls) / 1e3
            base = base or mean_us
            n = len(workload.walls)
            print(f"{name:<10} {mean_us:11.1f} {mean_us / base:8.2f}"
                  f" {workload.failed:7d} {trips / n:9.3f} {conns / n:9.3f}")
            for error in workload.errors[:3]:
                print(f"  FAILED CHECK: {error}")
            failed += workload.failed
            if name == "citus 0+1" and (trips or conns):
                print(f"  FAILED CHECK: Citus 0+1 made {trips} round trips and"
                      f" opened {conns} connections: its tasks are local")
                failed += 1
    finally:
        Cluster.connect = connect
    return failed


if __name__ == "__main__":
    sys.exit(1 if main() else 0)
