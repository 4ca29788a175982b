"""Every telemetry surface, byte for byte, against a dump captured from
the tree before the telemetry spine (``tests/golden/telemetry.json``; see
``tests/golden/telemetry_script.py`` for the script and how to regenerate).

The script runs in a fresh interpreter with a fixed hash seed: the dump
holds 2PC gids, compile counts and backend pids, which depend on process-
global counters that earlier tests in this process have already moved.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import types

from repro import make_cluster
from repro.citus.extension import CitusConfig
from repro.citus.telemetry import Telemetry
from repro.errors import ReproError

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SRC_DIR = os.path.join(os.path.dirname(GOLDEN_DIR), os.pardir, "src")


def _run_script() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.path.abspath(SRC_DIR))
    proc = subprocess.run(
        [sys.executable, os.path.join(GOLDEN_DIR, "telemetry_script.py")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    return json.loads(proc.stdout)


def _first_difference(got, want, path=""):
    """Where two JSON values first differ, for a readable failure."""
    if type(got) is not type(want):
        return f"{path}: {got!r} != {want!r}"
    if isinstance(want, dict):
        for key in sorted(set(got) | set(want)):
            if key not in got or key not in want:
                return f"{path}/{key}: present on one side only"
            found = _first_difference(got[key], want[key], f"{path}/{key}")
            if found:
                return found
        return None
    if isinstance(want, list):
        for i, (g, w) in enumerate(zip(got, want)):
            found = _first_difference(g, w, f"{path}[{i}]")
            if found:
                return found
        if len(got) != len(want):
            return f"{path}: {len(got)} entries != {len(want)}"
        return None
    return None if got == want else f"{path}: {got!r} != {want!r}"


def test_every_surface_matches_the_dump_captured_before_the_spine():
    with open(os.path.join(GOLDEN_DIR, "telemetry.json")) as f:
        want = json.load(f)
    got = _run_script()
    assert got["statements_issued"] == want["statements_issued"]
    assert got["errors"] == want["errors"]
    assert got["sim_seconds"] == want["sim_seconds"]
    for index, (g, w) in enumerate(zip(got["checkpoints"], want["checkpoints"])):
        assert _first_difference(g, w, f"checkpoints[{index}]") is None
    for surface in sorted(want["final"]):
        difference = _first_difference(
            got["final"].get(surface), want["final"][surface], surface)
        assert difference is None, difference
    assert sorted(got["final"]) == sorted(want["final"])


# ------------------------------------------------------------- fold purity


def _workload_records():
    """The closed records of a small mixed workload, in emission order,
    the clock they were stamped from and the extension that ran them."""
    citus = make_cluster(workers=2, shard_count=8,
                         config=CitusConfig(log_min_duration=0.0))
    telemetry = citus.coordinator_ext.telemetry
    records = []
    emit = telemetry._emit
    telemetry._emit = lambda record: (records.append(record), emit(record))
    s = citus.coordinator_session()
    s.execute("CREATE TABLE t (k int PRIMARY KEY, v int)")
    s.execute("SELECT create_distributed_table('t', 'k')")
    s.copy_rows("t", [[k, k] for k in range(64)])
    rng = random.Random(7)
    for i in range(150):
        citus.cluster.clock.advance(rng.choice((0.0, 0.002)))
        k = rng.randrange(64)
        if i % 10 == 3:
            s.execute("BEGIN")
            s.execute("UPDATE t SET v = v + 1 WHERE k = $1", [k])
            s.execute("UPDATE t SET v = v - 1 WHERE k = $1", [63 - k])
            s.execute("COMMIT")
        elif i % 10 == 7:
            s.execute("SELECT count(*), sum(v) FROM t")
        elif i % 25 == 0:
            try:
                s.execute("INSERT INTO t (k, v) VALUES ($1, 0)", [k])
            except ReproError:
                pass
        else:
            s.execute("SELECT v FROM t WHERE k = $1", [k])
    return records, citus.cluster.clock, citus.coordinator_ext


def _fold_dump(records, chunk: int, clock, ext) -> str:
    """Feed ``records`` to a fresh set of folds (statements, tenants, the
    co-access graph, slow log, ASH, traces), draining every ``chunk``
    records, and dump every surface they make."""
    telemetry = Telemetry(types.SimpleNamespace(), clock)
    telemetry.tracing = telemetry.introspection = telemetry.graphing = True
    telemetry.history = True
    telemetry.ash.ext = ext
    telemetry.log_min_duration = 0.0
    for start in range(0, len(records), chunk):
        for record in records[start:start + chunk]:
            telemetry._emit(record)
        telemetry.drain()
    return json.dumps({
        "statements": telemetry.statement_rows(),
        "tenants": telemetry.tenant_rows(),
        "graph": telemetry.graph.vertex_rows(),
        "ash": telemetry.ash.statement_rows(),
        "counters": telemetry.registry.as_dict(),
        "slow_log": telemetry.slow_queries(),
        "trace": telemetry.export_chrome(),
    }, sort_keys=True, default=str)


def test_folds_are_pure_functions_of_the_record_stream():
    """The same records through a fresh set of folds give the same dumps
    whether drained one by one, seven at a time or all at once."""
    records, clock, ext = _workload_records()
    assert len(records) > 150
    whole = _fold_dump(records, len(records), clock, ext)
    assert _fold_dump(records, 1, clock, ext) == whole
    assert _fold_dump(records, 7, clock, ext) == whole
    assert '"txngraph_txns"' in whole and '"2pc.prepare"' in whole
    assert '"access_tenants"' in whole and '"RemoteExecute"' in whole
