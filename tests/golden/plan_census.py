"""The planner census: what the distributed planner decides for every
statement the differential tests hold, without running any of them.

Per statement of ``tests/test_engine_oracle.py``'s sets (``QUERIES``, each
also wrapped as a level that runs once, ``REFUSED_OR_RIGHT``, ``ANSWERED``,
``JOIN_ORDER``, ``ORDER_BY_SUBQUERY``, the UPDATE / DELETE and ``*`` level
sets) and of ``tpch.QUERIES``, on the oracle's 0x4, 1x4 and 4x16 layouts
(``tests/oracle.py``'s data, and ``loc``, a plain table of 1, 2, 3): the
tier EXPLAIN reports and its ``Subplan:`` record, or the error planning
raises. A set a tree does not define is empty, so the same script runs on
any tree::

    PYTHONPATH=src python tests/golden/plan_census.py > census.json

A planner change runs it on the parent tree and on the change and diffs
the two: every statement whose tier or subplans moved is in the diff.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from repro import make_cluster  # noqa: E402
from repro.citus.observability import explain  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.workloads import tpch  # noqa: E402
from tests import test_engine_oracle as suite  # noqa: E402
from tests.oracle import load  # noqa: E402

SETS = ("QUERIES", "REFUSED_OR_RIGHT", "ANSWERED", "JOIN_ORDER",
        "ORDER_BY_SUBQUERY", "RUN_ONCE_WRITES", "PER_SHARD_WRITES",
        "STAR_LEVELS")
#: An intermediate's name carries a process-wide counter.
_COUNTED = re.compile(r"(citus_(?:subplan|bcast|repart)_)\d+")


def statements() -> dict:
    """``{set: {name: (sql, params)}}``."""
    found = {}
    for set_name in SETS:
        entries = {}
        for name, entry in getattr(suite, set_name, {}).items():
            sql, params = (entry, None) if isinstance(entry, str) else (
                entry[0], entry[1] if isinstance(entry[1], dict) else None)
            entries[name] = (sql, params)
            if set_name == "QUERIES":
                entries[f"{name} (as a level)"] = (
                    f"SELECT * FROM ({sql} OFFSET 0) wrapped", params)
        found[set_name] = entries
    found["tpch.QUERIES"] = {name: (sql, None)
                             for name, sql in tpch.QUERIES.items()}
    return found


def decision(session, sql, params) -> dict:
    """The tier and subplans planning picks for a statement, or its error."""
    try:
        explained = explain(session, sql, params)
    except ReproError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"tier": explained.tier, "subplan": explained.subplan}


def census() -> dict:
    found = statements()
    out = {set_name: {name: {} for name in entries}
           for set_name, entries in found.items()}
    for layout, (workers, shards) in sorted(suite.LAYOUTS.items()):
        session = make_cluster(workers=workers,
                               shard_count=shards).coordinator_session()
        load(session, distributed=True)
        session.execute("CREATE TABLE loc (x int)")
        session.execute("INSERT INTO loc VALUES (1), (2), (3)")
        for set_name, entries in found.items():
            for name, (sql, params) in entries.items():
                out[set_name][name][layout] = decision(session, sql, params)
    return json.loads(_COUNTED.sub(r"\1N", json.dumps(out)))


if __name__ == "__main__":
    json.dump(census(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
