"""The extension surface earns its keep: every GUC (a ``CitusConfig``
field) and every UDF (a row of ``UDFS``) is read somewhere in the shipped
code — ``src/``, ``benchmarks/`` or ``examples/``, outside the tables
themselves — or is kept on purpose, with the paper section or Citus API it
stands for in :data:`KEEP`. Tests do not count as readers: an entry only
its own test reads is the dead weight this audit exists to find.

The check goes by name. A GUC is read where code takes the attribute
(``config.shard_count``), names it in a string (``citus_set_config(
'enable_ash', ..)``) or passes it as a keyword (``CitusConfig(
enable_tracing=False)``). A UDF is read where a SQL string calls it
(``SELECT citus_add_node($1)``); docstrings and error messages are not
SQL.

README's Observability table is held to the UDF table too: every
``citus_*`` name it backticks is a registered UDF, and every
``citus_stat_*`` view (resets aside) has a row.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
import re

from repro.citus.extension import TELEMETRY_SWITCHES, UDFS, CitusConfig

ROOT = pathlib.Path(__file__).resolve().parents[1]
TREES = ("src", "benchmarks", "examples")

GUCS = {f.name for f in dataclasses.fields(CitusConfig)}
UDF_NAMES = {name for name, _fn, _coordinator_only in UDFS}

#: Entries nothing in the shipped code reads, kept for what they stand for.
KEEP = {
    "citus_move_shard_placement": "§3.4 shard rebalancer: a single move",
    "isolate_tenant_to_new_shard": "§2.1 tenant isolation",
    "citus_drain_node": "Citus API: empty a node before removing it",
    "undistribute_table": "Citus API: turn a distributed table back into a local one",
    "create_range_distributed_table": "§3.3.1 range distribution",
    "citus_table_size": "Citus monitoring: a distributed table's size",
    "run_command_on_workers": "Citus API: the one text command to every worker",
    "citus_shards": "Citus monitoring view",
    "citus_tables": "Citus monitoring view",
    "citus_explain": "§3.5 distributed EXPLAIN as a UDF",
    "citus_explain_analyze": "§3.5 distributed EXPLAIN ANALYZE as a UDF",
    "citus_trace_export": "tracing: the span ring for chrome://tracing",
    "citus_slow_queries": "tracing: the log_min_duration slow-query log",
    "citus_dist_stat_activity": "Citus monitoring view (§3.1 global PIDs)",
    "citus_lock_waits": "Citus monitoring view: distributed lock waits",
    "get_rebalance_progress": "Citus API: §3.4 move progress",
    "citus_stat_tenants": "Citus monitoring view: per-tenant statistics (§2.1)",
    "citus_metrics_snapshot": "Prometheus scrape of every counter and ring",
}

def _docstrings(tree) -> set[int]:
    """ids of the docstring nodes of a module and its classes and functions."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                found.add(id(first.value))
    return found


def _shipped_code():
    """(strings, attribute names, keyword names) over the shipped trees."""
    strings, attributes, keywords = [], set(), set()
    for tree_name in TREES:
        for path in sorted((ROOT / tree_name).rglob("*.py")):
            tree = ast.parse(path.read_text())
            docstrings = _docstrings(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.JoinedStr):
                    strings.append("{}".join(
                        part.value for part in node.values
                        if isinstance(part, ast.Constant)))
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and id(node) not in docstrings):
                    strings.append(node.value)
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                elif isinstance(node, ast.keyword) and node.arg:
                    keywords.add(node.arg)
    return strings, attributes, keywords


STRINGS, ATTRIBUTES, KEYWORDS = _shipped_code()


def _guc_is_read(name: str) -> bool:
    return name in ATTRIBUTES or name in KEYWORDS or any(
        re.search(rf"\b{name}\b", s) for s in STRINGS)


def _udf_is_called(name: str) -> bool:
    call = re.compile(rf"\bSELECT\b.*\b{name}\(", re.IGNORECASE | re.DOTALL)
    return any(call.search(s) for s in STRINGS)


def test_every_guc_has_a_reader_or_a_reason():
    unread = sorted(name for name in GUCS
                    if not _guc_is_read(name) and name not in KEEP)
    assert unread == []


def test_every_udf_has_a_caller_or_a_reason():
    uncalled = sorted(name for name in UDF_NAMES
                      if not _udf_is_called(name) and name not in KEEP)
    assert uncalled == []


def test_every_kept_entry_is_on_the_surface_unread_and_says_why():
    assert set(KEEP) <= GUCS | UDF_NAMES
    assert all(reason.strip() for reason in KEEP.values())
    # An entry that gained a reader leaves the list.
    assert [name for name in KEEP
            if (_guc_is_read if name in GUCS else _udf_is_called)(name)] == []


def _observability_table_names() -> set[str]:
    """The ``citus_*`` names backticked in README's Observability table."""
    lines = (ROOT / "README.md").read_text().splitlines()
    section = lines.index("## Observability")
    header = next(i for i in range(section, len(lines))
                  if lines[i].startswith("| Surface |"))
    names = set()
    for line in lines[header + 2:]:
        if not line.startswith("|"):
            break
        names.update(re.match(r"\w+", span).group(0)
                     for span in re.findall(r"`([^`]*)`", line)
                     if span.startswith("citus_"))
    return names


def test_the_observability_table_names_only_registered_udfs():
    assert sorted(_observability_table_names() - UDF_NAMES) == []


def test_every_stat_view_is_in_the_observability_table():
    views = {name for name in UDF_NAMES
             if name.startswith("citus_stat_") and not name.endswith("_reset")}
    assert sorted(views - _observability_table_names()) == []


def test_the_ledger_switches_are_still_fields():
    """``benchmarks/ledger`` keeps its own copy of the five telemetry
    switches it passes to ``CitusConfig``; they must stay fields, and stay
    the ones the rest of the benchmarks take from ``src/``."""
    from benchmarks.ledger.workloads import TELEMETRY_GUCS

    assert len(TELEMETRY_GUCS) == 5 and set(TELEMETRY_GUCS) <= GUCS
    assert tuple(TELEMETRY_GUCS) == TELEMETRY_SWITCHES
