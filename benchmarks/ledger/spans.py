"""Outside-in layer spans.

The ledger times the program's layers without editing the program: before
a traced cluster is built, :func:`install` replaces the public callables
at each layer boundary (listed in :func:`targets`) with wrappers that
record a span, and :meth:`SpanRecorder.remove` puts the identical function
objects back afterwards. Wrapping has to precede ``make_cluster`` because
the extension registers its transaction callbacks as bound methods at
install time.

A span is ``[name, layer, start_ns, end_ns, parent, op]``: ``parent`` is
the index of the enclosing span (-1 for a root) and ``op`` the id of the
benchmark operation that caused it (-1 outside any op). Everything runs on
one thread, so spans nest strictly and a span's *self time* is its
duration minus its direct children's durations.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

#: Span field positions.
NAME, LAYER, START, END, PARENT, OP = range(6)
COLUMNS = ("name", "layer", "start_ns", "end_ns", "parent", "op")


class SpanRecorder:
    def __init__(self):
        self.spans: list[list] = []
        self.enabled = False  # wrappers pass straight through while False
        self.op = -1  # set by the benchmark loop around each operation
        self._open: list[int] = []
        self._originals: list[tuple] = []

    # ------------------------------------------------------------ wrapping

    def wrap(self, owner, attr: str, layer: str, name: str) -> None:
        """Replace ``owner.attr`` (a class or module attribute) with a
        span-recording wrapper, remembering the original for remove()."""
        original = vars(owner)[attr]
        setattr(owner, attr, self._traced(original, name, layer))
        self._originals.append((owner, attr, original))

    def wrap_function(self, fn, layer: str) -> None:
        """Wrap a module-level function wherever ``repro`` bound it by
        name — its home module and every ``from x import fn`` importer."""
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and vars(module).get(fn.__name__) is fn):
                self.wrap(module, fn.__name__, layer, name)

    def remove(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _traced(self, original, name: str, layer: str):
        recorder, spans, open_ = self, self.spans, self._open
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            # A callable re-entered directly from itself (deparse walking
            # its tree, a UDF running SQL on its own session) stays one span.
            if not recorder.enabled or (open_ and spans[open_[-1]][NAME] is name):
                return original(*args, **kwargs)
            span = [name, layer, clock(), 0, open_[-1] if open_ else -1,
                    recorder.op]
            open_.append(len(spans))
            spans.append(span)
            try:
                return original(*args, **kwargs)
            finally:
                span[END] = clock()
                open_.pop()

        return traced


def targets():
    """``(methods, functions)`` to wrap: ``(class, attr, layer)`` triples
    and ``(function, layer)`` pairs, one group per layer of the program."""
    # insert_select is imported lazily by the planner; load it now so its
    # plan classes are among CustomScanPlan's subclasses below.
    from repro.citus import insert_select  # noqa: F401
    from repro.citus.copy_dist import distribute_rows
    from repro.citus.executor.adaptive import AdaptiveExecutor
    from repro.citus.planner import join_order
    from repro.citus.planner.distributed import plan_statement
    from repro.citus.planner.plan_cache import PlanCache
    from repro.citus.txn.twopc import TransactionCallbacks
    from repro.engine.executor import EngineCursor, LocalExecutor
    from repro.engine.hooks import CustomScanPlan, HookRegistry
    from repro.engine.instance import Session
    from repro.net.network import RemoteConnection, RemoteCursor
    from repro.net.pool import PooledClient
    from repro.sql.parser import parse

    # ``repro.sql.deparse`` the attribute is the function; the module of
    # the same name holds it.
    deparse = importlib.import_module("repro.sql.deparse").deparse

    methods = [
        (HookRegistry, "call_planner", "planner"),
        (PlanCache, "lookup", "planner"),
        (AdaptiveExecutor, "execute_tasks", "executor"),
        (AdaptiveExecutor, "open_task_streams", "executor"),
        (AdaptiveExecutor, "open_copy_channels", "executor"),
        (RemoteConnection, "execute", "net"),
        (RemoteConnection, "execute_parsed", "net"),
        (RemoteConnection, "execute_async", "net"),
        (RemoteConnection, "execute_cursor", "net"),
        (RemoteConnection, "copy_rows", "net"),
        (RemoteCursor, "fetch_batch", "net"),
        (PooledClient, "execute", "pool"),
        (PooledClient, "copy_rows", "pool"),
        # Worker dispatch goes through the _async and cursor variants;
        # unwrapped, worker time would land in ``net``.
        (Session, "execute", "engine"),
        (Session, "execute_async", "engine"),
        (Session, "execute_parsed", "engine"),
        (Session, "execute_parsed_async", "engine"),
        (Session, "execute_parsed_cursor", "engine"),
        (Session, "copy_rows", "engine"),
        (Session, "commit", "engine"),
        (EngineCursor, "fetch", "engine"),
        (LocalExecutor, "execute_select", "engine"),
        (LocalExecutor, "execute_cursor", "engine"),
        (LocalExecutor, "execute_insert", "engine"),
        (LocalExecutor, "execute_update", "engine"),
        (LocalExecutor, "execute_delete", "engine"),
        (TransactionCallbacks, "pre_commit", "txn"),
        (TransactionCallbacks, "post_commit", "txn"),
        (TransactionCallbacks, "abort", "txn"),
    ]
    # Every distributed plan's execute(); the INSERT..SELECT plans are the
    # write plane, the rest the executor (dispatch + coordinator merge).
    pending = list(CustomScanPlan.__subclasses__())
    while pending:
        plan = pending.pop()
        pending.extend(plan.__subclasses__())
        if "execute" in vars(plan):
            layer = "writeplane" if "InsertSelect" in plan.__name__ else "executor"
            methods.append((plan, "execute", layer))
    methods.append((join_order.RepartitionPlan, "execute", "executor"))

    functions = [
        (parse, "sql"),
        (deparse, "sql"),
        (plan_statement, "planner"),
        (distribute_rows, "writeplane"),
    ]
    return methods, functions


def install(recorder: SpanRecorder) -> None:
    methods, functions = targets()
    for owner, attr, layer in methods:
        recorder.wrap(owner, attr, layer, f"{owner.__name__}.{attr}")
    for fn, layer in functions:
        recorder.wrap_function(fn, layer)


# ------------------------------------------------------------- arithmetic


def self_times(spans) -> list[int]:
    """Per-span self time in ns: duration minus direct children."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def side_labels(spans) -> list[str]:
    """Each span's layer, with ``engine`` split by side: an engine span
    beneath a ``net`` span ran on a worker backend (``engine.worker``),
    any other is the coordinating backend (``engine.coord``) — also when
    the coordinating node is a worker with synced metadata."""
    labels: list[str] = []
    beneath_net: list[bool] = []
    for span in spans:
        parent = span[PARENT]
        remote = parent >= 0 and (beneath_net[parent]
                                  or spans[parent][LAYER] == "net")
        beneath_net.append(remote)
        layer = span[LAYER]
        if layer == "engine":
            layer = "engine.worker" if remote else "engine.coord"
        labels.append(layer)
    return labels


def summarize(spans) -> dict:
    """Fold the spans that belong to an op (``op >= 0``) into per-layer
    self time, per-name call counts / inclusive time / self time, and the
    number of worker statements (engine spans entered straight from a
    ``net`` span)."""
    own = self_times(spans)
    labels = side_labels(spans)
    layer_self: Counter = Counter()
    calls: Counter = Counter()
    inclusive: Counter = Counter()
    name_self: Counter = Counter()
    worker_statements = 0
    for span, self_ns, label in zip(spans, own, labels):
        if span[OP] < 0:
            continue
        name = span[NAME]
        layer_self[label] += self_ns
        calls[name] += 1
        inclusive[name] += span[END] - span[START]
        name_self[name] += self_ns
        parent = span[PARENT]
        if (label == "engine.worker" and parent >= 0
                and spans[parent][LAYER] == "net"):
            worker_statements += 1
    return {
        "layer_self_ns": dict(layer_self),
        "calls": dict(calls),
        "inclusive_ns": dict(inclusive),
        "self_ns": dict(name_self),
        "worker_statements": worker_statements,
    }
