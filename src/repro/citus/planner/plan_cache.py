"""Distributed plan cache.

Planning a distributed statement repeats work that depends only on the
statement's *shape*: the cascade walk, the equivalence analysis, and the
per-shard query rewrite. This module caches that work keyed on a
parameterized fingerprint of the statement — literals and parameter
markers are normalized out — so repeated CRUD statements re-do only the
value-dependent part of planning: extracting the distribution value (or
pruning shards) from the newly bound parameters and picking placements
against the *current* metadata.

Correctness hinges on two rules:

- **Templates, not plans, are replayed.** A cached entry never re-ships
  artifacts that embed first-seen literal values. Replay starts from the
  normalized template (literals replaced by synthetic ``__cN`` params) and
  binds the current statement's extracted constants via
  :class:`~repro.engine.expr.BoundParams`, so every execution sees its own
  values. What a task on one shard is made of — placement node, shard
  group, shard-rewritten AST — is memoized per entry (``routes``): the ASTs
  contain only parameter markers, never values, so a fast-path hit is
  normalisation memo → LRU get → bind → extract the distribution value →
  pick the shard → its route → plan.
- **Metadata generation.** Every entry records
  ``MetadataStore.generation`` at store time; DDL propagation,
  ``create_distributed_table`` and the shard rebalancer bump the counter,
  so a lookup that observes a different generation discards the entry
  instead of executing against stale shard placements. Everything an entry
  holds beyond the template (its table, its routes) is valid exactly that
  long: ``MetadataStore.reload`` swaps the cache in and then bumps the
  generation, and the check comes before any replay.

``GROUP BY`` / ``ORDER BY`` (and window ``PARTITION BY``) subtrees are
kept verbatim in both the template and the fingerprint: positional
references like ``GROUP BY 1`` are structurally significant to the
planner's mode choice, so two statements differing there must not share a
cache entry.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field as dc_field

from ...engine.expr import BoundParams
from ...engine.lru import LRUCache
from ...errors import ReproError, UnsupportedDistributedQuery
from ...sql import ast as A
from ..sharding import (NO_VALUE, UNSET, analyze_statement, dist_value_for,
                        prune_shards, statement_facts)
from .distributed import MultiTaskDMLPlan, MultiTaskSelectPlan, SingleTaskPlan
from .pushdown import plan_pushdown_select
from .tasks import Task, rewrite_to_shard

# Fields whose literal contents are planner-structural (positional group /
# sort references) and therefore stay verbatim in template + fingerprint.
_VERBATIM_FIELDS = {"group_by", "order_by", "partition_by", "distinct_on"}


# ------------------------------------------------------- normalization

def _normalize_value(value, consts: dict):
    if isinstance(value, A.Literal):
        name = f"__c{len(consts)}"
        consts[name] = value.value
        return A.Param(name=name)
    if isinstance(value, A.Node):
        changed = False
        kwargs = {}
        for name, may_hold_nodes in A.node_fields(type(value)):
            old = kwargs[name] = getattr(value, name)
            if may_hold_nodes and name not in _VERBATIM_FIELDS:
                new = kwargs[name] = _normalize_value(old, consts)
                if new is not old:
                    changed = True
        return type(value)(**kwargs) if changed else value
    if isinstance(value, list):
        new = [_normalize_value(v, consts) for v in value]
        if any(a is not b for a, b in zip(new, value)):
            return new
        return value
    if isinstance(value, tuple):
        new = tuple(_normalize_value(v, consts) for v in value)
        if any(a is not b for a, b in zip(new, value)):
            return new
        return value
    return value


def _fingerprint(value, parts: list) -> None:
    """Serialize the normalized template into a stable shape key."""
    if value is None:
        parts.append("~")
    elif isinstance(value, A.Param):
        parts.append(f"$({value.index},{value.name})")
    elif isinstance(value, A.Node):
        parts.append(type(value).__name__)
        parts.append("(")
        for name, _ in A.node_fields(type(value)):
            _fingerprint(getattr(value, name), parts)
        parts.append(")")
    elif isinstance(value, (list, tuple)):
        parts.append("[")
        for v in value:
            _fingerprint(v, parts)
        parts.append("]")
    else:
        parts.append(repr(value))


def _eligible(stmt) -> bool:
    if isinstance(stmt, (A.Select, A.Update, A.Delete)):
        return True
    if isinstance(stmt, A.Insert):
        # Only the fast-path insert shape replays from a template; multi-row
        # and positional inserts re-evaluate rows on the coordinator anyway.
        return stmt.select is None and len(stmt.rows) == 1 and bool(stmt.columns)
    return False


def _normalize_statement(stmt):
    """Return (template, consts, fingerprint) or None when ineligible.

    Memoized on the statement's :class:`~..sharding.StatementFacts`, so the
    walk and fingerprint run once per distinct statement."""
    facts = statement_facts(stmt)
    if facts.norm is UNSET:
        facts.norm = None
        if _eligible(stmt):
            consts: dict = {}
            template = _normalize_value(stmt, consts)
            parts: list = []
            _fingerprint(template, parts)
            facts.norm = (template, consts, "\x00".join(parts))
    return facts.norm


def statement_fingerprint(facts) -> tuple[str, str]:
    """The statement's identity on the telemetry surfaces, as ``(template,
    digest)``: the normalization template ``citus_stat_statements`` and the
    plan-search ring key on, and the short stable digest of it
    (pg_stat_statements' queryid, in spirit) that the activity view and ASH
    show. Plan-cache-ineligible shapes (multi-row INSERT, INSERT..SELECT,
    utility statements) are keyed by shape + table. Memoized on the
    statement's :class:`~..sharding.StatementFacts`, like the normalization
    it is made from."""
    if facts.fingerprint is None:
        stmt = facts.stmt
        norm = _normalize_statement(stmt)
        if norm is not None:
            # The template is NUL-separated and long; views show a digest.
            digest = hashlib.md5(norm[2].encode()).hexdigest()[:16]
            facts.fingerprint = (norm[2], digest)
        else:
            shape = f"{type(stmt).__name__}:{getattr(stmt, 'table', '')}"
            facts.fingerprint = (shape, shape)
    return facts.fingerprint


def make_bound(params, consts: dict) -> BoundParams:
    """Merge user parameters with template-extracted constants."""
    if isinstance(params, (list, tuple)):
        return BoundParams(positional=params, named=consts)
    if isinstance(params, dict):
        if consts:
            merged = dict(params)
            merged.update(consts)
            return BoundParams(named=merged)
        return BoundParams(named=params)
    return BoundParams(named=consts)


# ------------------------------------------------------------- entries

@dataclass
class CachedPlanEntry:
    kind: str  # "single" | "pushdown_select" | "pushdown_dml" | "uncacheable"
    generation: int
    template: object = None
    router: bool = False  # single: replay re-runs the equivalence analysis
    tier: str = ""
    detail: str = ""
    is_write: bool = False
    returns_rows: bool = True
    stats_key: str = ""
    # The hash-distributed table shards are picked from (None: there is
    # none, every replay misses) and the alias the template knows it by.
    # Like everything below, valid exactly as long as ``generation``.
    dist: object = None
    alias: str = ""
    # single: the template's StatementFacts (its compiled value extractor)
    facts: object = None
    # pushdown_select: skeleton built from the template on the first hit
    skeleton: object = None
    # shard_index -> (node, shard_group, shard-rewritten template AST): what
    # a task on that shard is made of. The AST holds parameter markers only
    # and is shared read-only across sessions.
    routes: dict = dc_field(default_factory=dict)
    # PlanSearch recorded when the plan was first built; from the first hit
    # on, its cached-marked copy, shared read-only by every hit so
    # alternatives stay observable for hot statements
    search: object = None


class PlanCache:
    """Per-extension distributed plan cache with generation invalidation."""

    def __init__(self, ext, capacity: int = 1024):
        self.ext = ext
        self.entries = LRUCache(capacity)

    # ------------------------------------------------------------ lookup

    def lookup(self, session, stmt, params):
        norm = _normalize_statement(stmt)
        if norm is None:
            return None
        template, consts, fingerprint = norm
        counters = self.ext.stat_counters
        entry = self.entries.get(fingerprint)
        if entry is None:
            counters.incr("plan_cache_misses")
            return None
        if entry.generation != self.ext.metadata.generation:
            self.entries.delete(fingerprint)
            counters.incr("plan_cache_invalidations")
            counters.incr("plan_cache_misses")
            return None
        if entry.kind == "uncacheable":
            counters.incr("plan_cache_misses")
            return None
        bound = make_bound(params, consts)
        try:
            plan = self._replay(session, entry, bound)
        except ReproError:
            # What the statement itself gets wrong (a parameter without a
            # value or a cast that fails: DataError; a value outside every
            # shard range: MetadataError) falls back to a full replan, which
            # reproduces the error. Anything else is a bug here: it raises.
            plan = None
        if plan is None:
            counters.incr("plan_cache_misses")
            return None
        plan.cached = True
        if entry.search is not None and self.ext.config.enable_plan_alternatives:
            if not entry.search.cached:
                entry.search = entry.search.replay_cached()
            plan.search = entry.search
        if entry.stats_key:
            self.ext.stats[entry.stats_key] += 1
        counters.incr("plan_cache_hits")
        return plan

    # ------------------------------------------------------------- store

    def store(self, stmt, plan) -> None:
        norm = _normalize_statement(stmt)
        if norm is None:
            return
        template, _consts, fingerprint = norm
        generation = self.ext.metadata.generation
        existing = self.entries.get(fingerprint)
        if existing is not None and existing.generation == generation:
            return
        entry = self._build_entry(template, plan, generation)
        entry.search = getattr(plan, "search", None)
        self.entries.put(fingerprint, entry)

    def _build_entry(self, template, plan, generation) -> CachedPlanEntry:
        def hash_table(name):
            dist = self.ext.metadata.cache.tables.get(name)
            return None if dist is None or dist.is_reference else dist

        if isinstance(plan, SingleTaskPlan):
            fast = plan.tier == "fast_path"
            table = None  # a router replay finds its tables by analysis
            if fast:
                table = (template.from_items[0].name
                         if isinstance(template, A.Select) else template.table)
            return CachedPlanEntry(
                kind="single", generation=generation, template=template,
                router=not fast, tier=plan.tier, detail=plan.detail,
                is_write=plan.is_write,
                returns_rows=plan.tasks[0].returns_rows,
                stats_key="fast_path_queries" if fast else "router_queries",
                dist=hash_table(table), facts=statement_facts(template),
            )
        if isinstance(plan, MultiTaskSelectPlan) and isinstance(template, A.Select):
            inner = plan.plan
            if inner.worker_query is not None and inner.anchor_alias is not None:
                return CachedPlanEntry(
                    kind="pushdown_select", generation=generation,
                    template=template, tier=plan.tier,
                    stats_key="pushdown_queries",
                    dist=hash_table(inner.anchor_table),
                    alias=inner.anchor_alias,
                )
        if isinstance(plan, MultiTaskDMLPlan) and isinstance(
            template, (A.Update, A.Delete)
        ):
            return CachedPlanEntry(
                kind="pushdown_dml", generation=generation, template=template,
                tier=plan.tier, is_write=True, stats_key="pushdown_queries",
                dist=hash_table(template.table),
                alias=template.alias or template.table,
            )
        # InsertValuesPlan, reference/local plans, join-order and
        # INSERT..SELECT plans re-plan every time.
        return CachedPlanEntry(kind="uncacheable", generation=generation)

    # ------------------------------------------------------------ replay

    def _replay(self, session, entry: CachedPlanEntry, bound: BoundParams):
        if entry.kind == "single":
            if entry.router:
                return self._replay_router(entry, bound)
            return self._replay_single(entry, bound)
        if entry.kind == "pushdown_select":
            return self._replay_pushdown_select(entry, bound)
        if entry.kind == "pushdown_dml":
            return self._replay_pushdown_dml(entry, bound)
        return None

    def _route(self, entry: CachedPlanEntry, dist, shard_index, template=None):
        """``(node, shard_group, shard statement)`` of the entry's task on
        one shard, built on the first replay that lands there."""
        route = entry.routes.get(shard_index)
        if route is None:
            cache = self.ext.metadata.cache
            route = entry.routes[shard_index] = (
                cache.placement_node(dist.shards[shard_index].shardid),
                (dist.colocation_id, shard_index),
                rewrite_to_shard(
                    template if template is not None else entry.template,
                    cache, shard_index),
            )
        return route

    def _tasks(self, entry, dist, shard_indexes, bound, returns_rows=True,
               template=None):
        tasks = []
        for index in shard_indexes:
            node, group, stmt = self._route(entry, dist, index, template)
            tasks.append(Task(node, None, bound, shard_group=group,
                              returns_rows=returns_rows, stmt=stmt))
        return tasks

    def _single_task_plan(self, entry, dist, value, bound):
        node, group, stmt = self._route(entry, dist,
                                        dist.shard_index_for_value(value))
        task = Task(node, None, bound, group, entry.returns_rows, stmt)
        # The value a fast-path replay routes on is the statement's tenant;
        # a router replay's common constant is not (telemetry asks the
        # extractor itself, as it does on a miss).
        return SingleTaskPlan(self.ext, [task], entry.detail, tier=entry.tier,
                              is_write=entry.is_write,
                              dist_value=NO_VALUE if entry.router else value)

    def _replay_single(self, entry: CachedPlanEntry, bound):
        """Fast-path replay: only the distribution value is re-extracted."""
        dist = entry.dist
        if dist is None:
            return None
        value = dist_value_for(self.ext.metadata.cache, entry.facts, bound)
        if value is NO_VALUE:
            return None
        return self._single_task_plan(entry, dist, value, bound)

    def _replay_router(self, entry: CachedPlanEntry, bound):
        """Router replay re-runs the equivalence analysis (the routing
        decision depends on the bound values), skipping the cascade."""
        analysis = analyze_statement(entry.template, self.ext.metadata.cache,
                                     bound, self.ext.instance.catalog)
        dist = analysis.distributed
        if not dist or analysis.locals:
            return None
        if len({o.dist.colocation_id for o in dist}) != 1:
            return None
        value, ok = analysis.common_constant()
        if not ok:
            return None
        return self._single_task_plan(entry, dist[0].dist, value, bound)

    def _prune(self, entry: CachedPlanEntry, dist, where, bound):
        shard_indexes = prune_shards(dist, where, bound, entry.alias)
        pruned = len(dist.shards) - len(shard_indexes)
        if pruned:
            self.ext.stat_counters.incr("planner_shards_pruned", pruned)
        return shard_indexes

    def _replay_pushdown_select(self, entry: CachedPlanEntry, bound):
        skeleton = entry.skeleton
        if skeleton is None:
            # First hit: plan the template once. All later hits re-do only
            # shard pruning + task construction from this skeleton.
            analysis = analyze_statement(entry.template,
                                         self.ext.metadata.cache, bound,
                                         self.ext.instance.catalog)
            try:
                skeleton = plan_pushdown_select(self.ext, entry.template,
                                                bound, analysis)
            except UnsupportedDistributedQuery:
                return None
            if skeleton is None:
                return None
            entry.skeleton = skeleton
            for task in skeleton.tasks:
                entry.routes.setdefault(
                    task.shard_group[1], (task.node, task.shard_group, task.stmt))
            # Its own tasks carry this first hit's bindings already.
            return MultiTaskSelectPlan(self.ext, skeleton, bound)
        dist = entry.dist
        if dist is None:
            return None
        tasks = self._tasks(
            entry, dist,
            self._prune(entry, dist, skeleton.worker_query.where, bound),
            bound, template=skeleton.worker_query)
        return MultiTaskSelectPlan(
            self.ext, dataclasses.replace(skeleton, tasks=tasks), bound)

    def _replay_pushdown_dml(self, entry: CachedPlanEntry, bound):
        dist = entry.dist
        if dist is None:
            return None
        return MultiTaskDMLPlan(self.ext, self._tasks(
            entry, dist, self._prune(entry, dist, entry.template.where, bound),
            bound, bool(getattr(entry.template, "returning", []))))
