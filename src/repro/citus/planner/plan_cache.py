"""Distributed plan cache.

Planning a distributed statement repeats work that depends only on the
statement's *shape*: the cascade walk, the equivalence analysis, and the
per-shard query rewrite. A cascade tier therefore plans in two phases — a
shape, decided once from the statement with its literals and parameter
markers normalised out, and ``shape.bind(params)`` per execution, which
extracts the distribution value (or prunes shards) from the bound values
and makes the plan. This module stores accepted shapes under the
statement's parameterised fingerprint. It knows normalisation,
fingerprints, the LRU and the generation rule; what a shape is belongs to
the tier that made it.

Correctness hinges on two rules:

- **A shape holds no value.** The cascade is walked over the normalised
  template (literals replaced by synthetic ``__cN`` params) and the
  statement's constants merged with the user's parameters
  (:class:`~repro.engine.expr.BoundParams`), the same pair a later lookup
  binds the stored shape with, so every execution sees its own values. A
  miss and a hit differ by one dictionary lookup: a fast-path hit is
  normalisation memo → LRU get → bind.
- **Metadata generation.** Every entry records
  ``MetadataStore.generation`` at store time; DDL propagation,
  ``create_distributed_table`` and the shard rebalancer bump the counter,
  so a lookup that observes a different generation discards the entry
  instead of executing against stale shard placements. Everything a shape
  holds (its table, its routes) is a function of the template and the
  metadata cache, so it is valid exactly that long:
  ``MetadataStore.reload`` swaps the cache in and then bumps the
  generation, and the check comes before any bind.

``GROUP BY`` / ``ORDER BY`` (and window ``PARTITION BY``) subtrees are
kept verbatim in both the template and the fingerprint: positional
references like ``GROUP BY 1`` are structurally significant to the
planner's mode choice, so two statements differing there must not share a
cache entry.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ...engine.expr import BoundParams
from ...engine.lru import LRUCache
from ...errors import ReproError
from ...sql import ast as A
from ..sharding import UNSET, statement_facts

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
        # Only the fast-path insert has a shape; multi-row and positional
        # inserts evaluate their rows on the coordinator every time.
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


def normalized(stmt, params):
    """What the cascade plans for a statement: its template and bound
    parameters, or the statement and its parameters as they are when it is
    not eligible for the cache."""
    norm = _normalize_statement(stmt)
    if norm is None:
        return stmt, params
    return norm[0], make_bound(params, norm[1])


# ------------------------------------------------------------- entries

@dataclass
class CachedPlanEntry:
    # What ``bind(params)`` makes an execution's plan from; None marks a
    # statement whose plan is made from the statement itself (reference,
    # local, join-order and row-evaluating INSERT plans), planned every time.
    shape: object
    generation: int
    # PlanSearch recorded when the shape was planned; from the first hit
    # on, its cached-marked copy, shared read-only by every hit so
    # alternatives stay observable for hot statements
    search: object = None


class PlanCache:
    """Per-extension distributed plan cache with generation invalidation."""

    def __init__(self, ext, capacity: int = 1024):
        self.ext = ext
        self.entries = LRUCache(capacity)

    def lookup(self, stmt, params):
        """The statement's plan, bound from its stored shape, or None."""
        norm = _normalize_statement(stmt)
        if norm is None:
            return None
        _template, consts, fingerprint = norm
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
        plan = None
        if entry.shape is not None:
            try:
                plan = entry.shape.bind(make_bound(params, consts))
            except ReproError:
                # What the statement itself gets wrong (a parameter without
                # a value or a cast that fails: DataError; a value outside
                # every shard range: MetadataError) is left to the cascade,
                # which reproduces the error. Anything else is a bug: it
                # raises.
                pass
        if plan is None:
            # These values do not fit the shape: the cascade is walked for
            # this execution, and the stored shape stays.
            counters.incr("plan_cache_misses")
            return None
        plan.cached = True
        if entry.search is not None and self.ext.config.enable_plan_alternatives:
            if not entry.search.cached:
                entry.search = entry.search.replay_cached()
            plan.search = entry.search
        counters.incr("plan_cache_hits")
        return plan

    def store(self, stmt, plan) -> None:
        norm = _normalize_statement(stmt)
        if norm is None:
            return
        fingerprint = norm[2]
        generation = self.ext.metadata.generation
        existing = self.entries.get(fingerprint)
        if existing is not None and existing.generation == generation:
            return
        self.entries.put(fingerprint,
                         CachedPlanEntry(plan.shape, generation, plan.search))
