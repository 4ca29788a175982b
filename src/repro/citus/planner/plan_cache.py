"""Distributed plan cache.

Planning a distributed statement repeats work that depends only on the
statement's *shape*: the cascade walk, the equivalence analysis, and the
per-shard query rewrite. A cascade tier therefore plans in two phases — a
shape, decided once from the statement with its literals and parameter
markers normalised out, and ``shape.bind(params)`` per execution, which
extracts the distribution value (or prunes shards) from the bound values
and makes the plan. This module stores accepted shapes under the
statement's parameterised fingerprint (the normalisation and fingerprint
are :mod:`repro.sql.facts`'s, derived from the AST alone). It knows the
LRU and the generation rule; what a shape is belongs to the tier that made
it.

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

from ...engine.expr import BoundParams
from ...engine.lru import LRUCache
from ...errors import ReproError
from ...sql.facts import statement_facts, statement_fingerprint, statement_norm


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
    norm = statement_norm(statement_facts(stmt))
    if norm is None:
        return stmt, params
    return norm[0], make_bound(params, norm[1])


# ------------------------------------------------------------- entries

class CachedPlanEntry:
    """One stored shape and what every hit on it reports the same way."""

    __slots__ = ("shape", "generation", "search", "identity", "plan_event")

    def __init__(self, shape, generation: int, search, identity):
        # What ``bind(params)`` makes an execution's plan from; None marks
        # a statement whose plan is made from the statement itself
        # (reference, local, join-order and row-evaluating INSERT plans),
        # planned every time.
        self.shape = shape
        self.generation = generation
        # PlanSearch recorded when the shape was planned; from the first
        # hit on, its cached-marked copy, shared read-only by every hit so
        # alternatives stay observable for hot statements.
        self.search = search
        # The statements' telemetry identity (``statement_fingerprint``),
        # a function of the fingerprint the entry is stored under.
        self.identity = identity
        # The attrs of the plan event a hit traces, as ``(task count,
        # search, attrs)``.
        self.plan_event = None


class PlanCache:
    """Per-extension distributed plan cache with generation invalidation."""

    def __init__(self, ext, capacity: int = 1024):
        self.ext = ext
        self.entries = LRUCache(capacity)

    def lookup(self, facts, params):
        """``(plan, entry)``: the statement's plan, bound from the shape
        ``entry`` stores; None on a miss."""
        norm = statement_norm(facts)
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
                # a value or a cast that fails: DataError) is left to the
                # cascade, which reproduces the error. Anything else is a
                # bug: it raises.
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
        if facts.fingerprint is None:
            facts.fingerprint = entry.identity
        batch = counters.batch
        batch[_HIT] = batch.get(_HIT, 0) + 1
        return plan, entry

    def store(self, facts, plan) -> None:
        norm = statement_norm(facts)
        if norm is None:
            return
        fingerprint = norm[2]
        generation = self.ext.metadata.generation
        existing = self.entries.get(fingerprint)
        if existing is not None and existing.generation == generation:
            return
        self.entries.put(fingerprint, CachedPlanEntry(
            plan.shape, generation, plan.search, statement_fingerprint(facts)))


#: The registry batch key of a hit (see ``StatsRegistry.batch``).
_HIT = ((0, "plan_cache_hits", "", 1),)
