"""The candidate-plan pipeline: explicit records of the §3.5 cascade walk.

"Citus iterates over the four planners, from lowest to highest overhead" —
historically that walk was an opaque chain of ``try_*`` calls that threw
away everything it considered. This module makes the walk explicit:

- :class:`PlannerTier` names one tier of the cascade and the function that
  attempts it;
- :class:`PlanCandidate` is one considered plan — either costed (chosen or
  a viable alternative, e.g. the join-order planner's losing strategies) or
  rejected with a structured :class:`RejectionReason`;
- :class:`PlanSearch` is the per-statement record the driver in
  :mod:`.distributed` fills in: tiers tried in order, accept/reject with
  reason, chosen cost vs. best-alternative cost.

Searches surface through ``citus_plan_alternatives()`` (JSON), the
"Considered:" lines of ``citus_explain``, the planning span of the Chrome
trace export, and — replayed, marked ``cached`` — through the distributed
plan cache. ``benchmarks/bench_plan_quality.py`` diffs chosen tier and
cost ratio per query fingerprint against a checked-in baseline so planner
refactors cannot silently demote queries down the cascade.

The cost model is deliberately coarse: dispatching a task costs
:data:`TASK_COST` network-byte-equivalents (connection + round trip), plus
any bytes the plan physically moves (``estimated_network_bytes`` for
join-order moves). It only has to rank candidates consistently — the same
job the join-order planner's network estimate already does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Cascade tiers in the order the driver tries them (lowest overhead first).
CASCADE_TIER_NAMES = ("fast_path", "router", "pushdown", "join_order")

#: Rank for tier-downgrade detection: larger = more expensive tier.
TIER_RANK = {name: rank for rank, name in enumerate(CASCADE_TIER_NAMES)}

#: Display label per tier (the strings EXPLAIN has always printed).
TIER_LABELS = {
    "fast_path": "Fast Path Router",
    "router": "Router",
    "pushdown": "Pushdown",
    "join_order": "Join Order",
    "insert_values": "Insert (values)",
    "insert_select": "Insert..Select",
    "reference": "Reference Table DML",
    "local_reference": "Local (reference replica)",
}

#: Cost of dispatching one task, in network-byte-equivalents: a per-task
#: connection/round-trip charge so a 1-task router plan beats an 8-task
#: pushdown plan even though neither moves table data.
TASK_COST = 1000.0


def tier_label(tier: str) -> str:
    return TIER_LABELS.get(tier, tier)


def candidate_cost(task_count: int, network_bytes: float = 0.0) -> float:
    """Estimated cost of a candidate: tasks dispatched + bytes moved."""
    return max(int(task_count), 1) * TASK_COST + float(network_bytes)


@dataclass
class PlannerTier:
    """One tier of the cascade: its name and the function that attempts it.

    ``try_fn(ext, session, stmt, params, analysis, search)`` returns an
    executable plan or None (recording its rejection into ``search``), and
    may raise UnsupportedDistributedQuery for recognisably unsupported SQL.
    """

    name: str
    try_fn: object


@dataclass
class RejectionReason:
    """Why a tier could not (or was not allowed to) plan a statement."""

    tier: str
    code: str  # stable machine-readable reason, e.g. "no_dist_value"
    detail: str = ""

    def as_dict(self) -> dict:
        return {"tier": self.tier, "code": self.code, "detail": self.detail}


@dataclass
class PlanCandidate:
    """One considered plan: costed (chosen/alternative) or rejected."""

    tier: str
    status: str  # "chosen" | "alternative" | "rejected"
    detail: str = ""  # display label, e.g. "Join Order (broadcast)"
    cost: float | None = None
    rejection: RejectionReason | None = None
    attrs: dict = field(default_factory=dict)  # tasks, moved_table, ...

    def as_dict(self) -> dict:
        return {
            "tier": self.tier,
            "status": self.status,
            "detail": self.detail,
            "cost": self.cost,
            "rejection": self.rejection.as_dict() if self.rejection else None,
            "attrs": dict(self.attrs),
        }


@dataclass
class PlanSearch:
    """Everything the cascade considered for one statement."""

    statement: str | None = None
    fingerprint: str | None = None
    tiers_tried: list = field(default_factory=list)
    candidates: list = field(default_factory=list)
    cached: bool = False  # replayed from the distributed plan cache
    hits: int = 0  # plan-cache hits that replayed it
    error: str | None = None  # UnsupportedDistributedQuery text, if raised
    # event_attrs() of a cached search: nothing records into it any more
    _event_attrs: tuple | None = field(default=None, repr=False, compare=False)

    # --------------------------------------------------------- recording

    def note_tier(self, tier: str) -> None:
        if tier not in self.tiers_tried:
            self.tiers_tried.append(tier)

    def reject(self, tier: str, code: str, detail: str = "") -> None:
        self.note_tier(tier)
        self.candidates.append(PlanCandidate(
            tier, "rejected", detail=tier_label(tier),
            rejection=RejectionReason(tier, code, detail),
        ))

    def accept(self, tier: str, detail: str, cost: float, **attrs) -> None:
        self.note_tier(tier)
        self.candidates.append(PlanCandidate(
            tier, "chosen", detail=detail, cost=cost, attrs=attrs,
        ))

    def alternative(self, tier: str, detail: str, cost: float, **attrs) -> None:
        self.note_tier(tier)
        self.candidates.append(PlanCandidate(
            tier, "alternative", detail=detail, cost=cost, attrs=attrs,
        ))

    # ----------------------------------------------------------- reading

    @property
    def chosen(self) -> PlanCandidate | None:
        for candidate in self.candidates:
            if candidate.status == "chosen":
                return candidate
        return None

    @property
    def chosen_tier(self) -> str | None:
        chosen = self.chosen
        return chosen.tier if chosen is not None else None

    @property
    def chosen_cost(self) -> float | None:
        chosen = self.chosen
        return chosen.cost if chosen is not None else None

    @property
    def best_alternative_cost(self) -> float | None:
        costs = [c.cost for c in self.candidates
                 if c.status == "alternative" and c.cost is not None]
        return min(costs) if costs else None

    @property
    def cost_ratio(self) -> float | None:
        """Chosen cost over the best costed candidate (>= 1.0; exactly 1.0
        when the planner picked the cheapest option it saw)."""
        chosen = self.chosen_cost
        if chosen is None:
            return None
        costs = [c.cost for c in self.candidates if c.cost is not None]
        best = min(costs)
        if best <= 0:
            return None
        return chosen / best

    def event_attrs(self) -> tuple:
        """What the trace's plan event shows of the search, as flat
        ``(key, value, ...)`` event attrs."""
        attrs = self._event_attrs
        if attrs is None:
            attrs = ("tiers_tried", ",".join(self.tiers_tried),
                     "chosen_cost", self.chosen_cost,
                     "best_alternative_cost", self.best_alternative_cost,
                     "cost_ratio", self.cost_ratio)
            if self.cached:
                self._event_attrs = attrs
        return attrs

    def replay_cached(self) -> "PlanSearch":
        """What cache hits replay: the original search, marked cached — one
        copy, shared read-only by every hit (and held once by the
        plan-search ring, counting the hits). The candidate list is shared
        with the stored search."""
        return PlanSearch(
            statement=self.statement, fingerprint=self.fingerprint,
            tiers_tried=list(self.tiers_tried), candidates=self.candidates,
            cached=True, error=self.error,
        )

    def as_dict(self) -> dict:
        return {
            "statement": self.statement,
            "fingerprint": self.fingerprint,
            "tiers_tried": list(self.tiers_tried),
            "candidates": [c.as_dict() for c in self.candidates],
            "chosen_tier": self.chosen_tier,
            "chosen_cost": self.chosen_cost,
            "best_alternative_cost": self.best_alternative_cost,
            "cost_ratio": self.cost_ratio,
            "cached": self.cached,
            "hits": self.hits,
            "error": self.error,
        }

    def considered_lines(self) -> list[str]:
        """The "Considered:" block of ``citus_explain``."""
        lines = []
        for c in self.candidates:
            if c.status == "rejected":
                desc = f"rejected [{c.rejection.code}]"
                if c.rejection.detail:
                    desc += f" {c.rejection.detail}"
            else:
                desc = f"{c.status} cost={c.cost:.0f}"
                if c.attrs:
                    extra = " ".join(f"{k}={v}" for k, v in sorted(c.attrs.items()))
                    desc += f" ({extra})"
            lines.append(f"Considered: {c.tier} {desc}")
        return lines


def record_chosen_plan(search: PlanSearch, plan) -> None:
    """Derive the chosen candidate from an accepted plan's shape, unless
    the tier already recorded a richer one (join order records its whole
    candidate list itself)."""
    if search.chosen is not None:
        return
    tier = plan.tier
    detail = plan.detail or tier_label(tier)
    # A cascade tier's plan (bound from a shape) costs its tasks. A plan
    # made from the statement itself has no candidate to be ranked against
    # and costs one dispatch, which is what the checked-in plan-quality
    # baseline holds it to.
    task_count = len(plan.tasks) if plan.shape is not None else 1
    network_bytes = float(plan.estimated_network_bytes)
    attrs = {"tasks": task_count}
    total_shards = getattr(plan.shape, "total_shards", 0)
    if total_shards:
        attrs["total_shards"] = total_shards
        attrs["pruned_shards"] = max(total_shards - task_count, 0)
    search.accept(tier, detail, candidate_cost(task_count, network_bytes),
                  **attrs)
