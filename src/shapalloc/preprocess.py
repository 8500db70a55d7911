"""Game simplifications that shrink an instance without moving any Shapley value.

Four reductions are applied, in an order chosen so that each one can expose
more work for the next:

1. agents with no interests are resolved at value 0;
2. zero-value goods are dropped (they never enter an optimal allocation, but
   they fake connectivity between agents);
3. agents whose solo optimum equals their marginal contribution to the grand
   coalition have no synergy with anyone, so their Shapley value is exactly
   that solo optimum; they are resolved and removed, repeatedly, until no
   agent qualifies;
4. the remainder splits into connected components of the agents graph, each
   an independent game; inside each component, goods too weak to ever affect
   an agent's marginal contribution are pruned from that agent's interest
   set, and the component is re-split in case pruning disconnected it.

The result is a partition: every original agent is either resolved with a
final value or belongs to exactly one residual component.

Stages 3 and 4 need every agent's marginal v(C) - v(C - i) to its whole
component C.  Each takes them from ``matching.removal_marginals``: one
greedy for C, then each member removed from that optimum and added back,
instead of one greedy per agent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .matching import removal_marginals
from .model import AllocationScenario, connected_components, iter_bits

REL_TOL = 1e-9


@dataclass
class PreprocessReport:
    original_agents: tuple[str, ...]
    removed_empty: tuple[str, ...]
    null_goods_removed: int
    resolved: dict[str, float]
    pruned_pairs: tuple[tuple[str, str], ...]
    components: list[AllocationScenario]
    stage_counts: dict[str, int] = field(default_factory=dict)
    wall_time: float = 0.0

    def resolved_values(self) -> dict[str, float]:
        out = {a: 0.0 for a in self.removed_empty}
        out.update(self.resolved)
        return out

    def check_partition(self) -> None:
        """Every original agent appears exactly once across the outcome."""
        seen: dict[str, int] = {}
        for a in self.removed_empty:
            seen[a] = seen.get(a, 0) + 1
        for a in self.resolved:
            seen[a] = seen.get(a, 0) + 1
        for comp in self.components:
            for a in comp.agents:
                seen[a] = seen.get(a, 0) + 1
        if sorted(seen) != sorted(self.original_agents) or any(
            c != 1 for c in seen.values()
        ):
            raise AssertionError("preprocessing outcome does not partition the agents")

    def to_dict(self) -> dict:
        sizes = sorted((c.n for c in self.components), reverse=True)
        histogram: dict[int, int] = {}
        for s in sizes:
            histogram[s] = histogram.get(s, 0) + 1
        return {
            "agents": len(self.original_agents),
            "removed_empty": list(self.removed_empty),
            "null_goods_removed": self.null_goods_removed,
            "resolved": dict(sorted(self.resolved.items())),
            "pruned_pairs": [list(p) for p in self.pruned_pairs],
            "component_sizes": sizes,
            "component_size_histogram": {str(k): v for k, v in sorted(histogram.items())},
            "component_agents": [list(c.agents) for c in self.components],
            "stage_counts": self.stage_counts,
            "wall_time": self.wall_time,
        }


def drop_empty_agents(scenario: AllocationScenario) -> tuple[tuple[str, ...], AllocationScenario]:
    """Remove agents with an empty interest set; their Shapley value is 0."""
    empty = tuple(a for i, a in enumerate(scenario.agents) if not scenario.interest[i])
    if not empty:
        return (), scenario
    keep = [a for a in scenario.agents if a not in set(empty)]
    return empty, scenario.restrict(keep)


def strip_null_goods(scenario: AllocationScenario) -> AllocationScenario:
    """Drop goods of value 0 and references to them; the game is unchanged."""
    if not len(scenario.good_values) or scenario.good_values.min() > 0.0:
        return scenario
    keep = {j for j in range(len(scenario.good_ids)) if scenario.good_values[j] > 0.0}
    goods = [
        (scenario.good_ids[j], float(scenario.good_values[j]))
        for j in range(len(scenario.good_ids))
        if j in keep
    ]
    interest = {
        a: [scenario.good_ids[j] for j in scenario.interest[i] if j in keep]
        for i, a in enumerate(scenario.agents)
    }
    return AllocationScenario(scenario.agents, goods, interest, scenario.k)


def split_components(scenario: AllocationScenario) -> list[AllocationScenario]:
    """One sub-scenario per connected component of the agents graph."""
    comps = scenario.graph.components()
    if len(comps) <= 1 and scenario.n:
        return [scenario]
    return [scenario.restrict(scenario.ids_of(mask)) for mask in comps]


def separate_singletons(
    scenario: AllocationScenario,
    tol: float = REL_TOL,
) -> tuple[dict[str, float], AllocationScenario]:
    """Resolve synergy-free agents at their solo optimum, to a fixpoint.

    An agent i qualifies when opt({i}) + opt(N - i) <= opt(N), i.e. when its
    marginal contribution to the grand coalition already equals everything it
    could ever get alone.  Anti-monotonicity of marginals then pins every one
    of its marginal contributions, hence its Shapley value, to opt({i}).
    Removing such an agent can create new qualifiers, so the test is repeated
    on the shrinking remainder.  Each pass takes the marginals of every
    component's members to the rest of their component from
    ``removal_marginals``: one greedy per component, then at most k
    searches removing each member and k adding it back.
    """
    neigh = scenario.graph.neighbor_masks
    live = scenario.full_mask
    resolved: dict[str, float] = {}
    changed = True
    while changed and live:
        changed = False
        for comp in connected_components(live, neigh):
            members = list(iter_bits(comp))
            if len(members) == 1:
                i = members[0]
                resolved[scenario.agents[i]] = float(scenario.solo_value[i])
                live &= ~comp
                changed = True
                continue
            margs = removal_marginals(scenario, comp)
            for i in members:
                solo = float(scenario.solo_value[i])
                marg = margs[i]
                if marg >= solo - tol * max(1.0, solo):
                    resolved[scenario.agents[i]] = solo
                    live &= ~(1 << i)
                    changed = True
    if live == scenario.full_mask:
        return {}, scenario
    remainder = scenario.restrict(scenario.ids_of(live))
    return resolved, remainder


def prune_useless_goods(
    scenario: AllocationScenario,
    tol: float = REL_TOL,
) -> tuple[AllocationScenario, list[tuple[str, str]]]:
    """Drop goods from interest sets that can never lift a marginal contribution.

    A good g is useless for agent i when even combined with i's best k-1
    other goods it stays strictly below i's marginal contribution to the
    grand coalition: whatever coalition i joins, an optimal allocation never
    needs g for i.  (With capacity 2 the combination degenerates to g plus
    the single best alternative.)  Only i's own interest set changes; other
    agents keep the good.  The grand marginals come from one greedy and
    ``removal_marginals``.
    """
    k = scenario.k
    margs = removal_marginals(scenario, scenario.full_mask)
    pruned: list[tuple[str, str]] = []
    new_interest: dict[str, list[str]] = {}
    for i, a in enumerate(scenario.agents):
        row = scenario.interest[i]
        if not row:
            new_interest[a] = []
            continue
        marg = margs[i]
        vals = np.asarray([scenario.good_values[j] for j in row])
        order = np.argsort(-vals, kind="stable")
        keep: list[int] = []
        for j in row:
            vg = float(scenario.good_values[j])
            rest = [int(o) for o in order if row[int(o)] != j][: k - 1]
            top_rest = float(sum(vals[o] for o in rest))
            if vg + top_rest < marg - tol * max(1.0, marg):
                pruned.append((a, scenario.good_ids[j]))
            else:
                keep.append(j)
        new_interest[a] = [scenario.good_ids[j] for j in keep]
    if not pruned:
        return scenario, []
    return scenario.with_interest(new_interest), pruned


def run_pipeline(
    scenario: AllocationScenario,
    tol: float = REL_TOL,
) -> PreprocessReport:
    """Full simplification pass; deterministic for a given scenario."""
    t0 = time.perf_counter()
    stage: dict[str, int] = {}

    empty, s = drop_empty_agents(scenario)
    stage["empty_agents_removed"] = len(empty)

    before_goods = len(s.good_ids)
    s = strip_null_goods(s)
    null_removed = before_goods - len(s.good_ids)
    stage["null_goods_removed"] = null_removed

    resolved, s = separate_singletons(s, tol=tol)
    stage["separable_agents_resolved"] = len(resolved)

    comps = split_components(s) if s.n else []
    stage["components_after_split"] = len(comps)

    pruned_all: list[tuple[str, str]] = []
    final_components: list[AllocationScenario] = []
    for comp in comps:
        comp2, pruned = prune_useless_goods(comp, tol=tol)
        pruned_all.extend(pruned)
        if pruned:
            final_components.extend(split_components(comp2))
        else:
            final_components.append(comp2)
    stage["useless_pairs_pruned"] = len(pruned_all)
    stage["final_components"] = len(final_components)

    report = PreprocessReport(
        original_agents=scenario.agents,
        removed_empty=empty,
        null_goods_removed=null_removed,
        resolved=resolved,
        pruned_pairs=tuple(pruned_all),
        components=final_components,
        stage_counts=stage,
        wall_time=time.perf_counter() - t0,
    )
    report.check_partition()
    return report
