"""Game simplifications that shrink an instance without moving any Shapley value.

Four reductions are applied, in an order chosen so that each one can expose
more work for the next:

1. agents with no interests are resolved at value 0;
2. zero-value goods are dropped (they never enter an optimal allocation and
   link no agents, so this only shrinks the scenario);
3. agents whose solo optimum equals their marginal contribution to the grand
   coalition have no synergy with anyone, so their Shapley value is exactly
   that solo optimum; they are resolved and removed in one pass, since
   removing one moves no other agent's marginal;
4. goods too weak to ever affect an agent's marginal contribution are
   pruned from that agent's interest set, over the whole remainder at once,
   and the remainder splits into connected components of the agents graph,
   each an independent game.

The result is a partition: every original agent is either resolved with a
final value or belongs to exactly one residual component.

Stages 3 and 4 need every agent's marginal v(C) - v(C - i) to the
coalition C of all agents still live: the whole scenario for stage 3, the
remainder for stage 4.  Both take them from ``matching.removal_marginals``:
one greedy for C, then each member removed from that optimum and added
back, instead of one greedy per agent.

Each stage is also a public function that builds the scenario the next one
reads.  ``run_pipeline`` gives the same outcome without those intermediate
scenarios: stages 3 and 4 pass coalition masks over the loaded scenario,
whose goods order (value descending, ties by index) and claimers order
restriction keeps, so each call runs the same greedy and searches and
returns the same floats.  Only the residual components are built, once
each, from their pruned interest rows.  The separability test
(``_separable``) and the pruning rule (``_useful_goods``) each exist once,
shared by the stage functions and the pipeline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .matching import removal_marginals
from .model import (
    AllocationScenario, connected_components, iter_bits, mask_from_indices, neighbor_masks,
    sum_best_first,
)

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
    # seconds per stage: "separate", "prune" and "components"
    stage_times: dict[str, float] = field(default_factory=dict)

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
    empty = tuple(a for a, row in zip(scenario.agents, scenario.interest) if not row)
    if not empty:
        return (), scenario
    return empty, scenario.restrict(a for a, row in zip(scenario.agents, scenario.interest) if row)


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


def _separable(scenario: AllocationScenario, live: int, tol: float) -> dict[int, float]:
    """``{i: opt({i})}`` for each member i of ``live`` whose marginal
    v(live) - v(live - i) reaches opt({i}) within ``tol * max(1, opt({i}))``."""
    out: dict[int, float] = {}
    for i, marg in removal_marginals(scenario, live).items():
        solo = float(scenario.solo_value[i])
        if marg >= solo - tol * max(1.0, solo):
            out[i] = solo
    return out


def separate_singletons(
    scenario: AllocationScenario,
    tol: float = REL_TOL,
) -> tuple[dict[str, float], AllocationScenario]:
    """Resolve synergy-free agents at their solo optimum, in one pass.

    An agent i qualifies when marg(i, N) = v(N) - v(N - i) reaches its solo
    optimum opt({i}): anti-monotonicity of marginals then pins every one of
    its marginal contributions, hence its Shapley value, to opt({i}).  The
    marginals come from one ``removal_marginals`` call: one greedy for the
    whole scenario, then at most 2k searches per agent.

    One pass finds every qualifier.  If marg(i, N) = opt({i}), then
    v(C + i) = v(C) + opt({i}) for every C, so marg(j, C + i) = marg(j, C)
    for every other agent j: removing i moves no other marginal, and a
    second pass would find nothing new.  The test passes within
    ``tol * max(1, opt({i}))``; removing such an i raises marg(j, .) by
    marg(i, N - j) - marg(i, N), which lies in [0, opt({i}) - marg(i, N)],
    so at most by that same tolerance.  An agent that would pass only after
    such a near-tie neighbour is removed therefore stays in the remainder,
    where its component's solver values it in the same reduced game; a
    fixpoint would have resolved it too.
    """
    resolved = _separable(scenario, scenario.full_mask, tol)
    if not resolved:
        return {}, scenario
    rest = (a for i, a in enumerate(scenario.agents) if i not in resolved)
    return {scenario.agents[i]: v for i, v in resolved.items()}, scenario.restrict(rest)


def _useful_goods(
    scenario: AllocationScenario, live: int, rows, tol: float
) -> tuple[dict[int, list[int]], list[tuple[str, str]]]:
    """The pruning rule over the members of ``live``: each member's goods in
    ``rows[i]`` that it keeps, and the ``(agent id, good id)`` pairs it
    prunes, in member and row order; ``top`` is summed best first."""
    values = scenario.good_value_list
    kept: dict[int, list[int]] = {}
    pruned: list[tuple[str, str]] = []
    for i, marg in removal_marginals(scenario, live).items():
        top = scenario.solo_goods(i)[: scenario.k - 1]
        top_rest = sum_best_first(map(values.__getitem__, top))
        bar = marg - tol * max(1.0, marg)
        keep = kept[i] = []
        for j in rows[i]:
            if j not in top and values[j] + top_rest < bar:
                pruned.append((scenario.agents[i], scenario.good_ids[j]))
            else:
                keep.append(j)
    return kept, pruned


def prune_useless_goods(
    scenario: AllocationScenario,
    tol: float = REL_TOL,
) -> tuple[AllocationScenario, list[tuple[str, str]]]:
    """Drop goods from interest sets that can never lift a marginal contribution.

    A good g is useless for agent i when even combined with i's best k-1
    other goods it stays strictly below i's marginal contribution
    marg(i, N) to the grand coalition: whatever coalition i joins, an
    optimal allocation never needs g for i.  Only i's own interest set
    changes; other agents keep the good.

    In closed form, with ``top`` the first k-1 of i's solo goods: a good in
    ``top``, combined with its best k-1 other goods, forms i's solo bundle,
    worth opt({i}) >= marg(i, N), so it is never pruned.  Every other good
    j is combined with exactly ``top`` and pruned iff ``value(j) + sum(top)
    < marg - tol * max(1, marg)``.  The grand marginals come from one
    greedy and ``removal_marginals``.

    Components share no positive good and keep their relative order of
    agents and goods, so the greedy for a union of components allocates each
    one exactly as its own greedy does, and the marginals, hence the pruned
    pairs, are bit for bit those of pruning each component alone.
    """
    kept, pruned = _useful_goods(scenario, scenario.full_mask, scenario.interest, tol)
    if not pruned:
        return scenario, []
    ids = scenario.good_ids
    interest = {a: [ids[j] for j in kept[i]] for i, a in enumerate(scenario.agents)}
    goods = list(zip(ids, scenario.good_value_list))
    return AllocationScenario(scenario.agents, goods, interest, scenario.k), pruned


def _sub_scenario(
    scenario: AllocationScenario, members: int, goods, rows: dict[int, list[int]]
) -> AllocationScenario:
    """The members of ``members``, the ``goods`` (ascending) and each
    member's interest ``rows[i]``, as a scenario in declaration order."""
    agents, ids, values = scenario.agents, scenario.good_ids, scenario.good_value_list
    return AllocationScenario(
        [agents[i] for i in iter_bits(members)],
        [(ids[j], values[j]) for j in goods],
        {agents[i]: [ids[j] for j in rows[i]] for i in iter_bits(members)},
        scenario.k,
    )


def run_pipeline(scenario: AllocationScenario) -> PreprocessReport:
    """Full simplification pass; deterministic for a given scenario.

    The same outcome as ``drop_empty_agents``, ``strip_null_goods``,
    ``separate_singletons``, ``prune_useless_goods`` and
    ``split_components`` run in turn, without their intermediate scenarios:
    stages 3 and 4 pass coalition masks over ``scenario`` itself, and only
    the residual components are built, once each.  When no stage changes
    anything, the one component is ``scenario``.  ``stage_times`` holds the
    seconds spent separating, pruning and building the components.
    """
    t0 = time.perf_counter()
    agents, interest, values = scenario.agents, scenario.interest, scenario.good_value_list
    stage: dict[str, int] = {}

    empty = tuple(a for a, row in zip(agents, interest) if not row)
    stage["empty_agents_removed"] = len(empty)
    # the stages keep every declared good until an agent is dropped, then
    # only the goods the remaining agents name
    declared = set().union(*interest) if empty else range(len(values))
    null_removed = sum(1 for j in declared if not values[j] > 0.0)
    stage["null_goods_removed"] = null_removed
    rows = interest
    if null_removed:
        rows = [tuple(j for j in row if values[j] > 0.0) for row in interest]

    t_sep = time.perf_counter()
    live = mask_from_indices(i for i, row in enumerate(interest) if row)
    resolved = _separable(scenario, live, REL_TOL)
    rest = live & ~mask_from_indices(resolved)
    split = list(connected_components(rest, scenario.graph.neighbor_masks))
    stage["separable_agents_resolved"] = len(resolved)
    stage["components_after_split"] = len(split)

    t_prune = time.perf_counter()
    kept, pruned = _useful_goods(scenario, rest, rows, REL_TOL)
    stage["useless_pairs_pruned"] = len(pruned)

    t_comp = time.perf_counter()
    if pruned:
        claimers: dict[int, list[int]] = {}
        for i, row in kept.items():
            for j in row:
                claimers.setdefault(j, []).append(i)
        split = list(connected_components(rest, neighbor_masks(scenario.n, claimers.values())))
    if len(split) != 1:
        components = [
            _sub_scenario(scenario, mask, sorted(set().union(*map(kept.get, iter_bits(mask)))), kept)
            for mask in split
        ]
    elif not (empty or null_removed or resolved or pruned):
        components = [scenario]
    else:
        # split_components keeps a lone component whole, with the goods of
        # the scenario pruning read: those its agents name once an agent is
        # dropped, else every declared positive good
        if empty or resolved:
            goods = sorted(set().union(*(rows[i] for i in iter_bits(rest))))
        else:
            goods = [j for j, v in enumerate(values) if v > 0.0]
        components = [_sub_scenario(scenario, rest, goods, kept)]
    stage["final_components"] = len(components)
    t_end = time.perf_counter()

    report = PreprocessReport(
        original_agents=scenario.agents,
        removed_empty=empty,
        null_goods_removed=null_removed,
        resolved={agents[i]: v for i, v in resolved.items()},
        pruned_pairs=tuple(pruned),
        components=components,
        stage_counts=stage,
        stage_times={
            "separate": t_prune - t_sep,
            "prune": t_comp - t_prune,
            "components": t_end - t_comp,
        },
        wall_time=t_end - t0,
    )
    report.check_partition()
    return report
