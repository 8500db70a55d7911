"""Optimal allocation of goods to a coalition, by the matroid greedy.

All value sits on goods, so for a fixed coalition the sets of goods its
members can hold together (each member at most ``k`` goods, each good one it
is interested in) are the independent sets of a transversal matroid
(Edmonds & Fulkerson 1965), and the greedy that takes goods by descending
value, keeping each one that leaves the kept set independent, finds a
maximum-value allocation (Edmonds 1971).  A good is kept when a
breadth-first search finds an augmenting path from it: from the members
interested in it, through goods held by full members to other members
interested in those goods, up to a member holding fewer than ``k``.

Goods with value zero are never taken.  Goods are taken in one fixed order
(value descending, ties by ascending good index) and a coalition's value is
the sum of its kept goods in ascending good index, so it is a deterministic
function of the scenario and the coalition.  Every solver in the package
funnels through this kernel.

``add_agent`` extends an optimal allocation by one agent with at most ``k``
augmenting searches, and ``remove_agent`` is its mirror: it takes one member
out with at most ``k`` searches.  Both return the member's marginal
contribution, and both leave an optimal allocation behind, so one optimum
from the greedy can be carried through many coalitions that differ by one
member at a time.  ``marginal_gain`` (the greedy plus ``add_agent``) serves
the range sampler's samples through ``model.marginal_restricted``;
``removal_marginals`` gives every member's marginal to the rest of a
coalition from one greedy, for separability, pruning and the range
sampler's ranges; the bounds sweep carries two optima through its subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .model import Coalition, ScenarioError, mask_to_indices

if TYPE_CHECKING:  # pragma: no cover
    from .model import AllocationScenario

# greedy matchings and add/remove searches run in this process; jobs report
# deltas so parallel runs can still aggregate a meaningful total
_SOLVE_CALLS = 0
_SEARCH_CALLS = 0


def solve_calls() -> int:
    return _SOLVE_CALLS


def search_calls() -> int:
    """Calls of ``add_agent`` and ``remove_agent`` (one per call, not per unit)."""
    return _SEARCH_CALLS


def greedy(
    scenario: "AllocationScenario", coalition: Coalition
) -> tuple[dict[int, int], dict[int, list[int]]]:
    """An optimal allocation for the coalition: each held good's holder, and
    each member's goods."""
    global _SOLVE_CALLS
    _SOLVE_CALLS += 1
    k = scenario.k
    claimers = scenario.good_claimers
    load: dict[int, int] = {}  # goods held by each member still searched
    held: dict[int, list[int]] = {}
    goods: set[int] = set()
    for a in mask_to_indices(coalition, scenario.n).tolist():
        load[a] = 0
        held[a] = []
        goods.update(scenario.interest[a])
    holder: dict[int, int] = {}
    for g in sorted(goods, key=scenario.good_rank.__getitem__):
        # the first interested member with room takes g; if all are full,
        # search onward from them, breadth first
        parent: dict[int, tuple[int, int] | None] = {}
        end = -1
        for a in claimers[g]:
            if a in load:
                if load[a] < k:
                    end = a
                    break
                parent[a] = None
        if end < 0:
            queue = list(parent)
            for a in queue:
                if load[a] < k:
                    end = a
                    break
                for g2 in held[a]:
                    for b in claimers[g2]:
                        if b in load and b not in parent:
                            parent[b] = (a, g2)
                            queue.append(b)
            if end < 0:
                # every member reached is full and reaches only full
                # members, so no later augmenting path passes through them
                for a in queue:
                    del load[a]
                continue
        load[end] += 1
        b = end
        step = parent.get(b)
        while step is not None:
            a, g2 = step
            held[a].remove(g2)
            held[b].append(g2)
            holder[g2] = b
            b = a
            step = parent[b]
        held[b].append(g)
        holder[g] = b
    return holder, held


def _value(scenario: "AllocationScenario", holder: dict[int, int]) -> float:
    """Total value of the held goods, summed in ascending good index."""
    if not holder:
        return 0.0
    return float(np.sum(scenario.good_values[sorted(holder)]))


def optimal_value_only(scenario: "AllocationScenario", coalition: Coalition) -> float:
    """Maximum total value of a feasible allocation for the coalition.

    Fast path that skips reconstructing who-gets-what.  The value is summed
    over the selected goods in ascending good order, so it is a deterministic
    function of the scenario and the coalition.
    """
    if coalition == 0:
        return 0.0
    if coalition & (coalition - 1) == 0:
        return float(scenario.solo_value[coalition.bit_length() - 1])
    return _value(scenario, greedy(scenario, coalition)[0])


@dataclass
class Allocation:
    """A feasible assignment of goods to the agents of one coalition."""

    assignment: dict[str, frozenset[str]]

    def value(self, scenario: "AllocationScenario") -> float:
        total = 0.0
        for goods in self.assignment.values():
            for g in goods:
                total += float(scenario.good_values[scenario.good_index[g]])
        return total

    def validate(self, scenario: "AllocationScenario", coalition: Coalition) -> None:
        members = set(scenario.ids_of(coalition))
        seen: set[str] = set()
        for a, goods in self.assignment.items():
            if a not in members:
                raise ScenarioError(f"allocation assigns goods to non-member {a!r}")
            if len(goods) > scenario.k:
                raise ScenarioError(f"agent {a!r} holds more than k={scenario.k} goods")
            row = scenario.interest[scenario.agent_index[a]]
            allowed = {scenario.good_ids[j] for j in row}
            for g in goods:
                if g not in allowed:
                    raise ScenarioError(f"agent {a!r} assigned uninteresting good {g!r}")
                if g in seen:
                    raise ScenarioError(f"good {g!r} assigned twice")
                seen.add(g)


def add_agent(
    scenario: "AllocationScenario",
    holder: dict[int, int],
    held: dict[int, list[int]],
    i: int,
) -> float:
    """Add agent ``i`` to an optimal allocation in place; return the gain.

    ``holder`` maps each held good to its holder and ``held`` each member to
    its goods.  On entry they describe an optimal allocation for a coalition
    without ``i``; on return, one for the coalition with ``i``.

    Agent ``i`` is added one capacity unit at a time.  Adding a unit changes
    the optimal allocation by a single alternating path from ``i``, whose
    net gain is the value of the free good at its far end (displaced holders
    keep their goods' values in the system), so each augmentation reduces to
    a reachability search over displacement moves and the best gain is the
    most valuable reachable free good.  Gains are non-increasing, so the
    greedy sum over at most k units is exact (Edmonds 1971).
    """
    global _SEARCH_CALLS
    _SEARCH_CALLS += 1
    positive, values = scenario.positive_interest, scenario.good_value_list
    own = positive[i]
    mine = held[i] = []
    total = 0.0
    if not own:
        return total
    # No unit gains more than the best good ``i`` wants (else the displaced
    # holders could have shifted without ``i``) or than the unit before it,
    # so a search may stop at the first free good worth ``ceiling``: it is
    # the first maximum in breadth-first order either way.
    ceiling = values[scenario.solo_goods(i)[0]]
    for _ in range(min(scenario.k, len(own))):
        best_good = -1
        best_val = 0.0
        # breadth-first over displacement moves; every good queued is a key
        # of ``parent``, so each is visited once
        parent = {g: -1 for g in own if g not in mine}
        queue = list(parent)
        for g in queue:
            h = holder.get(g)
            if h is None:
                if values[g] > best_val:
                    best_val = values[g]
                    best_good = g
                    if best_val >= ceiling:
                        break
                continue
            theirs = held[h]
            for g2 in positive[h]:
                if g2 not in parent and g2 not in theirs:
                    parent[g2] = g
                    queue.append(g2)
        if best_good < 0:
            break
        total += best_val
        ceiling = best_val
        # apply the chain: walk back to a good wanted by i, shifting holders
        g = best_good
        prev = parent[g]
        while prev != -1:
            h = holder[prev]
            theirs = held[h]
            theirs.remove(prev)
            theirs.append(g)
            holder[g] = h
            g = prev
            prev = parent[g]
        holder[g] = i
        mine.append(g)
    return total


def remove_agent(
    scenario: "AllocationScenario",
    holder: dict[int, int],
    held: dict[int, list[int]],
    i: int,
) -> float:
    """Remove member ``i`` from an optimal allocation in place; return the loss.

    The mirror of ``add_agent``: on entry ``holder`` and ``held`` (with a key
    for every member) describe an optimal allocation for a coalition S with
    ``i``, on return one for S - i; the loss is v(S) - v(S - i).

    ``i`` gives up one capacity unit at a time, and each changes the optimum
    by one alternating path (Leonard 1983): a member interested in one of
    ``i``'s goods takes it and gives up one of its own, and so on, until a
    member with room takes a good (no loss) or a good is dropped.  A
    breadth-first search from ``i``'s goods finds the cheapest such path: 0
    if it reaches a member holding fewer than ``k`` goods, else the least
    valuable good visited (the first in breadth-first order on ties).  The
    losses are the unit gains ``add_agent`` finds when ``i`` comes back, so
    they are summed in descending order to give ``marginal_gain(S - i, i)``
    bit for bit.  Call ``add_agent`` afterwards to probe without keeping the
    change.
    """
    global _SEARCH_CALLS
    _SEARCH_CALLS += 1
    k = scenario.k
    claimers, values = scenario.good_claimers, scenario.good_value_list
    mine = held.pop(i)
    losses: list[float] = []
    while mine:
        # parent[g] is the good that g's holder takes when it gives g up,
        # -1 for i's own goods; every member is visited once, so every good
        # is queued once
        parent = {g: -1 for g in mine}
        queue = list(mine)
        seen: set[int] = set()
        cheapest = queue[0]
        taker = -1
        for g in queue:
            if values[g] < values[cheapest]:
                cheapest = g
            for b in claimers[g]:
                if b in seen or b not in held:
                    continue
                seen.add(b)
                theirs = held[b]
                if len(theirs) < k:
                    taker = b
                    break
                for g2 in theirs:
                    parent[g2] = g
                    queue.append(g2)
            if taker >= 0:
                break
        if taker < 0:
            # drop the cheapest good; its holder takes the good before it
            g = cheapest
            h = holder.pop(g)
            losses.append(values[g])
            if parent[g] == -1:
                mine.remove(g)
                continue
            held[h].remove(g)
            taker, g = h, parent[g]
        # shift the chain back to i: taker takes g from its holder, who
        # takes the good before g, and so on
        while True:
            prev = parent[g]
            h = holder[g]
            holder[g] = taker
            held[taker].append(g)
            if prev == -1:
                mine.remove(g)
                break
            held[h].remove(g)
            taker, g = h, prev
    return sum(sorted(losses, reverse=True), 0.0)


def removal_marginals(scenario: "AllocationScenario", coalition: Coalition) -> dict[int, float]:
    """``{i: v(coalition) - v(coalition - i)}`` for every member ``i``.

    One greedy for the coalition, then per member ``remove_agent`` and
    ``add_agent`` to restore an optimum, so each marginal costs at most 2k
    searches.  A member with no neighbor in the coalition gets its solo
    value.  Bit for bit equal to ``model.marginal_restricted(scenario, i,
    coalition - i)``.
    """
    neigh = scenario.graph.neighbor_masks
    holder, held = greedy(scenario, coalition)
    out: dict[int, float] = {}
    for i in mask_to_indices(coalition, scenario.n).tolist():
        if neigh[i] & coalition == 0:
            out[i] = float(scenario.solo_value[i])
            continue
        out[i] = remove_agent(scenario, holder, held, i)
        add_agent(scenario, holder, held, i)
    return out


def marginal_gain(scenario: "AllocationScenario", coalition: Coalition, i: int) -> float:
    """opt(coalition + i) - opt(coalition), without valuing either side.

    One optimal allocation of ``coalition`` comes from the greedy, and
    ``add_agent`` adds ``i`` to it by at most k augmentations.  Much cheaper
    than two full matchings when the coalition is large and ``i`` touches
    little of it.
    """
    if coalition & (1 << i):
        raise ScenarioError(f"agent index {i} already belongs to the coalition")
    if not scenario.positive_goods(i):
        return 0.0
    holder, held = greedy(scenario, coalition)
    return add_agent(scenario, holder, held, i)


def optimal_allocation(
    scenario: "AllocationScenario", coalition: Coalition
) -> tuple[Allocation, float]:
    """An optimal feasible allocation for the coalition, with its value."""
    if coalition == 0:
        return Allocation(assignment={}), 0.0
    assignment: dict[str, set[str]] = {a: set() for a in scenario.ids_of(coalition)}
    if coalition & (coalition - 1) == 0:
        i = coalition.bit_length() - 1
        for j in scenario.solo_goods(i):
            assignment[scenario.agents[i]].add(scenario.good_ids[j])
        value = float(scenario.solo_value[i])
    else:
        holder, _ = greedy(scenario, coalition)
        for g, a in holder.items():
            assignment[scenario.agents[a]].add(scenario.good_ids[g])
        value = _value(scenario, holder)
    return (
        Allocation(assignment={a: frozenset(g) for a, g in assignment.items()}),
        value,
    )
