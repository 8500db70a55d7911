"""Optimal allocation of goods to a coalition, by the matroid greedy.

All value sits on goods, so for a fixed coalition the sets of goods its
members can hold together (each member at most ``k`` goods, each good one it
is interested in) are the independent sets of a transversal matroid
(Edmonds & Fulkerson 1965), and the greedy that takes goods by descending
value, keeping each one that leaves the kept set independent, finds a
maximum-value allocation (Edmonds 1971).  A good is kept when a
breadth-first search finds an augmenting path from it: from the members
interested in it, through goods held by full members to other members
interested in those goods, up to a member holding fewer than ``k``;
``remove_agent`` runs the same search (``_search``) and shift (``_shift``).

Goods with value zero are never taken: the greedy scans only its members'
``scenario.ranked_interest``.  Goods are taken in one fixed order
(value descending, ties by ascending good index) and a coalition's value is
the sum of its kept goods in ascending good index, so it is a deterministic
function of the scenario and the coalition.  Every solver in the package
funnels through this kernel.

An allocation is carried as two flat lists, and only this module reads or
writes them: ``holder`` has one slot per good, the agent holding it or -1
when it is free, and ``held`` one slot per agent, the list of its goods or
``None`` when the agent is not in the coalition.  ``empty_allocation`` and
``copy_allocation`` make them; ``greedy`` returns one for a coalition,
with the goods it kept in the order taken.  ``optimal_allocation`` gives
the same allocation by ids, ``{agent id: frozenset of good ids}``.

``add_agents`` extends an optimal allocation by a sequence of agents, each
with at most ``k`` augmenting searches, and ``remove_agent`` is its mirror:
it takes one member out with at most ``k`` searches.  Both return marginal
contributions, and both leave an optimal allocation behind, so one optimum
from the greedy can be carried through many coalitions that differ by one
member at a time.  An agent whose solo goods (the first ``k`` of
``scenario.ranked_interest``) are all free takes them with no search:
marg(i, P) <= opt({i}) by submodularity, and the free bundle reaches that
bound.  ``add_agents`` bounds every other search by value (see its
docstring), which moves no gain.  Both samplers' permutation walks add a
walk's agents with one ``add_agents`` call, but for the last agent, whose
marginal comes from ``removal_marginals``; ``add_agent`` is its one-agent
case; ``marginal_gain`` (the greedy plus ``add_agent``) serves one-off
marginals through ``model.marginal_restricted``; ``removal_marginals``
gives every member's marginal to the rest of a coalition from one greedy,
for separability, pruning and the range sampler's ranges; the bounds sweep
carries two optima through its subsets.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .model import Coalition, ScenarioError, iter_bits

if TYPE_CHECKING:  # pragma: no cover
    from .model import AllocationScenario

# greedy matchings and searches run in this process; jobs report deltas so
# parallel runs can still aggregate a meaningful total
_SOLVE_CALLS = 0
_SEARCH_CALLS = 0


def solve_calls() -> int:
    return _SOLVE_CALLS


def search_calls() -> int:
    """Calls of ``remove_agent``, and agents ``add_agents`` searched for
    (one per agent, not per unit; an agent that takes its free solo goods
    runs no search)."""
    return _SEARCH_CALLS


def empty_allocation(scenario: "AllocationScenario") -> tuple[list[int], list[list[int] | None]]:
    """The empty coalition's allocation: every good free, no member."""
    return [-1] * len(scenario.good_ids), [None] * scenario.n


def copy_allocation(
    holder: list[int], held: list[list[int] | None]
) -> tuple[list[int], list[list[int] | None]]:
    """A copy of an allocation that shares no list with it."""
    return holder.copy(), [None if goods is None else goods.copy() for goods in held]


def _search(claimers, members, k: int, sources):
    """Breadth-first search from the goods ``sources`` to a member with room.

    Members interested in a visited good are reached in ``claimers`` order,
    skipping those whose ``members`` entry is None; a full member's goods
    are queued in the order it holds them, so each good is visited once.
    Returns the member with room (-1 if none), the visited good it takes,
    each visited good's parent (the good its holder takes for it, -1 for a
    source), the goods visited in order and the members reached.
    """
    parent = dict.fromkeys(sources, -1)
    visited = list(sources)
    seen: set[int] = set()
    for g in visited:
        for b in claimers[g]:
            theirs = members[b]
            if theirs is None or b in seen:
                continue
            seen.add(b)
            if len(theirs) < k:
                return b, g, parent, visited, seen
            for g2 in theirs:
                parent[g2] = g
            visited.extend(theirs)
    return -1, -1, parent, visited, seen


def _shift(holder: list[int], held: list[list[int] | None], taker: int, g: int, parent) -> int:
    """``taker`` takes ``g``, ``g``'s holder the good before it, and so on back
    to a source, which is returned; its old holder is left to the caller."""
    while True:
        prev = parent[g]
        h = holder[g]
        holder[g] = taker
        held[taker].append(g)
        if prev == -1:
            return g
        held[h].remove(g)
        taker, g = h, prev


def greedy(
    scenario: "AllocationScenario", coalition: Coalition
) -> tuple[list[int], list[list[int] | None], list[int]]:
    """An optimal allocation for the coalition, as ``(holder, held, kept)``:
    ``kept`` lists its goods in the order the greedy took them."""
    global _SOLVE_CALLS
    _SOLVE_CALLS += 1
    k = scenario.k
    claimers = scenario.good_claimers
    holder, held = empty_allocation(scenario)
    goods: set[int] = set()
    for a in iter_bits(coalition):
        held[a] = []
        goods.update(scenario.ranked_interest[a])
    live = held.copy()  # held's lists, None for a member no search reaches
    kept = []
    for g in sorted(goods, key=scenario.good_rank.__getitem__):
        # the first interested member with room takes g; if all are full,
        # search onward from them
        for a in claimers[g]:
            theirs = live[a]
            if theirs is not None and len(theirs) < k:
                theirs.append(g)
                holder[g] = a
                break
        else:
            taker, got, parent, _, seen = _search(claimers, live, k, (g,))
            if taker < 0:
                # every member reached is full and reaches only full
                # members, so no later augmenting path passes through them
                for a in seen:
                    live[a] = None
                continue
            _shift(holder, held, taker, got, parent)
        kept.append(g)
    return holder, held, kept


def _value(scenario: "AllocationScenario", kept: list[int]) -> float:
    """Total value of the kept goods, summed in ascending good index."""
    if not kept:
        return 0.0
    return float(np.sum(scenario.good_values[sorted(kept)]))


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
    return _value(scenario, greedy(scenario, coalition)[2])


def add_agents(
    scenario: "AllocationScenario",
    holder: list[int],
    held: list[list[int] | None],
    agents,
) -> tuple[list[float], int]:
    """Add ``agents`` one after another to an optimal allocation in place.

    On entry ``holder`` and ``held`` describe an optimal allocation for a
    coalition holding none of the agents; after each agent, one for the
    coalition with it.  Returns each agent's gain, in order, and how many
    agents had no neighbor in the coalition when they joined.

    An agent whose solo goods are all free takes them with no search: no
    marginal exceeds opt({i}), which that bundle reaches.  With no neighbor
    in the coalition (``scenario.graph.neighbor_lists``) its gain is
    ``solo_value[i]``; otherwise the goods' values summed best first from
    0.0, the float the search below returns for the same goods.

    Any other agent is added one capacity unit at a time.  Adding a unit
    changes the optimal allocation by a single alternating path from ``i``,
    whose net gain is the value of the free good at its far end (displaced
    holders keep their goods' values in the system), so each augmentation
    reduces to a reachability search over displacement moves and the best
    gain is the most valuable reachable free good.  Gains are
    non-increasing, so the greedy sum over at most k units is exact
    (Edmonds 1971).

    The search is bounded by value.  Take an optimal allocation, a held good
    g and any path that frees g and ends at a free good d: the path is an
    exchange inside the optimum, so v(d) <= v(g).  Hence no unit gains more
    than the best good ``i`` does not hold yet, nor more than the unit
    before it, and a search may stop at the first free good worth that
    ``ceiling``.  Goods are scanned in the greedy's order
    (``scenario.ranked_interest``, value descending), ``i``'s own first, so
    the first free good of ``i``'s worth the ceiling is taken with no
    search, and every scan stops at the first good worth no more than the
    best free good found so far: a held good is not expanded then.  Which
    optimal augmentation is applied may differ from an unbounded search,
    but not its gain: each unit gain is v_u - v_(u-1), the optimum with
    ``i`` allowed u goods less the optimum with u - 1, which depends only on
    the coalition.  So every gain is the same float, summed in the same
    order.
    """
    global _SEARCH_CALLS
    k = scenario.k
    ranked, values = scenario.ranked_interest, scenario.good_value_list
    neighbors = scenario.graph.neighbor_lists
    gains = []
    hits = searched = 0
    # per good, the good before it on the search's path (-1 for i's own),
    # and whether this unit's search reached it (mark == stamp); made at the
    # first search, so a call that runs none allocates nothing, and mark is
    # a bytearray, cheap enough to make again when the stamp reaches 255
    parent = mark = None
    stamp = 255
    for i in agents:
        own = ranked[i]
        solo = own[:k]
        for g in solo:
            if holder[g] >= 0:
                break
        else:
            for b in neighbors[i]:
                if held[b] is not None:
                    # a neighbor is a member: the search's sum, best first
                    total = 0.0
                    for g in solo:
                        total += values[g]
                    break
            else:
                hits += 1
                total = float(scenario.solo_value[i])
            held[i] = list(solo)
            for g in solo:
                holder[g] = i
            gains.append(total)
            continue
        searched += 1
        mine = held[i] = []
        rest = list(own)  # i's goods it does not hold yet, best first
        total = 0.0
        gain = values[own[0]]
        for _ in range(k if k < len(own) else len(own)):
            g = rest[0]
            if holder[g] < 0:
                # the best good i does not hold is free: no unit gains more
                best_val = values[g]
            else:
                if stamp == 255:
                    if parent is None:
                        parent = [0] * len(holder)
                    mark = bytearray(len(holder))
                    stamp = 0
                stamp += 1
                ceiling = values[g]
                if gain < ceiling:
                    ceiling = gain
                # i's goods, best first: the first free one ends the scan,
                # held ones before it start the breadth-first search
                best_good = -1
                best_val = 0.0
                queue = []
                for g in rest:
                    v = values[g]
                    if v <= best_val:
                        break
                    parent[g] = -1
                    mark[g] = stamp
                    if holder[g] < 0:
                        best_good = g
                        best_val = v
                    else:
                        queue.append(g)
                if best_val < ceiling:
                    # breadth-first over displacement moves: g's holder h
                    # gives g up for a good g2 it does not hold
                    for g in queue:
                        if values[g] <= best_val:
                            continue
                        h = holder[g]
                        for g2 in ranked[h]:
                            v = values[g2]
                            if v <= best_val:
                                break
                            h2 = holder[g2]
                            if h2 == h or mark[g2] == stamp:
                                continue
                            parent[g2] = g
                            mark[g2] = stamp
                            if h2 < 0:
                                best_good = g2
                                best_val = v
                            else:
                                queue.append(g2)
                        if best_val >= ceiling:
                            break
                if best_good < 0:
                    break
                # apply the chain: walk back to a good wanted by i, shifting
                # holders
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
            total += best_val
            gain = best_val
            holder[g] = i
            mine.append(g)
            rest.remove(g)
        gains.append(total)
    _SEARCH_CALLS += searched
    return gains, hits


def add_agent(
    scenario: "AllocationScenario",
    holder: list[int],
    held: list[list[int] | None],
    i: int,
) -> float:
    """Add agent ``i`` to an optimal allocation in place; return the gain."""
    return add_agents(scenario, holder, held, (i,))[0][0]


def remove_agent(
    scenario: "AllocationScenario",
    holder: list[int],
    held: list[list[int] | None],
    i: int,
) -> float:
    """Remove member ``i`` from an optimal allocation in place; return the loss.

    The mirror of ``add_agent``: on entry ``holder`` and ``held`` describe
    an optimal allocation for a coalition S with ``i``, on return one for
    S - i; the loss is v(S) - v(S - i).

    ``i`` gives up one capacity unit at a time, and each changes the optimum
    by one alternating path (Leonard 1983): a member interested in one of
    ``i``'s goods takes it and gives up one of its own, and so on, until a
    member with room takes a good (no loss) or a good is dropped.  The
    greedy's breadth-first search (``_search``), started from ``i``'s
    goods, finds the cheapest such path: 0 if it reaches a member holding
    fewer than ``k`` goods, else the least valuable good visited (the first
    in breadth-first order on ties).  The losses are the unit gains
    ``add_agent`` finds when ``i`` comes back, so they are summed in
    descending order to give ``marginal_gain(S - i, i)`` bit for bit.  Call
    ``add_agent`` afterwards to probe without keeping the change.
    """
    global _SEARCH_CALLS
    _SEARCH_CALLS += 1
    k = scenario.k
    claimers, values = scenario.good_claimers, scenario.good_value_list
    mine = held[i]
    held[i] = None
    losses: list[float] = []
    while mine:
        taker, g, parent, visited, _ = _search(claimers, held, k, mine)
        if taker < 0:
            # drop the first cheapest good visited; its holder takes the
            # good before it
            g = min(visited, key=values.__getitem__)
            h = holder[g]
            holder[g] = -1
            losses.append(values[g])
            if parent[g] == -1:
                mine.remove(g)
                continue
            held[h].remove(g)
            taker, g = h, parent[g]
        mine.remove(_shift(holder, held, taker, g, parent))
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
    holder, held, _ = greedy(scenario, coalition)
    out: dict[int, float] = {}
    for i in iter_bits(coalition):
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
    if not scenario.ranked_interest[i]:
        return 0.0
    holder, held, _ = greedy(scenario, coalition)
    return add_agent(scenario, holder, held, i)


def optimal_allocation(
    scenario: "AllocationScenario", coalition: Coalition
) -> tuple[dict[str, frozenset[str]], float]:
    """An optimal feasible allocation for the coalition, as ``{agent id:
    frozenset of good ids}``, with its value."""
    if coalition == 0:
        return {}, 0.0
    assignment: dict[str, set[str]] = {a: set() for a in scenario.ids_of(coalition)}
    if coalition & (coalition - 1) == 0:
        i = coalition.bit_length() - 1
        for j in scenario.solo_goods(i):
            assignment[scenario.agents[i]].add(scenario.good_ids[j])
        value = float(scenario.solo_value[i])
    else:
        holder, _, kept = greedy(scenario, coalition)
        for g in kept:
            assignment[scenario.agents[holder[g]]].add(scenario.good_ids[g])
        value = _value(scenario, kept)
    return {a: frozenset(g) for a, g in assignment.items()}, value
