"""Neighborhood-profile lower and upper bounds on Shapley values.

Only an agent's graph neighbors can change its marginal contribution, so the
coalitions C' not containing i are grouped by their profile P' = C' & neigh(i).
For each profile the marginal of i is evaluated at the two extremes of the
class -- with all non-neighbors present (lower bound, by anti-monotonicity)
or with only P' present (upper bound) -- and weighted by the total Shapley
mass y of the class: the chance that, in a uniform order of i and its deg
neighbors, exactly the |P'| present ones precede i, whatever the
non-neighbors do.  That is |P'|! (deg - |P'|)! / (deg + 1)!, the Shapley
weight ``shapley_weight(|P'|, deg + 1)`` of the game of i and its neighbors.

One greedy gives an optimal allocation of the whole game, and every job
starts from a copy of it (``matching.copy_allocation``; the allocation's
layout belongs to ``matching``).  Removing i from the copy gives marg(i,
N), and removing i's neighbors too leaves an optimum of the non-neighbors.
The sweep then visits the subsets of neigh(i) in Gray order carrying two
optimal allocations, one of rest | P' and one of P' (from
``matching.empty_allocation``): each step adds or removes the flipped
neighbor in both, and each marginal is read by adding i and removing it
again (``matching.add_agent`` and ``matching.remove_agent``), at most 2k
searches per side; an agent that finds its solo goods free takes them
with no search.  The marginals are the optimum's unique per-unit
increments, so they do not depend on which optimum is carried: they equal
``marginal_restricted`` bit for bit, whatever the worker count.  The sweep
is reserved for agents with at most ``max_neigh`` neighbors; the rest fall
back on the always-valid interval [marg(i, N), opt({i})].  No worth is
looked up in a cache.
"""

from __future__ import annotations

import time

from . import _pool
from .exact import shapley_weight
from .matching import add_agent, copy_allocation, empty_allocation, greedy, remove_agent
from .model import AllocationScenario, CharacteristicCache, iter_bits
from .report import AgentResult, ShapleyReport

DEFAULT_MAX_NEIGH = 19


def gray_subsets(items: list[int]):
    """All subsets of ``items`` as masks, consecutive ones differing by one bit."""
    mask = 0
    yield mask
    for g in range(1, 1 << len(items)):
        # standard reflected Gray order: flip the bit of the lowest set bit of g
        flip = items[(g & -g).bit_length() - 1]
        mask ^= 1 << flip
        yield mask


def _bounds_job(payload, job):
    scenario, max_neigh, grand = payload
    i = job
    neigh_mask = scenario.graph.neighbor_masks[i]
    deg = neigh_mask.bit_count()
    solo = float(scenario.solo_value[i])

    # the grand optimum, copied: removing i gives marg(i, N), and removing
    # the neighbors too gives an optimum of the non-neighbors
    low = copy_allocation(*grand)
    grand_marginal = remove_agent(scenario, *low, i)
    if deg > max_neigh:
        return i, grand_marginal, solo, True

    neighbors = list(iter_bits(neigh_mask))
    y_by_size = [shapley_weight(p, deg + 1) for p in range(deg + 1)]

    # optimal allocations of rest | P and of P
    for j in neighbors:
        remove_agent(scenario, *low, j)
    high = empty_allocation(scenario)
    lb = ub = 0.0
    prev = 0
    for p_mask in gray_subsets(neighbors):
        y = y_by_size[p_mask.bit_count()]
        if not p_mask:
            # no neighbor present: both marginals are the solo value
            ub += y * solo
            lb += y * solo
            continue
        j = (p_mask ^ prev).bit_length() - 1
        step = add_agent if p_mask >> j & 1 else remove_agent
        step(scenario, *low, j)
        step(scenario, *high, j)
        prev = p_mask
        ub += y * _probe(scenario, high, i)
        lb += y * _probe(scenario, low, i)
    return i, lb, ub, False


def _probe(scenario, allocation, i) -> float:
    """Marginal of ``i`` to a carried optimum, which is left optimal."""
    gain = add_agent(scenario, *allocation, i)
    remove_agent(scenario, *allocation, i)
    return gain


def shapley_bounds(
    scenario: AllocationScenario,
    cache: CharacteristicCache | None = None,
    agents: list[str] | None = None,
    max_neigh: int = DEFAULT_MAX_NEIGH,
    workers: int = 1,
) -> ShapleyReport:
    """Per-agent intervals [LB, UB] guaranteed to contain the Shapley value.

    Agents with more than ``max_neigh`` neighbors get the trivial interval
    and are flagged ``fallback=True``.  Unknown ids in ``agents`` raise
    ``ScenarioError``, and ``workers`` below 1 raises ``ValueError``.  The
    sweep looks no worth up, so ``cache`` is inert; it stays so that
    callers passing it positionally keep working.
    ``meta["matchings"]`` counts the one greedy and ``meta["searches"]``
    the jobs' add and remove searches.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    t0 = time.perf_counter()
    mask = scenario.full_mask if agents is None else scenario.mask_of(agents)
    indices = list(iter_bits(mask))
    grand, base = _pool.counted(greedy, scenario, scenario.full_mask)
    results, work = _pool.run_jobs(
        _bounds_job, indices, (scenario, max_neigh, grand[:2]), workers=workers
    )
    work["matchings"] += base["matchings"]
    records = []
    fallbacks = 0
    for i, lb, ub, fell_back in results:
        fallbacks += fell_back
        records.append(
            AgentResult(
                agent=scenario.agents[i],
                kind="interval",
                method="profile-bounds" if not fell_back else "trivial-range",
                lb=lb,
                ub=ub,
                fallback=fell_back,
            )
        )
    meta = {
        "method": "bounds",
        "max_neigh": max_neigh,
        "fallbacks": fallbacks,
        "workers": workers,
        **work,
        "wall_time": time.perf_counter() - t0,
    }
    return ShapleyReport(agents=records, meta=meta)
