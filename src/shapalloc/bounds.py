"""Neighborhood-profile lower and upper bounds on Shapley values.

Only an agent's graph neighbors can change its marginal contribution, so the
coalitions C' not containing i are grouped by their profile P' = C' & neigh(i).
For each profile the marginal of i is evaluated at the two extremes of the
class -- with all non-neighbors present (lower bound, by anti-monotonicity)
or with only P' present (upper bound) -- and weighted by the total Shapley
mass y of the class.

One greedy gives an optimal allocation of the whole game, and every job
starts from a copy of it.  Removing i from the copy gives marg(i, N), and
removing i's neighbors too leaves an optimum of the non-neighbors.  The
sweep then visits the subsets of neigh(i) in Gray order carrying two
optimal allocations, one of rest | P' and one of P' (from the empty
allocation): each step adds or removes the flipped neighbor in both, and
each marginal is read by adding i and removing it again
(``matching.add_agent`` and ``matching.remove_agent``), at most 2k
searches per side.  The marginals are the optimum's unique per-unit
increments, so they do not depend on which optimum is carried: they equal
``marginal_restricted`` bit for bit, whatever the worker count.  The sweep
is reserved for agents with at most ``max_neigh`` neighbors; the rest fall
back on the always-valid interval [marg(i, N), opt({i})].  No worth is
looked up in a cache.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import lru_cache

from . import _pool
from .matching import add_agent, greedy, remove_agent
from .model import AllocationScenario, CharacteristicCache, iter_bits
from .report import AgentResult, ShapleyReport

DEFAULT_MAX_NEIGH = 19


def profile_weight(l: int, p: int, z: int, n: int) -> float:
    """Total Shapley weight of all coalitions sharing one neighbor profile.

    ``l`` non-neighbors are free to join or not; ``p`` neighbors are in,
    ``z`` neighbors are out, and l + p + z + 1 = n.  Summing the join weight
    over the number of present non-neighbors gives

        y = sum_k (l - k + p)! (z + k)! / n! * C(l, k).

    Exact integer arithmetic, rounded once at the end.
    """
    if min(l, p, z) < 0:
        raise ValueError("profile sizes must be non-negative")
    if l + p + z + 1 != n:
        raise ValueError(f"inconsistent profile sizes: {l}+{p}+{z}+1 != {n}")
    return _profile_weight_cached(l, p, z, n)


@lru_cache(maxsize=8)
def _factorials(n: int) -> tuple[int, ...]:
    out = [1] * (n + 1)
    for j in range(2, n + 1):
        out[j] = out[j - 1] * j
    return tuple(out)


@lru_cache(maxsize=65536)
def _profile_weight_cached(l: int, p: int, z: int, n: int) -> float:
    fact = _factorials(n)
    num = 0
    for k in range(l + 1):
        num += fact[l - k + p] * fact[z + k] * (fact[l] // (fact[k] * fact[l - k]))
    return float(Fraction(num, fact[n]))


def gray_subsets(items: list[int]):
    """All subsets of ``items`` as masks, consecutive ones differing by one bit."""
    mask = 0
    yield mask
    for g in range(1, 1 << len(items)):
        # standard reflected Gray order: flip the bit of the lowest set bit of g
        flip = items[(g & -g).bit_length() - 1]
        mask ^= 1 << flip
        yield mask


def _optimum_job(scenario, cache, coalition):
    return greedy(scenario, coalition)


def _bounds_job(payload, cache, job):
    scenario, max_neigh, (holder, held) = payload
    i = job
    neigh_mask = scenario.graph.neighbor_masks[i]
    deg = neigh_mask.bit_count()
    solo = float(scenario.solo_value[i])

    # the grand optimum, copied: removing i gives marg(i, N), and removing
    # the neighbors too gives an optimum of the non-neighbors
    low = holder.copy(), {a: goods.copy() for a, goods in held.items()}
    grand_marginal = remove_agent(scenario, *low, i)
    if deg > max_neigh:
        return i, grand_marginal, solo, True

    n = scenario.n
    l = n - deg - 1
    neighbors = list(iter_bits(neigh_mask))
    y_by_size = [profile_weight(l, p, deg - p, n) for p in range(deg + 1)]

    # optimal allocations of rest | P and of P, as (holder, held)
    for j in neighbors:
        remove_agent(scenario, *low, j)
    high: tuple[dict, dict] = ({}, {})
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
    ``ScenarioError``.  The sweep looks no worth up, so ``meta["cache"]``
    reads no hits and no misses whatever ``cache`` is passed;
    ``meta["matchings"]`` counts the one greedy and ``meta["searches"]``
    the jobs' add and remove searches.
    """
    t0 = time.perf_counter()
    if cache is None:
        cache = CharacteristicCache()
    mask = scenario.full_mask if agents is None else scenario.mask_of(agents)
    indices = list(iter_bits(mask))
    [grand], base = _pool.run_jobs(_optimum_job, [scenario.full_mask], scenario, cache)
    results, work = _pool.run_jobs(
        _bounds_job, indices, (scenario, max_neigh, grand), cache, workers=workers
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
