"""Exact Shapley values from the connected coalitions of one component.

A coalition's worth is the sum of its connected components' worths
(``model.char_value``), so the game is the graph-restricted game of Myerson
(1977): v(C) is the sum of f(S) over the components S of C, where f(S) =
``matching.optimal_value_only(scenario, S)`` for a connected set S.  Take a
connected S with s members and b boundary agents, the agents outside S
adjacent to it (its boundary dS).  S is a component of exactly the
coalitions S + D with D disjoint from S and dS, and summed over those
coalitions the Shapley weights depend only on the order in which the s + b
agents of S and dS join:

* each member of S gains f(S) * (s-1)! b! / (s+b)!, the chance that it
  completes S before any agent of dS joins;
* each agent of dS loses f(S) * s! (b-1)! / (s+b)!, the chance that it
  joins first of dS, right after S is complete;
* every other agent meets S as a component both with and without itself,
  so f(S) cancels.

Both weights are ``shapley_weight`` values: of s - 1 in a game of s + b
agents, and of s.  So the values need f on the connected sets alone
(Skibski, Michalak, Rahwan & Wooldridge 2014), each valued once: 1,888 sets
where the benchmark's ``market`` workload has 55,524 coalitions on its
exact components.

``connected_sets`` enumerates them by reverse search with an exclusion
set; a root yields every connected set whose lowest member it is, exactly
once.  A component of at most ``JOB_BITS`` agents is one job, a larger one
one job per root.  The split depends on the agent count alone and partial
sums merge in root order, so values are identical for any worker count, and
so is the number of matchings: each connected set of two or more agents is
matched once, in the one job that enumerates it.  Sums are plain float
additions in a fixed order; no BLAS routine runs, so the BLAS thread count
cannot move a bit either.

``worths`` fills the permutation sampler's worth table from the same
valued sets, bit for bit as ``model.char_value`` values each mask: S is a
component of the masks S + D, D a submask of the agents outside S and dS,
so f(S) is added to each of them.  A mask's components have distinct
lowest members, and roots run in ascending order, so each mask sums its
components from 0.0 in ``char_value``'s order.
"""

from __future__ import annotations

import time
from math import factorial

import numpy as np

from . import _pool, matching
from .model import AllocationScenario, CharacteristicCache
from .report import AgentResult, ShapleyReport

DEFAULT_LIMIT = 26
# a component of more agents is split into one job per enumeration root
JOB_BITS = 14


class ComponentTooLarge(ValueError):
    """Exact enumeration refused; the component exceeds the configured limit."""


def shapley_weight(csize: int, n: int) -> float:
    """Probability that a fixed agent joins right after a given |C|-coalition.

    Equals |C|! (n-|C|-1)! / n!.  Evaluated in exact integer arithmetic and
    rounded once by the division, so it is stable for any n this package can
    enumerate.
    """
    if not 0 <= csize <= n - 1:
        raise ValueError(f"coalition size {csize} out of range for n={n}")
    return factorial(csize) * factorial(n - csize - 1) / factorial(n)


def connected_sets(neighbor_masks, root: int):
    """Every connected set whose lowest member is ``root``, each once.

    Yields ``(members, boundary)`` masks, the boundary being the agents
    outside the set adjacent to it.  Reverse search with an exclusion set:
    a state is a set, its boundary and the agents excluded from growing it
    (those below ``root`` from the start).  Its candidates are the boundary
    agents not excluded; the state yields its set, then each candidate, in
    ascending order, starts a state of the set plus that candidate and is
    excluded from the states of the candidates after it.  A connected
    superset with no excluded agent holds some candidate, and the state of
    its lowest candidate is the only one it can come from, so every set
    comes out once.
    """
    stack = [(1 << root, neighbor_masks[root], (1 << root) - 1)]
    while stack:
        members, boundary, excluded = stack.pop()
        yield members, boundary
        todo = boundary & ~excluded
        while todo:
            w = todo & -todo
            todo ^= w
            grown = members | w
            stack.append((grown, (boundary | neighbor_masks[w.bit_length() - 1]) & ~grown, excluded))
            excluded |= w


def _valued_sets(scenario: AllocationScenario, roots):
    """``(members, boundary, f)`` for every connected set whose lowest member
    is in ``roots``, root by root in the order given, f being the set's
    worth ``matching.optimal_value_only``."""
    neigh = scenario.graph.neighbor_masks
    for root in roots:
        for members, boundary in connected_sets(neigh, root):
            yield members, boundary, matching.optimal_value_only(scenario, members)


def worths(scenario: AllocationScenario) -> np.ndarray:
    """``char_value`` of every mask of ``scenario``, bit for bit: each
    connected set's worth added to the masks it is a component of, root by
    root (see the module docstring)."""
    out = np.zeros(1 << scenario.n)
    for members, boundary, f in _valued_sets(scenario, range(scenario.n)):
        # S, then S with each submask of the agents outside S and dS
        masks = members
        free = scenario.full_mask & ~(members | boundary)
        while free:
            low = free & -free
            masks = np.bitwise_or.outer((0, low), masks).ravel()
            free ^= low
        out[masks] += f
    return out


def _exact_job(payload, roots):
    """Per-agent partial sums over the connected sets of the roots
    ``roots[0]..roots[1]-1``, with the values of the sets that have no
    boundary (components of the whole graph), in root order, and the
    number of sets."""
    scenario, gain_weight, loss_weight = payload
    partial = [0.0] * scenario.n
    components = []
    count = 0
    for members, boundary, f in _valued_sets(scenario, range(*roots)):
        count += 1
        if not boundary:
            components.append(f)
        if not f:
            continue  # adds and subtracts only zeros
        s, b = members.bit_count(), boundary.bit_count()
        gain = f * gain_weight[s][b]
        while members:
            low = members & -members
            partial[low.bit_length() - 1] += gain
            members ^= low
        loss = f * loss_weight[s][b]
        while boundary:
            low = boundary & -boundary
            partial[low.bit_length() - 1] -= loss
            boundary ^= low
    return partial, components, count


def exact_shapley(
    scenario: AllocationScenario,
    cache: CharacteristicCache | None = None,
    workers: int = 1,
    limit: int = DEFAULT_LIMIT,
) -> ShapleyReport:
    """Exact Shapley values of every agent, from its connected coalitions.

    Each connected set S is valued once and credited to its members and
    its boundary with the weights of the module docstring, so the work
    grows with the number of connected sets, not with 2^n: n(n+1)/2 on a
    path of n agents, 2^n - 1 on a clique.  A component of more than
    ``JOB_BITS`` agents runs one job per enumeration root, lowest member
    first; a smaller one is a single job.  Partial sums merge in root
    order, so values and ``meta["matchings"]`` are independent of
    ``workers``; no BLAS routine runs, so values are independent of the
    BLAS thread count too.  ``meta["connected_sets"]`` counts the sets and
    ``meta["grand_value"]`` is ``char_value`` of the whole scenario, bit for
    bit, summed from the sets that have no boundary.

    Refuses components larger than ``limit``, and than 62 agents whatever
    ``limit`` says, the bound kept from when coalitions were 64-bit masks;
    use the bound or sampling solvers beyond that.  ``workers`` below 1
    raises ``ValueError``.  ``cache`` is inert: nothing is looked up in it
    or stored in it, and it stays so that callers passing it positionally
    keep working.
    """
    n = scenario.n
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if n > 62:
        raise ComponentTooLarge(
            f"component has {n} agents; exact enumeration is limited to 62 agents "
            f"whatever the limit, the bound kept from its 64-bit masks"
        )
    if n > limit:
        raise ComponentTooLarge(
            f"component has {n} agents; exact enumeration is limited to {limit} "
            f"(raise the limit explicitly, or use bounds/sampling solvers)"
        )
    t0 = time.perf_counter()
    if n == 0:
        return ShapleyReport(agents=[], meta={"method": "exact", "n": 0})
    # [s][b]: the weights of a connected set of s members and b boundary agents
    gain_weight = [[shapley_weight(s - 1, s + b) if s else 0.0 for b in range(n + 1 - s)]
                   for s in range(n + 1)]
    loss_weight = [[shapley_weight(s, s + b) if b else 0.0 for b in range(n + 1 - s)]
                   for s in range(n + 1)]
    jobs = [(0, n)] if n <= JOB_BITS else [(v, v + 1) for v in range(n)]
    results, work = _pool.run_jobs(
        _exact_job, jobs, (scenario, gain_weight, loss_weight), workers=workers
    )

    sv = [0.0] * n
    grand = 0.0
    sets = 0
    for partial, components, count in results:
        sv = [a + p for a, p in zip(sv, partial)]
        # the components of the whole graph in order of their lowest
        # member, summed from 0.0 as char_value sums them
        for f in components:
            grand += f
        sets += count
    wall = time.perf_counter() - t0
    agents = [
        AgentResult(agent=a, kind="exact", method="exact", value=sv[i])
        for i, a in enumerate(scenario.agents)
    ]
    meta = {
        "method": "exact",
        "n": n,
        "connected_sets": sets,
        "workers": workers,
        "grand_value": grand,
        "efficiency_gap": sum(sv) - grand,
        **work,
        "wall_time": wall,
    }
    return ShapleyReport(agents=agents, meta=meta)
