"""Brute-force Shapley values over all coalitions of one component.

The per-agent sum over coalitions C of w(|C|) * (v(C+i) - v(C)) is regrouped
per coalition: every mask m contributes +w(|m|-1) * v(m) to each member and
-w(|m|) * v(m) to each non-member.  Each of the 2^n worths is then needed
exactly once, masks can be partitioned into independent contiguous jobs, and
merging per-job partial sums in mask order makes the result identical for
any worker count.  A job is an aligned block of 2^b masks, so each agent's
member and non-member sums are strided numpy reductions over the job's
weighted worths.  No BLAS routine runs: a dot product longer than a few
thousand elements is split over BLAS threads, which would make the last
bits depend on the BLAS thread count.

``worths`` values a whole range of masks at once, the same way
``model.char_value`` values one.  The permutation sampler's worth table
uses it too.  Component values are kept in a plain dict that travels in the
job payload, so in a pool each worker values each component once for the
life of the pool; how many matchings run depends on the worker count, the
values do not.
"""

from __future__ import annotations

import time
from math import factorial

import numpy as np

from . import _pool, matching
from .model import AllocationScenario, CharacteristicCache
from .report import AgentResult, ShapleyReport

DEFAULT_LIMIT = 26
JOB_BITS = 14  # masks per job: 2**JOB_BITS


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


def _weight_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    w = [shapley_weight(s, n) for s in range(n)]
    # indexed by popcount of the mask at hand
    w_member = np.array([0.0] + w, dtype=np.float64)          # uses w[|m|-1]
    w_outside = np.array(w + [0.0], dtype=np.float64)         # uses w[|m|]
    return w_member, w_outside


def worths(scenario: AllocationScenario, lo: int, hi: int, store: dict[int, float]) -> np.ndarray:
    """``char_value`` of every mask in ``lo..hi-1``, bit for bit.

    Each round peels every mask's component holding its lowest member, by
    frontier expansion over per-byte neighbor tables, values each distinct
    component once (``matching.optimal_value_only``, memoized in ``store``)
    and adds the values per mask from 0.0, in ``char_value``'s order.  A
    mask already peeled to 0 adds the empty coalition's 0.0.
    """
    # tables[b][s]: the union of the neighbor masks of the agents 8b + j
    # for the bits j set in s
    neigh = scenario.graph.neighbor_masks
    tables = []
    for base in range(0, len(neigh), 8):
        width = min(8, len(neigh) - base)
        subsets = np.arange(1 << width)
        table = np.zeros(1 << width, dtype=np.int64)
        for j in range(width):
            table[(subsets >> j) & 1 == 1] |= neigh[base + j]
        tables.append(table)
    rest = np.arange(lo, hi, dtype=np.int64)
    out = np.zeros(len(rest))
    while rest.any():
        comp = rest & -rest
        frontier = comp
        while frontier.any():
            reach = np.zeros_like(frontier)
            for b, table in enumerate(tables):
                reach |= table[(frontier >> (8 * b)) & 255]
            frontier = reach & rest & ~comp
            comp |= frontier
        keys, inverse = np.unique(comp, return_inverse=True)
        keys = keys.tolist()
        for c in keys:
            if c not in store:
                store[c] = matching.optimal_value_only(scenario, c)
        out += np.array([store[c] for c in keys])[inverse]
        rest &= ~comp
    return out


def _exact_job(payload, job):
    """Per-agent partial sums over one aligned block of masks.

    The block ``lo..hi-1`` holds 2^b masks and ``lo`` is a multiple of
    2^b, so bits b and up are the same for every mask in it: popcounts are
    those of ``lo`` plus those of 0..2^b-1, an agent at bit i >= b is a
    member of every mask or of none, and an agent at bit i < b is a member
    exactly in the second of each pair of consecutive runs of 2^i masks.
    Each sum is a numpy reduction, in a fixed order on one thread.
    """
    scenario, w_member, w_outside, store = payload
    lo, hi = job
    b = (hi - lo).bit_length() - 1
    assert hi - lo == 1 << b and lo % (1 << b) == 0, f"unaligned job {lo}..{hi}"
    v = worths(scenario, lo, hi, store)
    pc = np.zeros(1, dtype=np.int64)
    for _ in range(b):
        pc = np.concatenate((pc, pc + 1))
    pc += lo.bit_count()
    d_in = v * w_member[pc]
    d_out = v * w_outside[pc]
    whole_in, whole_out = d_in.sum(), d_out.sum()
    partial = np.empty(scenario.n, dtype=np.float64)
    for i in range(scenario.n):
        if i < b:
            partial[i] = (d_in.reshape(-1, 2, 1 << i)[:, 1, :].sum()
                          - d_out.reshape(-1, 2, 1 << i)[:, 0, :].sum())
        elif lo >> i & 1:
            partial[i] = whole_in
        else:
            partial[i] = -whole_out
    return partial


def exact_shapley(
    scenario: AllocationScenario,
    cache: CharacteristicCache | None = None,
    workers: int = 1,
    limit: int = DEFAULT_LIMIT,
) -> ShapleyReport:
    """Exact Shapley values of every agent, by full coalition enumeration.

    Refuses components larger than ``limit`` (2^n worths must be computed),
    or than 62 agents whatever ``limit`` says, since masks are 64-bit
    integers; use the bound or sampling solvers beyond that.  Results are
    independent of ``workers``: jobs are fixed mask ranges and their partial
    sums are merged in range order.  They are independent of the BLAS thread
    count too, since no BLAS routine runs.  ``workers`` below 1 raises
    ``ValueError``.
    ``cache`` is inert: nothing is looked up in it or stored in it, and it
    stays so that callers passing it positionally keep working.
    """
    n = scenario.n
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if n > 62:
        raise ComponentTooLarge(
            f"component has {n} agents; exact enumeration holds masks in 64-bit "
            f"integers, so it is limited to 62 agents whatever the limit"
        )
    if n > limit:
        raise ComponentTooLarge(
            f"component has {n} agents; exact enumeration is limited to {limit} "
            f"(raise the limit explicitly, or use bounds/sampling solvers)"
        )
    t0 = time.perf_counter()
    if n == 0:
        return ShapleyReport(agents=[], meta={"method": "exact", "n": 0})
    w_member, w_outside = _weight_arrays(n)
    total = 1 << n
    # both powers of two, so every job is an aligned block
    job_size = min(1 << JOB_BITS, total)
    jobs = [(lo, lo + job_size) for lo in range(0, total, job_size)]
    store: dict[int, float] = {}
    results, work = _pool.run_jobs(
        _exact_job, jobs, (scenario, w_member, w_outside, store), workers=workers
    )

    sv = np.zeros(n, dtype=np.float64)
    for partial in results:
        sv = sv + partial
    # in process, the store already holds the grand coalition's components
    grand = float(worths(scenario, total - 1, total, store)[0])
    wall = time.perf_counter() - t0
    agents = [
        AgentResult(agent=a, kind="exact", method="exact", value=float(sv[i]))
        for i, a in enumerate(scenario.agents)
    ]
    meta = {
        "method": "exact",
        "n": n,
        "masks": total,
        "workers": workers,
        "grand_value": grand,
        "efficiency_gap": float(sv.sum() - grand),
        **work,
        "wall_time": wall,
    }
    return ShapleyReport(agents=agents, meta=meta)
