"""Brute-force Shapley values over all coalitions of one component.

The per-agent sum over coalitions C of w(|C|) * (v(C+i) - v(C)) is regrouped
per coalition: every mask m contributes +w(|m|-1) * v(m) to each member and
-w(|m|) * v(m) to each non-member.  Each of the 2^n worths is then needed
exactly once, masks can be partitioned into independent contiguous jobs, and
merging per-job partial sums in mask order makes the result identical for
any worker count.  The worth cache travels in the job payload, and each job
reports the hits and misses it caused.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import factorial

import numpy as np

from . import _pool
from .model import AllocationScenario, CharacteristicCache, char_value
from .report import AgentResult, ShapleyReport

DEFAULT_LIMIT = 26
JOB_BITS = 14  # masks per job: 2**JOB_BITS


class ComponentTooLarge(ValueError):
    """Exact enumeration refused; the component exceeds the configured limit."""


def shapley_weight(csize: int, n: int) -> float:
    """Probability that a fixed agent joins right after a given |C|-coalition.

    Equals |C|! (n-|C|-1)! / n!.  Evaluated in exact integer arithmetic and
    rounded once, so it is stable for any n this package can enumerate.
    """
    if not 0 <= csize <= n - 1:
        raise ValueError(f"coalition size {csize} out of range for n={n}")
    return float(Fraction(factorial(csize) * factorial(n - csize - 1), factorial(n)))


def _weight_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    w = [shapley_weight(s, n) for s in range(n)]
    # indexed by popcount of the mask at hand
    w_member = np.array([0.0] + w, dtype=np.float64)          # uses w[|m|-1]
    w_outside = np.array(w + [0.0], dtype=np.float64)         # uses w[|m|]
    return w_member, w_outside


def _exact_job(payload, job):
    scenario, w_member, w_outside, cache = payload
    h0, x0 = cache.hits, cache.misses
    lo, hi = job
    n = scenario.n
    count = hi - lo
    v = np.empty(count, dtype=np.float64)
    pc = np.empty(count, dtype=np.intp)
    for idx in range(count):
        m = lo + idx
        v[idx] = char_value(scenario, m, cache)
        pc[idx] = m.bit_count()
    masks = np.arange(lo, hi, dtype=np.int64)
    partial = np.empty(n, dtype=np.float64)
    for i in range(n):
        member = (masks >> i) & 1 == 1
        partial[i] = float(v[member] @ w_member[pc[member]]) - float(
            v[~member] @ w_outside[pc[~member]]
        )
    return partial, cache.hits - h0, cache.misses - x0


def exact_shapley(
    scenario: AllocationScenario,
    cache: CharacteristicCache | None = None,
    workers: int = 1,
    limit: int = DEFAULT_LIMIT,
) -> ShapleyReport:
    """Exact Shapley values of every agent, by full coalition enumeration.

    Refuses components larger than ``limit`` (2^n worths must be computed);
    use the bound or sampling solvers beyond that.  Results are independent
    of ``workers``: jobs are fixed mask ranges and their partial sums are
    merged in range order.  ``meta["cache"]`` sums the jobs' hits and
    misses; in a pool each worker looks worths up in its own copy of
    ``cache``, so ``cache`` itself fills only at one worker.
    """
    n = scenario.n
    if n > limit:
        raise ComponentTooLarge(
            f"component has {n} agents; exact enumeration is limited to {limit} "
            f"(raise the limit explicitly, or use bounds/sampling solvers)"
        )
    t0 = time.perf_counter()
    if n == 0:
        return ShapleyReport(agents=[], meta={"method": "exact", "n": 0})
    if cache is None:
        cache = CharacteristicCache()
    w_member, w_outside = _weight_arrays(n)
    total = 1 << n
    job_size = 1 << JOB_BITS
    jobs = [(lo, min(lo + job_size, total)) for lo in range(0, total, job_size)]
    results, work = _pool.run_jobs(
        _exact_job, jobs, (scenario, w_member, w_outside, cache), workers=workers
    )
    work["cache"] = {"hits": sum(r[1] for r in results), "misses": sum(r[2] for r in results)}

    sv = np.zeros(n, dtype=np.float64)
    for partial, _, _ in results:
        sv = sv + partial
    grand = char_value(scenario, scenario.full_mask, cache)
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
