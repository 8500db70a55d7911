"""The whole method on one scenario: simplify, route, merge.

``solve`` runs the preprocessing pipeline, then sends each residual
component to the exact solver when it is small, or else to the bounds plus
a sampler, whose estimates are clamped into their certified intervals.  One
report over the scenario's agents, in its agent order, comes back.
"""

from __future__ import annotations

import time
from dataclasses import replace

from . import __version__
from .bounds import DEFAULT_MAX_NEIGH, shapley_bounds
from .exact import DEFAULT_LIMIT, exact_shapley
from .model import AllocationScenario
from .preprocess import run_pipeline
from .report import AgentResult, ShapleyReport, merge_reports
from .sampling import FprasConfig, RangeSamplerConfig, fpras_shapley, range_sampler_shapley

SAMPLERS = ("fpras", "range")


def _estimate(comp, intervals, sampler, epsilon, delta, seed, threads) -> ShapleyReport:
    """The sampler's estimates for one component."""
    if sampler == "fpras":
        cfg = FprasConfig(epsilon=epsilon, delta=delta, seed=seed, workers=threads)
        return fpras_shapley(comp, cfg=cfg)
    # relative targets need every lower bound positive
    lbs = {a: r.lb for a, r in intervals.items()}
    mode = "rel" if all(v > 0.0 for v in lbs.values()) else "abs"
    cfg = RangeSamplerConfig(
        epsilon=epsilon, delta=delta, mode=mode,
        lower_bounds=lbs if mode == "rel" else None,
        seed=seed, workers=threads,
    )
    return range_sampler_shapley(comp, cfg=cfg)


def solve(
    scenario: AllocationScenario,
    *,
    exact_limit: int = DEFAULT_LIMIT,
    bounds_max_neigh: int = DEFAULT_MAX_NEIGH,
    sampler: str = "fpras",
    epsilon: float = 0.3,
    delta: float = 0.01,
    seed: int = 0,
    threads: int = 1,
) -> ShapleyReport:
    """Preprocess, route every component, and merge one report.

    Components of at most ``exact_limit`` agents are enumerated exactly; the
    rest get ``shapley_bounds`` plus the ``sampler`` ("fpras" or "range"),
    each estimate clamped into its interval.  An unknown sampler raises
    ``ValueError`` before any work.  ``meta["wall_time"]`` covers this call
    only, not loading the scenario; ``meta["timings"]`` splits it into
    ``preprocess`` and the ``exact``, ``bounds`` and ``sampler`` time summed
    over components.
    """
    if sampler not in SAMPLERS:
        raise ValueError(f"unknown sampler {sampler!r}")
    t0 = time.perf_counter()
    pre = run_pipeline(scenario)

    parts = [ShapleyReport(agents=[
        AgentResult(agent=a, kind="exact", method="separable", value=v)
        for a, v in sorted(pre.resolved_values().items())
    ])]
    exact_components = 0
    sampled_components = 0
    timings = {"preprocess": pre.wall_time, "exact": 0.0, "bounds": 0.0, "sampler": 0.0}
    for comp in pre.components:
        if comp.n <= exact_limit:
            t = time.perf_counter()
            parts.append(exact_shapley(comp, workers=threads, limit=exact_limit))
            timings["exact"] += time.perf_counter() - t
            exact_components += 1
            continue
        sampled_components += 1
        t = time.perf_counter()
        intervals = shapley_bounds(comp, max_neigh=bounds_max_neigh, workers=threads).by_agent()
        timings["bounds"] += time.perf_counter() - t
        t = time.perf_counter()
        est = _estimate(comp, intervals, sampler, epsilon, delta, seed, threads)
        timings["sampler"] += time.perf_counter() - t
        merged = []
        for rec in est.agents:
            iv = intervals[rec.agent]
            clamped = min(max(rec.value, iv.lb), iv.ub)
            merged.append(replace(rec, value=clamped, lb=iv.lb, ub=iv.ub, fallback=iv.fallback))
        parts.append(ShapleyReport(agents=merged))

    order = {a: i for i, a in enumerate(scenario.agents)}
    report = merge_reports(parts)
    report.agents.sort(key=lambda r: order[r.agent])
    report.meta = {
        "method": "solve",
        "version": __version__,
        "policy": {
            "exact_limit": exact_limit,
            "bounds_max_neigh": bounds_max_neigh,
            "sampler": sampler,
            "epsilon": epsilon,
            "delta": delta,
            "seed": seed,
            "threads": threads,
        },
        "preprocess": pre.stage_counts,
        "components_exact": exact_components,
        "components_sampled": sampled_components,
        "timings": timings,
        "wall_time": time.perf_counter() - t0,
    }
    return report
