"""Traced run: the `solve` pipeline rebuilt from each module's public calls.

    python3 perfbench/traced.py SCENARIO REPORT_OUT -- SOLVE_ARGS...

The solve policy is parsed by the CLI's own parser, so defaults match
``shapalloc solve``.  The run mirrors ``solve``'s routing: the preprocess
stages one by one, then ``exact_shapley`` for components at or under the
exact limit, and ``shapley_bounds`` plus the configured sampler for the
rest, with the same rel/abs choice and the same clamping.  A span is
recorded around every module call, and matchings and cache hits are
counted as deltas at the same boundaries: matchings from
``matching.solve_calls()``, cache statistics from the
``CharacteristicCache`` passed in (never from a report's ``meta["cache"]``,
which sums cumulative per-job statistics).

After the pipeline, microbenchmarks time ``matching`` and ``model`` calls on
connected coalitions drawn from the input scenario's agents graph, by size
class, and ``exact_shapley`` is timed at 1 and 2 workers.

The last line of standard output is one JSON object: the per-layer metrics,
the traced total, and every agent's value, for the parent to compare with
the ``solve`` report bit for bit.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

import numpy as np

import intervals
import shapalloc as sa
from shapalloc import cli, exact, matching, preprocess
from shapalloc.report import AgentResult, ShapleyReport, merge_reports

SIZE_CLASSES = {"le12": (2, 12), "13to40": (13, 40), "gt40": (41, 160)}
COALITIONS_PER_CLASS = 40
MICRO_REPEATS = 3
SOLVERS = ("exact", "bounds", "range", "fpras")


class Tracer:
    """Spans (name, start, end) kept in memory, plus named counters."""

    def __init__(self):
        self.spans: list[tuple[str, float, float]] = []
        self.counts: dict[str, float] = {}

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, start, time.perf_counter()))

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end in self.spans if n == name)


@contextmanager
def counted(tr: Tracer, solver: str, cache: sa.CharacteristicCache):
    """Matchings and cache hits/misses of one solver call, as deltas."""
    m0, h0, x0 = matching.solve_calls(), cache.hits, cache.misses
    with tr.span(solver):
        yield
    tr.add(f"matchings.{solver}", matching.solve_calls() - m0)
    tr.add(f"hits.{solver}", cache.hits - h0)
    tr.add(f"misses.{solver}", cache.misses - x0)
    tr.counts[f"entries.{solver}"] = max(tr.counts.get(f"entries.{solver}", 0), len(cache))


def traced_solve(tr: Tracer, path: str, opts, report_out: str) -> tuple[sa.AllocationScenario, ShapleyReport, list]:
    """Same routing and arithmetic as `shapalloc solve`, one span per call."""
    tol = preprocess.REL_TOL
    with tr.span("solve"):
        with tr.span("load_scenario"):
            scn = sa.load_scenario(path)

        m0 = matching.solve_calls()
        with tr.span("preprocess"):
            empty, s = preprocess.drop_empty_agents(scn)
            s = preprocess.strip_null_goods(s)
            with tr.span("separate_singletons"):
                resolved, s = preprocess.separate_singletons(s, tol=tol)
            comps = preprocess.split_components(s) if s.n else []
            components = []
            for comp in comps:
                with tr.span("prune_useless_goods"):
                    comp2, pruned = preprocess.prune_useless_goods(comp, tol=tol)
                components.extend(preprocess.split_components(comp2) if pruned else [comp2])
        tr.add("matchings.preprocess", matching.solve_calls() - m0)
        resolved_values = {a: 0.0 for a in empty}
        resolved_values.update(resolved)
        tr.add("preprocess.resolved", len(resolved_values))

        parts = [ShapleyReport(agents=[
            AgentResult(agent=a, kind="exact", method="separable", value=v)
            for a, v in sorted(resolved_values.items())
        ])]
        exact_components = []
        for comp in components:
            if comp.n <= opts.exact_limit:
                cache = sa.CharacteristicCache()
                c0 = time.process_time()
                with counted(tr, "exact", cache):
                    parts.append(sa.exact_shapley(comp, cache, workers=opts.threads))
                tr.add("exact.cpu", time.process_time() - c0)
                tr.add("exact.masks", 1 << comp.n)
                exact_components.append(comp)
                continue
            cache = sa.CharacteristicCache()
            with counted(tr, "bounds", cache):
                bounds_report = sa.shapley_bounds(
                    comp, cache, max_neigh=opts.bounds_max_neigh, workers=opts.threads
                )
            by_interval = bounds_report.by_agent()
            tr.add("bounds.agents", comp.n)
            tr.add("bounds.fallbacks", bounds_report.meta["fallbacks"])
            certified = {r.agent for r in bounds_report.agents if intervals.collapsed(r.lb, r.ub)}
            tr.add("bounds.collapsed", len(certified))
            if opts.sampler == "fpras":
                with counted(tr, "fpras", cache):
                    est = sa.fpras_shapley(comp, cache, cfg=sa.FprasConfig(
                        epsilon=opts.epsilon, delta=opts.delta, seed=opts.seed,
                        workers=opts.threads,
                    ))
                tr.add("fpras.contributions", est.meta["contributions_per_run"] * est.meta["runs"])
                tr.add("fpras.shortcut_hits", est.meta["shortcut_hits"])
            else:
                lbs = {a: r.lb for a, r in by_interval.items() if r.lb is not None}
                mode = "rel" if lbs and all(v > 0.0 for v in lbs.values()) else "abs"
                with counted(tr, "range", cache):
                    est = sa.range_sampler_shapley(comp, cache, cfg=sa.RangeSamplerConfig(
                        epsilon=opts.epsilon, delta=opts.delta, mode=mode,
                        lower_bounds=lbs if mode == "rel" else None,
                        seed=opts.seed, workers=opts.threads,
                    ))
                tr.add("range.samples", est.meta["total_samples"])
                tr.add("range.samples_on_certified",
                       sum(r.samples for r in est.agents if r.agent in certified))
            merged = []
            for rec in est.agents:
                iv = by_interval.get(rec.agent)
                value = rec.value
                if iv is not None and iv.lb is not None and iv.ub is not None:
                    value = min(max(value, iv.lb), iv.ub)
                merged.append(AgentResult(
                    agent=rec.agent, kind="estimate", method=rec.method, value=value,
                    lb=None if iv is None else iv.lb, ub=None if iv is None else iv.ub,
                    epsilon=rec.epsilon, delta=rec.delta, samples=rec.samples,
                    fallback=None if iv is None else iv.fallback,
                ))
            parts.append(ShapleyReport(agents=merged))

        order = {a: i for i, a in enumerate(scn.agents)}
        report = merge_reports(parts)
        report.agents.sort(key=lambda r: order[r.agent])
        report.meta = {"method": "solve", "traced": True}
        report.save(report_out)
    return scn, report, exact_components


def connected_coalition(rng, neigh, start: int, size: int) -> tuple[int, int]:
    """A random connected coalition of ``size`` agents grown from ``start``.

    Returns the mask and the last agent added.
    """
    mask = 1 << start
    last = start
    frontier = neigh[start]
    for _ in range(size - 1):
        members = list(sa.iter_bits(frontier))
        last = members[int(rng.integers(len(members)))]
        mask |= 1 << last
        frontier = (frontier | neigh[last]) & ~mask
    return mask, last


def draw_coalitions(scn: sa.AllocationScenario, seed: int) -> dict[str, list[tuple[int, int]]]:
    """Connected coalitions of the input's agents graph, per size class."""
    rng = np.random.default_rng([seed, 7])
    neigh = scn.graph.neighbor_masks
    comps = scn.graph.components()
    out: dict[str, list[tuple[int, int]]] = {}
    for name, (lo, hi) in SIZE_CLASSES.items():
        hosts = [c for c in comps if c.bit_count() >= lo]
        drawn = []
        for _ in range(COALITIONS_PER_CLASS if hosts else 0):
            host = hosts[int(rng.integers(len(hosts)))]
            size = int(rng.integers(lo, min(hi, host.bit_count()) + 1))
            members = list(sa.iter_bits(host))
            start = members[int(rng.integers(len(members)))]
            drawn.append(connected_coalition(rng, neigh, start, size))
        out[name] = drawn
    return out


def per_call_us(fn, items) -> float:
    """Mean microseconds per call of ``fn`` over ``items``, 0 if none."""
    if not items:
        return 0.0
    t0 = time.perf_counter()
    for _ in range(MICRO_REPEATS):
        for item in items:
            fn(item)
    return (time.perf_counter() - t0) / (MICRO_REPEATS * len(items)) * 1e6


def microbenchmarks(scn: sa.AllocationScenario, seed: int) -> dict[str, float]:
    drawn = draw_coalitions(scn, seed)
    pooled = [c for cls in drawn.values() for c in cls]
    out = {
        f"matching.value_us.{name}": per_call_us(
            lambda c: matching.optimal_value_only(scn, c[0]), items
        )
        for name, items in drawn.items()
    }
    out["matching.marginal_gain_us"] = per_call_us(
        lambda c: matching.marginal_gain(scn, c[0] & ~(1 << c[1]), c[1]), pooled
    )
    out["model.char_value_us"] = per_call_us(lambda c: sa.char_value(scn, c[0]), pooled)
    out["model.marginal_restricted_us"] = per_call_us(
        lambda c: sa.marginal_restricted(scn, c[1], c[0] & ~(1 << c[1])), pooled
    )
    return out


def pool_speedup(components) -> tuple[float, bool]:
    """Wall-time ratio of exact_shapley at 1 and 2 workers, and bit identity.

    Measured on the largest exact-routed component with more than one job;
    (0, True) when there is none.
    """
    big = [c for c in components if c.n > exact.JOB_BITS]
    if not big:
        return 0.0, True
    comp = max(big, key=lambda c: c.n)
    walls, values = [], []
    for workers in (1, 2):
        t0 = time.perf_counter()
        rep = sa.exact_shapley(comp, workers=workers)
        walls.append(time.perf_counter() - t0)
        values.append([r.value for r in rep.agents])
    return walls[0] / walls[1], values[0] == values[1]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, n_agents: int) -> dict[str, float]:
    c = tr.counts.get
    solve = tr.total("solve")
    module_time = sum(tr.total(n) for n in ("preprocess", *SOLVERS))
    pre = tr.total("preprocess")
    sep = tr.total("separate_singletons")
    prune = tr.total("prune_useless_goods")
    m = {
        "cli.solve_self_s": solve - module_time,
        "model.load_scenario_s": tr.total("load_scenario"),
    }
    for s in SOLVERS:
        m[f"model.cache_hit_rate.{s}"] = ratio(c(f"hits.{s}", 0), c(f"hits.{s}", 0) + c(f"misses.{s}", 0))
    for s in SOLVERS:
        m[f"model.cache_entries.{s}"] = c(f"entries.{s}", 0)
    for s in ("preprocess", *SOLVERS):
        m[f"matching.calls.{s}"] = c(f"matchings.{s}", 0)
    m.update({
        "preprocess.separate_singletons_s": sep,
        "preprocess.prune_useless_goods_s": prune,
        "preprocess.rest_s": pre - sep - prune,
        "preprocess.matchings": c("matchings.preprocess", 0),
        "preprocess.resolved_fraction": ratio(c("preprocess.resolved", 0), n_agents),
        "exact.us_per_mask": ratio(tr.total("exact") * 1e6, c("exact.masks", 0)),
        "exact.masks": c("exact.masks", 0),
        "exact.cpu_per_wall": ratio(c("exact.cpu", 0), tr.total("exact")),
        "bounds.ms_per_agent": ratio(tr.total("bounds") * 1e3, c("bounds.agents", 0)),
        "bounds.matchings_per_agent": ratio(c("matchings.bounds", 0), c("bounds.agents", 0)),
        "bounds.collapsed_fraction": ratio(c("bounds.collapsed", 0), c("bounds.agents", 0)),
        "bounds.fallbacks": c("bounds.fallbacks", 0),
        "sampling.range.us_per_sample": ratio(tr.total("range") * 1e6, c("range.samples", 0)),
        "sampling.range.samples": c("range.samples", 0),
        "sampling.range.matchings_per_sample": ratio(c("matchings.range", 0), c("range.samples", 0)),
        "sampling.range.samples_on_certified": c("range.samples_on_certified", 0),
        "sampling.fpras.us_per_contribution": ratio(tr.total("fpras") * 1e6, c("fpras.contributions", 0)),
        "sampling.fpras.contributions": c("fpras.contributions", 0),
        "sampling.fpras.shortcut_fraction": ratio(c("fpras.shortcut_hits", 0), c("fpras.contributions", 0)),
        "sampling.fpras.matchings_per_contribution": ratio(c("matchings.fpras", 0), c("fpras.contributions", 0)),
    })
    return m


def main(argv: list[str]) -> int:
    path, report_out = argv[0], argv[1]
    opts = cli.build_parser().parse_args(
        ["solve", "--scenario", path, *argv[argv.index("--") + 1:]]
    )
    tr = Tracer()
    scn, report, exact_components = traced_solve(tr, path, opts, report_out)
    metrics = layer_metrics(tr, scn.n)
    metrics.update(microbenchmarks(scn, opts.seed))
    metrics["pool.speedup_2w"], pool_identical = pool_speedup(exact_components)
    print(json.dumps({
        "traced_total_s": tr.total("solve"),
        "pool_identical": pool_identical,
        "metrics": metrics,
        "values": {r.agent: r.value for r in report.agents},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
