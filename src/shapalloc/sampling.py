"""Randomized Shapley estimators: permutation sampling and per-agent ranges.

Two samplers with different guarantees:

* ``fpras_shapley`` draws uniformly random agent permutations and averages
  each agent's marginal contribution to its predecessors.  Small components
  read the marginals off a precomputed worth table; larger ones walk each
  permutation carrying an optimal allocation of the prefix, so a step costs
  at most k augmenting searches and an agent whose neighbors all come later
  just takes its solo goods.  Estimates from independent runs are combined
  by a per-agent median and finally scaled so the total matches the
  grand-coalition worth.

* ``range_sampler_shapley`` fixes, per agent, the number of samples needed by
  Hoeffding's inequality given the spread r_i = opt({i}) - marg(i, N) of its
  marginal contributions, then averages marginals over coalitions drawn from
  the permutation-prefix law (uniform size, then a uniform subset of that
  size), which makes the estimator unbiased for the Shapley value.

Randomness is confined to per-job streams keyed by (master seed, job index),
and job partials merge in job order, so reports are identical for any worker
count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import _pool, matching
from .model import (
    AllocationScenario,
    CharacteristicCache,
    char_value,
    marginal_restricted,
    mask_from_bool,
)
from .report import AgentResult, ShapleyReport

# samples per job: permutations for the permutation sampler, coalitions for
# the range sampler
BATCH = 512
# the permutation sampler reads marginals off a worth table up to this size
TABLE_LIMIT = 14


def _job_rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _config(cls, cfg, kwargs):
    """``cfg``, or a ``cls`` built from the keyword options; never both."""
    if cfg is None:
        return cls(**kwargs)
    if kwargs:
        raise TypeError("pass either cfg or keyword options, not both")
    return cfg


def _run_batched(job_fn, budgets, payload, cache, workers: int):
    """Run sampling jobs over per-key budgets split into batches.

    ``budgets`` pairs each key (a run, or an agent) with its sample count.
    Each job is ``(key, batch index, count)`` with at most ``BATCH`` samples
    and returns ``(key, part)``; the permutation sampler's jobs append their
    shortcut hits.  Parts are summed per key and hits over all jobs, both in
    job order, so the merge is the same for any worker count.  Returns the
    parts, the hits and the runner's work counts.
    """
    jobs = [
        (key, b, min(BATCH, budget - start))
        for key, budget in budgets
        for b, start in enumerate(range(0, budget, BATCH))
    ]
    results, work = _pool.run_jobs(job_fn, jobs, payload, cache, workers=workers)
    parts: dict = {}
    hits = 0
    for key, part, *job_hits in results:
        parts[key] = parts.get(key, 0.0) + part
        hits += sum(job_hits)
    return parts, hits, work


# ---------------------------------------------------------------------------
# permutation sampler
# ---------------------------------------------------------------------------


@dataclass
class FprasConfig:
    """Parameters of the permutation sampler.

    Per run, ceil(n * (n-1) / (delta * epsilon^2)) marginal contributions are
    drawn; permutations are completed, so the realized count is the next
    multiple of n.  ``runs`` independent runs are combined by medians
    (3 covers the default delta = 0.01 comfortably).
    """

    epsilon: float
    delta: float
    runs: int = 3
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.runs < 1:
            raise ValueError("runs must be positive")

    def contributions_per_run(self, n: int) -> int:
        return math.ceil(n * (n - 1) / (self.delta * self.epsilon**2))

    def permutations_per_run(self, n: int) -> int:
        return max(1, math.ceil(self.contributions_per_run(n) / n))


def permutation_walk(
    scenario: AllocationScenario,
    perm: list[int],
    holder: dict[int, int],
    held: dict[int, list[int]],
) -> Iterator[tuple[int, float, bool]]:
    """Walk one permutation, carrying the prefix's optimal allocation.

    ``holder`` and ``held`` start empty and are updated in place (see
    ``matching.add_agent``), so after each step they describe an optimal
    allocation for the prefix that ends with the agent just added.  Yields
    ``(agent, contribution, disconnected)`` per step, where ``disconnected``
    says no earlier agent is a neighbor.  Such an agent takes its solo goods
    and contributes its solo value; every other step runs at most k
    augmenting searches.
    """
    neigh = scenario.graph.neighbor_masks
    solo_value = scenario.solo_value
    solo_goods = scenario.solo_goods
    prefix = 0
    for j in perm:
        alone = neigh[j] & prefix == 0
        if alone:
            contrib = float(solo_value[j])
            held[j] = list(solo_goods(j))
            for g in solo_goods(j):
                holder[g] = j
        else:
            contrib = matching.add_agent(scenario, holder, held, j)
        prefix |= 1 << j
        yield j, contrib, alone


def _fpras_loop_job(payload, cache, job):
    scenario, seed = payload
    run, batch_idx, count = job
    rng = _job_rng(seed, 0, run, batch_idx)
    n = scenario.n
    sums = [0.0] * n
    hits = 0
    for _ in range(count):
        perm = rng.permutation(n).tolist()
        for j, contrib, alone in permutation_walk(scenario, perm, {}, {}):
            sums[j] += contrib
            hits += alone
    return run, np.asarray(sums), hits


def _worth_table_job(scenario, cache, n):
    vtab = np.empty(1 << n, dtype=np.float64)
    for m in range(1 << n):
        vtab[m] = char_value(scenario, m, cache)
    return vtab


def _fpras_table_job(payload, cache, job):
    vtab, neigh_arr, solo_arr, n, seed = payload
    run, batch_idx, count = job
    rng = _job_rng(seed, 0, run, batch_idx)
    perms = np.vstack([rng.permutation(n) for _ in range(count)])
    bitvals = np.int64(1) << perms.astype(np.int64)
    after = np.cumsum(bitvals, axis=1)
    before = after - bitvals
    contrib = vtab[after] - vtab[before]
    disconnected = (neigh_arr[perms] & before) == 0
    contrib = np.where(disconnected, solo_arr[perms], contrib)
    sums = np.zeros(n, dtype=np.float64)
    np.add.at(sums, perms.ravel(), contrib.ravel())
    return run, sums, int(disconnected.sum())


def fpras_shapley(
    scenario: AllocationScenario,
    cache: CharacteristicCache | None = None,
    cfg: FprasConfig | None = None,
    **kwargs,
) -> ShapleyReport:
    """Approximate Shapley values by sampling random permutations.

    Intended for a single connected (post-preprocessing) component.  For
    small components the full worth table is precomputed and the walk is
    vectorized; larger components walk each permutation with
    ``permutation_walk``, which keeps an optimal allocation of the prefix
    and adds each agent to it by at most k augmentations.  That walk runs no
    matching and looks nothing up, so its ``meta`` reports ``matchings`` 0
    and a cache with no hits or misses.

    The table is used when the component has at most ``TABLE_LIMIT`` agents
    and the budget covers its 2^n entries.  The mode sets only the speed:
    both credit an agent none of whose neighbors precede it with its solo
    value, and ``meta["shortcut_hits"]`` counts those steps.

    Options come either as ``cfg`` or as keywords of ``FprasConfig``;
    passing both raises ``TypeError``.
    """
    cfg = _config(FprasConfig, cfg, kwargs)
    t0 = time.perf_counter()
    n = scenario.n
    if n == 0:
        return ShapleyReport(agents=[], meta={"method": "fpras", "n": 0})
    perms_per_run = cfg.permutations_per_run(n)
    m_target = cfg.contributions_per_run(n)
    use_table = n <= TABLE_LIMIT and perms_per_run * n >= (1 << n)

    if cache is None:
        cache = CharacteristicCache()

    budgets = [(run, perms_per_run) for run in range(cfg.runs)]
    if use_table:
        [vtab], work = _pool.run_jobs(_worth_table_job, [n], scenario, cache)
        payload = (
            vtab,
            np.asarray(scenario.graph.neighbor_masks, dtype=np.int64),
            scenario.solo_value,
            n,
            cfg.seed,
        )
        sums, shortcut_hits, _ = _run_batched(_fpras_table_job, budgets, payload, cache, 1)
    else:
        sums, shortcut_hits, work = _run_batched(
            _fpras_loop_job, budgets, (scenario, cfg.seed), cache, cfg.workers
        )
    run_sums = np.vstack([sums[run] for run in range(cfg.runs)])

    estimates = run_sums / perms_per_run
    medians = np.median(estimates, axis=0)
    grand = char_value(scenario, scenario.full_mask, cache)
    total = float(medians.sum())
    scale = grand / total if total != 0.0 else 1.0
    values = medians * scale

    agents = [
        AgentResult(
            agent=a,
            kind="estimate",
            method="fpras",
            value=float(values[i]),
            epsilon=cfg.epsilon,
            delta=cfg.delta,
            samples=perms_per_run * cfg.runs,
        )
        for i, a in enumerate(scenario.agents)
    ]
    meta = {
        "method": "fpras",
        "n": n,
        "epsilon": cfg.epsilon,
        "delta": cfg.delta,
        "runs": cfg.runs,
        "seed": cfg.seed,
        "workers": cfg.workers,
        "mode": "table" if use_table else "loop",
        "contributions_target_per_run": m_target,
        "contributions_per_run": perms_per_run * n,
        "permutations_per_run": perms_per_run,
        "shortcut_hits": shortcut_hits,
        "shortcut_fraction": shortcut_hits / (perms_per_run * n * cfg.runs),
        "scale_factor": scale,
        "grand_value": grand,
        **work,
        "wall_time": time.perf_counter() - t0,
    }
    return ShapleyReport(agents=agents, meta=meta)


# ---------------------------------------------------------------------------
# range-based sampler
# ---------------------------------------------------------------------------


@dataclass
class AgentRange:
    """Extremes of one agent's marginal contributions."""

    solo: float  # opt({i}) = marginal to the empty coalition
    grand_marginal: float  # marginal to everyone else
    width: float  # solo - grand_marginal, >= 0


def compute_ranges(scenario: AllocationScenario) -> dict[str, AgentRange]:
    """Per-agent marginal-contribution ranges r_i = opt({i}) - marg(i, N).

    Every marg(i, N) comes from one greedy for N, each agent removed from
    that optimum and added back (``matching.removal_marginals``).
    """
    margs = matching.removal_marginals(scenario, scenario.full_mask)
    out: dict[str, AgentRange] = {}
    for i, a in enumerate(scenario.agents):
        solo = float(scenario.solo_value[i])
        marg = margs[i]
        out[a] = AgentRange(solo=solo, grand_marginal=marg, width=max(0.0, solo - marg))
    return out


def hoeffding_sample_count(width: float, epsilon: float, delta_i: float) -> int:
    """Hoeffding sample bound: ceil(ln(2/delta_i) * r^2 / (2 eps^2))."""
    if width <= 0.0:
        return 0
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if not 0.0 < delta_i < 1.0:
        raise ValueError("per-agent failure probability must be in (0, 1)")
    return math.ceil(math.log(2.0 / delta_i) * width * width / (2.0 * epsilon * epsilon))


@dataclass
class RangeSamplerConfig:
    """Parameters of the range-based sampler.

    ``epsilon`` is an absolute error target in ``abs`` mode; in ``rel`` mode
    each agent's target is epsilon times a known positive lower bound on its
    Shapley value (supplied via ``lower_bounds``, or defaulting to the
    agent's grand-coalition marginal).  The overall failure probability
    ``delta`` is split evenly: delta_i = delta / n.
    """

    epsilon: float
    delta: float
    mode: str = "abs"
    lower_bounds: dict[str, float] | None = None
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.mode not in ("abs", "rel"):
            raise ValueError(f"mode must be 'abs' or 'rel', got {self.mode!r}")


def _range_job(payload, cache, job):
    scenario, seed = payload
    i, batch_idx, count = job
    rng = _job_rng(seed, 1, i, batch_idx)
    n = scenario.n
    others = np.delete(np.arange(n, dtype=np.intp), i)
    sizes = rng.integers(0, n, size=count)
    subsets = rng.permuted(np.tile(others, (count, 1)), axis=1)
    total = 0.0
    members = np.zeros(n, dtype=bool)
    for t in range(count):
        size = sizes[t]
        if size == 0:
            mask = 0
        else:
            members[:] = False
            members[subsets[t, :size]] = True
            mask = mask_from_bool(members)
        total += marginal_restricted(scenario, i, mask)
    return i, total


def range_sampler_shapley(
    scenario: AllocationScenario,
    cache: CharacteristicCache | None = None,
    cfg: RangeSamplerConfig | None = None,
    **kwargs,
) -> ShapleyReport:
    """Estimate each agent's Shapley value with a per-agent sample budget.

    Coalitions are drawn with a uniformly random size in {0..n-1} followed by
    a uniform subset of the other agents of that size; under this law the
    expected marginal contribution is exactly the Shapley value.  Agents with
    zero range need no samples at all: every marginal equals opt({i}).
    The ranges come from ``compute_ranges`` and each sample is one
    ``marginal_restricted`` call; neither looks a worth up, so
    ``meta["cache"]`` reads no hits and no misses.  Options come either as
    ``cfg`` or as keywords of ``RangeSamplerConfig``; passing both raises
    ``TypeError``.
    """
    cfg = _config(RangeSamplerConfig, cfg, kwargs)
    t0 = time.perf_counter()
    n = scenario.n
    if n == 0:
        return ShapleyReport(agents=[], meta={"method": "range-sample", "n": 0})
    if cache is None:
        cache = CharacteristicCache()
    ranges = compute_ranges(scenario)
    delta_i = cfg.delta / n

    eps_i: dict[str, float] = {}
    if cfg.mode == "abs":
        for a in scenario.agents:
            eps_i[a] = cfg.epsilon
    else:
        for a in scenario.agents:
            lb = (
                cfg.lower_bounds.get(a)
                if cfg.lower_bounds is not None
                else ranges[a].grand_marginal
            )
            if lb is None or lb <= 0.0:
                raise ValueError(
                    f"relative mode needs a positive lower bound for agent {a!r}; "
                    f"compute bounds first or use absolute mode"
                )
            eps_i[a] = cfg.epsilon * lb

    needed = {
        a: hoeffding_sample_count(ranges[a].width, eps_i[a], delta_i)
        for a in scenario.agents
    }

    budgets = [(i, needed[a]) for i, a in enumerate(scenario.agents)]
    totals, _, work = _run_batched(_range_job, budgets, (scenario, cfg.seed), cache, cfg.workers)

    agents = []
    for i, a in enumerate(scenario.agents):
        m_i = needed[a]
        est = totals[i] / m_i if m_i else ranges[a].solo
        agents.append(
            AgentResult(
                agent=a,
                kind="estimate",
                method="range-sample",
                value=float(est),
                epsilon=eps_i[a],
                delta=delta_i,
                samples=m_i,
            )
        )
    meta = {
        "method": "range-sample",
        "n": n,
        "epsilon": cfg.epsilon,
        "delta": cfg.delta,
        "mode": cfg.mode,
        "seed": cfg.seed,
        "workers": cfg.workers,
        "total_samples": int(sum(needed.values())),
        "ranges": {a: r.width for a, r in ranges.items()},
        **work,
        "wall_time": time.perf_counter() - t0,
    }
    return ShapleyReport(agents=agents, meta=meta)
