"""Randomized Shapley estimators: permutation sampling and per-agent ranges.

Two samplers with different guarantees:

* ``fpras_shapley`` draws uniformly random agent permutations and averages
  each agent's marginal contribution to its predecessors.  Small components
  read the marginals off a precomputed worth table; larger ones walk each
  permutation carrying an optimal allocation of the prefix (one
  ``matching.add_agents`` call per walk), so a step costs at most k
  augmenting searches, an agent whose solo goods are all free just takes
  them, and the permutation's last agent is credited its grand marginal
  with no search.  Estimates from independent runs are
  combined by a per-agent median and finally scaled so the total matches
  the grand-coalition worth.

* ``range_sampler_shapley`` fixes, per agent, the number m_i of samples
  needed by Hoeffding's inequality given the spread r_i = opt({i}) -
  marg(i, N) of its marginal contributions (Maleki et al. 2013), then
  averages marginals to coalitions drawn from the permutation-prefix law,
  which makes the estimator unbiased for the Shapley value.  The draws come
  from shared permutation walks (Castro, Gomez & Tejada 2009): walk t gives
  every agent j with t < m_j one contribution, so each agent averages m_j
  independent draws, each one step of a shared walk.

Each sampler takes its options as one config, ``cfg``.  The permutation
sampler's loop mode and the range sampler walk in one job, ``_walk_job``,
which leaves the carried allocation to ``matching``.
Randomness is confined to per-job streams keyed by (master seed, sampler,
key, batch), and job partials merge in job order, so reports are identical
for any worker count.  A job draws its batch's permutations with one call
(``_permutations``), the same rows as one ``rng.permutation(n)`` per walk.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from . import _pool, matching
from .exact import worths
from .model import AllocationScenario, CharacteristicCache, char_value
from .report import AgentResult, ShapleyReport

# permutations walked (or read off the worth table) per job
BATCH = 512
# the permutation sampler reads marginals off a worth table up to this size
TABLE_LIMIT = 14


def _check_integer(name: str, value, least: int) -> None:
    """Raise ``ValueError`` naming the field unless ``value`` is an integer >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


def _job_rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _permutations(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """``count`` permutations of ``range(n)``, one per row, in one call: numpy
    shuffles each row in turn as ``rng.permutation(n)`` does, so row s is the
    s-th of ``count`` such calls, from the same stream."""
    return rng.permuted(np.tile(np.arange(n), (count, 1)), axis=1)


def _run_batched(job_fn, budgets, payload, workers: int):
    """Run sampling jobs over per-key budgets split into batches.

    ``budgets`` pairs each key (a run of the permutation sampler, or the
    range sampler's one set of walks) with its count of walks.  Each job is
    ``(key, batch index, count)`` with at most ``BATCH`` walks and returns
    ``(key, part, shortcut hits, steps)``.  Parts are summed per key, and
    hits and steps over all jobs, in job order, so the merge is the same
    for any worker count.  Returns the parts, the hits, the steps and the
    runner's work counts.
    """
    jobs = [
        (key, b, min(BATCH, budget - start))
        for key, budget in budgets
        for b, start in enumerate(range(0, budget, BATCH))
    ]
    results, work = _pool.run_jobs(job_fn, jobs, payload, workers=workers)
    parts: dict = {}
    hits = steps = 0
    for key, part, job_hits, job_steps in results:
        parts[key] = parts.get(key, 0.0) + part
        hits += job_hits
        steps += job_steps
    return parts, hits, steps, work


# ---------------------------------------------------------------------------
# permutation sampler
# ---------------------------------------------------------------------------


@dataclass
class FprasConfig:
    """Parameters of the permutation sampler.

    Per run, ceil(n * (n-1) / (delta * epsilon^2)) marginal contributions are
    drawn; permutations are completed, so the realized count is the next
    multiple of n.  ``runs`` independent runs are combined by medians
    (3 covers the default delta = 0.01 comfortably).  An epsilon whose budget
    is not finite, for two agents or later for n, raises ``ValueError``.
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
        _check_integer("runs", self.runs, 1)
        _check_integer("seed", self.seed, 0)
        _check_integer("workers", self.workers, 1)
        self.contributions_per_run(2)

    def contributions_per_run(self, n: int) -> int:
        try:
            return math.ceil(n * (n - 1) / (self.delta * self.epsilon**2))
        except (ZeroDivisionError, OverflowError):
            raise ValueError(f"epsilon {self.epsilon}: no finite budget for {n} agents") from None

    def permutations_per_run(self, n: int) -> int:
        return max(1, math.ceil(self.contributions_per_run(n) / n))


def _walk_job(payload, job):
    """Per-agent sums of contributions over one batch of permutation walks.

    The payload names the stream, 0 for the permutation sampler and 1 for
    the range sampler, each agent's cap and each agent's grand marginal
    v(N) - v(N - j); the job draws its ``count`` permutations from
    ``(seed, stream, key, batch)`` in one ``_permutations`` call, row s
    being walk s.  Walk t of a key is ``batch * BATCH + s``, agent j's
    contribution counts iff t < caps[j], and the walk stops once the last
    agent still owed one is placed.  The permutation sampler caps every agent at its walks per
    run, so all of each walk counts.

    A walk carries an optimal allocation of the prefix and adds its agents
    with one ``matching.add_agents`` call: an agent whose solo goods are
    all free takes them with no search, and contributes its solo value when
    none of its neighbors precede it (a shortcut hit); any other agent
    costs at most k augmenting searches.  The permutation's last agent, its
    prefix being N - j, is credited its grand marginal with no search (a
    hit if it has no neighbor at all).  Returns the key, the sums, the
    shortcut hits and the steps walked.
    """
    scenario, seed, stream, caps, grand = payload
    key, batch_idx, count = job
    rng = _job_rng(seed, stream, key, batch_idx)
    n = scenario.n
    neigh = scenario.graph.neighbor_masks
    sums = [0.0] * n
    hits = 0
    steps = 0
    for s, perm in enumerate(_permutations(rng, n, count).tolist()):
        t = batch_idx * BATCH + s
        stop = n
        while caps[perm[stop - 1]] <= t:
            stop -= 1
        steps += stop
        if stop == n:
            last = perm[-1]
            # an agent without neighbors has its solo value as grand marginal
            if not neigh[last]:
                hits += 1
            sums[last] += grand[last]
            stop -= 1
        gains, walk_hits = matching.add_agents(
            scenario, *matching.empty_allocation(scenario), perm[:stop]
        )
        hits += walk_hits
        for j, gain in zip(perm, gains):
            if caps[j] > t:
                sums[j] += gain
    return key, np.asarray(sums), hits, steps


def _fpras_table_job(payload, job):
    vtab, neigh_arr, solo_arr, n, seed = payload
    run, batch_idx, count = job
    rng = _job_rng(seed, 0, run, batch_idx)
    perms = _permutations(rng, n, count)
    bitvals = np.int64(1) << perms.astype(np.int64)
    after = np.cumsum(bitvals, axis=1)
    before = after - bitvals
    contrib = vtab[after] - vtab[before]
    disconnected = (neigh_arr[perms] & before) == 0
    contrib = np.where(disconnected, solo_arr[perms], contrib)
    sums = np.zeros(n, dtype=np.float64)
    np.add.at(sums, perms.ravel(), contrib.ravel())
    return run, sums, int(disconnected.sum()), count * n


def _run_median(estimates: np.ndarray) -> np.ndarray:
    """Per-agent median over the runs (rows), as ``np.median(estimates,
    axis=0)`` computes it, without the ``numpy.ma`` import that
    ``np.median`` makes on first use."""
    ordered = np.sort(estimates, axis=0)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def fpras_shapley(
    scenario: AllocationScenario,
    cache: CharacteristicCache | None = None,
    *,
    cfg: FprasConfig,
) -> ShapleyReport:
    """Approximate Shapley values by sampling random permutations.

    Intended for a single connected (post-preprocessing) component.  For
    small components the full worth table is precomputed and the walk is
    vectorized; larger components walk each permutation in ``_walk_job``,
    which keeps an optimal allocation of the prefix and adds each agent to
    it by at most k augmentations, but for the last agent, credited its
    grand marginal.  The grand marginals come from one
    ``matching.removal_marginals`` greedy and the rescale target v(N) from
    ``char_value``, so on a connected component loop mode's ``meta``
    reports ``matchings`` 2.  The table comes from ``exact.worths``, one
    matching per distinct component, and its last entry is v(N).  ``cache`` is
    inert: nothing is looked up in it or stored in it, and it stays so that
    callers passing it positionally keep working.

    The table is used when the component has at most ``TABLE_LIMIT`` agents
    and the budget covers its 2^n entries.  The mode sets only the speed:
    both credit an agent none of whose neighbors precede it with its solo
    value, and ``meta["shortcut_hits"]`` counts those steps.
    """
    t0 = time.perf_counter()
    n = scenario.n
    if n == 0:
        return ShapleyReport(agents=[], meta={"method": "fpras", "n": 0})
    perms_per_run = cfg.permutations_per_run(n)
    m_target = cfg.contributions_per_run(n)
    use_table = n <= TABLE_LIMIT and perms_per_run * n >= (1 << n)

    budgets = [(run, perms_per_run) for run in range(cfg.runs)]
    if use_table:
        vtab, work = _pool.counted(worths, scenario, 0, 1 << n, {})
        payload = (
            vtab,
            np.asarray(scenario.graph.neighbor_masks, dtype=np.int64),
            scenario.solo_value,
            n,
            cfg.seed,
        )
        sums, shortcut_hits, _, _ = _run_batched(_fpras_table_job, budgets, payload, 1)
        # bit for bit char_value(scenario, scenario.full_mask)
        grand = float(vtab[-1])
    else:
        margs, work = _pool.counted(matching.removal_marginals, scenario, scenario.full_mask)
        caps = [perms_per_run] * n
        grand_margs = [margs[i] for i in range(n)]
        sums, shortcut_hits, _, walk_work = _run_batched(
            _walk_job, budgets, (scenario, cfg.seed, 0, caps, grand_margs), cfg.workers
        )
        grand, grand_work = _pool.counted(char_value, scenario, scenario.full_mask)
        for field in ("matchings", "searches"):
            work[field] += walk_work[field] + grand_work[field]
    run_sums = np.vstack([sums[run] for run in range(cfg.runs)])

    medians = _run_median(run_sums / perms_per_run)
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


def hoeffding_sample_count(width: float, epsilon: float, delta_i: float) -> int:
    """Hoeffding sample bound ceil(ln(2/delta_i) * r^2 / (2 eps^2)); ValueError if not finite."""
    if width <= 0.0:
        return 0
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not 0.0 < delta_i < 1.0:
        raise ValueError("per-agent failure probability must be in (0, 1)")
    try:
        return math.ceil(math.log(2.0 / delta_i) * width * width / (2.0 * epsilon * epsilon))
    except (ZeroDivisionError, OverflowError):
        raise ValueError(f"epsilon {epsilon}: no finite sample budget") from None


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
        _check_integer("seed", self.seed, 0)
        _check_integer("workers", self.workers, 1)


def range_sampler_shapley(
    scenario: AllocationScenario,
    cache: CharacteristicCache | None = None,
    *,
    cfg: RangeSamplerConfig,
) -> ShapleyReport:
    """Estimate each agent's Shapley value with a per-agent sample budget.

    Agent i's m_i samples are its marginals to the agents before it in m_i
    independent uniform permutations; under this law (a uniformly random
    size in {0..n-1}, then a uniform subset of the others of that size) the
    expected marginal is exactly the Shapley value.  Agents with zero range
    need no samples at all: every marginal equals opt({i}).

    ``max(m_i)`` permutations are walked by ``_walk_job``, each carrying
    the prefix's optimum, so a draw costs taking the agent's free solo
    goods or at most k augmenting searches, or for the permutation's last
    agent nothing: it reads its grand marginal.  Walk t counts agent j's
    contribution iff t < m_j and stops once the last agent still owed one
    is placed.  Draws of different agents share walks and so are
    dependent; neither Hoeffding's bound per agent nor the union bound over
    agents needs them independent.  ``meta["walks"]`` counts the walks and
    ``meta["walk_steps"]`` the contributions computed, counted or not.

    Every grand marginal marg(i, N) comes from one greedy for N, each agent
    removed from that optimum and added back
    (``matching.removal_marginals``), counted by ``_pool.counted``, so
    ``meta["matchings"]`` counts that greedy and ``meta["searches"]`` its
    removal searches plus the walk steps that ran a search.  Agent i's
    width r_i = max(0, opt({i}) - marg(i, N)) is ``meta["ranges"]``.
    Nothing looks a worth up, so ``cache`` is inert; it stays so that
    callers passing it positionally keep working.
    """
    t0 = time.perf_counter()
    n = scenario.n
    if n == 0:
        return ShapleyReport(agents=[], meta={"method": "range-sample", "n": 0})
    margs, work = _pool.counted(matching.removal_marginals, scenario, scenario.full_mask)
    grand = [margs[i] for i in range(n)]
    solo = scenario.solo_value.tolist()
    widths = [max(0.0, s - m) for s, m in zip(solo, grand)]
    delta_i = cfg.delta / n

    if cfg.mode == "abs":
        eps = [cfg.epsilon] * n
    else:
        eps = []
        for a, marg in zip(scenario.agents, grand):
            lb = cfg.lower_bounds.get(a) if cfg.lower_bounds is not None else marg
            if lb is None or lb <= 0.0:
                raise ValueError(
                    f"relative mode needs a positive lower bound for agent {a!r}; "
                    f"compute bounds first or use absolute mode"
                )
            eps.append(cfg.epsilon * lb)
    caps = []
    for a, w, e in zip(scenario.agents, widths, eps):
        try:
            caps.append(hoeffding_sample_count(w, e, delta_i))
        except ValueError as exc:
            raise ValueError(f"agent {a!r}: {exc}") from None

    walks = max(caps)
    sums, _, walk_steps, walk_work = _run_batched(
        _walk_job, [(0, walks)], (scenario, cfg.seed, 1, caps, grand), cfg.workers
    )
    for field in ("matchings", "searches"):
        work[field] += walk_work[field]

    agents = [
        AgentResult(
            agent=a,
            kind="estimate",
            method="range-sample",
            value=float(sums[0][i] / caps[i] if caps[i] else solo[i]),
            epsilon=eps[i],
            delta=delta_i,
            samples=caps[i],
        )
        for i, a in enumerate(scenario.agents)
    ]
    meta = {
        "method": "range-sample",
        "n": n,
        "epsilon": cfg.epsilon,
        "delta": cfg.delta,
        "mode": cfg.mode,
        "seed": cfg.seed,
        "workers": cfg.workers,
        "total_samples": sum(caps),
        "walks": walks,
        "walk_steps": walk_steps,
        "ranges": dict(zip(scenario.agents, widths)),
        **work,
        "wall_time": time.perf_counter() - t0,
    }
    return ShapleyReport(agents=agents, meta=meta)
