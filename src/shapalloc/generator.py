"""Synthetic allocation scenarios shaped like author/publication assignment.

Agents stand for authors, goods for their works: each good is claimed by
1 + Geometric(coauthor_prob) distinct agents (truncated), which reproduces
the heavy mass of single-author goods with occasional wider collaborations,
and values come from a small discrete grade scale that includes zero (a
rejected/worthless good, which links no co-authors in the agents graph and
is stripped by preprocessing).
"""

from __future__ import annotations

import numpy as np

from .model import AllocationScenario

DEFAULT_VALUE_SET = (0.0, 0.1, 0.4, 0.7, 1.0)


def generate(
    agents: int,
    goods_per_agent: float = 1.66,
    coauthor_prob: float = 0.2,
    value_set: tuple[float, ...] = DEFAULT_VALUE_SET,
    value_weights: tuple[float, ...] | None = None,
    k: int = 2,
    seed: int = 0,
    max_claimers: int = 4,
    inactive_fraction: float = 0.0,
) -> AllocationScenario:
    """Deterministic random scenario for a given seed.

    ``goods_per_agent`` fixes the number of goods as round(agents * rate);
    ``coauthor_prob`` is the per-step continuation probability of the
    geometric claimer count (0 means every good has a single claimant and
    the agents graph is edgeless).  ``inactive_fraction`` leaves that share
    of agents without any goods, the way a roster includes members with
    nothing to submit.
    """
    if agents < 1:
        raise ValueError("need at least one agent")
    if not 0.0 <= coauthor_prob < 1.0:
        raise ValueError("coauthor_prob must be in [0, 1)")
    if goods_per_agent <= 0:
        raise ValueError("goods_per_agent must be positive")
    if max_claimers < 1:
        raise ValueError("max_claimers must be >= 1")
    if value_weights is not None and len(value_weights) != len(value_set):
        raise ValueError("value_weights must match value_set")
    if not 0.0 <= inactive_fraction < 1.0:
        raise ValueError("inactive_fraction must be in [0, 1)")

    rng = np.random.default_rng(seed)
    n_goods = max(1, round(agents * goods_per_agent))
    width_a = len(str(agents))
    width_g = len(str(n_goods))
    agent_ids = [f"a{idx:0{width_a}d}" for idx in range(1, agents + 1)]
    good_ids = [f"g{idx:0{width_g}d}" for idx in range(1, n_goods + 1)]

    if value_weights is None:
        probs = None
    else:
        w = np.asarray(value_weights, dtype=np.float64)
        probs = w / w.sum()
    values = rng.choice(np.asarray(value_set, dtype=np.float64), size=n_goods, p=probs)

    n_inactive = int(round(agents * inactive_fraction))
    active = np.sort(rng.choice(agents, size=agents - n_inactive, replace=False))

    # claimers per good: 1 + Geometric(coauthor_prob), truncated
    if coauthor_prob == 0.0:
        extra = np.zeros(n_goods, dtype=np.int64)
    else:
        extra = rng.geometric(1.0 - coauthor_prob, size=n_goods) - 1
    claimers = np.minimum(1 + extra, min(max_claimers, len(active)))

    interest: dict[str, list[str]] = {a: [] for a in agent_ids}
    for j in range(n_goods):
        chosen = active[rng.choice(len(active), size=int(claimers[j]), replace=False)]
        for i in chosen:
            interest[agent_ids[int(i)]].append(good_ids[j])

    goods = list(zip(good_ids, (float(v) for v in values)))
    return AllocationScenario(agent_ids, goods, interest, k)


def extract_subgraph(
    scenario: AllocationScenario, size: int, seed: int = 0
) -> AllocationScenario:
    """Scenario restricted to ``size`` distinct agents sampled uniformly."""
    if size < 0:
        raise ValueError(f"size must be at least 0, got {size}")
    if size > scenario.n:
        raise ValueError(f"cannot extract {size} agents from {scenario.n}")
    if size == scenario.n:
        return scenario
    rng = np.random.default_rng(seed)
    chosen = rng.choice(scenario.n, size=size, replace=False)
    ids = [scenario.agents[int(i)] for i in sorted(chosen)]
    return scenario.restrict(ids)
