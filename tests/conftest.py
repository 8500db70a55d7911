import numpy as np
import pytest

import shapalloc as sa


def three_agent_game() -> sa.AllocationScenario:
    """Small reference game, k=1: two agents compete for the top goods while
    the third hangs off a low-value shared good; g4 is worthless."""
    return sa.AllocationScenario(
        agents=["a1", "a2", "a3"],
        goods=[("g1", 3.0), ("g2", 2.0), ("g3", 1.0), ("g4", 0.0)],
        interest={
            "a1": ["g1", "g2", "g3"],
            "a2": ["g1", "g2", "g4"],
            "a3": ["g3", "g4"],
        },
        k=1,
    )


def capacity_two_game() -> sa.AllocationScenario:
    """Three researchers submitting up to two works each; one work (p2) is
    shared by all three and another (p3) by the first two.  Reconstructed so
    that both stated optimal selections are worth 45."""
    return sa.AllocationScenario(
        agents=["r1", "r2", "r3"],
        goods=[
            ("p1", 7.0),
            ("p2", 10.0),
            ("p3", 6.0),
            ("p4", 7.0),
            ("p5", 6.0),
            ("p6", 7.0),
            ("p7", 8.0),
        ],
        interest={
            "r1": ["p1", "p2", "p3"],
            "r2": ["p2", "p3", "p4", "p5"],
            "r3": ["p2", "p6", "p7"],
        },
        k=2,
    )


def random_scenario(seed: int, n: int | None = None, k: int | None = None) -> sa.AllocationScenario:
    """Small random instance for property tests; deterministic per seed."""
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(3, 13))
    if k is None:
        k = int(rng.integers(1, 3))
    return sa.generate(
        agents=n,
        goods_per_agent=float(rng.uniform(1.2, 2.2)),
        coauthor_prob=float(rng.uniform(0.15, 0.55)),
        k=k,
        seed=int(rng.integers(1 << 31)),
        max_claimers=3,
    )


@pytest.fixture
def ref_game():
    return three_agent_game()


@pytest.fixture
def two_slot_game():
    return capacity_two_game()


def char_value_marginal(scenario, i: int, coalition: int) -> float:
    """v(C + i) - v(C) for an agent i outside C, from two ``char_value``
    calls: the independent reference for ``marginal_restricted``."""
    assert not coalition >> i & 1, "agent already belongs to the coalition"
    return sa.char_value(scenario, coalition | 1 << i) - sa.char_value(scenario, coalition)


def exact_values(scenario, **kw) -> dict[str, float]:
    rep = sa.exact_shapley(scenario, **kw)
    return {r.agent: r.value for r in rep.agents}
