import numpy as np
import pytest

import shapalloc as sa
from shapalloc import matching

from conftest import random_scenario
from oracles import brute_force_opt, greedy_disjoint_value


def test_single_agent_takes_both_goods():
    scn = sa.AllocationScenario(
        ["x"], [("g", 5.0), ("h", 3.0)], {"x": ["g", "h"]}, k=2
    )
    alloc, value = sa.optimal_allocation(scn, scn.full_mask)
    assert value == 8.0
    assert alloc.assignment["x"] == frozenset({"g", "h"})


def test_contested_good_goes_to_exactly_one():
    scn = sa.AllocationScenario(
        ["x", "y"], [("g", 5.0)], {"x": ["g"], "y": ["g"]}, k=1
    )
    alloc, value = sa.optimal_allocation(scn, scn.full_mask)
    assert value == 5.0
    holders = [a for a, goods in alloc.assignment.items() if goods]
    assert len(holders) == 1


def test_reference_game_grand_value(ref_game):
    assert sa.optimal_value_only(ref_game, ref_game.full_mask) == 6.0


def test_value_only_equals_allocation_value(ref_game):
    for m in range(1, 1 << ref_game.n):
        alloc, value = sa.optimal_allocation(ref_game, m)
        assert sa.optimal_value_only(ref_game, m) == value
        assert alloc.value(ref_game) == pytest.approx(value, rel=1e-12, abs=1e-12)


def test_matches_exhaustive_search():
    for seed in range(20, 26):
        scn = random_scenario(seed, n=6, k=2)
        got = sa.optimal_value_only(scn, scn.full_mask)
        want = brute_force_opt(scn)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_capacity_expansion_matches_search():
    rng = np.random.default_rng(3)
    for k in (1, 2, 3):
        for seed in range(3):
            scn = random_scenario(int(rng.integers(1 << 30)), n=5, k=k)
            for m in (scn.full_mask, scn.full_mask >> 1, 0b101):
                got = sa.optimal_value_only(scn, m)
                want = brute_force_opt(scn, m)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_disjoint_interests_reduce_to_per_agent_top_k():
    scn = sa.AllocationScenario(
        ["x", "y", "z"],
        [("a", 5.0), ("b", 3.0), ("c", 2.0), ("d", 7.0), ("e", 1.0)],
        {"x": ["a", "b"], "y": ["c"], "z": ["d", "e"]},
        k=2,
    )
    for m in range(1, 1 << 3):
        assert sa.optimal_value_only(scn, m) == pytest.approx(
            greedy_disjoint_value(scn, m), rel=1e-12
        )


def test_declaration_order_invariance():
    scn = random_scenario(31, n=8, k=2)
    rng = np.random.default_rng(0)
    base = sa.optimal_value_only(scn, scn.full_mask)
    agent_perm = rng.permutation(scn.n)
    good_perm = rng.permutation(len(scn.good_ids))
    shuffled = sa.AllocationScenario(
        agents=[scn.agents[i] for i in agent_perm],
        goods=[(scn.good_ids[j], float(scn.good_values[j])) for j in good_perm],
        interest={
            a: [scn.good_ids[j] for j in scn.interest[scn.agent_index[a]]]
            for a in scn.agents
        },
        k=scn.k,
    )
    assert sa.optimal_value_only(shuffled, shuffled.full_mask) == pytest.approx(
        base, rel=1e-12
    )


def test_zero_value_goods_never_assigned():
    scn = sa.AllocationScenario(
        ["x", "y"],
        [("g", 0.0), ("h", 2.0)],
        {"x": ["g", "h"], "y": ["g"]},
        k=2,
    )
    alloc, value = sa.optimal_allocation(scn, scn.full_mask)
    assert value == 2.0
    assert alloc.assignment["y"] == frozenset()
    assert "g" not in alloc.assignment["x"]


def test_allocations_feasible_on_random_instances():
    for seed in (41, 42, 43):
        scn = random_scenario(seed, n=7)
        rng = np.random.default_rng(seed)
        for _ in range(10):
            m = int(rng.integers(1, 1 << scn.n))
            alloc, value = sa.optimal_allocation(scn, m)
            alloc.validate(scn, m)
            assert value >= 0.0


def test_exhaustive_against_brute_force_with_ties():
    # grade-scale values make ties common, so several optimal good sets exist
    for k in (1, 2, 3):
        for seed in range(4):
            scn = sa.generate(agents=6, goods_per_agent=2.0, coauthor_prob=0.5,
                              k=k, seed=100 * k + seed)
            for m in range(1 << scn.n):
                want = brute_force_opt(scn, m)
                assert sa.optimal_value_only(scn, m) == pytest.approx(
                    want, rel=1e-12, abs=1e-12
                ), (k, seed, m)
                alloc, value = sa.optimal_allocation(scn, m)
                alloc.validate(scn, m)
                assert value == pytest.approx(want, rel=1e-12, abs=1e-12), (k, seed, m)


class TestMarginalGain:
    """The augmentation route must match the difference of two optima."""

    def test_exhaustive_on_small_instances(self):
        for seed in range(70, 82):
            scn = random_scenario(seed, n=6)
            for i in range(scn.n):
                others = scn.full_mask & ~(1 << i)
                m = 0
                while True:
                    want = sa.optimal_value_only(scn, m | 1 << i) - sa.optimal_value_only(scn, m)
                    got = matching.marginal_gain(scn, m, i)
                    assert got == pytest.approx(want, rel=1e-9, abs=1e-12), (seed, i, m)
                    if m == others:
                        break
                    m = (m - others) & others

    def test_randomized_mid_size(self):
        rng = np.random.default_rng(0)
        for seed in (90, 91, 92):
            scn = random_scenario(seed, n=12, k=2)
            for _ in range(80):
                i = int(rng.integers(scn.n))
                m = int(rng.integers(1 << scn.n)) & ~(1 << i)
                want = sa.optimal_value_only(scn, m | 1 << i) - sa.optimal_value_only(scn, m)
                got = matching.marginal_gain(scn, m, i)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_big_sparse_component(self):
        scn = sa.generate(agents=120, coauthor_prob=0.55, max_claimers=2,
                          value_weights=(0.2, 0.2, 0.2, 0.2, 0.2), k=2, seed=77)
        scn = sa.strip_null_goods(scn)
        comp = max(scn.graph.components(), key=lambda m: m.bit_count())
        assert comp.bit_count() > 20
        rng = np.random.default_rng(1)
        members = [b for b in sa.iter_bits(comp)]
        for _ in range(25):
            i = int(rng.integers(len(members)))
            agent = members[i]
            keep = rng.random(len(members)) < rng.random()
            m = 0
            for pos, b in enumerate(members):
                if keep[pos] and b != agent:
                    m |= 1 << b
            want = sa.optimal_value_only(scn, m | 1 << agent) - sa.optimal_value_only(scn, m)
            got = matching.marginal_gain(scn, m, agent)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_member_rejected(self, ref_game):
        with pytest.raises(sa.ScenarioError):
            matching.marginal_gain(ref_game, ref_game.mask_of(["a1"]), 0)

    def test_empty_interest_agent(self):
        scn = sa.AllocationScenario(
            ["x", "y"], [("g", 2.0)], {"x": ["g"], "y": []}, k=1
        )
        assert matching.marginal_gain(scn, scn.mask_of(["x"]), scn.agent_index["y"]) == 0.0


def test_remove_agent_exhaustive_against_brute_force():
    # every member of every mask of tie-heavy instances: the loss is the drop
    # in the optimum, the allocation left behind is feasible and optimal for
    # the rest, and the float is the one marginal_gain computes
    for k in (1, 2, 3):
        for seed in range(4):
            scn = sa.generate(agents=6, goods_per_agent=2.0, coauthor_prob=0.5,
                              k=k, seed=100 * k + seed)
            opt = {m: brute_force_opt(scn, m) for m in range(1 << scn.n)}
            for m in range(1, 1 << scn.n):
                for i in sa.iter_bits(m):
                    rest = m & ~(1 << i)
                    holder, held = matching.greedy(scn, m)
                    loss = matching.remove_agent(scn, holder, held, i)
                    assert loss == pytest.approx(opt[m] - opt[rest], rel=1e-12, abs=1e-12)
                    assert loss == matching.marginal_gain(scn, rest, i), (k, seed, m, i)
                    assert set(held) == set(sa.iter_bits(rest))
                    assert holder == {g: a for a, goods in held.items() for g in goods}
                    alloc = matching.Allocation(assignment={
                        scn.agents[a]: frozenset(scn.good_ids[g] for g in goods)
                        for a, goods in held.items()
                    })
                    alloc.validate(scn, rest)
                    assert alloc.value(scn) == pytest.approx(opt[rest], rel=1e-12, abs=1e-12)


def test_removal_marginals_match_restricted():
    cases = []
    for seed in range(150, 162):
        scn = random_scenario(seed, n=9, k=1 + seed % 3)
        rng = np.random.default_rng(seed)
        cases += [(scn, scn.full_mask)] + [
            (scn, int(m)) for m in rng.integers(1, 1 << scn.n, size=6)
        ]
    big = sa.generate(agents=150, coauthor_prob=0.55, max_claimers=2,
                      value_weights=(0.2, 0.2, 0.2, 0.2, 0.2), k=3, seed=77)
    comp = max(big.graph.components(), key=int.bit_count)
    assert comp.bit_count() > 40
    cases.append((big, comp))
    for scn, m in cases:
        got = matching.removal_marginals(scn, m)
        assert sorted(got) == list(sa.iter_bits(m))
        for i, marg in got.items():
            assert marg == sa.marginal_restricted(scn, i, m & ~(1 << i)), (m, i)
