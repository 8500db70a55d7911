import numpy as np
import pytest

import shapalloc as sa

from shapalloc.bounds import DEFAULT_MAX_NEIGH, gray_subsets

from conftest import exact_values, random_scenario
from oracles import profile_mass_explicit


def clique_scenario(n: int, seed: int = 0) -> sa.AllocationScenario:
    """Everyone shares one contested good and holds a private one."""
    rng = np.random.default_rng(seed)
    agents = [f"a{i}" for i in range(n)]
    goods = [("shared", 2.0)] + [
        (f"p{i}", float(rng.choice([0.4, 0.7, 1.0]))) for i in range(n)
    ]
    interest = {a: ["shared", f"p{i}"] for i, a in enumerate(agents)}
    return sa.AllocationScenario(agents, goods, interest, k=1)


class TestProfileWeight:
    def test_no_neighbors_single_profile_carries_all_weight(self):
        for n in (2, 5, 9):
            assert sa.profile_weight(n - 1, 0, 0, n) == pytest.approx(1.0, rel=1e-12)

    def test_three_agents_one_neighbor_by_hand(self):
        # profiles {} and {j} each cover half the weight
        assert sa.profile_weight(1, 0, 1, 3) == pytest.approx(0.5, rel=1e-12)
        assert sa.profile_weight(1, 1, 0, 3) == pytest.approx(0.5, rel=1e-12)

    def test_matches_explicit_coalition_enumeration(self):
        rng = np.random.default_rng(0)
        for n in (4, 6, 8):
            for _ in range(4):
                i = int(rng.integers(n))
                others = [x for x in range(n) if x != i]
                deg = int(rng.integers(0, n))
                neigh = set(rng.choice(others, size=deg, replace=False).tolist())
                p_size = int(rng.integers(0, deg + 1)) if deg else 0
                profile = set(list(neigh)[:p_size])
                expect = profile_mass_explicit(n, i, neigh, profile)
                l = n - deg - 1
                got = sa.profile_weight(l, len(profile), deg - len(profile), n)
                assert got == pytest.approx(expect, rel=1e-12)

    def test_partition_of_unity_on_random_graphs(self):
        for seed in (301, 302, 303):
            scn = random_scenario(seed, n=12)
            n = scn.n
            for i in range(n):
                deg = scn.graph.degree(i)
                l = n - deg - 1
                total = sum(
                    sa.profile_weight(l, p, deg - p, n) * _comb(deg, p)
                    for p in range(deg + 1)
                )
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_inconsistent_sizes_rejected(self):
        with pytest.raises(ValueError):
            sa.profile_weight(2, 1, 1, 4)
        with pytest.raises(ValueError):
            sa.profile_weight(-1, 1, 1, 2)

    def test_large_population_weight_is_finite_and_tiny(self):
        y = sa.profile_weight(600, 3, 2, 606)
        assert 0.0 < y < 1.0


def _comb(n, k):
    from math import comb

    return comb(n, k)


class TestShapleyBounds:
    def test_isolated_agent_collapses_to_solo_value(self):
        scn = sa.AllocationScenario(
            ["x", "y", "z"],
            [("a", 3.0), ("b", 1.0)],
            {"x": ["a"], "y": ["b"], "z": ["b"]},
            k=1,
        )
        rep = sa.shapley_bounds(scn)
        rec = rep.by_agent()["x"]
        assert rec.lb == rec.ub == 3.0

    def test_bounds_contain_exact_values(self):
        for seed in (310, 311, 312, 313):
            scn = random_scenario(seed, n=9)
            cache = sa.CharacteristicCache()
            exact = exact_values(scn, cache=cache)
            rep = sa.shapley_bounds(scn, cache)
            for rec in rep.agents:
                sv = exact[rec.agent]
                assert rec.lb <= sv + 1e-9
                assert rec.ub >= sv - 1e-9
                if rec.lb == rec.ub:
                    assert rec.lb == pytest.approx(sv, rel=1e-9, abs=1e-9)

    def test_sandwich_between_trivial_bounds(self):
        scn = random_scenario(320, n=10)
        cache = sa.CharacteristicCache()
        rep = sa.shapley_bounds(scn, cache)
        full = scn.full_mask
        for rec in rep.agents:
            i = scn.agent_index[rec.agent]
            marg = sa.marginal_restricted(scn, i, full & ~(1 << i))
            solo = float(scn.solo_value[i])
            assert rec.lb >= marg - 1e-9
            assert rec.ub <= solo + 1e-9
            assert rec.lb <= rec.ub + 1e-9

    def test_clique_profiles_recover_exact_values(self):
        for n in (4, 6, 8, 10):
            scn = clique_scenario(n, seed=n)
            # the graph really is a clique
            assert all(scn.graph.degree(i) == n - 1 for i in range(n))
            cache = sa.CharacteristicCache()
            exact = exact_values(scn, cache=cache)
            rep = sa.shapley_bounds(scn, cache)
            for rec in rep.agents:
                assert rec.lb == rec.ub  # same term stream on both sides
                assert rec.lb == pytest.approx(exact[rec.agent], rel=1e-9)

    def test_fallback_interval_beyond_neighbor_cutoff(self):
        scn = clique_scenario(6)
        cache = sa.CharacteristicCache()
        rep = sa.shapley_bounds(scn, cache, max_neigh=3)
        full = scn.full_mask
        for rec in rep.agents:
            assert rec.fallback is True
            assert rec.method == "trivial-range"
            i = scn.agent_index[rec.agent]
            marg = sa.marginal_restricted(scn, i, full & ~(1 << i))
            assert rec.lb == pytest.approx(marg, rel=1e-12, abs=1e-12)
            assert rec.ub == pytest.approx(float(scn.solo_value[i]), rel=1e-12)

    def test_agent_filter(self):
        scn = random_scenario(340, n=8)
        chosen = [scn.agents[0], scn.agents[3]]
        rep = sa.shapley_bounds(scn, agents=chosen)
        assert [r.agent for r in rep.agents] == sorted(chosen, key=scn.agents.index)

    def test_worker_count_does_not_change_results(self):
        # the second instance's sweeps reach degree 6 at k = 3, so the
        # carried optima pass through many add and remove steps
        for scn in (random_scenario(350, n=9), random_scenario(370, n=12, k=3)):
            assert max(scn.graph.degree(i) for i in range(scn.n)) >= 4
            one = [(r.lb, r.ub) for r in sa.shapley_bounds(scn, workers=1).agents]
            many = [(r.lb, r.ub) for r in sa.shapley_bounds(scn, workers=3).agents]
            assert one == many

    def test_carried_sweep_matches_per_subset_marginals(self):
        # the sweep as one marginal_restricted per side and subset: the
        # carried optima must give the same (lb, ub) bit for bit
        def per_subset(scn, i, max_neigh):
            neigh, n = scn.graph.neighbor_masks[i], scn.n
            deg = neigh.bit_count()
            others = scn.full_mask & ~(1 << i)
            if deg > max_neigh:
                return sa.marginal_restricted(scn, i, others), float(scn.solo_value[i])
            rest = others & ~neigh
            lb = ub = 0.0
            for p in gray_subsets(list(sa.iter_bits(neigh))):
                y = sa.profile_weight(n - deg - 1, p.bit_count(), deg - p.bit_count(), n)
                ub += y * sa.marginal_restricted(scn, i, p)
                lb += y * sa.marginal_restricted(scn, i, rest | p)
            return lb, ub

        for seed in range(380, 404):
            scn = random_scenario(seed, n=10, k=1 + seed % 3)
            max_neigh = 3 if seed % 4 == 0 else DEFAULT_MAX_NEIGH
            rep = sa.shapley_bounds(scn, max_neigh=max_neigh)
            for rec in rep.agents:
                i = scn.agent_index[rec.agent]
                assert (rec.lb, rec.ub) == per_subset(scn, i, max_neigh), (seed, i)

    def test_reference_game_bounds_collapse(self, ref_game):
        rep = sa.shapley_bounds(ref_game)
        got = {r.agent: (r.lb, r.ub) for r in rep.agents}
        assert got["a1"] == (2.5, 2.5)
        assert got["a2"] == (2.5, 2.5)
        assert got["a3"] == (1.0, 1.0)
