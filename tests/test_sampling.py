import math

import numpy as np
import pytest

import shapalloc as sa
from shapalloc import _pool, sampling
from shapalloc.matching import Allocation
from shapalloc.sampling import permutation_walk

from conftest import exact_values, random_scenario
from oracles import brute_force_opt, prefix_law_expectation


class TestComputeRanges:
    def test_reference_game_ranges(self, ref_game):
        ranges = sa.compute_ranges(ref_game)
        assert (ranges["a1"].solo, ranges["a1"].grand_marginal, ranges["a1"].width) == (3.0, 2.0, 1.0)
        assert (ranges["a3"].solo, ranges["a3"].grand_marginal, ranges["a3"].width) == (1.0, 1.0, 0.0)

    def test_isolated_agent_has_zero_width(self):
        scn = sa.AllocationScenario(
            ["x", "y"], [("a", 2.0), ("b", 3.0)], {"x": ["a"], "y": ["b"]}, k=1
        )
        ranges = sa.compute_ranges(scn)
        assert ranges["x"].width == 0.0
        assert ranges["y"].width == 0.0

    def test_widths_are_never_negative(self):
        for seed in (401, 402):
            ranges = sa.compute_ranges(random_scenario(seed, n=10))
            assert all(r.width >= 0.0 for r in ranges.values())


class TestSampleBound:
    def test_hand_computed_case(self):
        # ln(2/0.01) * 1 / (2 * 0.1^2) = ln(200)/0.02 = 264.9..
        assert sa.hoeffding_sample_count(1.0, 0.1, 0.01) == 265

    def test_split_failure_probability_case(self):
        # delta_i = 0.01/3 over three agents: ln(600)/0.02 = 319.9
        assert sa.hoeffding_sample_count(1.0, 0.1, 0.01 / 3) == 320

    def test_zero_width_needs_no_samples(self):
        assert sa.hoeffding_sample_count(0.0, 0.1, 0.01) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            sa.hoeffding_sample_count(1.0, 0.0, 0.01)
        with pytest.raises(ValueError):
            sa.hoeffding_sample_count(1.0, 0.1, 0.0)

    def test_scales_with_range_squared(self):
        base = sa.hoeffding_sample_count(1.0, 0.1, 0.01)
        assert sa.hoeffding_sample_count(2.0, 0.1, 0.01) == math.ceil(
            math.log(200.0) * 4.0 / 0.02
        )
        assert sa.hoeffding_sample_count(2.0, 0.1, 0.01) > 3 * base


class TestRangeSampler:
    def test_reference_game_sample_counts_and_exact_zero_width(self, ref_game):
        rep = sa.range_sampler_shapley(
            ref_game, epsilon=0.1, delta=0.01, seed=1
        )
        by = rep.by_agent()
        assert by["a1"].samples == 320
        assert by["a2"].samples == 320
        assert by["a3"].samples == 0
        assert by["a3"].value == 1.0  # constant marginal, no sampling needed

    def test_relative_mode_requires_positive_lower_bounds(self):
        scn = sa.AllocationScenario(
            ["x", "y"], [("g", 1.0)], {"x": ["g"], "y": ["g"]}, k=1
        )
        with pytest.raises(ValueError, match="absolute mode"):
            sa.range_sampler_shapley(scn, epsilon=0.1, delta=0.1, mode="rel")

    def test_relative_mode_with_bound_file_values(self, ref_game):
        lbs = {"a1": 2.5, "a2": 2.5, "a3": 1.0}
        rep = sa.range_sampler_shapley(
            ref_game, epsilon=0.1, delta=0.01, mode="rel", lower_bounds=lbs, seed=2
        )
        by = rep.by_agent()
        assert by["a1"].epsilon == pytest.approx(0.25)
        assert by["a1"].samples == sa.hoeffding_sample_count(1.0, 0.25, 0.01 / 3)

    def test_estimator_law_is_unbiased(self):
        for seed in (410, 411):
            scn = random_scenario(seed, n=7)
            cache = sa.CharacteristicCache()
            exact = exact_values(scn, cache=cache)
            for i in (0, scn.n - 1):
                expect = prefix_law_expectation(
                    scn.n,
                    i,
                    lambda m: sa.marginal_contribution(scn, i, m, cache),
                )
                assert expect == pytest.approx(exact[scn.agents[i]], rel=1e-9, abs=1e-9)

    def test_seeded_determinism_and_worker_invariance(self):
        scn = random_scenario(420, n=9)
        a = sa.range_sampler_shapley(scn, epsilon=0.2, delta=0.05, seed=9, workers=1)
        b = sa.range_sampler_shapley(scn, epsilon=0.2, delta=0.05, seed=9, workers=3)
        assert [r.value for r in a.agents] == [r.value for r in b.agents]
        c = sa.range_sampler_shapley(scn, epsilon=0.2, delta=0.05, seed=10)
        assert [r.value for r in a.agents] != [r.value for r in c.agents]

    def test_estimates_land_near_exact_values(self):
        scn = random_scenario(430, n=8)
        exact = exact_values(scn)
        rep = sa.range_sampler_shapley(scn, epsilon=0.1, delta=0.01, seed=3)
        for rec in rep.agents:
            assert rec.value == pytest.approx(exact[rec.agent], abs=0.1 + 1e-9)

    def test_failure_fraction_within_delta_quick(self):
        scn = random_scenario(440, n=7)
        exact = exact_values(scn)
        eps, delta = 0.15, 0.05
        failures = 0
        trials = 40
        for seed in range(trials):
            rep = sa.range_sampler_shapley(scn, epsilon=eps, delta=delta, seed=seed)
            worst = max(abs(r.value - exact[r.agent]) for r in rep.agents)
            failures += worst > eps
        assert failures / trials <= delta + 0.08  # generous binomial slack

    def test_config_validation(self):
        with pytest.raises(ValueError):
            sa.RangeSamplerConfig(epsilon=-0.1, delta=0.1)
        with pytest.raises(ValueError):
            sa.RangeSamplerConfig(epsilon=0.1, delta=1.5)
        with pytest.raises(ValueError):
            sa.RangeSamplerConfig(epsilon=0.1, delta=0.1, mode="typo")
        # an infinite target would need no samples and report solo values
        for epsilon in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                sa.RangeSamplerConfig(epsilon=epsilon, delta=0.1)


class TestFpras:
    def test_single_agent_component_is_exact(self):
        scn = sa.AllocationScenario(["x"], [("g", 2.0), ("h", 1.0)], {"x": ["g", "h"]}, k=2)
        rep = sa.fpras_shapley(scn, epsilon=0.5, delta=0.5, seed=0)
        assert rep.agents[0].value == 3.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            sa.FprasConfig(epsilon=0.0, delta=0.1)
        with pytest.raises(ValueError):
            sa.FprasConfig(epsilon=0.3, delta=1.0)
        with pytest.raises(ValueError):
            sa.FprasConfig(epsilon=0.3, delta=0.1, runs=0)

    def test_contribution_budget_formula(self):
        cfg = sa.FprasConfig(epsilon=0.3, delta=0.01)
        assert cfg.contributions_per_run(12) == math.ceil(12 * 11 / (0.01 * 0.09))
        assert cfg.permutations_per_run(12) == math.ceil(cfg.contributions_per_run(12) / 12)

    def test_budget_balance_after_scaling(self, ref_game):
        cache = sa.CharacteristicCache()
        rep = sa.fpras_shapley(ref_game, cache, epsilon=0.4, delta=0.1, seed=5)
        grand = sa.char_value(ref_game, ref_game.full_mask, cache)
        assert rep.total() == pytest.approx(grand, rel=1e-12)

    def test_table_and_loop_jobs_agree_exactly(self):
        # the same jobs draw the same permutations in either mode, so the
        # per-agent sums and the shortcut counts must agree
        seed = 7
        jobs = [(run, b, 40) for run in range(2) for b in range(2)]
        for inst in range(12):
            scn = random_scenario(900 + inst, n=3 + inst % 10)
            n = scn.n
            vtab = sampling._worth_table_job(scn, sa.CharacteristicCache(), n)
            neigh = np.asarray(scn.graph.neighbor_masks, dtype=np.int64)
            table_payload = (vtab, neigh, scn.solo_value, n, seed)
            for job in jobs:
                t_run, t_sums, t_hits = sampling._fpras_table_job(table_payload, None, job)
                l_run, l_sums, l_hits = sampling._fpras_loop_job((scn, seed), None, job)
                assert t_run == l_run == job[0]
                scale = max(1.0, float(np.abs(l_sums).max()))
                np.testing.assert_allclose(t_sums, l_sums, rtol=1e-12, atol=1e-12 * scale)
                assert t_hits == l_hits

    def test_seeded_determinism_and_worker_invariance(self, monkeypatch):
        monkeypatch.setattr("shapalloc.sampling.TABLE_LIMIT", 4)
        scn = random_scenario(460, n=12)
        cfg1 = sa.FprasConfig(epsilon=0.6, delta=0.3, seed=21, workers=1)
        cfg3 = sa.FprasConfig(epsilon=0.6, delta=0.3, seed=21, workers=3)
        a = sa.fpras_shapley(scn, cfg=cfg1)
        b = sa.fpras_shapley(scn, cfg=cfg3)
        assert a.meta["mode"] == "loop"
        assert [r.value for r in a.agents] == [r.value for r in b.agents]

    def test_estimates_track_exact_values(self, ref_game):
        exact = {"a1": 2.5, "a2": 2.5, "a3": 1.0}
        rep = sa.fpras_shapley(ref_game, epsilon=0.3, delta=0.01, seed=17)
        for rec in rep.agents:
            assert rec.value == pytest.approx(exact[rec.agent], rel=0.3)

    def test_median_of_runs_recorded(self):
        scn = random_scenario(470, n=6)
        rep = sa.fpras_shapley(scn, epsilon=0.5, delta=0.2, runs=5, seed=2)
        assert rep.meta["runs"] == 5
        assert rep.meta["contributions_per_run"] >= rep.meta["contributions_target_per_run"]

    def test_matchings_counted_in_meta(self):
        scn = random_scenario(471, n=9)
        rep = sa.fpras_shapley(scn, epsilon=0.5, delta=0.2, seed=1)
        assert rep.meta["matchings"] > 0
        est = sa.range_sampler_shapley(scn, epsilon=0.2, delta=0.1, seed=1)
        assert est.meta["matchings"] >= 0
        assert est.meta["total_samples"] == sum(r.samples for r in est.agents)

    def test_empty_scenario(self):
        scn = sa.AllocationScenario([], [], {}, k=1)
        rep = sa.fpras_shapley(scn, epsilon=0.3, delta=0.1)
        assert rep.agents == []


def test_permutation_walk_carries_the_prefix_optimum():
    # goods valued in quarters, so ties are common and a prefix has several
    # optimal allocations
    rng = np.random.default_rng(3)
    for seed in range(200):
        n, k = 5 + seed % 4, 1 + seed % 3
        scn = sa.generate(agents=n, goods_per_agent=1.4, coauthor_prob=0.5,
                          value_set=(0.0, 0.25, 0.5, 0.75, 1.0), k=k, seed=600 + seed)
        optimum = {}
        for _ in range(2):
            perm = rng.permutation(n).tolist()
            holder, held = {}, {}
            prefix = 0
            for j, contrib, alone in permutation_walk(scn, perm, holder, held):
                want = sa.char_value(scn, prefix | 1 << j) - sa.char_value(scn, prefix)
                assert contrib == pytest.approx(want, rel=1e-12, abs=1e-12), (seed, prefix, j)
                assert alone == (scn.graph.neighbor_masks[j] & prefix == 0)
                prefix |= 1 << j
                assert holder == {g: a for a, goods in held.items() for g in goods}
                alloc = Allocation({scn.agents[a]: frozenset(scn.good_ids[g] for g in goods)
                                    for a, goods in held.items()})
                alloc.validate(scn, prefix)
                if prefix not in optimum:
                    optimum[prefix] = (brute_force_opt(scn, prefix) if n <= 7
                                       else sa.optimal_value_only(scn, prefix))
                assert alloc.value(scn) == pytest.approx(optimum[prefix], rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("solver", ["range", "fpras", "exact", "bounds"])
def test_cache_stats_count_each_sampling_lookup_once(monkeypatch, solver):
    scn = random_scenario(480, n=10)
    # several exact jobs, so that two workers share them out
    monkeypatch.setattr("shapalloc.exact.JOB_BITS", 8)
    # and several sampling jobs
    monkeypatch.setattr("shapalloc.sampling.BATCH", 16 if solver == "range" else 8)

    def run(workers, cache=None):
        if solver == "exact":
            return sa.exact_shapley(scn, cache, workers=workers)
        if solver == "bounds":
            return sa.shapley_bounds(scn, cache, workers=workers)
        if solver == "range":
            cfg = sa.RangeSamplerConfig(epsilon=0.3, delta=0.1, seed=4, workers=workers)
            return sa.range_sampler_shapley(scn, cache, cfg=cfg)
        # table mode: the loop walk carries its allocation and looks nothing up
        cfg = sa.FprasConfig(epsilon=0.4, delta=0.3, seed=4, workers=workers)
        return sa.fpras_shapley(scn, cache, cfg=cfg)

    if solver in ("range", "bounds"):
        # marginals come from greedies and add/remove searches, with no
        # lookup, and the jobs run the same searches at any worker count
        metas = [run(workers, sa.CharacteristicCache()).meta for workers in (1, 2)]
        for meta in metas:
            assert meta["cache"] == {"hits": 0, "misses": 0}
            assert meta["matchings"] > 0
            assert meta["searches"] > 0
        assert metas[0]["searches"] == metas[1]["searches"]
        return
    two = run(2).meta["cache"]
    # lookups the passed cache sees while the sampling jobs run
    cache = sa.CharacteristicCache()
    seen = []
    run_jobs = _pool.run_jobs

    def spy(fn, jobs, payload, job_cache, workers=1):
        before = cache.hits + cache.misses
        out = run_jobs(fn, jobs, payload, job_cache, workers=workers)
        seen.append(cache.hits + cache.misses - before)
        return out

    monkeypatch.setattr(_pool, "run_jobs", spy)
    one = run(1, cache).meta["cache"]
    lookups = one["hits"] + one["misses"]
    assert seen[0] > 0
    # the permutation sampler builds its worth table, then walks it
    assert seen == ([lookups, 0] if solver == "fpras" else [lookups])
    assert lookups == two["hits"] + two["misses"]
    if solver == "fpras":
        monkeypatch.setattr("shapalloc.sampling.TABLE_LIMIT", 4)
        cfg = sa.FprasConfig(epsilon=0.6, delta=0.3, seed=4)
        loop = sa.fpras_shapley(scn, sa.CharacteristicCache(), cfg=cfg).meta
        assert loop["mode"] == "loop"
        assert loop["cache"] == {"hits": 0, "misses": 0}
        assert loop["matchings"] == 0


def test_cfg_and_keyword_options_together_rejected(ref_game):
    fpras_cfg = sa.FprasConfig(epsilon=0.5, delta=0.1, seed=1)
    with pytest.raises(TypeError, match="not both"):
        sa.fpras_shapley(ref_game, cfg=fpras_cfg, seed=99, runs=7)
    range_cfg = sa.RangeSamplerConfig(epsilon=0.5, delta=0.1)
    with pytest.raises(TypeError, match="not both"):
        sa.range_sampler_shapley(ref_game, cfg=range_cfg, mode="rel")
