import math

import numpy as np
import pytest

import shapalloc as sa
from shapalloc import exact, matching, sampling

from conftest import char_value_marginal, exact_values, random_scenario
from oracles import (
    allocation_value,
    brute_force_opt,
    permutation_walk,
    prefix_law_expectation,
    validate_allocation,
)


class TestRanges:
    """Each agent's width opt({i}) - marg(i, N), as ``meta["ranges"]``."""

    @staticmethod
    def widths(scn):
        cfg = sa.RangeSamplerConfig(epsilon=1.0, delta=0.5, seed=1)
        return sa.range_sampler_shapley(scn, cfg=cfg).meta["ranges"]

    def test_reference_game_ranges(self, ref_game):
        assert ref_game.solo_value.tolist() == [3.0, 3.0, 1.0]
        assert matching.removal_marginals(ref_game, ref_game.full_mask) == {0: 2.0, 1: 2.0, 2: 1.0}
        assert self.widths(ref_game) == {"a1": 1.0, "a2": 1.0, "a3": 0.0}

    def test_isolated_agent_has_zero_width(self):
        scn = sa.AllocationScenario(
            ["x", "y"], [("a", 2.0), ("b", 3.0)], {"x": ["a"], "y": ["b"]}, k=1
        )
        assert self.widths(scn) == {"x": 0.0, "y": 0.0}

    def test_widths_are_never_negative(self):
        for seed in (401, 402):
            widths = self.widths(random_scenario(seed, n=10))
            assert len(widths) == 10
            assert all(w >= 0.0 for w in widths.values())


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

    @pytest.mark.parametrize("epsilon", [math.nan, 1e-170, 1e-160])
    def test_epsilon_without_a_finite_budget_rejected(self, epsilon):
        # 1e-170 squared underflows to 0 and 1e-160's budget overflows
        with pytest.raises(ValueError, match="epsilon"):
            sa.hoeffding_sample_count(1.0, epsilon, 0.01)

    def test_scales_with_range_squared(self):
        base = sa.hoeffding_sample_count(1.0, 0.1, 0.01)
        assert sa.hoeffding_sample_count(2.0, 0.1, 0.01) == math.ceil(
            math.log(200.0) * 4.0 / 0.02
        )
        assert sa.hoeffding_sample_count(2.0, 0.1, 0.01) > 3 * base


class TestRangeSampler:
    def test_reference_game_sample_counts_and_exact_zero_width(self, ref_game):
        cfg = sa.RangeSamplerConfig(epsilon=0.1, delta=0.01, seed=1)
        rep = sa.range_sampler_shapley(ref_game, cfg=cfg)
        by = rep.by_agent()
        assert by["a1"].samples == 320
        assert by["a2"].samples == 320
        assert by["a3"].samples == 0
        assert by["a3"].value == 1.0  # constant marginal, no sampling needed

    def test_relative_mode_requires_positive_lower_bounds(self):
        scn = sa.AllocationScenario(
            ["x", "y"], [("g", 1.0)], {"x": ["g"], "y": ["g"]}, k=1
        )
        cfg = sa.RangeSamplerConfig(epsilon=0.1, delta=0.1, mode="rel")
        with pytest.raises(ValueError, match="absolute mode"):
            sa.range_sampler_shapley(scn, cfg=cfg)

    def test_relative_mode_with_bound_file_values(self, ref_game):
        lbs = {"a1": 2.5, "a2": 2.5, "a3": 1.0}
        cfg = sa.RangeSamplerConfig(epsilon=0.1, delta=0.01, mode="rel", lower_bounds=lbs, seed=2)
        rep = sa.range_sampler_shapley(ref_game, cfg=cfg)
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
                    lambda m: char_value_marginal(scn, i, m),
                )
                assert expect == pytest.approx(exact[scn.agents[i]], rel=1e-9, abs=1e-9)

    def test_seeded_determinism_and_worker_invariance(self):
        scn = random_scenario(420, n=9)
        a, b, c = (
            sa.range_sampler_shapley(scn, cfg=sa.RangeSamplerConfig(
                epsilon=0.2, delta=0.05, seed=seed, workers=workers))
            for seed, workers in ((9, 1), (9, 3), (10, 1))
        )
        assert [r.value for r in a.agents] == [r.value for r in b.agents]
        assert [r.value for r in a.agents] != [r.value for r in c.agents]

    def test_estimates_land_near_exact_values(self):
        scn = random_scenario(430, n=8)
        exact = exact_values(scn)
        cfg = sa.RangeSamplerConfig(epsilon=0.1, delta=0.01, seed=3)
        rep = sa.range_sampler_shapley(scn, cfg=cfg)
        for rec in rep.agents:
            assert rec.value == pytest.approx(exact[rec.agent], abs=0.1 + 1e-9)

    def test_failure_fraction_within_delta_quick(self):
        scn = random_scenario(440, n=7)
        exact = exact_values(scn)
        eps, delta = 0.15, 0.05
        failures = 0
        trials = 40
        for seed in range(trials):
            cfg = sa.RangeSamplerConfig(epsilon=eps, delta=delta, seed=seed)
            rep = sa.range_sampler_shapley(scn, cfg=cfg)
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

    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("seed", 1.5), ("seed", True), ("workers", 1.5), ("workers", 0),
    ])
    def test_seed_and_workers_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=field):
            sa.RangeSamplerConfig(epsilon=0.1, delta=0.1, **{field: value})


class TestFpras:
    def test_single_agent_component_is_exact(self):
        scn = sa.AllocationScenario(["x"], [("g", 2.0), ("h", 1.0)], {"x": ["g", "h"]}, k=2)
        rep = sa.fpras_shapley(scn, cfg=sa.FprasConfig(epsilon=0.5, delta=0.5, seed=0))
        assert rep.agents[0].value == 3.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            sa.FprasConfig(epsilon=0.0, delta=0.1)
        with pytest.raises(ValueError):
            sa.FprasConfig(epsilon=0.3, delta=1.0)
        with pytest.raises(ValueError):
            sa.FprasConfig(epsilon=0.3, delta=0.1, runs=0)

    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("seed", 2.0), ("runs", 2.5), ("runs", 0), ("workers", 1.5),
    ])
    def test_seed_runs_and_workers_must_be_integers(self, field, value):
        # checked at the boundary, not by numpy or the job loop mid-run
        with pytest.raises(ValueError, match=field):
            sa.FprasConfig(epsilon=0.3, delta=0.1, **{field: value})

    def test_median_of_runs_equals_numpy_median(self):
        rng = np.random.default_rng(12)
        for runs in range(1, 7):
            for _ in range(20):
                # ties and repeated rows too
                estimates = rng.choice([0.1, 0.3, 1 / 3, 0.7, rng.random()], size=(runs, 9))
                got = sampling._run_median(estimates)
                want = np.median(estimates, axis=0)
                assert [x.hex() for x in got] == [x.hex() for x in want], runs

    @pytest.mark.parametrize("epsilon", [1e-170, 1e-160])
    def test_epsilon_without_a_finite_budget_rejected(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            sa.FprasConfig(epsilon=epsilon, delta=0.1)

    def test_budget_too_large_for_a_component_rejected(self):
        # finite for two agents, not for a million
        cfg = sa.FprasConfig(epsilon=1e-150, delta=0.5)
        assert cfg.contributions_per_run(2) == math.ceil(2 / (0.5 * 1e-150**2))
        with pytest.raises(ValueError, match="epsilon"):
            cfg.contributions_per_run(10**6)

    def test_contribution_budget_formula(self):
        cfg = sa.FprasConfig(epsilon=0.3, delta=0.01)
        assert cfg.contributions_per_run(12) == math.ceil(12 * 11 / (0.01 * 0.09))
        assert cfg.permutations_per_run(12) == math.ceil(cfg.contributions_per_run(12) / 12)

    def test_budget_balance_after_scaling(self, ref_game):
        cache = sa.CharacteristicCache()
        rep = sa.fpras_shapley(ref_game, cache, cfg=sa.FprasConfig(epsilon=0.4, delta=0.1, seed=5))
        grand = sa.char_value(ref_game, ref_game.full_mask)
        assert rep.total() == pytest.approx(grand, rel=1e-12)

    def test_table_and_loop_jobs_agree_exactly(self):
        # the same jobs draw the same permutations in either mode, so the
        # per-agent sums and the shortcut counts must agree
        seed = 7
        jobs = [(run, b, 40) for run in range(2) for b in range(2)]
        for inst in range(12):
            scn = random_scenario(900 + inst, n=3 + inst % 10)
            n = scn.n
            vtab = exact.worths(scn)
            neigh = np.asarray(scn.graph.neighbor_masks, dtype=np.int64)
            table_payload = (vtab, neigh, scn.solo_value, n, seed)
            # every agent is owed every walk of these jobs
            margs = matching.removal_marginals(scn, scn.full_mask)
            walk_payload = (scn, seed, 0, [2 * sampling.BATCH] * n, [margs[i] for i in range(n)])
            for job in jobs:
                t_run, t_sums, t_hits, _ = sampling._fpras_table_job(table_payload, job)
                l_run, l_sums, l_hits, _ = sampling._walk_job(walk_payload, job)
                assert t_run == l_run == job[0]
                scale = max(1.0, float(np.abs(l_sums).max()))
                np.testing.assert_allclose(t_sums, l_sums, rtol=1e-12, atol=1e-12 * scale)
                assert t_hits == l_hits

    def test_table_and_loop_reports_carry_no_cache(self, monkeypatch):
        scn = random_scenario(480, n=10)
        neigh = scn.graph.neighbor_masks
        # the table values each component of more than one agent once
        comps = {
            c for m in range(1 << scn.n) for c in sa.connected_components(m, neigh) if c & (c - 1)
        }
        cfg = sa.FprasConfig(epsilon=0.4, delta=0.3, seed=4)
        # the loop walk's one greedy gives the grand marginals, and
        # char_value's greedies the grand value
        loop = 1 + sum(1 for c in scn.graph.components() if c & (c - 1))
        for limit, mode, matchings in ((sampling.TABLE_LIMIT, "table", len(comps)), (4, "loop", loop)):
            monkeypatch.setattr("shapalloc.sampling.TABLE_LIMIT", limit)
            cache = sa.CharacteristicCache()
            meta = sa.fpras_shapley(scn, cache, cfg=cfg).meta
            assert (meta["mode"], meta["matchings"]) == (mode, matchings)
            assert (len(cache), cache.hits, cache.misses) == (0, 0, 0)
            assert "cache" not in meta

    def test_matchings_count_every_greedy_run(self, monkeypatch):
        # meta["matchings"] is every greedy the sampler runs, the grand
        # value's included, in either mode
        scn = random_scenario(480, n=10)
        cfg = sa.FprasConfig(epsilon=0.4, delta=0.3, seed=4)
        for limit, mode in ((sampling.TABLE_LIMIT, "table"), (4, "loop")):
            monkeypatch.setattr("shapalloc.sampling.TABLE_LIMIT", limit)
            m0 = matching.solve_calls()
            meta = sa.fpras_shapley(scn, cfg=cfg).meta
            assert meta["mode"] == mode
            assert meta["matchings"] == matching.solve_calls() - m0 > 0
            assert meta["grand_value"] == sa.char_value(scn, scn.full_mask)

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
        rep = sa.fpras_shapley(ref_game, cfg=sa.FprasConfig(epsilon=0.3, delta=0.01, seed=17))
        for rec in rep.agents:
            assert rec.value == pytest.approx(exact[rec.agent], rel=0.3)

    def test_median_of_runs_recorded(self):
        scn = random_scenario(470, n=6)
        rep = sa.fpras_shapley(scn, cfg=sa.FprasConfig(epsilon=0.5, delta=0.2, runs=5, seed=2))
        assert rep.meta["runs"] == 5
        assert rep.meta["contributions_per_run"] >= rep.meta["contributions_target_per_run"]

    def test_matchings_counted_in_meta(self):
        scn = random_scenario(471, n=9)
        rep = sa.fpras_shapley(scn, cfg=sa.FprasConfig(epsilon=0.5, delta=0.2, seed=1))
        assert rep.meta["matchings"] > 0
        cfg = sa.RangeSamplerConfig(epsilon=0.2, delta=0.1, seed=1)
        est = sa.range_sampler_shapley(scn, cfg=cfg)
        assert est.meta["matchings"] >= 0
        assert est.meta["total_samples"] == sum(r.samples for r in est.agents)

    def test_empty_scenario(self):
        scn = sa.AllocationScenario([], [], {}, k=1)
        rep = sa.fpras_shapley(scn, cfg=sa.FprasConfig(epsilon=0.3, delta=0.1))
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
            holder, held = matching.empty_allocation(scn)
            prefix = 0
            walk = permutation_walk(scn, perm, holder, held, add=matching.add_agent)
            for j, contrib, alone in walk:
                want = sa.char_value(scn, prefix | 1 << j) - sa.char_value(scn, prefix)
                assert contrib == pytest.approx(want, rel=1e-12, abs=1e-12), (seed, prefix, j)
                assert alone == (scn.graph.neighbor_masks[j] & prefix == 0)
                prefix |= 1 << j
                members = [a for a, goods in enumerate(held) if goods is not None]
                assert members == sorted(sa.iter_bits(prefix))
                assert {g: a for g, a in enumerate(holder) if a >= 0} == {
                    g: a for a in members for g in held[a]}
                alloc = {scn.agents[a]: frozenset(scn.good_ids[g] for g in held[a])
                         for a in members}
                validate_allocation(scn, alloc, prefix)
                if prefix not in optimum:
                    optimum[prefix] = (brute_force_opt(scn, prefix) if n <= 7
                                       else sa.optimal_value_only(scn, prefix))
                assert allocation_value(scn, alloc) == pytest.approx(optimum[prefix], rel=1e-12, abs=1e-12)


def _job_walks(seed, stream, key, walks, n):
    """``(t, permutation)`` for each of a key's walks, as the jobs draw them."""
    for b, start in enumerate(range(0, walks, sampling.BATCH)):
        job_rng = sampling._job_rng(seed, stream, key, b)
        for t in range(start, min(start + sampling.BATCH, walks)):
            yield t, job_rng.permutation(n).tolist()


def test_range_walks_match_restricted_marginals(monkeypatch):
    rng = np.random.default_rng(5)
    for inst in range(24):
        n, k, seed = 6 + inst % 5, 1 + inst % 3, 30 + inst
        scn = sa.generate(agents=n, goods_per_agent=1.4, coauthor_prob=0.5,
                          value_set=(0.0, 0.25, 0.5, 0.75, 1.0), k=k, seed=700 + inst)
        # uneven budgets, some of them zero
        caps = [int(c) for c in rng.integers(0, 30, size=n)]
        caps[inst % n] = 0
        walks = max(caps)
        margs = matching.removal_marginals(scn, scn.full_mask)
        payload = (scn, seed, 1, caps, [margs[i] for i in range(n)])

        # one walk per job: each job's sums are the walk's counted
        # contributions, and its steps end at the last agent still owed one
        monkeypatch.setattr("shapalloc.sampling.BATCH", 1)
        counted = [0] * n
        for t, perm in _job_walks(seed, 1, 0, walks, n):
            _, sums, _, steps = sampling._walk_job(payload, (0, t, 1))
            owed = [pos for pos, j in enumerate(perm) if caps[j] > t]
            assert steps == owed[-1] + 1, (inst, t)
            prefix = 0
            for j in perm:
                if caps[j] > t:
                    restricted = sa.marginal_restricted(scn, j, prefix)
                    assert sums[j].hex() == restricted.hex(), (inst, t, j)
                    counted[j] += 1
                else:
                    assert sums[j] == 0.0
                prefix |= 1 << j
        assert counted == caps

        # several jobs per run of walks, so walk t = batch * BATCH + s is
        # exercised, and the sums add up in walk order
        monkeypatch.setattr("shapalloc.sampling.BATCH", 7)
        sums, _, walk_steps, _ = sampling._run_batched(
            sampling._walk_job, [(0, walks)], payload, 1
        )
        want = [0.0] * n
        steps = 0
        for t, perm in _job_walks(seed, 1, 0, walks, n):
            steps += max(pos for pos, j in enumerate(perm) if caps[j] > t) + 1
            prefix = 0
            for j in perm:
                if caps[j] > t:
                    want[j] += sa.marginal_restricted(scn, j, prefix)
                prefix |= 1 << j
        assert walk_steps == steps
        assert [x.hex() for x in sums[0]] == [x.hex() for x in want]

    rep = sa.range_sampler_shapley(scn, cfg=sa.RangeSamplerConfig(epsilon=0.2, delta=0.1, seed=3))
    caps = [r.samples for r in rep.agents]
    assert rep.meta["walks"] == max(caps)
    steps = sum(max(pos for pos, j in enumerate(perm) if caps[j] > t) + 1
                for t, perm in _job_walks(3, 1, 0, max(caps), scn.n))
    assert rep.meta["walk_steps"] == steps
    assert rep.meta["total_samples"] <= rep.meta["walk_steps"]


def test_walk_credits_the_last_agent_its_grand_marginal():
    # only the permutation's last agent is owed a contribution, so the walk
    # runs to the end and the sums hold that one contribution
    last_kinds = set()
    free_solo_steps = 0
    for inst in range(40):
        n = 5 + inst % 6
        scn = sa.generate(agents=n, goods_per_agent=1.4, coauthor_prob=0.4,
                          value_set=(0.1, 0.4, 0.7, 1.0), k=1 + inst % 3, seed=960 + inst)
        neigh = scn.graph.neighbor_masks
        margs = matching.removal_marginals(scn, scn.full_mask)
        perm = sampling._job_rng(inst, 0, 0, 0).permutation(n).tolist()
        last = perm[-1]
        caps = [0] * n
        caps[last] = 1
        payload = (scn, inst, 0, caps, [margs[i] for i in range(n)])
        s0 = matching.search_calls()
        _, sums, hits, steps = sampling._walk_job(payload, (0, 0, 1))
        searches = matching.search_calls() - s0
        connected = []
        prefix = 0
        # the steps before the last that find a solo good held, on the
        # kernel's own carried allocation
        held_solo = 0
        holder, held = matching.empty_allocation(scn)
        for j in perm:
            connected.append(neigh[j] & prefix != 0)
            prefix |= 1 << j
            if j != last:
                held_solo += any(holder[g] >= 0 for g in scn.solo_goods(j))
                matching.add_agent(scn, holder, held, j)
        assert steps == n
        want = sa.marginal_restricted(scn, last, scn.full_mask & ~(1 << last))
        assert sums[last].hex() == margs[last].hex() == want.hex(), inst
        assert all(sums[j] == 0.0 for j in perm[:-1])
        # one search per step but the last that finds a solo good held, a hit
        # per step without an earlier neighbor
        assert searches == held_solo
        assert held_solo <= sum(connected[:-1])
        assert hits == n - sum(connected)
        last_kinds.add(connected[-1])
        free_solo_steps += sum(connected[:-1]) - held_solo
    # some last agents have a neighbor and some have none
    assert last_kinds == {False, True}
    # and some connected steps find their solo goods free
    assert free_solo_steps > 0


def test_loop_walks_rebuild_the_permutation_sampler(monkeypatch):
    # several jobs per run, and the loop walk even on small components
    monkeypatch.setattr("shapalloc.sampling.BATCH", 7)
    monkeypatch.setattr("shapalloc.sampling.TABLE_LIMIT", 0)
    for inst in range(12):
        n, k, seed = 4 + inst % 5, 1 + inst % 3, 50 + inst
        # values in quarters: every sum is exact, so hex equality is fair
        scn = sa.generate(agents=n, goods_per_agent=1.4, coauthor_prob=0.5,
                          value_set=(0.25, 0.5, 0.75, 1.0), k=k, seed=800 + inst)
        cfg = sa.FprasConfig(epsilon=0.9, delta=0.9, runs=3, seed=seed)
        rep = sa.fpras_shapley(scn, cfg=cfg)
        assert rep.meta["mode"] == "loop"
        walks = cfg.permutations_per_run(n)
        run_sums = np.zeros((cfg.runs, n))
        hits = 0
        for run in range(cfg.runs):
            for b, start in enumerate(range(0, walks, sampling.BATCH)):
                job_rng = sampling._job_rng(seed, 0, run, b)
                for _ in range(min(sampling.BATCH, walks - start)):
                    perm = job_rng.permutation(n).tolist()
                    for j, contrib, alone in permutation_walk(scn, perm, {}, {}):
                        run_sums[run, j] += contrib
                        hits += alone
        medians = np.median(run_sums / walks, axis=0)
        values = medians * (sa.char_value(scn, scn.full_mask) / float(medians.sum()))
        assert rep.meta["shortcut_hits"] == hits
        assert [r.value.hex() for r in rep.agents] == [float(v).hex() for v in values], inst


@pytest.mark.parametrize("solver", ["range", "exact", "bounds"])
def test_cache_stats_count_each_sampling_lookup_once(monkeypatch, solver):
    scn = random_scenario(480, n=10)
    # several exact jobs, so that two workers share them out
    monkeypatch.setattr("shapalloc.exact.JOB_BITS", 8)
    # and several sampling jobs
    monkeypatch.setattr("shapalloc.sampling.BATCH", 16)

    def run(workers, cache):
        if solver == "exact":
            return sa.exact_shapley(scn, cache, workers=workers)
        if solver == "bounds":
            return sa.shapley_bounds(scn, cache, workers=workers)
        cfg = sa.RangeSamplerConfig(epsilon=0.3, delta=0.1, seed=4, workers=workers)
        return sa.range_sampler_shapley(scn, cache, cfg=cfg)

    if solver == "exact":
        # worths come from component greedies, with no lookup and no search,
        # and the values are the same at any worker count
        reports = []
        for workers in (1, 2):
            cache = sa.CharacteristicCache()
            reports.append(run(workers, cache))
            assert (len(cache), cache.hits, cache.misses) == (0, 0, 0)
        for rep in reports:
            assert "cache" not in rep.meta
            assert rep.meta["matchings"] > 0
            assert rep.meta["searches"] == 0
        one, two = ([r.value.hex() for r in rep.agents] for rep in reports)
        assert one == two
        return
    # marginals come from greedies and add/remove searches, with no
    # lookup, and the jobs run the same searches at any worker count
    metas = []
    for workers in (1, 2):
        cache = sa.CharacteristicCache()
        metas.append(run(workers, cache).meta)
        assert (len(cache), cache.hits, cache.misses) == (0, 0, 0)
    for meta in metas:
        assert "cache" not in meta
        assert meta["matchings"] > 0
        assert meta["searches"] > 0
    assert metas[0]["searches"] == metas[1]["searches"]
