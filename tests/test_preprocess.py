import pytest

import shapalloc as sa
from shapalloc import matching

from conftest import char_value_marginal, exact_values, random_scenario
from oracles import separability_passes, useless_pairs
from test_acceptance import FUNNEL


def shapley_map(scn, cache=None):
    return exact_values(scn, cache=cache)


def per_component_pruning(scn):
    """Pruned pairs and component agent sets of pruning one component at a
    time: split the remainder, prune each component, re-split what changed."""
    _, s = sa.drop_empty_agents(scn)
    _, s = sa.separate_singletons(sa.strip_null_goods(s))
    pairs: set[tuple[str, str]] = set()
    comps = []
    for comp in sa.split_components(s) if s.n else []:
        comp2, pruned = sa.prune_useless_goods(comp)
        pairs.update(pruned)
        comps.extend(sa.split_components(comp2) if pruned else [comp2])
    return pairs, {frozenset(c.agents) for c in comps}


class TestStripNullGoods:
    def test_shared_zero_good_only_leaves_edgeless_graph(self):
        scn = sa.AllocationScenario(
            ["r1", "r2", "r3"],
            [("g0", 0.0), ("p1", 1.0), ("p2", 2.0), ("p3", 3.0)],
            {
                "r1": ["g0", "p1"],
                "r2": ["g0", "p2"],
                "r3": ["g0", "p3"],
            },
            k=1,
        )
        stripped = sa.strip_null_goods(scn)
        assert "g0" not in stripped.good_ids
        assert stripped.graph.neighbor_lists == ((), (), ())
        assert all(len(row) == 1 for row in stripped.interest)

    def test_identity_without_zero_goods(self, ref_game):
        nonzero = sa.AllocationScenario(
            ["x"], [("g", 1.0)], {"x": ["g"]}, k=1
        )
        assert sa.strip_null_goods(nonzero) is nonzero

    def test_game_unchanged(self):
        scn = random_scenario(101, n=8)
        stripped = sa.strip_null_goods(scn)
        before = shapley_map(scn)
        after = shapley_map(stripped)
        for a in scn.agents:
            assert after[a] == pytest.approx(before[a], rel=1e-9, abs=1e-12)

    def test_zero_good_split_direction(self):
        # replacing one shared zero-value good by per-agent private zero goods
        # leaves every coalition worth unchanged
        scn = sa.AllocationScenario(
            ["x", "y", "z"],
            [("g0", 0.0), ("a", 2.0), ("b", 1.0)],
            {"x": ["g0", "a"], "y": ["g0", "a", "b"], "z": ["g0", "b"]},
            k=2,
        )
        replaced = sa.AllocationScenario(
            ["x", "y", "z"],
            [("gx", 0.0), ("gy", 0.0), ("gz", 0.0), ("a", 2.0), ("b", 1.0)],
            {"x": ["gx", "a"], "y": ["gy", "a", "b"], "z": ["gz", "b"]},
            k=2,
        )
        for m in range(1 << 3):
            assert sa.char_value(scn, m) == sa.char_value(replaced, m)


class TestSplitComponents:
    def test_edgeless_graph_splits_into_singletons(self):
        scn = sa.AllocationScenario(
            ["x", "y", "z"],
            [("a", 1.0), ("b", 2.0), ("c", 3.0)],
            {"x": ["a"], "y": ["b"], "z": ["c"]},
            k=1,
        )
        parts = sa.split_components(scn)
        assert [p.agents for p in parts] == [("x",), ("y",), ("z",)]

    def test_reference_game_is_one_component(self, ref_game):
        parts = sa.split_components(sa.strip_null_goods(ref_game))
        assert len(parts) == 1
        assert parts[0].agents == ("a1", "a2", "a3")

    def test_component_goods_are_member_interest_union(self):
        scn = random_scenario(110, n=10)
        for part in sa.split_components(sa.strip_null_goods(scn)):
            used = set()
            for i in range(part.n):
                used.update(part.interest[i])
            assert used == set(range(len(part.good_ids)))

    def test_per_component_shapley_equals_whole_game(self):
        scn = sa.strip_null_goods(random_scenario(111, n=10))
        whole = shapley_map(scn)
        pieces = {}
        for part in sa.split_components(scn):
            pieces.update(shapley_map(part))
        assert set(pieces) == set(whole)
        for a in whole:
            assert pieces[a] == pytest.approx(whole[a], rel=1e-9, abs=1e-12)


class TestSeparateSingletons:
    def test_isolated_agent_resolved_at_solo_value(self):
        scn = sa.AllocationScenario(
            ["x", "y", "z"],
            [("a", 2.0), ("b", 1.0), ("c", 5.0)],
            {"x": ["a", "b"], "y": ["a", "b"], "z": ["c"]},
            k=1,
        )
        resolved, remainder = sa.separate_singletons(scn)
        assert resolved["z"] == 5.0
        assert "z" not in remainder.agents

    def test_competing_agents_with_private_goods_not_resolved(self):
        # both agents hold a private good and fight over a shared one (k=2):
        # solo optimum 2 but grand marginal only 1, so neither separates
        scn = sa.AllocationScenario(
            ["x", "y"],
            [("s", 1.0), ("px", 1.0), ("py", 1.0)],
            {"x": ["s", "px"], "y": ["s", "py"]},
            k=2,
        )
        resolved, remainder = sa.separate_singletons(scn)
        assert resolved == {}
        assert remainder.agents == ("x", "y")

    def test_resolved_agents_match_exact_shapley(self):
        for seed in (120, 121, 122):
            scn = sa.strip_null_goods(random_scenario(seed, n=8))
            exact = shapley_map(scn)
            resolved, _ = sa.separate_singletons(scn)
            for a, v in resolved.items():
                assert v == pytest.approx(exact[a], rel=1e-9, abs=1e-12)

    def test_resolved_agent_marginal_is_constant(self):
        scn = sa.strip_null_goods(random_scenario(123, n=8))
        resolved, _ = sa.separate_singletons(scn)
        for a in resolved:
            i = scn.agent_index[a]
            others = scn.full_mask & ~(1 << i)
            m = 0
            while True:
                marg = char_value_marginal(scn, i, m)
                assert marg == pytest.approx(scn.solo_value[i], rel=1e-9, abs=1e-9)
                if m == others:
                    break
                m = (m - others) & others

    @pytest.mark.parametrize("k", [1, 2])
    def test_one_pass_resolves_the_whole_fixpoint(self, k):
        # removing a synergy-free agent moves no other marginal, so the
        # fixpoint's first pass is all there is to find
        for seed in range(20):
            scn = random_scenario(170 + seed, n=3 + seed % 6, k=k)
            passes = separability_passes(scn)
            resolved, remainder = sa.separate_singletons(scn)
            assert set(resolved) == passes[0]
            assert all(not p for p in passes[1:])
            assert set(remainder.agents) == set(scn.agents) - passes[0]

    def test_near_tie_stays_for_its_solver(self):
        # x2 passes within the tolerance; only without x2 does x1 pass too,
        # so x1 is left to the exact solver, which gives it its solo value
        scn = sa.AllocationScenario(
            ["x0", "x1", "x2"],
            [("g0", 0.9999999994), ("g1", 0.9999999982), ("g2", 0.9999999982),
             ("g3", 0.9999999994), ("g4", 0.9999999988), ("g5", 0.9999999982)],
            {"x0": ["g2", "g5"], "x1": ["g3"], "x2": ["g0", "g1", "g3"]},
            k=2,
        )
        passes = separability_passes(scn)
        assert passes[:2] == [{"x0", "x2"}, {"x1"}]
        resolved, remainder = sa.separate_singletons(scn)
        assert set(resolved) == passes[0]
        assert remainder.agents == ("x1",)
        rec = sa.solve(scn, threads=1).by_agent()["x1"]
        assert rec.method == "exact"
        assert rec.value.hex() == "0x1.fffffffad8960p-1"

    def test_one_greedy_for_the_whole_scenario(self):
        scn = sa.generate(agents=40, coauthor_prob=0.3, k=2, seed=7, max_claimers=3)
        assert len(scn.graph.components()) > 3
        before = matching.solve_calls()
        sa.separate_singletons(scn)
        assert matching.solve_calls() - before == 1


class TestPruneUselessGoods:
    def test_weak_good_pruned_with_capacity_one(self):
        # x is guaranteed more from the contested strong good than its weak
        # alternative could ever deliver, so the weak good is noise for x
        scn = sa.AllocationScenario(
            ["x", "y"],
            [("strong", 5.0), ("weak", 1.0), ("other", 5.0)],
            {"x": ["strong", "weak"], "y": ["strong", "other"]},
            k=1,
        )
        pruned_scn, pairs = sa.prune_useless_goods(scn)
        assert ("x", "weak") in pairs
        row = pruned_scn.interest[pruned_scn.agent_index["x"]]
        assert [pruned_scn.good_ids[j] for j in row] == ["strong"]

    def test_zero_marginal_prunes_nothing(self):
        scn = sa.AllocationScenario(
            ["x", "y"],
            [("g", 3.0)],
            {"x": ["g"], "y": ["g"]},
            k=1,
        )
        _, pairs = sa.prune_useless_goods(scn)
        assert pairs == []

    def test_game_unchanged_after_pruning(self):
        for seed in (130, 131, 132):
            scn = sa.strip_null_goods(random_scenario(seed, n=8, k=2))
            before = shapley_map(scn)
            pruned_scn, _ = sa.prune_useless_goods(scn)
            after = shapley_map(pruned_scn)
            for a in scn.agents:
                assert after[a] == pytest.approx(before[a], rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_closed_form_matches_the_rule_spelled_out(self, k):
        # graded values, zero-value goods and ties among them; each good is
        # set against its best k-1 other goods, the marginals brute forced
        pruned = 0
        for seed in range(24):
            scn = random_scenario(300 + seed, n=2 + seed % 7, k=k)
            _, pairs = sa.prune_useless_goods(scn)
            assert pairs == useless_pairs(scn)
            pruned += len(pairs)
        assert pruned > 0


class TestPipeline:
    def test_fully_disjoint_instance_resolves_everyone(self):
        scn = sa.generate(agents=12, coauthor_prob=0.0, seed=5)
        report = sa.run_pipeline(scn)
        assert report.components == []
        assert len(report.resolved) + len(report.removed_empty) == 12

    def test_pipeline_partition_invariant(self):
        for seed in (140, 141):
            report = sa.run_pipeline(random_scenario(seed, n=12))
            report.check_partition()

    def test_pipeline_preserves_shapley_values(self):
        for seed in (150, 151, 152):
            scn = random_scenario(seed, n=10)
            whole = shapley_map(scn)
            report = sa.run_pipeline(scn)
            merged = dict(report.resolved_values())
            for comp in report.components:
                merged.update(shapley_map(comp))
            assert set(merged) == set(whole)
            for a in whole:
                assert merged[a] == pytest.approx(whole[a], rel=1e-9, abs=1e-9)

    def test_pipeline_preserves_shapley_values_midsize(self):
        scn = sa.generate(agents=16, goods_per_agent=1.6, coauthor_prob=0.35,
                          k=2, seed=9, max_claimers=3)
        whole = shapley_map(scn)
        report = sa.run_pipeline(scn)
        merged = dict(report.resolved_values())
        for comp in report.components:
            merged.update(shapley_map(comp))
        for a in whole:
            assert merged[a] == pytest.approx(whole[a], rel=1e-9, abs=1e-9)

    def test_funnel_shape_on_generated_instance(self):
        scn = sa.generate(
            agents=400, goods_per_agent=1.659, coauthor_prob=0.3,
            value_weights=(0.39, 0.1525, 0.1525, 0.1525, 0.1525),
            k=2, seed=4, max_claimers=3,
        )
        report = sa.run_pipeline(scn)
        resolved = len(report.resolved) + len(report.removed_empty)
        assert resolved > 0.4 * scn.n
        if report.components:
            sizes = sorted((c.n for c in report.components), reverse=True)
            assert sizes[0] >= 3

    def test_one_greedy_to_separate_and_one_to_prune(self):
        scn = sa.generate(agents=80, coauthor_prob=0.3, k=2, seed=7, max_claimers=3)
        before = matching.solve_calls()
        report = sa.run_pipeline(scn)
        assert matching.solve_calls() - before == 2
        assert report.stage_counts["components_after_split"] > 3
        assert report.pruned_pairs

    def test_whole_remainder_pruning_equals_per_component_pruning(self):
        # components share no positive good, so one greedy for the remainder
        # gives each agent the marginal its own component's greedy gives
        scenarios = [random_scenario(190 + seed, n=30, k=1 + seed % 3) for seed in range(12)]
        for scn in scenarios + [sa.generate(**FUNNEL)]:
            report = sa.run_pipeline(scn)
            pairs, comps = per_component_pruning(scn)
            assert set(report.pruned_pairs) == pairs
            assert {frozenset(c.agents) for c in report.components} == comps

    def test_stage_counts_present(self):
        report = sa.run_pipeline(random_scenario(160, n=9))
        for key in (
            "empty_agents_removed",
            "null_goods_removed",
            "separable_agents_resolved",
            "components_after_split",
            "useless_pairs_pruned",
            "final_components",
        ):
            assert key in report.stage_counts

    def test_report_serializes(self):
        report = sa.run_pipeline(random_scenario(161, n=9))
        d = report.to_dict()
        assert d["agents"] == 9
        assert isinstance(d["component_sizes"], list)
