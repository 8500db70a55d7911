import re

import numpy as np
import pytest

import shapalloc as sa

from conftest import char_value_marginal, random_scenario
from oracles import brute_force_opt


def masks_by_ids(scn, *groups):
    return [scn.mask_of(g) for g in groups]


class TestCharValue:
    def test_reference_game_values(self, ref_game):
        got = [
            sa.char_value(ref_game, ref_game.mask_of(ids))
            for ids in (
                ["a1", "a2", "a3"],
                ["a1", "a2"],
                ["a1", "a3"],
                ["a2", "a3"],
                ["a1"],
                ["a2"],
                ["a3"],
            )
        ]
        assert got == [6.0, 5.0, 4.0, 4.0, 3.0, 3.0, 1.0]

    def test_empty_coalition_is_zero(self, ref_game):
        assert sa.char_value(ref_game, 0) == 0.0

    def test_out_of_range_mask_rejected(self, ref_game):
        with pytest.raises(sa.ScenarioError):
            sa.char_value(ref_game, 1 << 5)

    def test_matches_brute_force(self):
        for seed in (11, 12, 13):
            scn = random_scenario(seed, n=5)
            for m in range(1 << scn.n):
                expect = brute_force_opt(scn, m)
                assert sa.char_value(scn, m) == pytest.approx(expect, rel=1e-9, abs=1e-12)

    def test_monotone_in_members(self):
        scn = random_scenario(99, n=7)
        v = [sa.char_value(scn, m) for m in range(1 << scn.n)]
        for m in range(1 << scn.n):
            for i in range(scn.n):
                if not m >> i & 1:
                    assert v[m | 1 << i] >= v[m] - 1e-12

    def test_superadditive_on_disjoint_unions(self):
        scn = random_scenario(7, n=6)
        full = scn.full_mask
        for a in range(1 << scn.n):
            rest = full & ~a
            # a few disjoint partners per subset keep this quadratic, not cubic
            for b in (rest, rest & (rest - 1), rest & 0b101010):
                va = sa.char_value(scn, a)
                vb = sa.char_value(scn, b)
                vab = sa.char_value(scn, a | b)
                assert va + vb >= vab - 1e-9


class TestMarginals:
    def test_reference_game_marginals(self, ref_game):
        i_a1 = ref_game.agent_index["a1"]
        i_a3 = ref_game.agent_index["a3"]
        c23 = ref_game.mask_of(["a2", "a3"])
        assert sa.marginal_restricted(ref_game, i_a1, c23) == 2.0
        assert sa.marginal_restricted(ref_game, i_a3, 0) == 1.0

    def test_empty_interest_agent_contributes_nothing(self):
        scn = sa.AllocationScenario(
            agents=["x", "y"],
            goods=[("g", 4.0)],
            interest={"x": ["g"], "y": []},
            k=1,
        )
        iy = scn.agent_index["y"]
        for c in (0, scn.mask_of(["x"])):
            assert sa.marginal_restricted(scn, iy, c) == 0.0
            assert char_value_marginal(scn, iy, c) == 0.0

    def test_member_rejected(self, ref_game):
        with pytest.raises(sa.ScenarioError):
            sa.marginal_restricted(ref_game, 0, ref_game.mask_of(["a1"]))

    def test_anti_monotone_marginals(self):
        scn = random_scenario(123, n=7)
        n = scn.n
        for i in range(n):
            others = scn.full_mask & ~(1 << i)
            margs = {}
            m = 0
            while True:  # all subsets of the other agents
                margs[m] = sa.marginal_restricted(scn, i, m)
                if m == others:
                    break
                m = (m - others) & others
            for c1, v1 in margs.items():
                # growing the coalition can only shrink the marginal
                for j in range(n):
                    bit = 1 << j
                    if j != i and not c1 & bit:
                        assert margs[c1 | bit] <= v1 + 1e-9

    def test_restricted_marginal_agrees(self):
        def check(scn, i, c):
            want = char_value_marginal(scn, i, c)
            got = sa.marginal_restricted(scn, i, c)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12), (i, c)

        # every (coalition, agent) pair; goods valued in quarters, so ties
        # are common and a coalition has several optimal allocations
        for seed in range(12):
            n, k = 6 + seed % 2, 1 + seed % 3
            scn = sa.generate(agents=n, goods_per_agent=1.6, coauthor_prob=0.5,
                              value_set=(0.0, 0.25, 0.5, 0.75, 1.0), k=k, seed=700 + seed)
            for i in range(n):
                others = scn.full_mask & ~(1 << i)
                c = 0
                while True:
                    check(scn, i, c)
                    if c == others:
                        break
                    c = (c - others) & others

    def test_restricted_marginal_agrees_beyond_augment_threshold(self):
        # random coalitions of one connected component far larger than the
        # coalitions a restricted solve usually sees (105 agents of 140)
        scn = sa.generate(agents=140, coauthor_prob=0.6, max_claimers=2,
                          value_weights=(0.1, 0.2, 0.2, 0.25, 0.25), k=2, seed=31)
        scn = sa.strip_null_goods(scn)
        comp = max(scn.graph.components(), key=lambda m: m.bit_count())
        assert comp.bit_count() > 40
        members = list(sa.iter_bits(comp))
        rng = np.random.default_rng(2)
        for _ in range(12):
            agent = members[int(rng.integers(len(members)))]
            keep = rng.random(len(members)) < 0.9
            c = 0
            for pos, b in enumerate(members):
                if keep[pos] and b != agent:
                    c |= 1 << b
            want = char_value_marginal(scn, agent, c)
            got = sa.marginal_restricted(scn, agent, c)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


class TestAgentsGraph:
    def test_shared_positive_good_is_edge(self):
        scn = sa.AllocationScenario(
            ["x", "y"], [("g", 1.0)], {"x": ["g"], "y": ["g"]}, k=1
        )
        assert scn.graph.neighbor_lists == ((1,), (0,))

    def test_disjoint_interests_give_edgeless_graph(self):
        scn = sa.AllocationScenario(
            ["x", "y"], [("g", 1.0), ("h", 2.0)], {"x": ["g"], "y": ["h"]}, k=1
        )
        assert scn.graph.neighbor_lists == ((), ())

    def test_zero_value_good_creates_no_edge(self):
        scn = sa.AllocationScenario(
            ["x", "y"], [("g", 0.0)], {"x": ["g"], "y": ["g"]}, k=1
        )
        assert scn.graph.neighbor_lists == ((), ())

    def test_triangle_matches_pairwise_check(self):
        scn = sa.AllocationScenario(
            ["x", "y", "z"],
            [("g", 1.0)],
            {"x": ["g"], "y": ["g"], "z": ["g"]},
            k=1,
        )
        graph = sa.build_agents_graph(scn)
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                shared = set(scn.ranked_interest[i]) & set(scn.ranked_interest[j])
                assert bool(graph.neighbor_masks[i] >> j & 1) == bool(shared)

    def test_random_adjacency_matches_intersection(self):
        scn = random_scenario(77, n=9)
        graph = scn.graph
        for i in range(scn.n):
            for j in range(scn.n):
                if i == j:
                    assert not graph.neighbor_masks[i] >> i & 1
                    continue
                shared = set(scn.ranked_interest[i]) & set(scn.ranked_interest[j])
                assert bool(graph.neighbor_masks[i] >> j & 1) == bool(shared)
            assert graph.neighbor_lists[i] == tuple(sa.iter_bits(graph.neighbor_masks[i]))

    def test_symmetry(self):
        scn = random_scenario(78, n=10)
        g = scn.graph
        for i in range(scn.n):
            for j in g.neighbor_lists[i]:
                assert g.neighbor_masks[j] >> i & 1


class TestScenarioValidation:
    def test_negative_value_rejected(self):
        with pytest.raises(sa.ScenarioError, match="negative"):
            sa.AllocationScenario(["x"], [("g", -1.0)], {"x": ["g"]}, k=1)

    def test_unknown_good_rejected(self):
        with pytest.raises(sa.ScenarioError, match="undeclared good"):
            sa.AllocationScenario(["x"], [("g", 1.0)], {"x": ["h"]}, k=1)

    def test_unknown_agent_rejected(self):
        with pytest.raises(sa.ScenarioError, match="undeclared agents"):
            sa.AllocationScenario(["x"], [("g", 1.0)], {"x": ["g"], "y": ["g"]}, k=1)

    def test_bad_capacity_rejected(self):
        with pytest.raises(sa.ScenarioError, match="capacity"):
            sa.AllocationScenario(["x"], [("g", 1.0)], {"x": ["g"]}, k=0)

    def test_nan_value_rejected(self):
        with pytest.raises(sa.ScenarioError, match="non-finite"):
            sa.AllocationScenario(["x", "y"], [("g", float("nan"))],
                                  {"x": ["g"], "y": ["g"]}, k=1)

    def test_infinite_value_rejected(self):
        for v in (float("inf"), float("-inf")):
            with pytest.raises(sa.ScenarioError, match="non-finite"):
                sa.AllocationScenario(["x", "y"], [("g", 1.0), ("h", v)],
                                      {"x": ["g", "h"], "y": ["h"]}, k=1)

    def test_non_integer_capacity_rejected(self):
        for k in (2.5, 2.0, "2"):
            with pytest.raises(sa.ScenarioError, match="integer"):
                sa.AllocationScenario(["x"], [("g", 1.0)], {"x": ["g"]}, k=k)

    def test_boolean_capacity_rejected(self):
        with pytest.raises(sa.ScenarioError, match="integer"):
            sa.AllocationScenario(["x"], [("g", 1.0)], {"x": ["g"]}, k=True)

    def test_string_interest_rejected(self):
        data = {
            "k": 1,
            "goods": [{"id": g, "value": 1.0} for g in ("g", "1", "2", "g12")],
            "agents": [{"id": "x", "interest": "g12"}],
        }
        with pytest.raises(sa.ScenarioError, match="list of good ids"):
            sa.AllocationScenario.from_dict(data)

    @pytest.mark.parametrize("field, bad, match", [
        ("value", None, "good 'g' has a non-numeric value None"),
        ("value", True, "good 'g' has a non-numeric value True"),
        ("value", "0.7", "good 'g' has a non-numeric value '0.7'"),
        ("interest", None, "interest of agent 'x' must be a list of good ids"),
        ("agent id", 5, "agent id 5 is not a string"),
        ("good id", 5, "good id 5 is not a string"),
    ])
    def test_mistyped_record_rejected(self, field, bad, match):
        good = {"id": "g", "value": 1.0}
        agent = {"id": "x", "interest": ["g"]}
        if field in ("value", "good id"):
            good["id" if field == "good id" else "value"] = bad
        else:
            agent["id" if field == "agent id" else "interest"] = bad
        data = {"k": 1, "goods": [good], "agents": [agent]}
        with pytest.raises(sa.ScenarioError, match=re.escape(match)):
            sa.AllocationScenario.from_dict(data)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(sa.ScenarioError):
            sa.AllocationScenario(["x", "x"], [("g", 1.0)], {"x": ["g"]}, k=1)
        with pytest.raises(sa.ScenarioError):
            sa.AllocationScenario(["x"], [("g", 1.0), ("g", 2.0)], {"x": ["g"]}, k=1)

    def test_empty_interest_allowed(self):
        scn = sa.AllocationScenario(["x"], [("g", 1.0)], {}, k=1)
        assert scn.solo_value[0] == 0.0


class TestScenarioFiles:
    def test_round_trip(self, tmp_path, ref_game):
        path = tmp_path / "scn.json"
        sa.save_scenario(ref_game, str(path))
        back = sa.load_scenario(str(path))
        assert back.to_dict() == ref_game.to_dict()

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"k": 1,\n  "goods": [}\n')
        with pytest.raises(sa.ScenarioError, match="line 2"):
            sa.load_scenario(str(path))

    def test_missing_field_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"k": 1, "agents": []}')
        with pytest.raises(sa.ScenarioError, match="malformed"):
            sa.load_scenario(str(path))

    def test_canonical_field_shapes(self, ref_game):
        d = ref_game.to_dict()
        assert set(d) == {"k", "goods", "agents"}
        assert all(set(g) == {"id", "value"} for g in d["goods"])
        assert all(set(a) == {"id", "interest"} for a in d["agents"])


class TestRestriction:
    def test_restrict_keeps_order_and_goods(self, ref_game):
        sub = ref_game.restrict(["a3", "a1"])
        assert sub.agents == ("a1", "a3")
        assert set(sub.good_ids) == {"g1", "g2", "g3", "g4"}

    def test_restrict_drops_unreferenced_goods(self, ref_game):
        sub = ref_game.restrict(["a3"])
        assert set(sub.good_ids) == {"g3", "g4"}

    def test_unknown_agent_rejected(self, ref_game):
        with pytest.raises(sa.ScenarioError):
            ref_game.restrict(["nope"])


class TestBitHelpers:
    def test_iter_bits(self):
        assert list(sa.iter_bits(0b101001)) == [0, 3, 5]

    def test_mask_round_trip(self):
        m = sa.mask_from_indices([0, 64, 127, 129])
        assert list(sa.iter_bits(m)) == [0, 64, 127, 129]

    def test_component_decomposition(self):
        scn = random_scenario(55, n=10)
        neigh = scn.graph.neighbor_masks
        comps = list(sa.connected_components(scn.full_mask, neigh))
        assert sum(c.bit_count() for c in comps) == scn.n
        union = 0
        for c in comps:
            assert union & c == 0
            union |= c
        assert union == scn.full_mask
