import numpy as np
import pytest

import shapalloc as sa
from shapalloc import matching

from conftest import random_scenario
from oracles import (
    allocation_value,
    brute_force_opt,
    greedy_disjoint_value,
    reference_add_agent,
    reference_greedy,
    reference_remove_agent,
    validate_allocation,
)


def test_single_agent_takes_both_goods():
    scn = sa.AllocationScenario(
        ["x"], [("g", 5.0), ("h", 3.0)], {"x": ["g", "h"]}, k=2
    )
    alloc, value = sa.optimal_allocation(scn, scn.full_mask)
    assert value == 8.0
    assert alloc["x"] == frozenset({"g", "h"})


def test_contested_good_goes_to_exactly_one():
    scn = sa.AllocationScenario(
        ["x", "y"], [("g", 5.0)], {"x": ["g"], "y": ["g"]}, k=1
    )
    alloc, value = sa.optimal_allocation(scn, scn.full_mask)
    assert value == 5.0
    holders = [a for a, goods in alloc.items() if goods]
    assert len(holders) == 1


def test_reference_game_grand_value(ref_game):
    assert sa.optimal_value_only(ref_game, ref_game.full_mask) == 6.0


def test_value_only_equals_allocation_value(ref_game):
    for m in range(1, 1 << ref_game.n):
        alloc, value = sa.optimal_allocation(ref_game, m)
        assert sa.optimal_value_only(ref_game, m) == value
        assert allocation_value(ref_game, alloc) == pytest.approx(
            value, rel=1e-12, abs=1e-12)


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
    assert alloc["y"] == frozenset()
    assert "g" not in alloc["x"]


def test_allocations_feasible_on_random_instances():
    for seed in (41, 42, 43):
        scn = random_scenario(seed, n=7)
        rng = np.random.default_rng(seed)
        for _ in range(10):
            m = int(rng.integers(1, 1 << scn.n))
            alloc, value = sa.optimal_allocation(scn, m)
            validate_allocation(scn, alloc, m)
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
                validate_allocation(scn, alloc, m)
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
                    holder, held, _ = matching.greedy(scn, m)
                    loss = matching.remove_agent(scn, holder, held, i)
                    assert loss == pytest.approx(opt[m] - opt[rest], rel=1e-12, abs=1e-12)
                    assert loss == matching.marginal_gain(scn, rest, i), (k, seed, m, i)
                    alloc = _checked_allocation(scn, holder, held, rest)
                    assert allocation_value(scn, alloc) == pytest.approx(
                        opt[rest], rel=1e-12, abs=1e-12)


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


# quarter grades (with worthless goods), a single value, and near-ties
SEARCH_VALUE_SETS = (
    (0.0, 0.25, 0.5, 0.75, 1.0),
    (1.0,),
    (0.3, 0.3000000000000001, 0.7),
    (0.1, 0.3, 0.30000000000000004, 0.6),
)


def _checked_allocation(scn, holder, held, coalition):
    """The carried allocation as an assignment ``{agent id: good ids}``,
    once its two lists are checked: ``held`` has a list exactly for the
    coalition's members, ``holder`` is its inverse, and the allocation is
    feasible."""
    assert (len(holder), len(held)) == (len(scn.good_ids), scn.n)
    members = {a for a, goods in enumerate(held) if goods is not None}
    assert members == set(sa.iter_bits(coalition))
    assert {g: a for g, a in enumerate(holder) if a >= 0} == {
        g: a for a in members for g in held[a]
    }
    alloc = {scn.agents[a]: frozenset(scn.good_ids[g] for g in held[a]) for a in members}
    validate_allocation(scn, alloc, coalition)
    return alloc


def test_add_agent_matches_the_unbounded_search():
    # the bounded search may apply another optimal augmentation than the
    # unbounded one, so each walk carries its own allocation; the gains are
    # the optimum's unit increments and must agree bit for bit
    rng = np.random.default_rng(11)
    steps = 0
    kinds = {"alone": 0, "free": 0, "search": 0}
    for inst in range(600):
        n, k = 4 + inst % 7, 1 + inst % 3
        scn = sa.generate(agents=n, goods_per_agent=1.6, coauthor_prob=0.6, max_claimers=3,
                          value_set=SEARCH_VALUE_SETS[inst % 4], k=k, seed=1000 + inst)
        neigh = scn.graph.neighbor_masks
        for _ in range(2):
            perm = rng.permutation(n).tolist()
            # the whole permutation in one call
            whole = matching.empty_allocation(scn)
            s0 = matching.search_calls()
            gains, hits = matching.add_agents(scn, *whole, perm)
            searches = matching.search_calls() - s0
            _checked_allocation(scn, *whole, scn.full_mask)
            # the same agents one call each, checking every prefix
            holder, held = matching.empty_allocation(scn)
            ref_holder, ref_held = {}, {}
            prefix = 0
            want_hits = want_searches = 0
            for j, gain in zip(perm, gains):
                want = reference_add_agent(scn, ref_holder, ref_held, j)
                assert gain.hex() == want.hex(), (inst, prefix, j)
                if neigh[j] & prefix == 0:
                    kinds["alone"] += 1
                    want_hits += 1
                elif all(holder[g] < 0 for g in scn.solo_goods(j)):
                    kinds["free"] += 1
                else:
                    kinds["search"] += 1
                    want_searches += 1
                assert matching.add_agent(scn, holder, held, j).hex() == want.hex()
                prefix |= 1 << j
                alloc = _checked_allocation(scn, holder, held, prefix)
                assert allocation_value(scn, alloc) == pytest.approx(
                    matching.optimal_value_only(scn, prefix), rel=1e-12, abs=1e-12)
                steps += 1
            assert (hits, searches) == (want_hits, want_searches), inst
            assert (holder, held) == whole
    assert steps == 2 * sum(4 + inst % 7 for inst in range(600))
    # every kind of step occurs: no earlier neighbor, free solo goods with
    # a neighbor present, and a search
    assert min(kinds.values()) > 1000, kinds


def test_add_agents_over_a_long_sequence():
    # every agent that searches stamps the search's marks at least once, so
    # one call over this 509-agent component stamps them more than the 255
    # times a bytearray holds before the marks are made again
    scn = sa.generate(agents=800, coauthor_prob=0.6, max_claimers=2,
                      value_weights=(0.2, 0.2, 0.2, 0.2, 0.2), k=3, seed=77)
    comp = max(scn.graph.components(), key=int.bit_count)
    members = list(sa.iter_bits(comp))
    perm = [members[j] for j in np.random.default_rng(2).permutation(len(members))]
    holder, held = matching.empty_allocation(scn)
    s0 = matching.search_calls()
    gains, _ = matching.add_agents(scn, holder, held, perm)
    assert matching.search_calls() - s0 > 255
    ref_holder, ref_held = {}, {}
    for j, gain in zip(perm, gains):
        assert gain.hex() == reference_add_agent(scn, ref_holder, ref_held, j).hex(), j
    alloc = _checked_allocation(scn, holder, held, comp)
    assert allocation_value(scn, alloc) == pytest.approx(
        matching.optimal_value_only(scn, comp), rel=1e-12, abs=1e-12)


def _kernels_match_references(scn, coalitions, stats):
    """The greedy and each member's removal, carried as ``removal_marginals``
    carries them, against the frozen kernels: the same kept goods,
    allocation lists (their order too) and loss floats, and one counter step
    per greedy and per removal."""
    for m in coalitions:
        m0 = matching.solve_calls()
        got = matching.greedy(scn, m)
        assert matching.solve_calls() - m0 == 1
        assert got == reference_greedy(scn, m), m
        holder, held, kept = got
        stats["dropped"] += len({g for a in sa.iter_bits(m) for g in scn.interest[a]}) - len(kept)
        for i in sa.iter_bits(m):
            ref_holder, ref_held = matching.copy_allocation(holder, held)
            want = reference_remove_agent(scn, ref_holder, ref_held, i)
            s0 = matching.search_calls()
            loss = matching.remove_agent(scn, holder, held, i)
            assert matching.search_calls() - s0 == 1
            assert loss.hex() == want.hex(), (m, i)
            assert (holder, held) == (ref_holder, ref_held), (m, i)
            stats["lossy"] += loss > 0.0
            stats["removals"] += 1
            matching.add_agent(scn, holder, held, i)


def test_greedy_and_remove_agent_match_the_frozen_kernels():
    # every coalition of small tie-heavy instances, k = 1..3
    stats = {"dropped": 0, "lossy": 0, "removals": 0}
    zero_interest = 0
    for inst in range(36):
        scn = sa.generate(agents=7, goods_per_agent=1.6, coauthor_prob=0.6, max_claimers=3,
                          value_set=SEARCH_VALUE_SETS[inst % 4], k=1 + inst % 3,
                          seed=2000 + inst)
        zero_interest += any(scn.good_value_list[g] == 0.0 for row in scn.interest for g in row)
        _kernels_match_references(scn, range(1, 1 << scn.n), stats)
    # goods the greedy could not keep, and removals that lost value
    assert stats["dropped"] > 1000 and stats["lossy"] > 1000, stats
    # members interested in zero-value goods, which the greedy skips and
    # the frozen greedy searches for in vain
    assert zero_interest > 0


def test_greedy_and_remove_agent_match_the_frozen_kernels_mid_size():
    rng = np.random.default_rng(9)
    stats = {"dropped": 0, "lossy": 0, "removals": 0}
    for inst in range(6):
        scn = sa.generate(agents=120, coauthor_prob=0.55, max_claimers=3,
                          value_weights=(0.2, 0.2, 0.2, 0.2, 0.2), k=1 + inst % 3,
                          seed=300 + inst)
        comp = max(scn.graph.components(), key=int.bit_count)
        assert comp.bit_count() > 20
        members = list(sa.iter_bits(comp))
        coalitions = [comp] + [
            sum(1 << a for a in members if rng.random() < p) for p in (0.4, 0.7)
        ]
        _kernels_match_references(scn, coalitions, stats)
    assert stats["dropped"] > 0 and stats["lossy"] > 0, stats
