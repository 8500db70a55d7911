import os
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial, ulp
from pathlib import Path

import numpy as np
import pytest

import shapalloc as sa
from shapalloc import exact

from conftest import random_scenario
from oracles import shapley_by_permutations


class TestShapleyWeight:
    def test_small_cases(self):
        assert sa.shapley_weight(0, 3) == pytest.approx(1 / 3)
        assert sa.shapley_weight(1, 3) == pytest.approx(1 / 6)
        assert sa.shapley_weight(2, 3) == pytest.approx(1 / 3)

    def test_weights_sum_to_one_over_all_coalitions(self):
        n = 10
        total = sum(comb(n - 1, s) * sa.shapley_weight(s, n) for s in range(n))
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_matches_factorial_formula_large_n(self):
        n, s = 64, 31
        expect = Fraction(factorial(s) * factorial(n - s - 1), factorial(n))
        assert sa.shapley_weight(s, n) == pytest.approx(float(expect), rel=1e-15)

    def test_integer_division_equals_the_fraction_bit_for_bit(self):
        for n in range(1, 41):
            for s in range(n):
                want = float(Fraction(factorial(s) * factorial(n - s - 1), factorial(n)))
                assert sa.shapley_weight(s, n).hex() == want.hex(), (s, n)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            sa.shapley_weight(-1, 5)
        with pytest.raises(ValueError):
            sa.shapley_weight(5, 5)


class TestExactShapley:
    def test_reference_game_against_permutation_oracle(self, ref_game):
        # worth table pinned independently; the oracle averages marginals
        # over all six agent orders
        v = {
            0b000: 0.0,
            0b001: 3.0,
            0b010: 3.0,
            0b100: 1.0,
            0b011: 5.0,
            0b101: 4.0,
            0b110: 4.0,
            0b111: 6.0,
        }
        expect = shapley_by_permutations(3, lambda m: v[m])
        assert expect == [2.5, 2.5, 1.0]
        rep = sa.exact_shapley(ref_game)
        got = [r.value for r in rep.agents]
        assert got == pytest.approx(expect, rel=1e-12)

    def test_two_slot_game_values(self, two_slot_game):
        rep = sa.exact_shapley(two_slot_game)
        got = {r.agent: r.value for r in rep.agents}
        assert got["r1"] == pytest.approx(14.5, rel=1e-12)
        assert got["r2"] == pytest.approx(14.5, rel=1e-12)
        assert got["r3"] == pytest.approx(16.0, rel=1e-12)
        assert rep.meta["grand_value"] == pytest.approx(45.0)

    def test_single_agent_gets_solo_value(self):
        scn = sa.AllocationScenario(["x"], [("g", 2.5), ("h", 1.0)], {"x": ["g", "h"]}, k=1)
        rep = sa.exact_shapley(scn)
        assert rep.agents[0].value == 2.5

    def test_symmetric_agents_get_equal_values(self):
        scn = sa.AllocationScenario(
            ["x", "y"], [("g", 4.0), ("h", 1.0)], {"x": ["g", "h"], "y": ["g", "h"]}, k=1
        )
        rep = sa.exact_shapley(scn)
        a, b = (r.value for r in rep.agents)
        assert a == pytest.approx(b, rel=1e-12)

    def test_matches_permutation_oracle_on_random_games(self):
        for seed in (201, 202, 203):
            scn = random_scenario(seed, n=6)
            cache = sa.CharacteristicCache()
            table = {m: sa.char_value(scn, m) for m in range(1 << scn.n)}
            expect = shapley_by_permutations(scn.n, lambda m: table[m])
            got = [r.value for r in sa.exact_shapley(scn, cache).agents]
            assert got == pytest.approx(expect, rel=1e-9, abs=1e-12)

    def test_budget_balance_and_marginality(self):
        for seed in (210, 211, 212):
            scn = random_scenario(seed, n=9)
            cache = sa.CharacteristicCache()
            rep = sa.exact_shapley(scn, cache)
            grand = sa.char_value(scn, scn.full_mask)
            values = {r.agent: r.value for r in rep.agents}
            assert sum(values.values()) == pytest.approx(grand, rel=1e-9)
            for a, v in values.items():
                i = scn.agent_index[a]
                marg = grand - sa.char_value(scn, scn.full_mask & ~(1 << i))
                assert v >= marg - 1e-9

    def test_group_marginality(self):
        scn = random_scenario(213, n=8)
        cache = sa.CharacteristicCache()
        rep = sa.exact_shapley(scn, cache)
        values = {r.agent: r.value for r in rep.agents}
        grand = sa.char_value(scn, scn.full_mask)
        rng = np.random.default_rng(0)
        for _ in range(20):
            group = int(rng.integers(1, scn.full_mask))
            group_sv = sum(values[scn.agents[i]] for i in sa.iter_bits(group))
            marg = grand - sa.char_value(scn, scn.full_mask & ~group)
            assert group_sv >= marg - 1e-9

    def test_worker_count_does_not_change_results(self):
        scn = random_scenario(220, n=9)
        one = [r.value for r in sa.exact_shapley(scn, workers=1).agents]
        many = [r.value for r in sa.exact_shapley(scn, workers=3).agents]
        assert one == many  # job merge order is fixed, so bit-identical

    def test_prefilled_cache_at_one_and_two_workers(self, monkeypatch):
        # one job per root, so that two workers share them out; the passed
        # cache is neither read nor written
        monkeypatch.setattr("shapalloc.exact.JOB_BITS", 6)
        scn = random_scenario(221, n=9)
        reports = []
        for workers in (1, 2):
            cache = sa.CharacteristicCache()
            for m in range(0, 1 << scn.n, 5):
                cache.put(m, sa.char_value(scn, m))
            before = (dict(cache.store), cache.hits, cache.misses)
            reports.append(sa.exact_shapley(scn, cache, workers=workers))
            assert (dict(cache.store), cache.hits, cache.misses) == before
            assert "cache" not in reports[-1].meta
        one, two = ([r.value.hex() for r in rep.agents] for rep in reports)
        assert one == two
        # each connected set of more than one agent is matched once, in the
        # one job that enumerates it, at any worker count
        neigh = scn.graph.neighbor_masks
        comps = {
            c for m in range(1 << scn.n) for c in sa.connected_components(m, neigh) if c & (c - 1)
        }
        assert [rep.meta["matchings"] for rep in reports] == [len(comps)] * 2

    def test_long_path_runs_one_job_per_root(self):
        # 45 agents: far beyond 2^n enumeration, but a path has only
        # n(n+1)/2 connected sets, the intervals, n of them singletons
        n = 45
        ids = [f"a{i}" for i in range(n)]
        goods = [(f"s{i}", 1.0 + i % 3) for i in range(n - 1)] + [(f"p{i}", 0.5) for i in range(n)]
        interest = {
            a: [f"p{i}"] + [f"s{j}" for j in (i - 1, i) if 0 <= j < n - 1]
            for i, a in enumerate(ids)
        }
        scn = sa.AllocationScenario(ids, goods, interest, k=1)
        rep = sa.exact_shapley(scn, limit=50)
        grand = sa.char_value(scn, scn.full_mask)
        assert rep.meta["grand_value"] == grand
        assert abs(sum(r.value for r in rep.agents) - grand) <= 1e-9 * grand
        assert rep.meta["connected_sets"] == n * (n + 1) // 2
        assert rep.meta["matchings"] == n * (n + 1) // 2 - n

    def test_declaration_order_invariance(self):
        scn = random_scenario(230, n=8)
        base = {r.agent: r.value for r in sa.exact_shapley(scn).agents}
        rng = np.random.default_rng(1)
        perm = rng.permutation(scn.n)
        shuffled = sa.AllocationScenario(
            agents=[scn.agents[i] for i in perm],
            goods=list(zip(scn.good_ids, map(float, scn.good_values))),
            interest={
                a: [scn.good_ids[j] for j in scn.interest[scn.agent_index[a]]]
                for a in scn.agents
            },
            k=scn.k,
        )
        other = {r.agent: r.value for r in sa.exact_shapley(shuffled).agents}
        for a in scn.agents:
            assert other[a] == pytest.approx(base[a], rel=1e-12, abs=1e-12)

    def test_oversize_component_refused(self):
        agents = [f"a{i}" for i in range(27)]
        scn = sa.AllocationScenario(agents, [("g", 1.0)], {a: ["g"] for a in agents}, k=1)
        with pytest.raises(sa.ComponentTooLarge, match="26"):
            sa.exact_shapley(scn)
        # explicit limit override is honored the other way
        small = sa.AllocationScenario(["x", "y"], [("g", 1.0)], {"x": ["g"], "y": ["g"]}, k=1)
        with pytest.raises(sa.ComponentTooLarge, match="limit"):
            sa.exact_shapley(small, limit=1)
        # 63 agents: refused before any job is built, whatever the limit
        agents = [f"a{i}" for i in range(63)]
        big = sa.AllocationScenario(agents, [("g", 1.0)], {a: ["g"] for a in agents}, k=1)
        with pytest.raises(sa.ComponentTooLarge, match="63 agents.*64-bit"):
            sa.exact_shapley(big, limit=100)

    def test_efficiency_gap_reported(self):
        scn = random_scenario(241, n=7)
        rep = sa.exact_shapley(scn)
        assert abs(rep.meta["efficiency_gap"]) <= 1e-9 * max(1.0, rep.meta["grand_value"])

    @pytest.mark.parametrize("job_bits", [14, 3])
    def test_values_match_exact_arithmetic_within_a_few_ulps(self, monkeypatch, job_bits):
        # the Shapley sums over all 2^n masks in Fraction arithmetic, from
        # char_value's worths (not the connected-set kernel's) and the
        # unrounded weights; the member and non-member sums can cancel, so
        # the error is measured in ulps of the sum of the terms' magnitudes
        # (the worst seen is about 1 ulp).  With JOB_BITS 3 every component
        # of more than 3 agents runs one job per root
        monkeypatch.setattr("shapalloc.exact.JOB_BITS", job_bits)
        for seed in range(300, 340):
            n = 1 + seed % 10
            scn = random_scenario(seed, n=n, k=1 + seed % 3)
            v = [Fraction(sa.char_value(scn, m)) for m in range(1 << n)]
            w = [Fraction(factorial(s) * factorial(n - s - 1), factorial(n)) for s in range(n)]
            got = [r.value for r in sa.exact_shapley(scn).agents]
            for i in range(n):
                pairs = [
                    (w[m.bit_count()], v[m | 1 << i], v[m])
                    for m in range(1 << n) if not m >> i & 1
                ]
                want = sum(wt * (hi - lo) for wt, hi, lo in pairs)
                scale = float(sum(wt * (abs(hi) + abs(lo)) for wt, hi, lo in pairs))
                assert abs(Fraction(got[i]) - want) <= 4 * ulp(scale), (seed, i)

    def test_values_independent_of_blas_thread_count(self):
        # one connected 15-agent component, one job per root
        code = (
            "import shapalloc as sa\n"
            "from conftest import random_scenario\n"
            "scn = random_scenario(4, n=15)\n"
            "comps = sa.connected_components(scn.full_mask, scn.graph.neighbor_masks)\n"
            "assert list(comps) == [scn.full_mask], comps\n"
            "print(' '.join(r.value.hex() for r in sa.exact_shapley(scn).agents))\n"
        )
        here = Path(__file__).resolve().parent
        path = os.pathsep.join((str(here.parent / "src"), str(here)))
        out = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", code],
                env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            out.append(proc.stdout.split())
        assert len(out[0]) == 15
        assert out[0] == out[1]


def _worths_instances():
    """At least 40 games of 1 to 16 agents: random, edgeless, cliques, ties."""
    out = []
    for n in range(1, 15):
        for seed in (0, 1):
            out.append(random_scenario(1000 + 10 * n + seed, n=n, k=1 + (n + seed) % 3))
    for n in (1, 5, 12):
        ids = [f"a{i}" for i in range(n)]
        goods = [(f"g{i}", 1.0 + i) for i in range(n)]
        out.append(sa.AllocationScenario(ids, goods, {a: [f"g{i}"] for i, a in enumerate(ids)}, k=1))
    for n, k in ((2, 1), (6, 2), (10, 3)):
        ids = [f"a{i}" for i in range(n)]
        goods = [(f"g{j}", 0.1 * (j % 4)) for j in range(n + 2)]
        out.append(sa.AllocationScenario(ids, goods, {a: [g for g, _ in goods] for a in ids}, k=k))
    for n, k in ((4, 3), (6, 3), (8, 1), (10, 1), (12, 2), (16, 2)):
        base = random_scenario(1200 + n + k, n=n, k=k)
        goods = [(g, (0.4, 0.7, 1.0)[j % 3]) for j, g in enumerate(base.good_ids)]
        interest = {a: [base.good_ids[j] for j in base.interest[i]] for i, a in enumerate(base.agents)}
        out.append(sa.AllocationScenario(base.agents, goods, interest, k=k))
    return out


def test_worths_match_char_value_bit_for_bit():
    instances = _worths_instances()
    assert len(instances) >= 40
    for idx, scn in enumerate(instances):
        want = [sa.char_value(scn, m).hex() for m in range(1 << scn.n)]
        assert [float(v).hex() for v in exact.worths(scn)] == want, idx


def _graph_scenario(n: int, edges, idle=()) -> sa.AllocationScenario:
    """A game whose agents graph has exactly ``edges``: one shared good per
    edge; every agent but those in ``idle`` also has a private good, and
    agents in ``idle`` want only a worthless good."""
    ids = [f"a{i}" for i in range(n)]
    goods = [("zero", 0.0)] + [(f"e{t}", 1.0) for t in range(len(edges))]
    interest: dict[str, list[str]] = {a: ["zero"] for a in ids}
    for i in range(n):
        if i not in idle:
            goods.append((f"p{i}", 0.5))
            interest[ids[i]].append(f"p{i}")
    for t, (i, j) in enumerate(edges):
        interest[ids[i]].append(f"e{t}")
        interest[ids[j]].append(f"e{t}")
    return sa.AllocationScenario(ids, goods, interest, k=1)


def _enumeration_graphs():
    """At least 200 graphs of 1 to 10 agents: random trees, cycles, cliques,
    random graphs, and disjoint unions of them, some agents idle."""
    rng = np.random.default_rng(7)
    out = []
    for t in range(220):
        n = 1 + t % 10
        kind = t % 5
        if kind == 0:  # random tree
            edges = [(int(rng.integers(0, j)), j) for j in range(1, n)]
        elif kind == 1:  # cycle
            edges = [(i, (i + 1) % n) for i in range(n)] if n >= 3 else []
        elif kind == 2:  # clique
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        elif kind == 3:  # random graph
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.35]
        else:  # two disjoint random trees, interleaved in agent order
            side = rng.permutation(n)
            a, b = sorted(side[: n // 2].tolist()), sorted(side[n // 2:].tolist())
            edges = [(p[int(rng.integers(0, j))], p[j]) for p in (a, b) for j in range(1, len(p))]
        idle = {i for i in range(n) if rng.random() < 0.2}
        # an idle agent has no positive good, hence no edge
        edges = [(i, j) for i, j in edges if i not in idle and j not in idle]
        out.append(_graph_scenario(n, edges, idle))
    return out


def test_connected_sets_enumerate_each_connected_coalition_once():
    graphs = _enumeration_graphs()
    assert len(graphs) >= 200
    for idx, scn in enumerate(graphs):
        neigh = scn.graph.neighbor_masks
        want = {c for m in range(1, 1 << scn.n) for c in sa.connected_components(m, neigh)}
        got = []
        for root in range(scn.n):
            for members, boundary in exact.connected_sets(neigh, root):
                assert members & -members == 1 << root, idx
                adjacent = 0
                for i in sa.iter_bits(members):
                    adjacent |= neigh[i]
                assert boundary == adjacent & ~members, idx
                got.append(members)
        assert len(got) == len(set(got)), idx
        assert set(got) == want, idx
        assert sa.exact_shapley(scn).meta["connected_sets"] == len(want), idx
