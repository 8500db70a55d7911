import dataclasses
import json

import numpy as np
import pytest

import shapalloc as sa
from shapalloc.cli import main

from conftest import three_agent_game
from test_acceptance import FUNNEL


def test_solve_unknown_sampler_fails_before_any_work(monkeypatch):
    # no component of the reference game needs a sampler
    with pytest.raises(ValueError, match="nosuch"):
        sa.solve(three_agent_game(), sampler="nosuch", threads=1)

    def no_work(scenario):
        raise AssertionError("preprocessing ran before the sampler was checked")

    monkeypatch.setattr("shapalloc.pipeline.run_pipeline", no_work)
    scn = sa.generate(agents=40, coauthor_prob=0.5, max_claimers=2, seed=11)
    with pytest.raises(ValueError, match="nosuch"):
        sa.solve(scn, exact_limit=4, sampler="nosuch", threads=1)


@pytest.mark.parametrize("sampler, epsilon, delta", [
    ("range", -1.0, 5.0),
    ("range", 0.3, 0.0),
    ("range", float("nan"), 0.01),
    ("fpras", 1.5, 0.01),
    ("fpras", 0.3, 1.0),
])
def test_solve_checks_epsilon_and_delta_before_any_work(monkeypatch, sampler, epsilon, delta):
    # every agent is separable, so no component reaches a sampler
    separable = sa.generate(agents=30, coauthor_prob=0.0, seed=1)
    with pytest.raises(ValueError, match="epsilon|delta"):
        sa.solve(separable, sampler=sampler, epsilon=epsilon, delta=delta, threads=1)

    def no_work(scenario):
        raise AssertionError("preprocessing ran before epsilon and delta were checked")

    monkeypatch.setattr("shapalloc.pipeline.run_pipeline", no_work)
    with pytest.raises(ValueError, match="epsilon|delta"):
        sa.solve(separable, sampler=sampler, epsilon=epsilon, delta=delta, threads=1)


@pytest.mark.parametrize("sampler", ["fpras", "range"])
@pytest.mark.parametrize("seed", [-1, 2.5])
def test_solve_checks_the_seed_before_any_work(monkeypatch, sampler, seed):
    def no_work(scenario):
        raise AssertionError("preprocessing ran before the seed was checked")

    monkeypatch.setattr("shapalloc.pipeline.run_pipeline", no_work)
    with pytest.raises(ValueError, match="seed"):
        sa.solve(three_agent_game(), sampler=sampler, seed=seed, threads=1)


@pytest.mark.parametrize("threads", [0, -4])
def test_solve_checks_threads_before_any_work(monkeypatch, threads):
    def no_work(scenario):
        raise AssertionError("preprocessing ran before threads was checked")

    monkeypatch.setattr("shapalloc.pipeline.run_pipeline", no_work)
    with pytest.raises(ValueError, match="threads"):
        sa.solve(three_agent_game(), threads=threads)


@pytest.mark.parametrize(
    "call",
    [
        lambda g: sa.exact_shapley(g, workers=0),
        lambda g: sa.shapley_bounds(g, workers=-3),
        lambda g: sa.fpras_shapley(g, cfg=sa.FprasConfig(epsilon=0.3, delta=0.1, workers=0)),
        lambda g: sa.range_sampler_shapley(
            g, cfg=sa.RangeSamplerConfig(epsilon=0.3, delta=0.1, workers=0)
        ),
    ],
    ids=["exact", "bounds", "fpras", "range"],
)
def test_solvers_check_workers_before_any_work(monkeypatch, call):
    def no_work(*args, **kwargs):
        raise AssertionError("jobs ran before workers was checked")

    monkeypatch.setattr("shapalloc._pool.run_jobs", no_work)
    with pytest.raises(ValueError, match="workers"):
        call(three_agent_game())


@pytest.mark.parametrize("sampler", ["fpras", "range"])
def test_solve_on_a_scenario_matches_the_cli_report(tmp_path, sampler):
    scn_path = tmp_path / "scn.json"
    main(["generate", "--agents", "40", "--coauthor-prob", "0.5",
          "--max-claimers", "2", "--seed", "11", "--out", str(scn_path)])
    out = tmp_path / "solve.json"
    assert main(["solve", "--scenario", str(scn_path), "--exact-limit", "4",
                 "--sampler", sampler, "--epsilon", "0.4", "--delta", "0.1",
                 "--seed", "4", "--threads", "1", "--out", str(out)]) == 0
    scn = sa.load_scenario(str(scn_path))
    rep = sa.solve(scn, exact_limit=4, sampler=sampler, epsilon=0.4, delta=0.1,
                   seed=4, threads=1)
    assert rep.meta["components_sampled"] > 0
    assert rep.to_dict()["agents"] == json.loads(out.read_text())["agents"]
    assert [r.agent for r in rep.agents] == list(scn.agents)
    for rec in rep.agents:
        if rec.kind == "estimate":
            assert rec.lb <= rec.value <= rec.ub
    # to_dict builds each record from its fields: the same dicts, and the
    # same JSON, as dataclasses.asdict gives, for every kind of record
    bounds = sa.shapley_bounds(scn, max_neigh=3)
    kinds = set()
    for report in (rep, bounds):
        want = {"meta": report.meta, "agents": [dataclasses.asdict(r) for r in report.agents]}
        assert report.to_dict() == want
        assert json.dumps(report.to_dict()) == json.dumps(want)
        kinds |= {r.kind for r in report.agents}
    assert kinds == {"exact", "interval", "estimate"}



def test_solve_timings_split_the_wall_time():
    scn = sa.generate(agents=40, coauthor_prob=0.5, max_claimers=2, seed=11)
    meta = sa.solve(scn, exact_limit=4, sampler="range", epsilon=0.4, delta=0.1,
                    threads=1).meta
    timings = meta["timings"]
    assert set(timings) == {"preprocess", "exact", "bounds", "sampler"}
    assert meta["components_exact"] > 0 and meta["components_sampled"] > 0
    assert all(t >= 0.0 for t in timings.values())
    assert timings["bounds"] > 0.0 and timings["sampler"] > 0.0
    assert sum(timings.values()) <= meta["wall_time"]


def test_solve_reports_the_preprocessing_stage_times():
    meta = sa.solve(sa.generate(**FUNNEL), exact_limit=16, sampler="range", threads=1).meta
    stages = meta["preprocess_timings"]
    assert set(stages) == {"separate", "prune", "components"}
    assert all(t > 0.0 for t in stages.values())
    assert sum(stages.values()) <= meta["timings"]["preprocess"]


def cluster_scenario(seed: int, clusters: int = 2, size: int = 24) -> sa.AllocationScenario:
    """Disjoint clusters, each a random spanning tree of shared goods plus 3
    extra shared goods, with a private good for about half the agents."""
    rng = np.random.default_rng(seed)
    goods, interest = [], {}

    def add_good(owners):
        goods.append((f"g{len(goods)}", float(rng.choice((0.1, 0.4, 0.7, 1.0)))))
        for a in owners:
            interest[a].append(goods[-1][0])

    for c in range(clusters):
        ids = [f"c{c}a{i}" for i in range(size)]
        interest.update((a, []) for a in ids)
        for t in range(1, size):
            add_good((ids[int(rng.integers(t))], ids[t]))
        for _ in range(3):
            add_good(ids[j] for j in rng.choice(size, size=2, replace=False))
        for j in np.nonzero(rng.random(size) < 0.5)[0]:
            add_good((ids[j],))
    return sa.AllocationScenario(list(interest), goods, interest, k=2)


@pytest.mark.parametrize("law", ["cluster", "funnel"])
def test_intervals_are_never_inverted(law):
    # no rounding slack: lb <= ub holds exactly, collapsed intervals
    # included, and solve's clamp keeps every value inside its interval
    for seed in (1, 2, 3):
        if law == "cluster":
            scn = cluster_scenario(seed)
            limit, policy = 8, dict(sampler="fpras", epsilon=0.8, delta=0.04)
        else:
            scn = sa.generate(**{**FUNNEL, "agents": 600, "seed": seed})
            limit, policy = 12, dict(sampler="range", epsilon=0.3, delta=0.01)
        sampled = [c for c in sa.run_pipeline(scn).components if c.n > limit]
        assert sampled
        for comp in sampled:
            for rec in sa.shapley_bounds(comp).agents:
                assert rec.lb <= rec.ub, (seed, rec)
        rep = sa.solve(scn, exact_limit=limit, seed=seed, threads=1, **policy)
        bounded = [r for r in rep.agents if r.lb is not None]
        assert len(bounded) == sum(c.n for c in sampled)
        for rec in bounded:
            assert rec.lb <= rec.value <= rec.ub, (seed, rec)
