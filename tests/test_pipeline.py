import dataclasses
import json

import pytest

import shapalloc as sa
from shapalloc.cli import main

from conftest import three_agent_game


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
