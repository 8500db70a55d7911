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
