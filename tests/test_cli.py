import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shapalloc as sa
from shapalloc.cli import build_parser, main

from conftest import three_agent_game
from test_acceptance import FUNNEL

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def ref_file(tmp_path):
    path = tmp_path / "ref.json"
    sa.save_scenario(three_agent_game(), str(path))
    return str(path)


def run_cli(*argv) -> int:
    return main(list(argv))


def load(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_generate_writes_scenario(tmp_path):
    out = tmp_path / "scn.json"
    assert run_cli("generate", "--agents", "12", "--seed", "3", "--out", str(out)) == 0
    scn = sa.load_scenario(str(out))
    assert scn.n == 12


def test_extract_subcommand(tmp_path, capsys):
    scn_path = tmp_path / "scn.json"
    sub_path = tmp_path / "sub.json"
    run_cli("generate", "--agents", "20", "--seed", "3", "--out", str(scn_path))
    assert run_cli("extract", "--scenario", str(scn_path), "--size", "6",
                   "--seed", "1", "--out", str(sub_path)) == 0
    assert sa.load_scenario(str(sub_path)).n == 6
    assert run_cli("extract", "--scenario", str(scn_path), "--size", "-3") == 2
    assert capsys.readouterr().err.startswith("error: size must be at least 0, got -3")


def test_components_subcommand(ref_file, tmp_path):
    out = tmp_path / "comp.json"
    assert run_cli("components", "--scenario", ref_file, "--out", str(out)) == 0
    data = load(out)
    assert data["agents"] == 3
    assert [c["size"] for c in data["components"]] == [3]


def test_opt_subcommand(ref_file, tmp_path):
    out = tmp_path / "opt.json"
    assert run_cli("opt", "--scenario", ref_file, "--allocation", "--out", str(out)) == 0
    data = load(out)
    assert data["value"] == 6.0
    assert sorted(data["allocation"]) == ["a1", "a2", "a3"]


def test_preprocess_subcommand(ref_file, tmp_path):
    out = tmp_path / "pre.json"
    assert run_cli("preprocess", "--scenario", ref_file, "--out", str(out)) == 0
    data = load(out)
    assert data["null_goods_removed"] == 1
    assert "stage_counts" in data


def test_exact_subcommand(ref_file, tmp_path):
    out = tmp_path / "exact.json"
    assert run_cli("exact", "--scenario", ref_file, "--threads", "1", "--out", str(out)) == 0
    rep = sa.ShapleyReport.load(str(out))
    assert [r.value for r in rep.agents] == [2.5, 2.5, 1.0]


def test_exact_limit_flag(ref_file, tmp_path):
    assert run_cli("exact", "--scenario", ref_file, "--limit", "2") == 2


def test_exact_raised_limit_runs_a_long_path(tmp_path):
    # 45 agents in a path: 1,035 connected coalitions, one job per root
    n = 45
    ids = [f"a{i}" for i in range(n)]
    goods = [(f"g{i}", 1.0) for i in range(n - 1)]
    interest = {a: [f"g{j}" for j in (i - 1, i) if 0 <= j < n - 1] for i, a in enumerate(ids)}
    path = tmp_path / "path45.json"
    sa.save_scenario(sa.AllocationScenario(ids, goods, interest, k=1), str(path))
    out = tmp_path / "exact.json"
    assert run_cli("exact", "--scenario", str(path), "--limit", "50", "--threads", "1",
                   "--out", str(out)) == 0
    assert len(sa.ShapleyReport.load(str(out)).agents) == n


def test_components_over_62_agents_fail_cleanly(tmp_path, capsys):
    # exact and solve refuse a component of more than 62 agents at once,
    # whatever the limit, instead of enumerating it
    agents = [f"a{i}" for i in range(63)]
    path = tmp_path / "clique63.json"
    sa.save_scenario(sa.AllocationScenario(
        agents, [("g", 1.0)], {a: ["g"] for a in agents}, k=1), str(path))
    assert run_cli("exact", "--scenario", str(path), "--limit", "100", "--threads", "1") == 2
    assert "error:" in capsys.readouterr().err
    # the third residual component of this draw has 90 agents, the two
    # before it fewer than 10
    path = tmp_path / "funnel600.json"
    sa.save_scenario(sa.generate(**{**FUNNEL, "agents": 600, "seed": 1}), str(path))
    assert run_cli("solve", "--scenario", str(path), "--exact-limit", "100",
                   "--threads", "1", "--out", str(tmp_path / "rep.json")) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "90 agents" in err


def test_bounds_subcommand(ref_file, tmp_path):
    out = tmp_path / "bounds.json"
    assert run_cli("bounds", "--scenario", ref_file,
                   "--threads", "1", "--out", str(out)) == 0
    rep = sa.ShapleyReport.load(str(out))
    got = {r.agent: (r.lb, r.ub) for r in rep.agents}
    assert got["a3"] == (1.0, 1.0)


def test_bounds_agent_filter(ref_file, tmp_path):
    out = tmp_path / "bounds.json"
    assert run_cli("bounds", "--scenario", ref_file, "--agents", "a1,a3",
                   "--threads", "1", "--out", str(out)) == 0
    rep = sa.ShapleyReport.load(str(out))
    assert [r.agent for r in rep.agents] == ["a1", "a3"]


def test_bounds_unknown_agent_fails_cleanly(ref_file, capsys):
    assert run_cli("bounds", "--scenario", ref_file, "--agents", "a1,nosuch",
                   "--threads", "1") == 2
    assert "error:" in capsys.readouterr().err


def test_solve_passes_exact_limit_to_exact_solver(ref_file, tmp_path, monkeypatch):
    limits = []
    exact_shapley = sa.exact_shapley

    def spy(scenario, cache=None, workers=1, limit=sa.exact.DEFAULT_LIMIT):
        limits.append(limit)
        return exact_shapley(scenario, cache, workers=workers, limit=limit)

    monkeypatch.setattr("shapalloc.pipeline.exact_shapley", spy)
    assert run_cli("solve", "--scenario", ref_file, "--exact-limit", "28",
                   "--threads", "1", "--out", str(tmp_path / "solve.json")) == 0
    assert limits == [28]


def test_fpras_subcommand(ref_file, tmp_path):
    out = tmp_path / "fpras.json"
    assert run_cli("fpras", "--scenario", ref_file, "--epsilon", "0.3",
                   "--delta", "0.1", "--seed", "5", "--threads", "1",
                   "--out", str(out)) == 0
    rep = sa.ShapleyReport.load(str(out))
    assert rep.total() == pytest.approx(6.0, rel=1e-9)


def test_range_sample_subcommand_with_lb_file(ref_file, tmp_path):
    bounds_path = tmp_path / "bounds.json"
    run_cli("bounds", "--scenario", ref_file, "--threads", "1", "--out", str(bounds_path))
    out = tmp_path / "range.json"
    assert run_cli("range-sample", "--scenario", ref_file, "--epsilon", "0.1",
                   "--delta", "0.05", "--mode", "rel", "--lb-file", str(bounds_path),
                   "--seed", "2", "--threads", "1", "--out", str(out)) == 0
    rep = sa.ShapleyReport.load(str(out))
    assert rep.by_agent()["a3"].samples == 0


def test_range_sample_flat_lb_map(ref_file, tmp_path):
    lb_path = tmp_path / "lbs.json"
    lb_path.write_text(json.dumps({"a1": 2.0, "a2": 2.0, "a3": 1.0}))
    out = tmp_path / "range.json"
    assert run_cli("range-sample", "--scenario", ref_file, "--epsilon", "0.1",
                   "--delta", "0.05", "--mode", "rel", "--lb-file", str(lb_path),
                   "--seed", "2", "--threads", "1", "--out", str(out)) == 0


@pytest.mark.parametrize("body", [
    {"agents": [{"lb": 1.0}]},
    {"agents": [1, 2]},
    {"a1": None},
], ids=["record_without_agent", "record_not_an_object", "null_bound"])
def test_range_sample_malformed_lb_file_fails_cleanly(ref_file, tmp_path, capsys, body):
    lb_path = tmp_path / "lbs.json"
    lb_path.write_text(json.dumps(body))
    assert run_cli("range-sample", "--scenario", ref_file, "--epsilon", "0.1",
                   "--delta", "0.05", "--mode", "rel", "--lb-file", str(lb_path),
                   "--threads", "1") == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("epsilon", ["inf", "nan"])
def test_range_sample_non_finite_epsilon_fails_cleanly(ref_file, capsys, epsilon):
    assert run_cli("range-sample", "--scenario", ref_file, "--epsilon", epsilon,
                   "--delta", "0.05", "--threads", "1") == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ("fpras", "--epsilon", "1e-170"), ("fpras", "--epsilon", "1e-160"),
    ("range-sample", "--epsilon", "1e-170"), ("range-sample", "--epsilon", "1e-160"),
    ("solve", "--epsilon", "1e-170"),
])
def test_epsilon_without_a_finite_budget_fails_cleanly(ref_file, capsys, command):
    # epsilon squared underflows to 0 (1e-170) or the budget overflows (1e-160)
    assert run_cli(*command, "--scenario", ref_file, "--delta", "0.1", "--threads", "1") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "epsilon" in err and "Traceback" not in err


def test_relative_epsilon_without_a_finite_budget_fails_cleanly(tmp_path, capsys):
    # agent x's lower bound, its grand marginal, is 1e-170, so its target
    # 0.3e-170 squared underflows to 0
    path = tmp_path / "tiny.json"
    sa.save_scenario(sa.AllocationScenario(
        ["x", "y"], [("g", 2e-170), ("h", 1e-170)], {"x": ["g", "h"], "y": ["g"]}, k=1
    ), str(path))
    assert run_cli("range-sample", "--scenario", str(path), "--epsilon", "0.3",
                   "--delta", "0.1", "--mode", "rel", "--threads", "1") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: agent 'x': epsilon") and "Traceback" not in err


@pytest.mark.parametrize("command", [
    ("solve",), ("fpras", "--epsilon", "0.3", "--delta", "0.1"),
    ("range-sample", "--epsilon", "0.3", "--delta", "0.1"),
])
def test_negative_seed_fails_cleanly(ref_file, capsys, command):
    # solve sends the reference game to the exact solver, and still checks
    assert run_cli(*command, "--scenario", ref_file, "--seed", "-1", "--threads", "1") == 2
    assert capsys.readouterr().err.startswith("error: seed must be")


@pytest.mark.parametrize("flag, value", [("--epsilon", "-1"), ("--delta", "5")])
def test_solve_bad_epsilon_or_delta_fails_cleanly(ref_file, capsys, flag, value):
    # the reference game goes to the exact solver, so no sampler would see it
    assert run_cli("solve", "--scenario", ref_file, "--sampler", "range",
                   flag, value, "--threads", "1") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag[2:] in err


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_threads_below_one_rejected(ref_file, capsys, threads):
    with pytest.raises(SystemExit) as exc:
        run_cli("exact", "--scenario", ref_file, "--threads", threads)
    assert exc.value.code == 2
    assert "error: argument --threads: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("env", ["abc", "0", "-2"])
def test_bad_threads_environment_fails_cleanly(ref_file, capsys, monkeypatch, env):
    monkeypatch.setenv("SHAPALLOC_THREADS", env)
    assert run_cli("exact", "--scenario", ref_file) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: SHAPALLOC_THREADS must be a positive integer")


def test_bad_threads_environment_spares_commands_without_workers(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SHAPALLOC_THREADS", "abc")
    assert run_cli("generate", "--agents", "3", "--out", str(tmp_path / "g.json")) == 0
    assert sa.load_scenario(str(tmp_path / "g.json")).n == 3
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("shapalloc ")
    args = build_parser().parse_args(["solve", "--scenario", "s.json", "--threads", "1"])
    assert args.threads == 1 and isinstance(args.threads, int)


def test_mistyped_scenario_record_fails_cleanly(tmp_path, capsys):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({
        "k": 1, "goods": [{"id": "g", "value": None}], "agents": [{"id": "x", "interest": ["g"]}],
    }))
    assert run_cli("opt", "--scenario", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "good 'g' has a non-numeric value None" in err


def test_solve_routes_small_component_exactly(ref_file, tmp_path):
    out = tmp_path / "solve.json"
    csv_path = tmp_path / "plot.csv"
    assert run_cli("solve", "--scenario", ref_file, "--threads", "1",
                   "--out", str(out), "--plot-csv", str(csv_path)) == 0
    rep = sa.ShapleyReport.load(str(out))
    values = {r.agent: r.value for r in rep.agents}
    assert values == {"a1": 2.5, "a2": 2.5, "a3": 1.0}
    assert rep.total() == pytest.approx(6.0)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "agent,exact,lb,ub,estimate"
    assert len(lines) == 4


def test_solve_fully_separable_runs_no_sampler(tmp_path):
    scn_path = tmp_path / "scn.json"
    run_cli("generate", "--agents", "10", "--coauthor-prob", "0.0",
            "--seed", "1", "--out", str(scn_path))
    out = tmp_path / "solve.json"
    assert run_cli("solve", "--scenario", str(scn_path), "--threads", "1",
                   "--out", str(out)) == 0
    rep = sa.ShapleyReport.load(str(out))
    assert rep.meta["components_sampled"] == 0
    assert all(r.method in ("separable", "exact") for r in rep.agents)


def test_solve_sampled_component_estimates_stay_in_bounds(tmp_path):
    scn_path = tmp_path / "scn.json"
    run_cli("generate", "--agents", "40", "--coauthor-prob", "0.5",
            "--max-claimers", "2", "--seed", "11", "--out", str(scn_path))
    out = tmp_path / "solve.json"
    assert run_cli("solve", "--scenario", str(scn_path), "--exact-limit", "4",
                   "--sampler", "fpras", "--epsilon", "0.4", "--delta", "0.1",
                   "--seed", "4", "--threads", "1", "--out", str(out)) == 0
    rep = sa.ShapleyReport.load(str(out))
    assert rep.meta["components_sampled"] > 0
    for rec in rep.agents:
        if rec.kind == "estimate" and rec.lb is not None:
            assert rec.lb - 1e-12 <= rec.value <= rec.ub + 1e-12


def test_compare_identical_reports(ref_file, tmp_path):
    rep_path = tmp_path / "rep.json"
    run_cli("exact", "--scenario", ref_file, "--threads", "1", "--out", str(rep_path))
    out = tmp_path / "cmp.json"
    assert run_cli("compare", "--report-a", str(rep_path), "--report-b", str(rep_path),
                   "--out", str(out)) == 0
    data = load(out)
    assert data["max_rel_error"] == 0.0
    assert data["mean_rel_error"] == 0.0


def test_compare_threshold_exit_code(ref_file, tmp_path):
    exact_path = tmp_path / "exact.json"
    fpras_path = tmp_path / "fpras.json"
    run_cli("exact", "--scenario", ref_file, "--threads", "1", "--out", str(exact_path))
    run_cli("fpras", "--scenario", ref_file, "--epsilon", "0.9", "--delta", "0.5",
            "--runs", "1", "--seed", "1", "--threads", "1", "--out", str(fpras_path))
    # identical agents, some error; a zero threshold trips unless exactly equal
    rc = run_cli("compare", "--report-a", str(fpras_path), "--report-b", str(exact_path),
                 "--threshold", "1e-12")
    data = sa.ShapleyReport.load(str(fpras_path))
    exact = sa.ShapleyReport.load(str(exact_path))
    differs = [r.value for r in data.agents] != [r.value for r in exact.agents]
    assert rc == (1 if differs else 0)


def test_compare_mismatched_agents_fails(ref_file, tmp_path):
    rep_path = tmp_path / "rep.json"
    run_cli("exact", "--scenario", ref_file, "--threads", "1", "--out", str(rep_path))
    other = sa.ShapleyReport(
        agents=[sa.AgentResult(agent="zz", kind="exact", method="exact", value=1.0)]
    )
    other_path = tmp_path / "other.json"
    other.save(str(other_path))
    assert run_cli("compare", "--report-a", str(rep_path), "--report-b", str(other_path)) == 2


def test_compare_malformed_report_fails_cleanly(ref_file, tmp_path, capsys):
    rep_path = tmp_path / "rep.json"
    run_cli("exact", "--scenario", ref_file, "--threads", "1", "--out", str(rep_path))
    record = load(rep_path)["agents"][0]
    bad_reports = {
        "unknown_key": {"agents": [{**record, "bogus": 1}]},
        "missing_key": {"agents": [{k: v for k, v in record.items() if k != "kind"}]},
        "not_an_object": [record],
    }
    for name, data in bad_reports.items():
        bad_path = tmp_path / f"{name}.json"
        bad_path.write_text(json.dumps(data))
        assert run_cli("compare", "--report-a", str(rep_path),
                       "--report-b", str(bad_path)) == 2, name
        assert "error:" in capsys.readouterr().err, name


def test_compare_non_numeric_field_fails_cleanly(ref_file, tmp_path, capsys):
    rep_path = tmp_path / "rep.json"
    run_cli("exact", "--scenario", ref_file, "--threads", "1", "--out", str(rep_path))
    record = load(rep_path)["agents"][0]
    bad_fields = {
        "value_string": {"value": "abc"},
        "lb_list": {"lb": [1.0]},
        "epsilon_bool": {"epsilon": True},
        "delta_object": {"delta": {"p": 0.1}},
        "samples_float": {"samples": 2.5},
        "samples_bool": {"samples": False},
        "fallback_number": {"fallback": 1},
        "agent_number": {"agent": 7},
    }
    for name, fields in bad_fields.items():
        bad_path = tmp_path / f"{name}.json"
        bad_path.write_text(json.dumps({"agents": [{**record, **fields}]}))
        assert run_cli("compare", "--report-a", str(rep_path),
                       "--report-b", str(bad_path)) == 2, name
        assert "error:" in capsys.readouterr().err, name
    # JSON's non-finite number tokens are no numbers either
    bad_path = tmp_path / "value_nan.json"
    bad_path.write_text(json.dumps({"agents": [{**record, "value": float("nan")}]}))
    assert run_cli("compare", "--report-a", str(rep_path), "--report-b", str(bad_path)) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_reports_error(tmp_path, capsys):
    assert run_cli("exact", "--scenario", str(tmp_path / "nope.json")) == 2
    assert "error:" in capsys.readouterr().err


# a JSON integer too large for a float: 10**400 overflows float()
HUGE = 10**400


def test_scenario_value_beyond_float_range_fails_cleanly(tmp_path, capsys):
    data = three_agent_game().to_dict()
    data["goods"][0]["value"] = HUGE
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    assert run_cli("opt", "--scenario", str(path)) == 2
    err = capsys.readouterr().err
    assert "error:" in err and repr(data["goods"][0]["id"]) in err


def test_range_sample_lower_bound_beyond_float_range_fails_cleanly(ref_file, tmp_path, capsys):
    lb_path = tmp_path / "lbs.json"
    lb_path.write_text(json.dumps({"a1": HUGE, "a2": 2.0, "a3": 1.0}))
    assert run_cli("range-sample", "--scenario", ref_file, "--epsilon", "0.1",
                   "--delta", "0.05", "--mode", "rel", "--lb-file", str(lb_path),
                   "--threads", "1") == 2
    err = capsys.readouterr().err
    assert "error:" in err and "'a1'" in err


def test_compare_value_beyond_float_range_fails_cleanly(ref_file, tmp_path, capsys):
    rep_path = tmp_path / "rep.json"
    run_cli("exact", "--scenario", ref_file, "--threads", "1", "--out", str(rep_path))
    record = load(rep_path)["agents"][0]
    bad_path = tmp_path / "huge.json"
    bad_path.write_text(json.dumps({"agents": [{**record, "value": HUGE}]}))
    assert run_cli("compare", "--report-a", str(rep_path), "--report-b", str(bad_path)) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "'value'" in err


def test_bad_json_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"k": 1\n "goods": []}')
    assert run_cli("opt", "--scenario", str(path)) == 2
    assert "line" in capsys.readouterr().err


# files no JSON reader can turn into a value: an integer beyond Python's
# digit limit, a truncated text, and UTF-16 bytes (starting \xff\xfe)
UNREADABLE_JSON = {
    "long_integer": b'{"k": 1, "goods": [{"id": "g", "value": ' + b"9" * 5001 + b"}]}",
    "truncated": b'{"agents": [{"agent": ',
    "utf16": json.dumps({"k": 1}).encode("utf-16"),
}


def _unreadable(tmp_path, name) -> str:
    path = tmp_path / f"{name}.json"
    path.write_bytes(UNREADABLE_JSON[name])
    return str(path)


@pytest.mark.parametrize("name", sorted(UNREADABLE_JSON))
def test_unreadable_scenario_names_the_file(tmp_path, capsys, name):
    path = _unreadable(tmp_path, name)
    assert run_cli("opt", "--scenario", path) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("name", sorted(UNREADABLE_JSON))
def test_unreadable_lb_file_names_the_file(ref_file, tmp_path, capsys, name):
    path = _unreadable(tmp_path, name)
    assert run_cli("range-sample", "--scenario", ref_file, "--epsilon", "0.1",
                   "--delta", "0.05", "--mode", "rel", "--lb-file", path,
                   "--threads", "1") == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("name", sorted(UNREADABLE_JSON))
def test_unreadable_report_names_the_file(ref_file, tmp_path, capsys, name):
    rep_path = tmp_path / "rep.json"
    run_cli("exact", "--scenario", ref_file, "--threads", "1", "--out", str(rep_path))
    path = _unreadable(tmp_path, name)
    assert run_cli("compare", "--report-a", str(rep_path), "--report-b", path) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "shapalloc.cli", "--version"],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "shapalloc" in proc.stdout


def test_import_loads_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, shapalloc; print('scipy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_loads_no_pool_or_fraction_modules():
    # the process pool's modules load only when a pool starts, and exact
    # weights need no fractions
    code = (
        "import sys, shapalloc, shapalloc.cli\n"
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures', 'fractions')"
        " if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_loop_mode_fpras_loads_no_numpy_ma():
    # np.median imports numpy.ma on first use, 10-20 ms in a fresh process
    code = (
        "import sys, shapalloc as sa\n"
        "scn = sa.generate(agents=16, coauthor_prob=0.5, k=2, seed=3)\n"
        "cfg = sa.FprasConfig(epsilon=0.9, delta=0.9, runs=2)\n"
        "print(sa.fpras_shapley(scn, cfg=cfg).meta['mode'], 'numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "loop False"


def test_only_the_cli_prints():
    # the package reports through return values and logging; output to the
    # terminal belongs to the command line alone
    calls = []
    for path in sorted((SRC / "shapalloc").rglob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "print"):
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


BLAS_CALLS = {"dot", "vdot", "matmul", "inner", "einsum", "tensordot"}


def test_no_blas_calls():
    # solver sums must not depend on the BLAS thread count: OpenBLAS splits
    # a long dot product over its threads, and the split changes the last
    # bits, so the package sums with numpy reductions instead
    calls = []
    for path in sorted((SRC / "shapalloc").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                calls.append(f"{path.name}:{node.lineno} @")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in BLAS_CALLS):
                calls.append(f"{path.name}:{node.lineno} {node.func.attr}")
    assert calls == []


def _annotation_names(node: ast.AST) -> set[str]:
    """Names inside an annotation, quoted ones included."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names |= _annotation_names(ast.parse(sub.value, mode="eval"))
    return names


def test_no_unused_imports():
    # the package and the tests; __init__.py imports to re-export, so it is left out
    unused = []
    paths = sorted((SRC / "shapalloc").glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    for path in paths:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported: dict[str, int] = {}
        used: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
                if ann is not None:
                    used |= _annotation_names(ann)
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []
