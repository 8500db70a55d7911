"""Benchmark of `shapalloc solve`, end to end and layer by layer.

    python3 perfbench/run.py --workload market --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src``.  The workload's scenario is generated from ``--seed`` by the
benchmark's own code (``inputs.py``) and written to a temporary directory
inside the checkout, which is removed at the end.

``--trace 0`` measures the end-to-end metrics.  Fresh processes first time
set-up alone (``import shapalloc`` plus ``load_scenario``); then, until
``--seconds`` have passed, each solve runs in a fresh process through
``shapalloc.cli.main(["solve", ...])`` with ``--threads 1`` and the default
thread environment.  Timings are medians over those processes.  Every
report is checked outside the timed region.

``--trace 1`` runs one checked solve, then the traced run (``traced.py``),
and prints the per-layer metrics.  The traced run's values must equal the
solve report's bit for bit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"
sys.path.insert(0, str(HERE))

import intervals  # noqa: E402
from inputs import (  # noqa: E402
    cluster_market, fingerprint, funnel_market, relabel, relabeled_agents, scenario_text,
)

SETUP_PROBES = 3
MIN_SOLVES = 3
CHILD_TIMEOUT_S = 150
EXACT_TOTAL_REL_TOL = 1e-9
# the estimates' total against v of their agents, as acceptance criterion 8
# allows the range sampler's total on a component
SAMPLED_TOTAL_REL_TOL = 0.25


@dataclass(frozen=True)
class Workload:
    base: Callable[[], dict]  # one fixed draw of the workload's law
    solve_args: tuple[str, ...]
    sampled: bool  # some component goes to bounds plus a sampler
    # file under REFERENCE_DIR with per-agent values of the base draw,
    # made by reference.py
    reference: str | None = None

    def make(self, seed: int) -> dict:
        return relabel(self.base(), seed)

    def reference_values(self, seed: int) -> dict[str, float] | None:
        """The stored reference values under the seed's agent names."""
        if self.reference is None:
            return None
        stored = json.loads((REFERENCE_DIR / self.reference).read_text())["values"]
        names = relabeled_agents(self.base(), seed)
        return {names[a]: v for a, v in stored.items()}


# Each workload is one fixed draw of its law, shuffled and renamed by the
# seed, so the game is the same up to isomorphism across seeds.  Fresh draws
# move solve time more than the bounds allow: over 20 draws of the
# 1,000-agent funnel law the largest residual component ranged from 57 to
# 310 agents, and solve time over 6 draws from 5.3 to 12.9 s.
WORKLOADS = {
    # the paper's target shape: preprocessing, large matchings, bounds and
    # the range sampler on one dominant component (187 agents); draw 18 is
    # the median of those 20 draws
    "market": Workload(
        base=partial(funnel_market, 18, agents=1000),
        solve_args=("--sampler", "range", "--epsilon", "0.3", "--delta", "0.01",
                    "--exact-limit", "16"),
        sampled=True,
    ),
    # every component goes to exact enumeration: char_value's split, the
    # cache and tiny dense matchings; in draw 2 preprocessing cuts no cluster.
    # Not listed in BENCHMARK.json: exact's second OpenBLAS thread competes
    # for the other CPU of a 2-CPU machine, and the quartile spread of
    # solve_s over ten seeds reached 0.30 there.
    "exact_batch": Workload(
        base=partial(cluster_market, 2, clusters=8, size=16),
        solve_args=(),
        sampled=False,
    ),
    # bounds plus the permutation sampler in loop mode on mid-size
    # components; in draw 3 some agents are certified, so
    # certified_fraction is not 0.  The sampler rescales its estimates to
    # sum to v(component), so the estimates' total is right by construction;
    # each value is checked against the stored reference instead
    "fpras_mid": Workload(
        base=partial(cluster_market, 3, clusters=2, size=28),
        solve_args=("--sampler", "fpras", "--epsilon", "0.8", "--delta", "0.04"),
        sampled=True,
        reference="fpras_mid.json",
    ),
}

END_TO_END = {
    "solve_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "certified_fraction": "ratio",
}

# 0 whenever the benchmark passes, so it is printed but is not a metric of
# the result line; that line's "failed" and "attempted" carry the same count
PRINTED_ONLY = {"failed_fraction": "ratio"}

_SOLVERS = ("exact", "bounds", "range", "fpras")
PER_LAYER = {
    "cli.solve_self_s": "s",
    "model.load_scenario_s": "s",
    "model.char_value_us": "us",
    "model.marginal_restricted_us": "us",
    **{f"model.cache_hit_rate.{s}": "ratio" for s in _SOLVERS},
    **{f"model.cache_entries.{s}": "count" for s in _SOLVERS},
    "matching.value_us.le12": "us",
    "matching.value_us.13to40": "us",
    "matching.value_us.gt40": "us",
    "matching.marginal_gain_us": "us",
    **{f"matching.calls.{s}": "count" for s in ("preprocess", *_SOLVERS)},
    "preprocess.separate_singletons_s": "s",
    "preprocess.prune_useless_goods_s": "s",
    "preprocess.rest_s": "s",
    "preprocess.matchings": "count",
    "preprocess.resolved_fraction": "ratio",
    "exact.us_per_mask": "us",
    "exact.masks": "count",
    "exact.cpu_per_wall": "ratio",
    "bounds.ms_per_agent": "ms",
    "bounds.matchings_per_agent": "count",
    "bounds.collapsed_fraction": "ratio",
    "bounds.fallbacks": "count",
    "sampling.range.us_per_sample": "us",
    "sampling.range.samples": "count",
    "sampling.range.matchings_per_sample": "count",
    "sampling.range.samples_on_certified": "count",
    "sampling.fpras.us_per_contribution": "us",
    "sampling.fpras.contributions": "count",
    "sampling.fpras.shortcut_fraction": "ratio",
    "sampling.fpras.matchings_per_contribution": "count",
    "pool.speedup_2w": "ratio",
    "trace.overhead_frac": "ratio",
}


class ChildFailed(RuntimeError):
    """A benchmark child process exited abnormally or printed no result."""


def run_child(script: str, *args: str) -> dict:
    """Run one fresh Python process of the benchmark; parse its last line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(HERE / script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{script} {args[0]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def timed_child(script: str, *args: str) -> dict:
    """run_child plus ``setup_s``: process start to set-up done."""
    t0 = time.monotonic()
    out = run_child(script, *args)
    out["setup_s"] = out["setup_done"] - t0
    return out


class ReportChecker:
    """Checks of one workload's solve reports, made outside any timed region."""

    def __init__(self, scenario_path: str, sampled: bool,
                 reference: dict[str, float] | None):
        import shapalloc as sa

        self.scn = sa.load_scenario(scenario_path)
        self.char_value = sa.char_value
        self.sampled = sampled
        self.reference = reference
        self.digest: str | None = None

    def value_of(self, recs: list[dict]) -> float:
        """v of the coalition of the records' agents."""
        return self.char_value(self.scn, self.scn.mask_of(r["agent"] for r in recs))

    def check_total(self, what: str, recs: list[dict], tol: float) -> list[str]:
        """The records' values sum to v of their agents within ``tol`` relative."""
        if not recs:
            return []
        total = math.fsum(r["value"] for r in recs)
        target = self.value_of(recs)
        if abs(total - target) > tol * max(1.0, abs(target)):
            return [f"{what} total {total!r} vs v {target!r} beyond rel {tol}"]
        return []

    def check(self, report: dict) -> list[str]:
        """Failed checks of one report; empty when it passes."""
        problems = []
        recs = report["agents"]
        names = [r["agent"] for r in recs]
        if len(names) != len(set(names)) or set(names) != set(self.scn.agents):
            problems.append("agents do not appear exactly once each")
            return problems
        if not all(isinstance(r["value"], float) and math.isfinite(r["value"]) for r in recs):
            problems.append("a value is missing or not finite")
            return problems
        for r in recs:
            if r["lb"] is None or r["ub"] is None:
                continue
            if not intervals.contains(r["lb"], r["ub"], r["value"]):
                problems.append(f"agent {r['agent']}: value outside [lb, ub]")
        if not self.sampled:
            problems += self.check_total("report", recs, EXACT_TOTAL_REL_TOL)
        # exact-routed components are disjoint games, so v adds up over them
        problems += self.check_total(
            "exact", [r for r in recs if r["method"] == "exact"], EXACT_TOTAL_REL_TOL
        )
        problems += self.check_total(
            "estimate", [r for r in recs if r["kind"] == "estimate"], SAMPLED_TOTAL_REL_TOL
        )
        if self.reference is not None:
            for r in recs:
                ref = self.reference[r["agent"]]
                if r["kind"] == "estimate" and abs(r["value"] - ref) > r["epsilon"] * abs(ref):
                    problems.append(f"agent {r['agent']}: {r['value']!r} vs reference {ref!r}"
                                    f" beyond rel {r['epsilon']}")
        digest = hashlib.sha256(json.dumps(recs, sort_keys=True).encode()).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append("report digest differs from the first repetition")
        return problems


def certified_fraction(report: dict) -> float:
    """Share of agents reported exact or with a collapsed interval."""
    recs = report["agents"]
    return sum(
        1 for r in recs if r["kind"] == "exact" or intervals.collapsed(r["lb"], r["ub"])
    ) / len(recs)


def solve_once(scenario: str, out: str, wl: Workload, seed: int,
               checker: ReportChecker) -> tuple[dict, dict, list[str]]:
    args = [*wl.solve_args, "--seed", str(seed), "--threads", "1", "--out", out]
    sample = timed_child("child.py", "solve", scenario, "--", *args)
    if sample["rc"] != 0:
        return sample, {}, [f"solve exited {sample['rc']}"]
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    return sample, report, checker.check(report)


def measure(scenario: str, work: Path, wl: Workload, seed: int, seconds: int,
            checker: ReportChecker) -> tuple[dict, int, int]:
    run_child("child.py", "setup", scenario)  # warm-up: bytecode and page cache
    setups = [timed_child("child.py", "setup", scenario)["setup_s"] for _ in range(SETUP_PROBES)]
    # only solves that pass every check enter the medians
    passed, attempted, certified = [], 0, []
    t_end = time.monotonic() + seconds
    while attempted < MIN_SOLVES or time.monotonic() < t_end:
        sample, report, problems = solve_once(scenario, str(work / "report.json"), wl, seed, checker)
        attempted += 1
        if problems:
            print(f"check failed: {'; '.join(problems)}", file=sys.stderr)
            continue
        passed.append(sample)
        setups.append(sample["setup_s"])
        certified.append(certified_fraction(report))
    if not passed:
        raise ChildFailed("every solve failed its checks")
    metrics = {
        name: statistics.median(s[name] for s in passed)
        for name in ("solve_s", "cpu_s", "peak_rss_mb")
    }
    metrics["setup_s"] = statistics.median(setups)
    metrics["certified_fraction"] = statistics.median(certified)
    failed = attempted - len(passed)
    metrics["failed_fraction"] = failed / attempted
    print(f"solves={attempted} failed={failed}")
    return metrics, attempted, failed


def trace(scenario: str, work: Path, wl: Workload, seed: int,
          checker: ReportChecker) -> tuple[dict, int, int]:
    sample, report, problems = solve_once(scenario, str(work / "report.json"), wl, seed, checker)
    traced = run_child("traced.py", scenario, str(work / "traced.json"), "--",
                       *wl.solve_args, "--seed", str(seed), "--threads", "1")
    traced_problems = []
    if traced["values"] != {r["agent"]: r["value"] for r in report.get("agents", [])}:
        traced_problems.append("traced values differ from the solve report")
    if not traced["pool_identical"]:
        traced_problems.append("exact values differ between 1 and 2 workers")
    for p in problems + traced_problems:
        print(f"check failed: {p}", file=sys.stderr)
    metrics = traced["metrics"]
    metrics["trace.overhead_frac"] = traced["traced_total_s"] / sample["solve_s"] - 1.0
    return metrics, 2, int(bool(problems)) + int(bool(traced_problems))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through the exception path on SIGTERM, so subprocess.run kills and
    # reaps the running child and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "shapalloc" / "__init__.py").is_file():
        print(f"error: no shapalloc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]

    scenario = wl.make(args.seed)
    text = scenario_text(scenario)
    fp = fingerprint(scenario, text)
    print(f"workload={args.workload} seed={args.seed} solve_args={' '.join(wl.solve_args) or '(defaults)'}")
    print("input " + " ".join(f"{k}={v}" for k, v in fp.items()))

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        work = Path(tmp)
        path = str(work / "scenario.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        checker = ReportChecker(path, wl.sampled, wl.reference_values(args.seed))
        try:
            if args.trace:
                metrics, attempted, failed = trace(path, work, wl, args.seed, checker)
            else:
                metrics, attempted, failed = measure(path, work, wl, args.seed, args.seconds, checker)
        except (ChildFailed, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    units = PER_LAYER if args.trace else END_TO_END
    for name, unit in (units if args.trace else {**units, **PRINTED_ONLY}).items():
        print(f"{name:45s} {metrics[name]:>16.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
