"""Command-line interface: one subcommand per pipeline stage plus `solve`.

All I/O uses the canonical JSON formats: scenario files in, report files
out.  `solve` loads a scenario, runs ``pipeline.solve`` on it (simplify,
route each residual component to the exact solver or to bounds plus a
sampler, merge one report), and writes the report and, optionally, a CSV
table for plotting.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import __version__
from ._pool import default_workers
from .bounds import DEFAULT_MAX_NEIGH, shapley_bounds
from .exact import DEFAULT_LIMIT, exact_shapley
from .model import ScenarioError, load_scenario
from .matching import optimal_allocation
from .pipeline import SAMPLERS, solve
from .preprocess import run_pipeline
from .report import ShapleyReport, finite_number
from .sampling import FprasConfig, RangeSamplerConfig, fpras_shapley, range_sampler_shapley
from .generator import extract_subgraph, generate


def _emit(data: dict, out: str | None) -> None:
    text = json.dumps(data, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_generate(args) -> int:
    scn = generate(
        agents=args.agents,
        goods_per_agent=args.goods_per_agent,
        coauthor_prob=args.coauthor_prob,
        value_set=tuple(args.value_set),
        value_weights=tuple(args.value_weights) if args.value_weights else None,
        k=args.k,
        seed=args.seed,
        max_claimers=args.max_claimers,
    )
    _emit(scn.to_dict(), args.out)
    return 0


def cmd_extract(args) -> int:
    scn = load_scenario(args.scenario)
    sub = extract_subgraph(scn, args.size, seed=args.seed)
    _emit(sub.to_dict(), args.out)
    return 0


def cmd_preprocess(args) -> int:
    scn = load_scenario(args.scenario)
    report = run_pipeline(scn)
    _emit(report.to_dict(), args.out)
    return 0


def cmd_components(args) -> int:
    scn = load_scenario(args.scenario)
    comps = scn.graph.components()
    data = {
        "agents": scn.n,
        "components": [
            {"size": mask.bit_count(), "agents": list(scn.ids_of(mask))}
            for mask in comps
        ],
    }
    _emit(data, args.out)
    return 0


def cmd_opt(args) -> int:
    scn = load_scenario(args.scenario)
    alloc, value = optimal_allocation(scn, scn.full_mask)
    data = {"value": value}
    if args.allocation:
        data["allocation"] = {a: sorted(g) for a, g in alloc.items()}
    _emit(data, args.out)
    return 0


def cmd_exact(args) -> int:
    scn = load_scenario(args.scenario)
    report = exact_shapley(scn, workers=args.threads, limit=args.limit)
    _emit(report.to_dict(), args.out)
    return 0


def cmd_bounds(args) -> int:
    scn = load_scenario(args.scenario)
    agents = args.agents.split(",") if args.agents else None
    report = shapley_bounds(
        scn,
        agents=agents,
        max_neigh=args.max_neigh,
        workers=args.threads,
    )
    _emit(report.to_dict(), args.out)
    return 0


def cmd_fpras(args) -> int:
    scn = load_scenario(args.scenario)
    cfg = FprasConfig(
        epsilon=args.epsilon,
        delta=args.delta,
        runs=args.runs,
        seed=args.seed,
        workers=args.threads,
    )
    report = fpras_shapley(scn, cfg=cfg)
    _emit(report.to_dict(), args.out)
    return 0


def _load_lower_bounds(path: str) -> dict[str, float]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "agents" in data:  # a bounds report
        report = ShapleyReport.from_dict(data)
        bounds = {r.agent: r.lb for r in report.agents if r.lb is not None}
    elif isinstance(data, dict):
        bounds = data
    else:
        raise ScenarioError(f"{path}: expected a bounds report or an agent->bound map")
    for agent, lb in bounds.items():
        if not finite_number(lb):
            raise ScenarioError(
                f"{path}: lower bound of agent {agent!r} is not a finite number: {lb!r}"
            )
    return {str(a): float(lb) for a, lb in bounds.items()}


def cmd_range_sample(args) -> int:
    scn = load_scenario(args.scenario)
    lbs = _load_lower_bounds(args.lb_file) if args.lb_file else None
    cfg = RangeSamplerConfig(
        epsilon=args.epsilon,
        delta=args.delta,
        mode=args.mode,
        lower_bounds=lbs,
        seed=args.seed,
        workers=args.threads,
    )
    report = range_sampler_shapley(scn, cfg=cfg)
    _emit(report.to_dict(), args.out)
    return 0


def cmd_solve(args) -> int:
    report = solve(
        load_scenario(args.scenario),
        exact_limit=args.exact_limit,
        bounds_max_neigh=args.bounds_max_neigh,
        sampler=args.sampler,
        epsilon=args.epsilon,
        delta=args.delta,
        seed=args.seed,
        threads=args.threads,
    )
    _emit(report.to_dict(), args.out)
    if args.plot_csv:
        with open(args.plot_csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["agent", "exact", "lb", "ub", "estimate"])
            for rec in report.agents:
                exact_v = rec.value if rec.kind == "exact" else ""
                est_v = rec.value if rec.kind == "estimate" else ""
                writer.writerow([
                    rec.agent,
                    exact_v,
                    "" if rec.lb is None else rec.lb,
                    "" if rec.ub is None else rec.ub,
                    est_v,
                ])
    return 0


def compare_reports(a: ShapleyReport, b: ShapleyReport) -> dict:
    """Per-agent and aggregate relative errors of report A against report B."""
    by_a, by_b = a.by_agent(), b.by_agent()
    if set(by_a) != set(by_b):
        missing = set(by_a) ^ set(by_b)
        raise ValueError(f"reports cover different agents (mismatch: {sorted(missing)})")
    agents = sorted(by_a)
    per_agent = {}
    errors = []
    for agent, va, vb in zip(agents, a.values(agents), b.values(agents)):
        if vb != 0.0:
            err = abs(va - vb) / abs(vb)
        else:
            err = 0.0 if va == 0.0 else float("inf")
        per_agent[agent] = {"a": va, "b": vb, "rel_error": err}
        errors.append(err)
    max_err = max(errors) if errors else 0.0
    mean_err = sum(errors) / len(errors) if errors else 0.0
    return {"max_rel_error": max_err, "mean_rel_error": mean_err, "agents": per_agent}


def cmd_compare(args) -> int:
    a = ShapleyReport.load(args.report_a)
    b = ShapleyReport.load(args.report_b)
    result = compare_reports(a, b)
    _emit(result, args.out)
    if args.threshold is not None and result["max_rel_error"] > args.threshold:
        return 1
    return 0


def _worker_count(text: str) -> int:
    workers = int(text)
    if workers < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {workers}")
    return workers


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shapalloc",
        description="Shapley values for capacity-constrained allocation games",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_threads(p):
        p.add_argument(
            "--threads", type=_worker_count, default=None,
            help="worker processes (default: SHAPALLOC_THREADS or CPU count)",
        )

    p = sub.add_parser("generate", help="write a synthetic scenario")
    p.add_argument("--agents", type=int, required=True)
    p.add_argument("--goods-per-agent", type=float, default=1.66)
    p.add_argument("--coauthor-prob", type=float, default=0.2)
    p.add_argument("--value-set", type=float, nargs="+", default=[0.0, 0.1, 0.4, 0.7, 1.0])
    p.add_argument("--value-weights", type=float, nargs="+", default=None)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-claimers", type=int, default=4)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("extract", help="restrict a scenario to a random agent sample")
    p.add_argument("--scenario", required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("preprocess", help="run the simplification pipeline, emit its report")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_preprocess)

    p = sub.add_parser("components", help="connected components of the agents graph")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_components)

    p = sub.add_parser("opt", help="optimal grand-coalition allocation value")
    p.add_argument("--scenario", required=True)
    p.add_argument("--allocation", action="store_true", help="include who gets what")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_opt)

    p = sub.add_parser("exact", help="exact Shapley values from every connected coalition")
    p.add_argument("--scenario", required=True)
    add_threads(p)
    p.add_argument("--limit", type=int, default=DEFAULT_LIMIT, help="max component size")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_exact)

    p = sub.add_parser("bounds", help="guaranteed per-agent Shapley intervals")
    p.add_argument("--scenario", required=True)
    p.add_argument("--agents", default=None, help="comma-separated agent ids (default all)")
    p.add_argument("--max-neigh", type=int, default=DEFAULT_MAX_NEIGH)
    add_threads(p)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("fpras", help="permutation-sampling estimates")
    p.add_argument("--scenario", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--runs", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    add_threads(p)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_fpras)

    p = sub.add_parser("range-sample", help="per-agent sample-budget estimates")
    p.add_argument("--scenario", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--mode", choices=["abs", "rel"], default="abs")
    p.add_argument("--lb-file", default=None,
                   help="bounds report or agent->lower-bound JSON map (rel mode)")
    p.add_argument("--seed", type=int, default=0)
    add_threads(p)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_range_sample)

    p = sub.add_parser("solve", help="preprocess, route components, merge one report")
    p.add_argument("--scenario", required=True)
    p.add_argument("--exact-limit", type=int, default=DEFAULT_LIMIT)
    p.add_argument("--bounds-max-neigh", type=int, default=DEFAULT_MAX_NEIGH)
    p.add_argument("--sampler", choices=SAMPLERS, default="fpras")
    p.add_argument("--epsilon", type=float, default=0.3)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    add_threads(p)
    p.add_argument("--out", default=None)
    p.add_argument("--plot-csv", default=None, help="also write agent,exact,lb,ub,estimate rows")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("compare", help="relative-error table between two reports")
    p.add_argument("--report-a", required=True)
    p.add_argument("--report-b", required=True)
    p.add_argument("--threshold", type=float, default=None,
                   help="exit nonzero if the max relative error exceeds this")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "threads", 0) is None:
            args.threads = default_workers()
        return args.fn(args)
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
