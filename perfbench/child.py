"""One fresh process of the benchmark: set-up, optionally followed by a solve.

    python3 perfbench/child.py setup SCENARIO
    python3 perfbench/child.py solve SCENARIO -- SOLVE_ARGS...

Set-up is ``import shapalloc`` plus ``load_scenario`` of the workload file.
A solve then calls the public CLI entry point ``shapalloc.cli.main`` with
``["solve", "--scenario", SCENARIO, *SOLVE_ARGS]``.  The last line of
standard output is one JSON object: the monotonic time at which set-up was
done, and for a solve its exit code, wall time, CPU time (self plus
children) and peak resident memory.
"""

import json
import resource
import sys
import time


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its waited-for children."""
    return sum(
        r.ru_utime + r.ru_stime
        for r in map(resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    )


def main(argv: list[str]) -> int:
    mode, scenario = argv[0], argv[1]
    import shapalloc
    from shapalloc.cli import main as cli_main

    shapalloc.load_scenario(scenario)
    out = {"setup_done": time.monotonic()}
    if mode == "solve":
        solve_args = argv[argv.index("--") + 1:]
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        out["rc"] = cli_main(["solve", "--scenario", scenario, *solve_args])
        out["solve_s"] = time.perf_counter() - t0
        out["cpu_s"] = cpu_seconds() - c0
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
