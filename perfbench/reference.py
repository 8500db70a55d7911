"""Make the stored per-agent reference values of the fpras_mid workload.

    python3 perfbench/reference.py

Solves the workload's base draw (before ``relabel``) through
``shapalloc.cli.main(["solve", ...])`` with the workload's policy, except
for an epsilon eight times smaller, and two threads.  Every agent's value,
keyed by the base draw's agent ids, is written to
``reference/fpras_mid.json``.  ``run.py`` maps these ids through the
seed's relabeling and checks each solve's values against them, within the
epsilon of the solve's own records.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from inputs import scenario_text  # noqa: E402
from run import REFERENCE_DIR, WORKLOADS  # noqa: E402

WORKLOAD = "fpras_mid"
EPSILON_DIVISOR = 8


def main() -> int:
    from shapalloc.cli import main as cli_main

    wl = WORKLOADS[WORKLOAD]
    args = list(wl.solve_args)
    at = args.index("--epsilon") + 1
    args[at] = str(float(args[at]) / EPSILON_DIVISOR)
    args += ["--seed", "0", "--threads", "2"]
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        scenario, out = Path(tmp) / "scenario.json", Path(tmp) / "report.json"
        scenario.write_text(scenario_text(wl.base()))
        rc = cli_main(["solve", "--scenario", str(scenario), *args, "--out", str(out)])
        if rc != 0:
            return rc
        report = json.loads(out.read_text())
    REFERENCE_DIR.mkdir(exist_ok=True)
    (REFERENCE_DIR / wl.reference).write_text(json.dumps({
        "workload": WORKLOAD,
        "solve_args": args,
        "values": {r["agent"]: r["value"] for r in report["agents"]},
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
