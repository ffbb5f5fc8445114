#!/usr/bin/env python3
"""Head-to-head corner behaviour: predictive controller vs the PID cascade.

Runs the square-circuit scenario with both controllers on the same plant
and seed, prints the metric table, and reports the worst excursion past
the square's boundary (the corner overshoot).

    python scripts/square_comparison.py [--out DIR]
"""

import argparse
import sys
import tempfile
from pathlib import Path

from marsquad.cli import run_scenario
from marsquad.config import load_config
from marsquad.scenarios import scenario_path
from marsquad.simulator import corner_overshoot


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None, help="also write CSV logs here")
    args = parser.parse_args()

    cfg = load_config(scenario_path("square_corners"))
    side = cfg.traj_params["side"]

    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(args.out or tmp)
        results = {kind: run_scenario(cfg, kind, outdir) for kind in ("mpc", "pid")}

    print(f"{'metric':<28} {'mpc':>12} {'pid':>12}")
    rows = [
        ("corner overshoot [cm]",
         100 * corner_overshoot(results["mpc"][0], side),
         100 * corner_overshoot(results["pid"][0], side)),
        ("rms position error [m]",
         results["mpc"][1].rms_position_error, results["pid"][1].rms_position_error),
        ("control effort",
         results["mpc"][1].control_effort, results["pid"][1].control_effort),
    ]
    for label, m, p in rows:
        print(f"{label:<28} {m:>12.4g} {p:>12.4g}")

    if args.out:
        print(f"logs written under {args.out}/square_corners/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
