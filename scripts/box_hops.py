#!/usr/bin/env python3
"""Write the first seed-0 hops of the ``mpc_box`` benchmark workload as run directories.

Each hop is the ``step_xyz`` scenario with the overrides that
``perfbench/bench.py`` draws for run i of seed 0 (read, not changed),
run with the MPC through ``cli.run_scenario``. Hop i is written to
``DIR/step_xyz_hop<i>/mpc/``, the ``<scenario>/<controller>`` layout that
``scripts/compare_logs.py`` reads, so two checkouts compare in one command:

    PYTHONPATH=src python scripts/box_hops.py --out after
    PYTHONPATH=OTHER/src python scripts/box_hops.py --out before
    python scripts/compare_logs.py before after

``marsquad`` is imported from ``PYTHONPATH``, so the second line runs the
other checkout's controller on the same hops.
"""

import argparse
import dataclasses
import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import bench  # noqa: E402

from marsquad.cli import run_scenario  # noqa: E402
from marsquad.config import load_config  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True, help="directory for the hops")
    parser.add_argument("--hops", type=int, default=8, help="number of hops (default 8)")
    args = parser.parse_args(argv)
    if args.hops < 1:
        parser.error("--hops must be >= 1")

    workload = bench.WORKLOADS["mpc_box"]
    plan = workload.plan(bench.DEFAULT_SEED)
    for i, overrides in enumerate(itertools.islice(plan, args.hops)):
        cfg = load_config(workload.config_path, overrides)
        cfg = dataclasses.replace(cfg, name=f"{cfg.name}_hop{i}")
        log, _ = run_scenario(cfg, workload.controller, args.out)
        print(f"{cfg.name}/{workload.controller}: {len(log)} steps, "
              f"{int((log.qp_iters > 1).sum())} steps with 2+ QP iterations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
