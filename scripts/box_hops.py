#!/usr/bin/env python3
"""Write the first seed-0 runs of a benchmark workload as run directories.

Run i is the workload's scenario with the overrides that
``perfbench/bench.py`` draws for run i of seed 0 (read, not changed), run
with the workload's controller through ``cli.run_scenario``. ``--workload``
picks ``mpc_box`` (the default: ``step_xyz`` hops that bind the input box),
``mpc_track`` or ``pid_track`` (``square_corners`` circuits). Run i is
written to ``DIR/<scenario>_hop<i>/<controller>/``, the
``<scenario>/<controller>`` layout that ``scripts/compare_logs.py`` reads,
so two checkouts compare in one command:

    PYTHONPATH=src python scripts/box_hops.py --out after
    PYTHONPATH=OTHER/src python scripts/box_hops.py --out before
    python scripts/compare_logs.py before after

``marsquad`` is imported from ``PYTHONPATH``, so the second line runs the
other checkout's code on the same runs.
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
    parser.add_argument("--hops", type=int, default=8, help="number of runs (default 8)")
    parser.add_argument("--workload", choices=sorted(bench.WORKLOADS), default="mpc_box",
                        help="benchmark workload (default mpc_box)")
    args = parser.parse_args(argv)
    if args.hops < 1:
        parser.error("--hops must be >= 1")

    workload = bench.WORKLOADS[args.workload]
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
