"""Command-line entry point: run scenarios and validate configs.

Verbs:
    run       execute one or more scenarios, write log.csv / metrics.json /
              config.ini per controller run; several files run in parallel
              worker processes (``--jobs``)
    validate  check a config and print derived quantities without running

Output layout: <outdir>/<scenario>/<controller>/{log.csv, metrics.json,
config.ini}. The CSV schema is fixed (see ``simulator.CSV_COLUMNS``): a
header row, then one row per control step with floats printed at 17
significant digits, so identical config and seed reproduce files byte for
byte.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .config import (CONTROLLERS, ConfigError, ScenarioConfig, config_snapshot, derived_report,
                     load_config)
from .linmodel import discretize, linearize_hover
from .mpc import MpcController, QpMaxIterations
from .pid import PidController
from .simulator import NumericalDivergence, compute_metrics, run_closed_loop, write_csv, write_metrics

_METRIC_ROWS = (
    ("rms position error [m]", "rms_position_error"),
    ("max overshoot x [m]", "max_overshoot_x_m"),
    ("max overshoot y [m]", "max_overshoot_y_m"),
    ("max overshoot z [m]", "max_overshoot_z_m"),
    ("settling time [s]", "settling_time"),
    ("steady state error [m]", "steady_state_error"),
    ("control effort", "control_effort"),
)


def make_controller(kind: str, cfg: ScenarioConfig):
    """The ``"mpc"`` or ``"pid"`` controller a scenario configures."""
    if kind == "mpc":
        model = discretize(linearize_hover(cfg.veh, cfg.env), cfg.sim.control_dt)
        return MpcController(model, cfg.mpc, cfg.veh, cfg.env)
    if kind == "pid":
        return PidController(cfg.pid, cfg.veh, cfg.env, cfg.sim.control_dt)
    raise ValueError(f"unknown controller {kind!r}")


def run_scenario(cfg: ScenarioConfig, kind: str, outdir: Path):
    """Run one controller on one scenario and write its artifacts.

    Returns the run's ``(SimLog, Metrics)`` pair.
    """
    controller = make_controller(kind, cfg)
    log = run_closed_loop(
        controller, cfg.trajectory(), cfg.disturbance,
        duration=cfg.sim.duration, control_dt=cfg.sim.control_dt,
        substeps=cfg.sim.substeps, veh=cfg.veh, env=cfg.env, seed=cfg.sim.seed,
    )
    metrics = compute_metrics(log, transient_skip=cfg.sim.transient_skip)
    dest = outdir / cfg.name / kind
    dest.mkdir(parents=True, exist_ok=True)
    write_csv(log, dest / "log.csv")
    write_metrics(metrics, dest / "metrics.json")
    (dest / "config.ini").write_text(config_snapshot(cfg))
    return log, metrics


def _print_table(results: dict):
    """The metrics of each controller run, one column per run."""
    columns = [metrics.as_dict() for metrics in results.values()]
    print(f"  {'metric':<26}" + "".join(f" {kind:>14}" for kind in results))
    for label, key in _METRIC_ROWS:
        print(f"  {label:<26}" + "".join(f" {d[key]:>14.6g}" for d in columns))


def _run_one(task):
    """Run one scenario's controllers: ``(metrics by controller, 0)``, or the
    first failing run's ``(error line, exit code)``."""
    cfg, outdir = task
    results = {}
    for kind in CONTROLLERS[cfg.sim.controller]:
        try:
            _, results[kind] = run_scenario(cfg, kind, outdir)
        except NumericalDivergence as err:
            return f"error: {cfg.name}: {kind} run diverged: {err}", 3
        except QpMaxIterations as err:
            return f"error: {cfg.name}: QP failure during {kind} run: {err}", 4
    return results, 0


def _report(tasks, outcomes) -> int:
    """Print each scenario's table or failure line in order; the first failure's code."""
    code = 0
    for (cfg, outdir), (outcome, rc) in zip(tasks, outcomes):
        if rc:
            print(outcome, file=sys.stderr)
            code = code or rc
            continue
        print(f"scenario {cfg.name} ({cfg.description or 'no description'})")
        _print_table(outcome)
        print(f"outputs under {outdir / cfg.name}")
    return code


def _cmd_run(args) -> int:
    # load and validate everything up front so a typo in one file writes nothing
    tasks, dests = [], {}
    for path in args.config:
        try:
            cfg = load_config(path, args.set or [])
        except ConfigError as err:
            print(f"{path}: {err}", file=sys.stderr)
            return 2
        outdir = Path(args.out or cfg.sim.outdir)
        # a run writes under <out>/<name>/, so two configs there would overwrite each other
        dest = outdir / cfg.name
        if dest in dests:
            print(f"error: {dests[dest]} and {path} both write to {dest}", file=sys.stderr)
            return 2
        dests[dest] = path
        tasks.append((cfg, outdir))

    # a pool of one worker would only add a process: run in this one
    if len(tasks) == 1 or args.jobs == 1:
        return _report(tasks, map(_run_one, tasks))
    with ProcessPoolExecutor(max_workers=args.jobs) as pool:
        return _report(tasks, pool.map(_run_one, tasks))


def _cmd_validate(args) -> int:
    try:
        cfg = load_config(args.config, args.set or [])
    except ConfigError as err:
        print("configuration invalid:", file=sys.stderr)
        for p in err.problems:
            print(f"  - {p}", file=sys.stderr)
        return 2
    print(f"configuration valid: {args.config}")
    for key, value in derived_report(cfg).items():
        print(f"  {key:<22} {value:.6g}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="marsquad",
        description="Closed-loop simulation of a Mars coaxial octorotor "
                    "under predictive or PID control.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run one or more scenarios")
    p_run.add_argument("--config", required=True, nargs="+", help="scenario files")
    p_run.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override a config value in every scenario")
    p_run.add_argument("--out", help="output directory (default from [sim] outdir)")
    p_run.add_argument("--jobs", type=int, default=None,
                       help="worker processes when several files run")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="check a config without running")
    p_val.add_argument("--config", required=True)
    p_val.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    p_val.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    if args.verb == "run" and args.jobs is not None and args.jobs < 1:
        p_run.error(f"argument --jobs: must be >= 1, got {args.jobs}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
