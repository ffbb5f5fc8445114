"""Command-line entry point: run scenarios, validate configs, sweep in parallel.

Verbs:
    run       execute one scenario, write log.csv / metrics.json / config.ini
    validate  check a config and print derived quantities without running
    sweep     run several scenario files in parallel worker processes

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


def _outdir(out: str | None, cfg: ScenarioConfig) -> Path:
    return Path(out or cfg.sim.outdir)


def _print_table(results: dict):
    """The metrics of each controller run, one column per run."""
    columns = [metrics.as_dict() for metrics in results.values()]
    print(f"  {'metric':<26}" + "".join(f" {kind:>14}" for kind in results))
    for label, key in _METRIC_ROWS:
        print(f"  {label:<26}" + "".join(f" {d[key]:>14.6g}" for d in columns))


def _cmd_run(args) -> int:
    overrides = list(args.set or [])
    if args.seed is not None:
        overrides.append(f"sim.seed={args.seed}")
    if args.controller is not None:
        overrides.append(f"sim.controller={args.controller}")
    try:
        cfg = load_config(args.config, overrides)
    except ConfigError as err:
        print(err, file=sys.stderr)
        return 2
    outdir = _outdir(args.out, cfg)

    results = {}
    for kind in CONTROLLERS[cfg.sim.controller]:
        try:
            _, results[kind] = run_scenario(cfg, kind, outdir)
        except NumericalDivergence as err:
            print(f"error: {kind} run diverged: {err}", file=sys.stderr)
            return 3
        except QpMaxIterations as err:
            print(f"error: QP failure during {kind} run: {err}", file=sys.stderr)
            return 4

    print(f"scenario {cfg.name} ({cfg.description or 'no description'})")
    _print_table(results)
    print(f"outputs under {outdir / cfg.name}")
    return 0


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


def _sweep_worker(task):
    cfg, outdir = task
    try:
        summary = {kind: run_scenario(cfg, kind, outdir)[1].as_dict()
                   for kind in CONTROLLERS[cfg.sim.controller]}
    except Exception as err:  # worker errors must not kill the pool
        return None, f"{type(err).__name__}: {err}"
    return cfg.name, summary


def _cmd_sweep(args) -> int:
    # load and validate everything up front so a typo does not burn a sweep;
    # the workers run the loaded configs
    configs = []
    for path in args.configs:
        try:
            configs.append(load_config(path, args.set or []))
        except ConfigError as err:
            print(f"{path}: {err}", file=sys.stderr)
            return 2
    # a run writes under <out>/<name>/, so two configs there would overwrite each other
    tasks = [(cfg, _outdir(args.out, cfg)) for cfg in configs]
    dests = {}
    for path, (cfg, outdir) in zip(args.configs, tasks):
        dest = outdir / cfg.name
        if dest in dests:
            print(f"error: {dests[dest]} and {path} both write to {dest}", file=sys.stderr)
            return 2
        dests[dest] = path
    failures = 0
    with ProcessPoolExecutor(max_workers=args.jobs) as pool:
        for path, result in zip(args.configs, pool.map(_sweep_worker, tasks)):
            name, payload = result
            if name is None:
                print(f"error: {path}: {payload}", file=sys.stderr)
                failures += 1
            else:
                rms = {k: v["rms_position_error"] for k, v in payload.items()}
                print(f"{name}: " + ", ".join(f"{k} rms={v:.4g} m" for k, v in rms.items()))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="marsquad",
        description="Closed-loop simulation of a Mars coaxial octorotor "
                    "under predictive or PID control.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("--config", required=True, help="scenario file")
    p_run.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override a config value")
    p_run.add_argument("--out", help="output directory (default from [sim] outdir)")
    p_run.add_argument("--seed", type=int, help="override the run seed (as --set sim.seed=N)")
    p_run.add_argument("--controller", choices=CONTROLLERS,
                       help="override the configured controller (as --set sim.controller=X)")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="check a config without running")
    p_val.add_argument("--config", required=True)
    p_val.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    p_val.set_defaults(func=_cmd_validate)

    p_sweep = sub.add_parser("sweep", help="run several scenarios in parallel")
    p_sweep.add_argument("configs", nargs="+", help="scenario files")
    p_sweep.add_argument("--jobs", type=int, default=None, help="worker processes")
    p_sweep.add_argument("--out", help="output directory override")
    p_sweep.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    p_sweep.set_defaults(func=_cmd_sweep)

    args = parser.parse_args(argv)
    if args.verb == "sweep" and args.jobs is not None and args.jobs < 1:
        p_sweep.error(f"argument --jobs: must be >= 1, got {args.jobs}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
