"""Closed-loop step benchmark for marsquad.

Run from the repository root:

    python3 perfbench/run.py --workload mpc_track --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --all          # every workload, untraced and traced

One workload run prints human-readable lines and, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones. See
``perfbench/README.md`` for the workloads and the meaning of every metric.
"""

import os

# One BLAS thread: with two, controller set-up time does not repeat.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

MIN_RUNS = 3              # untraced closed-loop runs, for medians
BLOCK_STEPS = 100         # steps per stretch for the loaded-state step median
LOADED_Q = 75             # percentile over stretches or runs that is reported
HARD_LIMIT_S = 140.0      # stop starting runs after this, whatever --seconds says
SUBPROCESS_TIMEOUT_S = 900


def _import_package():
    """Import marsquad from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "marsquad" / "__init__.py").is_file():
        sys.exit(f"error: no marsquad package under {SRC}")
    sys.path.insert(0, str(SRC))
    import marsquad
    if Path(marsquad.__file__).resolve().parent != SRC / "marsquad":
        sys.exit(f"error: marsquad imported from {marsquad.__file__}, not {SRC}")


def environment() -> dict:
    """Interpreter, library and CPU facts that the timings depend on."""
    import scipy

    def blas(lib):
        return lib.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(np),
        "scipy_openblas": blas(scipy),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def _median(values):
    values = [v for v in values if v == v]
    return statistics.median(values) if values else None


def _loaded(values):
    """Upper quartile of figures from short stretches of one process.

    The host CPU switches between a fast and a slow clock state, and the
    share of each changes from minute to minute. The median of a mix of
    both moves by up to 40% between processes; the upper quartile stays
    in the slow, loaded state, which every run seen so far spent at least
    a quarter of its time in.
    """
    values = [v for v in values if v == v]
    return float(np.percentile(values, LOADED_Q)) if values else None


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for ``seconds`` and return the result object."""
    import bench

    outdir = OUT / workload.name
    plan = workload.plan(seed)
    overrides = next(plan)
    problems = []

    # warm-up: traced run 0, for the workload guard and the byte-identity check
    warm_tracer = bench.Tracer()
    with warm_tracer:
        warm = bench.closed_loop(workload, overrides, outdir / "traced", warm_tracer)
    if warm.ok and seed == bench.DEFAULT_SEED:
        warm.problems += bench.check_reference(workload, warm)
    warm_bytes = warm.log_csv.read_bytes() if warm.ok else None

    layer = bench.Tracer()
    plain, traced, setups, wall_setups = [], [], [], []
    start = time.perf_counter()
    while True:
        for _ in range(bench.SETUP_REPEATS):
            c0, t0 = time.process_time(), time.perf_counter()
            bench.setup(workload, overrides)
            wall_setups.append(time.perf_counter() - t0)
            setups.append(time.process_time() - c0)
        rec = bench.closed_loop(workload, overrides, outdir / "plain")
        plain.append(rec)
        setups.append(rec.setup_s)
        wall_setups.append(rec.wall_setup_s)
        if trace:
            with layer:
                twin = bench.closed_loop(workload, overrides, outdir / "traced", layer)
            traced.append(twin)
            if rec.ok and twin.ok and rec.log_csv.read_bytes() != twin.log_csv.read_bytes():
                twin.problems.append("traced log.csv differs from the untraced one")
        elif len(plain) == 1 and rec.ok and warm_bytes is not None:
            if rec.log_csv.read_bytes() != warm_bytes:
                rec.problems.append("untraced log.csv differs from the traced warm-up")
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_LIMIT_S or (elapsed >= seconds and len(plain) >= MIN_RUNS):
            break
        overrides = next(plan)

    runs = [warm, *plain, *traced]
    for r in runs:
        problems += [f"run {r.overrides}: {p}" for p in r.problems]
    active = warm_tracer.counts["mpc.qp_active_steps"] + layer.counts["mpc.qp_active_steps"]
    guard = bench.guard_problems(workload, active)
    failed = sum(not r.ok for r in runs)

    ok = [r for r in plain if r.ok]
    info = {"runs": len(plain), "setups": len(setups),
            "step_samples": sum(r.step_s.size for r in ok),
            "step_samples_per_run": min((r.step_s.size for r in ok), default=0)}
    step_ms = {}
    for clock in ("", "wall_"):
        steps = [getattr(r, clock + "step_s") for r in ok]
        blocks = [s[i:i + BLOCK_STEPS] for s in steps
                  for i in range(0, s.size - BLOCK_STEPS + 1, BLOCK_STEPS)]
        # per-run p99 has ten steps beyond it; the median over runs is kept
        step_ms[clock] = (_loaded([np.median(b) * 1e3 for b in blocks]),
                          _median([np.percentile(s, 99) * 1e3 for s in steps]))
    pooled = np.concatenate([r.step_s for r in ok] or [np.empty(0)])
    if pooled.size:
        # the highest pooled percentile that has ten steps beyond it
        beyond = max(0.0, 100.0 * (1.0 - 10.0 / pooled.size))
        info[f"pooled_step_ms_p{beyond:.4g}"] = float(np.percentile(pooled, beyond) * 1e3)
    info.update({
        "wall_setup_s": _median(wall_setups),
        "wall_run_s": _loaded([r.wall_run_s for r in ok]),
        "wall_step_ms_p50": step_ms["wall_"][0],
        "wall_step_ms_p99": step_ms["wall_"][1],
    })

    if trace:
        metrics = layer_metrics(workload, layer, plain, traced)
        metrics["fail_share"] = (failed / len(runs), "ratio")
    else:
        metrics = {
            "setup_s": (_median(setups), "s"),
            "run_s": (_loaded([r.run_s for r in ok]), "s"),
            "step_ms_p50": (step_ms[""][0], "ms"),
            "step_ms_p99": (step_ms[""][1], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_share": ((len(runs) - failed) / len(runs), "ratio"),
        }
    return {
        "correct": failed == 0 and not guard,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": problems + guard,
        "info": info,
    }


def layer_metrics(workload, tr, plain, traced) -> dict:
    """Per-layer numbers of the traced runs; see README.md for each one."""
    import bench

    def per_call(layer, scale, minus=()):
        calls = tr.calls[layer]
        busy = tr.seconds[layer] - sum(tr.seconds[m] for m in minus)
        return busy / calls * scale if calls else 0.0

    runs = max(tr.calls["runs"], 1)
    steps = max(tr.calls["simulator.steps"], 1)
    solves = len(tr.qp_iters)
    hist = [0] * (bench.QP_HIST_BINS + 1)
    for n in tr.qp_iters:
        hist[min(n, bench.QP_HIST_BINS)] += 1
    is_mpc = workload.controller == "mpc"
    loop_self = (tr.seconds["simulator.run_closed_loop"] - tr.seconds["controller.command"]
                 - tr.seconds["simulator.rk4_step"]) / steps
    plain_run = _loaded([r.run_s for r in plain])
    traced_run = _loaded([r.run_s for r in traced])
    out = {
        "config.load_ms": (per_call("config.load", 1e3), "ms"),
        "linmodel.build_ms": (per_call("linmodel.build", 1e3), "ms"),
        "mpc.build_prediction_ms": (per_call("mpc.build_prediction", 1e3), "ms"),
        "mpc.build_cost_ms": (per_call("mpc.build_cost", 1e3), "ms"),
        "mpc.init_factor_ms": (per_call("mpc.init_factor", 1e3), "ms"),
        "trajectories.ref_window_us": (per_call("trajectories.ref_window", 1e6), "us"),
        "mpc.command_us": (per_call("controller.command", 1e6, ["trace.bookkeeping"])
                           if is_mpc else 0.0, "us"),
        "mpc.step_self_us": (per_call("mpc.mpc_step", 1e6,
                                      ["mpc.solve_qp", "trace.bookkeeping"]), "us"),
        "mpc.solve_qp_us": (per_call("mpc.solve_qp", 1e6), "us"),
        "mpc.qp_iters_mean": (sum(tr.qp_iters) / solves if solves else 0.0, "iters"),
        "mpc.qp_iters_max": (max(tr.qp_iters, default=0), "iters"),
    }
    for i, n in enumerate(hist):
        name = f"mpc.qp_iters_hist_{i}" if i < bench.QP_HIST_BINS else \
            f"mpc.qp_iters_hist_{i}plus"
        out[name] = (100.0 * n / solves if solves else 0.0, "%")
    out.update({
        "mpc.qp_active_steps": (tr.counts["mpc.qp_active_steps"] / runs, "count/run"),
        "mpc.qp_refactors": (tr.counts["mpc.qp_refactors"] / runs, "count/run"),
        "mpc.qp_unconverged_steps": (tr.counts["mpc.qp_unconverged_steps"] / runs,
                                     "count/run"),
        "pid.step_us": (per_call("pid.pid_step", 1e6), "us"),
        "dynamics.allocate_us": (per_call("dynamics.allocate", 1e6), "us"),
        "pid.saturated_steps": (tr.counts["pid.saturated_steps"] / runs, "count/run"),
        "simulator.rk4_step_us": (per_call("simulator.rk4_step", 1e6), "us"),
        "simulator.rk4_calls_per_step": (tr.calls["simulator.rk4_step"] / steps, "calls/step"),
        "dynamics.wrench_calls_per_step": (tr.calls["dynamics.wrench_from_rotors"] / steps,
                                           "calls/step"),
        "simulator.loop_self_us": (loop_self * 1e6, "us"),
        "simulator.compute_metrics_ms": (tr.seconds["simulator.compute_metrics"] / runs * 1e3,
                                         "ms"),
        "simulator.write_csv_ms": (tr.seconds["simulator.write_csv"] / runs * 1e3, "ms"),
        "simulator.csv_bytes": (tr.counts["simulator.csv_bytes"] / runs, "B"),
        "trace.overhead_pct": (100.0 * (traced_run / plain_run - 1.0)
                               if plain_run and traced_run else None, "%"),
    })
    return out


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    import bench

    status = 0
    for name in bench.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  timeout=SUBPROCESS_TIMEOUT_S)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                print(f"{name} trace={trace}: exit code {proc.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            print(f"== {name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for line in lines[:-1]:
                if line.startswith("info:"):
                    print("  " + line)
            for key, m in result["metrics"].items():
                print(f"  {key:<34} {_fmt(m['value']):>14} {m['unit']}")
            status |= not result["correct"]
    return status


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="workload name")
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced runs")
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced, print one table")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from run 0 of the default seed")
    args = parser.parse_args(argv)

    _import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import bench

    if args.record_reference:
        ref = bench.record_reference(OUT / "reference")
        bench.REFERENCE_FILE.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")
        print(f"wrote {bench.REFERENCE_FILE}")
        return 0
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(bench.WORKLOADS)}")

    result = measure(bench.WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace))
    print("env: " + json.dumps(environment(), sort_keys=True))
    print("info: " + json.dumps(result.pop("info"), sort_keys=True))
    for problem in result.pop("problems"):
        print(f"error: {problem}", file=sys.stderr)
    for key, m in result["metrics"].items():
        print(f"{key:<34} {_fmt(m['value']):>14} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
