"""Closed-loop step benchmark for marsquad: workloads, runs, checks, tracer.

Every run goes through the package's public surface only: ``load_config``
with ``section.key=value`` overrides, the ``MpcController`` and
``PidController`` constructors, ``run_closed_loop``, ``compute_metrics``,
``write_csv`` and ``write_metrics``. Layers are timed from outside, by
swapping module attributes that the package looks up at call time for
timing wrappers (``Tracer``). Per-step CPU and wall times come from a
thin controller proxy (``StepClock``) that stamps the start of each loop
iteration, which is cheap enough to stay on in untraced runs.
End-to-end times are CPU time of the benchmark's process
(``process_time``), which leaves out time the scheduler gives to other
processes; the wall-time counterparts are kept for reference.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from typing import Callable

import numpy as np

from marsquad import config, dynamics, linmodel, mpc, pid, simulator
from marsquad.mpc import MpcController, QpMaxIterations
from marsquad.pid import PidController
from marsquad.simulator import NumericalDivergence

SCENARIO_DIR = Path(config.__file__).resolve().parent / "scenarios"
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 0

TRACK_DURATION = 20.0   # s of simulated flight per square run, 1000 steps
HOP_DURATION = 20.0     # s per 5 m hop and hover at its end, 1000 steps
HOP_LENGTH = 5.0        # m
HOP_ELEVATION = (math.radians(30.0), math.radians(75.0))
SETUP_REPEATS = 4       # set-ups timed before each untraced run, besides its own
QP_HIST_BINS = 8        # iteration counts 0..7, then one "8plus" bin
TRACKING_KEYS = ("rms_position_error", "steady_state_error", "control_effort",
                 "max_overshoot_x_m", "max_overshoot_y_m", "max_overshoot_z_m")
TRACKING_RTOL = 1e-6
TRACKING_ATOL = 1e-9


# ---------------------------------------------------------------- workloads

def _square_overrides(rng: np.random.Generator) -> list[str]:
    """A square circuit slow and low enough that the input box never binds."""
    side = float(rng.uniform(1.5, 2.5))
    edge = float(rng.uniform(6.0, 10.0))
    altitude = float(rng.uniform(0.5, 1.0))
    return [f"trajectory.side={side!r}", f"trajectory.edge_duration={edge!r}",
            f"trajectory.altitude={altitude!r}", f"sim.duration={TRACK_DURATION!r}"]


def _hop_overrides(rng: np.random.Generator) -> list[str]:
    """A 5 m hop from hover; the climb component makes the box bind."""
    azimuth = float(rng.uniform(0.0, 2.0 * math.pi))
    elevation = float(rng.uniform(*HOP_ELEVATION))
    x = HOP_LENGTH * math.cos(elevation) * math.cos(azimuth)
    y = HOP_LENGTH * math.cos(elevation) * math.sin(azimuth)
    z = HOP_LENGTH * math.sin(elevation)
    return [f"trajectory.x={x!r}", f"trajectory.y={y!r}", f"trajectory.z={z!r}",
            f"sim.duration={HOP_DURATION!r}"]


@dataclass(frozen=True)
class Workload:
    """A shipped scenario, a controller and a seeded stream of overrides.

    Why each workload exists is recorded in ``BENCHMARK.json`` and README.md.

    ``box`` states the workload's purpose for the guard: ``"never"`` means
    no QP solution may touch the input box, ``"binds"`` means at least one
    must, ``None`` means the workload runs no QP.
    """

    name: str
    scenario: str
    controller: str
    draw: Callable[[np.random.Generator], list[str]]
    box: str | None

    @property
    def config_path(self) -> Path:
        return SCENARIO_DIR / f"{self.scenario}.cfg"

    def plan(self, seed: int):
        """Overrides for closed-loop runs 0, 1, 2, ... of one seed, endlessly."""
        rng = np.random.default_rng(seed)
        while True:
            yield self.draw(rng) + [f"sim.controller={self.controller}"]


WORKLOADS = {w.name: w for w in (
    Workload("mpc_track", "square_corners", "mpc", _square_overrides, "never"),
    Workload("mpc_box", "step_xyz", "mpc", _hop_overrides, "binds"),
    Workload("pid_track", "square_corners", "pid", _square_overrides, None),
)}


# ------------------------------------------------------------------ tracing

class Tracer:
    """Timing wrappers swapped into the package's modules while active.

    ``seconds`` and ``calls`` are keyed by layer name; ``counts`` holds
    event counts. ``phase`` is ``"setup"`` while a controller is built and
    ``"loop"`` during the closed loop, which separates the initial Cholesky
    factor from refactorizations inside the QP.
    """

    def __init__(self):
        self.seconds: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.qp_iters: list[int] = []
        self.phase = "setup"
        self._saved = []

    def __enter__(self):
        self._timed(mpc, "ref_window", "trajectories.ref_window")
        self._timed(mpc, "mpc_step", "mpc.mpc_step")
        self._timed(mpc, "build_prediction", "mpc.build_prediction")
        self._timed(mpc, "build_cost", "mpc.build_cost")
        self._timed(pid, "pid_step", "pid.pid_step")
        self._timed(simulator, "rk4_step", "simulator.rk4_step")
        self._swap(mpc, "solve_qp", self._solve_qp)
        self._swap(mpc, "cho_factor", self._cho_factor)
        self._swap(dynamics, "allocate", self._allocate)
        self._swap(dynamics, "wrench_from_rotors", self._wrench)
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def _swap(self, module, name, make):
        original = getattr(module, name)
        self._saved.append((module, name, original))
        setattr(module, name, make(original))

    def _timed(self, module, name, layer):
        def make(original):
            def timed(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    self.seconds[layer] += perf_counter() - t0
                    self.calls[layer] += 1
            return timed
        self._swap(module, name, make)

    def _solve_qp(self, original):
        def solve_qp(hessian, gradient, lower, upper, cfg, *args, **kwargs):
            t0 = perf_counter()
            try:
                out = original(hessian, gradient, lower, upper, cfg, *args, **kwargs)
            finally:
                t1 = perf_counter()
                self.seconds["mpc.solve_qp"] += t1 - t0
                self.calls["mpc.solve_qp"] += 1
            x, info = out if isinstance(out, tuple) else (out, None)
            if info is not None:
                self.qp_iters.append(info["iterations"])
            if np.any(x <= lower) or np.any(x >= upper):
                self.counts["mpc.qp_active_steps"] += 1
            # same residual and tolerance as solve_qp, recomputed from its inputs
            grad = hessian @ x + gradient
            residual = float(np.max(np.abs(x - np.clip(x - grad, lower, upper))))
            tol = cfg.qp_tol * max(1.0, float(np.max(np.abs(gradient))))
            if residual > tol:
                self.counts["mpc.qp_unconverged_steps"] += 1
            self.seconds["trace.bookkeeping"] += perf_counter() - t1
            return out
        return solve_qp

    def _cho_factor(self, original):
        def cho_factor(*args, **kwargs):
            t0 = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                if self.phase == "setup":
                    self.seconds["mpc.init_factor"] += perf_counter() - t0
                    self.calls["mpc.init_factor"] += 1
                else:
                    self.counts["mpc.qp_refactors"] += 1
        return cho_factor

    def _allocate(self, original):
        def allocate(*args, **kwargs):
            t0 = perf_counter()
            try:
                return original(*args, **kwargs)
            except dynamics.AllocationSaturated:
                self.counts["pid.saturated_steps"] += 1
                raise
            finally:
                self.seconds["dynamics.allocate"] += perf_counter() - t0
                self.calls["dynamics.allocate"] += 1
        return allocate

    def _wrench(self, original):
        def wrench_from_rotors(*args, **kwargs):
            self.calls["dynamics.wrench_from_rotors"] += 1
            return original(*args, **kwargs)
        return wrench_from_rotors


class StepClock:
    """Controller proxy that stamps the start of every loop iteration.

    ``run_closed_loop`` calls ``command`` first in each iteration, so the
    gap between consecutive stamps is the time of one control step;
    ``stop`` stamps the end of the last one. ``stamps`` hold the CPU time
    of the process, which stops while the scheduler runs something else;
    ``wall_stamps`` hold wall time.
    """

    def __init__(self, inner):
        self.inner = inner
        self.stamps: list[float] = []
        self.wall_stamps: list[float] = []

    @property
    def last_qp_iters(self) -> int:
        return getattr(self.inner, "last_qp_iters", 0)

    def command(self, t, x_now, traj):
        self.stamps.append(process_time())
        self.wall_stamps.append(perf_counter())
        return self.inner.command(t, x_now, traj)

    def stop(self):
        self.wall_stamps.append(perf_counter())
        self.stamps.append(process_time())


class TracedStepClock(StepClock):
    """``StepClock`` that also times the controller's ``command`` call."""

    def __init__(self, inner, tracer: Tracer):
        super().__init__(inner)
        self.tracer = tracer

    def command(self, t, x_now, traj):
        self.stamps.append(process_time())
        t0 = perf_counter()
        self.wall_stamps.append(t0)
        try:
            return self.inner.command(t, x_now, traj)
        finally:
            self.tracer.seconds["controller.command"] += perf_counter() - t0
            self.tracer.calls["controller.command"] += 1


# --------------------------------------------------------------- one run

@dataclass
class RunRecord:
    """Timings, outputs and problems of one closed-loop run.

    ``setup_s``, ``run_s`` and ``step_s`` are CPU time of the process,
    the ``wall_`` fields the same spans in wall time.
    """

    overrides: list[str]
    problems: list[str] = field(default_factory=list)
    setup_s: float = math.nan
    run_s: float = math.nan
    step_s: np.ndarray = field(default_factory=lambda: np.empty(0))
    wall_setup_s: float = math.nan
    wall_run_s: float = math.nan
    wall_step_s: np.ndarray = field(default_factory=lambda: np.empty(0))
    tracking: dict = field(default_factory=dict)
    log_csv: Path | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


def build_controller(workload: Workload, cfg, tracer: Tracer | None = None):
    """The controller ``marsquad run`` builds, from public constructors."""
    if workload.controller == "mpc":
        t0 = perf_counter()
        model = linmodel.discretize(linmodel.linearize_hover(cfg.veh, cfg.env),
                                    cfg.sim.control_dt)
        if tracer is not None:
            tracer.seconds["linmodel.build"] += perf_counter() - t0
            tracer.calls["linmodel.build"] += 1
        return MpcController(model, cfg.mpc, cfg.veh, cfg.env)
    return PidController(cfg.pid, cfg.veh, cfg.env, cfg.sim.control_dt)


def setup(workload: Workload, overrides: list[str], tracer: Tracer | None = None):
    """Load the config and build the controller; returns (cfg, controller)."""
    t0 = perf_counter()
    cfg = config.load_config(workload.config_path, overrides)
    if tracer is not None:
        tracer.phase = "setup"
        tracer.seconds["config.load"] += perf_counter() - t0
        tracer.calls["config.load"] += 1
    return cfg, build_controller(workload, cfg, tracer)


def check_run(log, cfg, workload: Workload, csv_path: Path) -> list[str]:
    """Output checks every run must pass; returns the problems found."""
    problems = []
    expected = math.ceil(cfg.sim.duration / cfg.sim.control_dt)
    if len(log) != expected:
        problems.append(f"log has {len(log)} steps, expected {expected}")
    for name in ("t", "states", "commands", "refs", "wrenches"):
        if not np.all(np.isfinite(getattr(log, name))):
            problems.append(f"log.{name} holds non-finite values")
    if workload.controller == "mpc":
        u_min, u_max = cfg.mpc.u_min, cfg.mpc.u_max
    else:
        u_min, u_max = log.meta["u_min"], log.meta["u_max"]
    outside = np.any((log.commands < u_min) | (log.commands > u_max), axis=1)
    if np.any(outside):
        problems.append(f"{int(outside.sum())} commands leave [u_min, u_max]")
    with open(csv_path, "rb") as fh:
        rows = sum(1 for _ in fh)
    if rows != expected + 1:
        problems.append(f"log.csv has {rows} lines, expected {expected + 1}")
    for name in ("metrics.json", "config.ini"):
        if not (csv_path.parent / name).is_file():
            problems.append(f"{name} was not written")
    return problems


def closed_loop(workload: Workload, overrides: list[str], outdir: Path,
                tracer: Tracer | None = None) -> RunRecord:
    """One ``marsquad run``: config load to written artifacts, timed and checked.

    Divergence, QP failure and failed output checks are recorded in
    ``RunRecord.problems`` instead of raised.
    """
    rec = RunRecord(list(overrides))
    c0, t0 = process_time(), perf_counter()
    cfg, controller = setup(workload, overrides, tracer)
    c_setup, t_setup = process_time(), perf_counter()
    clock = StepClock(controller) if tracer is None else TracedStepClock(controller, tracer)
    if tracer is not None:
        tracer.phase = "loop"
    try:
        log = simulator.run_closed_loop(
            clock, cfg.trajectory(), cfg.disturbance,
            duration=cfg.sim.duration, control_dt=cfg.sim.control_dt,
            substeps=cfg.sim.substeps, veh=cfg.veh, env=cfg.env, seed=cfg.sim.seed)
    except (NumericalDivergence, QpMaxIterations) as err:
        rec.problems.append(f"{type(err).__name__}: {err}")
        return rec
    clock.stop()
    t_loop = perf_counter()
    metrics = simulator.compute_metrics(log, transient_skip=cfg.sim.transient_skip)
    t_metrics = perf_counter()
    dest = outdir / cfg.name / workload.controller
    dest.mkdir(parents=True, exist_ok=True)
    simulator.write_csv(log, dest / "log.csv")
    t_csv = perf_counter()
    simulator.write_metrics(metrics, dest / "metrics.json")
    (dest / "config.ini").write_text(config.config_snapshot(cfg))
    t_end, c_end = perf_counter(), process_time()

    rec.setup_s, rec.wall_setup_s = c_setup - c0, t_setup - t0
    rec.run_s, rec.wall_run_s = c_end - c0, t_end - t0
    rec.step_s = np.diff(np.asarray(clock.stamps))
    rec.wall_step_s = np.diff(np.asarray(clock.wall_stamps))
    tracking = metrics.as_dict()
    rec.tracking = {k: tracking[k] for k in TRACKING_KEYS}
    rec.log_csv = dest / "log.csv"
    if tracer is not None:
        tracer.seconds["simulator.run_closed_loop"] += t_loop - t_setup
        tracer.calls["simulator.steps"] += len(log)
        tracer.seconds["simulator.compute_metrics"] += t_metrics - t_loop
        tracer.seconds["simulator.write_csv"] += t_csv - t_metrics
        tracer.counts["simulator.csv_bytes"] += rec.log_csv.stat().st_size
        tracer.calls["runs"] += 1
    rec.problems += check_run(log, cfg, workload, rec.log_csv)
    return rec


def check_reference(workload: Workload, rec: RunRecord) -> list[str]:
    """Compare run 0 of the default seed with the recorded tracking metrics."""
    ref = json.loads(REFERENCE_FILE.read_text())[workload.name]
    if ref["overrides"] != rec.overrides:
        return ["run 0 overrides differ from the recorded reference"]
    problems = []
    for key, want in ref["tracking"].items():
        got = rec.tracking.get(key, math.nan)
        if not math.isclose(got, want, rel_tol=TRACKING_RTOL, abs_tol=TRACKING_ATOL):
            problems.append(f"{key} = {got!r}, reference {want!r}")
    return problems


def record_reference(outdir: Path) -> dict:
    """Tracking metrics of run 0 of the default seed, for every workload."""
    out = {}
    for w in WORKLOADS.values():
        rec = closed_loop(w, next(w.plan(DEFAULT_SEED)), outdir)
        if not rec.ok:
            raise RuntimeError(f"{w.name}: " + "; ".join(rec.problems))
        out[w.name] = {"overrides": rec.overrides, "tracking": rec.tracking}
    return out


def guard_problems(workload: Workload, active: int) -> list[str]:
    """Errors when a workload left the mechanism it was chosen for.

    ``active`` counts traced QP solutions that touch the input box.
    """
    if workload.box == "never" and active:
        return [f"{workload.name}: {active} QP solutions touch the input box, "
                "this workload must never bind it"]
    if workload.box == "binds" and not active:
        return [f"{workload.name}: no QP solution touches the input box, "
                "this workload must bind it"]
    return []
