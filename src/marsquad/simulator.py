"""Fixed-step closed-loop simulation, disturbance injection, logging, metrics.

The plant integrates with classical RK4 at ``control_dt / substeps`` while
the controller output is held between samples. The loop holds the state as
Python floats over a control step's substeps, builds one array per step, and
binds the equations of motion (``dynamics.equations_of_motion``) to the held
wrench and disturbance sample only when the sample changes. A substep is
straight-line code on those floats: stages 2-4 are formed only for the nine
states the equations read; the twelve combinations, the angle wrap and the
envelope check are written out. Each float operation is the IEEE operation
numpy would do elementwise, in the same order, so the floats give the array
formula's result bit for bit.

Runs are deterministic: a given configuration and seed always produce the
same log, and the CSV writer prints floats at 17 significant digits so
logs compare byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import dynamics
from .params import EnvParams, VehicleParams, require_int
from .trajectories import RefGenerator, ref_window

__all__ = [
    "Pulse",
    "Disturbance",
    "SimLog",
    "Metrics",
    "NumericalDivergence",
    "rk4_step",
    "step_count",
    "run_closed_loop",
    "compute_metrics",
    "corner_overshoot",
    "write_csv",
    "write_metrics",
    "CSV_COLUMNS",
]

_STATE_LIMIT = 1e6
_PITCH_LIMIT = math.pi / 2 - 0.01

CSV_COLUMNS = (
    "t",
    "x", "y", "z", "vx", "vy", "vz",
    "phi", "theta", "psi", "phi_dot", "theta_dot", "psi_dot",
    "ref_x", "ref_y", "ref_z", "ref_psi",
    "omega_sq_1", "omega_sq_2", "omega_sq_3", "omega_sq_4",
    "omega_sq_5", "omega_sq_6", "omega_sq_7", "omega_sq_8",
    "thrust", "roll_moment", "pitch_moment", "yaw_moment", "net_rotor_speed",
    "qp_iters",
)


@dataclass(frozen=True)
class Pulse:
    """A rectangular disturbance pulse: ground-frame force, body-frame torque."""

    t_start: float
    t_end: float
    force: tuple = (0.0, 0.0, 0.0)   # N
    torque: tuple = (0.0, 0.0, 0.0)  # N m

    def __post_init__(self):
        if not self.t_start < self.t_end:
            raise ValueError(f"pulse needs t_start < t_end, got [{self.t_start}, {self.t_end}]")
        if len(self.force) != 3 or len(self.torque) != 3:
            raise ValueError("force and torque must be 3-vectors")
        if not all(math.isfinite(v) for v in (*self.force, *self.torque)):
            raise ValueError("pulse magnitudes must be finite")


@dataclass(frozen=True)
class Disturbance:
    """Scheduled pulses plus optional seeded white noise per channel group."""

    pulses: tuple = ()
    noise_force: float = 0.0   # N std per axis over one control step, ground frame
    noise_torque: float = 0.0  # N m std per axis over one control step, body frame

    def __post_init__(self):
        if not (0.0 <= self.noise_force < math.inf and 0.0 <= self.noise_torque < math.inf):
            raise ValueError("noise amplitudes must be finite and >= 0, got "
                             f"{self.noise_force}, {self.noise_torque}")

    @property
    def has_noise(self) -> bool:
        return self.noise_force > 0 or self.noise_torque > 0

    def sample(self, t: float, rng: np.random.Generator | None):
        """Force/torque realization at time t, held over the next substep.

        Returns two 3-lists of floats: ground-frame force, body-frame torque.
        """
        force = [0.0, 0.0, 0.0]
        torque = [0.0, 0.0, 0.0]
        for p in self.pulses:
            if p.t_start <= t < p.t_end:
                force = [a + b for a, b in zip(force, p.force)]
                torque = [a + b for a, b in zip(torque, p.torque)]
        if self.has_noise:
            if rng is None:
                raise ValueError("noisy disturbance needs an rng")
            if self.noise_force > 0:
                noise = rng.normal(0.0, self.noise_force, 3).tolist()
                force = [a + b for a, b in zip(force, noise)]
            if self.noise_torque > 0:
                noise = rng.normal(0.0, self.noise_torque, 3).tolist()
                torque = [a + b for a, b in zip(torque, noise)]
        return force, torque


@dataclass
class SimLog:
    """Per-control-step record of one closed-loop run."""

    t: np.ndarray         # (n,)
    states: np.ndarray    # (n, 12)
    commands: np.ndarray  # (n, 8)
    refs: np.ndarray      # (n, 4)
    wrenches: np.ndarray  # (n, 5)
    qp_iters: np.ndarray  # (n,)
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.t)


@dataclass(frozen=True)
class Metrics:
    """Tracking quality summary of a run; its fields are ``metrics.json``'s keys."""

    rms_position_error: float          # m, 3D, after the transient window
    max_overshoot_x_m: float           # m along the step; largest deviation on no step
    max_overshoot_y_m: float
    max_overshoot_z_m: float
    max_overshoot_x_pct: float         # percent of the step size; 0 on no step
    max_overshoot_y_pct: float
    max_overshoot_z_pct: float
    settling_time: float               # s, 2 percent band; inf if never settles
    steady_state_error: float          # m, worst axis over the last 10 percent
    control_effort: float              # sum |u - u_hover|^2 * dt

    def as_dict(self) -> dict:
        return asdict(self)


class NumericalDivergence(RuntimeError):
    """Integration left the valid envelope; carries the partial log."""

    def __init__(self, message: str, log: SimLog | None = None):
        super().__init__(message)
        self.log = log


def _magnitude_exceeded(t: float) -> NumericalDivergence:
    return NumericalDivergence(f"state magnitude exceeded {_STATE_LIMIT:g} at t={t:.3f}")


def rk4_step(state: tuple, accelerations, dt: float, t: float) -> tuple:
    """One classical RK4 substep of length ``dt`` from time ``t``; a 12-tuple.

    ``state`` is the 12-state as floats and ``accelerations`` the equations
    of motion bound to the held wrench and disturbance sample, as
    ``dynamics.equations_of_motion`` returns them, matching the
    piecewise-constant actuation model. Angles are re-wrapped afterwards
    and the envelope check raises ``NumericalDivergence`` at ``t + dt`` on
    blow-up, as does a state with an infinite angle. The arithmetic runs on
    floats in the order of the array formula ``s + dt/6 (k1 + 2 k2 + 2 k3 +
    k4)``, so the result is bitwise that formula's. Stages 2-4 are formed
    only for the nine states the equations of motion read; the positions'
    slopes are the stage velocities.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    x, y, z, vx, vy, vz, phi, theta, psi, p, q, r = state

    half = 0.5 * dt
    try:
        ax1, ay1, az1, pd1, qd1, rd1 = accelerations(vx, vy, vz, phi, theta, psi, p, q, r)
        vx2, vy2, vz2 = vx + half * ax1, vy + half * ay1, vz + half * az1
        p2, q2, r2 = p + half * pd1, q + half * qd1, r + half * rd1
        ax2, ay2, az2, pd2, qd2, rd2 = accelerations(
            vx2, vy2, vz2, phi + half * p, theta + half * q, psi + half * r, p2, q2, r2)
        vx3, vy3, vz3 = vx + half * ax2, vy + half * ay2, vz + half * az2
        p3, q3, r3 = p + half * pd2, q + half * qd2, r + half * rd2
        ax3, ay3, az3, pd3, qd3, rd3 = accelerations(
            vx3, vy3, vz3, phi + half * p2, theta + half * q2, psi + half * r2, p3, q3, r3)
        vx4, vy4, vz4 = vx + dt * ax3, vy + dt * ay3, vz + dt * az3
        p4, q4, r4 = p + dt * pd3, q + dt * qd3, r + dt * rd3
        ax4, ay4, az4, pd4, qd4, rd4 = accelerations(
            vx4, vy4, vz4, phi + dt * p3, theta + dt * q3, psi + dt * r3, p4, q4, r4)
    except ValueError:
        # math.sin / math.cos of an infinite angle: the state has left the envelope
        raise _magnitude_exceeded(t + dt) from None
    sixth = dt / 6.0
    # positions before velocities and angles before rates: each reads the old value
    x = x + sixth * (vx + 2.0 * vx2 + 2.0 * vx3 + vx4)
    y = y + sixth * (vy + 2.0 * vy2 + 2.0 * vy3 + vy4)
    z = z + sixth * (vz + 2.0 * vz2 + 2.0 * vz3 + vz4)
    vx = vx + sixth * (ax1 + 2.0 * ax2 + 2.0 * ax3 + ax4)
    vy = vy + sixth * (ay1 + 2.0 * ay2 + 2.0 * ay3 + ay4)
    vz = vz + sixth * (az1 + 2.0 * az2 + 2.0 * az3 + az4)
    wrap = dynamics.wrap_angle
    phi = wrap(phi + sixth * (p + 2.0 * p2 + 2.0 * p3 + p4))
    theta = wrap(theta + sixth * (q + 2.0 * q2 + 2.0 * q3 + q4))
    psi = wrap(psi + sixth * (r + 2.0 * r2 + 2.0 * r3 + r4))
    p = p + sixth * (pd1 + 2.0 * pd2 + 2.0 * pd3 + pd4)
    q = q + sixth * (qd1 + 2.0 * qd2 + 2.0 * qd3 + qd4)
    r = r + sixth * (rd1 + 2.0 * rd2 + 2.0 * rd3 + rd4)
    # not (|v| <= limit) also catches NaN and infinities
    lim = _STATE_LIMIT
    if not (abs(x) <= lim and abs(y) <= lim and abs(z) <= lim
            and abs(vx) <= lim and abs(vy) <= lim and abs(vz) <= lim
            and abs(phi) <= lim and abs(theta) <= lim and abs(psi) <= lim
            and abs(p) <= lim and abs(q) <= lim and abs(r) <= lim):
        raise _magnitude_exceeded(t + dt)
    if abs(theta) >= _PITCH_LIMIT:
        raise NumericalDivergence(f"pitch approached gimbal lock at t={t + dt:.3f}")
    return x, y, z, vx, vy, vz, phi, theta, psi, p, q, r


def step_count(duration: float, control_dt: float) -> int:
    """The control steps of a ``duration`` run: ceil(duration / control_dt), rounding-tolerant.

    A ratio within 1e-9 relative above a whole number counts as that number,
    so 0.07 s at 0.01 s (a ratio of 7.000000000000001) is 7 steps, not 8.
    """
    return math.ceil(duration / control_dt * (1.0 - 1e-9))


def run_closed_loop(controller, traj: RefGenerator, dist: Disturbance,
                    duration: float, control_dt: float, substeps: int,
                    veh: VehicleParams, env: EnvParams,
                    seed: int = 0, x0: np.ndarray | None = None) -> SimLog:
    """Run controller against plant on a fixed grid and log every step.

    The grid has ``step_count(duration, control_dt)`` steps from t = 0.
    The command's wrench is computed once per step, logged, and held over
    the substeps, each an ``rk4_step`` call from a fresh disturbance sample.
    The logged reference is sampled for the whole run in one
    ``ref_window`` call at the control-step times. ``dist`` is the
    disturbance, ``Disturbance()`` for none. Noise is drawn once per
    substep at ``sqrt(substeps)`` times its std, so its effect does not
    depend on ``substeps``. ``x0``, the start state (hover at the origin by
    default), must be a finite 12-vector; its angles outside (-pi, pi] are
    wrapped into that range, as the plant wraps them. A
    ``NumericalDivergence`` from the plant is raised again with the control
    step's index, the state logged at its start and its held command added
    to the message, and with the log up to that step.
    """
    if not 0.0 < duration < math.inf:
        raise ValueError(f"duration must be finite and > 0, got {duration}")
    if not 0.0 < control_dt < math.inf:
        raise ValueError(f"control_dt must be finite and > 0, got {control_dt}")
    require_int("substeps", substeps)
    require_int("seed", seed)
    if substeps < 1:
        raise ValueError(f"substeps must be >= 1, got {substeps}")

    n_steps = step_count(duration, control_dt)
    rng = np.random.default_rng(seed)
    state = np.zeros(12) if x0 is None else np.array(x0, dtype=float)
    if state.shape != (12,) or not np.isfinite(state).all():
        raise ValueError(f"x0 must be a finite 12-vector, got {x0!r}")
    angles = state[6:9]  # a view: wrapping it wraps the state
    outside = (angles <= -math.pi) | (angles > math.pi)
    angles[outside] = dynamics.wrap_angle(angles[outside])

    t_log = np.empty(n_steps)
    states = np.empty((n_steps, 12))
    commands = np.empty((n_steps, 8))
    refs = ref_window(traj, 0.0, n_steps, control_dt)
    wrenches = np.empty((n_steps, 5))
    qp_iters = np.zeros(n_steps, dtype=int)

    def partial(k):
        return SimLog(t_log[:k].copy(), states[:k].copy(), commands[:k].copy(),
                      refs[:k].copy(), wrenches[:k].copy(), qp_iters[:k].copy(),
                      meta=dict(meta))

    meta = {
        "seed": seed,
        "u_hover": dynamics.hover_command(veh, env),
        "u_min": np.zeros(8),
        "u_max": np.full(8, veh.max_rotor_speed ** 2),
        "control_dt": control_dt,
    }

    if dist.has_noise:
        scale = math.sqrt(substeps)
        dist = replace(dist, noise_force=dist.noise_force * scale,
                       noise_torque=dist.noise_torque * scale)
    sub_dt = control_dt / substeps
    state = tuple(state.tolist())
    for k in range(n_steps):
        t = k * control_dt
        x_now = np.array(state)
        cmd = controller.command(t, x_now, traj)
        wrench = dynamics.wrench_from_rotors(cmd, veh)
        t_log[k] = t
        states[k] = x_now
        commands[k] = cmd
        wrenches[k] = wrench
        qp_iters[k] = getattr(controller, "last_qp_iters", 0)

        try:
            bound = None  # the sample the equations are bound to, for this wrench
            for i in range(substeps):
                sample = dist.sample(t + i * sub_dt, rng)
                if sample != bound:  # its sums onto +0.0 are never -0.0: == is bitwise
                    bound, f = sample, dynamics.equations_of_motion(wrench, veh, env, *sample)
                state = rk4_step(state, f, sub_dt, t + i * sub_dt)
        except NumericalDivergence as err:
            start, held = (", ".join(f"{v:.6g}" for v in row.tolist())
                           for row in (states[k], commands[k]))
            raise NumericalDivergence(f"{err} (control step {k}, state [{start}], "
                                      f"held command [{held}])", log=partial(k + 1)) from None

    return partial(n_steps)


def compute_metrics(log: SimLog, transient_skip: float = 0.0) -> Metrics:
    """Quantify tracking quality; see ``Metrics`` for the field definitions.

    Overshoot and settling are measured per axis against the final
    reference value, which reads naturally for step segments. An axis steps
    when that value is 1e-6 m or more from its start; one that does not
    reports its largest deviation and 0 percent and is left out of the
    settling time. The RMS excludes the first ``transient_skip`` seconds and
    raises ``ValueError`` when that leaves no sample. Effort reads the
    ``log.meta`` entries ``u_hover`` and ``control_dt`` that
    ``run_closed_loop`` writes; its ``u_min`` and ``u_max`` are read by
    perfbench's ``check_run``, not here.
    """
    if len(log) == 0:
        raise ValueError("cannot compute metrics of an empty log")
    t = log.t
    pos = log.states[:, 0:3]
    ref = log.refs[:, 0:3]

    keep = t >= t[0] + transient_skip
    if not np.any(keep):
        raise ValueError(f"transient_skip {transient_skip} s leaves no sample of the log")
    err = pos[keep] - ref[keep]
    rms = float(np.sqrt(np.mean(np.sum(err * err, axis=1))))

    # per axis: overshoot and, on an axis that steps, settling to 2 percent of the step
    overshoot = {}
    settling = 0.0
    for a, axis in enumerate("xyz"):
        step = ref[-1, a] - pos[0, a]
        dev = pos[:, a] - ref[-1, a]
        if abs(step) < 1e-6:
            over, pct = float(np.max(np.abs(dev))), 0.0
        else:
            over = max(float(np.max(dev * math.copysign(1.0, step))), 0.0)
            pct = 100.0 * over / abs(step)
            outside = np.abs(dev) > 0.02 * abs(step)
            if outside[-1]:
                settling = math.inf
            elif outside.any():
                settling = max(settling, t[np.nonzero(outside)[0][-1] + 1] - t[0])
        overshoot[f"max_overshoot_{axis}_m"] = over
        overshoot[f"max_overshoot_{axis}_pct"] = pct

    tail = max(1, int(0.1 * len(t)))
    sse = float(np.max(np.abs(pos[-tail:] - ref[-tail:])))

    meta = log.meta
    du = log.commands - meta["u_hover"]
    effort = float(np.sum(du * du) * meta["control_dt"])

    return Metrics(
        rms_position_error=rms,
        **overshoot,
        settling_time=settling,
        steady_state_error=sse,
        control_effort=effort,
    )


def corner_overshoot(log: SimLog, side: float) -> float:
    """Worst horizontal excursion (m) outside the square [0, side] x [0, side].

    For the square circuit this is the overshoot at its sharp corners.
    """
    x, y = log.states[:, 0], log.states[:, 1]
    excursion = np.maximum.reduce([
        np.maximum(0.0, -x), np.maximum(0.0, x - side),
        np.maximum(0.0, -y), np.maximum(0.0, y - side)])
    return float(excursion.max())


def write_csv(log: SimLog, path) -> None:
    """Write the run log with a fixed header, one row per control step."""
    row = "%.17g," * (len(CSV_COLUMNS) - 1) + "%d\n"
    table = np.column_stack([log.t, log.states, log.refs, log.commands, log.wrenches,
                             log.qp_iters])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        fh.writelines(row % tuple(r) for r in table.tolist())


def write_metrics(metrics: Metrics, path) -> None:
    """Write metrics as a flat, sorted JSON document."""
    with open(path, "w") as fh:
        json.dump(metrics.as_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
