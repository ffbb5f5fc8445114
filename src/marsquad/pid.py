"""Cascaded PID position-and-heading controller over the nonlinear plant.

Structure: an outer position loop converts heading-rotated position errors
into roll/pitch angle targets; inner loops regulate attitude and altitude
into a wrench that the rotor mixer turns into squared-speed commands. One
gain set serves the whole flight envelope. Derivative action uses measured
rates rather than error derivatives, so setpoint steps do not kick.
``PidController`` holds the loop memory and ``pid_step(x_now, ref, ctrl)``
updates it, as ``mpc_step`` updates an ``MpcController``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import dynamics
from .params import EnvParams, VehicleParams, require_number
from .trajectories import RefGenerator, ref_window

__all__ = ["PidGains", "pid_step", "PidController"]


@dataclass(frozen=True)
class PidGains:
    """Per-axis gains plus the anti-windup and tilt safety clamps.

    The fields are the ``[pid]`` config keys. The defaults are hand-tuned on
    the simultaneous step scenario: stable and settling, with the corner
    overshoot a single gain set cannot avoid.
    """

    x_kp: float = 0.30
    x_ki: float = 0.01
    x_kd: float = 0.35
    y_kp: float = 0.30
    y_ki: float = 0.01
    y_kd: float = 0.35
    z_kp: float = 2.2
    z_ki: float = 0.3
    z_kd: float = 3.2
    roll_kp: float = 40.0
    roll_ki: float = 0.5
    roll_kd: float = 12.0
    pitch_kp: float = 40.0
    pitch_ki: float = 0.5
    pitch_kd: float = 12.0
    yaw_kp: float = 20.0
    yaw_ki: float = 0.2
    yaw_kd: float = 10.0
    integrator_limit: float = 1.0   # clamp on each integrated error
    max_tilt: float = 0.35          # rad, ceiling on commanded roll/pitch

    def __post_init__(self):
        for name in _GAINS:
            require_number(name, getattr(self, name), ge=0)
        require_number("integrator_limit", self.integrator_limit, gt=0)
        require_number("max_tilt", self.max_tilt, gt=0)
        if self.max_tilt > math.pi / 4:
            raise ValueError(f"max_tilt must be at most pi/4, got {self.max_tilt}")


# the gains, before the two clamps
_GAINS = tuple(f.name for f in fields(PidGains))[:-2]


def _clamp(v: float, lo: float, hi: float) -> float:
    return min(max(v, lo), hi)


def pid_step(x_now: np.ndarray, ref: np.ndarray, ctrl: PidController) -> np.ndarray:
    """One cascade update; returns the squared-speed command.

    ``ref`` is one reference row, x, y, z and heading psi, as ``ref_window``
    returns it. Updates the controller's integrators and last tilt targets.
    Saturated allocations fall back to the clamped command and freeze the
    integrators for the step (conditional anti-windup).
    """
    gains, dt, veh = ctrl.gains, ctrl.dt, ctrl.veh
    s = np.asarray(x_now, dtype=float)
    ref_x, ref_y, ref_z, ref_psi = ref

    ex = ref_x - s[0]
    ey = ref_y - s[1]
    ez = ref_z - s[2]
    psi = s[8]
    cps, sps = math.cos(psi), math.sin(psi)
    # rotate position errors and velocities into the heading frame
    e_bx = cps * ex + sps * ey
    e_by = -sps * ex + cps * ey
    v_bx = cps * s[3] + sps * s[4]
    v_by = -sps * s[3] + cps * s[4]
    e_psi = dynamics.wrap_angle(ref_psi - psi)

    lim = gains.integrator_limit
    new_int = ctrl.integrals.copy()
    new_int[0] = _clamp(new_int[0] + e_bx * dt, -lim, lim)
    new_int[1] = _clamp(new_int[1] + e_by * dt, -lim, lim)
    new_int[2] = _clamp(new_int[2] + ez * dt, -lim, lim)

    theta_des = _clamp(
        gains.x_kp * e_bx + gains.x_ki * new_int[0] - gains.x_kd * v_bx,
        -gains.max_tilt, gains.max_tilt)
    phi_des = _clamp(
        -(gains.y_kp * e_by + gains.y_ki * new_int[1] - gains.y_kd * v_by),
        -gains.max_tilt, gains.max_tilt)

    e_phi = phi_des - s[6]
    e_theta = theta_des - s[7]
    new_int[3] = _clamp(new_int[3] + e_phi * dt, -lim, lim)
    new_int[4] = _clamp(new_int[4] + e_theta * dt, -lim, lim)
    new_int[5] = _clamp(new_int[5] + e_psi * dt, -lim, lim)

    climb_acc = gains.z_kp * ez + gains.z_ki * new_int[2] - gains.z_kd * s[5]
    thrust = max(veh.mass * (ctrl.env.gravity + climb_acc), 0.0)
    roll_m = gains.roll_kp * e_phi + gains.roll_ki * new_int[3] - gains.roll_kd * s[9]
    pitch_m = gains.pitch_kp * e_theta + gains.pitch_ki * new_int[4] - gains.pitch_kd * s[10]
    yaw_m = gains.yaw_kp * e_psi + gains.yaw_ki * new_int[5] - gains.yaw_kd * s[11]

    try:
        cmd = dynamics.allocate(np.array([thrust, roll_m, pitch_m, yaw_m]), veh)
        ctrl.integrals = new_int
    except dynamics.AllocationSaturated as sat:
        cmd = sat.command  # keep old integrals: windup protection
    ctrl.last_tilt_target = (phi_des, theta_des)
    return cmd


class PidController:
    """The cascade bound to its gains, vehicle and sampling time, with the
    memory ``pid_step`` updates: ``integrals`` (x, y, z, roll, pitch, yaw
    order) and ``last_tilt_target`` (phi_des, theta_des). One per closed loop.
    """

    def __init__(self, gains: PidGains, veh: VehicleParams, env: EnvParams, dt: float):
        require_number("dt", dt, gt=0)
        self.gains = gains
        self.veh = veh
        self.env = env
        self.dt = dt
        self.integrals = np.zeros(6)
        self.last_tilt_target = (0.0, 0.0)

    def command(self, t: float, x_now: np.ndarray, traj: RefGenerator) -> np.ndarray:
        return pid_step(x_now, ref_window(traj, t, 1, self.dt)[0], self)
