"""Nonlinear rigid-body model of the coaxial octorotor and rotor allocation.

State layout (12-vector, ground-frame positions, body-referenced angles):

    [x, y, z, vx, vy, vz, phi, theta, psi, phi_dot, theta_dot, psi_dot]

The control input is the vector of eight squared rotor speeds (rad^2/s^2).
Arm convention: rotors 1,2 sit on the +x arm, 5,6 on the -x arm, 7,8 on the
+y arm, 3,4 on the -y arm; within each coaxial pair the even-numbered rotor
spins opposite to the odd one. Indices in code are 0-based.

The equations of motion are written once, in ``equations_of_motion``: it
binds the held wrench, the vehicle, the environment and the disturbance,
takes every quotient of constants once, and returns a function of the
nine states the equations read (velocities, angles, body rates) that
gives the six accelerations on Python floats. An integrator substep
calls it four times and builds no numpy temporaries. The disturbance is
always added, as zeros when there is none.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .params import N_ROTORS, EnvParams, VehicleParams, hover_thrust

__all__ = [
    "Wrench",
    "AllocationSaturated",
    "AllocationInfeasible",
    "wrap_angle",
    "wrench_from_rotors",
    "mixer_matrix",
    "allocate",
    "equations_of_motion",
    "hover_command",
]

class Wrench(NamedTuple):
    """Total thrust, body moments, and net rotor speed produced by the rotors."""

    thrust: float        # N, >= 0 lifts
    roll_moment: float   # N m about body x
    pitch_moment: float  # N m about body y
    yaw_moment: float    # N m about body z
    net_rotor_speed: float  # rad/s, signed sum over spin directions


class AllocationSaturated(RuntimeError):
    """A rotor command left the feasible box; carries the clamped command."""

    def __init__(self, command: np.ndarray, message: str = "rotor command saturated"):
        super().__init__(message)
        self.command = command


class AllocationInfeasible(ValueError):
    """The requested wrench cannot be produced (negative collective thrust)."""


def wrap_angle(angle):
    """Wrap an angle, or an array of angles elementwise, into (-pi, pi].

    A float gives a float; an array goes through ``np.remainder``, which
    rounds exactly like Python's float ``%``.
    """
    return -((math.pi - angle) % (2.0 * math.pi) - math.pi)


def hover_command(veh: VehicleParams, env: EnvParams) -> np.ndarray:
    """Squared-speed command that exactly balances weight, split evenly."""
    return np.full(N_ROTORS, hover_thrust(veh, env) / (N_ROTORS * veh.thrust_coeff))


def mixer_matrix(veh: VehicleParams) -> np.ndarray:
    """4x8 map from squared rotor speeds to (thrust, roll, pitch, yaw).

    The one place the arm and spin-sign pattern is written down. Thrust is
    the sum of per-rotor thrusts k_t * w_i^2; roll and pitch moments come
    from differential thrust across opposing arms, the yaw moment from the
    reaction-torque imbalance between spin directions. The wrench map, the
    allocation and the linear model's input matrix all derive from it.
    """
    kt = veh.thrust_coeff
    kd = veh.torque_coeff
    dkt = veh.arm_length * kt
    return np.array([
        [kt,   kt,   kt,   kt,   kt,   kt,   kt,   kt],
        [0.0,  0.0, -dkt, -dkt,  0.0,  0.0,  dkt,  dkt],
        [-dkt, -dkt, 0.0,  0.0,  dkt,  dkt,  0.0,  0.0],
        [-kd,  kd,  -kd,   kd,  -kd,   kd,  -kd,   kd],
    ])


@lru_cache(maxsize=8)
def _mixer(veh: VehicleParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only mixer, spin signs (its yaw row's signs) and pseudo-inverse."""
    mixer = mixer_matrix(veh)
    out = (mixer, np.sign(mixer[3]), np.linalg.pinv(mixer))
    for a in out:
        a.flags.writeable = False
    return out


def wrench_from_rotors(omega_sq: np.ndarray, veh: VehicleParams) -> Wrench:
    """Map the eight squared rotor speeds to thrust, moments, and net speed.

    Thrust and moments are ``mixer_matrix(veh) @ omega_sq``; the net rotor
    speed is the spin-signed sum of the rotor speeds. A symmetric command
    yields exactly zero roll and pitch moments. A NaN, infinite or negative
    entry raises ``ValueError``.
    """
    w = np.asarray(omega_sq, dtype=float)
    if w.shape != (N_ROTORS,):
        raise ValueError(f"expected {N_ROTORS} squared rotor speeds, got shape {w.shape}")
    # min and max propagate NaN, which fails every comparison
    if not 0.0 <= w.min() <= w.max() < math.inf:
        raise ValueError(f"squared rotor speeds must be finite and >= 0, got {w.tolist()}")
    mixer, spin, _ = _mixer(veh)
    # products summed per row rather than a BLAS matvec: a fused multiply-add
    # would leave a rounding residue where opposing arms cancel exactly
    thrust, roll, pitch, yaw = (mixer * w).sum(axis=1).tolist()
    return Wrench(thrust, roll, pitch, yaw, float(spin @ np.sqrt(w)))


def allocate(target: np.ndarray, veh: VehicleParams) -> np.ndarray:
    """Minimum-norm squared-speed command realizing a target wrench.

    ``target`` is a length-4 array (thrust, roll, pitch, yaw). The
    unclamped pseudo-inverse solution reproduces the target exactly;
    entries outside [0, max_rotor_speed^2] raise ``AllocationSaturated``
    carrying the clamped command.
    """
    w = np.asarray(target, dtype=float)
    if w.shape != (4,):
        raise ValueError(f"expected a 4-vector, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError("target wrench must be finite")
    if w[0] < 0:
        raise AllocationInfeasible(f"collective thrust must be >= 0, got {w[0]}")
    omega_sq = _mixer(veh)[2] @ w
    hi = veh.max_rotor_speed ** 2
    clipped = omega_sq.clip(0.0, hi)
    if (clipped != omega_sq).any():
        raise AllocationSaturated(clipped)
    return omega_sq


def equations_of_motion(wrench: Wrench, veh: VehicleParams, env: EnvParams,
                        force, torque):
    """The equations of motion on floats, bound to a held wrench and disturbance.

    Returns ``accelerations(vx, vy, vz, phi, theta, psi, p, q, r)``, which
    gives ``(ax, ay, az, p_dot, q_dot, r_dot)``: the rest of the derivative
    is the velocities and body rates themselves. ``force`` (ground frame,
    N) and ``torque`` (body frame, N m) are the disturbance's 3-sequences,
    added after the rotor, gravity and drag terms; zeros give the
    undisturbed plant. Every quotient of constants is taken here, once;
    each is the same float the equations would compute in place.
    """
    m = veh.mass
    ixx, iyy, izz = veh.inertia_xx, veh.inertia_yy, veh.inertia_zz
    jr = veh.rotor_inertia
    gravity = env.gravity
    thrust, roll_m, pitch_m, yaw_m, net_rot = wrench
    t_over_m = thrust / m
    drag = veh.linear_drag
    b_over_m = drag / m
    iyy_izz, izz_ixx, ixx_iyy = iyy - izz, izz - ixx, ixx - iyy
    fx, fy, fz = force[0] / m, force[1] / m, force[2] / m
    tx, ty, tz = torque[0] / ixx, torque[1] / iyy, torque[2] / izz
    sin, cos = math.sin, math.cos

    def accelerations(vx, vy, vz, phi, theta, psi, p, q, r):
        sphi, cphi = sin(phi), cos(phi)
        sth, cth = sin(theta), cos(theta)
        sps, cps = sin(psi), cos(psi)
        ax = (sps * sphi + cps * sth * cphi) * t_over_m
        ay = (-cps * sphi + sps * sth * cphi) * t_over_m
        az = (cth * cphi) * t_over_m - gravity
        if drag:
            ax -= b_over_m * vx
            ay -= b_over_m * vy
            az -= b_over_m * vz
        p_dot = (q * r * iyy_izz - jr * q * net_rot + roll_m) / ixx
        q_dot = (p * r * izz_ixx - jr * p * net_rot + pitch_m) / iyy
        r_dot = (p * q * ixx_iyy + yaw_m) / izz
        return ax + fx, ay + fy, az + fz, p_dot + tx, q_dot + ty, r_dot + tz

    return accelerations
