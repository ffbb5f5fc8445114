"""Nonlinear rigid-body model of the coaxial octorotor and rotor allocation.

State layout (12-vector, ground-frame positions, body-referenced angles):

    [x, y, z, vx, vy, vz, phi, theta, psi, phi_dot, theta_dot, psi_dot]

The control input is the vector of eight squared rotor speeds (rad^2/s^2).
Arm convention: rotors 1,2 sit on the +x arm, 5,6 on the -x arm, 7,8 on the
+y arm, 3,4 on the -y arm; within each coaxial pair the even-numbered rotor
spins opposite to the odd one. Indices in code are 0-based.

The equations of motion (``_derivative``) run on Python floats: a state
goes in as 12 floats and the derivative comes out as a 12-tuple, so an
integrator substep builds no numpy temporaries. ``state_derivative`` is
the checked array form of the same equations.
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
    "make_state",
    "wrench_from_rotors",
    "mixer_matrix",
    "allocate",
    "state_derivative",
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


def make_state(x=0.0, y=0.0, z=0.0, vx=0.0, vy=0.0, vz=0.0,
               phi=0.0, theta=0.0, psi=0.0,
               phi_dot=0.0, theta_dot=0.0, psi_dot=0.0) -> np.ndarray:
    return np.array([x, y, z, vx, vy, vz, phi, theta, psi,
                     phi_dot, theta_dot, psi_dot], dtype=float)


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
    yields exactly zero roll and pitch moments.
    """
    w = np.asarray(omega_sq, dtype=float)
    if w.shape != (N_ROTORS,):
        raise ValueError(f"expected {N_ROTORS} squared rotor speeds, got shape {w.shape}")
    if np.any(w < 0):
        raise ValueError("squared rotor speeds must be >= 0")
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
    if not np.all(np.isfinite(w)):
        raise ValueError("target wrench must be finite")
    if w[0] < 0:
        raise AllocationInfeasible(f"collective thrust must be >= 0, got {w[0]}")
    omega_sq = _mixer(veh)[2] @ w
    hi = veh.max_rotor_speed ** 2
    clipped = np.clip(omega_sq, 0.0, hi)
    if np.any(clipped != omega_sq):
        raise AllocationSaturated(clipped)
    return omega_sq


def state_derivative(state: np.ndarray, omega_sq: np.ndarray,
                     veh: VehicleParams, env: EnvParams) -> np.ndarray:
    """Time derivative of the 12-state under a squared-speed command."""
    s = np.asarray(state, dtype=float)
    if s.shape != (12,):
        raise ValueError(f"expected a 12-state, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("state must be finite")
    wrench = wrench_from_rotors(omega_sq, veh)
    return np.array(_derivative(s.tolist(), wrench, veh, env))


def _derivative(s, wrench: Wrench, veh: VehicleParams, env: EnvParams,
                extra_force=None, extra_torque=None) -> tuple:
    """Core equations of motion on floats; returns the derivative as a 12-tuple.

    ``s`` is the state as a sequence of 12 floats; the wrench is precomputed
    so integrators can reuse it. ``extra_force`` (ground frame, N) and
    ``extra_torque`` (body frame, N m) are 3-sequences that inject
    disturbances.
    """
    _, _, _, vx, vy, vz, phi, theta, psi, p, q, r = s

    m = veh.mass
    thrust, roll_m, pitch_m, yaw_m, net_rot = wrench

    sphi, cphi = math.sin(phi), math.cos(phi)
    sth, cth = math.sin(theta), math.cos(theta)
    sps, cps = math.sin(psi), math.cos(psi)

    t_over_m = thrust / m
    ax = (sps * sphi + cps * sth * cphi) * t_over_m
    ay = (-cps * sphi + sps * sth * cphi) * t_over_m
    az = (cth * cphi) * t_over_m - env.gravity
    if veh.linear_drag:
        b_over_m = veh.linear_drag / m
        ax -= b_over_m * vx
        ay -= b_over_m * vy
        az -= b_over_m * vz

    jr = veh.rotor_inertia
    p_dot = (q * r * (veh.inertia_yy - veh.inertia_zz) - jr * q * net_rot + roll_m) / veh.inertia_xx
    q_dot = (p * r * (veh.inertia_zz - veh.inertia_xx) - jr * p * net_rot + pitch_m) / veh.inertia_yy
    r_dot = (p * q * (veh.inertia_xx - veh.inertia_yy) + yaw_m) / veh.inertia_zz

    if extra_force is not None:
        ax += extra_force[0] / m
        ay += extra_force[1] / m
        az += extra_force[2] / m
    if extra_torque is not None:
        p_dot += extra_torque[0] / veh.inertia_xx
        q_dot += extra_torque[1] / veh.inertia_yy
        r_dot += extra_torque[2] / veh.inertia_zz

    return (vx, vy, vz, ax, ay, az, p, q, r, p_dot, q_dot, r_dot)
