"""Near-hover linear state-space model and exact zero-order-hold discretization.

The continuous model comes from small-angle simplification of the nonlinear
equations about the hover equilibrium: positions integrate velocities,
horizontal accelerations couple to pitch/roll through gravity, linear drag
damps the velocities, vertical and angular accelerations are linear in the
squared rotor speeds. The zero-order hold is one matrix exponential of the
augmented block [[A, B], [0, 0]].

The rotors enter only through the four rows of the mixer, and each row
drives its own states (``CHANNELS``), so A is block diagonal on those
state sets and B's rows in a set are multiples of one mixer row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import expm

from . import dynamics
from .params import N_ROTORS, EnvParams, VehicleParams

__all__ = ["CHANNELS", "LinearModel", "linearize_hover", "discretize", "numeric_jacobian"]

N_STATES = 12
N_OUTPUTS = 4  # a reference sample: x, y, z, psi
# the states each wrench channel drives, in the mixer's row order:
# thrust (z, vz), roll (y, vy, phi, phi_dot), pitch (x, vx, theta, theta_dot)
# and yaw (psi, psi_dot)
CHANNELS = ((2, 5), (1, 4, 6, 9), (0, 3, 7, 10), (8, 11))


@dataclass(frozen=True)
class LinearModel:
    """State-space model (x' = Ax + Bu) about the zero state and the hover input ``u_ref``.

    ``dt == 0`` marks a continuous model; after discretization ``dt`` is the
    sampling time and A, B hold the discrete transition/input maps.
    """

    A: np.ndarray   # 12x12
    B: np.ndarray   # 12x8
    u_ref: np.ndarray  # 8, linearization input (squared speeds)
    dt: float          # s, 0 for continuous

    def __post_init__(self):
        if self.A.shape != (N_STATES, N_STATES) or self.B.shape != (N_STATES, N_ROTORS):
            raise ValueError("A must be 12x12 and B 12x8")
        if not 0.0 <= self.dt < math.inf:
            raise ValueError(f"dt must be finite and >= 0, got {self.dt}")

    @property
    def continuous(self) -> bool:
        return self.dt == 0.0


def linearize_hover(veh: VehicleParams, env: EnvParams) -> LinearModel:
    """Analytic continuous (A, B) about level hover at the origin with zero heading."""
    g = env.gravity
    a = np.zeros((N_STATES, N_STATES))
    a[0, 3] = 1.0
    a[1, 4] = 1.0
    a[2, 5] = 1.0
    a[[3, 4, 5], [3, 4, 5]] = -veh.linear_drag / veh.mass
    a[3, 7] = g      # x acceleration from pitch, at zero heading only
    a[4, 6] = -g     # y acceleration from roll, at zero heading only
    a[6, 9] = 1.0
    a[7, 10] = 1.0
    a[8, 11] = 1.0

    # vertical and angular accelerations per unit squared speed, from the same
    # mixer as the plant; each entry is one division, so it rounds only once
    mixer = dynamics.mixer_matrix(veh)
    b = np.zeros((N_STATES, N_ROTORS))
    b[5] = mixer[0] / veh.mass
    b[9:12] = mixer[1:4] / np.array([veh.inertia_xx, veh.inertia_yy, veh.inertia_zz])[:, None]

    return LinearModel(
        A=a,
        B=b,
        u_ref=dynamics.hover_command(veh, env),
        dt=0.0,
    )


def discretize(model: LinearModel, ts: float) -> LinearModel:
    """Exact zero-order-hold discretization at sampling time ``ts``.

    Both maps come from one exponential of the augmented block:
        expm([[A, B], [0, 0]] ts) = [[Ad, Bd], [0, I]]
    """
    if not 0.0 < ts < math.inf:
        raise ValueError(f"sampling time must be finite and > 0, got {ts}")
    if not model.continuous:
        raise ValueError("model is already discrete")
    n = N_STATES
    block = np.zeros((n + N_ROTORS, n + N_ROTORS))
    block[:n, :n] = model.A
    block[:n, n:] = model.B
    e = expm(block * ts)
    return replace(model, A=e[:n, :n], B=e[:n, n:], dt=ts)


def numeric_jacobian(x0: np.ndarray, u0: np.ndarray, veh: VehicleParams,
                     env: EnvParams, eps: float = 1e-6):
    """Central-difference Jacobians of the nonlinear model at (x0, u0).

    Returns (dF/dx, dF/du) as a (12x12, 12x8) pair. Serves as an
    independent check of the analytic linearization.
    """
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    x0 = np.asarray(x0, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    a = np.zeros((N_STATES, N_STATES))
    for j in range(N_STATES):
        dx = np.zeros(N_STATES)
        dx[j] = eps
        f_plus = dynamics.state_derivative(x0 + dx, u0, veh, env)
        f_minus = dynamics.state_derivative(x0 - dx, u0, veh, env)
        a[:, j] = (f_plus - f_minus) / (2.0 * eps)
    b = np.zeros((N_STATES, N_ROTORS))
    for j in range(N_ROTORS):
        du = np.zeros(N_ROTORS)
        du[j] = eps
        f_plus = dynamics.state_derivative(x0, u0 + du, veh, env)
        f_minus = dynamics.state_derivative(x0, u0 - du, veh, env)
        b[:, j] = (f_plus - f_minus) / (2.0 * eps)
    return a, b
