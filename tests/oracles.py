"""Test-side references written over the package's public run path.

``derivative`` binds ``dynamics.equations_of_motion`` as the closed loop
binds it, so ``numeric_jacobian`` differences the plant the simulator
integrates. ``predict`` rolls the controller's prediction forward from
``mpc.build_prediction`` and the controller's input directions.
"""

import numpy as np

from marsquad import dynamics
from marsquad.mpc import build_prediction


def make_state(x=0.0, y=0.0, z=0.0, vx=0.0, vy=0.0, vz=0.0,
               phi=0.0, theta=0.0, psi=0.0,
               phi_dot=0.0, theta_dot=0.0, psi_dot=0.0) -> np.ndarray:
    """A 12-state in the package's layout, zero where not given."""
    return np.array([x, y, z, vx, vy, vz, phi, theta, psi,
                     phi_dot, theta_dot, psi_dot], dtype=float)


def derivative(state, omega_sq, veh, env) -> np.ndarray:
    """The 12-state's time derivative under a rotor command and a zero disturbance."""
    accelerations = dynamics.equations_of_motion(dynamics.wrench_from_rotors(omega_sq, veh),
                                                 veh, env, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    _, _, _, vx, vy, vz, phi, theta, psi, p, q, r = np.asarray(state, dtype=float).tolist()
    ax, ay, az, p_dot, q_dot, r_dot = accelerations(vx, vy, vz, phi, theta, psi, p, q, r)
    return np.array([vx, vy, vz, ax, ay, az, p, q, r, p_dot, q_dot, r_dot])


def numeric_jacobian(x0, u0, veh, env, eps=1e-6):
    """Central-difference Jacobians (dF/dx 12x12, dF/du 12x8) of ``derivative`` at (x0, u0)."""
    a = np.column_stack([derivative(x0 + d, u0, veh, env) - derivative(x0 - d, u0, veh, env)
                         for d in np.eye(12) * eps])
    b = np.column_stack([derivative(x0, u0 + d, veh, env) - derivative(x0, u0 - d, veh, env)
                         for d in np.eye(8) * eps])
    return a / (2.0 * eps), b / (2.0 * eps)


def predict(ctrl, dx0, du) -> np.ndarray:
    """The (N, 12) deviations ``ctrl``'s model predicts, current step to horizon-1.

    ``du`` is the stacked 8N input deviation, as ``solve_qp`` returns it.
    """
    n = ctrl.cfg.horizon
    inputs = np.reshape(du, (n, 8)) @ ctrl.directions.T
    out = np.empty((n, 12))
    for ch, v in zip(build_prediction(ctrl.model, n), inputs.T):
        out[:, ch.states] = (ch.G @ dx0[ch.states] + ch.H @ v).reshape(n, -1)
    return out


def corner_overshoot(log, side) -> float:
    """Worst horizontal excursion (m) of a logged run outside the square [0, side]^2.

    For the square circuit this is the overshoot at its sharp corners.
    """
    xy = log.states[:, 0:2]
    return float(np.maximum(np.maximum(-xy, xy - side), 0.0).max())
