"""Reference trajectory generators: constant setpoint, helix, square circuit.

A generator is a pure function of a time array: ``gen(t)`` with ``t`` of
shape (n,) returns an (n, 4) array of x, y, z and heading psi, one row per
time. ``ref_window`` is the checked way to sample one: it rejects negative
times and non-finite references. The square keeps its corners sharp on
purpose, the interesting control behaviour happens there.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = ["RefGenerator", "constant_ref", "helix_ref", "square_ref", "TRAJECTORIES",
           "ref_window"]


# (n,) times -> (n, 4) rows of x, y, z, psi
RefGenerator = Callable[[np.ndarray], np.ndarray]


def _require_finite(positive=(), **values):
    """Reject, by name, a value that is not finite or, if named in ``positive``, not > 0."""
    for name, v in values.items():
        if not (math.isfinite(v) and (v > 0 or name not in positive)):
            rule = "finite and > 0" if name in positive else "finite"
            raise ValueError(f"{name} must be {rule}, got {v}")


def constant_ref(x: float = 0.0, y: float = 0.0, z: float = 0.0,
                 psi: float = 0.0) -> RefGenerator:
    """Hold a fixed position and heading forever."""
    _require_finite(x=x, y=y, z=z, psi=psi)
    point = np.array([x, y, z, psi])

    def gen(t: np.ndarray) -> np.ndarray:
        return np.tile(point, (len(t), 1))

    return gen


def helix_ref(radius: float = 1.0, angular_rate: float = 0.02 * math.pi,
              climb_rate: float = 0.1) -> RefGenerator:
    """Circle of given radius in the horizontal plane with a constant climb.

    x = r cos(w t), y = r sin(w t), z = c t, heading held at zero.
    """
    _require_finite(("radius",), radius=radius, angular_rate=angular_rate,
                    climb_rate=climb_rate)

    def gen(t: np.ndarray) -> np.ndarray:
        ang = angular_rate * t
        out = np.zeros((len(t), 4))
        out[:, 0] = radius * np.cos(ang)
        out[:, 1] = radius * np.sin(ang)
        out[:, 2] = climb_rate * t
        return out

    return gen


def square_ref(side: float = 2.0, edge_duration: float = 10.0,
               altitude: float = 1.0) -> RefGenerator:
    """Periodic square circuit at fixed altitude with sharp 90-degree corners.

    Starts at (0, 0), traverses counterclockwise at constant speed
    side/edge_duration, period 4*edge_duration. Position is continuous at
    the corners; the velocity direction rotates instantaneously.
    """
    _require_finite(("side", "edge_duration"), side=side, edge_duration=edge_duration,
                    altitude=altitude)
    # start corner and travel direction of edges 0..3
    corner = np.array([[0.0, 0.0], [side, 0.0], [side, side], [0.0, side]])
    direction = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])

    def gen(t: np.ndarray) -> np.ndarray:
        tau = np.remainder(t, 4.0 * edge_duration)
        edge = np.floor_divide(tau, edge_duration)
        s = (tau - edge * edge_duration) / edge_duration * side
        e = edge.astype(int)
        out = np.zeros((len(t), 4))
        out[:, 0:2] = corner[e] + direction[e] * s[:, None]
        out[:, 2] = altitude
        return out

    return gen


# trajectory type name -> factory; a factory's keyword parameters and their
# defaults are the type's config keys (see ``marsquad.config``)
TRAJECTORIES: dict[str, Callable[..., RefGenerator]] = {
    "constant": constant_ref,
    "helix": helix_ref,
    "square": square_ref,
}


def ref_window(gen: RefGenerator, t0: float, n: int, dt: float) -> np.ndarray:
    """Sample a generator at t0, t0+dt, ... into an (n, 4) array.

    Raises ``ValueError`` for a start time that is negative or not finite,
    a negative or non-finite step, and a window that is not finite.
    """
    if not (0.0 <= t0 < math.inf and 0.0 <= dt < math.inf):
        raise ValueError(f"reference times must be finite and >= 0, got t0={t0}, dt={dt}")
    out = gen(t0 + np.arange(n) * dt)
    if not np.isfinite(out).all():
        raise ValueError(f"reference window from t={t0} is not finite")
    return out
