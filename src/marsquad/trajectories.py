"""Reference trajectory generators: constant setpoint, helix, square circuit.

A generator is a pure function of time returning a ``RefSample``; the
controllers sample it as needed. The square keeps its corners sharp on
purpose, the interesting control behaviour happens there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["RefSample", "RefGenerator", "constant_ref", "helix_ref", "square_ref",
           "TRAJECTORIES", "ref_window"]


@dataclass(frozen=True)
class RefSample:
    """One reference point: position and heading at time t."""

    t: float
    x: float
    y: float
    z: float
    psi: float

    def __post_init__(self):
        vals = (self.t, self.x, self.y, self.z, self.psi)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"reference sample must be finite, got {vals}")
        if self.t < 0:
            raise ValueError(f"reference time must be >= 0, got {self.t}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z, self.psi])


RefGenerator = Callable[[float], RefSample]


def constant_ref(x: float = 0.0, y: float = 0.0, z: float = 0.0,
                 psi: float = 0.0) -> RefGenerator:
    """Hold a fixed position and heading forever."""
    if not all(math.isfinite(v) for v in (x, y, z, psi)):
        raise ValueError("setpoint must be finite")

    def gen(t: float) -> RefSample:
        return RefSample(t, x, y, z, psi)

    return gen


def helix_ref(radius: float = 1.0, angular_rate: float = 0.02 * math.pi,
              climb_rate: float = 0.1) -> RefGenerator:
    """Circle of given radius in the horizontal plane with a constant climb.

    x = r cos(w t), y = r sin(w t), z = c t, heading held at zero.
    """
    if radius <= 0:
        raise ValueError(f"radius must be > 0, got {radius}")

    def gen(t: float) -> RefSample:
        ang = angular_rate * t
        return RefSample(t, radius * math.cos(ang), radius * math.sin(ang),
                         climb_rate * t, 0.0)

    return gen


def square_ref(side: float = 2.0, edge_duration: float = 10.0,
               altitude: float = 1.0) -> RefGenerator:
    """Periodic square circuit at fixed altitude with sharp 90-degree corners.

    Starts at (0, 0), traverses counterclockwise at constant speed
    side/edge_duration, period 4*edge_duration. Position is continuous at
    the corners; the velocity direction rotates instantaneously.
    """
    if side <= 0:
        raise ValueError(f"side must be > 0, got {side}")
    if edge_duration <= 0:
        raise ValueError(f"edge_duration must be > 0, got {edge_duration}")

    def gen(t: float) -> RefSample:
        tau = t % (4.0 * edge_duration)
        edge = int(tau // edge_duration)
        s = (tau - edge * edge_duration) / edge_duration * side
        if edge == 0:
            x, y = s, 0.0
        elif edge == 1:
            x, y = side, s
        elif edge == 2:
            x, y = side - s, side
        else:
            x, y = 0.0, side - s
        return RefSample(t, x, y, altitude, 0.0)

    return gen


# trajectory type name -> factory; a factory's keyword parameters and their
# defaults are the type's config keys (see ``marsquad.config``)
TRAJECTORIES: dict[str, Callable[..., RefGenerator]] = {
    "constant": constant_ref,
    "helix": helix_ref,
    "square": square_ref,
}


def ref_window(gen: RefGenerator, t0: float, n: int, dt: float) -> np.ndarray:
    """Sample a generator at t0, t0+dt, ... into an (n, 4) array."""
    out = np.empty((n, 4))
    for i in range(n):
        out[i] = gen(t0 + i * dt).as_array()
    return out
