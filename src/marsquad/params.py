"""Atmosphere profiles, vehicle constants, and rotor feasibility math.

Everything is SI: meters, kilograms, seconds, kelvin, radians. Rotor
speeds are rad/s internally; helpers convert to and from rpm.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from numbers import Integral

__all__ = [
    "EnvParams",
    "VehicleParams",
    "MARS",
    "EARTH",
    "N_ROTORS",
    "speed_of_sound",
    "tip_mach",
    "hover_speed",
    "hover_thrust",
    "check_rotor_feasible",
    "rpm_to_rad_s",
    "rad_s_to_rpm",
    "require_number",
    "require_int",
]

N_ROTORS = 8

_TWO_PI = 2.0 * math.pi
_FLOAT_MAX = sys.float_info.max


def rpm_to_rad_s(rpm: float) -> float:
    return rpm * _TWO_PI / 60.0


def rad_s_to_rpm(omega: float) -> float:
    return omega * 60.0 / _TWO_PI


def require_number(name: str, value, *, ge=None, gt=None, finite=True) -> None:
    """Raise ValueError unless ``value`` is an int or float, not a bool, that is
    finite (or, with ``finite=False``, not NaN), ``>= ge`` and ``> gt`` where given.
    """
    if not ((isinstance(value, float) or isinstance(value, int) and not isinstance(value, bool))
            and (-_FLOAT_MAX <= value <= _FLOAT_MAX if finite else value == value)
            and (ge is None or value >= ge) and (gt is None or value > gt)):
        bound = "" if ge is None and gt is None else f" >= {ge}" if gt is None else f" > {gt}"
        raise ValueError(f"{name} must be a {'finite ' if finite else ''}number{bound}, "
                         f"got {value!r}")


def require_int(name: str, value, *, ge=None) -> None:
    """Raise ValueError unless ``value`` is an integer, ``>= ge`` where given; a bool is not one."""
    if not (isinstance(value, Integral) and not isinstance(value, bool)
            and (ge is None or value >= ge)):
        bound = "" if ge is None else f" >= {ge}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


@dataclass(frozen=True)
class EnvParams:
    """Planetary atmosphere constants plus surface gravity."""

    density: float            # kg/m^3
    static_pressure: float    # Pa
    temperature: float        # K
    gas_constant: float       # m^2/(s^2 K)
    dynamic_viscosity: float  # N s/m^2
    gamma: float              # ratio of specific heats
    gravity: float            # m/s^2

    def __post_init__(self):
        for name, value in vars(self).items():
            require_number(name, value, gt=0)
        if not 1.0 < self.gamma < 2.0:
            raise ValueError(f"gamma must lie in (1, 2), got {self.gamma}")


MARS = EnvParams(
    density=0.017,
    static_pressure=720.0,
    temperature=223.0,
    gas_constant=188.90,
    dynamic_viscosity=1.130e-5,
    gamma=1.289,
    gravity=3.711,
)

EARTH = EnvParams(
    density=1.225,
    static_pressure=101_325.0,
    temperature=288.20,
    gas_constant=287.10,
    dynamic_viscosity=1.175e-5,
    gamma=1.4,
    gravity=9.81,
)


@dataclass(frozen=True)
class VehicleParams:
    """Mass, geometry, and rotor coefficients of the coaxial octorotor.

    The craft has four arms, each carrying a counter-rotating coaxial rotor
    pair (eight actuators). ``thrust_coeff`` maps squared rotor speed to
    thrust per rotor, ``torque_coeff`` maps it to reaction torque about the
    vertical axis. ``linear_drag`` is an optional translational drag
    coefficient; zero disables the term. The field defaults are the default craft.
    """

    # The thrust coefficient is calibrated from a 15.67 N coaxial-pair force
    # measurement at 2800 rpm. 1.12 m blade span gives a 0.56 m radius,
    # which keeps the tip subsonic on Mars over the whole speed range
    # (see README).
    mass: float = 12.0           # kg
    arm_length: float = 1.3      # m, rotor hub to center of gravity
    rotor_radius: float = 0.56   # m
    inertia_xx: float = 1.2      # kg m^2
    inertia_yy: float = 1.2      # kg m^2
    inertia_zz: float = 2.2      # kg m^2
    rotor_inertia: float = 0.02  # kg m^2, rotational inertia of one rotor
    thrust_coeff: float = 9.11e-5  # N s^2/rad^2
    # a typical thrust-to-torque ratio, 0.1 * thrust_coeff * rotor_radius,
    # to five digits
    torque_coeff: float = 5.1016e-6  # N m s^2/rad^2
    linear_drag: float = 0.0     # N s/m, 0 disables translational drag
    max_rotor_speed: float = rpm_to_rad_s(2800.0)  # rad/s, per-rotor ceiling

    def __post_init__(self):
        for name, value in vars(self).items():
            if name == "linear_drag":
                require_number(name, value, ge=0)
            else:
                require_number(name, value, gt=0)


def speed_of_sound(env: EnvParams) -> float:
    """Speed of sound sqrt(gamma * R * T) for the given atmosphere, m/s."""
    return math.sqrt(env.gamma * env.gas_constant * env.temperature)


def tip_mach(omega: float, radius: float, a: float) -> float:
    """Blade-tip Mach number at rotor speed ``omega`` (rad/s) against the speed of sound ``a``."""
    if omega < 0:
        raise ValueError(f"rotor speed must be >= 0, got {omega}")
    if radius <= 0:
        raise ValueError(f"rotor radius must be > 0, got {radius}")
    if a <= 0:
        raise ValueError(f"speed of sound must be > 0, got {a}")
    return omega * radius / a


def hover_thrust(veh: VehicleParams, env: EnvParams) -> float:
    """Total thrust needed to balance weight, N."""
    return veh.mass * env.gravity


def hover_speed(veh: VehicleParams, env: EnvParams) -> float:
    """Per-rotor speed (rad/s) at which the eight rotors carry the weight."""
    return math.sqrt(hover_thrust(veh, env) / (N_ROTORS * veh.thrust_coeff))


def check_rotor_feasible(veh: VehicleParams, env: EnvParams) -> float:
    """Validate that the craft can hover and its rotor tips stay subsonic.

    Returns the tip Mach number at ``max_rotor_speed``; raises ValueError
    when hover needs ``max_rotor_speed`` or more, or when the tip Mach
    number at full speed reaches 1.
    """
    hover = hover_speed(veh, env)
    if hover >= veh.max_rotor_speed:
        raise ValueError(
            f"hover needs {rad_s_to_rpm(hover):.0f} rpm, at or above the max rotor speed "
            f"{rad_s_to_rpm(veh.max_rotor_speed):.0f} rpm"
        )
    mach = tip_mach(veh.max_rotor_speed, veh.rotor_radius, speed_of_sound(env))
    if mach >= 1.0:
        raise ValueError(
            f"tip Mach {mach:.3f} at max rotor speed "
            f"{rad_s_to_rpm(veh.max_rotor_speed):.0f} rpm is not subsonic"
        )
    return mach
