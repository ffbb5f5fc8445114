"""Scenario configuration: strict INI-style files with typed sections.

Unknown sections or keys are rejected outright so a misspelled weight name
fails loudly instead of silently running with defaults. Every parameter the
simulation uses is representable in the file, and a file need only set the
values that differ from the defaults; the snapshot writer emits the fully
resolved configuration so a run can be reproduced from its output
directory alone.

One table per section holds its keys, their order, their types and their
defaults, and it is derived from the section's default object: the fields
of ``MARS``, ``VehicleParams()``, ``MpcConfig.default`` (less the
input box, which comes from the vehicle), ``PidGains()``, ``Disturbance()``
and ``SimSettings()``, and each trajectory factory's signature. A value
parses as the type of its default, and a number must be finite. The schema
check, the reader and ``config_snapshot`` all read these tables; only
``[disturbance]``'s pulse list has its own writer and parser.
"""

from __future__ import annotations

import configparser
import inspect
import math
import os
import re
from dataclasses import dataclass, fields, replace

from . import params as par
from .mpc import MpcConfig
from .pid import PidGains
from .simulator import Disturbance, Pulse, step_count
from .trajectories import TRAJECTORIES, RefGenerator

__all__ = ["CONTROLLERS", "ConfigError", "SimSettings", "ScenarioConfig", "load_config",
           "parse_overrides", "config_snapshot", "derived_report"]

# each ``sim.controller`` choice -> the controllers it runs, in run order
CONTROLLERS = {"mpc": ("mpc",), "pid": ("pid",), "both": ("mpc", "pid")}


class ConfigError(ValueError):
    """Aggregated configuration problems; ``problems`` lists every one."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.problems))


@dataclass(frozen=True)
class SimSettings:
    controller: str = "mpc"        # a key of CONTROLLERS
    duration: float = 20.0         # s
    control_dt: float = 0.02       # s
    substeps: int = 10
    seed: int = 0
    outdir: str = "results"
    transient_skip: float = 0.0    # s excluded from the RMS metric

    def __post_init__(self):
        if self.controller not in CONTROLLERS:
            raise ValueError(f"controller must be in {list(CONTROLLERS)}, got {self.controller!r}")
        par.require_number("duration", self.duration, gt=0)
        par.require_number("control_dt", self.control_dt, gt=0)
        par.require_int("substeps", self.substeps, ge=1)
        par.require_int("seed", self.seed, ge=0)
        par.require_number("transient_skip", self.transient_skip, ge=0)
        # the last logged sample, on the grid run_closed_loop steps
        last = (step_count(self.duration, self.control_dt) - 1) * self.control_dt
        if self.transient_skip > last:
            raise ValueError(f"transient_skip must be at most the last sample time {last}, "
                             f"got {self.transient_skip}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved scenario: typed parameter sets plus the trajectory."""

    name: str
    description: str
    env: par.EnvParams
    veh: par.VehicleParams
    mpc: MpcConfig
    pid: PidGains
    traj_type: str
    traj_params: dict
    disturbance: Disturbance
    sim: SimSettings
    acceptance: dict

    def trajectory(self) -> RefGenerator:
        return TRAJECTORIES[self.traj_type](**self.traj_params)


def _fields(obj) -> dict:
    """A dataclass instance's field values by name, in field order."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    # a line break goes on as an indented continuation line, as a file writes it
    return str(v).replace("\n", "\n    ")


def _dist_flat(d: Disturbance) -> dict:
    """[disturbance]: the fields, with the pulses written as one string."""
    pulses = "; ".join(" ".join(_fmt(v) for v in (p.t_start, p.t_end, *p.force, *p.torque))
                       for p in d.pulses)
    return {**_fields(d), "pulses": pulses}


def _parse_pulses(raw: str):
    pulses = []
    for chunk in raw.replace("\n", ";").split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        vals = chunk.split()
        if len(vals) != 8:
            raise ValueError(
                f"pulse {chunk!r} must have 8 numbers: t_start t_end fx fy fz tx ty tz")
        nums = [float(v) for v in vals]
        pulses.append(Pulse(t_start=nums[0], t_end=nums[1],
                            force=tuple(nums[2:5]), torque=tuple(nums[5:8])))
    return tuple(pulses)


def _dist_build(values: dict) -> Disturbance:
    return Disturbance(**{**values, "pulses": _parse_pulses(values.get("pulses", ""))})


_PROFILES = {"mars": par.MARS, "earth": par.EARTH}
# each trajectory type's parameters and defaults: its factory's signature
_TRAJ_PARAMS = {kind: {p.name: p.default for p in inspect.signature(factory).parameters.values()}
                for kind, factory in TRAJECTORIES.items()}

# section -> {key: default} in snapshot order; a value parses as its default's type
_TABLES = {
    "scenario": {"description": ""},
    "environment": _fields(par.MARS),
    "vehicle": _fields(par.VehicleParams()),
    # the input box is not a key: MpcConfig.default takes it from [vehicle]
    "mpc": {k: v for k, v in _fields(MpcConfig.default(par.VehicleParams())).items()
            if k not in ("u_min", "u_max")},
    "pid": _fields(PidGains()),
    "trajectory": {k: v for params in _TRAJ_PARAMS.values() for k, v in params.items()},
    "disturbance": _dist_flat(Disturbance()),
    "sim": _fields(SimSettings()),
    # thresholds have no default (an absent one is not checked); 0.0 makes them floats
    "acceptance": dict.fromkeys(
        ("max_position_deviation", "overshoot_pct_max", "recovery_radius",
         "recovery_time_max", "rms_error_max", "settling_time_max",
         "steady_state_error_max"), 0.0),
}
# keys that pick a section's base object rather than set a value
_SELECTORS = {("environment", "profile"), ("trajectory", "type")}


def _read_ini(path) -> configparser.ConfigParser:
    # '#' only: ';' separates pulse entries inside [disturbance] values. No header
    # line or override can name the section "\n", so [DEFAULT] is an unknown section.
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       interpolation=None, default_section="\n")
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh, source=str(path))
    return parser


def parse_overrides(pairs) -> list[tuple[str, str, str]]:
    """Parse ``section.key=value`` strings into (section, key, value) triples.

    The section and the key must not be empty (``configparser`` would file
    an empty section's key under every section). A value with a ``#`` at
    its start or after whitespace is rejected: a file reads that ``#`` as
    the start of a comment, so the run's snapshot could not hold the value.
    """
    out = []
    for item in pairs:
        lhs, eq, value = item.partition("=")
        section, dot, key = (part.strip() for part in lhs.partition("."))
        if not (eq and dot and section and key):
            raise ConfigError([f"override {item!r} is not of the form section.key=value"])
        value = value.strip()
        if re.search(r"(^|\s)#", value):
            raise ConfigError([f"override {section}.{key}: {value!r} has a '#' that a "
                               "config file reads as the start of a comment"])
        out.append((section, key, value))
    return out


class _Reader:
    """Typed access to one parsed file, accumulating problems instead of raising."""

    def __init__(self, parser: configparser.ConfigParser):
        # every section read once, keys in file order
        self.raw = {s: dict(parser.items(s)) for s in parser.sections()}
        self.problems: list[str] = []

    def check_schema(self):
        for section, values in self.raw.items():
            if section not in _TABLES:
                self.problems.append(f"unknown section [{section}]")
                continue
            for key in values:
                if key not in _TABLES[section] and (section, key) not in _SELECTORS:
                    self.problems.append(f"unknown key {section}.{key}")

    def get(self, section, key, default):
        """``section.key`` parsed as the type of ``default``; ``default`` if absent.

        A malformed value is recorded as a problem and gives None, as does a
        number that is not finite.
        """
        raw = self.raw.get(section, {}).get(key)
        if raw is None:
            return default
        kind = type(default)
        if kind is str:
            return raw
        what = "an integer" if kind is int else "a number"
        try:
            value = kind(raw)
        except ValueError:
            value = None
        if kind is float and value is not None and not math.isfinite(value):
            value, what = None, "a finite number"
        if value is None:
            self.problems.append(f"{section}.{key} must be {what}, got {raw!r}")
        return value

    def choice(self, section, key, default) -> str:
        """A case-insensitive name; ``default`` if absent or empty."""
        return (self.raw.get(section, {}).get(key) or default).lower()

    def read(self, section, table) -> dict:
        """The section's well-formed values of the table's keys, in table order."""
        present = self.raw.get(section, {})
        values = {}
        for key, default in table.items():
            if key in present:
                value = self.get(section, key, default)
                if value is not None:
                    values[key] = value
        return values

    def build(self, section, make):
        """``make`` applied to the section's values; None if it raises ValueError."""
        try:
            return make(self.read(section, _TABLES[section]))
        except ValueError as err:
            self.problems.append(f"[{section}] {err}")
            return None


def load_config(path, overrides=()) -> ScenarioConfig:
    """Load, override, and validate a scenario file. Raises ``ConfigError``."""
    if not os.path.isfile(path):
        raise ConfigError([f"config file not found: {path}"])
    try:
        parser = _read_ini(path)
    except (configparser.Error, UnicodeDecodeError) as err:
        raise ConfigError([f"cannot parse {path}: {err}"]) from None

    for section, key, value in parse_overrides(overrides):
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value)

    r = _Reader(parser)
    r.check_schema()

    env = mpc_cfg = None
    profile = r.choice("environment", "profile", "mars")
    if profile in _PROFILES:
        env = r.build("environment", lambda v: replace(_PROFILES[profile], **v))
    else:
        r.problems.append(f"environment.profile must be one of {sorted(_PROFILES)}, "
                          f"got {profile!r}")
    veh = r.build("vehicle", lambda v: par.VehicleParams(**v))
    if veh is not None:
        mpc_cfg = r.build("mpc", lambda v: MpcConfig.default(veh, **v))
    pid_gains = r.build("pid", lambda v: PidGains(**v))

    traj_type = r.choice("trajectory", "type", "constant")
    traj_params = {}
    if traj_type in TRAJECTORIES:
        defaults = _TRAJ_PARAMS[traj_type]
        for key in r.raw.get("trajectory", ()):
            if key in _TABLES["trajectory"] and key not in defaults:
                r.problems.append(f"trajectory.{key} does not apply to type {traj_type!r}")
        traj_params = {**defaults, **r.read("trajectory", defaults)}
    else:
        r.problems.append(f"trajectory.type must be one of {sorted(TRAJECTORIES)}, "
                          f"got {traj_type!r}")
        traj_type = None

    dist = r.build("disturbance", _dist_build)
    sim = r.build("sim", lambda v: SimSettings(
        **{**v, "controller": (v.get("controller") or SimSettings.controller).lower()}))

    if env is not None and veh is not None:
        try:
            par.check_rotor_feasible(veh, env)
        except ValueError as err:
            r.problems.append(str(err))

    if traj_type is not None:
        try:
            TRAJECTORIES[traj_type](**traj_params)
        except ValueError as err:
            r.problems.append(f"[trajectory] {err}")

    acceptance = r.read("acceptance", _TABLES["acceptance"])

    if r.problems:
        raise ConfigError(r.problems)

    return ScenarioConfig(
        name=os.path.splitext(os.path.basename(str(path)))[0],
        description=r.get("scenario", "description", _TABLES["scenario"]["description"]),
        env=env,
        veh=veh,
        mpc=mpc_cfg,
        pid=pid_gains,
        traj_type=traj_type,
        traj_params=traj_params,
        disturbance=dist,
        sim=sim,
        acceptance=acceptance,
    )


def config_snapshot(cfg: ScenarioConfig) -> str:
    """Serialize the fully resolved configuration back to INI text."""
    sections = {
        "scenario": {"description": cfg.description},
        "environment": _fields(cfg.env),
        "vehicle": _fields(cfg.veh),
        "mpc": {k: getattr(cfg.mpc, k) for k in _TABLES["mpc"]},
        "pid": _fields(cfg.pid),
        "trajectory": {"type": cfg.traj_type, **dict(sorted(cfg.traj_params.items()))},
        "disturbance": _dist_flat(cfg.disturbance),
        "sim": _fields(cfg.sim),
        "acceptance": dict(sorted(cfg.acceptance.items())),
    }
    # every section but [acceptance] is never empty
    return "".join(f"[{name}]\n" + "".join(f"{k} = {_fmt(v)}\n" for k, v in values.items())
                   + "\n" for name, values in sections.items() if values)


def derived_report(cfg: ScenarioConfig) -> dict:
    """Quantities worth eyeballing before a run."""
    a = par.speed_of_sound(cfg.env)
    hov = par.hover_speed(cfg.veh, cfg.env)
    return {
        "speed_of_sound_m_s": a,
        "hover_thrust_N": par.hover_thrust(cfg.veh, cfg.env),
        "hover_speed_rad_s": hov,
        "hover_speed_rpm": par.rad_s_to_rpm(hov),
        "tip_mach_at_hover": par.tip_mach(hov, cfg.veh.rotor_radius, a),
        "tip_mach_at_max": par.tip_mach(cfg.veh.max_rotor_speed, cfg.veh.rotor_radius, a),
    }
