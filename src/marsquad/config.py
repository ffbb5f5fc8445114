"""Scenario configuration: strict INI-style files with typed sections.

Unknown sections or keys are rejected outright so a misspelled weight name
fails loudly instead of silently running with defaults. Every parameter the
simulation uses is representable in the file; the snapshot writer emits the
fully resolved configuration so a run can be reproduced from its output
directory alone.
"""

from __future__ import annotations

import configparser
import inspect
import io
from dataclasses import dataclass, fields, replace

import numpy as np

from . import params as par
from .mpc import MpcConfig
from .pid import AxisGains, PidGains
from .simulator import Disturbance, Pulse
from .trajectories import TRAJECTORIES, RefGenerator

__all__ = ["ConfigError", "SimSettings", "ScenarioConfig", "load_config",
           "parse_overrides", "config_snapshot", "derived_report"]


class ConfigError(ValueError):
    """Aggregated configuration problems; ``problems`` lists every one."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.problems))


_ENV_KEYS = {"profile", "density", "static_pressure", "temperature", "gas_constant",
             "dynamic_viscosity", "gamma", "gravity"}
_VEHICLE_KEYS = {"mass", "arm_length", "rotor_radius", "inertia_xx", "inertia_yy",
                 "inertia_zz", "rotor_inertia", "thrust_coeff", "torque_coeff",
                 "linear_drag", "max_rotor_speed"}
_MPC_KEYS = {"horizon", "position_weight", "velocity_weight", "angle_weight",
             "rate_weight", "input_weight", "input_rate_weight", "u_min", "u_max",
             "qp_max_iter", "qp_tol", "constrained"}
_PID_AXES = ("x", "y", "z", "roll", "pitch", "yaw")
_PID_KEYS = {f"{axis}_{g}" for axis in _PID_AXES for g in ("kp", "ki", "kd")} | {
    "integrator_limit", "max_tilt"}
# each trajectory type's config keys and defaults: its factory's signature
_TRAJ_PARAMS = {kind: {p.name: p.default for p in inspect.signature(factory).parameters.values()}
                for kind, factory in TRAJECTORIES.items()}
_TRAJ_KEYS = {"type"}.union(*_TRAJ_PARAMS.values())
_DIST_KEYS = {"pulses", "noise_force", "noise_torque"}
_SIM_KEYS = {"controller", "duration", "control_dt", "substeps", "seed", "outdir",
             "transient_skip"}
_SCENARIO_KEYS = {"description"}
_ACCEPT_KEYS = {"settling_time_max", "overshoot_pct_max", "steady_state_error_max",
                "rms_error_max", "recovery_time_max", "recovery_radius",
                "max_position_deviation"}

_SCHEMA = {
    "scenario": _SCENARIO_KEYS,
    "environment": _ENV_KEYS,
    "vehicle": _VEHICLE_KEYS,
    "mpc": _MPC_KEYS,
    "pid": _PID_KEYS,
    "trajectory": _TRAJ_KEYS,
    "disturbance": _DIST_KEYS,
    "sim": _SIM_KEYS,
    "acceptance": _ACCEPT_KEYS,
}

_PROFILES = {"mars": par.MARS, "earth": par.EARTH}


@dataclass(frozen=True)
class SimSettings:
    controller: str = "mpc"        # mpc | pid | both
    duration: float = 20.0         # s
    control_dt: float = 0.02       # s
    substeps: int = 10
    seed: int = 0
    outdir: str = "results"
    transient_skip: float = 0.0    # s excluded from the RMS metric

    def __post_init__(self):
        if self.controller not in ("mpc", "pid", "both"):
            raise ValueError(f"controller must be mpc, pid, or both, got {self.controller!r}")
        if self.duration <= 0 or self.control_dt <= 0:
            raise ValueError("duration and control_dt must be > 0")
        if self.substeps < 1:
            raise ValueError("substeps must be >= 1")
        if self.transient_skip < 0:
            raise ValueError("transient_skip must be >= 0")


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


def _read_ini(path) -> configparser.ConfigParser:
    # '#' only: ';' separates pulse entries inside [disturbance] values
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       interpolation=None)
    with open(path) as fh:
        parser.read_file(fh, source=str(path))
    return parser


def parse_overrides(pairs) -> list[tuple[str, str, str]]:
    """Parse ``section.key=value`` strings into (section, key, value) triples."""
    out = []
    for item in pairs:
        if "=" not in item:
            raise ConfigError([f"override {item!r} is not of the form section.key=value"])
        lhs, value = item.split("=", 1)
        if "." not in lhs:
            raise ConfigError([f"override {item!r} is not of the form section.key=value"])
        section, key = lhs.split(".", 1)
        out.append((section.strip(), key.strip(), value.strip()))
    return out


class _Reader:
    """Typed access to one parsed file, accumulating problems instead of raising."""

    def __init__(self, parser: configparser.ConfigParser):
        self.parser = parser
        self.problems: list[str] = []

    def check_schema(self):
        for section in self.parser.sections():
            if section not in _SCHEMA:
                self.problems.append(f"unknown section [{section}]")
                continue
            for key in self.parser[section]:
                if key not in _SCHEMA[section]:
                    self.problems.append(f"unknown key {section}.{key}")

    def get(self, section, key, default=None):
        if self.parser.has_option(section, key):
            return self.parser.get(section, key)
        return default

    def get_float(self, section, key, default=None):
        raw = self.get(section, key)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            self.problems.append(f"{section}.{key} must be a number, got {raw!r}")
            return default

    def get_int(self, section, key, default=None):
        raw = self.get(section, key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            self.problems.append(f"{section}.{key} must be an integer, got {raw!r}")
            return default

    def get_bool(self, section, key, default=None):
        raw = self.get(section, key)
        if raw is None:
            return default
        low = raw.strip().lower()
        if low in ("true", "yes", "on", "1"):
            return True
        if low in ("false", "no", "off", "0"):
            return False
        self.problems.append(f"{section}.{key} must be a boolean, got {raw!r}")
        return default


def _build_env(r: _Reader) -> par.EnvParams | None:
    profile = (r.get("environment", "profile", "mars") or "mars").lower()
    if profile not in _PROFILES:
        r.problems.append(f"environment.profile must be one of {sorted(_PROFILES)}, "
                          f"got {profile!r}")
        return None
    base = _PROFILES[profile]
    updates = {}
    for f in fields(par.EnvParams):
        v = r.get_float("environment", f.name)
        if v is not None:
            updates[f.name] = v
    try:
        return replace(base, **updates)
    except ValueError as err:
        r.problems.append(str(err))
        return None


def _build_vehicle(r: _Reader) -> par.VehicleParams | None:
    base = par.VehicleParams.default()
    updates = {}
    for f in fields(par.VehicleParams):
        v = r.get_float("vehicle", f.name)
        if v is not None:
            updates[f.name] = v
    try:
        return replace(base, **updates)
    except ValueError as err:
        r.problems.append(str(err))
        return None


def _build_mpc(r: _Reader, veh: par.VehicleParams) -> MpcConfig | None:
    kwargs = {}
    for key in ("position_weight", "velocity_weight", "angle_weight", "rate_weight",
                "input_weight", "input_rate_weight"):
        v = r.get_float("mpc", key)
        if v is not None:
            kwargs[key] = v
    horizon = r.get_int("mpc", "horizon")
    if horizon is not None:
        kwargs["horizon"] = horizon
    try:
        cfg = MpcConfig.default(veh, **kwargs)
        u_min = r.get_float("mpc", "u_min")
        u_max = r.get_float("mpc", "u_max")
        qp_max_iter = r.get_int("mpc", "qp_max_iter")
        qp_tol = r.get_float("mpc", "qp_tol")
        constrained = r.get_bool("mpc", "constrained")
        updates = {}
        if u_min is not None:
            updates["u_min"] = np.full(par.N_ROTORS, u_min)
        if u_max is not None:
            updates["u_max"] = np.full(par.N_ROTORS, u_max)
        if qp_max_iter is not None:
            updates["qp_max_iter"] = qp_max_iter
        if qp_tol is not None:
            updates["qp_tol"] = qp_tol
        if constrained is not None:
            updates["constrained"] = constrained
        if updates:
            cfg = replace(cfg, **updates)
        return cfg
    except ValueError as err:
        r.problems.append(f"[mpc] {err}")
        return None


def _build_pid(r: _Reader) -> PidGains | None:
    base = PidGains.default()
    try:
        axes = {}
        for axis in _PID_AXES:
            current = getattr(base, axis)
            axes[axis] = AxisGains(
                kp=r.get_float("pid", f"{axis}_kp", current.kp),
                ki=r.get_float("pid", f"{axis}_ki", current.ki),
                kd=r.get_float("pid", f"{axis}_kd", current.kd),
            )
        return PidGains(
            integrator_limit=r.get_float("pid", "integrator_limit", base.integrator_limit),
            max_tilt=r.get_float("pid", "max_tilt", base.max_tilt),
            **axes,
        )
    except ValueError as err:
        r.problems.append(f"[pid] {err}")
        return None


def _build_traj(r: _Reader):
    kind = (r.get("trajectory", "type", "constant") or "constant").lower()
    if kind not in TRAJECTORIES:
        r.problems.append(f"trajectory.type must be one of {sorted(TRAJECTORIES)}, "
                          f"got {kind!r}")
        return None, {}
    tp = dict(_TRAJ_PARAMS[kind])
    if r.parser.has_section("trajectory"):
        for key in r.parser["trajectory"]:
            if key != "type" and key in _TRAJ_KEYS and key not in tp:
                r.problems.append(f"trajectory.{key} does not apply to type {kind!r}")
    for key in tp:
        v = r.get_float("trajectory", key)
        if v is not None:
            tp[key] = v
    return kind, tp


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


def _build_disturbance(r: _Reader) -> Disturbance | None:
    try:
        pulses = _parse_pulses(r.get("disturbance", "pulses", "") or "")
        return Disturbance(
            pulses=pulses,
            noise_force=r.get_float("disturbance", "noise_force", 0.0),
            noise_torque=r.get_float("disturbance", "noise_torque", 0.0),
        )
    except ValueError as err:
        r.problems.append(f"[disturbance] {err}")
        return None


def _build_sim(r: _Reader) -> SimSettings | None:
    try:
        return SimSettings(
            controller=(r.get("sim", "controller", "mpc") or "mpc").lower(),
            duration=r.get_float("sim", "duration", 20.0),
            control_dt=r.get_float("sim", "control_dt", 0.02),
            substeps=r.get_int("sim", "substeps", 10),
            seed=r.get_int("sim", "seed", 0),
            outdir=r.get("sim", "outdir", "results"),
            transient_skip=r.get_float("sim", "transient_skip", 0.0),
        )
    except ValueError as err:
        r.problems.append(f"[sim] {err}")
        return None


def load_config(path, overrides=()) -> ScenarioConfig:
    """Load, override, and validate a scenario file. Raises ``ConfigError``."""
    import os

    if not os.path.isfile(path):
        raise ConfigError([f"config file not found: {path}"])
    try:
        parser = _read_ini(path)
    except configparser.Error as err:
        raise ConfigError([f"cannot parse {path}: {err}"]) from None

    for section, key, value in parse_overrides(overrides):
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value)

    r = _Reader(parser)
    r.check_schema()

    env = _build_env(r)
    veh = _build_vehicle(r)
    mpc_cfg = _build_mpc(r, veh) if veh is not None else None
    pid_gains = _build_pid(r)
    traj_type, traj_params = _build_traj(r)
    dist = _build_disturbance(r)
    sim = _build_sim(r)

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

    acceptance = {}
    if parser.has_section("acceptance"):
        for key in parser["acceptance"]:
            if key in _ACCEPT_KEYS:
                v = r.get_float("acceptance", key)
                if v is not None:
                    acceptance[key] = v

    if r.problems:
        raise ConfigError(r.problems)

    name = os.path.splitext(os.path.basename(str(path)))[0]
    return ScenarioConfig(
        name=name,
        description=r.get("scenario", "description", "") or "",
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


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def config_snapshot(cfg: ScenarioConfig) -> str:
    """Serialize the fully resolved configuration back to INI text."""
    out = io.StringIO()

    def section(name, pairs):
        out.write(f"[{name}]\n")
        for k, v in pairs:
            out.write(f"{k} = {_fmt(v)}\n")
        out.write("\n")

    section("scenario", [("description", cfg.description)])
    section("environment", [(f.name, getattr(cfg.env, f.name))
                            for f in fields(par.EnvParams)])
    section("vehicle", [(f.name, getattr(cfg.veh, f.name))
                        for f in fields(par.VehicleParams)])
    m = cfg.mpc
    section("mpc", [
        ("horizon", m.horizon),
        ("position_weight", float(m.state_weight[0])),
        ("velocity_weight", float(m.state_weight[3])),
        ("angle_weight", float(m.state_weight[6])),
        ("rate_weight", float(m.state_weight[9])),
        ("input_weight", float(m.input_weight[0])),
        ("input_rate_weight", float(m.input_rate_weight[0])),
        ("u_min", float(m.u_min[0])),
        ("u_max", float(m.u_max[0])),
        ("qp_max_iter", m.qp_max_iter),
        ("qp_tol", m.qp_tol),
        ("constrained", m.constrained),
    ])
    pid_pairs = []
    for axis in _PID_AXES:
        g = getattr(cfg.pid, axis)
        pid_pairs += [(f"{axis}_kp", g.kp), (f"{axis}_ki", g.ki), (f"{axis}_kd", g.kd)]
    pid_pairs += [("integrator_limit", cfg.pid.integrator_limit),
                  ("max_tilt", cfg.pid.max_tilt)]
    section("pid", pid_pairs)
    section("trajectory", [("type", cfg.traj_type)]
            + sorted(cfg.traj_params.items()))
    pulse_str = "; ".join(
        " ".join(_fmt(v) for v in (p.t_start, p.t_end, *p.force, *p.torque))
        for p in cfg.disturbance.pulses)
    section("disturbance", [("pulses", pulse_str),
                            ("noise_force", cfg.disturbance.noise_force),
                            ("noise_torque", cfg.disturbance.noise_torque)])
    section("sim", [(f.name, getattr(cfg.sim, f.name)) for f in fields(SimSettings)])
    if cfg.acceptance:
        section("acceptance", sorted(cfg.acceptance.items()))
    return out.getvalue()


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
