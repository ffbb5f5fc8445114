import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from marsquad import dynamics, params
from marsquad.config import SimSettings
from marsquad.linmodel import discretize, linearize_hover
from marsquad.mpc import MpcConfig
from marsquad.params import (EARTH, MARS, EnvParams, VehicleParams, check_rotor_feasible,
                             hover_speed, hover_thrust, require_int, require_number,
                             rpm_to_rad_s, speed_of_sound, tip_mach)
from marsquad.pid import PidController, PidGains
from marsquad.simulator import Disturbance, Pulse, run_closed_loop
from marsquad.trajectories import constant_ref, helix_ref, square_ref


class TestSpeedOfSound:
    def test_earth(self):
        assert speed_of_sound(EARTH) == pytest.approx(340.4, abs=0.2)

    def test_mars(self):
        assert speed_of_sound(MARS) == pytest.approx(233.0, abs=0.5)

    def test_unit_product(self):
        env = EnvParams(density=1, static_pressure=1, temperature=1,
                        gas_constant=0.8, dynamic_viscosity=1, gamma=1.25, gravity=1)
        assert speed_of_sound(env) == pytest.approx(1.0, abs=1e-12)

    @given(scale=st.floats(1.001, 3.0))
    def test_monotone_in_each_argument(self, scale):
        base = speed_of_sound(MARS)
        for field in ("gamma", "gas_constant", "temperature"):
            if field == "gamma" and MARS.gamma * scale >= 2.0:
                continue
            bumped = EnvParams(**{**MARS.__dict__, field: getattr(MARS, field) * scale})
            assert speed_of_sound(bumped) > base


class TestMach:
    # tip speeds in m/s, as rad/s on a 1 m radius
    def test_single_rotor_tip_is_supersonic(self):
        assert tip_mach(396.0, 1.0, 244.0) == pytest.approx(1.62, abs=0.01)

    def test_coaxial_flow_stays_subsonic(self):
        assert tip_mach(202.4, 1.0, 244.0) == pytest.approx(0.83, abs=0.01)

    def test_zero_speed(self):
        assert tip_mach(0.0, 0.56, 233.0) == 0.0

    def test_rejects_bad_sound_speed(self):
        with pytest.raises(ValueError):
            tip_mach(100.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            tip_mach(100.0, 0.5, -1.0)

    def test_rejects_negative_speed_or_radius(self):
        with pytest.raises(ValueError):
            tip_mach(-1.0, 0.5, 233.0)
        with pytest.raises(ValueError):
            tip_mach(1.0, 0.0, 233.0)


class TestThrustCalibration:
    def test_coaxial_pair_at_2800_rpm(self):
        # 15.67 N over the two rotors of a coaxial pair at 2800 rpm; hand value 9.1131e-5
        k = 15.67 / (2 * rpm_to_rad_s(2800.0) ** 2)
        assert k == pytest.approx(9.11e-5, abs=1e-7)
        assert k == pytest.approx(9.113090898647259e-05, rel=1e-12)

    def test_unit_normalization(self):
        # rpm chosen so the rotor speed is 1 rad/s
        assert rpm_to_rad_s(60.0 / (2 * math.pi)) == pytest.approx(1.0, abs=1e-12)


class TestHover:
    def test_default_hover_speed(self, veh, env):
        # sqrt(12 * 3.711 / (8 * 9.11e-5))
        assert hover_speed(veh, env) == pytest.approx(247.2, abs=0.5)

    def test_normalized_coefficient(self, env):
        veh = VehicleParams()
        veh = type(veh)(**{**veh.__dict__,
                           "thrust_coeff": veh.mass * env.gravity / 8.0})
        assert hover_speed(veh, env) == pytest.approx(1.0, abs=1e-12)

    def test_hover_tip_stays_subsonic(self, veh, env):
        a = speed_of_sound(env)
        assert tip_mach(hover_speed(veh, env), veh.rotor_radius, a) < 1.0

    def test_hover_thrust_balances_weight(self, veh, env):
        cmd = dynamics.hover_command(veh, env)
        wrench = dynamics.wrench_from_rotors(cmd, veh)
        assert abs(wrench.thrust - veh.mass * env.gravity) < 1e-9


class TestInvariants:
    def test_env_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError, match="density"):
            EnvParams(**{**MARS.__dict__, "density": 0.0})
        with pytest.raises(ValueError, match="temperature"):
            EnvParams(**{**MARS.__dict__, "temperature": -5.0})

    def test_env_rejects_gamma_out_of_range(self):
        with pytest.raises(ValueError, match="gamma"):
            EnvParams(**{**MARS.__dict__, "gamma": 1.0})
        with pytest.raises(ValueError, match="gamma"):
            EnvParams(**{**MARS.__dict__, "gamma": 2.5})

    def test_vehicle_rejects_nonpositive_mass(self):
        base = VehicleParams().__dict__
        with pytest.raises(ValueError, match="mass"):
            VehicleParams(**{**base, "mass": -1.0})

    def test_default_craft_is_the_readme_vehicle(self):
        veh = VehicleParams()
        assert (veh.mass, veh.arm_length, veh.rotor_radius, veh.thrust_coeff,
                veh.torque_coeff, veh.linear_drag) == (12.0, 1.3, 0.56, 9.11e-5, 5.1016e-6, 0.0)
        assert veh.max_rotor_speed == rpm_to_rad_s(2800.0)
        assert veh.torque_coeff == round(0.1 * veh.thrust_coeff * veh.rotor_radius, 10)

    def test_vehicle_allows_zero_linear_drag(self):
        veh = VehicleParams()
        assert veh.linear_drag == 0.0

    def test_default_vehicle_is_feasible_on_mars(self, veh, env):
        assert check_rotor_feasible(veh, env) < 1.0

    def test_supersonic_tip_rejected(self, env):
        base = VehicleParams().__dict__
        fast = VehicleParams(**{**base, "max_rotor_speed": rpm_to_rad_s(5000.0)})
        with pytest.raises(ValueError, match="[Mm]ach"):
            check_rotor_feasible(fast, env)

    @pytest.mark.parametrize("env, mass, hover_rpm", [(EARTH, 12.0, 3838), (MARS, 25.0, 3407)])
    def test_craft_that_cannot_hover_rejected(self, env, mass, hover_rpm):
        # hover speed at or above the 2800 rpm ceiling: the craft would only fall
        heavy = VehicleParams(mass=mass)
        assert round(params.rad_s_to_rpm(hover_speed(heavy, env))) == hover_rpm
        with pytest.raises(ValueError, match=f"hover needs {hover_rpm} rpm, at or above the "
                                             "max rotor speed 2800 rpm"):
            check_rotor_feasible(heavy, env)

    def test_craft_hovering_just_below_the_ceiling_is_feasible(self, env):
        veh = VehicleParams()
        ceiling = dataclasses.replace(veh, max_rotor_speed=hover_speed(veh, env) * (1 + 1e-9))
        assert check_rotor_feasible(ceiling, env) < 1.0
        with pytest.raises(ValueError, match="hover needs"):
            check_rotor_feasible(dataclasses.replace(veh, max_rotor_speed=hover_speed(veh, env)),
                                 env)

    def test_hover_thrust_value(self, veh, env):
        assert hover_thrust(veh, env) == pytest.approx(44.53, abs=0.01)


class TestNumberRule:
    def test_one_message(self):
        with pytest.raises(ValueError, match=r"^mass must be a finite number > 0, got -1\.0$"):
            require_number("mass", -1.0, gt=0)
        with pytest.raises(ValueError, match=r"^drag must be a finite number >= 0, got nan$"):
            require_number("drag", math.nan, ge=0)
        with pytest.raises(ValueError, match=r"^x must be a finite number, got 10{400}$"):
            require_number("x", 10 ** 400)
        with pytest.raises(ValueError, match=r"^t_end must be a number, got True$"):
            require_number("t_end", True, finite=False)
        with pytest.raises(ValueError, match=r"^horizon must be an integer >= 1, got 0$"):
            require_int("horizon", 0, ge=1)
        require_number("x", np.float64(-2.5))
        require_number("t_end", math.inf, finite=False)


# a field's (value below its minimum, rejected; boundary value, accepted), None if none
POS, NONNEG, COUNT, ANY = (0, None), (-1, 0), (0, 1), (None, None)
_BAD = (math.nan, math.inf, -math.inf, True, "1", None)
_CONTINUOUS = linearize_hover(VehicleParams(), MARS)


def _run(**args):
    veh = VehicleParams()
    return run_closed_loop(PidController(PidGains(), veh, MARS, 0.02), constant_ref(),
                           Disturbance(), veh=veh, env=MARS,
                           **{"duration": 0.02, "control_dt": 0.02, "substeps": 1, **args})


# every number a record, trajectory factory or once-per-run function checks, as
# builder -> {field: (low, edge)}; a pulse's numbers have their own test below
_CHECKED = {
    "EnvParams": (lambda **kw: dataclasses.replace(MARS, **kw), dict.fromkeys(vars(MARS), POS)),
    "VehicleParams": (VehicleParams, {**dict.fromkeys(vars(VehicleParams()), POS),
                                      "linear_drag": NONNEG}),
    "MpcConfig": (lambda **kw: dataclasses.replace(MpcConfig.default(VehicleParams()), **kw),
                  {"horizon": COUNT, "qp_max_iter": COUNT, "input_weight": POS, "qp_tol": POS,
                   "u_min": ANY, "u_max": ANY, **dict.fromkeys(
                       ("position_weight", "velocity_weight", "angle_weight", "rate_weight",
                        "input_rate_weight"), NONNEG)}),
    "PidGains": (PidGains, {**dict.fromkeys(vars(PidGains()), NONNEG),
                            "integrator_limit": POS, "max_tilt": (0, math.pi / 4)}),
    "SimSettings": (SimSettings, {"duration": POS, "control_dt": POS, "substeps": COUNT,
                                  "seed": NONNEG, "transient_skip": NONNEG}),
    "Disturbance": (Disturbance, {"noise_force": NONNEG, "noise_torque": NONNEG}),
    "constant_ref": (constant_ref, dict.fromkeys(("x", "y", "z", "psi"), ANY)),
    "helix_ref": (helix_ref, {"radius": POS, "angular_rate": ANY, "climb_rate": ANY}),
    "square_ref": (square_ref, {"side": POS, "edge_duration": POS, "altitude": ANY}),
    "PidController": (lambda dt: PidController(PidGains(), VehicleParams(), MARS, dt),
                      {"dt": POS}),
    "LinearModel": (lambda dt: dataclasses.replace(_CONTINUOUS, dt=dt), {"dt": NONNEG}),
    "discretize": (lambda ts: discretize(_CONTINUOUS, ts), {"ts": POS}),
    "run_closed_loop": (_run, {"duration": POS, "control_dt": POS, "substeps": COUNT,
                               "seed": NONNEG}),
}


@pytest.mark.parametrize("make, name, low, edge", [
    pytest.param(make, name, *spec, id=f"{kind}.{name}")
    for kind, (make, specs) in _CHECKED.items() for name, spec in specs.items()])
def test_every_number_field_takes_the_one_rule(make, name, low, edge):
    for value in _BAD if low is None else (*_BAD, low):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            make(**{name: value})
    if edge is not None:
        make(**{name: edge})


def test_pulse_ends_may_be_infinite_and_its_vectors_are_three_numbers():
    assert Pulse(-math.inf, math.inf, force=np.zeros(3)).t_end == math.inf
    for name, value in itertools.product(("t_start", "t_end"), (math.nan, True, "1", None)):
        with pytest.raises(ValueError, match=f"^{name} must be a number, got "):
            Pulse(**{"t_start": 0.0, "t_end": 1.0, name: value})
    for name, value in itertools.product(("force", "torque"), _BAD):
        with pytest.raises(ValueError, match=rf"^{name}\[1\] must be a finite number, got "):
            Pulse(0.0, 1.0, **{name: (0.0, value, 0.0)})
        with pytest.raises(ValueError, match=f"^{name} must be a 3-sequence, got "):
            Pulse(0.0, 1.0, **{name: value})
