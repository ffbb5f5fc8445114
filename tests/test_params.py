import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from marsquad import dynamics, params
from marsquad.params import (EARTH, MARS, EnvParams, VehicleParams, calibrate_thrust_coeff,
                             check_rotor_feasible, hover_speed, hover_thrust,
                             mach_from_velocity, rpm_to_rad_s, speed_of_sound, tip_mach)


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
    def test_single_rotor_tip_is_supersonic(self):
        assert mach_from_velocity(396.0, 244.0) == pytest.approx(1.62, abs=0.01)

    def test_coaxial_flow_stays_subsonic(self):
        assert mach_from_velocity(202.4, 244.0) == pytest.approx(0.83, abs=0.01)

    def test_zero_speed(self):
        assert tip_mach(0.0, 0.56, 233.0) == 0.0

    def test_rejects_bad_sound_speed(self):
        with pytest.raises(ValueError):
            mach_from_velocity(100.0, 0.0)
        with pytest.raises(ValueError):
            tip_mach(100.0, 0.5, -1.0)

    def test_rejects_negative_speed_or_radius(self):
        with pytest.raises(ValueError):
            tip_mach(-1.0, 0.5, 233.0)
        with pytest.raises(ValueError):
            tip_mach(1.0, 0.0, 233.0)


class TestThrustCalibration:
    def test_coaxial_pair_at_2800_rpm(self):
        # 15.67 N over two rotors at 2800 rpm; hand value 9.1131e-5
        k = calibrate_thrust_coeff(15.67, 2800.0, 2)
        assert k == pytest.approx(9.11e-5, abs=1e-7)
        assert k == pytest.approx(9.113090898647259e-05, rel=1e-12)

    def test_single_rotor_at_3200_rpm(self):
        k = calibrate_thrust_coeff(11.5, 3200.0, 1)
        assert k == pytest.approx(1.024e-4, abs=1e-6)
        assert k == pytest.approx(1.0240959479474568e-04, rel=1e-12)

    def test_unit_normalization(self):
        # rpm chosen so the rotor speed is 1 rad/s
        assert calibrate_thrust_coeff(1.0, 60.0 / (2 * math.pi), 1) == pytest.approx(1.0, abs=1e-12)

    @given(force=st.floats(0.1, 100.0), rpm=st.floats(100.0, 5000.0),
           n=st.integers(1, 8))
    def test_round_trip_reproduces_force(self, force, rpm, n):
        k = calibrate_thrust_coeff(force, rpm, n)
        omega = rpm_to_rad_s(rpm)
        assert n * k * omega**2 == pytest.approx(force, rel=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            calibrate_thrust_coeff(0.0, 2800.0, 2)
        with pytest.raises(ValueError):
            calibrate_thrust_coeff(10.0, -5.0, 2)
        with pytest.raises(ValueError):
            calibrate_thrust_coeff(10.0, 2800.0, 0)


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
