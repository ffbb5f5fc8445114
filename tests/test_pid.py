import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from marsquad import dynamics, params
from marsquad.pid import PidController, PidGains, pid_step
from marsquad.trajectories import constant_ref

ENV = params.MARS
VEH = params.VehicleParams()
U_HOVER = dynamics.hover_command(VEH, ENV)

ZERO_GAINS = PidGains(**{f"{axis}_{k}": 0.0 for axis in ("x", "y", "z", "roll", "pitch", "yaw")
                         for k in ("kp", "ki", "kd")})


def ref(x=0.0, y=0.0, z=0.0, psi=0.0):
    """One reference row as ``ref_window`` returns it."""
    return np.array([x, y, z, psi])


def ctl(gains=PidGains()):
    """A fresh controller at the 0.02 s step every test here runs."""
    return PidController(gains, VEH, ENV, 0.02)


class TestEquilibrium:
    def test_zero_error_gives_hover_feedforward(self):
        cmd = pid_step(np.zeros(12), ref(), ctl())
        assert np.allclose(cmd, U_HOVER, rtol=1e-12)

    @given(state=st.lists(st.floats(-0.5, 0.5), min_size=12, max_size=12))
    @settings(max_examples=50)
    def test_zero_gains_always_feedforward(self, state):
        cmd = pid_step(np.array(state), ref(1.0, -2.0, 3.0), ctl(ZERO_GAINS))
        assert np.allclose(cmd, U_HOVER, rtol=1e-12)


class TestChannels:
    def test_climb_error_raises_all_rotors_equally(self):
        gains = dataclasses.replace(ZERO_GAINS, z_kp=2.0)
        cmd = pid_step(np.zeros(12), ref(z=0.5), ctl(gains))
        assert cmd.max() - cmd.min() < 1e-9
        assert cmd[0] > U_HOVER[0]

    def test_forward_step_commands_positive_pitch(self):
        c = ctl()
        cmd = pid_step(np.zeros(12), ref(x=1.0), c)
        phi_des, theta_des = c.last_tilt_target
        assert theta_des > 0.0
        assert phi_des == pytest.approx(0.0, abs=1e-12)
        # positive pitch demand spins up the rear pair, slows the front pair
        assert cmd[4] + cmd[5] > cmd[0] + cmd[1]

    def test_left_step_commands_negative_roll(self):
        c = ctl()
        pid_step(np.zeros(12), ref(y=1.0), c)
        phi_des, _ = c.last_tilt_target
        assert phi_des < 0.0

    def test_heading_rotation_swaps_axes(self):
        """With the nose pointing along +y, an error in world +y is a body
        forward error and must command pitch, not roll."""
        c = ctl()
        state = np.zeros(12)
        state[8] = np.pi / 2
        pid_step(state, ref(y=1.0), c)
        phi_des, theta_des = c.last_tilt_target
        assert theta_des > 0.01
        assert abs(phi_des) < 1e-9


class TestSafety:
    def test_tilt_target_clamped(self):
        c = ctl()
        pid_step(np.zeros(12), ref(x=100.0), c)
        _, theta_des = c.last_tilt_target
        assert theta_des == pytest.approx(PidGains().max_tilt)

    def test_integrators_bounded(self):
        c = ctl()
        state = np.zeros(12)
        for _ in range(5000):
            pid_step(state, ref(x=50.0, y=-50.0, z=50.0), c)
        assert np.all(np.abs(c.integrals) <= c.gains.integrator_limit + 1e-12)

    def test_saturation_freezes_integrators(self):
        c = ctl()
        # an enormous climb error saturates the allocation
        cmd = pid_step(np.zeros(12), ref(z=1000.0), c)
        assert np.all(cmd <= VEH.max_rotor_speed**2 + 1e-9)
        assert np.allclose(c.integrals, 0.0)

    def test_command_within_bounds_under_stress(self):
        c = ctl()
        rng = np.random.default_rng(0)
        for _ in range(200):
            state = rng.normal(0, 1.0, 12)
            state[6:8] = rng.normal(0, 0.3, 2)
            cmd = pid_step(state, ref(*rng.normal(0, 5.0, 3)), c)
            assert np.all(cmd >= -1e-9)
            assert np.all(cmd <= VEH.max_rotor_speed**2 + 1e-9)


class TestGainValidation:
    def test_rejects_negative_gains(self):
        with pytest.raises(ValueError):
            dataclasses.replace(ZERO_GAINS, x_kp=-1.0)

    def test_rejects_bad_tilt_limit(self):
        with pytest.raises(ValueError):
            dataclasses.replace(ZERO_GAINS, max_tilt=1.0)

    def test_rejects_nonpositive_integrator_limit(self):
        with pytest.raises(ValueError):
            dataclasses.replace(ZERO_GAINS, integrator_limit=0.0)

    @pytest.mark.parametrize("limit", [math.nan, math.inf])
    def test_rejects_nonfinite_integrator_limit(self, limit):
        # the anti-windup clamp to [-limit, limit] would leave the integrators unbounded
        with pytest.raises(ValueError, match=f"integrator_limit .* got {limit}"):
            dataclasses.replace(ZERO_GAINS, integrator_limit=limit)


class TestControllerSurface:
    def test_command_tracks_reference_generator(self):
        c = ctl()
        cmd = c.command(0.0, np.zeros(12), constant_ref(0, 0, 0, 0))
        assert np.allclose(cmd, U_HOVER)
        assert np.allclose(c.integrals, 0.0)

    def test_rejects_bad_dt(self):
        for dt in (0.0, -0.1):
            with pytest.raises(ValueError):
                PidController(PidGains(), VEH, ENV, dt)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_rejects_nonfinite_dt(self, dt):
        with pytest.raises(ValueError, match=f"^dt must be finite and > 0, got {dt}$"):
            PidController(PidGains(), VEH, ENV, dt)
