import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from marsquad import linmodel, params
from marsquad.dynamics import (AllocationInfeasible, AllocationSaturated, allocate,
                               hover_command, mixer_matrix, wrap_angle, wrench_from_rotors)
from oracles import derivative, make_state

ENV = params.MARS
VEH = params.VehicleParams()

small = st.floats(-1.0, 1.0)


def feasible_wrenches():
    """Wrenches whose minimum-norm allocation stays inside the speed box."""
    return st.builds(
        lambda t, r, p, y: np.array([t, r, p, y]),
        st.floats(20.0, 55.0),
        st.floats(-1.0, 1.0),
        st.floats(-1.0, 1.0),
        st.floats(-0.02, 0.02),
    )


class TestWrench:
    def test_symmetric_command_gives_pure_thrust(self):
        s = 40_000.0
        w = wrench_from_rotors(np.full(8, s), VEH)
        assert w.thrust == pytest.approx(8 * VEH.thrust_coeff * s, rel=1e-14)
        assert w.roll_moment == 0.0
        assert w.pitch_moment == 0.0
        assert w.yaw_moment == pytest.approx(0.0, abs=1e-12)
        assert w.net_rotor_speed == pytest.approx(0.0, abs=1e-12)

    def test_differential_pair_gives_roll(self):
        delta = 5_000.0
        base = hover_command(VEH, ENV)
        cmd = base.copy()
        cmd[6] += delta
        cmd[7] += delta
        w = wrench_from_rotors(cmd, VEH)
        assert w.roll_moment == pytest.approx(
            2 * VEH.arm_length * VEH.thrust_coeff * delta, rel=1e-12)
        assert w.pitch_moment == pytest.approx(0.0, abs=1e-12)

    def test_hover_command_balances_weight(self):
        w = wrench_from_rotors(hover_command(VEH, ENV), VEH)
        assert abs(w.thrust - VEH.mass * ENV.gravity) < 1e-9

    def test_rejects_negative_entries(self):
        bad = np.full(8, 100.0)
        bad[3] = -1.0
        with pytest.raises(ValueError):
            wrench_from_rotors(bad, VEH)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
    def test_rejects_nonfinite_or_negative_entries(self, value):
        # NaN used to give an all-NaN wrench and inf an infinite thrust, which the
        # plant then reported as its own divergence
        bad = hover_command(VEH, ENV)
        bad[5] = value
        with pytest.raises(ValueError, match=r"squared rotor speeds must be finite and >= 0, "
                                             r"got \[.*\]"):
            wrench_from_rotors(bad, VEH)

    @given(a=st.lists(st.floats(0, 5e4), min_size=8, max_size=8),
           b=st.lists(st.floats(0, 5e4), min_size=8, max_size=8))
    def test_moments_superpose(self, a, b):
        a, b = np.array(a), np.array(b)
        wa = wrench_from_rotors(a, VEH)
        wb = wrench_from_rotors(b, VEH)
        wab = wrench_from_rotors(a + b, VEH)
        # all outputs except the net speed are linear in the squared speeds
        for i in range(4):
            assert wab[i] == pytest.approx(wa[i] + wb[i], rel=1e-9, abs=1e-9)

    @given(cmd=st.lists(st.floats(0, 5e4), min_size=8, max_size=8),
           shift=st.floats(0, 2e4))
    def test_equal_increment_leaves_moments_unchanged(self, cmd, shift):
        cmd = np.array(cmd)
        w0 = wrench_from_rotors(cmd, VEH)
        w1 = wrench_from_rotors(cmd + shift, VEH)
        assert w1.roll_moment == pytest.approx(w0.roll_moment, abs=1e-9)
        assert w1.pitch_moment == pytest.approx(w0.pitch_moment, abs=1e-9)
        assert w1.yaw_moment == pytest.approx(w0.yaw_moment, abs=1e-9)


def random_vehicles():
    """Vehicles with random rotor coefficients, arm length and inertias."""
    return st.builds(
        lambda kt, kd, d, ixx, iyy, izz: params.VehicleParams(**{
            **VEH.__dict__, "thrust_coeff": kt, "torque_coeff": kd, "arm_length": d,
            "inertia_xx": ixx, "inertia_yy": iyy, "inertia_zz": izz}),
        st.floats(1e-6, 1e-3), st.floats(1e-7, 1e-4), st.floats(0.1, 3.0),
        st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(0.1, 10.0),
    )


class TestAllocationMatrix:
    """``mixer_matrix`` is the allocation matrix: squared speeds to wrench."""

    def test_thrust_row_is_positive(self):
        m = mixer_matrix(VEH)
        assert np.allclose(m[0], VEH.thrust_coeff)

    def test_roll_row_pattern(self):
        m = mixer_matrix(VEH)
        dkt = VEH.arm_length * VEH.thrust_coeff
        assert np.allclose(m[1], [0, 0, -dkt, -dkt, 0, 0, dkt, dkt])

    @given(kt=st.floats(1e-6, 1e-3), kd=st.floats(1e-7, 1e-4), d=st.floats(0.1, 3.0))
    @settings(max_examples=30)
    def test_full_rank_for_any_positive_coefficients(self, kt, kd, d):
        veh = params.VehicleParams(**{**VEH.__dict__, "thrust_coeff": kt,
                                      "torque_coeff": kd, "arm_length": d})
        assert np.linalg.matrix_rank(mixer_matrix(veh)) == 4

    def test_mixer_matches_wrench_map(self):
        cmd = np.linspace(1e3, 8e4, 8)
        w = wrench_from_rotors(cmd, VEH)
        assert np.allclose(mixer_matrix(VEH) @ cmd, np.array(w[:4]), rtol=1e-12)

    @given(veh=random_vehicles(), frac=st.lists(st.floats(0.4, 0.6), min_size=8, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_wrench_allocation_and_linear_model_share_the_mixer(self, veh, frac):
        m = mixer_matrix(veh)
        cmd = np.array(frac) * veh.max_rotor_speed ** 2
        wrench = np.array(wrench_from_rotors(cmd, veh)[:4])
        # relative to the summed magnitudes, since the moment rows cancel
        assert np.all(np.abs(wrench - m @ cmd) <= 1e-12 * (np.abs(m) @ cmd))

        b = linmodel.linearize_hover(veh, ENV).B
        assert np.array_equal(b[5], m[0] / veh.mass)
        inertia = np.array([veh.inertia_xx, veh.inertia_yy, veh.inertia_zz])
        assert np.array_equal(b[9:12], m[1:4] / inertia[:, None])

        # a command within 40-60% of the ceiling keeps its minimum-norm
        # re-allocation strictly inside the box, so allocate cannot saturate
        back = m @ allocate(wrench, veh)
        assert np.linalg.norm(back - wrench) <= 1e-10 * np.linalg.norm(wrench)


class TestAllocate:
    def test_hover_is_symmetric(self):
        mg = VEH.mass * ENV.gravity
        cmd = allocate(np.array([mg, 0, 0, 0]), VEH)
        assert np.allclose(cmd, mg / (8 * VEH.thrust_coeff), rtol=1e-12)

    def test_pure_yaw_alternates_and_clamps(self):
        tau = 0.05
        with pytest.raises(AllocationSaturated) as exc:
            allocate(np.array([0.0, 0.0, 0.0, tau]), VEH)
        clamped = exc.value.command
        expected = tau / (8 * VEH.torque_coeff)
        assert np.allclose(clamped, np.maximum(
            expected * np.array([-1, 1, -1, 1, -1, 1, -1, 1]), 0.0), rtol=1e-10)

    def test_rejects_negative_thrust(self):
        with pytest.raises(AllocationInfeasible):
            allocate(np.array([-1.0, 0, 0, 0]), VEH)

    @given(w=feasible_wrenches())
    @settings(max_examples=200)
    def test_round_trip(self, w):
        cmd = allocate(w, VEH)
        back = wrench_from_rotors(cmd, VEH)
        assert np.allclose(np.array(back[:4]), w, rtol=1e-10, atol=1e-12)

    def test_pinv_right_inverse(self):
        m = mixer_matrix(VEH)
        assert np.allclose(m @ np.linalg.pinv(m), np.eye(4), atol=1e-12)


class TestStateDerivative:
    """The 12-state derivative from ``equations_of_motion`` under a zero disturbance."""

    def test_hover_equilibrium(self):
        ds = derivative(make_state(), hover_command(VEH, ENV), VEH, ENV)
        assert np.allclose(ds, 0.0, atol=1e-12)

    def test_free_fall(self):
        ds = derivative(make_state(), np.zeros(8), VEH, ENV)
        expected = np.zeros(12)
        expected[5] = -ENV.gravity
        assert np.allclose(ds, expected)
        assert ds[5] == pytest.approx(-3.711)

    def test_small_pitch_matches_linear_approximation(self):
        s = make_state(theta=0.05)
        ds = derivative(s, hover_command(VEH, ENV), VEH, ENV)
        assert abs(ds[3] - ENV.gravity * 0.05) < 1e-4

    @given(phi=st.floats(-1.0, 1.0), theta=st.floats(-1.0, 1.0), psi=st.floats(-3.0, 3.0))
    def test_zero_thrust_accel_is_gravity_regardless_of_attitude(self, phi, theta, psi):
        s = make_state(phi=phi, theta=theta, psi=psi)
        ds = derivative(s, np.zeros(8), VEH, ENV)
        assert ds[3] == 0.0
        assert ds[4] == 0.0
        assert ds[5] == pytest.approx(-ENV.gravity, rel=1e-14)

    @given(heading=st.floats(-math.pi, math.pi),
           phi=st.floats(-0.5, 0.5), theta=st.floats(-0.5, 0.5),
           psi=st.floats(-0.5, 0.5))
    @settings(max_examples=100)
    def test_yaw_symmetry(self, heading, phi, theta, psi):
        """Rotating the heading rotates the horizontal accelerations with it."""
        cmd = hover_command(VEH, ENV) * 1.1
        s1 = make_state(phi=phi, theta=theta, psi=psi)
        s2 = make_state(phi=phi, theta=theta, psi=psi + heading)
        a1 = derivative(s1, cmd, VEH, ENV)[3:5]
        a2 = derivative(s2, cmd, VEH, ENV)[3:5]
        c, sn = math.cos(heading), math.sin(heading)
        rotated = np.array([c * a1[0] - sn * a1[1], sn * a1[0] + c * a1[1]])
        assert np.allclose(a2, rotated, atol=1e-12)

    def test_drag_term_engages_when_configured(self):
        veh = params.VehicleParams(**{**VEH.__dict__, "linear_drag": 0.5})
        s = make_state(vx=2.0, vy=-1.0, vz=0.5)
        ds0 = derivative(s, hover_command(veh, ENV), VEH, ENV)
        ds1 = derivative(s, hover_command(veh, ENV), veh, ENV)
        assert ds1[3] == pytest.approx(ds0[3] - 0.5 / veh.mass * 2.0)
        assert ds1[4] == pytest.approx(ds0[4] + 0.5 / veh.mass * 1.0)


class TestWrapAngle:
    @given(a=st.floats(-50.0, 50.0))
    def test_range(self, a):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        # same angle modulo a full turn
        assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-9)
        assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-9)

    def test_boundary_maps_to_positive_pi(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)

    @given(angles=st.lists(st.one_of(st.floats(-50.0, 50.0),
                                     st.sampled_from([math.pi, -math.pi, 0.0, -0.0,
                                                      2 * math.pi, 1e6])),
                           min_size=1, max_size=8))
    def test_floats_and_arrays_agree_bitwise(self, angles):
        as_array = wrap_angle(np.array(angles))
        as_floats = [wrap_angle(a) for a in angles]
        assert all(type(w) is float for w in as_floats)
        assert as_array.tobytes() == np.array(as_floats).tobytes()
