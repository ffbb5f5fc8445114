import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from marsquad import dynamics, params
from marsquad.linmodel import discretize, linearize_hover
from oracles import numeric_jacobian

ENV = params.MARS
VEH = params.VehicleParams()


def series_expm(a: np.ndarray, t: float) -> np.ndarray:
    """Independent terminating-series exponential for a nilpotent matrix."""
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, 4):
        term = term @ (a * t) / k
        out = out + term
    return out


class TestContinuousModel:
    def test_gravity_couplings(self, cont_model):
        assert cont_model.A[3, 7] == pytest.approx(3.711)
        assert cont_model.A[4, 6] == pytest.approx(-3.711)

    def test_integrator_chain(self, cont_model):
        a = cont_model.A
        for pos, vel in ((0, 3), (1, 4), (2, 5), (6, 9), (7, 10), (8, 11)):
            assert a[pos, vel] == 1.0

    def test_vertical_input_row(self, cont_model):
        assert np.allclose(cont_model.B[5], VEH.thrust_coeff / VEH.mass)

    def test_moment_input_rows(self, cont_model):
        dkt = VEH.arm_length * VEH.thrust_coeff
        assert np.allclose(cont_model.B[9],
                           dkt / VEH.inertia_xx * np.array([0, 0, -1, -1, 0, 0, 1, 1]))
        assert np.allclose(cont_model.B[10],
                           dkt / VEH.inertia_yy * np.array([-1, -1, 0, 0, 1, 1, 0, 0]))
        assert np.allclose(cont_model.B[11],
                           VEH.torque_coeff / VEH.inertia_zz * np.array([-1, 1, -1, 1, -1, 1, -1, 1]))

    def test_a_is_nilpotent(self, cont_model):
        a4 = np.linalg.matrix_power(cont_model.A, 4)
        assert not a4.any()

    def test_controllable(self, cont_model):
        blocks = [cont_model.B]
        for _ in range(11):
            blocks.append(cont_model.A @ blocks[-1])
        ctrb = np.hstack(blocks)
        assert np.linalg.matrix_rank(ctrb) == 12


class TestDiscretize:
    def test_small_ts_recovers_continuous(self, cont_model):
        ts = 1e-6
        md = discretize(cont_model, ts)
        assert np.allclose((md.A - np.eye(12)) / ts, cont_model.A, atol=1e-4)

    def test_position_row_series_terms(self, cont_model):
        ts = 0.1
        md = discretize(cont_model, ts)
        g = ENV.gravity
        assert md.A[0, 3] == pytest.approx(ts)
        assert md.A[0, 7] == pytest.approx(g * ts**2 / 2)
        assert md.A[0, 10] == pytest.approx(g * ts**3 / 6)

    def test_matches_independent_series(self, cont_model):
        ts = 0.02
        md = discretize(cont_model, ts)
        assert np.allclose(md.A, series_expm(cont_model.A, ts), atol=1e-15)

    @given(ts=st.floats(1e-3, 0.5))
    @settings(max_examples=25)
    def test_semigroup_property(self, cont_model, ts):
        half = discretize(cont_model, ts / 2)
        full = discretize(cont_model, ts)
        assert np.allclose(half.A @ half.A, full.A, atol=1e-12)
        assert np.allclose(half.A @ half.B + half.B, full.B, atol=1e-12)

    def test_exponential_inverse(self, cont_model):
        ts = 0.02
        md = discretize(cont_model, ts)
        back = series_expm(cont_model.A, -ts)
        assert np.allclose(md.A @ back, np.eye(12), atol=1e-13)

    def test_rejects_bad_inputs(self, cont_model, disc_model):
        with pytest.raises(ValueError):
            discretize(cont_model, 0.0)
        with pytest.raises(ValueError):
            discretize(disc_model, 0.02)

    @pytest.mark.parametrize("ts", [math.nan, math.inf])
    def test_rejects_nonfinite_sampling_time(self, cont_model, ts):
        with pytest.raises(ValueError, match=f"^ts must be a finite number > 0, got {ts}$"):
            discretize(cont_model, ts)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -0.02])
    def test_model_rejects_bad_dt(self, cont_model, dt):
        with pytest.raises(ValueError, match=f"^dt must be a finite number >= 0, got {dt}$"):
            dataclasses.replace(cont_model, dt=dt)


class TestNumericJacobian:
    def test_matches_analytic_at_hover(self, cont_model):
        u0 = dynamics.hover_command(VEH, ENV)
        a, b = numeric_jacobian(np.zeros(12), u0, VEH, ENV, eps=1e-6)
        assert np.abs(a - cont_model.A).max() < 1e-5
        assert np.abs(b - cont_model.B).max() < 1e-5

    def test_input_column_sparsity(self, cont_model):
        u0 = dynamics.hover_command(VEH, ENV)
        _, b = numeric_jacobian(np.zeros(12), u0, VEH, ENV)
        col = b[:, 0]
        nonzero_rows = {i for i in range(12) if abs(col[i]) > 1e-8}
        assert nonzero_rows == {5, 10, 11}  # vertical, pitch, yaw channels

    def test_vertical_sensitivity_is_thrust_over_mass(self):
        _, b = numeric_jacobian(np.zeros(12), np.ones(8), VEH, ENV, eps=0.5)
        assert np.allclose(b[5], VEH.thrust_coeff / VEH.mass, rtol=1e-9)

    @given(mass=st.floats(1.0, 50.0), arm=st.floats(0.3, 2.0),
           inertia=st.tuples(*[st.floats(0.1, 5.0)] * 3), rotor_inertia=st.floats(1e-3, 0.05),
           thrust_coeff=st.floats(1e-5, 5e-4), torque_coeff=st.floats(1e-7, 5e-5),
           drag=st.one_of(st.just(0.0), st.floats(0.0, 2.0)), earth=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_analytic_over_random_vehicles(self, mass, arm, inertia, rotor_inertia,
                                                    thrust_coeff, torque_coeff, drag, earth):
        """The analytic model against central differences, on Mars and Earth.

        Every entry of A must agree, the -drag/mass velocity diagonal
        included. The dynamics are affine in the squared speeds at hover,
        so B is differenced with a unit step, which leaves only rounding.
        """
        env = params.EARTH if earth else ENV
        veh = dataclasses.replace(
            VEH, mass=mass, arm_length=arm, inertia_xx=inertia[0], inertia_yy=inertia[1],
            inertia_zz=inertia[2], rotor_inertia=rotor_inertia, thrust_coeff=thrust_coeff,
            torque_coeff=torque_coeff, linear_drag=drag)
        model = linearize_hover(veh, env)
        u0 = dynamics.hover_command(veh, env)
        a, _ = numeric_jacobian(np.zeros(12), u0, veh, env, eps=1e-6)
        _, b = numeric_jacobian(np.zeros(12), u0, veh, env, eps=1.0)

        tol_a = 1e-12 * max(1.0, np.abs(model.A).max())
        assert np.abs(a - model.A).max() <= tol_a
        assert np.abs(b - model.B).max() <= 1e-8 * np.abs(model.B).max()
