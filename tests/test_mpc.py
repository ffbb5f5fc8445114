import copy
import dataclasses
import gc
import itertools
import math
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from marsquad import config, dynamics, linmodel, mpc, params, simulator, trajectories as traj
from marsquad.mpc import (MpcConfig, MpcController, QpMaxIterations, build_cost,
                          build_prediction, mpc_step, solve_qp)
from marsquad.scenarios import scenario_path
from scipy.optimize import lsq_linear

ENV = params.MARS
VEH = params.VehicleParams()


def small_cfg(horizon=1, **kw):
    return MpcConfig.default(VEH, horizon=horizon, **kw)


@pytest.fixture(scope="module")
def horizon_ctrl(disc_model, mpc_cfg):
    """Controller with the shipped horizon: its Hessian, its inverse and box."""
    return MpcController(disc_model, mpc_cfg, VEH, ENV)


def dense_prediction(model, horizon):
    """Reference full-model operators, block by block: X = G dx0 + H U.

    X stacks the 12-state from the current step to horizon-1; block (i, j)
    of H is A^(i-j-1) B for i > j.
    """
    power = [np.linalg.matrix_power(model.A, k) for k in range(horizon)]
    h = np.zeros((12 * horizon, 8 * horizon))
    for i in range(1, horizon):
        for j in range(i):
            h[12 * i:12 * (i + 1), 8 * j:8 * (j + 1)] = power[i - j - 1] @ model.B
    return np.vstack(power), h


def recursion(model, dx0, du):
    """The (N, 12) states of x' = A x + B u from ``dx0`` under the 8N inputs ``du``."""
    out = [dx0]
    for u in du.reshape(-1, 8)[:-1]:
        out.append(model.A @ out[-1] + model.B @ u)
    return np.array(out)


def dense_gradient(ctrl, x_now, refs):
    """Reference q from the full-model operators and the per-sample state stack.

    q = -(H' Mx (stack - G dx0) + D' Mdu b), with ``dense_prediction``'s G
    and H, the stack of ``_stack_reference_loop``, D the 8N input
    differencing matrix and b the last input deviation in its first 8
    entries.
    """
    model, cfg = ctrl.model, ctrl.cfg
    n = cfg.horizon
    g, h = dense_prediction(model, n)
    dx0 = np.array(x_now, dtype=float)
    dx0[8] = dynamics.wrap_angle(refs[0, 3]) - dynamics.wrap_angle(refs[0, 3] - x_now[8])
    err = _stack_reference_loop(refs, n, model.dt) - g @ dx0
    diff = np.eye(8 * n)
    for i in range(1, n):
        diff[8 * i:8 * (i + 1), 8 * (i - 1):8 * i] = -np.eye(8)
    bound = np.zeros(8 * n)
    bound[:8] = ctrl.u_prev - model.u_ref
    return -(h.T @ (np.tile(cfg.state_weight, n) * err)
             + diff.T @ (cfg.input_rate_weight * bound))


class TestPrediction:
    def test_horizon_one(self, disc_model):
        ctrl = MpcController(disc_model, small_cfg(horizon=1), VEH, ENV)
        dx0 = np.linspace(-1.0, 1.0, 12)
        assert np.array_equal(ctrl.predict(dx0, np.full(8, 100.0)), dx0[None])

    def test_horizon_two(self, disc_model):
        ctrl = MpcController(disc_model, small_cfg(horizon=2), VEH, ENV)
        dx0 = np.linspace(-1.0, 1.0, 12)
        du = np.arange(16.0) * 100.0
        x = ctrl.predict(dx0, du)
        assert np.array_equal(x[0], dx0)
        assert np.allclose(x[1], disc_model.A @ dx0 + disc_model.B @ du[:8], rtol=0, atol=1e-14)

    @given(n=st.integers(1, 12), seed=st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_matches_recursive_propagation(self, disc_model, n, seed):
        rng = np.random.default_rng(seed)
        dx0 = rng.normal(0, 0.2, 12)
        du = rng.normal(0, 100.0, 8 * n)
        ctrl = MpcController(disc_model, small_cfg(horizon=n), VEH, ENV)
        assert np.allclose(ctrl.predict(dx0, du), recursion(disc_model, dx0, du),
                           rtol=0, atol=1e-12)

    @given(mass=st.floats(1.0, 50.0), arm=st.floats(0.3, 2.0),
           inertia=st.tuples(*[st.floats(0.1, 5.0)] * 3),
           thrust_coeff=st.floats(1e-5, 5e-4), torque_coeff=st.floats(1e-7, 5e-5),
           drag=st.one_of(st.just(0.0), st.floats(0.0, 2.0)), seed=st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_channels_over_random_vehicles(self, mass, arm, inertia, thrust_coeff,
                                           torque_coeff, drag, seed):
        """On any vehicle the mixer's rows are orthogonal, the model splits
        into the four channels, and their prediction is the A/B recursion."""
        veh = dataclasses.replace(
            VEH, mass=mass, arm_length=arm, inertia_xx=inertia[0], inertia_yy=inertia[1],
            inertia_zz=inertia[2], thrust_coeff=thrust_coeff, torque_coeff=torque_coeff,
            linear_drag=drag)
        mixer = dynamics.mixer_matrix(veh)
        gram = mixer @ mixer.T
        assert np.abs(gram - np.diag(np.diag(gram))).max() <= 1e-15 * np.abs(gram).max()

        model = linmodel.discretize(linmodel.linearize_hover(veh, ENV), 0.02)
        ctrl = MpcController(model, MpcConfig.default(veh, horizon=15), veh, ENV)
        assert np.allclose(ctrl.directions, mixer / np.linalg.norm(mixer, axis=1)[:, None],
                           rtol=0, atol=1e-15)
        rng = np.random.default_rng(seed)
        dx0 = rng.normal(0, 0.2, 12)
        du = rng.normal(0, 0.01, 8 * 15) * veh.max_rotor_speed ** 2
        want = recursion(model, dx0, du)
        got = ctrl.predict(dx0, du)
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
        identity = ctrl.hessian_op.inverse().dense() @ ctrl.hessian_op.dense()
        assert np.abs(identity - np.eye(8 * 15)).max() <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 33, 60, 61, 100])
    def test_channels_match_dense_prediction(self, disc_model, n):
        """Each channel's G and H, from the doubled powers and the sliding
        window, against the matrix-power operators projected on the channel:
        its states, and its direction for the inputs. Horizons on and next
        to the doubling's chunk edges."""
        g, h = dense_prediction(disc_model, n)
        g, h = g.reshape(n, 12, 12), h.reshape(n, 12, n, 8)
        for c in build_prediction(disc_model, n):
            s = c.states
            want_g = g[:, s][:, :, s].reshape(-1, len(s))
            want_h = (h[:, s] @ c.direction).reshape(-1, n)
            assert np.abs(c.G - want_g).max() <= 1e-12 * np.abs(want_g).max()
            assert np.abs(c.H - want_h).max() <= 1e-12 * max(np.abs(want_h).max(), 1e-300)

    def test_rejects_continuous_model(self, cont_model):
        with pytest.raises(ValueError):
            build_prediction(cont_model, 5)

    @pytest.mark.parametrize("coupling", ["A", "B", "tilted", "unactuated", "nan"])
    def test_rejects_model_that_does_not_decouple(self, disc_model, coupling):
        a, b = disc_model.A.copy(), disc_model.B.copy()
        if coupling == "A":
            a[0, 2] = 0.01  # x driven by z: pitch and thrust channels couple
        elif coupling == "B":
            b[5] += b[9]    # vertical acceleration from the roll moment
        elif coupling == "unactuated":  # no rotor drives yaw: its direction would be 0 / 0
            b[[8, 11]] = 0.0
        elif coupling == "nan":  # a NaN fails the checks instead of passing them
            b[9, 0] = np.nan
        else:  # each channel's rows share a direction, but roll's leans toward thrust
            roll = [1, 4, 6, 9]
            moment, thrust = (b[i] / np.linalg.norm(b[i]) for i in (9, 5))
            b[roll] += 0.1 * np.outer(b[roll] @ moment, thrust)
        model = dataclasses.replace(disc_model, A=a, B=b)
        with pytest.raises(ValueError, match="does not decouple") as err:
            build_prediction(model, 5)
        assert coupling != "unactuated" or "states [8, 11]" in str(err.value)


class TestCost:
    def test_pure_input_penalty_centers_at_reference(self, disc_model):
        cfg = MpcConfig(horizon=4, position_weight=0.0, velocity_weight=0.0, angle_weight=0.0,
                        rate_weight=0.0, input_weight=1.0, input_rate_weight=0.0,
                        u_min=0.0, u_max=1e6)
        ctrl = MpcController(disc_model, cfg, VEH, ENV)
        g, _ = ctrl.linear_terms(np.ones(12), np.zeros((4, 4)))
        du = np.linalg.solve(ctrl.hessian_op.dense(), -g)
        assert np.allclose(du, 0.0, atol=1e-12)

    def test_horizon_one_closed_form(self, disc_model):
        # with a one-step window the inputs cannot affect any penalized state,
        # so the minimizer balances the input and rate penalties alone
        cfg = MpcConfig(horizon=1, position_weight=3.0, velocity_weight=3.0, angle_weight=3.0,
                        rate_weight=3.0, input_weight=2.0, input_rate_weight=5.0,
                        u_min=0.0, u_max=1e6)
        ctrl = MpcController(disc_model, cfg, VEH, ENV)
        ctrl.u_prev = disc_model.u_ref + np.linspace(-1, 1, 8)
        du_prev = ctrl.u_prev - disc_model.u_ref
        g, _ = ctrl.linear_terms(np.zeros(12), np.zeros((1, 4)))
        du = np.linalg.solve(ctrl.hessian_op.dense(), -g)
        assert np.allclose(du, 5.0 / (2.0 + 5.0) * du_prev, rtol=1e-12)

    def test_matches_dense_assembly(self, disc_model):
        n = 5
        ctrl = MpcController(disc_model, MpcConfig.default(VEH, horizon=n), VEH, ENV)
        rng = np.random.default_rng(3)
        x_now = rng.normal(0, 0.1, 12)
        refs = rng.normal(0, 0.5, (n, 4))
        x_now[8], refs[0, 3] = 3.0, -3.0  # yaw and its first reference straddle +-pi
        ctrl.u_prev = disc_model.u_ref + rng.normal(0, 10.0, 8)

        cfg = ctrl.cfg
        _, h = dense_prediction(disc_model, n)
        mx = np.diag(np.tile(cfg.state_weight, n))
        mu = np.diag(np.full(8 * n, cfg.input_weight))
        mdu = np.diag(np.full(8 * n, cfg.input_rate_weight))
        diff = np.eye(8 * n)
        for i in range(1, n):
            diff[8 * i:8 * (i + 1), 8 * (i - 1):8 * i] = -np.eye(8)
        h_dense = h.T @ mx @ h + mu + diff.T @ mdu @ diff
        assert np.allclose(ctrl.hessian_op.dense(), h_dense, atol=1e-12)
        g, _ = ctrl.linear_terms(x_now, refs)
        assert np.allclose(g, dense_gradient(ctrl, x_now, refs), atol=1e-12)

    def test_hessian_matches_dense_products(self, horizon_ctrl):
        """The channel assembly against H' diag(mx) H + diag(mu) + D' diag(mdu) D
        at the shipped horizon, to 1e-14 of the largest entry."""
        cfg = horizon_ctrl.cfg
        n = cfg.horizon
        _, h = dense_prediction(horizon_ctrl.model, n)
        mx = np.tile(cfg.state_weight, n)
        mu = np.full(8 * n, cfg.input_weight)
        mdu = np.full(8 * n, cfg.input_rate_weight)
        diff = np.eye(8 * n)
        for i in range(1, n):
            diff[8 * i:8 * (i + 1), 8 * (i - 1):8 * i] = -np.eye(8)
        dense = h.T @ (mx[:, None] * h) + np.diag(mu) + diff.T @ (mdu[:, None] * diff)
        scale = np.abs(dense).max()
        assert np.abs(horizon_ctrl.hessian_op.dense() - dense).max() <= 1e-14 * scale

    def test_dimension_checks(self, disc_model):
        ctrl = MpcController(disc_model, small_cfg(horizon=3), VEH, ENV)
        with pytest.raises(ValueError, match="12-vector"):
            ctrl.linear_terms(np.zeros(11), np.zeros((3, 4)))
        with pytest.raises(ValueError, match="12-vector"):
            ctrl.linear_terms(np.zeros(1), np.zeros((3, 4)))
        with pytest.raises(ValueError, match="reference window"):
            ctrl.linear_terms(np.zeros(12), np.zeros((2, 4)))
        with pytest.raises(ValueError, match="reference window"):
            ctrl.linear_terms(np.zeros(12), np.zeros((3, 3)))


def _horizon_box_qp(horizon_ctrl, seed):
    """``(g, lo, hi, x0, rng, step)``: a 480-variable QP on the shipped Hessian.

    Gradients come from random states, position references and last
    inputs; the box is the shipped one shrunk by a random factor, so
    anywhere from none to most bounds end up active. ``x0`` is a point in
    the box or, half the time, None. ``step`` is ``(ctrl, x_now, refs)``:
    the controller copy, with its last input, and the state and window
    that g is ``ctrl.linear_terms``' q of.
    """
    ctrl = copy.copy(horizon_ctrl)  # its own u_prev; the Hessian is shared
    rng = np.random.default_rng(seed)
    x_now = rng.normal(0, 1, 12) * np.repeat([1.0, 0.5, 0.1, 0.1], 3)
    refs = np.zeros((ctrl.cfg.horizon, 4))
    refs[:, 0:3] = rng.normal(0, 2, 3)
    ctrl.u_prev = ctrl.model.u_ref + rng.normal(0, 3000, 8)
    g, _ = ctrl.linear_terms(x_now, refs)
    span = rng.uniform(0.05, 1.0)
    lo, hi = ctrl.lower * span, ctrl.upper * span
    x0 = rng.uniform(lo, hi) if rng.random() < 0.5 else None
    return g, lo, hi, x0, rng, (ctrl, x_now, refs)


class TestSolveQp:
    CFG = MpcConfig.default(VEH)

    def test_unconstrained_identity(self):
        v = np.array([1.0, -2.0, 3.0])
        x, _ = solve_qp(np.eye(3), -v, np.full(3, -10.0), np.full(3, 10.0), self.CFG)
        assert np.allclose(x, v, atol=1e-9)

    def test_all_bounds_active(self):
        n = 4
        x, _ = solve_qp(np.eye(n), -2 * np.ones(n), np.zeros(n), np.ones(n), self.CFG)
        assert np.allclose(x, 1.0)

    def test_matches_brute_force(self, box_qp_oracle):
        """Schur steps from the Cholesky inverse of a dense Hessian, against brute force."""
        rng = np.random.default_rng(11)
        cfg = self.CFG
        for _ in range(100):
            a = rng.normal(0, 1, (5, 5))
            h = a @ a.T + 0.5 * np.eye(5)
            g = rng.normal(0, 2, 5)
            lo = rng.uniform(-2, -0.1, 5)
            hi = rng.uniform(0.1, 2, 5)
            xb = box_qp_oracle(h, g, lo, hi)
            x, _ = solve_qp(h, g, lo, hi, cfg)
            assert np.abs(x - xb).max() < 1e-8

    def test_batched_oracle_matches_the_loop(self, box_qp_oracle, box_qp_loop_oracle):
        """The stacked brute-force solve against the pattern-by-pattern one
        on a few dozen QPs of 1-6 variables, bounds often active."""
        rng = np.random.default_rng(13)
        for n in np.repeat(np.arange(1, 7), 6):
            a = rng.normal(0, 1, (n, n))
            h = a @ a.T + 0.3 * np.eye(n)
            g = rng.normal(0, 3, n)
            lo, hi = rng.uniform(-2, -0.1, n), rng.uniform(0.1, 2, n)
            want = box_qp_loop_oracle(h, g, lo, hi)
            assert np.abs(box_qp_oracle(h, g, lo, hi) - want).max() <= 1e-12 * max(
                1.0, np.abs(want).max())

    def test_batched_oracle_raises_on_a_singular_free_block(self, box_qp_oracle,
                                                            box_qp_loop_oracle):
        h = np.diag([1.0, 0.0])  # the pattern that frees coordinate 1 is singular
        g, lo, hi = np.array([1.0, 0.0]), -np.ones(2), np.ones(2)
        assert box_qp_loop_oracle(h, g, lo, hi) is not None  # the loop skips it
        with pytest.raises(np.linalg.LinAlgError):
            box_qp_oracle(h, g, lo, hi)

    def test_schur_step_matches_brute_force(self, box_qp_oracle):
        """Schur steps from a ``BlockMatrix``'s inverse, against brute force.
        At horizon 1, a random orthogonal basis and eight positive 1 x 1
        blocks make a generic 8 x 8 SPD Hessian."""
        rng = np.random.default_rng(12)
        clamped = 0
        for _ in range(10):
            basis, _ = np.linalg.qr(rng.normal(size=(8, 8)))
            h = mpc.BlockMatrix(basis, rng.uniform(0.5, 5.0, (8, 1, 1)))
            g = rng.normal(0, 4, 8)
            lo, hi = rng.uniform(-2, -0.1, 8), rng.uniform(0.1, 2, 8)
            x, _ = solve_qp(h, g, lo, hi, self.CFG)
            assert np.abs(x - box_qp_oracle(h.dense(), g, lo, hi)).max() < 1e-8
            clamped += np.sum((x == lo) | (x == hi))
        assert clamped > 0

    def test_objective_monotone(self):
        rng = np.random.default_rng(5)
        a = rng.normal(0, 1, (20, 20))
        h = a @ a.T + 0.1 * np.eye(20)
        g = rng.normal(0, 5, 20)
        lo, hi = np.full(20, -0.5), np.full(20, 0.5)
        # the start point, then iterate k as the best iterate of a solve
        # capped at k iterations, up to the first solve that returns
        iterates = [np.zeros(20)]
        for k in itertools.count(1):
            try:
                x, _ = solve_qp(h, g, lo, hi, dataclasses.replace(self.CFG, qp_max_iter=k))
            except QpMaxIterations as cap:
                iterates.append(cap.solution)
            else:
                iterates.append(x)
                break
        assert len(iterates) > 2
        obj = [0.5 * x @ (h @ x + g + g) for x in iterates]
        assert all(b <= a + 1e-12 for a, b in zip(obj, obj[1:]))

    def test_kkt_residual_reported(self):
        x, info = solve_qp(np.eye(2), np.array([1.0, -1.0]),
                           np.full(2, -5.0), np.full(2, 5.0), self.CFG)
        assert info["residual"] <= self.CFG.qp_tol * max(1.0, 1.0)

    def test_max_iterations_raises_with_best_iterate(self):
        rng = np.random.default_rng(2)
        a = rng.normal(0, 1, (30, 30))
        h = a @ a.T + 1e-3 * np.eye(30)
        g = rng.normal(0, 5, 30)
        lo, hi = np.full(30, -0.05), np.full(30, 0.05)
        cfg = MpcConfig(**{**self.CFG.__dict__, "qp_max_iter": 1})
        with pytest.raises(QpMaxIterations) as exc:
            solve_qp(h, g, lo, hi, cfg)
        assert exc.value.solution.shape == (30,)
        assert exc.value.residual > 0

    def test_rejects_indefinite_hessian(self):
        h = np.diag([1.0, -1.0])
        with pytest.raises(ValueError, match="positive definite"):
            solve_qp(h, np.ones(2), np.full(2, -10.0), np.full(2, 10.0), self.CFG)

    def test_rejects_crossed_bounds(self):
        with pytest.raises(ValueError):
            solve_qp(np.eye(2), np.ones(2), np.array([1.0, 0.0]),
                     np.array([0.0, 1.0]), self.CFG)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_qp(np.eye(3), np.ones(2), np.zeros(2), np.ones(2), self.CFG)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_nonfinite_gradient(self, bad):
        g = np.ones(3)
        g[1] = bad
        with pytest.raises(ValueError, match="finite"):
            solve_qp(np.eye(3), g, np.full(3, -10.0), np.full(3, 10.0), self.CFG)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_start(self, bad):
        # a NaN entry used to be zeroed after clipping, so the solve started outside the box
        with pytest.raises(ValueError, match="x0 must be finite"):
            solve_qp(np.eye(2), np.array([0.5, -1.5]), np.ones(2), np.full(2, 2.0), self.CFG,
                     x0=np.array([bad, 1.5]))

    def test_status_converged(self):
        _, info = solve_qp(np.eye(3), -np.ones(3), np.full(3, -10.0), np.full(3, 10.0), self.CFG)
        assert info["status"] == "converged"
        assert info["iterations"] == 1 and info["residual"] <= self.CFG.qp_tol

    def test_fully_clamped_start_converges_without_iterating(self):
        """Every coordinate at a bound with the gradient pushing outward adds
        exactly 0 to the projected residual, so the solve stops as converged
        before its all-clamped exit can be reached."""
        x0 = np.array([-1.0, 1.0, -1.0])
        x, info = solve_qp(np.eye(3), np.array([3.0, -3.0, 5.0]), -np.ones(3), np.ones(3),
                           self.CFG, x0=x0)
        assert np.array_equal(x, x0)
        assert info == {"iterations": 0, "residual": 0.0, "status": "converged"}

    @pytest.mark.parametrize("status", ["no_descent", "line_search_stalled"])
    def test_rounding_exits_report_their_status(self, status):
        """With condition number 1e14, rounding ends some solves above the
        tolerance; each such exit names itself, and only converged exits
        are within the tolerance."""
        seen = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
            h = q @ np.diag(np.logspace(0, 14, 5)) @ q.T
            h = 0.5 * (h + h.T)
            g = rng.normal(0, 1e3, 5)
            lo, hi = rng.uniform(-2, -0.1, 5), rng.uniform(0.1, 2, 5)
            try:
                x, info = solve_qp(h, g, lo, hi, self.CFG)
            except QpMaxIterations:
                continue
            tol = self.CFG.qp_tol * np.abs(g).max()
            assert (info["residual"] <= tol) == (info["status"] == "converged")
            assert np.all((lo <= x) & (x <= hi))
            seen += info["status"] == status
        assert seen > 0

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    @example(seed=514).via("BlockMatrix P: a clipped step ends within the tolerance")
    @example(seed=3971).via("dense P: a clipped step ends within the tolerance")
    def test_kkt_on_horizon_sized_boxes(self, horizon_ctrl, seed):
        """KKT conditions on 480-variable QPs with the shipped Hessian,
        given as the dense P or, half the time, as its ``BlockMatrix``. The
        explicit seeds are two of the eleven in the range whose last step
        the box clips to a residual within the tolerance; without a further
        Newton step the free block's gradient stays near 1e-11, a thousand
        times the bound here."""
        cfg, h = horizon_ctrl.cfg, horizon_ctrl.hessian_op.dense()
        g, lo, hi, x0, rng, _ = _horizon_box_qp(horizon_ctrl, seed)
        hessian = horizon_ctrl.hessian_op if rng.random() < 0.5 else h
        x, _ = solve_qp(hessian, g, lo, hi, cfg, x0=x0)

        assert x.shape == (8 * cfg.horizon,)
        assert np.all(lo <= x) and np.all(x <= hi)
        grad = h @ x + g
        tol = 1e-12 * np.max(np.abs(h) @ np.abs(x) + np.abs(g))
        free = (lo < x) & (x < hi)
        assert np.all(np.abs(grad[free]) <= tol)
        assert np.all(grad[x == lo] >= -tol)
        assert np.all(grad[x == hi] <= tol)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_block_inverse_matches_cholesky_inverse(self, horizon_ctrl, seed):
        """On the KKT property's 480-variable boxes, Schur steps from P^-1 as
        the controller's ``BlockMatrix`` builds it take the decisions of
        Schur steps from the Cholesky inverse of the dense P: the same
        iteration count and status, and x to 1e-9 relative."""
        cfg, op = horizon_ctrl.cfg, horizon_ctrl.hessian_op
        g, lo, hi, x0, _, _ = _horizon_box_qp(horizon_ctrl, seed)
        want, want_info = solve_qp(op.dense(), g, lo, hi, cfg, x0=x0)
        got, info = solve_qp(op, g, lo, hi, cfg, x0=x0)
        assert (info["iterations"], info["status"]) == (want_info["iterations"],
                                                        want_info["status"])
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    @given(seed=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_random_problems_against_oracle(self, box_qp_oracle, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(0, 1, (4, 4))
        h = a @ a.T + 0.3 * np.eye(4)
        g = rng.normal(0, 3, 4)
        lo = rng.uniform(-3, -0.1, 4)
        hi = rng.uniform(0.1, 3, 4)
        x, _ = solve_qp(h, g, lo, hi, self.CFG)
        xb = box_qp_oracle(h, g, lo, hi)
        assert np.abs(x - xb).max() < 1e-8


def _stack_reference_loop(refs, horizon, dt):
    """Per-sample reference for the 12-state stack that q tracks."""
    stack = np.zeros(12 * horizon)
    for i in range(horizon):
        base = i * 12
        stack[base:base + 3] = refs[i, :3]
        j = min(i, horizon - 2)
        if horizon > 1 and dt > 0:
            stack[base + 3:base + 6] = [(refs[j + 1, k] - refs[j, k]) / dt for k in range(3)]
        stack[base + 8] = -((math.pi - refs[i, 3]) % (2.0 * math.pi) - math.pi)
    return stack


class TestTrackedReference:
    @given(seed=st.integers(0, 1000), horizon=st.integers(1, 60))
    @settings(max_examples=30, deadline=None)
    def test_gradient_matches_per_sample_loop(self, disc_model, seed, horizon):
        """The reference ``linear_terms``' q tracks, against a per-sample
        loop: at u_prev = u_ref, q is -H' Mx (stack - G x_now), to 1e-12
        relative, for any state and window."""
        rng = np.random.default_rng(seed)
        refs = rng.normal(0, 5, (horizon, 4))
        x_now = rng.normal(0, 1, 12)
        ctrl = MpcController(disc_model, small_cfg(horizon=horizon), VEH, ENV)
        want = dense_gradient(ctrl, x_now, refs)
        got, _ = ctrl.linear_terms(x_now, refs)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestMpcStep:
    def test_hover_reference_returns_hover_command(self, disc_model, mpc_cfg):
        ctrl = MpcController(disc_model, mpc_cfg, VEH, ENV)
        refs = np.zeros((mpc_cfg.horizon, 4))
        u = mpc_step(np.zeros(12), refs, ctrl)
        assert np.allclose(u, disc_model.u_ref, atol=1e-9)

    def test_climb_reference_raises_all_rotors_equally(self, disc_model, mpc_cfg):
        ctrl = MpcController(disc_model, mpc_cfg, VEH, ENV)
        refs = np.zeros((mpc_cfg.horizon, 4))
        refs[:, 2] = 1.0
        u = mpc_step(np.zeros(12), refs, ctrl)
        assert u.max() - u.min() < 1e-6
        assert u[0] > disc_model.u_ref[0]
        wrench = dynamics.wrench_from_rotors(u, VEH)
        assert abs(wrench.roll_moment) < 1e-9
        assert abs(wrench.pitch_moment) < 1e-9
        assert abs(wrench.yaw_moment) < 1e-9

    def test_forward_displacement_pitches_back(self, disc_model, mpc_cfg):
        """Displaced +x with a hover reference: nose must pitch down (-pitch
        moment), so the front pair (rotors 1, 2) spins up and the rear pair
        (rotors 5, 6) slows."""
        ctrl = MpcController(disc_model, mpc_cfg, VEH, ENV)
        refs = np.zeros((mpc_cfg.horizon, 4))
        x = np.zeros(12)
        x[0] = 0.5
        u = mpc_step(x, refs, ctrl)
        assert u[0] + u[1] > u[4] + u[5]

    @given(seed=st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_command_always_inside_box(self, disc_model, seed):
        cfg = MpcConfig.default(VEH, horizon=10)
        rng = np.random.default_rng(seed)
        ctrl = MpcController(disc_model, cfg, VEH, ENV)
        x = rng.normal(0, 1.0, 12)
        x[6:9] = rng.normal(0, 0.2, 3)
        refs = rng.normal(0, 3.0, (10, 4))
        u = mpc_step(x, refs, ctrl)
        assert np.all(u >= cfg.u_min)
        assert np.all(u <= cfg.u_max)

    def test_box_follows_the_vehicle_and_binds(self):
        veh = dataclasses.replace(VEH, max_rotor_speed=260.0)
        model = linmodel.discretize(linmodel.linearize_hover(veh, ENV), 0.02)
        ctrl = MpcController(model, MpcConfig.default(veh, horizon=10), veh, ENV)
        refs = np.zeros((10, 4))
        refs[:, 2] = 50.0  # absurd climb demand
        u = mpc_step(np.zeros(12), refs, ctrl)
        assert np.all((u >= 0.0) & (u <= 260.0 ** 2))
        # later inputs of the plan ride on the vehicle's ceiling
        assert np.array_equal(ctrl.upper, np.tile(260.0 ** 2 - model.u_ref, 10))
        assert np.any(ctrl.warm_start == ctrl.upper)

    def test_rejects_continuous_model(self, cont_model, mpc_cfg):
        with pytest.raises(ValueError):
            MpcController(cont_model, mpc_cfg, VEH, ENV)

    def test_step_updates_controller_memory(self, disc_model):
        cfg = MpcConfig.default(VEH, horizon=10)
        ctrl = MpcController(disc_model, cfg, VEH, ENV)
        refs = np.zeros((10, 4))
        refs[:, 0] = 1.0
        u = mpc_step(np.zeros(12), refs, ctrl)
        assert np.array_equal(ctrl.u_prev, u)
        assert ctrl.warm_start.any()
        # a fresh controller starts from hover with no warm start
        fresh = MpcController(disc_model, cfg, VEH, ENV)
        assert np.array_equal(fresh.u_prev, disc_model.u_ref)
        assert not np.array_equal(ctrl.u_prev, fresh.u_prev)
        assert not fresh.warm_start.any()
        assert fresh.last_qp_iters == 0 < ctrl.last_qp_iters

    def test_constructor_factors_the_hessian_once(self, disc_model, mpc_cfg, monkeypatch):
        """One ``cho_factor`` per distinct block (thrust's, roll's and
        pitch's one, yaw's and T for the shipped vehicle, whose roll and
        pitch inertias are equal), P^-1's blocks from those factors and
        no ``np.linalg.inv``, P^-1 built once, and the dense P and P^-1
        only on demand."""
        calls = []
        original = mpc.cho_factor

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("np.linalg.cholesky called")

        def inverting(*args, **kwargs):
            raise AssertionError("np.linalg.inv called")

        monkeypatch.setattr(mpc, "cho_factor", counting)
        monkeypatch.setattr(np.linalg, "cholesky", forbidden)
        monkeypatch.setattr(np.linalg, "inv", inverting)
        ctrl = MpcController(disc_model, mpc_cfg, VEH, ENV)
        assert len(calls) == 4
        # unequal roll and pitch inertia: their blocks differ and are factored apart
        veh = dataclasses.replace(VEH, inertia_yy=1.5)
        model = linmodel.discretize(linmodel.linearize_hover(veh, ENV), 0.02)
        MpcController(model, MpcConfig.default(veh), veh, ENV)
        assert len(calls) == 4 + 5
        monkeypatch.undo()
        # the factors are the positive-definiteness check and P^-1's blocks, built with P;
        # the dense P and P^-1 are built on demand
        op = ctrl.hessian_op
        assert op.inverse() is op.inverse()
        assert op.table is None and op.inverse().table is None
        cost = build_cost(build_prediction(disc_model, mpc_cfg.horizon), mpc_cfg)
        h = sum(np.kron(k, np.outer(e, e)) for e, k in zip(cost.basis, cost.blocks))
        assert np.abs(op.dense() - h).max() <= 1e-15 * np.abs(h).max()
        inverse = op.inverse().dense()
        assert np.abs(inverse @ h - np.eye(len(h))).max() <= 1e-12
        assert op.dense() is op.dense() and op.inverse().dense() is inverse
        assert len(calls) == 4 + 5

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_block_operators_match_dense(self, horizon_ctrl, seed):
        """The operators' P v, P^-1 v and gathered rows of P^-1 against the
        dense P and its inverse by LU, to 1e-12 relative."""
        ctrl = horizon_ctrl
        n = 8 * ctrl.cfg.horizon
        rng = np.random.default_rng(seed)
        v = rng.normal(0, 3000, n)
        clamped = rng.random(n) < rng.uniform(0.0, 0.5)
        clamped[rng.integers(n)] = True
        p, p_inv = ctrl.hessian_op, ctrl.hessian_op.inverse()
        inverse = np.linalg.inv(p.dense())
        for got, want in ((p @ v, p.dense() @ v),
                          (p_inv @ v, inverse @ v),
                          (p_inv.dense()[clamped], inverse[clamped])):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_freed_by_reference_counting_after_a_box_active_step(self):
        """The operators hold only arrays, so no reference cycle keeps a
        controller for the cycle collector once its P^-1 table is built."""
        ctrl, x, refs = _path_case("converged")
        mpc_step(x, refs, ctrl)
        assert ctrl.last_qp_status == "converged"
        assert ctrl.hessian_op.inverse().table is not None
        alive = weakref.ref(ctrl)
        gc.disable()
        try:
            del ctrl
            assert alive() is None
        finally:
            gc.enable()

    def test_inverse_blocks_are_exactly_symmetric(self, horizon_ctrl):
        """P^-1's blocks from ``build_cost``, and those ``inverse()`` builds
        for any other ``BlockMatrix``, are symmetric bit for bit and
        invert their blocks."""
        rng = np.random.default_rng(3)
        a = rng.normal(size=(8, 5, 5))
        other = mpc.BlockMatrix(np.linalg.qr(rng.normal(size=(8, 8)))[0],
                                a @ a.transpose(0, 2, 1) + np.eye(5))
        for op in (horizon_ctrl.hessian_op, other):
            inverse = op.inverse().blocks
            assert np.array_equal(inverse, inverse.transpose(0, 2, 1))
            assert np.abs(inverse @ op.blocks - np.eye(len(inverse[0]))).max() <= 1e-12

    def test_hessian_inverse_is_read_only(self, horizon_ctrl):
        """The cached P^-1 and P are shared by every copy of the controller."""
        with pytest.raises(ValueError, match="read-only"):
            horizon_ctrl.hessian_op.inverse().dense()[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            horizon_ctrl.hessian_op.dense()[0, 0] = 0.0

    def test_indefinite_hessian_rejected_by_build_cost_and_constructor(
            self, disc_model, monkeypatch):
        # one channel whose block is 2^60 times a matrix of ones: the input
        # weights are lost to rounding and its Cholesky factor meets a zero pivot
        cfg = small_cfg(horizon=2, position_weight=1.0)
        response = np.zeros((4, 2))
        response[0] = 2.0 ** 30
        pred = (mpc.Channel(states=np.array([2, 5]), direction=np.full(8, 8 ** -0.5),
                            G=np.eye(2), H=response),)
        with pytest.raises(ValueError, match="cost Hessian is not positive definite"):
            build_cost(pred, cfg)
        monkeypatch.setattr(mpc, "build_prediction", lambda model, horizon: pred)
        with pytest.raises(ValueError, match="cost Hessian is not positive definite"):
            MpcController(disc_model, cfg, VEH, ENV)


def _solve_every_step(x_now, refs, ctrl):
    """The reference step: ``solve_qp`` from the warm start on every step, no explicit path.

    Given the dense P, ``solve_qp`` takes its Newton steps from P's Cholesky inverse.
    """
    cfg = ctrl.cfg
    du, info = solve_qp(ctrl.hessian_op.dense(), ctrl.linear_terms(x_now, refs)[0], ctrl.lower,
                        ctrl.upper, cfg, x0=ctrl.warm_start)
    u = np.clip(ctrl.model.u_ref + du[:8], cfg.u_min, cfg.u_max)
    ctrl.u_prev = u.copy()
    ctrl.warm_start = np.concatenate([du[8:], du[-8:]])
    ctrl.last_qp_iters = info["iterations"]
    return u


class _Stepper(MpcController):
    """An ``MpcController`` whose ``command`` runs ``step`` and records the statuses."""

    def __init__(self, step, *args):
        super().__init__(*args)
        self.step = step
        self.statuses = []

    def command(self, t, x_now, trajectory):
        u = self.step(x_now, traj.ref_window(trajectory, t, self.cfg.horizon, self.model.dt), self)
        self.statuses.append(self.last_qp_status)
        return u


def _climb_hop(t):
    """A 50 m climb demand for 1 s, then back to the ground: the box binds, then releases."""
    t = np.asarray(t, dtype=float)
    ref = np.zeros((t.size, 4))
    ref[:, 2] = np.where(t < 1.0, 50.0, 0.0)
    return ref


def _path_case(path):
    """A fresh controller, state and window whose step takes ``path``."""
    veh = VEH if path == "unconstrained" else dataclasses.replace(VEH, max_rotor_speed=260.0)
    model = linmodel.discretize(linmodel.linearize_hover(veh, ENV), 0.02)
    refs = np.zeros((10, 4))
    refs[:, 2] = 1.0 if path == "unconstrained" else 50.0
    return MpcController(model, MpcConfig.default(veh, horizon=10), veh, ENV), np.zeros(12), refs


@pytest.fixture(scope="module")
def wide_box_ctrls(disc_model):
    """Controllers at horizons 1, 2 and 60 whose input box never binds, with P built."""
    ctrls = {}
    for n in (1, 2, 60):
        cfg = MpcConfig(horizon=n, u_min=-1e12, u_max=1e12)
        ctrls[n] = MpcController(disc_model, cfg, VEH, ENV)
        ctrls[n].hessian_op.dense()  # built once, shared by every copy
    return ctrls


class TestExplicitStep:
    @given(horizon=st.sampled_from([1, 2, 60]), seed=st.integers(0, 10_000),
           yaw_ref=st.floats(2.8, 3.5) | st.floats(-3.5, -2.8), yaw_span=st.floats(-1.0, 1.0),
           yaw_gap=st.floats(2.0, 6.0) | st.floats(-6.0, -2.0))
    @settings(max_examples=30, deadline=None)
    def test_law_matches_dense_oracle(self, wide_box_ctrls, horizon, seed, yaw_ref, yaw_span,
                                      yaw_gap):
        """The law's q against ``dense_gradient`` to 1e-12 relative, and
        ``mpc_step``'s unconstrained plan against the dense P^-1 q to 1e-10
        relative, with a yaw window across +-pi, the vehicle's yaw far from
        it and a nonzero last input."""
        ctrl = copy.copy(wide_box_ctrls[horizon])  # its own memory; the operators are shared
        model = ctrl.model
        rng = np.random.default_rng(seed)
        x_now = rng.normal(0, 1, 12) * np.repeat([1.0, 0.5, 0.1, 0.1], 3)
        x_now[8] = yaw_ref + yaw_gap
        refs = np.zeros((horizon, 4))
        refs[:, 0:3] = rng.normal(0, 1, 3) + rng.normal(0, 0.1, (horizon, 3))
        refs[:, 3] = yaw_ref + yaw_span * np.linspace(0.0, 1.0, horizon)
        ctrl.u_prev = model.u_ref + rng.normal(0, 3000, 8)

        g, _ = ctrl.linear_terms(x_now, refs)
        want = dense_gradient(ctrl, x_now, refs)
        assert np.abs(g - want).max() <= 1e-12 * np.abs(want).max()

        u = mpc_step(x_now, refs, ctrl)
        assert ctrl.last_qp_status == "unconstrained"
        plan = np.concatenate([u - model.u_ref, ctrl.warm_start[:-8]])
        dense = np.linalg.solve(ctrl.hessian_op.dense(), -g)
        assert np.abs(plan - dense).max() <= 1e-10 * np.abs(dense).max()

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_channel_form_matches_dense_hessian(self, horizon_ctrl, seed):
        """The law's optimum -P^-1 q and P w from the blocks against the dense
        P, for random states, references, warm starts and a last input with a
        null-space part."""
        ctrl = copy.copy(horizon_ctrl)  # its own u_prev; the operators are shared
        n = ctrl.cfg.horizon
        rng = np.random.default_rng(seed)
        x_now = rng.normal(0, 1, 12) * np.repeat([1.0, 0.5, 0.1, 0.1], 3)
        refs = rng.normal(0, 2, (n, 4))
        du_prev = rng.normal(0, 3000, 8)
        null = du_prev - ctrl.directions.T @ (ctrl.directions @ du_prev)
        assert np.abs(null).max() > 100.0
        ctrl.u_prev = ctrl.model.u_ref + du_prev
        g, optimum = ctrl.linear_terms(x_now, refs)
        dense = np.linalg.solve(ctrl.hessian_op.dense(), -g)
        assert np.abs(optimum - dense).max() <= 1e-12 * np.abs(dense).max()
        w = rng.normal(0, 3000, 8 * n)
        product = ctrl.hessian_op.dense() @ w
        assert np.abs(ctrl.hessian_op @ w - product).max() <= 1e-12 * np.abs(product).max()

    def test_each_path_reports_itself(self, horizon_ctrl):
        ctrl = copy.copy(horizon_ctrl)
        refs = np.zeros((ctrl.cfg.horizon, 4))
        mpc_step(np.zeros(12), refs, ctrl)  # at hover the zero warm start is optimal
        assert (ctrl.last_qp_iters, ctrl.last_qp_status) == (0, "warm_start")
        x = np.zeros(12)
        x[0] = 0.5
        mpc_step(x, refs, ctrl)
        assert (ctrl.last_qp_iters, ctrl.last_qp_status) == (1, "unconstrained")
        ctrl, x, refs = _path_case("converged")
        mpc_step(x, refs, ctrl)
        assert ctrl.last_qp_status == "converged" and ctrl.last_qp_iters > 1
        assert np.any(ctrl.warm_start == ctrl.upper)

    @given(seed=st.integers(0, 10_000), log_jitter=st.none() | st.floats(-15.0, -12.0))
    @settings(max_examples=25, deadline=None)
    def test_mpc_step_keeps_the_warm_start_exactly_when_solve_qp_stops_at_once(
            self, horizon_ctrl, seed, log_jitter):
        """One stopping test: on the KKT property's 480-variable boxes,
        ``mpc_step`` ends with status ``"warm_start"`` exactly when
        ``solve_qp`` from that warm start returns after 0 iterations. The
        warm start is the drawn point in the box (zeros for None) or
        ``solve_qp``'s solution moved by relative noise of 10^log_jitter,
        which puts its residual at about 0.01 to 100 times the tolerance."""
        g, lo, hi, x0, rng, (ctrl, x_now, refs) = _horizon_box_qp(horizon_ctrl, seed)
        if log_jitter is None:
            warm = np.zeros(g.size) if x0 is None else x0
        else:
            x, _ = solve_qp(ctrl.hessian_op, g, lo, hi, ctrl.cfg, x0=x0)
            noise = 10.0 ** log_jitter * np.abs(x).max() * rng.normal(size=x.size)
            warm = np.clip(x + noise, lo, hi)
        _, info = solve_qp(ctrl.hessian_op, g, lo, hi, ctrl.cfg, x0=warm)
        ctrl.lower, ctrl.upper, ctrl.warm_start = lo, hi, warm
        mpc_step(x_now, refs, ctrl)
        assert (ctrl.last_qp_status == "warm_start") == (info["iterations"] == 0)

    @pytest.mark.parametrize("path", ["unconstrained", "converged"])
    @pytest.mark.parametrize("bad", ["nan state", "inf yaw", "nan ref", "inf ref", "short state",
                                     "short window", "narrow window"])
    def test_rejects_bad_inputs_on_both_paths(self, path, bad):
        ctrl, x, refs = _path_case(path)
        probe = copy.copy(ctrl)
        mpc_step(x, refs, probe)
        assert probe.last_qp_status == path
        if bad == "nan state":
            x[3] = math.nan
        elif bad == "inf yaw":
            x[8] = math.inf
        elif bad == "nan ref":
            refs[4, 1] = math.nan
        elif bad == "inf ref":
            refs[0, 0] = math.inf
        elif bad == "short state":
            x = x[:11]
        elif bad == "short window":
            refs = refs[:-1]
        else:
            refs = refs[:, :3]
        before = (ctrl.u_prev.copy(), ctrl.warm_start.copy())
        with pytest.raises(ValueError):
            mpc_step(x, refs, ctrl)
        assert np.array_equal(ctrl.u_prev, before[0])
        assert np.array_equal(ctrl.warm_start, before[1])
        assert (ctrl.last_qp_iters, ctrl.last_qp_status) == (0, None)

    @pytest.mark.parametrize("case", ["square_corners", "box binds", "climbing hop"])
    def test_closed_loop_matches_solving_every_step(self, case):
        """200 closed-loop steps on the nonlinear plant: the same commands to
        1e-9 and the same QP iteration counts as ``solve_qp`` on the dense P
        at every step. The box-active steps of ``mpc_step`` take the Schur path;
        ``mpc_step`` never builds the dense P, and builds the dense P^-1 only
        if a step falls back to ``solve_qp``."""
        scenario = "step_xyz" if case == "climbing hop" else "square_corners"
        sc = config.load_config(scenario_path(scenario))
        veh, cfg, trajectory = sc.veh, sc.mpc, sc.trajectory()
        if case == "box binds":  # the vehicle of test_box_follows_the_vehicle_and_binds
            veh = dataclasses.replace(sc.veh, max_rotor_speed=260.0)
            cfg, trajectory = MpcConfig.default(veh, horizon=10), _climb_hop
        elif case == "climbing hop":  # N = 60, a 5 m hop 60 degrees up, as in mpc_box
            trajectory = traj.constant_ref(1.25 * 2 ** 0.5, 1.25 * 2 ** 0.5, 2.5 * 3 ** 0.5)
        dt = sc.sim.control_dt
        model = linmodel.discretize(linmodel.linearize_hover(veh, sc.env), dt)
        runs = []
        for step in (mpc_step, _solve_every_step):
            ctrl = _Stepper(step, model, cfg, veh, sc.env)
            log = simulator.run_closed_loop(ctrl, trajectory, sc.disturbance, duration=200 * dt,
                                            control_dt=dt, substeps=sc.sim.substeps, veh=veh,
                                            env=sc.env, seed=sc.sim.seed)
            runs.append((log, ctrl.statuses))
            fallback = not {"warm_start", "unconstrained"}.issuperset(ctrl.statuses)
            built = ctrl.hessian_op.inverse().table is not None
            assert built == (step is mpc_step and fallback)
            assert (ctrl.hessian_op.table is not None) == (step is _solve_every_step)
        (new, statuses), (old, _) = runs
        assert len(new.commands) == 200
        assert np.abs(new.commands - old.commands).max() <= 1e-9 * np.abs(old.commands).max()
        assert np.array_equal(new.qp_iters, old.qp_iters)
        paths = set(statuses)
        assert "unconstrained" in paths
        if case != "square_corners":
            assert "converged" in paths


class TestBvlsOracle:
    # ten of the hop's box-active QPs, by their order in it; their solutions clamp 148,
    # 140, 128, 56, 48, 44, 32, 20, 8 and 4 of the 480 coordinates
    PICKS = (8, 11, 14, 34, 38, 40, 46, 51, 56, 58)

    def test_box_active_qps_match_bvls(self):
        """``solve_qp`` on box-active 480-variable QPs of a closed loop, against
        an independent solver: scipy's BVLS (Stark and Parker, 1995) on
        min ||L'x + L^-1 g|| over the same box, P = LL', the same minimizer.
        The loop is the climbing hop of ``mpc_box`` (``step_xyz`` flying 5 m
        at 60 degrees up, N = 60). Each pick ends ``converged``, within
        1e-12 relative of BVLS's answer, and both answers meet the KKT
        property's conditions at its scale. Worst margins seen: 6.6e-15
        relative, and 2.4e-4 (``solve_qp``) and 1.3e-3 (BVLS) of the KKT
        bound."""
        sc = config.load_config(scenario_path("step_xyz"))
        dt = sc.sim.control_dt
        model = linmodel.discretize(linmodel.linearize_hover(sc.veh, sc.env), dt)
        qps = []  # (g, warm start) of each step that calls solve_qp

        def recording_step(x_now, refs, ctrl):
            g, warm = ctrl.linear_terms(x_now, refs)[0], ctrl.warm_start
            u = mpc_step(x_now, refs, ctrl)
            if ctrl.last_qp_status not in ("warm_start", "unconstrained"):
                qps.append((g, warm))
            return u

        ctrl = _Stepper(recording_step, model, sc.mpc, sc.veh, sc.env)
        hop = traj.constant_ref(1.25 * 2 ** 0.5, 1.25 * 2 ** 0.5, 2.5 * 3 ** 0.5)
        simulator.run_closed_loop(ctrl, hop, sc.disturbance, duration=100 * dt, control_dt=dt,
                                  substeps=sc.sim.substeps, veh=sc.veh, env=sc.env,
                                  seed=sc.sim.seed)
        assert len(qps) > max(self.PICKS)
        p, lo, hi = ctrl.hessian_op.dense(), ctrl.lower, ctrl.upper
        factor = scipy.linalg.cholesky(p, lower=True)
        clamped = []
        for g, warm in (qps[i] for i in self.PICKS):
            x, info = solve_qp(ctrl.hessian_op, g, lo, hi, sc.mpc, x0=warm)
            assert info["status"] == "converged"
            rhs = -scipy.linalg.solve_triangular(factor, g, lower=True)
            oracle = lsq_linear(factor.T, rhs, bounds=(lo, hi), method="bvls", tol=1e-12)
            assert oracle.status == 1
            assert np.abs(x - oracle.x).max() <= 1e-12 * np.abs(oracle.x).max()
            for y in (x, oracle.x):
                grad = p @ y + g
                tol = 1e-12 * np.max(np.abs(p) @ np.abs(y) + np.abs(g))
                free = (lo < y) & (y < hi)
                assert np.all(np.abs(grad[free]) <= tol)
                assert np.all(grad[y == lo] >= -tol)
                assert np.all(grad[y == hi] <= tol)
            clamped.append(np.count_nonzero((x == lo) | (x == hi)))
        assert min(clamped) < 10 and max(clamped) > 140


class TestClosedLoopLinear:
    def test_spectral_radius_below_one(self, disc_model, horizon_ctrl):
        """The unconstrained receding-horizon law, taken as a linear map on
        (state deviation, previous input deviation), must be a contraction.
        The law is the controller's: its Hessian and its gradient."""
        ctrl = copy.copy(horizon_ctrl)
        zero_refs = np.zeros((ctrl.cfg.horizon, 4))

        def first_input(dx, du_prev):
            ctrl.u_prev = disc_model.u_ref + du_prev
            grad, _ = ctrl.linear_terms(dx, zero_refs)
            return np.linalg.solve(ctrl.hessian_op.dense(), -grad)[:8]

        fx = np.column_stack([first_input(e, np.zeros(8)) for e in np.eye(12)])
        fu = np.column_stack([first_input(np.zeros(12), e) for e in np.eye(8)])

        top = np.hstack([disc_model.A + disc_model.B @ fx, disc_model.B @ fu])
        bottom = np.hstack([fx, fu])
        closed = np.vstack([top, bottom])
        radius = np.abs(np.linalg.eigvals(closed)).max()
        assert radius < 1.0

    def test_converges_to_constant_reference_on_linear_plant(self, disc_model, mpc_cfg):
        ctl = MpcController(disc_model, mpc_cfg, VEH, ENV)
        target = traj.constant_ref(0.5, -0.3, 0.8, 0.0)
        x = np.zeros(12)
        for k in range(750):  # 15 s
            u = ctl.command(k * disc_model.dt, x, target)
            x = disc_model.A @ x + disc_model.B @ (u - disc_model.u_ref)
        assert abs(x[0] - 0.5) < 1e-3
        assert abs(x[1] + 0.3) < 1e-3
        assert abs(x[2] - 0.8) < 1e-3

    def test_prediction_matches_linear_plant_over_horizon(self, disc_model):
        ctrl = MpcController(disc_model, MpcConfig.default(VEH, horizon=20), VEH, ENV)
        x = np.zeros(12)
        x[0:3] = [0.4, -0.2, 0.3]
        g, _ = ctrl.linear_terms(x, np.zeros((20, 4)))
        du, _ = solve_qp(ctrl.hessian_op.dense(), g, ctrl.lower, ctrl.upper, ctrl.cfg)
        assert np.abs(ctrl.predict(x, du) - recursion(disc_model, x, du)).max() < 1e-10


class TestConfigValidation:
    def test_requires_positive_input_weight(self):
        with pytest.raises(ValueError):
            MpcConfig(horizon=5, input_weight=0.0, input_rate_weight=0.0, u_min=0.0, u_max=1.0)

    def test_requires_ordered_bounds(self):
        for u_min in (1.0, 2.0):
            with pytest.raises(ValueError, match="u_min must be below u_max"):
                MpcConfig(horizon=5, input_weight=1.0, input_rate_weight=0.0, u_min=u_min,
                          u_max=1.0)

    def test_requires_positive_horizon(self):
        with pytest.raises(ValueError):
            MpcConfig(horizon=0, input_weight=1.0, input_rate_weight=0.0, u_min=0.0, u_max=1.0)

    @pytest.mark.parametrize("key", ["horizon", "qp_max_iter"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
    def test_rejects_a_non_integer_count(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be an integer, got {value!r}"):
            MpcConfig.default(VEH, **{key: value})

    @pytest.mark.parametrize("key, value", [
        ("qp_tol", math.nan), ("input_weight", math.nan), ("position_weight", math.inf),
        ("rate_weight", -math.inf), ("u_min", (math.nan,) + (0.0,) * 7),
        ("u_max", (1e5,) * 7 + (math.inf,)), ("u_min", math.nan), ("u_max", math.inf),
    ])
    def test_rejects_nonfinite_values(self, key, value):
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(MpcConfig.default(VEH), **{key: value})

    @pytest.mark.parametrize("key", ["u_min", "u_max"])
    @pytest.mark.parametrize("value", [np.zeros(8), (0.0,) * 8])
    def test_rejects_a_non_scalar_bound(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be a finite number"):
            dataclasses.replace(MpcConfig.default(VEH), **{key: value})

    def test_compares_and_hashes_by_value(self):
        a, b = MpcConfig.default(VEH), MpcConfig.default(VEH)
        assert a == b and hash(a) == hash(b)
        assert (a.u_min, a.u_max) == (0.0, VEH.max_rotor_speed ** 2)
        assert a != MpcConfig.default(dataclasses.replace(VEH, max_rotor_speed=260.0))
