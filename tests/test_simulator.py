import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from marsquad import dynamics, params
from marsquad.mpc import MpcConfig, MpcController
from marsquad.linmodel import discretize, linearize_hover
from marsquad.simulator import (CSV_COLUMNS, Disturbance, NumericalDivergence, Pulse, SimLog,
                                compute_metrics, rk4_step, run_closed_loop, step_count,
                                write_csv)
from marsquad.trajectories import constant_ref, helix_ref, ref_window, square_ref
from oracles import derivative, make_state

ENV = params.MARS
VEH = params.VehicleParams()
U_HOVER = dynamics.hover_command(VEH, ENV)
W_HOVER = dynamics.wrench_from_rotors(U_HOVER, VEH)
W_OFF = dynamics.wrench_from_rotors(np.zeros(8), VEH)  # every rotor stopped
PITCH_LIMIT = math.pi / 2 - 0.01


def array_derivative(x, wrench, veh, force, torque):
    """The equations of motion over numpy arrays, written apart from ``dynamics``.

    The disturbance (ground-frame force, body-frame torque; zeros for none)
    is added after the rotor and gravity terms, which is where the plant
    always adds it.
    """
    phi, theta, psi = x[6:9].tolist()
    sphi, cphi = math.sin(phi), math.cos(phi)
    sth, cth = math.sin(theta), math.cos(theta)
    sps, cps = math.sin(psi), math.cos(psi)
    thrust, roll, pitch, yaw, net = wrench
    m, jr = veh.mass, veh.rotor_inertia
    ixx, iyy, izz = inertia = np.array([veh.inertia_xx, veh.inertia_yy, veh.inertia_zz])
    acc = np.array([sps * sphi + cps * sth * cphi, -cps * sphi + sps * sth * cphi,
                    cth * cphi]) * (thrust / m)
    acc[2] -= ENV.gravity
    if veh.linear_drag:
        acc -= (veh.linear_drag / m) * x[3:6]
    p, q, r = x[9:12].tolist()
    rate_dot = np.array([q * r * (iyy - izz) - jr * q * net + roll,
                         p * r * (izz - ixx) - jr * p * net + pitch,
                         p * q * (ixx - iyy) + yaw]) / inertia
    acc += force / m
    rate_dot += torque / inertia
    return np.concatenate([x[3:6], acc, x[9:12], rate_dot])


def array_rk4(state, cmd, dt, veh, dist=Disturbance(), t=0.0, rng=None):
    """Classical RK4 written over numpy arrays of ``array_derivative``.

    The disturbance is drawn as numpy arrays (zeros, pulses summed, then
    force noise, then torque noise); the angles are wrapped at the end.
    """
    force, torque = np.zeros(3), np.zeros(3)
    for p in dist.pulses:
        if p.t_start <= t < p.t_end:
            force += p.force
            torque += p.torque
    if dist.noise_force > 0:
        force += rng.normal(0.0, dist.noise_force, 3)
    if dist.noise_torque > 0:
        torque += rng.normal(0.0, dist.noise_torque, 3)
    wrench = dynamics.wrench_from_rotors(cmd, veh)

    def f(x):
        return array_derivative(x, wrench, veh, force, torque)

    s = np.asarray(state, dtype=float)
    k1 = f(s)
    k2 = f(s + 0.5 * dt * k1)
    k3 = f(s + 0.5 * dt * k2)
    k4 = f(s + dt * k3)
    out = s + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    out[6:9] = dynamics.wrap_angle(out[6:9])
    return out


def in_envelope_states():
    return st.builds(
        make_state,
        *[st.floats(-100.0, 100.0)] * 3,
        *[st.floats(-10.0, 10.0)] * 3,
        st.floats(-1.2, 1.2), st.floats(-1.2, 1.2), st.floats(-4.0, 4.0),
        *[st.floats(-2.0, 2.0)] * 3,
    )


def disturbances(span=1.0):
    """Pulses that start and last up to ``span`` seconds, with and without noise."""
    pulses = st.lists(st.builds(
        lambda t0, width, force, torque: Pulse(t0, t0 + width, force, torque),
        st.floats(0.0, span), st.floats(0.01, span),
        st.tuples(*[st.floats(-2.0, 2.0)] * 3), st.tuples(*[st.floats(-0.2, 0.2)] * 3)),
        max_size=3).map(tuple)
    return st.one_of(
        st.just(Disturbance()),
        st.builds(Disturbance, pulses),
        st.builds(Disturbance, pulses, st.sampled_from([0.0, 0.05, 0.5]),
                  st.sampled_from([0.0, 0.01, 0.1])),
    )


def bound_rk4_step(state, wrench, dt, veh, env, dist=Disturbance(), t=0.0, rng=None):
    """``rk4_step`` on an array state, with the equations bound as the loop binds them."""
    accelerations = dynamics.equations_of_motion(wrench, veh, env, *dist.sample(t, rng))
    return np.array(rk4_step(tuple(np.asarray(state, dtype=float).tolist()), accelerations,
                             dt, t))


class TestRk4:
    def test_hover_is_a_fixed_point(self):
        s = bound_rk4_step(np.zeros(12), W_HOVER, 0.02, VEH, ENV)
        assert np.abs(s).max() < 1e-12

    def test_free_fall_is_exact(self):
        s = np.zeros(12)
        for _ in range(100):
            s = bound_rk4_step(s, W_OFF, 0.01, VEH, ENV)
        assert s[5] == pytest.approx(-ENV.gravity * 1.0, rel=1e-12)
        assert s[2] == pytest.approx(-0.5 * ENV.gravity * 1.0**2, rel=1e-10)

    def test_fourth_order_convergence(self):
        cmd = U_HOVER.copy()
        cmd[[6, 7]] += 120.0
        cmd[[2, 3]] -= 120.0
        wrench = dynamics.wrench_from_rotors(cmd, VEH)
        x0 = make_state(vx=0.2, vz=0.05, phi=0.05, theta=-0.03,
                                 phi_dot=0.08, theta_dot=-0.06, psi_dot=0.04)

        def integrate(dt, total=5.0):
            s = x0.copy()
            for _ in range(round(total / dt)):
                s = bound_rk4_step(s, wrench, dt, VEH, ENV)
            return s

        ref = integrate(0.05 / 16)
        e1 = np.linalg.norm(integrate(0.05) - ref)
        e2 = np.linalg.norm(integrate(0.025) - ref)
        assert 12.0 < e1 / e2 < 20.0

    def test_divergence_near_gimbal_lock(self):
        s = make_state(theta=1.50, theta_dot=3.0)
        with pytest.raises(NumericalDivergence):
            for _ in range(100):
                s = bound_rk4_step(s, W_OFF, 0.01, VEH, ENV)

    def test_pulse_force_accelerates(self):
        dist = Disturbance(pulses=(Pulse(0.0, 1.0, force=(1.2, 0.0, 0.0)),))
        s = bound_rk4_step(np.zeros(12), W_HOVER, 0.01, VEH, ENV, dist, t=0.0)
        assert s[3] == pytest.approx(1.2 / VEH.mass * 0.01, rel=1e-9)
        # outside the window the pulse is off
        s2 = bound_rk4_step(np.zeros(12), W_HOVER, 0.01, VEH, ENV, dist, t=5.0)
        assert s2[3] == 0.0

    def test_noise_requires_rng(self):
        with pytest.raises(ValueError, match="noisy disturbance needs an rng"):
            Disturbance(noise_force=0.1).sample(0.0, None)

    @pytest.mark.parametrize("key, value", [("noise_force", math.nan), ("noise_force", -0.1),
                                            ("noise_torque", math.inf)])
    def test_disturbance_rejects_nonfinite_or_negative_noise(self, key, value):
        # nan > 0 is False, so a NaN amplitude used to read as no noise
        with pytest.raises(ValueError, match=f"^{key} must be a finite number >= 0"):
            Disturbance(**{key: value})

    def test_noise_reproducible_for_same_seed(self):
        dist = Disturbance(noise_force=0.5, noise_torque=0.01)
        a = bound_rk4_step(np.zeros(12), W_HOVER, 0.01, VEH, ENV, dist, t=0.0,
                           rng=np.random.default_rng(9))
        b = bound_rk4_step(np.zeros(12), W_HOVER, 0.01, VEH, ENV, dist, t=0.0,
                           rng=np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            bound_rk4_step(np.zeros(12), W_HOVER, 0.0, VEH, ENV)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, -0.01])
    def test_rejects_nonfinite_dt(self, dt):
        # a NaN step used to integrate and report a false divergence at t=nan
        with pytest.raises(ValueError, match="dt must be finite"):
            bound_rk4_step(np.zeros(12), W_HOVER, dt, VEH, ENV)

    @settings(max_examples=150, deadline=None)
    @given(state=in_envelope_states(),
           frac=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8),
           dt=st.floats(1e-4, 0.05),
           t=st.floats(0.0, 2.0),
           dist=disturbances(),
           drag=st.sampled_from([0.0, 0.4]),
           inertia=st.tuples(st.floats(0.6, 2.4), st.floats(0.6, 2.4), st.floats(1.0, 4.0),
                             st.floats(0.005, 0.05)),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_array_formula_bitwise(self, state, frac, dt, t, dist, drag, inertia,
                                           seed):
        # unequal roll and pitch inertia, so p q (Ixx - Iyy) is not 0 and every
        # term of the equations reaches the result
        ixx, iyy, izz, jr = inertia
        assume(ixx != iyy)
        veh = dataclasses.replace(VEH, linear_drag=drag, inertia_xx=ixx, inertia_yy=iyy,
                                  inertia_zz=izz, rotor_inertia=jr)
        cmd = np.array(frac) * veh.max_rotor_speed ** 2
        wrench = dynamics.wrench_from_rotors(cmd, veh)
        assert (derivative(state, cmd, veh, ENV).tobytes()
                == array_derivative(state, wrench, veh, np.zeros(3), np.zeros(3)).tobytes())
        ref = array_rk4(state, cmd, dt, veh, dist, t, np.random.default_rng(seed))
        assume(np.abs(ref).max() <= 1e6 and abs(ref[7]) < PITCH_LIMIT)
        out = bound_rk4_step(state, wrench, dt, veh, ENV, dist, t, np.random.default_rng(seed))
        assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("index, value", [
        (i, v) for i in range(12) for v in (math.nan, math.inf, -math.inf)] + [(1, 2e6)])
    def test_leaving_the_envelope_raises(self, index, value):
        # positions do not pass through the equations of motion, so only the
        # final check catches a non-finite position
        s = np.zeros(12)
        s[index] = value
        with pytest.raises(NumericalDivergence,
                           match=r"^state magnitude exceeded 1e\+06 at t=0\.010$"):
            bound_rk4_step(s, W_HOVER, 0.01, VEH, ENV)

    def test_pitch_past_the_limit_raises(self):
        s = make_state(theta=PITCH_LIMIT + 1e-3)
        with pytest.raises(NumericalDivergence,
                           match=r"^pitch approached gimbal lock at t=1\.260$"):
            bound_rk4_step(s, W_HOVER, 0.01, VEH, ENV, t=1.25)


class _HoverController:
    def command(self, t, x, traj):
        return U_HOVER


class _FullThrottle(_HoverController):
    """Front pair at full speed, rear pair off: pitches over and diverges."""

    def command(self, t, x, traj):
        cmd = U_HOVER.copy()
        cmd[[0, 1]] = VEH.max_rotor_speed**2
        cmd[[4, 5]] = 0.0
        return cmd


class _Scripted:
    """Returns the given commands in turn, one per control step."""

    def __init__(self, commands):
        self.commands = iter(commands)

    def command(self, t, x, traj):
        return next(self.commands)


def reference_loop(commands, dist, control_dt, substeps, x0, seed):
    """Logged states of the closed loop, one ``array_rk4`` call per substep.

    Each substep draws a fresh disturbance sample, at the substep start, and
    noise scales with ``sqrt(substeps)`` as ``run_closed_loop`` scales it.
    A start angle outside (-pi, pi] is wrapped, one inside is kept as given.
    Also says whether every substep stayed inside the plant's envelope.
    """
    rng = np.random.default_rng(seed)
    scale = math.sqrt(substeps)
    dist = dataclasses.replace(dist, noise_force=dist.noise_force * scale,
                               noise_torque=dist.noise_torque * scale)
    sub_dt = control_dt / substeps
    s, rows, inside = np.array(x0, dtype=float), [], True
    s[6:9] = [a if -math.pi < a <= math.pi else dynamics.wrap_angle(a) for a in s[6:9]]
    for k, cmd in enumerate(commands):
        rows.append(s)
        for i in range(substeps):
            s = array_rk4(s, cmd, sub_dt, VEH, dist, k * control_dt + i * sub_dt, rng)
            inside = inside and np.abs(s).max() <= 1e6 and abs(s[7]) < PITCH_LIMIT
    return np.array(rows), inside


class TestClosedLoop:
    @settings(max_examples=100, deadline=None)
    @given(frac=st.lists(st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8),
                         min_size=1, max_size=5),
           control_dt=st.sampled_from([0.02, 0.05]),
           substeps=st.sampled_from([1, 3, 10]),
           # pulse edges anywhere in the run, so most fall inside a control step
           dist=disturbances(span=0.25),
           x0=in_envelope_states(),
           seed=st.integers(0, 2**32 - 1))
    def test_logged_states_match_per_substep_reference_bitwise(
            self, frac, control_dt, substeps, dist, x0, seed):
        commands = [np.array(f) * VEH.max_rotor_speed ** 2 for f in frac]
        rows, inside = reference_loop(commands, dist, control_dt, substeps, x0, seed)
        assume(inside)
        # half a step short of the last command, so ceil(duration / control_dt)
        # is the command count whichever way the quotient rounds
        log = run_closed_loop(_Scripted(commands), constant_ref(0, 0, 0, 0), dist,
                              duration=(len(commands) - 0.5) * control_dt,
                              control_dt=control_dt, substeps=substeps, veh=VEH, env=ENV,
                              seed=seed, x0=x0)
        assert log.states.tobytes() == rows.tobytes()

    def test_controller_called_once_per_sample(self):
        calls = []

        class Counting(_HoverController):
            def command(self, t, x, traj):
                calls.append(t)
                return U_HOVER

        run_closed_loop(Counting(), constant_ref(0, 0, 0, 0), Disturbance(), duration=1.0,
                        control_dt=0.1, substeps=2, veh=VEH, env=ENV)
        assert len(calls) == 10

    def test_wrench_computed_once_per_step(self, monkeypatch):
        calls = []
        original = dynamics.wrench_from_rotors

        def counting(omega_sq, veh):
            calls.append(1)
            return original(omega_sq, veh)

        monkeypatch.setattr(dynamics, "wrench_from_rotors", counting)
        log = run_closed_loop(_HoverController(), constant_ref(0, 0, 0, 0), Disturbance(),
                              duration=0.5, control_dt=0.05, substeps=4,
                              veh=VEH, env=ENV)
        assert len(calls) == len(log) == 10
        assert np.array_equal(log.wrenches[0], original(U_HOVER, VEH))

    def test_nonfinite_command_is_rejected_not_integrated(self):
        # a NaN command used to surface as the plant's divergence a step later
        commands = [U_HOVER] * 3 + [np.full(8, math.nan)]
        with pytest.raises(ValueError, match="squared rotor speeds must be finite and >= 0"):
            run_closed_loop(_Scripted(commands), constant_ref(0, 0, 0, 0), Disturbance(),
                            duration=0.07, control_dt=0.02, substeps=10, veh=VEH, env=ENV)

    @pytest.mark.parametrize("duration, control_dt, steps", [
        (0.07, 0.01, 7), (1.12, 0.01, 112), (0.075, 0.01, 8), (2.0, 0.02, 100),
        (20.0, 0.02, 1000)])
    def test_step_count_tolerates_rounding(self, duration, control_dt, steps):
        # 0.07 / 0.01 and 1.12 / 0.01 round to just above 7 and 112, which a plain ceil counts
        # as 8 and 113 steps; the shipped and benchmark runs take 100 and 1000 steps
        log = run_closed_loop(_HoverController(), constant_ref(0, 0, 0, 0), Disturbance(),
                              duration=duration, control_dt=control_dt, substeps=1,
                              veh=VEH, env=ENV)
        assert len(log) == step_count(duration, control_dt) == steps

    def test_log_uniform_grid(self):
        log = run_closed_loop(_HoverController(), constant_ref(0, 0, 0, 0), Disturbance(),
                              duration=0.5, control_dt=0.05, substeps=1,
                              veh=VEH, env=ENV)
        assert np.allclose(np.diff(log.t), 0.05)
        assert len(log) == 10

    def test_divergence_attaches_partial_log(self):
        with pytest.raises(NumericalDivergence) as exc:
            run_closed_loop(_FullThrottle(), constant_ref(0, 0, 0, 0), Disturbance(),
                            duration=20.0, control_dt=0.02, substeps=5,
                            veh=VEH, env=ENV)
        log = exc.value.log
        assert log is not None
        assert len(log) >= 1
        # the message names the step that diverged, the state it started from
        # and the command held over it
        step = len(log) - 1
        start, held = (", ".join(f"{v:.6g}" for v in row)
                       for row in (log.states[step], log.commands[step]))
        assert re.fullmatch(
            r"(state magnitude exceeded 1e\+06|pitch approached gimbal lock) at t=\d+\.\d{3} "
            + re.escape(f"(control step {step}, state [{start}], held command [{held}])"),
            str(exc.value))

    def test_identical_seed_identical_log(self, tmp_path):
        dist = Disturbance(pulses=(Pulse(0.1, 0.3, force=(0.5, 0, 0)),),
                           noise_force=0.2)

        def one_run():
            return run_closed_loop(_HoverController(), constant_ref(0, 0, 0, 0),
                                   dist, duration=1.0, control_dt=0.02,
                                   substeps=4, veh=VEH, env=ENV, seed=77)

        a, b = one_run(), one_run()
        assert np.array_equal(a.states, b.states)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, pa)
        write_csv(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_substep_refinement_already_converged(self):
        model = discretize(linearize_hover(VEH, ENV), 0.02)
        cfg = MpcConfig.default(VEH)

        def final_state(substeps):
            ctl = MpcController(model, cfg, VEH, ENV)
            log = run_closed_loop(ctl, helix_ref(), Disturbance(), duration=5.0,
                                  control_dt=0.02, substeps=substeps,
                                  veh=VEH, env=ENV)
            return log.states[-1]

        delta = np.abs(final_state(10) - final_state(20)).max()
        assert delta < 1e-8

    def test_noise_power_does_not_depend_on_substeps(self):
        # force noise alone, seen in the velocity after one control step
        sigma, dt = 0.5, 0.02
        dist = Disturbance(noise_force=sigma)

        def velocity_variance(substeps):
            v = [run_closed_loop(_HoverController(), constant_ref(0, 0, 0, 0), dist,
                                 duration=2 * dt, control_dt=dt, substeps=substeps,
                                 veh=VEH, env=ENV, seed=seed).states[1, 3:6]
                 for seed in range(1000)]
            return float(np.var(v))

        coarse, fine = velocity_variance(5), velocity_variance(20)
        want = (sigma * dt / VEH.mass) ** 2
        assert abs(coarse / fine - 1) < 0.2
        assert abs(coarse / want - 1) < 0.2 and abs(fine / want - 1) < 0.2

    @pytest.mark.parametrize("traj", [helix_ref(), square_ref(side=2.0, edge_duration=0.3)])
    def test_reference_rows_equal_per_step_samples(self, traj):
        log = run_closed_loop(_HoverController(), traj, Disturbance(), duration=1.0,
                              control_dt=0.02, substeps=1, veh=VEH, env=ENV)
        rows = np.array([ref_window(traj, k * 0.02, 1, 0.02)[0] for k in range(len(log))])
        assert log.refs.tobytes() == rows.tobytes()

    def test_partial_log_carries_its_reference_rows(self):
        traj = square_ref(side=2.0, edge_duration=0.5)
        with pytest.raises(NumericalDivergence) as exc:
            run_closed_loop(_FullThrottle(), traj, Disturbance(), duration=20.0, control_dt=0.02,
                            substeps=5, veh=VEH, env=ENV)
        log = exc.value.log
        assert 1 < len(log) < 1000
        assert log.refs.shape == (len(log), 4)
        rows = np.array([ref_window(traj, k * 0.02, 1, 0.02)[0] for k in range(len(log))])
        assert log.refs.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("name, value", [
        ("duration", math.inf), ("duration", math.nan),
        ("control_dt", math.inf), ("control_dt", math.nan)])
    def test_rejects_nonfinite_times(self, name, value):
        # infinity used to raise OverflowError and NaN "cannot convert float NaN"
        kwargs = {"duration": 1.0, "control_dt": 0.02, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be a finite number > 0"):
            run_closed_loop(_HoverController(), constant_ref(0, 0, 0, 0), Disturbance(),
                            substeps=1, veh=VEH, env=ENV, **kwargs)

    def test_rejects_a_step_count_that_overflows(self):
        # each time is finite, but 1e10 / 1e-300 is not
        with pytest.raises(ValueError, match="must be a finite ratio"):
            run_closed_loop(_HoverController(), constant_ref(0, 0, 0, 0), Disturbance(),
                            duration=1e10, control_dt=1e-300, substeps=1, veh=VEH, env=ENV)

    @pytest.mark.parametrize("x0", [
        np.full(12, math.nan), make_state(psi=math.inf), np.zeros(5),
        np.zeros((12, 1))])
    def test_rejects_bad_start_state(self, x0):
        with pytest.raises(ValueError, match="x0 must be a finite 12-vector"):
            run_closed_loop(_HoverController(), constant_ref(0, 0, 0, 0), Disturbance(),
                            duration=1.0, control_dt=0.02, substeps=1,
                            veh=VEH, env=ENV, x0=x0)

    def test_start_angles_are_logged_wrapped(self):
        def run(x0):
            return run_closed_loop(_HoverController(), constant_ref(0, 0, 0, 0), Disturbance(),
                                   duration=0.2, control_dt=0.02, substeps=2,
                                   veh=VEH, env=ENV, x0=x0)

        log = run(make_state(phi=-math.pi, theta=0.3, psi=4.0))
        # an angle outside (-pi, pi] is wrapped into it, one inside is logged as given
        assert log.states[0, 6:9].tolist() == [math.pi, 0.3, dynamics.wrap_angle(4.0)]
        assert np.all((-math.pi < log.states[:, 6:9]) & (log.states[:, 6:9] <= math.pi))
        wrapped = run(make_state(phi=math.pi, theta=0.3, psi=dynamics.wrap_angle(4.0)))
        assert log.states.tobytes() == wrapped.states.tobytes()

    @pytest.mark.parametrize("name, value", [("substeps", 2.5), ("substeps", True),
                                             ("seed", 1.5), ("seed", False)])
    def test_rejects_a_non_integer_count(self, name, value):
        kwargs = {"substeps": 1, name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer >= [01], got {value!r}"):
            run_closed_loop(_HoverController(), constant_ref(0, 0, 0, 0), Disturbance(),
                            duration=0.1, control_dt=0.02, veh=VEH, env=ENV, **kwargs)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            run_closed_loop(_HoverController(), constant_ref(0, 0, 0, 0), Disturbance(),
                            duration=0.0, control_dt=0.02, substeps=1,
                            veh=VEH, env=ENV)
        with pytest.raises(ValueError):
            run_closed_loop(_HoverController(), constant_ref(0, 0, 0, 0), Disturbance(),
                            duration=1.0, control_dt=0.02, substeps=0,
                            veh=VEH, env=ENV)


def synthetic_log(t, pos, ref):
    n = len(t)
    states = np.zeros((n, 12))
    states[:, 0:3] = pos
    refs = np.zeros((n, 4))
    refs[:, 0:3] = ref
    return SimLog(
        t=np.asarray(t, dtype=float),
        states=states,
        commands=np.tile(U_HOVER, (n, 1)),
        refs=refs,
        wrenches=np.zeros((n, 5)),
        qp_iters=np.zeros(n, dtype=int),
        meta={"u_hover": U_HOVER, "control_dt": 0.1},
    )


class TestMetrics:
    def test_perfect_tracking(self):
        t = np.arange(0, 10, 0.1)
        ref = np.column_stack([np.ones_like(t), np.zeros_like(t), np.ones_like(t)])
        m = compute_metrics(synthetic_log(t, ref.copy(), ref))
        assert m.rms_position_error == 0.0
        assert m.max_overshoot_x_m == m.max_overshoot_y_m == m.max_overshoot_z_m == 0.0
        assert m.settling_time == 0.0
        assert m.control_effort == 0.0

    def test_twenty_percent_overshoot(self):
        t = np.arange(0, 10, 0.1)
        ref = np.column_stack([np.ones_like(t), np.zeros_like(t), np.zeros_like(t)])
        pos = ref.copy()
        pos[:, 0] = 1.0
        pos[0, 0] = 0.0          # starts at zero, steps to one
        pos[50, 0] = 1.2         # peaks at 1.2
        m = compute_metrics(synthetic_log(t, pos, ref))
        assert m.max_overshoot_x_m == pytest.approx(0.2)
        assert m.max_overshoot_x_pct == pytest.approx(20.0)

    def test_constant_offset_rms(self):
        t = np.arange(0, 5, 0.1)
        ref = np.zeros((len(t), 3))
        pos = ref.copy()
        pos[:, 1] = 0.25
        m = compute_metrics(synthetic_log(t, pos, ref))
        assert m.rms_position_error == pytest.approx(0.25)

    @pytest.mark.parametrize("axis", range(3))
    def test_sub_micron_step_does_not_step(self, axis):
        # 1e-7 m is below the 1e-6 m step rule: largest deviation and 0 percent
        t = np.arange(0, 10, 0.1)
        ref = np.zeros((len(t), 3))
        ref[:, axis] = 1e-7
        pos = np.zeros((len(t), 3))
        pos[20, axis] = -5e-7    # 6e-7 below the final reference
        pos[50, axis] = 3e-7     # 2e-7 past it
        m = compute_metrics(synthetic_log(t, pos, ref)).as_dict()
        name = "xyz"[axis]
        assert m[f"max_overshoot_{name}_m"] == pytest.approx(6e-7)
        assert m[f"max_overshoot_{name}_pct"] == 0.0
        assert m["settling_time"] == 0.0

    def test_transient_exclusion(self):
        t = np.arange(0, 10, 0.1)
        ref = np.zeros((len(t), 3))
        pos = ref.copy()
        pos[t < 2.0, 0] = 1.0  # error only during the first two seconds
        m = compute_metrics(synthetic_log(t, pos, ref), transient_skip=2.0)
        assert m.rms_position_error == 0.0

    @pytest.mark.parametrize("skip", [9.95, 10.0, 1e3])
    def test_transient_window_past_the_log_rejected(self, skip):
        # the last sample is at 9.9 s; the RMS used to fall back to every sample
        t = np.arange(0, 10, 0.1)
        ref = np.zeros((len(t), 3))
        pos = ref + 0.5
        with pytest.raises(ValueError, match="transient_skip .* leaves no sample"):
            compute_metrics(synthetic_log(t, pos, ref), transient_skip=skip)

    def test_settling_time_two_percent_band(self):
        t = np.arange(0, 10, 0.01)
        ref = np.column_stack([np.ones_like(t), np.zeros_like(t), np.zeros_like(t)])
        pos = np.zeros((len(t), 3))
        pos[:, 0] = 1.0 - np.exp(-t)  # enters the 2 percent band at t = ln(50)
        m = compute_metrics(synthetic_log(t, pos, ref))
        assert m.settling_time == pytest.approx(np.log(50.0), abs=0.02)

    def test_rejects_empty_log(self):
        log = synthetic_log([], np.zeros((0, 3)), np.zeros((0, 3)))
        with pytest.raises(ValueError):
            compute_metrics(log)


class TestCsv:
    def test_header_and_row_count(self, tmp_path):
        log = run_closed_loop(_HoverController(), constant_ref(0, 0, 0, 0), Disturbance(),
                              duration=0.2, control_dt=0.02, substeps=1,
                              veh=VEH, env=ENV)
        path = tmp_path / "log.csv"
        write_csv(log, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(log)
        assert len(lines[1].split(",")) == len(CSV_COLUMNS)
