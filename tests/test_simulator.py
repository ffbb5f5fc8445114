import numpy as np
import pytest

from marsquad import dynamics, params
from marsquad.mpc import MpcConfig, MpcController
from marsquad.linmodel import discretize, linearize_hover
from marsquad.pid import PidController, PidGains
from marsquad.simulator import (CSV_COLUMNS, Disturbance, Metrics, NumericalDivergence,
                                Pulse, SimLog, compute_metrics, rk4_step,
                                run_closed_loop, write_csv)
from marsquad.trajectories import constant_ref, helix_ref

ENV = params.MARS
VEH = params.VehicleParams.default()
U_HOVER = dynamics.hover_command(VEH, ENV)


class TestRk4:
    def test_hover_is_a_fixed_point(self):
        s = rk4_step(np.zeros(12), U_HOVER, 0.02, VEH, ENV)
        assert np.abs(s).max() < 1e-12

    def test_free_fall_is_exact(self):
        s = np.zeros(12)
        for _ in range(100):
            s = rk4_step(s, np.zeros(8), 0.01, VEH, ENV)
        assert s[5] == pytest.approx(-ENV.gravity * 1.0, rel=1e-12)
        assert s[2] == pytest.approx(-0.5 * ENV.gravity * 1.0**2, rel=1e-10)

    def test_fourth_order_convergence(self):
        cmd = U_HOVER.copy()
        cmd[[6, 7]] += 120.0
        cmd[[2, 3]] -= 120.0
        x0 = dynamics.make_state(vx=0.2, vz=0.05, phi=0.05, theta=-0.03,
                                 phi_dot=0.08, theta_dot=-0.06, psi_dot=0.04)

        def integrate(dt, total=5.0):
            s = x0.copy()
            for _ in range(round(total / dt)):
                s = rk4_step(s, cmd, dt, VEH, ENV)
            return s

        ref = integrate(0.05 / 16)
        e1 = np.linalg.norm(integrate(0.05) - ref)
        e2 = np.linalg.norm(integrate(0.025) - ref)
        assert 12.0 < e1 / e2 < 20.0

    def test_divergence_near_gimbal_lock(self):
        s = dynamics.make_state(theta=1.50, theta_dot=3.0)
        with pytest.raises(NumericalDivergence):
            for _ in range(100):
                s = rk4_step(s, np.zeros(8), 0.01, VEH, ENV)

    def test_pulse_force_accelerates(self):
        dist = Disturbance(pulses=(Pulse(0.0, 1.0, force=(1.2, 0.0, 0.0)),))
        s = rk4_step(np.zeros(12), U_HOVER, 0.01, VEH, ENV, dist, t=0.0)
        assert s[3] == pytest.approx(1.2 / VEH.mass * 0.01, rel=1e-9)
        # outside the window the pulse is off
        s2 = rk4_step(np.zeros(12), U_HOVER, 0.01, VEH, ENV, dist, t=5.0)
        assert s2[3] == 0.0

    def test_noise_requires_rng(self):
        dist = Disturbance(noise_force=0.1)
        with pytest.raises(ValueError):
            rk4_step(np.zeros(12), U_HOVER, 0.01, VEH, ENV, dist, t=0.0)

    def test_noise_reproducible_for_same_seed(self):
        dist = Disturbance(noise_force=0.5, noise_torque=0.01)
        a = rk4_step(np.zeros(12), U_HOVER, 0.01, VEH, ENV, dist, t=0.0,
                     rng=np.random.default_rng(9))
        b = rk4_step(np.zeros(12), U_HOVER, 0.01, VEH, ENV, dist, t=0.0,
                     rng=np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            rk4_step(np.zeros(12), U_HOVER, 0.0, VEH, ENV)

    def test_wrench_and_its_command_step_identically(self):
        rng = np.random.default_rng(4)
        dist = Disturbance(pulses=(Pulse(0.0, 1.0, force=(0.3, 0, 0)),), noise_torque=0.01)
        for _ in range(20):
            s = rng.normal(0, 0.3, 12)
            cmd = U_HOVER * rng.uniform(0.8, 1.2, 8)
            wrench = dynamics.wrench_from_rotors(cmd, VEH)
            a = rk4_step(s, cmd, 0.004, VEH, ENV, dist, 0.1, np.random.default_rng(1))
            b = rk4_step(s, wrench, 0.004, VEH, ENV, dist, 0.1, np.random.default_rng(1))
            assert np.array_equal(a, b)


class _HoverController:
    last_qp_iters = 0

    def command(self, t, x, traj):
        return U_HOVER


class TestClosedLoop:
    def test_controller_called_once_per_sample(self):
        calls = []

        class Counting(_HoverController):
            def command(self, t, x, traj):
                calls.append(t)
                return U_HOVER

        run_closed_loop(Counting(), constant_ref(0, 0, 0, 0), None, duration=1.0,
                        control_dt=0.1, substeps=2, veh=VEH, env=ENV)
        assert len(calls) == 10

    def test_wrench_computed_once_per_step(self, monkeypatch):
        calls = []
        original = dynamics.wrench_from_rotors

        def counting(omega_sq, veh):
            calls.append(1)
            return original(omega_sq, veh)

        monkeypatch.setattr(dynamics, "wrench_from_rotors", counting)
        log = run_closed_loop(_HoverController(), constant_ref(0, 0, 0, 0), None,
                              duration=0.5, control_dt=0.05, substeps=4,
                              veh=VEH, env=ENV)
        assert len(calls) == len(log) == 10
        assert np.array_equal(log.wrenches[0], original(U_HOVER, VEH))

    def test_log_uniform_grid(self):
        log = run_closed_loop(_HoverController(), constant_ref(0, 0, 0, 0), None,
                              duration=0.5, control_dt=0.05, substeps=1,
                              veh=VEH, env=ENV)
        assert np.allclose(np.diff(log.t), 0.05)
        assert len(log) == 10

    def test_divergence_attaches_partial_log(self):
        class FullThrottle(_HoverController):
            def command(self, t, x, traj):
                cmd = U_HOVER.copy()
                cmd[[0, 1]] = VEH.max_rotor_speed**2
                cmd[[4, 5]] = 0.0
                return cmd

        with pytest.raises(NumericalDivergence) as exc:
            run_closed_loop(FullThrottle(), constant_ref(0, 0, 0, 0), None,
                            duration=20.0, control_dt=0.02, substeps=5,
                            veh=VEH, env=ENV)
        assert exc.value.log is not None
        assert len(exc.value.log) >= 1

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
            log = run_closed_loop(ctl, helix_ref(), None, duration=5.0,
                                  control_dt=0.02, substeps=substeps,
                                  veh=VEH, env=ENV)
            return log.states[-1]

        delta = np.abs(final_state(10) - final_state(20)).max()
        assert delta < 1e-8

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            run_closed_loop(_HoverController(), constant_ref(0, 0, 0, 0), None,
                            duration=0.0, control_dt=0.02, substeps=1,
                            veh=VEH, env=ENV)
        with pytest.raises(ValueError):
            run_closed_loop(_HoverController(), constant_ref(0, 0, 0, 0), None,
                            duration=1.0, control_dt=0.02, substeps=0,
                            veh=VEH, env=ENV)
        with pytest.raises(ValueError):
            run_closed_loop(_HoverController(), constant_ref(0, 0, 0, 0), None,
                            duration=1.0, control_dt=0.02, substeps=1,
                            veh=VEH, env=ENV, plant="linear")


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
        meta={"u_hover": U_HOVER, "u_min": np.zeros(8),
              "u_max": np.full(8, VEH.max_rotor_speed**2), "control_dt": 0.1},
    )


class TestMetrics:
    def test_perfect_tracking(self):
        t = np.arange(0, 10, 0.1)
        ref = np.column_stack([np.ones_like(t), np.zeros_like(t), np.ones_like(t)])
        m = compute_metrics(synthetic_log(t, ref.copy(), ref))
        assert m.rms_position_error == 0.0
        assert max(m.max_overshoot_m) == 0.0
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
        assert m.max_overshoot_m[0] == pytest.approx(0.2)
        assert m.max_overshoot_pct[0] == pytest.approx(20.0)

    def test_constant_offset_rms(self):
        t = np.arange(0, 5, 0.1)
        ref = np.zeros((len(t), 3))
        pos = ref.copy()
        pos[:, 1] = 0.25
        m = compute_metrics(synthetic_log(t, pos, ref))
        assert m.rms_position_error == pytest.approx(0.25)

    def test_transient_exclusion(self):
        t = np.arange(0, 10, 0.1)
        ref = np.zeros((len(t), 3))
        pos = ref.copy()
        pos[t < 2.0, 0] = 1.0  # error only during the first two seconds
        m = compute_metrics(synthetic_log(t, pos, ref), transient_skip=2.0)
        assert m.rms_position_error == 0.0

    def test_settling_time_two_percent_band(self):
        t = np.arange(0, 10, 0.01)
        ref = np.column_stack([np.ones_like(t), np.zeros_like(t), np.zeros_like(t)])
        pos = np.zeros((len(t), 3))
        pos[:, 0] = 1.0 - np.exp(-t)  # enters the 2 percent band at t = ln(50)
        m = compute_metrics(synthetic_log(t, pos, ref))
        assert m.settling_time == pytest.approx(np.log(50.0), abs=0.02)

    def test_violations_counted(self):
        t = np.arange(0, 1, 0.1)
        ref = np.zeros((len(t), 3))
        log = synthetic_log(t, ref.copy(), ref)
        log.commands[3, 0] = VEH.max_rotor_speed**2 + 1.0
        m = compute_metrics(log)
        assert m.constraint_violations == 1

    def test_rejects_empty_log(self):
        log = synthetic_log([], np.zeros((0, 3)), np.zeros((0, 3)))
        with pytest.raises(ValueError):
            compute_metrics(log)


class TestCsv:
    def test_header_and_row_count(self, tmp_path):
        log = run_closed_loop(_HoverController(), constant_ref(0, 0, 0, 0), None,
                              duration=0.2, control_dt=0.02, substeps=1,
                              veh=VEH, env=ENV)
        path = tmp_path / "log.csv"
        write_csv(log, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(log)
        assert len(lines[1].split(",")) == len(CSV_COLUMNS)
