"""Acceptance suite: every criterion below runs at its stated tolerance and
prints one pass/fail line (run with ``pytest -s`` to see them inline).

The closed-loop criteria take every physical parameter and threshold
through ``load_config`` of a shipped scenario file: the values the file
sets, and the code defaults for the rest. None comes from constants in
this module. The shipped runs come from the session fixture
``shipped_run`` (``conftest.py``), which makes each one once.
"""

import time

import numpy as np

import golden
import oracles
from marsquad import dynamics, linmodel, params, simulator as sim
from marsquad.config import load_config
from marsquad.mpc import MpcConfig, MpcController, solve_qp
from marsquad.scenarios import scenario_path


def _report(num, ok, text):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def _steps_outside_box(cfg, log):
    """The logged steps whose command leaves the vehicle's box [0, max_rotor_speed^2]."""
    outside = (log.commands < 0.0) | (log.commands > cfg.veh.max_rotor_speed ** 2)
    return int(np.any(outside, axis=1).sum())


def test_criterion_01_linearization_matches_finite_differences():
    cfg = load_config(scenario_path("hover"))
    start = time.monotonic()
    model = linmodel.linearize_hover(cfg.veh, cfg.env)
    u0 = dynamics.hover_command(cfg.veh, cfg.env)
    a_num, b_num = oracles.numeric_jacobian(np.zeros(12), u0, cfg.veh, cfg.env, eps=1e-6)
    elapsed = time.monotonic() - start
    worst_a = np.abs(a_num - model.A).max()
    worst_b = np.abs(b_num - model.B).max()
    ok = worst_a < 1e-5 and worst_b < 1e-5 and elapsed < 1.0
    _report(1, ok, f"analytic vs central differences: max |dA|={worst_a:.2e}, "
                   f"max |dB|={worst_b:.2e} (tol 1e-5), {elapsed:.2f} s")


def test_criterion_02_allocation_round_trip():
    cfg = load_config(scenario_path("hover"))
    veh = cfg.veh
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(1000):
        w = np.array([rng.uniform(20.0, 55.0), rng.uniform(-1, 1),
                      rng.uniform(-1, 1), rng.uniform(-0.02, 0.02)])
        cmd = dynamics.allocate(w, veh)
        back = np.array(dynamics.wrench_from_rotors(cmd, veh)[:4])
        worst = max(worst, np.linalg.norm(back - w) / np.linalg.norm(w))
    a = dynamics.mixer_matrix(veh)
    identity_err = np.abs(a @ np.linalg.pinv(a) - np.eye(4)).max()
    ok = worst < 1e-10 and identity_err < 1e-12
    _report(2, ok, f"1000 wrench round trips: worst rel err {worst:.2e} (tol 1e-10), "
                   f"A A+ vs I: {identity_err:.2e} (tol 1e-12)")


def test_criterion_03_hover_equilibrium(shipped_run):
    runs = {kind: shipped_run("hover", kind) for kind in ("mpc", "pid")}
    tol = runs["mpc"][0].acceptance["max_position_deviation"]
    devs = {kind: float(np.abs(run[1].states[:, 0:3]).max()) for kind, run in runs.items()}
    ok = all(d < tol for d in devs.values())
    _report(3, ok, f"10 s hover deviation: mpc {devs['mpc']:.2e} m, "
                   f"pid {devs['pid']:.2e} m (tol {tol:g})")


def test_criterion_04_reported_numbers():
    checks = [
        ("speed of sound (Mars)", params.speed_of_sound(params.MARS), 233.0, 0.5),
        ("tip Mach at 396 m/s", params.tip_mach(396.0, 1.0, 244.0), 1.62, 0.01),
        ("thrust coeff from 15.67 N at 2800 rpm",
         15.67 / (2 * params.rpm_to_rad_s(2800.0) ** 2), 9.11e-5, 1e-7),
    ]
    cfg = load_config(scenario_path("hover"))
    checks.append(("hover thrust", params.hover_thrust(cfg.veh, cfg.env), 44.53, 0.01))
    checks.append(("hover speed", params.hover_speed(cfg.veh, cfg.env), 247.2, 0.5))
    failures = [f"{name}: {got:.6g} vs {want:.6g}+-{tol:g}"
                for name, got, want, tol in checks if abs(got - want) > tol]
    ok = not failures
    _report(4, ok, "all five reported values reproduced" if ok
            else "; ".join(failures))


def test_criterion_05_prediction_exactness():
    cfg = load_config(scenario_path("hover"))
    model = linmodel.discretize(linmodel.linearize_hover(cfg.veh, cfg.env), 0.02)
    n = 20
    ctrl = MpcController(model, MpcConfig.default(cfg.veh, horizon=n), cfg.veh, cfg.env)
    dx0 = np.zeros(12)
    dx0[0:3] = [0.4, -0.2, 0.3]
    g, _ = ctrl.linear_terms(dx0, np.zeros((n, 4)))
    du, _ = solve_qp(ctrl.hessian_op.dense(), g, ctrl.lower, ctrl.upper, ctrl.cfg)
    predicted = oracles.predict(ctrl, dx0, du)
    state = dx0.copy()
    worst = 0.0
    for i in range(n):
        worst = max(worst, float(np.abs(predicted[i] - state).max()))
        state = model.A @ state + model.B @ du[8 * i:8 * (i + 1)]
    ok = worst < 1e-10
    _report(5, ok, f"N=20, Ts=0.02 prediction vs linear plant: "
                   f"worst |dx| {worst:.2e} (tol 1e-10)")


def test_criterion_06_qp_against_brute_force(shipped_run, box_qp_oracle):
    cfg = MpcConfig.default(params.VehicleParams())
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(500):
        a = rng.normal(0, 1, (5, 5))
        h = a @ a.T + 0.4 * np.eye(5)
        g = rng.normal(0, 2, 5)
        lo = rng.uniform(-2, -0.1, 5)
        hi = rng.uniform(0.1, 2, 5)
        x, _ = solve_qp(h, g, lo, hi, cfg)
        xb = box_qp_oracle(h, g, lo, hi)
        worst = max(worst, float(np.abs(x - xb).max()))
    violations = {run: _steps_outside_box(*shipped_run(*run.split("/"))[:2])
                  for run in golden.RUNS}
    total = sum(violations.values())
    ok = worst < 1e-8 and total == 0
    _report(6, ok, f"500 random box QPs: worst |dx| {worst:.2e} (tol 1e-8); "
                   f"box violations across {len(violations)} shipped runs: {total}")


def test_criterion_07_step_response(shipped_run):
    cfg, _, metrics, elapsed = shipped_run("step_xyz", "mpc")
    acc = cfg.acceptance
    overshoot = max(metrics.max_overshoot_x_pct, metrics.max_overshoot_y_pct,
                    metrics.max_overshoot_z_pct)
    ok = (metrics.settling_time <= acc["settling_time_max"]
          and overshoot <= acc["overshoot_pct_max"]
          and metrics.steady_state_error <= acc["steady_state_error_max"]
          and elapsed < 30.0)
    _report(7, ok, f"+1 m xyz step: settle {metrics.settling_time:.2f} s "
                   f"(max {acc['settling_time_max']:g}), overshoot {overshoot:.2f}% "
                   f"(max {acc['overshoot_pct_max']:g}), steady-state "
                   f"{metrics.steady_state_error * 100:.3f} cm "
                   f"(max {acc['steady_state_error_max'] * 100:g}), wall {elapsed:.1f} s")


def test_criterion_07_holds_with_linear_drag(tmp_path):
    """The step response on a vehicle with drag, which the MPC's model includes."""
    cfg, _, metrics, _ = golden.run("step_xyz", "mpc", tmp_path, ["vehicle.linear_drag=0.5"])
    acc = cfg.acceptance
    overshoot = max(metrics.max_overshoot_x_pct, metrics.max_overshoot_y_pct,
                    metrics.max_overshoot_z_pct)
    ok = (metrics.settling_time <= acc["settling_time_max"]
          and overshoot <= acc["overshoot_pct_max"]
          and metrics.steady_state_error <= acc["steady_state_error_max"])
    _report(7, ok, f"+1 m xyz step with linear_drag 0.5: settle {metrics.settling_time:.2f} s, "
                   f"overshoot {overshoot:.2f}%, steady-state "
                   f"{metrics.steady_state_error * 100:.3f} cm")


def test_criterion_08_helix_tracking(shipped_run):
    cfg, _, metrics, elapsed = shipped_run("helix", "mpc")
    limit = cfg.acceptance["rms_error_max"]
    ok = metrics.rms_position_error <= limit and elapsed < 60.0
    _report(8, ok, f"helix (r=1, 0.02 pi rad/s, 0.1 m/s climb): RMS after "
                   f"{cfg.sim.transient_skip:g} s transient "
                   f"{metrics.rms_position_error * 100:.3f} cm (max {limit * 100:g}), "
                   f"wall {elapsed:.1f} s")


def test_criterion_09_square_corner_comparison(shipped_run):
    square_runs = {kind: shipped_run("square_corners", kind) for kind in ("mpc", "pid")}
    cfg = square_runs["mpc"][0]
    side = cfg.traj_params["side"]
    over = {k: oracles.corner_overshoot(run[1], side) for k, run in square_runs.items()}
    effort = {k: run[2].control_effort for k, run in square_runs.items()}
    ok = over["mpc"] < over["pid"] and effort["mpc"] < effort["pid"]
    _report(9, ok, f"square corners: overshoot mpc {over['mpc'] * 100:.2f} cm < "
                   f"pid {over['pid'] * 100:.2f} cm; effort mpc {effort['mpc']:.3g} < "
                   f"pid {effort['pid']:.3g}")


def test_criterion_10_disturbance_rejection(shipped_run):
    cfg, log, _, _ = shipped_run("helix_disturbed", "mpc")
    pulse = cfg.disturbance.pulses[0]
    deadline = pulse.t_end + cfg.acceptance["recovery_time_max"]
    radius = cfg.acceptance["recovery_radius"]
    err = np.linalg.norm(log.states[:, 0:3] - log.refs[:, 0:3], axis=1)
    after = log.t >= deadline
    worst_after = float(err[after].max())
    during = float(err[(log.t >= pulse.t_start) & (log.t <= pulse.t_end)].max())
    violations = _steps_outside_box(cfg, log)
    ok = worst_after <= radius and violations == 0
    _report(10, ok, f"1 N gust for {pulse.t_end - pulse.t_start:g} s deflects "
                    f"{during * 100:.1f} cm; error after t={deadline:g} s: "
                    f"{worst_after * 100:.2f} cm (max {radius * 100:g}), "
                    f"violations {violations}")


def test_criterion_11_integrator_order():
    cfg = load_config(scenario_path("hover"))
    veh, env = cfg.veh, cfg.env
    cmd = dynamics.hover_command(veh, env)
    cmd[[6, 7]] += 120.0
    cmd[[2, 3]] -= 120.0
    cmd[[0, 2, 4, 6]] += 60.0
    cmd[[1, 3, 5, 7]] -= 60.0
    wrench = dynamics.wrench_from_rotors(cmd, veh)
    x0 = oracles.make_state(vx=0.2, vy=-0.1, vz=0.05, phi=0.05, theta=-0.03,
                            phi_dot=0.08, theta_dot=-0.06, psi_dot=0.04)

    # the equations bound as the closed loop binds them, to an undisturbed plant
    accelerations = dynamics.equations_of_motion(wrench, veh, env,
                                                 *sim.Disturbance().sample(0.0, None))

    def integrate(dt, total=5.0):
        s = tuple(x0.tolist())
        for _ in range(round(total / dt)):
            s = sim.rk4_step(s, accelerations, dt, 0.0)
        return s

    ref = integrate(0.05 / 16)
    e1 = np.linalg.norm(np.subtract(integrate(0.05), ref))
    e2 = np.linalg.norm(np.subtract(integrate(0.025), ref))
    ratio = e1 / e2
    ok = 12.0 <= ratio <= 20.0
    _report(11, ok, f"RK4 5 s maneuver: error ratio dt vs dt/2 = {ratio:.2f} "
                    f"(expected within [12, 20])")


def test_criterion_12_determinism(tmp_path):
    # the shipped 10 s transient window would outlast the shortened run
    overrides = ["sim.duration=6.0", "sim.transient_skip=0", "disturbance.noise_force=0.05"]

    def one(outdir):
        golden.run("helix_disturbed", "mpc", outdir, overrides)
        return (outdir / "helix_disturbed" / "mpc" / "log.csv").read_bytes()

    a = one(tmp_path / "a")
    b = one(tmp_path / "b")
    ok = a == b
    _report(12, ok, f"two noisy runs, same config and seed: CSV logs "
                    f"{'byte-identical' if ok else 'differ'} ({len(a)} bytes)")
