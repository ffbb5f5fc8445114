"""Self-tests of the closed-loop benchmark in ``perfbench``.

Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import bench  # noqa: E402
from marsquad import config, mpc, simulator  # noqa: E402

SHORT = ["sim.duration=2.0"]  # 100 control steps, enough for the hop to bind


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_traced_and_untraced_logs_are_byte_identical(name, tmp_path):
    w = bench.WORKLOADS[name]
    overrides = next(w.plan(bench.DEFAULT_SEED)) + SHORT
    plain = bench.closed_loop(w, overrides, tmp_path / "plain")
    tracer = bench.Tracer()
    with tracer:
        traced = bench.closed_loop(w, overrides, tmp_path / "traced", tracer)
    assert plain.ok and traced.ok, plain.problems + traced.problems
    assert plain.log_csv.read_bytes() == traced.log_csv.read_bytes()
    for rec in (plain, traced):
        assert rec.step_s.size == rec.wall_step_s.size == 100
        assert np.all(rec.step_s > 0)
        assert 0 < rec.setup_s < rec.run_s
    assert tracer.calls["simulator.rk4_step"] == 100 * 10
    assert bench.guard_problems(w, tracer.counts["mpc.qp_active_steps"]) == []


def test_tracer_restores_module_attributes():
    before = (mpc.solve_qp, mpc.cho_factor, mpc.ref_window, simulator.rk4_step)
    with bench.Tracer():
        assert mpc.solve_qp is not before[0]
    assert (mpc.solve_qp, mpc.cho_factor, mpc.ref_window, simulator.rk4_step) == before


def test_check_run_flags_commands_outside_the_box(tmp_path):
    w = bench.WORKLOADS["pid_track"]
    overrides = next(w.plan(bench.DEFAULT_SEED)) + SHORT
    rec = bench.closed_loop(w, overrides, tmp_path)
    assert rec.ok, rec.problems
    cfg = config.load_config(w.config_path, overrides)
    log = simulator.SimLog(
        t=np.arange(100) * cfg.sim.control_dt, states=np.zeros((100, 12)),
        commands=np.full((100, 8), 0.5), refs=np.zeros((100, 4)),
        wrenches=np.zeros((100, 5)), qp_iters=np.zeros(100, dtype=int),
        meta={"u_min": np.zeros(8), "u_max": np.ones(8)})
    assert bench.check_run(log, cfg, w, rec.log_csv) == []
    log.commands[3, 2] = 1.5
    log.states[7, 0] = np.nan
    problems = bench.check_run(log, cfg, w, rec.log_csv)
    assert any("leave [u_min, u_max]" in p for p in problems)
    assert any("log.states" in p for p in problems)


def test_guard_rejects_a_workload_off_its_mechanism():
    assert bench.guard_problems(bench.WORKLOADS["mpc_track"], 1)
    assert bench.guard_problems(bench.WORKLOADS["mpc_box"], 0)
    assert not bench.guard_problems(bench.WORKLOADS["pid_track"], 0)


def test_spec_names_every_workload():
    assert [w["name"] for w in _spec()["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_reports_every_metric(trace, section):
    proc = _run_bench("--workload", "pid_track", "--seed", "3", "--seconds", "0",
                      "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    want = {m["name"]: m["unit"] for m in _spec()[section]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench("--workload", "mpc_track", "--seed", "0", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
