import configparser
import dataclasses
import json
import math
import re

import numpy as np
import pytest

from marsquad import cli, config, params, simulator
from marsquad.config import (ConfigError, SimSettings, config_snapshot, derived_report,
                             load_config, parse_overrides)
from marsquad.mpc import MpcConfig
from marsquad.pid import PidGains
from marsquad.scenarios import scenario_names, scenario_path
from marsquad.trajectories import TRAJECTORIES

MINIMAL = """
[trajectory]
type = constant
x = 0.0
y = 0.0
z = 0.0

[sim]
controller = mpc
duration = 1.0
"""


@pytest.fixture
def minimal_cfg(tmp_path):
    path = tmp_path / "minimal.cfg"
    path.write_text(MINIMAL)
    return path


@pytest.fixture
def bare_cfg(tmp_path):
    """A file that leaves every section but [sim] at its defaults."""
    path = tmp_path / "bare.cfg"
    path.write_text("[sim]\nduration = 1.0\n")
    return path


def assert_table_shows(out, outdir, kinds):
    """``marsquad run``'s table: a header naming ``kinds``, then each metric
    once, with the values each run wrote to its ``metrics.json``."""
    lines = out.splitlines()
    assert lines[1].split() == ["metric", *kinds]
    written = [json.loads((outdir / kind / "metrics.json").read_text()) for kind in kinds]
    for label, key in cli._METRIC_ROWS:
        row = [line for line in lines if line.startswith(f"  {label} ")]
        assert len(row) == 1
        values = [float(v) for v in row[0][len(f"  {label}"):].split()]
        assert values == pytest.approx([m[key] for m in written], rel=1e-5)


def assert_same(a, b):
    """Equal values of equal types, through dataclasses, tuples, dicts and arrays."""
    assert type(a) is type(b)
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    elif isinstance(a, dict):
        assert list(a) == list(b)
        for key in a:
            assert_same(a[key], b[key])
    elif isinstance(a, tuple):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    else:
        assert a == b


class TestLoading:
    def test_minimal_config_uses_defaults(self, minimal_cfg):
        cfg = load_config(minimal_cfg)
        assert cfg.veh.mass == params.VehicleParams().mass
        assert cfg.env == params.MARS
        assert cfg.sim.duration == 1.0
        assert cfg.mpc.horizon >= 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.cfg")

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(MINIMAL + "\n[typo_section]\nfoo = 1\n")
        with pytest.raises(ConfigError, match="typo_section"):
            load_config(p)

    def test_default_section_is_an_unknown_section(self, tmp_path):
        # configparser would read [DEFAULT]'s keys into every section: here sim.seed = 3
        p = tmp_path / "bad.cfg"
        p.write_text("[DEFAULT]\nseed = 3\n\n[sim]\nduration = 1.0\n")
        with pytest.raises(ConfigError) as exc:
            load_config(p)
        assert exc.value.problems == ["unknown section [DEFAULT]"]

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(MINIMAL + "\n[mpc]\nhorizont = 20\n")
        with pytest.raises(ConfigError, match="mpc.horizont"):
            load_config(p)

    def test_negative_mass_reported_with_field(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(MINIMAL + "\n[vehicle]\nmass = -3.0\n")
        with pytest.raises(ConfigError, match="mass"):
            load_config(p)

    def test_supersonic_tip_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(MINIMAL + "\n[vehicle]\nmax_rotor_speed = 600.0\n")
        with pytest.raises(ConfigError, match="[Mm]ach"):
            load_config(p)

    def test_trajectory_key_for_wrong_type_rejected(self, tmp_path):
        # helix has no heading key: psi is accepted for constant only
        p = tmp_path / "bad.cfg"
        for kind, key in (("constant", "radius"), ("helix", "psi"), ("square", "climb_rate")):
            p.write_text(MINIMAL.replace("type = constant\nx = 0.0\ny = 0.0\nz = 0.0",
                                         f"type = {kind}\n{key} = 2.0"))
            with pytest.raises(ConfigError, match=f"trajectory.{key} does not apply"):
                load_config(p)

    def test_all_problems_collected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(MINIMAL + "\n[vehicle]\nmass = -3.0\nbogus = 1\n")
        with pytest.raises(ConfigError) as exc:
            load_config(p)
        assert len(exc.value.problems) >= 2

    def test_environment_profile_earth(self, tmp_path):
        # a 5 kg craft hovers on Earth at 259 of its 293 rad/s
        p = tmp_path / "earth.cfg"
        p.write_text(MINIMAL + "\n[environment]\nprofile = earth\n"
                     "[vehicle]\nmass = 5.0\n")
        cfg = load_config(p)
        assert cfg.env.gravity == pytest.approx(9.81)

    @pytest.mark.parametrize("overrides, hover_rpm", [(["environment.profile=earth"], 3838),
                                                      (["vehicle.mass=25"], 3407)])
    def test_craft_that_cannot_hover_rejected(self, overrides, hover_rpm):
        # hover above the 2800 rpm ceiling: under either controller the craft falls
        with pytest.raises(ConfigError) as exc:
            load_config(scenario_path("hover"), overrides)
        assert exc.value.problems == [f"hover needs {hover_rpm} rpm, at or above the max rotor "
                                      "speed 2800 rpm"]

    def test_pulse_parsing(self, tmp_path):
        p = tmp_path / "dist.cfg"
        p.write_text(MINIMAL + "\n[disturbance]\npulses = 1 2 0.5 0 0 0 0 0.01 ; 3 4 0 1 0 0 0 0\n")
        cfg = load_config(p)
        assert len(cfg.disturbance.pulses) == 2
        assert cfg.disturbance.pulses[0].force == (0.5, 0.0, 0.0)
        assert cfg.disturbance.pulses[1].t_start == 3.0

    def test_malformed_pulse_rejected(self, tmp_path):
        p = tmp_path / "dist.cfg"
        p.write_text(MINIMAL + "\n[disturbance]\npulses = 1 2 3\n")
        with pytest.raises(ConfigError, match="pulse"):
            load_config(p)

    def test_pulse_may_last_forever(self, minimal_cfg):
        cfg = load_config(minimal_cfg, ["disturbance.pulses=1 inf 0.5 0 0 0 0 0"])
        assert cfg.disturbance.pulses[0].t_end == math.inf

    @pytest.mark.parametrize("key, raw, extra", [
        ("environment.density", "inf", []),
        ("vehicle.mass", "nan", []),
        ("mpc.qp_tol", "nan", []),
        ("mpc.position_weight", "-inf", []),
        ("pid.x_kp", "nan", []),
        ("trajectory.radius", "nan", ["trajectory.type=helix"]),
        ("trajectory.side", "inf", ["trajectory.type=square"]),
        ("disturbance.noise_force", "inf", []),
        ("sim.duration", "inf", []),
        ("acceptance.rms_error_max", "1e400", []),
    ])
    def test_nonfinite_number_rejected(self, bare_cfg, key, raw, extra):
        with pytest.raises(ConfigError) as exc:
            load_config(bare_cfg, extra + [f"{key}={raw}"])
        assert exc.value.problems == [f"{key} must be a finite number, got {raw!r}"]

    @pytest.mark.parametrize("key, value", [("transient_skip", math.nan),
                                            ("transient_skip", math.inf),
                                            ("duration", math.nan), ("control_dt", math.inf)])
    def test_sim_settings_reject_nonfinite_times(self, key, value):
        # a NaN transient_skip used to make compute_metrics average the whole run
        with pytest.raises(ValueError, match=f"^{key} must be a finite number"):
            SimSettings(**{key: value})

    @pytest.mark.parametrize("duration, skip", [(1.0, 5.0), (1.0, 1.0), (1.0, 0.99),
                                                (20.0, 20.0), (0.14, 0.14)])
    def test_sim_settings_reject_skip_past_the_run(self, duration, skip):
        # the last sample of a 1 s run at 0.02 s is at 0.98 s; a 0.14 s run has 7 steps,
        # the last at 0.12 s, although 0.14 / 0.02 rounds to just above 7
        with pytest.raises(ValueError, match="transient_skip must be at most the last sample"):
            SimSettings(duration=duration, transient_skip=skip)

    @pytest.mark.parametrize("key, value", [("substeps", 2.5), ("substeps", True),
                                            ("seed", 1.5), ("seed", True)])
    def test_sim_settings_reject_a_non_integer_count(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be an integer >= [01], got {value!r}"):
            SimSettings(**{key: value})

    def test_sim_settings_reject_a_step_count_that_overflows(self):
        # the run's step count, ceil(duration / control_dt), must be a number
        with pytest.raises(ValueError, match="finite ratio"):
            SimSettings(duration=1e300, control_dt=1e-300)

    def test_sim_settings_accept_skip_to_the_last_sample(self):
        sim = SimSettings(duration=1.0, transient_skip=0.98)
        t = np.arange(math.ceil(sim.duration / sim.control_dt)) * sim.control_dt
        assert np.count_nonzero(t >= sim.transient_skip) == 1

    def test_shortened_run_inside_the_shipped_transient_window_rejected(self):
        with pytest.raises(ConfigError, match=r"\[sim\] transient_skip"):
            load_config(scenario_path("helix"), ["sim.duration=6"])

    @pytest.mark.parametrize("key, raw, problem", [
        ("mpc.position_weight", "-1", "position_weight must be a finite number >= 0, got -1.0"),
        ("mpc.input_weight", "0", "input_weight must be a finite number > 0, got 0.0"),
        ("pid.yaw_kd", "-0.5", "yaw_kd must be a finite number >= 0, got -0.5"),
    ])
    def test_bad_weight_or_gain_names_its_key(self, bare_cfg, key, raw, problem):
        section = key.split(".")[0]
        with pytest.raises(ConfigError) as exc:
            load_config(bare_cfg, [f"{key}={raw}"])
        assert exc.value.problems == [f"[{section}] {problem}"]


class TestOverrides:
    def test_parse(self):
        assert parse_overrides(["sim.seed=4"]) == [("sim", "seed", "4")]

    def test_malformed(self):
        # an empty section too: configparser would file its key under every section
        for item in ("simseed=4", "sim.seed", ".seed=4", " .seed=4", "sim.=4", "sim. =4"):
            with pytest.raises(ConfigError, match="not of the form section.key=value"):
                parse_overrides([item])

    def test_override_applies(self, minimal_cfg):
        cfg = load_config(minimal_cfg, ["sim.seed=99", "mpc.horizon=12"])
        assert cfg.sim.seed == 99
        assert cfg.mpc.horizon == 12

    def test_override_still_strict(self, minimal_cfg):
        with pytest.raises(ConfigError, match="mpc.bogus"):
            load_config(minimal_cfg, ["mpc.bogus=1"])


class TestSnapshot:
    def test_round_trip(self, tmp_path, minimal_cfg):
        cfg = load_config(minimal_cfg, ["sim.seed=42"])
        snap = tmp_path / "snap.cfg"
        snap.write_text(config_snapshot(cfg))
        cfg2 = load_config(snap)
        assert cfg2.sim.seed == 42
        assert cfg2.veh == cfg.veh
        assert cfg2.env == cfg.env
        assert config_snapshot(cfg2) == config_snapshot(cfg)

    @pytest.mark.parametrize("name", scenario_names())
    def test_shipped_scenario_round_trips(self, tmp_path, name):
        cfg = load_config(scenario_path(name))
        text = config_snapshot(cfg)
        snap = tmp_path / f"{name}.cfg"
        snap.write_text(text)
        cfg2 = load_config(snap)
        assert_same(cfg2, cfg)
        assert config_snapshot(cfg2) == text

    @pytest.mark.parametrize("name", scenario_names())
    def test_loaded_configs_compare_by_value(self, name):
        a, b = load_config(scenario_path(name)), load_config(scenario_path(name))
        assert a == b
        assert a != dataclasses.replace(a, mpc=MpcConfig.default(a.veh, horizon=7))

    @pytest.mark.parametrize("extra, overrides, rejected_key", [
        ("", ["scenario.description=run 3 of the sweep"], None),
        ("", ["sim.outdir=out#1", "scenario.description=C# port"], None),
        ("\n[scenario]\ndescription = first line\n  second line\n", [], None),
        ("\n[scenario]\ndescription =\n  after a break\n\n  after a blank\n", [], None),
        ("", ["scenario.description=run #3 of the sweep"], "scenario.description"),
        ("", ["sim.outdir=out #1"], "sim.outdir"),
        ("", ["scenario.description=#3"], "scenario.description"),
    ], ids=["plain", "hash_inside_word", "two_lines", "blank_line", "hash_after_space",
            "outdir_hash_after_space", "leading_hash"])
    def test_string_values_round_trip_or_are_rejected(self, tmp_path, extra, overrides,
                                                       rejected_key):
        path = tmp_path / "minimal.cfg"
        path.write_text(MINIMAL + extra)
        if rejected_key:
            with pytest.raises(ConfigError, match=rf"override {rejected_key}: .*comment"):
                load_config(path, overrides)
            return
        cfg = load_config(path, overrides)
        (tmp_path / "snap").mkdir()
        snap = tmp_path / "snap" / "minimal.cfg"
        snap.write_text(config_snapshot(cfg))
        assert_same(load_config(snap), cfg)

    @pytest.mark.parametrize("name", scenario_names())
    def test_reloaded_snapshot_takes_the_box_from_the_vehicle(self, tmp_path, name):
        snap = tmp_path / f"{name}.cfg"
        snap.write_text(config_snapshot(load_config(scenario_path(name))))
        cfg = load_config(snap, ["vehicle.max_rotor_speed=260"])
        assert (cfg.mpc.u_min, cfg.mpc.u_max) == (0.0, 260.0 ** 2)

    def test_reloaded_snapshot_flies_inside_the_vehicle_box(self, tmp_path):
        snap = tmp_path / "step_xyz.cfg"
        snap.write_text(config_snapshot(load_config(scenario_path("step_xyz"))))
        cfg = load_config(snap, ["vehicle.max_rotor_speed=260", "trajectory.z=4",
                                 "sim.duration=6"])
        log, _ = cli.run_scenario(cfg, "mpc", tmp_path / "out")
        assert len(log) == 300
        assert 0.0 <= log.commands.min() and log.commands.max() <= 260.0 ** 2

    def test_reader_accepts_the_keys_the_snapshot_writes(self, bare_cfg):
        accepted = {section: set(table) for section, table in config._TABLES.items()}
        for section, key in config._SELECTORS:
            accepted[section].add(key)
        thresholds = [f"acceptance.{key}=1" for key in accepted["acceptance"]]
        written = {}
        for kind in TRAJECTORIES:
            cfg = load_config(bare_cfg, [f"trajectory.type={kind}"] + thresholds)
            parser = configparser.ConfigParser(interpolation=None)
            parser.read_string(config_snapshot(cfg))
            for section in parser.sections():
                written.setdefault(section, set()).update(parser[section])
        # the snapshot writes the profile's resolved values, not its name
        written["environment"].add("profile")
        assert written == accepted

    def test_derived_report_values(self, minimal_cfg):
        rep = derived_report(load_config(minimal_cfg))
        assert rep["speed_of_sound_m_s"] == pytest.approx(233.0, abs=0.5)
        assert rep["hover_thrust_N"] == pytest.approx(44.53, abs=0.01)
        assert rep["hover_speed_rad_s"] == pytest.approx(247.2, abs=0.5)
        assert rep["tip_mach_at_max"] < 1.0


class TestShippedScenarios:
    def test_at_least_four_scenarios(self):
        assert len(scenario_names()) >= 4

    def test_expected_names_present(self):
        names = scenario_names()
        for expected in ("hover", "step_xyz", "helix", "square_corners",
                         "helix_disturbed"):
            assert expected in names

    def test_descriptions_nonempty(self):
        for name in scenario_names():
            assert load_config(scenario_path(name)).description, name

    def test_every_scenario_validates(self):
        for name in scenario_names():
            cfg = load_config(scenario_path(name))
            assert cfg.name == name

    @pytest.mark.parametrize("name", scenario_names())
    def test_scenario_flies_the_default_craft_and_tuning(self, name):
        cfg = load_config(scenario_path(name))
        assert cfg.veh == params.VehicleParams()
        assert cfg.pid == PidGains()
        assert cfg.mpc == MpcConfig.default(cfg.veh)

    @pytest.mark.parametrize("name", scenario_names())
    def test_scenario_sets_no_key_to_its_default(self, tmp_path, name):
        # such a key is a second copy of its default: dropping it must change the run
        text = config_snapshot(load_config(scenario_path(name)))
        parser = config._read_ini(scenario_path(name))
        for section in parser.sections():
            for key in parser[section]:
                if (section, key) in config._SELECTORS:
                    continue
                trimmed = config._read_ini(scenario_path(name))
                trimmed.remove_option(section, key)
                path = tmp_path / f"{name}.cfg"
                with open(path, "w") as fh:
                    trimmed.write(fh)
                assert config_snapshot(load_config(path)) != text, f"{section}.{key}"

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            scenario_path("warp_drive")


class TestCli:
    def test_validate_ok(self, capsys):
        rc = cli.main(["validate", "--config", str(scenario_path("hover"))])
        assert rc == 0
        out = capsys.readouterr().out
        assert "speed_of_sound" in out

    def test_validate_rejects_a_default_section_override(self, capsys):
        rc = cli.main(["validate", "--config", str(scenario_path("hover")),
                       "--set", "DEFAULT.seed=1"])
        assert rc == 2
        assert "unknown section [DEFAULT]" in capsys.readouterr().err

    def test_validate_reports_all_violations(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text(MINIMAL + "\n[vehicle]\nmass = -3.0\nbogus = 1\n")
        rc = cli.main(["validate", "--config", str(p)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "mass" in err and "bogus" in err

    @pytest.mark.parametrize("override", ["environment.profile=earth", "vehicle.mass=25"])
    def test_validate_rejects_a_craft_that_cannot_hover(self, capsys, override):
        rc = cli.main(["validate", "--config", str(scenario_path("hover")), "--set", override])
        assert rc == 2
        assert "at or above the max rotor speed 2800 rpm" in capsys.readouterr().err

    def test_validate_rejects_nonfinite_number(self, minimal_cfg, capsys):
        rc = cli.main(["validate", "--config", str(minimal_cfg), "--set", "sim.duration=inf"])
        assert rc == 2
        assert "sim.duration must be a finite number, got 'inf'" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["validate", "run"])
    def test_negative_seed_rejected(self, tmp_path, minimal_cfg, capsys, monkeypatch, verb):
        # [sim] outdir is relative, so a run would write under tmp_path
        monkeypatch.chdir(tmp_path)
        argv = {"validate": ["validate", "--config", str(minimal_cfg), "--set", "sim.seed=-1"],
                "run": ["run", "--config", str(minimal_cfg), "--set", "sim.seed=-1"]}[verb]
        assert cli.main(argv) == 2
        assert "[sim] seed must be an integer >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("verb", ["validate", "run"])
    def test_config_that_is_not_utf8_rejected(self, tmp_path, capsys, monkeypatch, verb):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "utf16.cfg"
        path.write_text(MINIMAL, encoding="utf-16")  # starts with the bytes ff fe
        assert cli.main([verb, "--config", str(path)]) == 2
        assert f"cannot parse {path}: 'utf-8' codec can't decode" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    def test_run_missing_config_no_outputs(self, tmp_path, capsys):
        out = tmp_path / "results"
        rc = cli.main(["run", "--config", str(tmp_path / "nope.cfg"),
                       "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_run_writes_artifacts(self, tmp_path, minimal_cfg, capsys):
        out = tmp_path / "results"
        rc = cli.main(["run", "--config", str(minimal_cfg), "--out", str(out),
                       "--set", "sim.duration=0.5"])
        assert rc == 0
        base = out / "minimal" / "mpc"
        assert (base / "log.csv").is_file()
        assert (base / "metrics.json").is_file()
        assert (base / "config.ini").is_file()
        first = simulator.CSV_COLUMNS.index("omega_sq_1")
        commands = np.loadtxt(base / "log.csv", delimiter=",", skiprows=1, ndmin=2,
                              usecols=range(first, first + 8))
        u_max = load_config(minimal_cfg).veh.max_rotor_speed ** 2
        assert 0.0 <= commands.min() and commands.max() <= u_max
        metrics = json.loads((base / "metrics.json").read_text())
        assert list(metrics) == sorted(f.name for f in dataclasses.fields(simulator.Metrics))
        assert_table_shows(capsys.readouterr().out, out / "minimal", ["mpc"])

    def test_run_reports_the_diverging_step_and_command(self, tmp_path, minimal_cfg, capsys,
                                                       monkeypatch):
        calls = []

        def diverging(state, *args):
            calls.append(1)
            if len(calls) > 25:  # the sixth substep of control step 2
                raise simulator.NumericalDivergence("state magnitude exceeded 1e+06 at t=0.052")
            return state

        monkeypatch.setattr(simulator, "rk4_step", diverging)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", None)  # one file runs in-process
        out = tmp_path / "results"
        assert cli.main(["run", "--config", str(minimal_cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: minimal: mpc run diverged: state magnitude exceeded "
                            r"1e\+06 at t=0\.052 \(control step 2, state \[0(, 0){11}\], "
                            r"held command \[[^],]+(, [^],]+){7}\]\)\n", err)
        assert not out.exists()

    def test_run_reports_a_qp_failure(self, tmp_path, capsys):
        # a 5 m climb binds the input box, and one QP iteration cannot solve it
        out = tmp_path / "results"
        rc = cli.main(["run", "--config", str(scenario_path("step_xyz")), "--out", str(out),
                       "--set", "sim.controller=mpc", "--set", "trajectory.z=5.0",
                       "--set", "sim.duration=2.0", "--set", "mpc.qp_max_iter=1"])
        assert rc == 4
        assert re.fullmatch(r"error: step_xyz: QP failure during mpc run: QP did not converge "
                            r"\(residual \S+\)\n", capsys.readouterr().err)
        assert not out.exists()

    def test_run_both_prints_table(self, tmp_path, minimal_cfg, capsys):
        out = tmp_path / "results"
        rc = cli.main(["run", "--config", str(minimal_cfg), "--out", str(out),
                       "--set", "sim.controller=both", "--set", "sim.duration=0.5"])
        assert rc == 0
        assert_table_shows(capsys.readouterr().out, out / "minimal", ["mpc", "pid"])
        assert (out / "minimal" / "pid" / "log.csv").is_file()

    def test_controller_choices_are_the_settings_choices(self):
        for choice in config.CONTROLLERS:
            assert SimSettings(controller=choice).controller == choice
        with pytest.raises(ValueError, match="controller must be in"):
            SimSettings(controller="lqr")

    def test_controller_flag_is_recorded_in_snapshot(self, tmp_path):
        path = tmp_path / "either.cfg"
        path.write_text(MINIMAL.replace("controller = mpc", "controller = both"))
        out = tmp_path / "results"
        assert cli.main(["run", "--config", str(path), "--out", str(out),
                         "--set", "sim.controller=mpc", "--set", "sim.duration=0.1"]) == 0
        assert [p.name for p in (out / "either").iterdir()] == ["mpc"]
        snap = out / "either" / "mpc" / "config.ini"
        assert "controller = mpc\n" in snap.read_text()
        # the snapshot alone reproduces the run: one controller, the same log
        again = tmp_path / "again"
        assert cli.main(["run", "--config", str(snap), "--out", str(again)]) == 0
        assert [p.name for p in (again / "config").iterdir()] == ["mpc"]
        assert ((again / "config" / "mpc" / "log.csv").read_bytes()
                == (out / "either" / "mpc" / "log.csv").read_bytes())

    def test_seed_override_changes_snapshot(self, tmp_path, minimal_cfg):
        out = tmp_path / "results"
        cli.main(["run", "--config", str(minimal_cfg), "--out", str(out),
                  "--set", "sim.seed=123", "--set", "sim.duration=0.5"])
        snap = (out / "minimal" / "mpc" / "config.ini").read_text()
        assert "seed = 123" in snap

    def test_run_takes_several_configs(self, tmp_path, capsys):
        a = tmp_path / "a.cfg"
        b = tmp_path / "b.cfg"
        a.write_text(MINIMAL)
        b.write_text(MINIMAL.replace("x = 0.0", "x = 0.2"))
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", str(a), str(b), "--out", str(out),
                       "--set", "sim.duration=0.5", "--jobs", "2"])
        assert rc == 0
        assert (out / "a" / "mpc" / "log.csv").is_file()
        assert (out / "b" / "mpc" / "log.csv").is_file()
        # each scenario prints its header and table, in argument order
        printed = capsys.readouterr().out.split("scenario ")
        assert [chunk.split()[0] for chunk in printed[1:]] == ["a", "b"]
        for name, chunk in zip(["a", "b"], printed[1:]):
            assert_table_shows("scenario " + chunk, out / name, ["mpc"])

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_run_rejects_jobs_below_one(self, tmp_path, minimal_cfg, capsys, monkeypatch,
                                        jobs):
        monkeypatch.setattr(cli, "ProcessPoolExecutor", None)  # no pool may be made
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--config", str(minimal_cfg), "--jobs", jobs, "--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: marsquad run")
        assert f"argument --jobs: must be >= 1, got {jobs}" in err

    def test_run_rejects_two_configs_with_one_name(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "ProcessPoolExecutor", None)  # no pool may be made
        first, second = tmp_path / "a" / "x.cfg", tmp_path / "b" / "x.cfg"
        for path in (first, second):
            path.parent.mkdir()
            path.write_text(MINIMAL)
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", str(first), str(second), "--jobs", "1",
                       "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(first) in err and str(second) in err
        assert not out.exists()

    def test_run_rejects_an_invalid_config_in_the_list(self, tmp_path, minimal_cfg, capsys):
        # a bad file anywhere in the list stops the run before anything is written
        bad = tmp_path / "bad.cfg"
        bad.write_text(MINIMAL + "\n[vehicle]\nmass = -1\n")
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", str(minimal_cfg), str(bad), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"{bad}: invalid configuration")
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_run_runs_on_past_a_diverging_scenario(self, tmp_path, minimal_cfg, capsys,
                                                   jobs):
        # a 1e9 N push drives the state past 1e6 within the first control step
        diverging = tmp_path / "pushed.cfg"
        diverging.write_text(MINIMAL + "\n[disturbance]\npulses = 0 inf 1e9 0 0 0 0 0\n")
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", str(diverging), str(minimal_cfg), "--out", str(out),
                       "--set", "sim.controller=both", "--set", "sim.duration=0.2",
                       "--jobs", jobs])
        assert rc == 3
        captured = capsys.readouterr()
        assert re.fullmatch(r"error: pushed: mpc run diverged: state magnitude exceeded "
                            r"1e\+06 .*\n", captured.err)
        assert not (out / "pushed").exists()
        assert sorted(p.name for p in (out / "minimal").iterdir()) == ["mpc", "pid"]
        assert_table_shows(captured.out, out / "minimal", ["mpc", "pid"])

    def test_run_exits_with_the_first_failed_files_code(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "ProcessPoolExecutor", None)  # --jobs 1 runs in-process
        diverging = tmp_path / "pushed.cfg"
        diverging.write_text(MINIMAL + "\n[disturbance]\npulses = 0 inf 1e9 0 0 0 0 0\n")
        # the 5 m climb of test_run_reports_a_qp_failure
        stalling = tmp_path / "stalled.cfg"
        stalling.write_text(MINIMAL.replace("z = 0.0", "z = 5.0")
                            + "\n[mpc]\nqp_max_iter = 1\n")
        for files, code in (([diverging, stalling], 3), ([stalling, diverging], 4)):
            argv = ["run", "--config", *map(str, files), "--out", str(tmp_path / "out"),
                    "--set", "sim.duration=2.0", "--jobs", "1"]
            assert cli.main(argv) == code
