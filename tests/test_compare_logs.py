"""``scripts/compare_logs.py``, whose report every golden re-record quotes."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from marsquad.simulator import SimLog, write_csv

_SPEC = importlib.util.spec_from_file_location(
    "compare_logs", Path(__file__).resolve().parents[1] / "scripts" / "compare_logs.py")
compare_logs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_logs)


def write_run(root: Path, run: str = "hover/mpc") -> Path:
    """A run directory with a 4-row log, a metrics file and a config snapshot."""
    rng = np.random.default_rng(0)
    n = 4
    log = SimLog(t=0.02 * np.arange(n), states=rng.normal(size=(n, 12)),
                 commands=rng.uniform(0.0, 1e5, (n, 8)), refs=rng.normal(size=(n, 4)),
                 wrenches=rng.normal(size=(n, 5)), qp_iters=np.arange(n) % 3)
    dest = root / run
    dest.mkdir(parents=True)
    write_csv(log, dest / "log.csv")
    (dest / "metrics.json").write_text('{"rms_position_error": 0.1}\n')
    (dest / "config.ini").write_text("[sim]\nseed = 0\n")
    return dest


def edit_lines(path: Path, edit) -> None:
    """Replace the file's lines with ``edit(lines)``."""
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")


def compare(a: Path, b: Path) -> int:
    return compare_logs.main([str(a), str(b)])


class TestLogs:
    def test_identical_logs(self, tmp_path, capsys):
        a, b = write_run(tmp_path / "a"), write_run(tmp_path / "b")
        assert compare(a / "log.csv", b / "log.csv") == 0
        out = capsys.readouterr().out
        assert out.startswith("byte-identical: yes\n")
        assert "qp_iters mismatches: 0\n" in out
        assert "x                0.000e+00\n" in out

    def test_one_changed_qp_iters_cell(self, tmp_path, capsys):
        a, b = write_run(tmp_path / "a"), write_run(tmp_path / "b")

        def bump_last_cell(lines):
            head, iters = lines[2].rsplit(",", 1)
            return lines[:2] + [f"{head},{int(iters) + 1}"] + lines[3:]

        edit_lines(b / "log.csv", bump_last_cell)
        assert compare(a / "log.csv", b / "log.csv") == 0
        out = capsys.readouterr().out
        assert out.startswith("byte-identical: no\n")
        assert "qp_iters mismatches: 1\n" in out

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: [lines[0].replace(",x,", ",x_pos,")] + lines[1:], "headers differ"),
        (lambda lines: lines[:-1], "row counts differ: 4 vs 3"),
    ], ids=["header", "rows"])
    def test_logs_that_cannot_be_compared(self, tmp_path, capsys, edit, message):
        a, b = write_run(tmp_path / "a"), write_run(tmp_path / "b")
        edit_lines(b / "log.csv", edit)
        assert compare(a / "log.csv", b / "log.csv") == 1
        assert message in capsys.readouterr().err


class TestDirectories:
    def test_reports_every_run_and_its_other_files(self, tmp_path, capsys):
        for root in (tmp_path / "a", tmp_path / "b"):
            for run in ("hover/mpc", "hover/pid"):
                write_run(root, run)
        (tmp_path / "b" / "hover" / "pid" / "config.ini").write_text("[sim]\nseed = 1\n")
        assert compare(tmp_path / "a", tmp_path / "b") == 0
        out = capsys.readouterr().out
        mpc, pid = out.split("== hover/pid\n")
        assert mpc.startswith("== hover/mpc\nbyte-identical: yes\n")
        assert "metrics.json byte-identical: yes\nconfig.ini byte-identical: yes\n" in mpc
        assert "metrics.json byte-identical: yes\nconfig.ini byte-identical: no\n" in pid

    def test_different_run_sets(self, tmp_path, capsys):
        write_run(tmp_path / "a", "hover/mpc")
        write_run(tmp_path / "b", "hover/mpc")
        write_run(tmp_path / "b", "hover/pid")
        assert compare(tmp_path / "a", tmp_path / "b") == 1
        assert f"only under {tmp_path / 'b'}: hover/pid" in capsys.readouterr().err

    def test_no_runs(self, tmp_path, capsys):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        assert compare(tmp_path / "a", tmp_path / "b") == 1
        assert "no <scenario>/<controller>/log.csv" in capsys.readouterr().err
