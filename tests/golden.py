"""Golden outputs of the ten shipped scenario x controller runs.

``golden_manifest.json`` holds, for each run, the sha256 of the
``log.csv``, ``metrics.json`` and ``config.ini`` it writes, and a
fingerprint: every ``metrics.json`` value, the final logged state and
every 50th log row as the 17-digit CSV line. It also names the
Python, numpy, scipy and BLAS versions it was recorded with.
``test_golden.py`` gates the fingerprint of the files the session's
shipped runs wrote; ``scripts/record_golden.py`` re-records the manifest.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import time
from pathlib import Path

import numpy as np
import scipy

from marsquad.cli import run_scenario
from marsquad.config import load_config
from marsquad.scenarios import scenario_names, scenario_path

MANIFEST = Path(__file__).resolve().parent / "golden_manifest.json"
RUNS = tuple(f"{name}/{kind}" for name in scenario_names() for kind in ("mpc", "pid"))
ARTIFACTS = ("log.csv", "metrics.json", "config.ini")
ROW_STRIDE = 50
RTOL = 1e-9
ATOL = 1e-12


def run(name: str, kind: str, outdir: Path, overrides=()):
    """One shipped scenario's ``run_scenario``: ``(cfg, log, metrics, wall seconds)``.

    The run writes its three files under ``outdir/<name>/<kind>``; the wall
    time covers the closed loop, the metrics and the writes.
    """
    cfg = load_config(scenario_path(name), overrides)
    start = time.monotonic()
    log, metrics = run_scenario(cfg, kind, outdir)
    return cfg, log, metrics, time.monotonic() - start


def record(dest: Path) -> dict:
    """Digests and fingerprint of the artifacts under ``dest``."""
    rows = (dest / "log.csv").read_text().splitlines()[1:]
    return {
        "sha256": {a: hashlib.sha256((dest / a).read_bytes()).hexdigest() for a in ARTIFACTS},
        "fingerprint": {
            "metrics": json.loads((dest / "metrics.json").read_text()),
            "final_state": _floats(rows[-1])[1:13],
            "rows": {str(k): rows[k] for k in range(0, len(rows), ROW_STRIDE)},
        },
    }


def _floats(row: str) -> list[float]:
    return [float(v) for v in row.split(",")]


def environment() -> dict:
    """The interpreter, numpy, scipy and BLAS the outputs come from."""
    def blas(lib):
        info = lib.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"

    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(np), "scipy_blas": blas(scipy)}


def flatten(fingerprint: dict) -> dict:
    """Every fingerprint value under a dotted key, e.g. ``rows.50.3``."""
    out = {f"metrics.{k}": v for k, v in fingerprint["metrics"].items()}
    out.update({f"final_state.{i}": v for i, v in enumerate(fingerprint["final_state"])})
    for k, row in fingerprint["rows"].items():
        out.update({f"rows.{k}.{i}": v for i, v in enumerate(_floats(row))})
    return out


def mismatches(got: dict, want: dict) -> list[str]:
    """Fingerprint values outside ``RTOL``/``ATOL`` of the recorded ones."""
    got, want = flatten(got), flatten(want)
    bad = [f"{k}: missing" for k in want if k not in got]
    bad += [f"{k}: not recorded" for k in got if k not in want]
    for key in want.keys() & got.keys():
        a, b = got[key], want[key]
        if not (math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL)
                or (math.isnan(a) and math.isnan(b))):
            bad.append(f"{key}: {a!r}, recorded {b!r}")
    return sorted(bad)
