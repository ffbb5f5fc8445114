"""Shipped scenario files and helpers to enumerate them.

Each ``*.cfg`` file in this directory is a validated scenario in the format
documented in ``marsquad.config``. A file sets only what its experiment
changes from the code defaults; a run's ``config.ini`` holds every resolved
value. The files are the single source of truth for the acceptance runs;
the thresholds each run must meet live in the file's ``[acceptance]``
section.
"""

from __future__ import annotations

from pathlib import Path

__all__ = ["scenario_path", "scenario_names"]

_DIR = Path(__file__).resolve().parent


def scenario_names() -> list[str]:
    return sorted(p.stem for p in _DIR.glob("*.cfg"))


def scenario_path(name: str) -> Path:
    path = _DIR / f"{name}.cfg"
    if not path.is_file():
        raise KeyError(f"no shipped scenario named {name!r}; "
                       f"available: {', '.join(scenario_names())}")
    return path

