#!/usr/bin/env python3
"""Compare two run logs (``log.csv``), or two run directories, column by column.

Two files: the first line says whether they are byte-identical
(``byte-identical: yes|no``). Then, for every column, it prints the worst
relative difference ``|a - b| / max(1, |a|)`` over all rows, and the
number of rows whose ``qp_iters`` differ. Exits 1 if the headers or the
row counts differ.

Two directories: every ``<scenario>/<controller>/log.csv`` under the first
is compared as above with the file at the same path under the second, and
each run also reports whether its ``metrics.json`` and ``config.ini`` are
byte-identical. Exits 1 if the directories do not hold the same runs (or
hold none), or if any pair of logs cannot be compared.

    python scripts/compare_logs.py A/log.csv B/log.csv
    python scripts/compare_logs.py results_before results_after
"""

import argparse
import sys
from pathlib import Path

import numpy as np


def read_log(path):
    """Header names and the (rows, columns) float array of a log.csv."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def same_bytes(a: Path, b: Path) -> str:
    """``yes`` if both files exist and hold the same bytes, else ``no``."""
    same = a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()
    return "yes" if same else "no"


def compare_logs(a: Path, b: Path) -> int:
    """Print the report for two log.csv files; 1 if they cannot be compared."""
    print(f"byte-identical: {same_bytes(a, b)}")
    head_a, data_a = read_log(a)
    head_b, data_b = read_log(b)
    if head_a != head_b:
        print("headers differ", file=sys.stderr)
        return 1
    if data_a.shape != data_b.shape:
        print(f"row counts differ: {data_a.shape[0]} vs {data_b.shape[0]}", file=sys.stderr)
        return 1

    rel = np.abs(data_a - data_b) / np.maximum(1.0, np.abs(data_a))
    worst = rel.max(axis=0) if len(rel) else np.zeros(len(head_a))
    for name, value in zip(head_a, worst):
        print(f"{name:<16} {value:.3e}")
    col = head_a.index("qp_iters")
    print(f"qp_iters mismatches: {int(np.sum(data_a[:, col] != data_b[:, col]))}")
    return 0


def compare_dirs(a: Path, b: Path) -> int:
    """Compare every run under ``a`` with the run at the same path under ``b``."""
    runs_a = {p.parent.relative_to(a) for p in a.glob("*/*/log.csv")}
    runs_b = {p.parent.relative_to(b) for p in b.glob("*/*/log.csv")}
    if runs_a != runs_b or not runs_a:
        for root, only in ((a, runs_a - runs_b), (b, runs_b - runs_a)):
            for run in sorted(only):
                print(f"only under {root}: {run.as_posix()}", file=sys.stderr)
        if not runs_a:
            print(f"no <scenario>/<controller>/log.csv under {a}", file=sys.stderr)
        return 1

    status = 0
    for run in sorted(runs_a):
        print(f"== {run.as_posix()}")
        status |= compare_logs(a / run / "log.csv", b / run / "log.csv")
        for name in ("metrics.json", "config.ini"):
            print(f"{name} byte-identical: {same_bytes(a / run / name, b / run / name)}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="reference log.csv or run directory")
    parser.add_argument("b", type=Path, help="log.csv or run directory to compare with it")
    args = parser.parse_args(argv)

    if args.a.is_dir() and args.b.is_dir():
        return compare_dirs(args.a, args.b)
    if args.a.is_dir() or args.b.is_dir():
        parser.error("give two log files or two run directories")
    return compare_logs(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
