#!/usr/bin/env python3
"""Compare two run logs (``log.csv``) column by column.

The first line says whether the two files are byte-identical
(``byte-identical: yes|no``). Then, for every column, it prints the worst
relative difference ``|a - b| / max(1, |a|)`` over all rows, and the
number of rows whose ``qp_iters`` differ. Exits 1 if the headers or the
row counts differ.

    python scripts/compare_logs.py A/log.csv B/log.csv
"""

import argparse
import sys

import numpy as np


def read_log(path):
    """Header names and the (rows, columns) float array of a log.csv."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="reference log.csv")
    parser.add_argument("b", help="log.csv to compare with it")
    args = parser.parse_args(argv)

    with open(args.a, "rb") as fa, open(args.b, "rb") as fb:
        identical = fa.read() == fb.read()
    print(f"byte-identical: {'yes' if identical else 'no'}")
    head_a, a = read_log(args.a)
    head_b, b = read_log(args.b)
    if head_a != head_b:
        print("headers differ", file=sys.stderr)
        return 1
    if a.shape != b.shape:
        print(f"row counts differ: {a.shape[0]} vs {b.shape[0]}", file=sys.stderr)
        return 1

    rel = np.abs(a - b) / np.maximum(1.0, np.abs(a))
    worst = rel.max(axis=0) if len(rel) else np.zeros(len(head_a))
    for name, value in zip(head_a, worst):
        print(f"{name:<16} {value:.3e}")
    col = head_a.index("qp_iters")
    print(f"qp_iters mismatches: {int(np.sum(a[:, col] != b[:, col]))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
