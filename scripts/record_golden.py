#!/usr/bin/env python3
"""Re-record the golden outputs of the ten shipped scenario x controller runs.

Runs every shipped scenario with both controllers and writes
``tests/golden_manifest.json``: per run, the sha256 of ``log.csv``,
``metrics.json`` and ``config.ini`` and the fingerprint that
``tests/test_golden.py`` gates (see ``tests/golden.py``), plus the
Python, numpy, scipy and BLAS versions. ``--out DIR`` keeps the run
directories, laid out as ``marsquad run`` lays them out, for
``scripts/compare_logs.py``.

Re-record only in a change that moves the controller's outputs on
purpose, and put ``compare_logs.py``'s report of the old and new runs in
CHANGES.md with it.

    PYTHONPATH=src python scripts/record_golden.py [--out DIR]
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import golden  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="also keep the run directories here")
    args = parser.parse_args()

    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        outdir = args.out or Path(tmp)
        for run in golden.RUNS:
            _, log, _, _ = golden.run(*run.split("/"), outdir)
            runs[run] = golden.record(outdir / run)
            print(f"{run}: {len(log)} steps")
    manifest = {"environment": golden.environment(), "runs": runs}
    golden.MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {golden.MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
