"""Golden-output gate: the ten shipped runs against ``golden_manifest.json``.

It reads the files each shipped run wrote (``shipped_run`` in
``conftest.py``) and prints one line per run (``pytest -s``) saying
whether each of its three digests matches the manifest, so a run that
stayed byte-identical shows three matches. Digests are reported, not
gated: a change of rounding moves them. The fingerprint is gated, every
value within 1e-9 relative (1e-12 absolute) of the recorded one.
``scripts/record_golden.py`` re-records the manifest.
"""

import json

import pytest

import golden

MANIFEST = json.loads(golden.MANIFEST.read_text())


@pytest.mark.parametrize("run", golden.RUNS)
def test_golden_output(shipped_run, shipped_dir, run):
    want = MANIFEST["runs"].get(run)
    assert want is not None, f"{run} is not in {golden.MANIFEST.name}"
    shipped_run(*run.split("/"))
    got = golden.record(shipped_dir / run)
    digests = ", ".join(f"{a} {'match' if got['sha256'][a] == want['sha256'][a] else 'moved'}"
                        for a in golden.ARTIFACTS)
    bad = golden.mismatches(got["fingerprint"], want["fingerprint"])
    env = golden.environment()
    note = "" if env == MANIFEST["environment"] else f" (recorded with {MANIFEST['environment']})"
    print(f"\n[golden] {run}: digests {digests}; fingerprint "
          f"{f'{len(bad)} values off' if bad else 'holds'} at rel {golden.RTOL:g}{note}")
    assert not bad, f"{run}: " + "; ".join(bad[:10])
