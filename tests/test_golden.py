"""The golden CLI outputs are byte for byte those recorded in
``scripts/golden.sha256``.

``scripts/golden.py`` writes the golden set (reports, CV tables, models,
predictions and ``distreg mmd`` stdout) into a temporary directory and prints
one SHA-256 line per file, after a first line naming what the bytes also
depend on: the numpy and scipy versions, numpy's BLAS, the LAPACK that the
ridge solves call and the SIMD target of numpy's ``exp``. It runs in the
environment a user's ``distreg`` would, with ``DISTREG_THREADS`` unset and
any ``*_NUM_THREADS`` left as they are: the bytes do not depend on either.
Where the first line differs from the recorded one, the comparison says
nothing about the code, so the test skips and names the fields that differ.
A deliberate change of outputs is re-recorded as described in
``scripts/golden.py``.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDED = ROOT / "scripts" / "golden.sha256"
FINGERPRINT = re.compile(
    r"# numpy (?P<numpy>\S+) scipy (?P<scipy>\S+) "
    r"BLAS (?P<BLAS>.+) LAPACK (?P<LAPACK>.+) exp (?P<exp>\S+)"
)


def _fields(line: str) -> dict[str, str]:
    match = FINGERPRINT.fullmatch(line)
    return match.groupdict() if match else {"first line": line}


def test_golden_outputs_unchanged(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "DISTREG_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "golden.py"), str(tmp_path)],
        capture_output=True, text=True, env=env, check=False,
    )
    assert run.returncode == 0, run.stderr
    want = RECORDED.read_text(encoding="utf-8").splitlines()
    got = run.stdout.splitlines()
    if got[0] != want[0]:
        recorded, here = _fields(want[0]), _fields(got[0])
        differ = [
            f"{name} {recorded.get(name)!r} recorded, {here.get(name)!r} here"
            for name in dict.fromkeys([*recorded, *here])
            if recorded.get(name) != here.get(name)
        ]
        pytest.skip("golden set recorded under another setup: " + "; ".join(differ))
    digests = {path: digest for digest, path in (line.split("  ", 1) for line in want[1:])}
    fresh = {path: digest for digest, path in (line.split("  ", 1) for line in got[1:])}
    changed = sorted(p for p in digests.keys() | fresh.keys() if digests.get(p) != fresh.get(p))
    assert not changed, f"{len(changed)} golden files changed: {changed}"
