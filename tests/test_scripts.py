"""The scripts under scripts/, run as a user runs them: a subprocess with
the package on PYTHONPATH."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize(
    "name, args, digest",
    [
        (
            "padic_sweep.py",
            ["--p", "3", "--k", "2", "--trials", "100"],
            "a13592bf06b4396f9bf0ff95a66fce3485753d75895609a13977adaff39d1529",
        ),
        (
            "scan_invertible_case.py",
            ["--trials", "300", "--support-cap", "2", "--denominator-cap", "4"],
            "1bd27e90665f3fdda5db5063ffbd81c2488dd017cae38b7be4145dd3acc0d9b2",
        ),
        (
            "census.py",
            ["--max-order", "6"],
            "493102d330648cabee291a18afbd6e6786176ef1b36eddbc4b13600e296c3cda",
        ),
    ],
)
def test_script_output_pinned(name, args, digest):
    done = run_script(name, *args)
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == digest


def test_chain_residuals_report_lines():
    """Two instances, each with a header, two JSON chain reports and the
    third-difference line; the floats depend on libm, so only the
    structure and the symmetric instance's zero residuals are checked."""
    done = run_script("chain_residuals.py")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 8
    headers = lines[0::4]
    assert headers[0].startswith("--- iid pair") and "(symmetric=True)" in headers[0]
    assert headers[1].startswith("--- non-symmetric") and "(symmetric=False)" in headers[1]
    for i, header in enumerate(headers):
        block = lines[4 * i + 1 : 4 * i + 4]
        reports = []
        for line, label in zip(block, ("symmetry chain: ", "independence chain: ")):
            assert line.startswith(label)
            reports.append(json.loads(line[len(label):]))
        assert [sorted(r) for r in reports] == [
            ["max_residual", "quadratic", "worst_increments"]
        ] * 2
        assert re.fullmatch(r"max \|D_h\^3 P\| over all h: \d+\.\d{6}", block[2])
        if i == 0:
            assert [r["max_residual"] for r in reports] == [0.0, 0.0]
        else:
            assert min(r["max_residual"] for r in reports) > 1e-3
