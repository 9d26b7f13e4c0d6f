"""Each demo runs to completion and prints its headline result."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name,headline", [
    ("precision_scaling.py", r"^scs: slope -0\.5000 .*\n^ghz: slope -1\.0000 "),
    ("pulse_robustness.py", r"^  alternating beats identical in 20/20 "),
    ("field_recovery.py", r"^ghz: peaks .*\n^ +recovered \("),
])
def test_demo_prints_its_headline(name, headline):
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 0, done.stderr
    assert re.search(headline, done.stdout, re.MULTILINE), done.stdout
