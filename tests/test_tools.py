import os
import subprocess
import sys
from pathlib import Path

import pytest

DIGESTS = Path(__file__).resolve().parents[1] / "tools" / "artifact_digests.py"


def test_artifact_digests_exits_at_once_without_the_package(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    probe = subprocess.run([sys.executable, "-c", "import dotgates"], env=env, cwd=tmp_path,
                           capture_output=True)
    if probe.returncode == 0:
        pytest.skip("dotgates imports without PYTHONPATH, as an installed package")
    proc = subprocess.run([sys.executable, str(DIGESTS)], env={**env, "PYTHONPATH": ""},
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "cannot import dotgates.cli: run with PYTHONPATH=<checkout>/src"]
