"""The scripts under scripts/ run to completion on the bundled fixtures."""

import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("argv", [
    ["run_fixtures.py"],
    ["slope_census.py", "40", "1"],
    ["op_digests.py", "ball-compare", "--seeds", "1", "--rounds", "1"],
    ["cold_start.py", "--runs", "2"],
    ["e_ladder.py", "--sizes", "16,32", "--runs", "1"],
])
def test_script_runs(argv):
    done = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
