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


@pytest.mark.parametrize("argv, last", [
    (["e_ladder.py", "--sizes", "256", "--runs", "1"],
     "sizes 256: sha256 6ca92bb8c7d62fe044ca4072774c19fead682742f3a51784d1a8a36f6cfb8948"),
    (["op_digests.py", "reduce-churn", "--seeds", "1", "--rounds", "1"],
     "reduce-churn seeds 1 rounds 1: 12 ops, "
     "sha256 fcd59c9279ee72d29be72c65eaec3285ac0ea0f13dba3e039c1a9acada5f22bd"),
])
def test_report_digests_past_fixture_size(argv, last):
    """Every report these print, at sizes past the fixtures', is pinned by
    its digest line."""
    done = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == last
