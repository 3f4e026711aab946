"""The scripts under scripts/ run to completion on the bundled fixtures."""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


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
     "sizes 256: sha256 862723c227013974cdef854d362a24f6b0995c6ace3f4ea145e884645728c99d"),
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


def test_e_ladder_best_run_is_the_least_raw_time():
    """`best_run` returns the least raw `perf_counter` interval over its runs,
    in seconds, with no host-speed rescale."""
    code = "\n".join([
        f"import sys, types; sys.path.insert(0, {str(SCRIPTS)!r}); import e_ladder",
        "ticks = iter([0.0, 3.0, 10.0, 12.0, 20.0, 25.0])",
        "e_ladder.time = types.SimpleNamespace(perf_counter=lambda: next(ticks))",
        "best, code, _ = e_ladder.best_run(['validate', 'tests/fixtures/arc3.json'], 3)",
        "print(best, code, hasattr(e_ladder, 'HostSpeed'))",
    ])
    done = subprocess.run([sys.executable, "-B", "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["2.0", "0", "False"]


def test_ab_pairs_runs_a_commit_against_itself():
    """One pair of one-second runs of HEAD against HEAD: a summary line per
    end-to-end metric, and nothing left behind in the repository."""
    if not (ROOT / ".git").exists():
        pytest.skip("needs a git checkout to archive commits from")
    before = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "--ignored"],
                            capture_output=True, text=True, check=True).stdout
    done = subprocess.run([sys.executable, str(SCRIPTS / "ab_pairs.py"), "HEAD", "HEAD",
                           "--workload", "ball-compare", "--seed", "1", "--pairs", "1",
                           "--seconds", "1"], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("pair 1 parent: failed/attempted ")
    assert lines[1].startswith("pair 1 change: failed/attempted ")
    assert [line.split()[0] for line in lines[3:]] == [
        "setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb", "scaling_exp"]
    assert all("change wins " in line for line in lines[3:])
    assert subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "--ignored"],
                          capture_output=True, text=True, check=True).stdout == before
