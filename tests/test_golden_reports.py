"""Golden `gog` reports: every subcommand on every fixture, in text and json,
and `gog ball` in dot as well.

Each case runs `gogkit.cli.main` from the repository root on fixture paths
relative to it and records the exit code, stdout and stderr.  The goldens in
fixtures/golden/reports.json pin the byte-identical report contract; a change
to any of them must be intended and logged.  To rewrite them after such a
change, run this once from the repository root:

    PYTHONPATH=src:tests python3 -c "import json, test_golden_reports as t; \\
    t.GOLDEN.write_text(json.dumps({' '.join(c): t.run_case(c) for c in t.CASES}, \\
    indent=1, sort_keys=True) + '\\n')"
"""

import contextlib
import io
import json
import pathlib

import pytest

from gogkit.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = pathlib.Path("tests") / "fixtures"
GOLDEN = ROOT / FIXTURES / "golden" / "reports.json"


def _cases():
    graphs = sorted((ROOT / FIXTURES).glob("*.json"))
    patterns = [str(FIXTURES / p.name) for p in graphs if p.stem.startswith("pattern")]
    base = []
    for p in graphs:
        path = str(FIXTURES / p.name)
        base += [[cmd, path] for cmd in ("validate", "depth", "rafts", "check", "ball")]
        base += [["reduce", path, "--order", order] for order in ("lex", "revlex")]
        for v in json.loads(p.read_text()).get("vertices", []):
            base += [[cmd, path, "--vertex", v["id"]] for cmd in ("crossing", "invariants")]
    base += [["compare", a, b] for a in patterns for b in patterns]
    dot = [["ball", str(FIXTURES / p.name), "--format", "dot"] for p in graphs]
    return [argv + ["--format", fmt] for argv in base for fmt in ("text", "json")] + dot


CASES = _cases()


def run_case(argv):
    """Exit code, stdout and stderr of one `gog` run from the current directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert len(CASES) == 539
    assert sorted(golden) == sorted(" ".join(c) for c in CASES)


@pytest.mark.parametrize("argv", CASES, ids=lambda c: "-".join(
    pathlib.Path(x).stem for x in c if not x.startswith("-")))
def test_report_matches_golden(argv, golden, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert run_case(argv) == golden[" ".join(argv)]
