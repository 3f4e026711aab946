"""Exit-code contract and deterministic report emission."""

import argparse
import copy
import json
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

from gogkit import dump_graph, load_graph
from gogkit.cli import build_parser, main

from conftest import (CLASS_STALL, FIXTURES, NO_RAFT_TABLE, RANK0_PROBE, _mixed_rank_graph,
                      _star_graph, fixture_path, graph_fixture_paths)

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
CI_SMOKE = json.loads((ROOT / "tests" / "ci_smoke.json").read_text())


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_clean(capsys):
    code, out, _ = run(capsys, "validate", fixture_path("arc3"))
    assert code == 0
    assert "ok" in out


def test_validate_violations_exit_one(capsys):
    code, out, _ = run(capsys, "validate", fixture_path("invalid_rank_deficient"))
    assert code == 1
    assert "non-injective" in out


def test_missing_file_exit_two(capsys):
    code, _, err = run(capsys, "validate", "no_such_file.json")
    assert code == 2
    assert "no_such_file" in err


def test_garbled_file_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    code, _, err = run(capsys, "validate", bad)
    assert code == 2
    assert "line 1" in err


@pytest.mark.parametrize("argv", [("validate", "{deep}"), ("depth", "{deep}"),
                                  ("compare", "{deep}", "{good}"), ("compare", "{good}", "{deep}")],
                         ids=["validate", "depth", "compare-first", "compare-second"])
def test_deeply_nested_json_exits_two(capsys, tmp_path, argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    files = {"deep": deep, "good": fixture_path("f2xz")}
    vertices = ("--vertex-a", "v", "--vertex-b", "v") if argv[0] == "compare" else ()
    code, out, err = run(capsys, *[a.format(**files) for a in argv], *vertices)
    assert (code, out, err) == (2, "", f"{deep}: JSON nested too deeply\n")


@pytest.mark.parametrize("body,needle", [
    (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff"),
    (b'{"oracle": ' + b"7" * 4301 + b"}", "Exceeds the limit (4300"),
], ids=["not-utf8", "long-integer"])
@pytest.mark.parametrize("argv", [("validate", "{bad}"), ("depth", "{bad}"),
                                  ("compare", "{bad}", "{good}"), ("compare", "{good}", "{bad}")],
                         ids=["validate", "depth", "compare-first", "compare-second"])
def test_undecodable_json_exits_two(capsys, tmp_path, argv, body, needle):
    bad = tmp_path / "bad.json"
    bad.write_bytes(body)
    files = {"bad": bad, "good": fixture_path("f2xz")}
    vertices = ("--vertex-a", "v", "--vertex-b", "v") if argv[0] == "compare" else ()
    code, out, err = run(capsys, *[a.format(**files) for a in argv], *vertices)
    assert (code, out) == (2, "")
    assert err.startswith(f"{bad}: ") and needle in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_depth_report_and_exit(capsys):
    code, out, _ = run(capsys, "depth", fixture_path("arc3"))
    assert code == 0
    assert "verdict: Finite(2)" in out
    assert "depth f: 2" in out


def test_depth_infinite_exit_three(capsys):
    code, out, _ = run(capsys, "depth", fixture_path("nonex"))
    assert code == 3
    assert "verdict: Infinite" in out
    assert "(strict)" in out


def test_depth_unknown_exit_four(capsys):
    code, out, _ = run(capsys, "depth", fixture_path("shear_unknown"))
    assert code == 4
    assert "verdict: Unknown(4)" in out


def test_depth_rejects_reducible(capsys):
    code, _, err = run(capsys, "depth", fixture_path("heis"))
    assert code == 2
    assert "reducible" in err


def test_check_pass_and_fail(capsys):
    assert run(capsys, "check", fixture_path("thm14"))[0] == 0
    code, out, _ = run(capsys, "check", fixture_path("f2xz"))
    assert code == 1
    assert "(4)" in out and "FAIL" in out


def test_crossing_walks_no_transport(capsys, monkeypatch):
    """`gog crossing` reads only the depth-zero rafts, which need no `explore`."""
    from gogkit import depth, reduce

    calls = []
    for module in (depth, reduce):
        monkeypatch.setattr(module, "explore", lambda *a, **kw: calls.append(a) or None)
    runs = 0
    for path in sorted(FIXTURES.glob("*.json")):
        doc = json.loads(path.read_text())
        for vertex in doc.get("vertices", ()) if isinstance(doc, dict) else ():
            run(capsys, "crossing", path, "--vertex", vertex["id"])
            runs += 1
    assert runs > 10 and calls == []


@pytest.mark.parametrize("vertex,code,needle", [("v2", 1, "disconnected"),
                                                ("v0", 2, "not a one-vertex depth-zero raft")])
def test_crossing_skips_a_stalling_filtration(tmp_path, vertex, code, needle):
    """The depth filtration of CLASS_STALL walks for seconds; crossing needs none of it."""
    path = tmp_path / "stall.json"
    path.write_text(json.dumps(CLASS_STALL))
    done = subprocess.run([sys.executable, "-m", "gogkit.cli", "crossing", str(path),
                           "--vertex", vertex], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == code
    assert needle in (done.stdout if code == 1 else done.stderr)


@pytest.mark.parametrize("command", ["depth", "check", "ball"])
def test_class_stall_finishes_at_the_default_horizon(tmp_path, command):
    """On CLASS_STALL two flotilla walks stop at MAX_STATES and no level may make
    more than MAX_COMPARISONS class comparisons, so every command that runs the
    filtration finishes: `depth` says Unknown, the others stay in the contract."""
    path = tmp_path / "stall.json"
    path.write_text(json.dumps(CLASS_STALL))
    done = subprocess.run([sys.executable, "-m", "gogkit.cli", command, str(path)],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    if command == "depth":
        assert done.returncode == 4
        assert done.stdout.startswith("verdict: Unknown(10)\n")
    assert done.returncode in _readme_exit_codes() - {6}, done.stderr
    assert "Traceback" not in done.stderr


def test_crossing_exit_codes(capsys):
    assert run(capsys, "crossing", fixture_path("thm14"), "--vertex", "a")[0] == 0
    assert run(capsys, "crossing", fixture_path("f2xz"), "--vertex", "v")[0] == 1
    assert run(capsys, "crossing", fixture_path("heis"), "--vertex", "v")[0] == 5
    assert run(capsys, "crossing", fixture_path("z2hnn"), "--vertex", "v")[0] == 2


def test_rafts_report(capsys):
    code, out, _ = run(capsys, "rafts", fixture_path("z2hnn"))
    assert code == 0
    assert "line" in out


def test_rafts_report_without_rafts(capsys, tmp_path):
    path = tmp_path / "no_raft.json"
    path.write_text(json.dumps(NO_RAFT_TABLE))
    code, out, _ = run(capsys, "rafts", path)
    assert code == 0
    assert out.splitlines()[0] == "no depth-0 rafts"


def test_reduce_writes_graph(capsys, tmp_path):
    out_path = tmp_path / "reduced.json"
    code, out, _ = run(capsys, "reduce", fixture_path("heis"),
                       "--order", "revlex", "-o", out_path)
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert len(doc["edges"]) == 1 and len(doc["vertices"]) == 1


def test_reduce_horizon_bounds_class_walks(capsys, tmp_path):
    # f0 and f2 carry the line <(1,0)> two edges apart, through no other base
    # placement, so one round of transport cannot join their classes
    diag = [[2, 0], [0, 1]]
    line = [[1], [0]]
    doc = {"oracle": "abelian",
           "vertices": [{"id": v, "rank": 2} for v in ("v0", "v1", "v2")],
           "edges": [{"id": eid, "rank": r, "ends": [{"vertex": a, "matrix": m},
                                                     {"vertex": b, "matrix": m}]}
                     for eid, r, a, b, m in (("e1", 2, "v0", "v1", diag),
                                             ("e2", 2, "v1", "v2", diag),
                                             ("f0", 1, "v0", "v0", line),
                                             ("f2", 1, "v2", "v2", line))]}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    classes = {h: json.loads(run(capsys, "reduce", path, "--format", "json", *h)[1])["classes"]
               for h in ((), ("--horizon", "1"), ("--horizon", "2"))}
    assert classes[()] == classes[("--horizon", "2")] == [["rank", "1"], ["rank", "2"]]
    assert classes[("--horizon", "1")] == [["rank", "1"], ["rank", "1"], ["rank", "2"]]


def test_invariants_report(capsys):
    code, out, _ = run(capsys, "invariants", fixture_path("thm14"), "--vertex", "a")
    assert code == 0
    assert "rigidity: inconclusive" in out
    code, out, _ = run(capsys, "invariants", fixture_path("heis"), "--vertex", "v")
    assert code == 5


def test_invariants_report_prints_slope_invariant(capsys, tmp_path):
    # four lines of slopes 0, oo, 1 and 2 at the rank-2 vertex v
    doc = {"oracle": "abelian",
           "vertices": [{"id": "v", "rank": 2}, {"id": "w", "rank": 1}],
           "edges": [{"id": f"e{k}", "rank": 1,
                      "ends": [{"vertex": "v", "matrix": m}, {"vertex": "w", "matrix": [[1]]}]}
                     for k, m in enumerate(([[1], [0]], [[0], [1]], [[1], [1]], [[1], [2]]))]}
    path = tmp_path / "slopes.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "invariants", path, "--vertex", "v")
    assert code == 0
    assert "slope invariant: {-1, 0, 1, oo}\n" in out


def test_compare_pattern_files(capsys):
    same = run(capsys, "compare", fixture_path("pattern_0inf12"),
               fixture_path("pattern_0inf12_shifted"))
    assert same[0] == 0
    assert "equivalent: yes" in same[1]
    diff = run(capsys, "compare", fixture_path("pattern_0inf12"),
               fixture_path("pattern_0inf13"))
    assert diff[0] == 1


@pytest.mark.parametrize("doc", [
    {"pattern": {"ambient_dim": 6, "subspaces": [[[1, 2, 0, 0, 0, 3]]]}},   # k = 31
    {"pattern": {"ambient_dim": 7, "subspaces": []}},                        # k = 49
], ids=["line-q6", "empty-q7"])
def test_compare_sparse_pattern_in_high_dimension(capsys, tmp_path, doc):
    """The prime probe decides at once; the C(n+k-1, n) lattice points behind it are never built."""
    p = tmp_path / "p.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, "compare", p, p)
    assert (code, err) == (0, "")
    assert out.startswith("equivalent: yes\nwitness: ")


def test_compare_empty_patterns_in_q100_prints_the_identity(capsys, tmp_path):
    p = tmp_path / "p.json"
    p.write_text(json.dumps({"pattern": {"ambient_dim": 100, "subspaces": []}}))
    code, out, err = run(capsys, "compare", p, p)
    rows = [" ".join("1" if j == i else "0" for j in range(100)) for i in range(100)]
    assert (code, out, err) == (0, "equivalent: yes\nwitness: " + "; ".join(rows) + "\n", "")


@pytest.mark.parametrize("doc", [
    {"pattern": {"ambient_dim": 2, "subspaces": [[[1, 0], [0, 1]]]}},   # full-rank member
    {"pattern": {"ambient_dim": 2, "subspaces": [[]]}},                 # empty member
    {"pattern": {"ambient_dim": 2, "subspaces": [[[1, 0, 0]]]}},        # row of length 3
    {"pattern": [1]},                                                   # not an object
    {"pattern": {"ambient_dim": 0, "subspaces": []}},                   # no ambient space
    {"pattern": {"ambient_dim": 2, "subspaces": [[[1.5, 0]]]}},         # float entry
    {"pattern": {"ambient_dim": 2, "subspaces": [[[1], [0, 1]]]}},      # ragged member
    {"pattern": {"ambient_dim": 2, "subspaces": [[1, 0]]}},             # member not rows
    {"pattern": {"ambient_dim": 2, "subspaces": {}}},                   # not a list
], ids=["full-rank", "empty", "row-length", "not-object", "zero-dim", "float", "ragged",
        "flat-member", "subspaces-object"])
def test_compare_malformed_pattern_exit_two(capsys, tmp_path, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "compare", bad, fixture_path("pattern_0inf12"))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith(f"{bad}: ") and err.count("\n") == 1


@pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
def test_compare_names_the_graph_file_that_fails_to_load(capsys, tmp_path, first):
    doc = json.loads(fixture_path("f2xz").read_text())
    doc["edges"][0]["id"] = 5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    files = [bad, fixture_path("f2xz")] if first else [fixture_path("f2xz"), bad]
    code, out, err = run(capsys, "compare", *files, "--vertex-a", "v", "--vertex-b", "v")
    assert (code, out, err) == (2, "", f"{bad}: edges[0].id: expected a string, got 5\n")
    doc["edges"][0]["id"] = "v"     # loads, then fails validation
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "compare", *files, "--vertex-a", "v", "--vertex-b", "v")
    assert (code, out) == (2, "") and err.startswith(f"{bad}: invalid graph:\n")


def test_compare_graph_vertices(capsys):
    code, out, _ = run(capsys, "compare", fixture_path("f2xz"), fixture_path("f2xz"),
                       "--vertex-a", "v", "--vertex-b", "v")
    assert code == 0


def test_compare_misuse_exits_two(capsys):
    pattern = fixture_path("pattern_0inf12")
    code, out, err = run(capsys, "compare", pattern, pattern, "--vertex-a", "v")
    assert (code, out) == (2, "")
    assert "is a pattern file; --vertex does not apply" in err
    code, out, err = run(capsys, "compare", fixture_path("f2xz"), fixture_path("f2xz"))
    assert (code, out) == (2, "")
    assert "is a graph file; --vertex-a/--vertex-b required" in err


def test_compare_decodes_each_graph_file_once(capsys, monkeypatch):
    decoded = []
    load = json.load
    monkeypatch.setattr(json, "load", lambda fh: decoded.append(fh.name) or load(fh))
    code, _, _ = run(capsys, "compare", fixture_path("f2xz"), fixture_path("f2xz"),
                     "--vertex-a", "v", "--vertex-b", "v")
    assert code == 0
    assert decoded == [str(fixture_path("f2xz"))] * 2


def test_key_error_inside_an_analysis_is_not_an_input_error(capsys, monkeypatch):
    import gogkit.cli as cli_mod

    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(cli_mod, "depth_filtration", broken)
    code, out, err = run(capsys, "depth", fixture_path("arc3"))
    assert (code, out, err) == (6, "", "internal error: KeyError('internal')\n")


def test_compare_rank_zero_vertex_with_itself(capsys, tmp_path):
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"oracle": "abelian", "vertices": [{"id": "v", "rank": 0}],
                                 "edges": []}))
    code, out, _ = run(capsys, "compare", point, point, "--vertex-a", "v", "--vertex-b", "v")
    assert code == 0
    assert out.startswith("equivalent: yes\n")


def test_ball_report_and_dot(capsys):
    code, out, _ = run(capsys, "ball", fixture_path("z2hnn"), "--radius", "3")
    assert code == 0
    assert "7 nodes" in out
    code, out, _ = run(capsys, "ball", fixture_path("z2hnn"), "--radius", "3", "--format", "dot")
    assert code == 0
    assert out.startswith("graph {")
    assert run(capsys, "ball", fixture_path("heis"))[0] == 5


def test_ball_non_monotone_labels_exit_one(capsys, tmp_path):
    probe = tmp_path / "probe.json"
    probe.write_text(json.dumps(RANK0_PROBE))
    code, _, err = run(capsys, "ball", probe, "--vertex", "v0")
    assert code == 1
    assert err == "depth labels not monotone: e0 (depth 1) sits strictly inside e2 (depth 1)\n"
    assert "Traceback" not in err


DOT_QUOTED = r'"(?:[^"\\]|\\.)*"'
DOT_NODE = re.compile(rf"  ({DOT_QUOTED}) \[label=({DOT_QUOTED})(, truncated=true)?\];")
DOT_EDGE = re.compile(rf"  ({DOT_QUOTED}) -- ({DOT_QUOTED}) \[label=({DOT_QUOTED})\];")


def test_ball_dot_escapes_quotes_and_backslashes(capsys, tmp_path):
    doc = {"oracle": "abelian", "vertices": [{"id": 'v"x', "rank": 1}],
           "edges": [{"id": 't\\"', "rank": 1, "ends": [{"vertex": 'v"x', "matrix": [[1]]},
                                                       {"vertex": 'v"x', "matrix": [[2]]}]}]}
    path = tmp_path / "quotes.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "ball", path, "--radius", "2", "--format", "dot")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "graph {" and lines[-1] == "}"
    names, labels = [], []
    for line in lines[1:-1]:
        node, edge = DOT_NODE.fullmatch(line), DOT_EDGE.fullmatch(line)
        assert node or edge, line
        if node:
            names.append(node[1])
            labels.append(node[2])
        else:
            labels.append(edge[3])
    assert len(names) == len(set(names)) > 1
    assert _dot_unquote(names[0]) == 'root:v"x'
    assert {_dot_unquote(lab) for lab in labels} == {'v"x d0', 't\\" d0'}


def _dot_unquote(token):
    return re.sub(r"\\(.)", r"\1", token[1:-1])


def test_json_format(capsys):
    code, out, _ = run(capsys, "depth", fixture_path("arc3"), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == {"kind": "finite", "depth": 2, "rendered": "Finite(2)"}
    assert doc["depth"]["f"] == 2
    assert "seed" not in doc


def _star_file(tmp_path, m):
    path = tmp_path / "star.json"
    dump_graph(_star_graph(m), path)
    return path


def test_depth_report_names_absorbed_flotillas_once(capsys, tmp_path):
    """Many rafts absorbing one flotilla name it; its members are printed once per level.

    An orbit id occurs as a token in its depth line, in its raft's core, and in
    one flotilla line per level from its own: at most L + 3 times with L levels.
    """
    m = 12
    code, out, _ = run(capsys, "depth", _star_file(tmp_path, m))
    assert code == 0
    rafts = [line for line in out.splitlines() if line.startswith("level 1 raft:")]
    assert sorted(rafts) == sorted(f"level 1 raft: {{leaf{k},spoke{k}}} absorbing F0.0"
                                   for k in range(m))
    levels = len({line.split()[1] for line in out.splitlines() if line.startswith("level ")})
    tokens = re.findall(r"[^\s{},:\[\]]+", out)
    for orbit in ["hub", "loop"] + [f"{x}{k}" for x in ("leaf", "spoke") for k in range(m)]:
        assert tokens.count(orbit) <= levels + 3, orbit


@pytest.mark.parametrize("name", ["arc3", "arc4", "bs22", "f2xz", "nonex", "shear_unknown",
                                  "thm14", "z2hnn", "star"])
def test_depth_json_absorbed_flotillas_index_the_level_below(capsys, tmp_path, name):
    """Every `absorbed_flotillas` index is a position in the previous level's list,
    the text report names the same flotillas, and core plus named flotillas
    give the library's `Raft.members`."""
    from gogkit import depth_filtration, load_graph

    path = _star_file(tmp_path, 5) if name == "star" else fixture_path(name)
    doc = json.loads(run(capsys, "depth", path, "--format", "json")[1])
    text = run(capsys, "depth", path)[1]
    da = depth_filtration(load_graph(path))
    named = []
    for n, level in enumerate(doc["levels"]):
        assert level["level"] == n
        below = doc["levels"][n - 1]["flotillas"] if n else []
        for raft, lib in zip(level["rafts"], da.levels[n].rafts, strict=True):
            fis = raft["absorbed_flotillas"]
            assert all(isinstance(i, int) and 0 <= i < len(below) for i in fis)
            assert fis == sorted(set(fis)) and (fis or not n)
            members = set(raft["core"]).union(*(below[i] for i in fis))
            assert tuple(sorted(members)) == lib.members
            if fis:
                named.append(" absorbing " + ",".join(f"F{n - 1}.{i}" for i in fis))
    assert [line[line.index(" absorbing"):].split(" [")[0] for line in text.splitlines()
            if " absorbing " in line] == named


def test_dot_format_rejected_outside_ball(capsys):
    assert run(capsys, "depth", fixture_path("arc3"), "--format", "dot")[0] == 2


def test_byte_identical_reruns(capsys):
    first = run(capsys, "check", fixture_path("thm14"), "--format", "json")
    second = run(capsys, "check", fixture_path("thm14"), "--format", "json")
    assert first == second
    a = run(capsys, "compare", fixture_path("pattern_0inf12"),
            fixture_path("pattern_0inf12_shifted"))
    b = run(capsys, "compare", fixture_path("pattern_0inf12"),
            fixture_path("pattern_0inf12_shifted"))
    assert a == b


SUBCOMMAND_ARGV = {   # subcommand -> a valid argument list for it
    "validate": [fixture_path("arc3")],
    "depth": [fixture_path("arc3")],
    "rafts": [fixture_path("arc3")],
    "crossing": [fixture_path("arc3"), "--vertex", "v"],
    "check": [fixture_path("arc3")],
    "reduce": [fixture_path("arc3")],
    "invariants": [fixture_path("arc3"), "--vertex", "v"],
    "compare": [fixture_path("pattern_0inf12"), fixture_path("pattern_0inf12_shifted")],
    "ball": [fixture_path("arc3")],
}


def test_subcommand_argv_covers_the_parser():
    assert sorted(SUBCOMMAND_ARGV) == sorted(_own_flags())


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGV))
def test_seed_flag_exits_two(capsys, command):
    """No analysis is sampled, so no subcommand takes a seed."""
    argv = [command, *SUBCOMMAND_ARGV[command]]
    assert run(capsys, *argv)[0] in (0, 1)
    code, out, err = run(capsys, *argv, "--seed", "11")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --seed 11" in err


@pytest.mark.parametrize("command", ["depth", "compare"])
def test_gog_seed_env_is_ignored(capsys, monkeypatch, command):
    argv = [command, *SUBCOMMAND_ARGV[command]]
    monkeypatch.delenv("GOG_SEED", raising=False)
    plain = run(capsys, *argv)
    monkeypatch.setenv("GOG_SEED", "junk")
    assert run(capsys, *argv) == plain
    assert plain[0] == 0 and plain[2] == ""


def test_output_file(capsys, tmp_path):
    target = tmp_path / "report.txt"
    code, out, _ = run(capsys, "depth", fixture_path("arc3"), "--output", target)
    assert code == 0 and out == ""
    assert "verdict: Finite(2)" in target.read_text()


OUTPUT_CASES = [(c, f) for c in sorted(SUBCOMMAND_ARGV) for f in ("text", "json")] + [
    ("ball", "dot")]


@pytest.mark.parametrize("command,fmt", OUTPUT_CASES, ids=[f"{c}-{f}" for c, f in OUTPUT_CASES])
def test_output_holds_exactly_the_stdout_report(capsys, tmp_path, command, fmt):
    argv = [command, *SUBCOMMAND_ARGV[command], "--format", fmt]
    code, out, err = run(capsys, *argv)
    assert out and err == ""
    target = tmp_path / "report"
    assert run(capsys, *argv, "--output", target) == (code, "", "")
    assert target.read_bytes() == out.encode("utf-8")


def test_dot_report_keeps_line_breaks_inside_ids(capsys, tmp_path):
    vid = "v\u2028x\ry"
    doc = {"oracle": "abelian", "vertices": [{"id": vid, "rank": 1}],
           "edges": [{"id": "t", "rank": 1, "ends": [{"vertex": vid, "matrix": [[1]]},
                                                     {"vertex": vid, "matrix": [[2]]}]}]}
    path, target = tmp_path / "breaks.json", tmp_path / "ball.dot"
    path.write_text(json.dumps(doc))
    code, _, _ = run(capsys, "ball", path, "--format", "dot", "--output", target)
    body = target.read_bytes().decode("utf-8")
    assert code == 0 and body.startswith("graph {\n") and body.endswith("}\n")
    assert f'"root:{vid}"' in body


def _table(**changes):
    """NO_RAFT_TABLE with some of its sections replaced."""
    doc = copy.deepcopy(NO_RAFT_TABLE)
    doc.update(changes)
    return doc


def _loop(*ends):
    """One abelian rank-1 vertex v with one edge e on the given ends."""
    return {"vertices": [{"id": "v", "rank": 1}],
            "edges": [{"id": "e", "rank": 1, "ends": list(ends)}]}


MALFORMED_SECTIONS = {
    "vertices-number": ({"vertices": 5}, "vertices: expected an array"),
    "vertices-null": ({"vertices": None}, "vertices: expected an array"),
    "edges-number": ({"vertices": [{"id": "v", "rank": 1}], "edges": 7},
                     "edges: expected an array"),
    "labels-number": (_table(classes={**NO_RAFT_TABLE["classes"],
                                      "v": {"labels": 5, "top": "Tv"}}),
                      "classes[v].labels: expected an array"),
    "order-triple": (_table(order={"v": [["Cv", "Tv", "Tv"]]}),
                     "order[v][0]: need a pair of labels"),
    "order-array": (_table(order=[]), "order: expected an object"),
    "transport-map-number": (_table(transport={**NO_RAFT_TABLE["transport"],
                                               "e1": [5, {"Cw": "Tv"}]}),
                             "transport[e1][0]: expected an object"),
    "pd-flags-number": (_table(pd_flags={"v": 5}), "pd_flags[v]: expected an object"),
    "top-level-array": ([], "top level: expected an object, got []"),
    "vertex-without-id": ({"vertices": [{"rank": 1}]}, "vertices[0].id: expected a string, got None"),
    "three-ends": (_loop(*[{"vertex": "v", "matrix": [[1]]}] * 3), "edges[0].ends: need a pair of ends"),
    "end-without-matrix": (_loop({"vertex": "v", "matrix": [[1]]}, {"vertex": "v"}),
                           "edges[0].ends[1].matrix: expected an array, got None"),
    "end-without-class": (_table(edges=[{"id": "e1", "rank": 3, "ends": [
                              {"vertex": "v"}, {"vertex": "w", "class": "Cw"}]},
                              *NO_RAFT_TABLE["edges"][1:]]),
                          "edges[0].ends[0].class: expected a string, got None"),
    "indices-single": (_table(indices={**NO_RAFT_TABLE["indices"], "e1": [2]}),
                       "indices[e1]: need a pair of indices"),
    "transport-object": (_table(transport={**NO_RAFT_TABLE["transport"], "e1": {"Tv": "Cw"}}),
                         "transport[e1]: expected an array"),
    "classes-missing": ({k: v for k, v in NO_RAFT_TABLE.items() if k != "classes"},
                        "classes: expected an object, got None"),
    "vertices-huge-object": ({"vertices": {str(i): i for i in range(20000)}},
                             "vertices: expected an array, got {'0': 0, '1': 1, '10': 10, "
                             "'100': 100, ...}\n"),
    "oracle-huge-array": ({"oracle": ["abelian"] * 20000},
                          'oracle must be "abelian" or "table", got [\'abelian\', '),
}


@pytest.mark.parametrize("doc,needle", MALFORMED_SECTIONS.values(), ids=MALFORMED_SECTIONS)
def test_malformed_sections_exit_two(capsys, tmp_path, doc, needle):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", bad)
    assert (code, out) == (2, "")
    assert "Traceback" not in err and err.count("\n") == 1
    assert err.startswith(needle) and len(err) < 200   # the bad value is abbreviated


def _value_paths(doc, prefix=()):
    """The key path of every value under the top level of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _value_paths(value, prefix + (key,))


@pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.json")))
def test_mutated_fixtures_stay_in_the_exit_contract(capsys, tmp_path, name):
    """Replace one value of the fixture at a time; validate, depth and ball never crash."""
    doc = json.loads(fixture_path(name).read_text())
    rng = random.Random(f"mutate {name}")
    paths = list(_value_paths(doc))
    target = tmp_path / "mutated.json"
    for path in rng.sample(paths, min(12, len(paths))):
        value = rng.choice([5, None, [], {}, "x"])
        target.write_text(json.dumps(_replaced(doc, path, value)))
        for argv in (["validate"], ["depth"], ["ball", "--radius", "2"]):
            code, _, err = run(capsys, *argv[:1], target, *argv[1:])
            assert type(code) is int and 0 <= code <= 5, (path, value)
            assert "Traceback" not in err


def _replaced(doc, path, value):
    """A copy of the JSON document with the value at the key path `path` replaced."""
    out = copy.deepcopy(doc)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def _label_paths(doc):
    """The key path of every class label of a table document, transport keys aside."""
    for i in range(len(doc["edges"])):
        yield from (("edges", i, "ends", j, "class") for j in (0, 1))
    for vid, c in doc["classes"].items():
        yield from (("classes", vid, "labels", k) for k in range(len(c["labels"])))
        yield ("classes", vid, "top")
    for vid, pairs in doc["order"].items():
        yield from (("order", vid, k, j) for k in range(len(pairs)) for j in (0, 1))
    for eid, maps in doc["transport"].items():
        yield from (("transport", eid, j, key) for j, mp in enumerate(maps) for key in mp)


@pytest.mark.parametrize("name", ["heis", "nonex"])
def test_table_label_positions_stay_in_the_exit_contract(capsys, tmp_path, name):
    """Each declared label and one undeclared label in every label position: no internal error."""
    contract = _readme_exit_codes() - {6}
    doc = json.loads(fixture_path(name).read_text())
    labels = sorted({s for c in doc["classes"].values() for s in c["labels"]}) + ["undeclared"]
    target = tmp_path / "relabelled.json"
    for path in _label_paths(doc):
        for label in labels:
            target.write_text(json.dumps(_replaced(doc, path, label)))
            for command in ("validate", "depth", "check", "reduce", "rafts"):
                code, _, err = run(capsys, command, target)
                assert code in contract and "Traceback" not in err, (path, label, command, err)


def _readme_exit_codes():
    """The codes of the README's exit-code table."""
    text = README.read_text(encoding="utf-8")
    table = text[text.index("Exit codes are a disjoint contract"):].split("\n\n")[1]
    return {int(c) for c in re.findall(r"^\| (\d+) +\|", table, re.M)}


def test_random_valid_graphs_stay_in_the_exit_contract(capsys, tmp_path):
    """Seeded valid graphs of rank 0-3 through every one-graph command: no
    internal error, and `reduce -o` writes a valid graph that reduces no further."""
    contract = _readme_exit_codes()
    assert contract == set(range(7))
    rng = random.Random(2929)
    target, reduced = tmp_path / "g.json", tmp_path / "out.json"
    seen = set()
    drawn = shrank = 0
    while drawn < 200:
        g = _mixed_rank_graph(rng)
        if g is None:
            continue
        drawn += 1
        dump_graph(g, target)
        vertex = rng.choice(g.vertex_ids())
        for argv in (["validate"], ["depth"], ["rafts"], ["check"], ["reduce"],
                     ["reduce", "--order", "revlex"], ["reduce", "-o", reduced],
                     ["crossing", "--vertex", vertex], ["invariants", "--vertex", vertex],
                     ["ball", "--vertex", vertex, "--radius", rng.randint(0, 3),
                      "--branch-cap", rng.randint(1, 2)]):
            code, _, err = run(capsys, argv[0], target, *argv[1:])
            assert code in contract and code != 6, (argv, target.read_text(), err)
            assert "Traceback" not in err
            assert code == 0 or argv[0] != "validate", err
            seen.add((argv[0], code))
        assert run(capsys, "validate", reduced)[0] == 0, target.read_text()
        code, out, _ = run(capsys, "reduce", reduced)
        assert code == 0 and re.match(r"reduced: (\d+) -> \1 edges", out), out
        shrank += len(load_graph(reduced).edges) < len(g.edges)
    # The draws reach both answers of check and crossing, and an Unknown depth,
    # and many are reducible.
    assert {("check", 0), ("check", 1), ("crossing", 0), ("crossing", 1), ("depth", 4)} <= seen
    assert shrank >= 50


NON_STRING_IDS = {   # case -> (fixture, paths set to the bad value, the path reported)
    "vertex-id": ("arc3", [("vertices", 0, "id")], "vertices[0].id"),
    "vertex-id-and-references": (
        "arc3", [("vertices", 0, "id"), ("edges", 0, "ends", 0, "vertex")], "vertices[0].id"),
    "edge-id": ("arc3", [("edges", 1, "id")], "edges[1].id"),
    "end-vertex": ("arc3", [("edges", 0, "ends", 1, "vertex")], "edges[0].ends[1].vertex"),
    "end-class": ("nonex", [("edges", 0, "ends", 0, "class")], "edges[0].ends[0].class"),
    "class-label": ("nonex", [("classes", "v", "labels", 0)], "classes[v].labels[0]"),
    "class-top": ("nonex", [("classes", "v", "top")], "classes[v].top"),
    "order-label": ("nonex", [("order", "v", 2, 1)], "order[v][2][1]"),
    "transport-target": ("nonex", [("transport", "e", 0, "F1")], "transport[e][0][F1]"),
}


@pytest.mark.parametrize("command", ["validate", "depth"])
@pytest.mark.parametrize("value", [None, 5], ids=["null", "number"])
@pytest.mark.parametrize("case", sorted(NON_STRING_IDS))
def test_non_string_ids_exit_two(capsys, tmp_path, command, value, case):
    name, paths, where = NON_STRING_IDS[case]
    doc = json.loads(fixture_path(name).read_text())
    for path in paths:
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    target = tmp_path / "bad.json"
    target.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, target)
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert err == f"{where}: expected a string, got {value!r}\n"


PD_FLAGS = {   # case -> (flag, bad value, stderr)
    "pd-string": ("is_coarse_pd", "yes",
                  "pd_flags[v].is_coarse_pd: expected true or false, got 'yes'"),
    "pd-null": ("is_coarse_pd", None,
                "pd_flags[v].is_coarse_pd: expected true or false, got None"),
    "pd-number": ("is_coarse_pd", 1,
                  "pd_flags[v].is_coarse_pd: expected true or false, got 1"),
    "dim-bool": ("coarse_dim", True, "pd_flags[v].coarse_dim: expected an exact integer, got True"),
    "dim-string": ("coarse_dim", "3", "pd_flags[v].coarse_dim: expected an exact integer, got '3'"),
}


@pytest.mark.parametrize("command", ["validate", "check"])
@pytest.mark.parametrize("case", sorted(PD_FLAGS))
def test_mistyped_pd_flags_exit_two(capsys, tmp_path, command, case):
    """A PD declaration that is not a bool (or a dimension not an int) is an input error."""
    flag, value, message = PD_FLAGS[case]
    doc = json.loads(fixture_path("nonex").read_text())
    doc["pd_flags"]["v"][flag] = value
    target = tmp_path / "bad.json"
    target.write_text(json.dumps(doc))
    assert run(capsys, command, target) == (2, "", message + "\n")


def test_pd_flags_without_a_declaration_exit_two(capsys, tmp_path):
    doc = json.loads(fixture_path("nonex").read_text())
    del doc["pd_flags"]["v"]["is_coarse_pd"]
    target = tmp_path / "bad.json"
    target.write_text(json.dumps(doc))
    assert run(capsys, "check", target) == (
        2, "", "pd_flags[v].is_coarse_pd: expected true or false, got None\n")


def test_internal_error_exits_six(capsys, monkeypatch):
    import gogkit.cli as cli

    def broken(args):
        raise RuntimeError("broken on purpose")
    monkeypatch.setattr(cli, "cmd_depth", broken)
    code, out, err = run(capsys, "depth", fixture_path("arc3"))
    assert (code, out) == (6, "")
    assert err == "internal error: RuntimeError('broken on purpose')\n"


@pytest.mark.parametrize("argv", [
    ["depth", fixture_path("arc3"), "--output", "{missing}/r.txt"],
    ["reduce", fixture_path("heis"), "-o", "{missing}/g.json"],
    ["ball", fixture_path("z2hnn"), "--format", "dot", "--output", "{missing}/x.dot"],
], ids=["depth-output", "reduce-output-graph", "ball-dot-output"])
def test_unwritable_output_exits_two(capsys, tmp_path, argv):
    missing = tmp_path / "no_such_dir"
    argv = [str(a).format(missing=missing) for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "Traceback" not in err and err.count("\n") == 1
    assert err.startswith(f"cannot write {missing}/")
    assert not missing.exists()


def test_bad_bounds_rejected(capsys):
    assert run(capsys, "ball", fixture_path("z2hnn"), "--branch-cap", "0")[0] == 2


def _own_flags():
    """Each subcommand's `--` options, --help excluded."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {o for a in sp._actions for o in a.option_strings
                   if o.startswith("--") and o != "--help"}
            for name, sp in sub.choices.items()}


def test_readme_common_flags_match_parser():
    text = README.read_text(encoding="utf-8")
    paragraph = text[text.index("Common flags"):].split("\n\n", 1)[0]
    documented = set(re.findall(r"--[a-z][a-z-]*", paragraph))
    own = _own_flags()
    common = set.intersection(*own.values())
    assert documented == common
    block = text[text.index("## Command line"):text.index("Common flags")]
    usage = {m[1]: set(re.findall(r"--[a-z][a-z-]*", m[2]))
             for m in re.finditer(r"^gog (\w+)([^#\n]*)", block, re.M)}
    assert usage == {name: flags - common for name, flags in own.items()}


def _argv(command, path, *extra):
    """`command` on `path` with the arguments it requires, then `extra`."""
    files = [path, path] if command == "compare" else [path]
    vertex = ["--vertex", "v"] if command in ("crossing", "invariants") else []
    return [command, *files, *vertex, *extra]


COMMANDS = ("validate", "depth", "rafts", "crossing", "check", "reduce", "invariants",
            "compare", "ball")
WALKS = ("depth", "check", "reduce", "ball")
THM14 = str(fixture_path("thm14"))
USAGE = "usage: gog"     # argparse's message: the usage, then one error line

EXIT_TABLE = (
    [(_argv(c, "no_such_file.json"), 2, "no_such_file") for c in COMMANDS]
    + [(_argv(c, fixture_path("nonex")), 5, "abelian oracle")
       for c in ("crossing", "invariants", "ball")]
    + [([c, THM14, "--vertex", "nope"], 2, "no vertex 'nope'")
       for c in ("crossing", "invariants", "ball")]
    + [(["ball", THM14, "--vertex", ""], 2, "no vertex ''")]
    + [(["compare", THM14, THM14, "--vertex-a", "a", "--vertex-b", "nope"], 2, "nope")]
    + [(_argv(c, THM14, flag, "3"), 2, USAGE)
       for c in COMMANDS for flag in ("--radius", "--branch-cap") if c != "ball"]
    + [(_argv(c, THM14, "--horizon", "3"), 2, USAGE)
       for c in ("validate", "rafts", "crossing", "invariants", "compare")]
    + [(_argv(c, THM14, "--format", "dot"), 2, USAGE) for c in COMMANDS if c != "ball"]
    + [(_argv(c, THM14, "--dot"), 2, USAGE) for c in COMMANDS]
    + [(_argv(c, THM14, "--horizon", "0"), 2, USAGE) for c in WALKS]
    + [(["ball", THM14, "--branch-cap", "0"], 2, USAGE),
       (["ball", THM14, "--radius", "-1"], 2, USAGE),
       (["depth", THM14, "--horizon", "x"], 2, USAGE),
       ([], 2, USAGE)]
)


@pytest.mark.parametrize("argv,code,needle", EXIT_TABLE, ids=[
    "-".join(pathlib.Path(str(a)).name for a in c[0]) or "no-command" for c in EXIT_TABLE])
def test_exit_code_table(capsys, argv, code, needle):
    # main returns the code itself: SystemExit from argparse would fail the test
    got, out, err = run(capsys, *argv)
    assert type(got) is int and got == code
    assert out == "" and "Traceback" not in err and needle in err
    lines = err.splitlines()
    if needle == USAGE:
        assert lines[0].startswith("usage: gog") and lines[-1].startswith("gog")
        assert ": error: " in lines[-1]
    else:
        assert len(lines) == 1


def test_help_and_version_return_zero(capsys):
    assert run(capsys, "--version")[0] == 0
    assert run(capsys, "depth", "--help")[0] == 0


@pytest.mark.parametrize("row", CI_SMOKE, ids=lambda row: "-".join(
    pathlib.Path(a).stem for a in row["argv"]))
def test_ci_smoke_table(capsys, monkeypatch, row):
    # CI runs the same rows with the installed `gog` script
    monkeypatch.chdir(ROOT)
    assert run(capsys, *row["argv"])[0] == row["exit"]


def test_only_json_reduce_builds_the_graph_dict(capsys, monkeypatch):
    from gogkit import cli

    real, built = cli.graph_to_dict, []
    monkeypatch.setattr(cli, "graph_to_dict", lambda g: built.append(g) or real(g))
    assert run(capsys, "reduce", fixture_path("heis"))[0] == 0 and built == []
    assert run(capsys, "reduce", fixture_path("heis"), "--format", "json")[0] == 0
    assert len(built) == 1


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = "import sys, gogkit.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("argv", [["check"], ["ball", "--radius", "1"]])
def test_check_and_ball_scan_for_reducible_edges_once(capsys, monkeypatch, argv):
    """On an irreducible input the one scan is `depth_filtration`'s refusal.  On a
    reducible one, `check` scans twice, the refusal and `complete_reduce`'s own
    scan, and reads hypothesis 1's detail off the refusal; `ball` stops at the
    refusal.  No scan ever meets a graph without reducible edges, so the
    complete reduction is never scanned."""
    from gogkit import reduce

    real, scans = reduce.reducible_edges, []
    for module in [m for name, m in sys.modules.items() if name.partition(".")[0] == "gogkit"
                   and getattr(m, "reducible_edges", None) is real]:    # every binding of it
        monkeypatch.setattr(module, "reducible_edges",
                            lambda g: scans.append(real(g)) or scans[-1])
    reducible = 0
    for path in graph_fixture_paths():
        scans.clear()
        if run(capsys, argv[0], path, *argv[1:])[0] == 5:    # no table-mode tree ball
            assert scans == [], path.stem
        elif scans[0]:
            reducible += 1
            assert all(scans), path.stem
            assert len(scans) == (2 if argv[0] == "check" else 1), path.stem
        else:
            assert len(scans) == 1, path.stem
    assert reducible
