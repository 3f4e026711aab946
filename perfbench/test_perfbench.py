"""Tests of the benchmark itself: `python3 -m pytest perfbench` from the repository root."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("make", [
    lambda rng: inputs.rank3_graph(rng, 64),
    lambda rng: inputs.reducible_graph(rng, 32),
    lambda rng: inputs.small_graph(rng, 90),
    lambda rng: inputs.pattern_family(rng, 3, 5, 2),
    lambda rng: inputs.pattern_family(rng, 2, 4, 3),
])
def test_generators_are_deterministic_per_seed(make):
    a = make(inputs.seeded_rng("w", 7, "s"))
    assert a == make(inputs.seeded_rng("w", 7, "s"))
    assert a != make(inputs.seeded_rng("w", 8, "s"))


def test_generated_graphs_have_the_promised_shape():
    rng = inputs.seeded_rng("shape", 1)
    g = inputs.rank3_graph(rng, 128)
    assert len(g["edges"]) == 128 and not inputs.reducible_ends(g)
    r = inputs.reducible_graph(rng, 32)
    assert len(r["edges"]) == 32 and inputs.reducible_ends(r)
    smalls = [inputs.small_graph(rng, 90) for _ in range(30)]
    assert all(not inputs.reducible_ends(s) for s in smalls)
    assert any(e["rank"] == 0 for s in smalls for e in s["edges"])
    assert any(e["ends"][0]["vertex"] == e["ends"][1]["vertex"] for s in smalls for e in s["edges"])


def test_near_misses_break_general_position():
    rng = inputs.seeded_rng("near", 3)
    for n, count in ((3, 5), (4, 5)):
        normals = inputs.base_normals(rng, n, count)
        assert inputs.general_position(normals, n)
        assert not inputs.general_position(inputs.near_miss_normals(rng, normals, n), n)


def test_metric_names_match_benchmark_json():
    assert [(n, u) for n, u in run.END_TO_END] == [
        (m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    assert list(tracing.PER_LAYER) == [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])


def _smoke_ops(name, tmp_path):
    plan = workloads.WORKLOADS[name](5, tmp_path, ROOT / "tests" / "fixtures")
    fixed = plan.fixed()
    if name == "ball-compare":
        fixed = [op for op in fixed if "probe" in op.label or "bs22" in op.label]
    return fixed + plan.round(1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_round_passes_its_checks(name, tmp_path):
    gk = run.fresh_gogkit()
    outcomes = [workloads.run_op(gk, op, time.perf_counter)
                for op in _smoke_ops(name, tmp_path)]
    unexpected = [(o.op.label, o.cause) for o in outcomes if o.cause and not o.known]
    assert not unexpected
    if name == "ball-compare":
        probe = next(o for o in outcomes if "probe" in o.op.label)
        assert probe.known == workloads.KNOWN["2a"]


def test_traced_reports_are_identical(tmp_path):
    plan = workloads.WORKLOADS["reduce-churn"](2, tmp_path, ROOT / "tests" / "fixtures")
    ops = plan.round(1)[:3]
    gk = run.fresh_gogkit()
    plain = [workloads.run_op(gk, op, time.perf_counter) for op in ops]
    gk = run.fresh_gogkit()
    tracer = tracing.Tracer()
    tracer.install()
    traced = [workloads.run_op(gk, op, time.perf_counter) for op in ops]
    run.fresh_gogkit()      # drop the wrapped modules
    assert [o.digest for o in plain] == [o.digest for o in traced]
    metrics = tracer.metrics(1.0)
    assert list(metrics) == [name for name, _, _ in tracing.PER_LAYER]
    assert metrics["cli.main.calls"]["value"] == 3
    assert metrics["reduce.collapse.calls"]["value"] > 0
    assert metrics["model.edge.self_s"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "reduce-churn",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
