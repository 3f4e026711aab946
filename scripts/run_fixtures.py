#!/usr/bin/env python3
"""Run the whole analysis pipeline over the bundled fixtures.

Prints one block per fixture: validation, reduction, depth verdict, rafts,
hypothesis checklist, and (for abelian graphs) a small tree ball summary.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from gogkit import (build_ball, check_hypotheses, complete_reduce, depth_filtration,
                    depth_zero_rafts, load_graph, reducible_edges, validate)

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "tests" / "fixtures"
SKIP = {"invalid_rank_deficient"}


def main():
    for path in sorted(FIXTURES.glob("*.json")):
        if path.stem in SKIP or path.stem.startswith("pattern"):
            continue
        g = load_graph(path)
        print(f"== {path.stem} ({g.oracle_mode}, {len(g.vertices)} vertices, "
              f"{len(g.edges)} edges)")
        report = validate(g)
        if not report.ok:
            print("  invalid:", "; ".join(report.violations))
            continue
        red = reducible_edges(g)
        work = complete_reduce(g) if red else g
        if red:
            print(f"  reduced along {len(g.edges) - len(work.edges)} edges")
        for raft in depth_zero_rafts(work):
            print(f"  depth-0 raft {{{','.join(raft.core)}}}: {raft.kind}")
        da = depth_filtration(work)
        print(f"  depth verdict: {da.verdict.render()}")
        checks = check_hypotheses(g)
        line = " ".join(f"({e.number}){e.status}" for e in checks.entries)
        print(f"  hypotheses: {line}")
        if work.oracle_mode == "abelian":
            root = sorted(work.vertex_ids())[0]
            ball = build_ball(work, root, 2, branch_cap=3)
            print(f"  ball at {root}: {len(ball.nodes)} nodes, "
                  f"{sum(n.truncated for n in ball.nodes.values())} truncated")
        print()


if __name__ == "__main__":
    main()
