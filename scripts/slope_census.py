#!/usr/bin/env python3
"""Census of random four-line patterns under the slope invariant.

Generates random patterns of four distinct lines in the plane, buckets them
by canonical slope invariant, and checks the buckets against the exact
linear-equivalence decision: every member must be equivalent to its bucket's
first member, and no two bucket representatives may be equivalent.  Exits 1
on any disagreement.  The seed fixes only the pattern draw; the equivalence
decision itself is exact and takes none.

    python3 scripts/slope_census.py [count] [seed]
"""

import itertools
import pathlib
import random
import sys
from collections import Counter

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from gogkit.exactlin import canonicalize
from gogkit.patterns import LinearPattern, patterns_equivalent, slope_invariant


def random_pattern(rng, bound=4):
    slopes = set()
    while len(slopes) < 4:
        if rng.random() < 0.1:
            slopes.add((1, 0))
        else:
            slopes.add((rng.randint(-bound, bound), rng.randint(1, bound)))
    return LinearPattern.of([canonicalize([(q, p)]) for (p, q) in slopes], 2)


def main():
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 7
    rng = random.Random(seed)
    patterns = [random_pattern(rng) for _ in range(count)]
    buckets = {}
    for p in patterns:
        buckets.setdefault(slope_invariant(p).render(), []).append(p)
    sizes = Counter(len(v) for v in buckets.values())
    print(f"{count} patterns, {len(buckets)} invariant classes")
    for size in sorted(sizes):
        print(f"  classes of size {size}: {sizes[size]}")
    reps = [v[0] for v in buckets.values()]
    split = sum(not patterns_equivalent(v[0], p)[0] for v in buckets.values() for p in v[1:])
    merged = sum(patterns_equivalent(a, b)[0] for a, b in itertools.combinations(reps, 2))
    print(f"same-bucket members not equivalent to their first: {split}")
    print(f"equivalent pairs among {len(reps)} representatives: {merged}")
    return 1 if split or merged else 0


if __name__ == "__main__":
    sys.exit(main())
