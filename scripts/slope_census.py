#!/usr/bin/env python3
"""Census of random four-line patterns under the slope invariant.

Generates random patterns of four distinct lines in the plane, buckets them
by canonical slope invariant, and double-checks a sample of buckets against
the exact linear-equivalence decision.  Useful for eyeballing how many
equivalence classes small slope ranges produce.  The seed fixes only the
pattern draw; the equivalence decision itself is exact and takes none.

    python3 scripts/slope_census.py [count] [seed]
"""

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
    # spot-check: members of one multi-element bucket really are equivalent,
    # and representatives of different buckets really are not
    multi = next((v for v in buckets.values() if len(v) > 1), None)
    if multi:
        same, _ = patterns_equivalent(multi[0], multi[1])
        print("spot-check same-bucket pair equivalent:", same)
    reps = [v[0] for v in buckets.values()][:8]
    bad = 0
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            same, _ = patterns_equivalent(reps[i], reps[j])
            bad += same
    print(f"spot-check cross-bucket equivalences among {len(reps)} reps: {bad}")


if __name__ == "__main__":
    main()
