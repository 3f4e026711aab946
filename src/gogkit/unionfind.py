"""Union-find over comparable items, each class named by its least member."""

from __future__ import annotations


class UnionFind:
    """Disjoint classes of a fixed item set; `find` returns the least member."""

    def __init__(self, items=()):
        self.parent = {x: x for x in items}

    def __contains__(self, x) -> bool:
        return x in self.parent

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)

    def classes(self) -> dict:
        """Least member -> set of members, for every class."""
        out = {}
        for x in self.parent:
            out.setdefault(self.find(x), set()).add(x)
        return out
