"""The union-find helper behind rafts, flotillas and commensurability classes."""

from gogkit.unionfind import UnionFind


def test_class_names_are_least_members():
    uf = UnionFind(["d", "b", "e", "a", "c"])
    uf.union("e", "d")
    uf.union("d", "b")
    uf.union("c", "a")
    assert uf.find("e") == "b"
    assert uf.classes() == {"b": {"b", "d", "e"}, "a": {"a", "c"}}
    uf.union("e", "c")
    assert {uf.find(x) for x in "abcde"} == {"a"}


def test_singletons_and_membership():
    uf = UnionFind(range(3))
    assert uf.classes() == {0: {0}, 1: {1}, 2: {2}}
    assert 2 in uf and 3 not in uf
    uf.union(2, 2)
    assert uf.find(2) == 2
