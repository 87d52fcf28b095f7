import random
import sys

import pytest

from cdcmip import (
    CandidateTree,
    IndexSetFamily,
    InputError,
    admits_junction_tree,
    failing_index,
    intersection_graph,
    is_junction_tree,
    is_pairwise_ib_representable,
    maximum_spanning_tree_of,
)
from cdcmip.sosk import sosk_family, sosk_junction_tree
from helpers import dense_maximum_spanning_tree, random_family


def test_intersection_graph(path3):
    g = intersection_graph(path3)
    assert g.size == 3 and len(g.mids) == 3
    assert g.weight(0, 1) == 1 and g.weight(1, 2) == 1 and g.weight(0, 2) == 0
    assert g.mid(1, 2) == {5}

    single = intersection_graph(IndexSetFamily([[1], [2]]))
    assert single.edges == [(0, 1)] and single.weight(0, 1) == 0

    sos3_4 = intersection_graph(IndexSetFamily([[1, 2, 3], [2, 3, 4]]))
    assert sos3_4.mid(0, 1) == {2, 3} and sos3_4.weight(0, 1) == 2


def test_maximum_spanning_tree(path3, triangle):
    t = maximum_spanning_tree_of(path3)
    assert t.edges == ((0, 1), (1, 2)) and t.weight == 2

    assert dense_maximum_spanning_tree(intersection_graph(IndexSetFamily([[1], [2]]))) == ((0, 1),)
    assert maximum_spanning_tree_of(IndexSetFamily([[1], [2]])).edges == ((0, 1),)

    tie = maximum_spanning_tree_of(triangle)
    assert tie.weight == 2
    assert tie.edges == ((0, 1), (0, 2))  # lexicographic tie-break


def test_is_junction_tree(path3, triangle):
    assert is_junction_tree(path3, CandidateTree(path3, [(0, 1), (1, 2)]))
    assert not is_junction_tree(triangle, CandidateTree(triangle, [(0, 1), (1, 2)]))
    single = IndexSetFamily([[1, 2]])
    assert is_junction_tree(single, CandidateTree(single, []))


def test_candidate_tree_validation(path3):
    with pytest.raises(InputError):
        CandidateTree(path3, [(0, 1)])  # too few edges
    with pytest.raises(InputError):
        CandidateTree(path3, [(0, 1), (0, 1)])
    with pytest.raises(InputError):
        CandidateTree(path3, [(0, 3), (1, 2)])
    four = IndexSetFamily([[1], [2], [3], [4]])
    with pytest.raises(InputError):
        CandidateTree(four, [(0, 1), (1, 0), (2, 3)])  # cycle after normalizing


def test_tree_json(path3):
    t = CandidateTree(path3, [(0, 1), (1, 2)])
    assert t.to_json() == '{"edges": [[0, 1], [1, 2]], "mids": [[3], [5]]}'


def test_admits_junction_tree(path3, triangle):
    t = admits_junction_tree(path3)
    assert t is not None and t.edges == ((0, 1), (1, 2))
    assert admits_junction_tree(triangle) is None
    for n, k in ((5, 2), (7, 3), (9, 4), (6, 5)):
        fam = sosk_family(n, k)
        t = admits_junction_tree(fam)
        assert t is not None
        assert t.edges == sosk_junction_tree(n, k).edges  # the window path


def test_admitted_tree_passes_and_implies_pairwise_ib():
    rng = random.Random(23)
    for _ in range(50):
        fam = random_family(rng, max_sets=5, max_ground=8)
        t = admits_junction_tree(fam)
        if t is not None:
            assert is_junction_tree(fam, t)
            assert is_pairwise_ib_representable(fam)


def test_junction_trees_carry_maximum_weight():
    # every spanning tree that passes the junction test weighs as much as the
    # greedy maximum tree; checked exhaustively on small families
    from itertools import combinations

    rng = random.Random(31)
    for _ in range(25):
        fam = random_family(rng, max_sets=5, max_ground=7)
        d = len(fam)
        best = maximum_spanning_tree_of(fam).weight
        for edges in combinations(list(combinations(range(d), 2)), max(d - 1, 0)):
            try:
                tree = CandidateTree(fam, edges)
            except InputError:
                continue
            if is_junction_tree(fam, tree):
                assert tree.weight == best


def test_identity_and_failing_index(triangle, path3):
    tree = maximum_spanning_tree_of(triangle)
    assert not is_junction_tree(triangle, tree)
    assert failing_index(triangle, tree) == 3  # held by sets 1 and 2, joined by no edge
    assert failing_index(path3, maximum_spanning_tree_of(path3)) is None
    with pytest.raises(InputError):
        is_junction_tree(path3, maximum_spanning_tree_of(IndexSetFamily([[1], [2]])))


def test_zero_weight_completion():
    # Components {0, 2}, {1, 3} and {4}: the tree joins them through (0, 1)
    # and (0, 4), the first zero-weight pairs of a scan of all pairs.
    fam = IndexSetFamily([[1, 2], [5, 6], [2, 3], [6, 7], [9]])
    assert maximum_spanning_tree_of(fam).edges == ((0, 1), (0, 2), (0, 4), (1, 3))
    assert maximum_spanning_tree_of(fam).edges == dense_maximum_spanning_tree(intersection_graph(fam))


def _forbid_intersection_graph(monkeypatch):
    """Make every binding of ``intersection_graph`` in the package fail."""
    def forbidden(family):
        raise AssertionError("the dense intersection graph was built")

    for name, module in list(sys.modules.items()):
        if name.startswith("cdcmip") and hasattr(module, "intersection_graph"):
            monkeypatch.setattr(module, "intersection_graph", forbidden)


def test_pipeline_never_builds_the_intersection_graph(monkeypatch):
    from cdcmip import build_equivalent_family, heuristic_cover, variable_accounting

    _forbid_intersection_graph(monkeypatch)
    for fam in (sosk_family(60, 3), IndexSetFamily([[0, i] for i in range(1, 50)])):
        assert admits_junction_tree(fam) is not None
        assert len(heuristic_cover(fam)) <= len(fam) - 1
    triangle = IndexSetFamily([[1, 2], [2, 3], [1, 3]])
    assert admits_junction_tree(triangle) is None
    for disjoint in (True, False):
        build_equivalent_family(triangle, disjoint)
    variable_accounting(triangle)


@pytest.mark.parametrize("n, k", [(400, 2), (600, 3), (800, 5), (800, 8)])
def test_sparse_tree_touches_only_pairs_that_share_an_index(monkeypatch, n, k):
    from cdcmip import jtree

    fam = sosk_family(n, k)
    d = len(fam)
    bound = sum(len(h) * (len(h) - 1) // 2 for h in fam.holders.values())
    assert bound * 10 < d * (d - 1) // 2  # so a scan of all pairs would trip the guard
    table, scanned = [], []
    pair_weights, spanning_forest = jtree._pair_weights, jtree._spanning_forest

    def counted_weights(family):
        weights = pair_weights(family)
        table.append(len(weights))
        return weights

    def counted_forest(size, edges):
        seen = []
        kept = spanning_forest(size, (seen.append(e) or e for e in edges))
        scanned.append(len(seen))
        return kept

    monkeypatch.setattr(jtree, "_pair_weights", counted_weights)
    monkeypatch.setattr(jtree, "_spanning_forest", counted_forest)
    tree = maximum_spanning_tree_of(fam)
    assert tree.edges == sosk_junction_tree(n, k).edges
    assert len(table) == 1 and table[0] <= bound
    assert scanned[0] <= bound  # the Kruskal scan, before the tree validates itself
