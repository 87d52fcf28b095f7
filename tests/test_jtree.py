import random

import pytest

from cdcmip import (
    CandidateTree,
    IndexSetFamily,
    InputError,
    admits_junction_tree,
    failing_index,
    is_junction_tree,
    is_pairwise_ib_representable,
    maximum_spanning_tree_of,
)
from cdcmip.sosk import sosk_family, sosk_junction_tree
from helpers import dense_maximum_spanning_tree, random_family


def test_maximum_spanning_tree(path3, triangle):
    t = maximum_spanning_tree_of(path3)
    assert t.edges == ((0, 1), (1, 2)) and t.weight == 2

    assert dense_maximum_spanning_tree(IndexSetFamily([[1], [2]])) == ((0, 1),)
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
    assert maximum_spanning_tree_of(fam).edges == dense_maximum_spanning_tree(fam)


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
