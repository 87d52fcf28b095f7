import os
import random
import subprocess
import sys

import pytest

import cdcmip

from cdcmip import (
    Biclique,
    BicliqueCover,
    IndexSetFamily,
    InputError,
    InvariantError,
    NoJunctionTreeError,
    conflict_graph,
    heuristic_cover,
    maximum_spanning_tree_of,
    merge_cover,
    separation,
    tree_cover,
    verify_cover,
)
from cdcmip.jtree import CandidateTree, admits_junction_tree, is_junction_tree
from cdcmip.oracle import _all_spanning_trees, brute_admits_junction_tree
from helpers import random_family, random_junction_family


def bc(a, b):
    return Biclique(frozenset(a), frozenset(b))


def test_biclique_validation():
    with pytest.raises(InputError):
        bc([], [1])
    with pytest.raises(InputError):
        bc([1], [1, 2])


def test_separation_path3(path3):
    tree = CandidateTree(path3, [(0, 1), (1, 2)])
    assert separation(path3, tree) == [bc([1, 2], [4, 5, 6, 7]), bc([3, 4], [6, 7])]


def test_separation_single_set():
    fam = IndexSetFamily([[1, 2, 3]])
    assert separation(fam, CandidateTree(fam, [])) == []


def test_separation_sos2_5_matches_dyadic_base(sos2_5):
    from cdcmip.sosk import sosk_base_cover

    tree = CandidateTree(sos2_5, [(0, 1), (1, 2), (2, 3)])
    got = separation(sos2_5, tree)
    assert got == list(sosk_base_cover(2, 2))


def test_separation_raises_exactly_on_non_junction_trees():
    rng = random.Random(41)
    for _ in range(40):
        fam = random_family(rng, max_sets=6, max_ground=8)
        for edges in _all_spanning_trees(len(fam)).trees:
            tree = CandidateTree(fam, edges)
            if is_junction_tree(fam, tree):
                separation(fam, tree)
            else:
                with pytest.raises(NoJunctionTreeError):
                    separation(fam, tree)
        if brute_admits_junction_tree(fam) is None:
            with pytest.raises(NoJunctionTreeError):
                heuristic_cover(fam)
        else:
            heuristic_cover(fam)


def test_separation_names_the_index_and_edge(triangle):
    tree = CandidateTree(triangle, [(0, 1), (1, 2)])
    with pytest.raises(NoJunctionTreeError, match=r"edge \(0, 1\) has index 1 "):
        separation(triangle, tree)


def test_separation_rejects_non_junction_trees_under_optimize():
    script = (
        "from cdcmip import CandidateTree, IndexSetFamily, NoJunctionTreeError, separation\n"
        "fam = IndexSetFamily([[1, 2], [2, 3], [1, 3]])\n"
        "try:\n"
        "    separation(fam, CandidateTree(fam, [(0, 1), (1, 2)]))\n"
        "except NoJunctionTreeError:\n"
        "    print('rejected')\n"
    )
    src = os.path.dirname(os.path.dirname(cdcmip.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == "rejected\n"


def test_merge_cover(sos2_5, path3):
    base = [bc([1, 2], [4, 5]), bc([1], [3]), bc([3], [5])]
    merged = merge_cover(base, sos2_5)
    assert list(merged) == [bc([1, 2], [4, 5]), bc([1, 5], [3])]

    base3 = [bc([1, 2], [4, 5, 6, 7]), bc([3, 4], [6, 7])]
    assert list(merge_cover(base3, path3)) == base3  # no legal merge

    assert len(merge_cover([], sos2_5)) == 0


def test_merge_keeps_non_bicliques_unmerged(sos2_5):
    # {1} x {2} is a non-edge and 9 lies outside the ground set: both are
    # kept in place and nothing merges into them.
    base = [bc([1], [2]), bc([1], [9]), bc([1], [3]), bc([5], [3])]
    assert list(merge_cover(base, sos2_5)) == [bc([1], [2]), bc([1], [9]), bc([1, 5], [3])]


def _forbid_conflict_graph(monkeypatch):
    """Make every binding of ``conflict_graph`` in the package fail."""
    def forbidden(family):
        raise AssertionError("a conflict graph was built")

    for name, module in list(sys.modules.items()):
        if name.startswith("cdcmip") and hasattr(module, "conflict_graph"):
            monkeypatch.setattr(module, "conflict_graph", forbidden)


def test_merging_reads_no_conflict_graph(monkeypatch):
    from cdcmip.sosk import sosk_family

    fams = (sosk_family(60, 3), star(40), random_junction_family(random.Random(3), 8, 14))
    pieces = [separation(fam, admits_junction_tree(fam)) for fam in fams]
    _forbid_conflict_graph(monkeypatch)
    for fam, raw in zip(fams, pieces):
        assert len(merge_cover(raw, fam)) <= len(raw)


def test_heuristic_cover_builds_one_conflict_graph(monkeypatch):
    from cdcmip import cover

    built = []

    def counted(family):
        built.append(family)
        return conflict_graph(family)

    monkeypatch.setattr(cover, "conflict_graph", counted)
    for fam in (IndexSetFamily([[1, 2], [2, 3], [3, 4], [4, 5]]), star(30)):
        built.clear()
        heuristic_cover(fam)
        assert built == [fam]


def test_merge_never_grows_and_preserves_covering():
    rng = random.Random(5)
    for _ in range(40):
        fam = random_junction_family(rng, max_sets=7, max_ground=12)
        tree = admits_junction_tree(fam)
        assert tree is not None
        g = conflict_graph(fam)
        raw = separation(fam, tree)
        assert len(raw) <= max(len(fam) - 1, 0)
        assert verify_cover(g, BicliqueCover(raw))
        merged = merge_cover(raw, fam)
        assert len(merged) <= len(raw)
        assert verify_cover(g, merged)


def test_verify_cover(sos2_5):
    g = conflict_graph(sos2_5)
    full = BicliqueCover([bc([1, 2], [4, 5]), bc([1, 5], [3])])
    assert verify_cover(g, full)
    missing = BicliqueCover([bc([1, 2], [4, 5])])
    assert not verify_cover(g, missing)
    uncovered = set(g.edges) - {p for b in missing for p in b.cross_pairs()}
    assert uncovered == {(1, 3), (3, 5)}
    edgeless = conflict_graph(IndexSetFamily([[1, 2, 3]]))
    assert verify_cover(edgeless, BicliqueCover())


def test_verify_rejects_non_edges(sos2_5):
    g = conflict_graph(sos2_5)
    assert not verify_cover(g, BicliqueCover([bc([1], [2])]))
    # A complete cover plus one member with a non-edge cross pair (2, 3).
    full = [bc([1, 2], [4, 5]), bc([1, 5], [3])]
    assert verify_cover(g, BicliqueCover(full))
    assert not verify_cover(g, BicliqueCover(full + [bc([1, 2], [3])]))


def test_verify_rejects_vertices_outside_the_graph(sos2_5):
    g = conflict_graph(sos2_5)
    full = [bc([1, 2], [4, 5]), bc([1, 5], [3])]
    assert not verify_cover(g, BicliqueCover(full + [bc([1], [9])]))
    assert not verify_cover(g, BicliqueCover([bc([0], [3])] + full))


def test_heuristic_cover(sos2_5, triangle):
    cover = heuristic_cover(sos2_5)
    assert len(cover) == 2
    with pytest.raises(NoJunctionTreeError):
        heuristic_cover(triangle)
    assert len(heuristic_cover(IndexSetFamily([[1, 2, 3]]))) == 0


def test_heuristic_bound_randomized():
    rng = random.Random(13)
    for _ in range(60):
        fam = random_junction_family(rng, max_sets=8, max_ground=14)
        cover = heuristic_cover(fam)
        assert verify_cover(conflict_graph(fam), cover)
        assert len(cover) <= max(len(fam) - 1, 0)


def test_tree_cover_rejects_a_tree_that_is_no_junction_tree(sos2_5):
    # {1, 2} and {2, 3} share 2, but the path between them runs through {3, 4}.
    tree = CandidateTree(sos2_5, [(0, 2), (2, 1), (1, 3)])
    assert not is_junction_tree(sos2_5, tree)
    with pytest.raises(NoJunctionTreeError, match="index 2"):
        tree_cover(sos2_5, tree)


FOUR_PAIRS = IndexSetFamily([[1, 2], [2, 3], [3, 4], [4, 5]])


def test_tree_cover_reads_a_foreign_tree_for_its_edges_only():
    # Built on disjoint sets, the path carries empty middles; it is still a
    # junction tree of FOUR_PAIRS, whose own middles decide every cut.
    disjoint = IndexSetFamily([[1, 2], [3, 4], [5, 6], [7, 8]])
    tree = CandidateTree(disjoint, [(0, 1), (1, 2), (2, 3)])
    assert tree_cover(FOUR_PAIRS, tree) == heuristic_cover(FOUR_PAIRS)


def test_tree_cover_ignores_the_middles_of_the_family_that_built_the_tree():
    triples = IndexSetFamily([[1, 2, 3], [2, 3, 4], [3, 4, 5], [4, 5, 6]])
    tree = maximum_spanning_tree_of(triples)
    assert tree_cover(FOUR_PAIRS, tree) == heuristic_cover(FOUR_PAIRS)


def test_tree_cover_guards_coverage(monkeypatch, sos2_5):
    from cdcmip import cover

    real = cover.merge_cover
    monkeypatch.setattr(cover, "merge_cover", lambda b, fam: BicliqueCover(real(b, fam)[1:]))
    with pytest.raises(InvariantError, match="non-covering"):
        tree_cover(sos2_5, admits_junction_tree(sos2_5))


def test_tree_cover_guards_the_tree_edge_bound(monkeypatch, sos2_5):
    from cdcmip import cover

    real = cover.merge_cover

    def padded(bicliques, fam):
        # Still a valid cover: the repeats are bicliques and cover nothing new.
        members = list(real(bicliques, fam))
        return BicliqueCover(members + members[:1] * (len(fam) - len(members)))

    monkeypatch.setattr(cover, "merge_cover", padded)
    with pytest.raises(InvariantError, match="tree-edge bound"):
        tree_cover(sos2_5, admits_junction_tree(sos2_5))


def star(d):
    return IndexSetFamily([[0, i] for i in range(1, d + 1)])


def test_separation_on_a_deep_star():
    # One tree level per leaf: far deeper than the interpreter's default
    # recursion limit of 1000.
    d = 1200
    fam = star(d)
    raw = separation(fam, CandidateTree(fam, [(0, i) for i in range(1, d)]))
    assert len(raw) == d - 1
    assert raw[0] == bc([1, *range(3, d + 1)], [2])  # cut (0, 1) peels {0, 2} off
    assert verify_cover(conflict_graph(fam), BicliqueCover(raw))


def test_heuristic_cover_stack_depth_does_not_grow_with_the_tree():
    # The greedy merge is cubic on a star (every attempt fails), so a star
    # of 300 sets under a stack budget of 100 frames stands in for a star
    # deeper than the default limit.
    d = 300
    fam = star(d)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        cover = heuristic_cover(fam)
    finally:
        sys.setrecursionlimit(limit)
    assert 1 <= len(cover) <= d - 1
    assert verify_cover(conflict_graph(fam), cover)


def test_scheme_roundtrip(sos2_5):
    # complement twice: sides -> alternative sets -> sides again
    from cdcmip import ground_set

    j = ground_set(sos2_5)
    cover = heuristic_cover(sos2_5)
    for b in cover:
        left, right = j - b.side_a, j - b.side_b
        assert (j - left, j - right) == (b.side_a, b.side_b)


def test_cover_json_roundtrip(sos2_5):
    cover = heuristic_cover(sos2_5)
    assert BicliqueCover.from_json(cover.to_json()) == cover


@pytest.mark.parametrize(
    "text",
    [
        "nope",
        "{}",
        "[]",
        '{"bicliques": 3}',
        '{"bicliques": [{"b": [2]}]}',
        '{"bicliques": [{"a": [1]}]}',
        '{"bicliques": [{"a": 1, "b": [2]}]}',
        '{"bicliques": [{"a": [1], "b": "2"}]}',
        '{"bicliques": [[1, 2]]}',
        '{"bicliques": [{"a": [true], "b": [2]}]}',
        '{"bicliques": [{"a": [1], "b": [false]}]}',
        '{"bicliques": [{"a": [-1], "b": [2]}]}',
        '{"bicliques": [{"a": [1.5], "b": [2]}]}',
        '{"bicliques": [{"a": [[1]], "b": [2]}]}',
        '{"bicliques": [{"a": [%s], "b": [2]}]}' % ("1" * 5000),
    ],
)
def test_cover_json_rejects_malformed_input(text):
    with pytest.raises(InputError):
        BicliqueCover.from_json(text)


def test_separation_refuses_a_tree_of_another_size(path3, sos2_5):
    tree = maximum_spanning_tree_of(sos2_5)
    with pytest.raises(InputError, match="does not span"):
        separation(path3, tree)
