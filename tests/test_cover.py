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
    NoJunctionTreeError,
    conflict_graph,
    heuristic_cover,
    is_biclique,
    merge_cover,
    separation,
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
        for edges in _all_spanning_trees(len(fam)):
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


def test_is_biclique(sos2_5):
    g = conflict_graph(sos2_5)
    assert is_biclique(g, {1, 2}, {4, 5})
    assert not is_biclique(g, {1, 2}, {3})
    assert not is_biclique(g, {1}, {1})


def test_merge_cover(sos2_5, path3):
    g = conflict_graph(sos2_5)
    base = [bc([1, 2], [4, 5]), bc([1], [3]), bc([3], [5])]
    merged = merge_cover(base, g)
    assert list(merged) == [bc([1, 2], [4, 5]), bc([1, 5], [3])]

    g3 = conflict_graph(path3)
    base3 = [bc([1, 2], [4, 5, 6, 7]), bc([3, 4], [6, 7])]
    assert list(merge_cover(base3, g3)) == base3  # no legal merge

    assert len(merge_cover([], g)) == 0


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
        merged = merge_cover(raw, g)
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
        '{"bicliques": [{"a": [%s], "b": [2]}]}' % ("1" * 5000),
    ],
)
def test_cover_json_rejects_malformed_input(text):
    with pytest.raises(InputError):
        BicliqueCover.from_json(text)
