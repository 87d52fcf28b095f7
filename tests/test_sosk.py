import pytest

from fractions import Fraction

from cdcmip import (
    InputError,
    InvariantError,
    build_pwl,
    conflict_graph,
    sosk_base_cover,
    sosk_cover,
    sosk_family,
    sosk_junction_tree,
    sosk_merged_cover,
    sosk_size_identity,
    verify_cover,
)
from cdcmip.cover import Biclique
from cdcmip import sosk
from cdcmip.cli import main
from cdcmip.jtree import is_junction_tree
from cdcmip.sosk import compare_bounds, sosk_merge_period


def interval(lo, hi):
    return frozenset(range(lo, hi + 1))


def test_sosk_family():
    assert [sorted(s) for s in sosk_family(5, 2)] == [[1, 2], [2, 3], [3, 4], [4, 5]]
    assert [sorted(s) for s in sosk_family(3, 3)] == [[1, 2, 3]]
    assert [sorted(s) for s in sosk_family(4, 1)] == [[1], [2], [3], [4]]
    with pytest.raises(InputError):
        sosk_family(3, 4)


def test_sosk_junction_tree():
    t = sosk_junction_tree(5, 2)
    assert t.edges == ((0, 1), (1, 2), (2, 3))
    assert [sorted(t.mids[e]) for e in t.edges] == [[2], [3], [4]]
    assert sorted(sosk_junction_tree(4, 3).mids[(0, 1)]) == [2, 3]
    assert sorted(sosk_junction_tree(6, 5).mids[(0, 1)]) == [2, 3, 4, 5]
    for n, k in ((5, 2), (9, 4), (6, 5)):
        assert is_junction_tree(sosk_family(n, k), sosk_junction_tree(n, k))
    with pytest.raises(InputError):
        sosk_junction_tree(3, 3)


def test_sosk_base_cover_values():
    got = list(sosk_base_cover(2, 2))
    assert got == [
        Biclique(interval(1, 2), interval(4, 5)),
        Biclique(interval(1, 1), interval(3, 3)),
        Biclique(interval(3, 3), interval(5, 5)),
    ]
    assert list(sosk_base_cover(1, 2)) == [Biclique(interval(1, 1), interval(3, 3))]
    assert list(sosk_base_cover(1, 3)) == [Biclique(interval(1, 1), interval(4, 4))]
    with pytest.raises(InputError):
        sosk_base_cover(0, 2)
    with pytest.raises(InputError):
        sosk_base_cover(2, 1)


def test_sosk_base_cover_verifies_on_grid():
    for b in range(1, 5):
        for k in range(2, 7):
            n = 2**b + k - 1
            g = conflict_graph(sosk_family(n, k))
            cover = sosk_base_cover(b, k)
            assert len(cover) == 2**b - 1
            assert verify_cover(g, cover)


def test_sosk_merged_cover_values():
    got = list(sosk_merged_cover(2, 2))
    assert got == [
        Biclique(interval(1, 2), interval(4, 5)),
        Biclique(frozenset({1, 5}), frozenset({3})),
    ]
    assert len(sosk_merged_cover(2, 3)) == 3
    assert list(sosk_merged_cover(1, 2)) == [Biclique(interval(1, 1), interval(3, 3))]


def test_sosk_merged_cover_grid_properties():
    for b in range(1, 5):
        for k in range(2, 8):
            n = 2**b + k - 1
            cover = sosk_merged_cover(b, k)
            assert verify_cover(conflict_graph(sosk_family(n, k)), cover)
            lhs, bound = sosk_size_identity(b, k)
            assert len(cover) == lhs <= bound
            for bc in cover:
                dist = min(abs(u - v) for u in bc.side_a for v in bc.side_b)
                assert dist >= k


def test_sosk_cover_examples():
    assert len(sosk_cover(5, 2)) == 2
    ten_three = sosk_cover(10, 3)
    assert verify_cover(conflict_graph(sosk_family(10, 3)), ten_three)
    assert len(ten_three) <= 4
    tall = sosk_cover(6, 5)
    g = conflict_graph(sosk_family(6, 5))
    assert sorted(g.edges) == [(1, 6)]
    assert len(tall) >= 1 and verify_cover(g, tall)
    with pytest.raises(InputError):
        sosk_cover(5, 5)


def test_sosk_cover_k1_binary_labels():
    for n in (2, 3, 5, 8, 11):
        g = conflict_graph(sosk_family(n, 1))
        cover = sosk_cover(n, 1)
        assert verify_cover(g, cover)
        assert len(cover) == (n - 1).bit_length()


def test_conflict_graph_restriction_is_induced():
    # clipping the bigger instance's graph to a prefix yields the smaller one
    for k in (2, 3, 4):
        for n_small in (k + 1, k + 3):
            n_big = n_small + 5
            big = conflict_graph(sosk_family(n_big, k))
            small = conflict_graph(sosk_family(n_small, k))
            clipped = {
                (u, v) for u, v in big.edges if u <= n_small and v <= n_small
            }
            assert clipped == set(small.edges)


def test_sosk_size_identity():
    assert sosk_size_identity(3, 5) == (6, 6)
    assert sosk_size_identity(1, 2) == (1, 1)
    assert sosk_size_identity(10, 2) == (10, 10)


def test_merged_cover_count_equals_level_total_full_grid():
    # at the native size no side is ever empty, so the construction's member
    # count must equal the per-level total exactly (verification happens on
    # the small grid above; this one is count-only for speed)
    for b in range(1, 11):
        for k in range(2, 65):
            assert len(sosk_merged_cover(b, k)) == sosk_size_identity(b, k).lhs


def test_merge_period_matches_definition():
    for b in range(1, 8):
        for k in range(2, 20):
            for i in range(b):
                num = k - 1 + 2 ** (b - i - 1)
                den = 2 ** (b - i)
                assert sosk_merge_period(b, k, i) == -(-num // den)


def test_cover_beats_one_binary_per_window():
    # the worst-case formula can exceed one-per-window on thin instances
    # (e.g. n=5, k=4 bounds 3 > 2), but realized cover sizes never do;
    # on this grid they are strictly smaller throughout
    for k in range(2, 64):
        for n in range(k + 1, 65):
            size = len(sosk_cover(n, k))
            assert size < n - k + 1, (n, k, size)


def test_compare_bounds():
    assert compare_bounds(10, 3) == (4, 11, 10)
    assert compare_bounds(5, 2) == (2, 7, 5)
    ours, hv, kis = compare_bounds(100, 20)
    assert (ours, hv, kis) == (25, 62, 100)
    # the windowed-union comparison at the stated proportion
    c = Fraction(20, 7)
    assert Fraction(27, 62) < (c + 1) / (3 * c)
    assert Fraction(ours, hv) < (c + 1) / (3 * c)


def test_bound_violations_raise_invariant_error(monkeypatch, capsys):
    monkeypatch.setattr(sosk, "sosk_merge_period", lambda b, k, i: 2**b)
    with pytest.raises(InvariantError, match="exceeds bound 3"):
        sosk_size_identity(3, 2)
    # hv collapses to 3k = 6 while ours stays ceil(log2 99) = 7
    monkeypatch.setattr(sosk, "_ceil_div", lambda a, b: 2)
    with pytest.raises(InvariantError, match="expected 7 < 6"):
        compare_bounds(100, 2)
    assert main(["sosk", "--n", "100", "--k", "2", "--bounds", "--max-ground", "100"]) == 4
    assert "internal error: expected 7 < 6" in capsys.readouterr().err


def test_build_pwl_binary_counts():
    three = build_pwl([(0, 0), (1, 2), (2, 1)])
    assert len(three.binary_names()) == 1
    five = build_pwl([(0, 0), (1, 1), (2, 0), (3, 2), (4, 1)])
    assert len(five.binary_names()) == 2
    two = build_pwl([(0, 0), ("1/2", "3/4")])
    assert len(two.binary_names()) == 0
    with pytest.raises(InputError):
        build_pwl([(0, 0), (0, 1)])
    with pytest.raises(InputError):
        build_pwl([(0.5, 1), (1, 2)])  # floats are not exact
    with pytest.raises(InputError):
        build_pwl([(0, 0)])


def test_build_pwl_breakpoints_are_lists_or_tuples_of_two():
    with pytest.raises(InputError, match="got dict"):
        build_pwl([{"0": 5, "1": 7}, {"2": 1, "3": 0}])
    with pytest.raises(InputError, match="two coordinates, got 3"):
        build_pwl([(0, 1, 2), (1, 2, 3)])
    with pytest.raises(InputError, match="got str"):
        build_pwl(["01", "12"])
    mixed = build_pwl([[0, 0], ("1", "1/2")])
    assert mixed.to_json() == build_pwl([(0, 0), (1, Fraction(1, 2))]).to_json()


def test_pwl_definition_rows():
    f = build_pwl([(0, 0), (1, 2), (2, 1)])
    rows = {c.name: c for c in f.constraints}
    assert dict(rows["def_x"].terms) == {
        "x": Fraction(1),
        "lam_2": Fraction(-1),
        "lam_3": Fraction(-2),
    }
    assert dict(rows["def_y"].terms) == {
        "y": Fraction(1),
        "lam_2": Fraction(-2),
        "lam_3": Fraction(-1),
    }
