from collections import Counter
from fractions import Fraction

import pytest

from cdcmip import (
    DisconnectedPartitionError,
    InputError,
    InvariantError,
    geom,
    is_pairwise_ib_representable,
    minimal_infeasible_sets,
)
from cdcmip.geom import (
    PlanarPartition,
    dual_graph,
    is_connected_partition,
    partition_to_cdc,
    savings_report,
)
from cdcmip.jtree import CandidateTree, maximum_spanning_tree_of
from conftest import ring8, triangle_strip

TWO_TRIANGLES = [[(0, 0), (2, 0), (1, 1)], [(0, 0), (1, 1), (-1, 1)]]


def test_partition_validation():
    with pytest.raises(InputError):
        PlanarPartition([[(0, 0), (1, 0)]])  # too few vertices
    with pytest.raises(InputError):
        PlanarPartition([[(0, 0), (1, 1), (2, 2)]])  # collinear
    with pytest.raises(InputError):
        PlanarPartition([[(0, 0), (1, 1), (2, 0)]])  # clockwise
    with pytest.raises(InputError):
        PlanarPartition([[(0, 0), (2, 0), (2, 0), (1, 1)]])  # repeated vertex
    with pytest.raises(InputError):
        PlanarPartition([[(0, 0), (4, 0), (2, 2)], [(1, 0), (3, 0), (2, 1)]])  # overlap
    with pytest.raises(InputError):
        PlanarPartition([[(0.5, 0), (1, 0), (1, 1)]])  # float coordinate


def test_partition_vertices_are_lists_or_tuples_of_two():
    for vertex in ({"x": 1, "y": 0}, (1, 0, 0), (1,), "10", b"10", 1):
        with pytest.raises(InputError, match="point"):
            PlanarPartition([[(0, 0), vertex, (0, 1)]])
    assert PlanarPartition([[[0, 0], [1, 0], (0, 1)]]).polygons[0][1] == (1, 0)


def test_partition_accepts_exact_strings():
    p = PlanarPartition([[("0", "0"), ("1/2", "0"), ("1/4", "3/4")]])
    assert p.polygons[0][1] == (Fraction(1, 2), Fraction(0))


def test_partition_to_cdc_shared_edge():
    fam, points = partition_to_cdc(PlanarPartition(TWO_TRIANGLES))
    assert len(points) == 4
    assert [len(s) for s in fam.sets] == [3, 3]
    assert len(fam.sets[0] & fam.sets[1]) == 2


def test_partition_to_cdc_single_triangle():
    fam, points = partition_to_cdc(PlanarPartition([[(0, 0), (2, 0), (1, 1)]]))
    assert len(fam) == 1 and sorted(fam.sets[0]) == [1, 2, 3]


def test_partition_to_cdc_vertex_on_other_boundary():
    # the second square's corner splits the first square's edge, so it joins
    # the first member set too
    p = PlanarPartition(
        [
            [(0, 0), (2, 0), (2, 2), (0, 2)],
            [(2, 1), (4, 1), (4, 3), (2, 3)],
        ]
    )
    fam, points = partition_to_cdc(p)
    corner = next(i for i, pt in points.items() if pt == (Fraction(2), Fraction(1)))
    assert corner in fam.sets[0] and corner in fam.sets[1]


def test_ring8_structure():
    fam, _ = partition_to_cdc(ring8())
    assert len(fam) == 8
    assert not is_pairwise_ib_representable(fam)
    triples = [s for s in minimal_infeasible_sets(fam) if len(s) == 3]
    assert triples  # the hole's three corners are jointly infeasible


def test_dual_graph():
    assert dual_graph(PlanarPartition(TWO_TRIANGLES)) == {(0, 1)}
    point_touch = PlanarPartition([[(0, 0), (2, 0), (1, 1)], [(1, 1), (3, 1), (2, 2)]])
    assert dual_graph(point_touch) == frozenset()
    ring = ring8()
    edges = dual_graph(ring)
    assert len(edges) == 8 and is_connected_partition(ring)


def test_dual_graph_partial_edge_overlap():
    # collinear overlap without shared endpoints still counts as adjacency
    p = PlanarPartition(
        [
            [(0, 0), (4, 0), (4, 1), (0, 1)],
            [(1, -2), (3, -2), (3, 0), (1, 0)],
        ]
    )
    assert dual_graph(p) == {(0, 1)}


def test_savings_report_strips():
    r2 = savings_report(triangle_strip(2))
    assert (r2.cont_saved, r2.jtree_cont, r2.disjoint_cont) == (2, 4, 6)
    r5 = savings_report(triangle_strip(5))
    assert (r5.cont_saved, r5.jtree_cont, r5.disjoint_cont) == (8, 7, 15)
    assert r5.jtree_found


def test_savings_report_needs_connectivity():
    point_touch = PlanarPartition([[(0, 0), (2, 0), (1, 1)], [(1, 1), (3, 1), (2, 2)]])
    with pytest.raises(DisconnectedPartitionError):
        savings_report(point_touch)


def test_strip_mst_weight_matches_dual_tree():
    for d in range(2, 13):
        fam, _ = partition_to_cdc(triangle_strip(d))
        assert maximum_spanning_tree_of(fam).weight == 2 * (d - 1)


def test_rotation_invariance():
    base = PlanarPartition(TWO_TRIANGLES)
    rotated = PlanarPartition(
        [[(1, 1), (0, 0), (2, 0)], [(1, 1), (-1, 1), (0, 0)]]
    )
    fam_a, pts_a = partition_to_cdc(base)
    fam_b, pts_b = partition_to_cdc(rotated)
    as_points_a = {frozenset(pts_a[i] for i in s) for s in fam_a.sets}
    as_points_b = {frozenset(pts_b[i] for i in s) for s in fam_b.sets}
    assert as_points_a == as_points_b


def test_partition_json():
    text = '{"polygons": [[["0", "0"], ["2", "0"], ["1", "1"]]]}'
    p = PlanarPartition.from_json(text)
    assert len(p) == 1
    with pytest.raises(InputError):
        PlanarPartition.from_json('{"polygons": "nope"}')
    with pytest.raises(InputError):
        PlanarPartition.from_json("[]")


def mirrored(polys):
    """Reflection across y = x; reversing the vertex order keeps it counterclockwise."""
    return [[(y, x) for x, y in reversed(poly)] for poly in polys]


@pytest.mark.parametrize("mirror", [False, True], ids=["horizontal", "vertical"])
def test_front_end_work_grows_linearly(monkeypatch, mirror):
    # All-pairs scans make about d**2 / 2 overlap tests and 3 * d**2
    # containment tests here.  The pairs the sweeps yield and the box tests
    # of pooled points also stay linear only when the vertical strip is swept
    # along y.
    d = 2000
    polys = [list(poly) for poly in triangle_strip(d).polygons]
    if mirror:
        polys = mirrored(polys)
    calls = Counter()
    for name in ("_interiors_disjoint", "_contains", "_in_box"):
        def counted(*args, name=name, test=getattr(geom, name)):
            calls[name] += 1
            return test(*args)

        monkeypatch.setattr(geom, name, counted)

    def counted_overlaps(spans, sweep=geom._overlaps):
        for pair in sweep(spans):
            calls["_overlaps"] += 1
            yield pair

    monkeypatch.setattr(geom, "_overlaps", counted_overlaps)
    part = PlanarPartition(polys)
    partition_to_cdc(part)
    assert dual_graph(part) == {(i, i + 1) for i in range(d - 1)}
    assert all(calls[name] <= 4 * d for name in calls), calls


def sheared_strip(d):
    """A triangle strip under a rational shear, with every coordinate written as a string."""
    def shear(x, y):
        return Fraction(x, 3) + Fraction(y, 7), Fraction(y, 2) - Fraction(x, 12) + Fraction(5, 11)

    return [
        [tuple(map(str, shear(x, y))) for x, y in poly]
        for poly in triangle_strip(d).polygons
    ]


def test_no_fraction_arithmetic_after_parsing(monkeypatch):
    # Every sign test and edge line runs on the integer coordinates made once
    # per vertex; Fraction is only parsed and compared.
    d = 200

    polys = sheared_strip(d)
    calls = Counter()
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__"):
        def counted(a, b, name=name, op=getattr(Fraction, name)):
            calls[name] += 1
            return op(a, b)

        monkeypatch.setattr(Fraction, name, counted)
    assert Fraction(1, 2) * 3 - 1 == Fraction(1, 2) and calls == {"__mul__": 1, "__sub__": 1}
    calls.clear()
    part = PlanarPartition(polys)
    family, points = partition_to_cdc(part)
    edges = dual_graph(part)
    report = savings_report(part)
    assert not calls, calls
    monkeypatch.undo()
    assert edges == {(i, i + 1) for i in range(d - 1)}
    assert len(points) == d + 2 and [len(s) for s in family.sets] == [3] * d
    assert (report.jtree_found, report.cont_saved) == (True, 2 * (d - 1))


def test_fraction_comparisons_only_rank_the_coordinates(monkeypatch):
    # Construction sorts the distinct x values and the distinct y values once;
    # boxes, sweeps, bisections and span ends then compare integer ranks.
    # Equal values parsed from separate strings are distinct objects, so even
    # telling them equal must not fall back to Fraction.__eq__.
    d = 200
    polys = sheared_strip(d)
    distinct = [
        list(dict.fromkeys(Fraction(pt[axis]) for poly in polys for pt in poly))
        for axis in (0, 1)
    ]
    calls = Counter()
    for name in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__"):
        def counted(a, b, name=name, op=getattr(Fraction, name)):
            calls[name] += 1
            return op(a, b)

        monkeypatch.setattr(Fraction, name, counted)
    assert Fraction(1, 2) < 1 and calls == {"__lt__": 1}
    calls.clear()
    for values in distinct:
        sorted(values)
    budget = sum(calls.values())
    calls.clear()
    part = PlanarPartition(polys)
    assert sum(calls.values()) <= budget, (calls, budget)
    calls.clear()
    family, points = partition_to_cdc(part)
    edges = dual_graph(part)
    report = savings_report(part)
    assert not calls, calls
    monkeypatch.undo()
    assert edges == {(i, i + 1) for i in range(d - 1)}
    assert len(points) == d + 2 and [len(s) for s in family.sets] == [3] * d
    assert (report.jtree_found, report.cont_saved) == (True, 2 * (d - 1))


def test_savings_report_checks_its_saving_and_triangle_totals(monkeypatch):
    strip = triangle_strip(4)
    # A star from the first set weighs less than the pinned 2(d - 1).
    star = lambda family: CandidateTree(family, [(0, i) for i in range(1, len(family))])
    monkeypatch.setattr(geom, "maximum_spanning_tree_of", star)
    with pytest.raises(InvariantError, match="expected a saving of 6"):
        savings_report(strip)
    monkeypatch.undo()
    real = geom.SavingsReport
    off = lambda **kw: real(**{**kw, "disjoint_cont": kw["disjoint_cont"] + 1})
    monkeypatch.setattr(geom, "SavingsReport", off)
    with pytest.raises(InvariantError, match="triangle-partition totals"):
        savings_report(strip)
