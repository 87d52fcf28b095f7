"""Planar partition front end: polygons in, disjunctive constraint out.

Coordinates are exact rationals throughout; adjacency and containment are
decided by sign tests, never by tolerances.  A partition's polygons pool
their vertices: each member set holds every pooled vertex lying in that
polygon, boundary included, which is what makes shared edges translate
into heavy intersection-graph edges.

No step tests all pairs.  Bounding boxes swept along one axis pick the
polygon pairs that the overlap test sees and the pooled vertices that the
containment test sees; edges bucketed by exact supporting line pick the
pairs that can share a segment.  The sign tests still decide every case.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .cdc import IndexSetFamily, read_json
from .errors import DisconnectedPartitionError, InputError, InvariantError
from .sosk import exact_coordinate
from .jtree import _spanning_forest, is_junction_tree, maximum_spanning_tree_of

Point = tuple[Fraction, Fraction]
Box = tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]


def _cross(o: Point, a: Point, b: Point) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


class PlanarPartition:
    """Convex polygons with pairwise disjoint interiors.

    Each polygon is a counterclockwise list of at least three strictly
    convex vertices (no repeats, no collinear triples).
    """

    __slots__ = ("polygons",)

    def __init__(self, polygons: Sequence[Sequence[Sequence]]):
        if isinstance(polygons, (str, bytes)) or not hasattr(polygons, "__iter__"):
            raise InputError("polygons must be a list of vertex lists")
        fixed: list[tuple[Point, ...]] = []
        for poly in polygons:
            if isinstance(poly, (str, bytes)) or not hasattr(poly, "__iter__"):
                raise InputError("each polygon must be a list of (x, y) vertices")
            pts = []
            for pt in poly:
                if isinstance(pt, (str, bytes)) or not hasattr(pt, "__len__") or len(pt) != 2:
                    raise InputError("each vertex must be an (x, y) pair")
                pts.append((exact_coordinate(pt[0]), exact_coordinate(pt[1])))
            pts = tuple(pts)
            if len(pts) < 3:
                raise InputError("polygons need at least three vertices")
            if len(set(pts)) != len(pts):
                raise InputError("polygon repeats a vertex")
            m = len(pts)
            for i in range(m):
                turn = _cross(pts[i], pts[(i + 1) % m], pts[(i + 2) % m])
                if turn == 0:
                    raise InputError("polygon has collinear consecutive vertices")
                if turn < 0:
                    raise InputError("polygon must be convex and counterclockwise")
            fixed.append(pts)
        if not fixed:
            raise InputError("a partition needs at least one polygon")
        for i, j in _box_overlaps([_box(poly) for poly in fixed]):
            if not _interiors_disjoint(fixed[i], fixed[j]):
                raise InputError("polygon interiors overlap")
        self.polygons: tuple[tuple[Point, ...], ...] = tuple(fixed)

    def __len__(self) -> int:
        return len(self.polygons)

    @classmethod
    def from_json(cls, text: str) -> "PlanarPartition":
        data = read_json(text)
        if not isinstance(data, dict) or "polygons" not in data:
            raise InputError('expected an object with a "polygons" key')
        return cls(data["polygons"])


def _box(poly: tuple[Point, ...]) -> Box:
    """``((xmin, xmax), (ymin, ymax))``: the closed bounding box."""
    xs = [x for x, _ in poly]
    ys = [y for _, y in poly]
    return (min(xs), max(xs)), (min(ys), max(ys))


def _in_box(box: Box, pt: Point) -> bool:
    (xlo, xhi), (ylo, yhi) = box
    return xlo <= pt[0] <= xhi and ylo <= pt[1] <= yhi


def _sweep_axis(boxes: Sequence[Box]) -> int:
    """The axis, 0 for x or 1 for y, along which fewer pairs of boxes overlap.

    A polygon's extent along either axis has positive length, so a pair of
    boxes is separated along an axis one way round at most.  Bisecting every
    low end into the sorted high ends counts the separated pairs in
    O(d log d); ties go to x.
    """
    separated = []
    for axis in (0, 1):
        highs = sorted(box[axis][1] for box in boxes)
        separated.append(sum(bisect_right(highs, box[axis][0]) for box in boxes))
    return 0 if separated[0] >= separated[1] else 1


def _overlaps(spans: Iterable[tuple[Fraction, Fraction, int]]) -> Iterator[tuple[int, int]]:
    """Tag pairs of the spans ``(lo, hi, tag)`` whose open intervals meet.

    Spans are taken in order of their low end, and each is paired with the
    later ones that start before it ends: O(n log n + output).
    """
    spans = sorted(spans)
    for k, (_, hi, a) in enumerate(spans):
        for k2 in range(k + 1, len(spans)):
            lo, _, b = spans[k2]
            if lo >= hi:
                break
            yield a, b


def _box_overlaps(boxes: Sequence[Box]) -> Iterator[tuple[int, int]]:
    """Ordinal pairs ``(i, j)``, ``i < j``, whose boxes meet in open interiors.

    Only these pairs can overlap: a coordinate axis that separates two boxes
    is itself a separating axis of the polygons inside them.
    """
    axis = _sweep_axis(boxes)
    other = 1 - axis
    for i, j in _overlaps((box[axis][0], box[axis][1], i) for i, box in enumerate(boxes)):
        (lo_i, hi_i), (lo_j, hi_j) = boxes[i][other], boxes[j][other]
        if lo_i < hi_j and lo_j < hi_i:
            yield min(i, j), max(i, j)


def _interiors_disjoint(p: tuple[Point, ...], q: tuple[Point, ...]) -> bool:
    """Whether some edge of either polygon has the other on or beyond its line.

    The test is exact: two convex polygons with disjoint interiors are
    separated by the line through an edge of one of them.  (Their
    difference P - Q is a convex polygon whose edges run along edges of P
    and of Q, and the origin lies outside its interior exactly when it is
    on or beyond the line of one of those edges.)  Touching is allowed.
    """
    return any(
        all(_cross(a, b, pt) <= 0 for pt in other)
        for poly, other in ((p, q), (q, p))
        for a, b in zip(poly, poly[1:] + poly[:1])
    )


def _contains(poly: tuple[Point, ...], pt: Point) -> bool:
    """Boundary-inclusive membership in a counterclockwise convex polygon."""
    m = len(poly)
    return all(_cross(poly[i], poly[(i + 1) % m], pt) >= 0 for i in range(m))


def partition_to_cdc(
    p: PlanarPartition,
) -> tuple[IndexSetFamily, dict[int, Point]]:
    """Index the pooled vertices and collect, per polygon, every one it contains.

    Indices are assigned in first-seen order scanning polygons and their
    vertex lists; a vertex of one polygon that lies on another's boundary
    joins that polygon's set as well.  A polygon holds its own vertices;
    of the other points it tests only those in its bounding box, found by
    bisection along the sweep axis.
    """
    index_of: dict[Point, int] = {}
    owned = []
    for poly in p.polygons:
        owned.append({index_of.setdefault(pt, len(index_of) + 1) for pt in poly})
    points = {i: pt for pt, i in index_of.items()}
    boxes = [_box(poly) for poly in p.polygons]
    axis = _sweep_axis(boxes)
    ranked = sorted(points.items(), key=lambda item: item[1][axis])
    keys = [pt[axis] for _, pt in ranked]
    sets = []
    for poly, box, own in zip(p.polygons, boxes, owned):
        lo, hi = box[axis]
        sets.append(
            sorted(
                i
                for i, pt in ranked[bisect_left(keys, lo) : bisect_right(keys, hi)]
                if i in own or (_in_box(box, pt) and _contains(poly, pt))
            )
        )
    return IndexSetFamily(sets), points


def _supporting_line(a: Point, b: Point) -> tuple[tuple, int]:
    """Exact key of the line through ``a`` and ``b``, and the axis it runs along.

    The key is ``(slope, intercept)`` with the x axis, or ``(None, x)`` with
    the y axis for a vertical line.
    """
    if a[0] == b[0]:
        return (None, a[0]), 1
    slope = (b[1] - a[1]) / (b[0] - a[0])
    return (slope, a[1] - slope * a[0]), 0


def dual_graph(p: PlanarPartition) -> frozenset[tuple[int, int]]:
    """Pairs of polygon ordinals whose boundaries share a nondegenerate segment.

    Two edges share one exactly when they lie on one line and their
    intervals along it overlap in more than a point, so edges are bucketed
    by supporting line and each bucket is swept: O(E log E + output) for E
    polygon edges.
    """
    lines: dict[tuple, list[tuple[Fraction, Fraction, int]]] = {}
    for i, poly in enumerate(p.polygons):
        m = len(poly)
        for s in range(m):
            a, b = poly[s], poly[(s + 1) % m]
            key, axis = _supporting_line(a, b)
            lo, hi = sorted((a[axis], b[axis]))
            lines.setdefault(key, []).append((lo, hi, i))
    return frozenset(
        (min(i, j), max(i, j))
        for spans in lines.values()
        for i, j in _overlaps(spans)
        if i != j
    )


def is_connected_partition(p: PlanarPartition) -> bool:
    return len(_spanning_forest(len(p), dual_graph(p))) == len(p) - 1


@dataclass(frozen=True)
class SavingsReport:
    d: int
    jtree_found: bool
    cont_saved: int
    jtree_cont: int
    disjoint_cont: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "d": self.d,
                "jtree_found": self.jtree_found,
                "cont_saved": self.cont_saved,
                "jtree_cont": self.jtree_cont,
                "disjoint_cont": self.disjoint_cont,
            },
            sort_keys=True,
        )


def savings_report(p: PlanarPartition) -> SavingsReport:
    """Continuous-variable accounting of the two extended routes on a partition.

    Requires a connected dual graph.  A connected partition always saves
    exactly twice (d - 1) continuous variables on the tree route, because the
    spanning-tree weight of its intersection graph is pinned at 2(d - 1);
    with all-triangle partitions the totals are d + 2 against 3d.
    """
    if not is_connected_partition(p):
        raise DisconnectedPartitionError(
            "dual graph is disconnected; the savings statement needs connectivity"
        )
    family, _ = partition_to_cdc(p)
    d = len(p)
    # The tree route spends the disjoint route's continuous variables minus
    # the maximum spanning tree's weight, so that weight is the saving.
    tree = maximum_spanning_tree_of(family)
    saved = tree.weight
    if saved != 2 * (d - 1) and d > 1:
        raise InvariantError(
            f"expected a saving of {2 * (d - 1)} continuous variables, got {saved}"
        )
    total = sum(len(s) for s in family.sets)
    report = SavingsReport(
        d=d,
        jtree_found=is_junction_tree(family, tree),
        cont_saved=saved,
        jtree_cont=total - saved,
        disjoint_cont=total,
    )
    if all(len(poly) == 3 for poly in p.polygons) and all(
        len(s) == 3 for s in family.sets
    ):
        if report.jtree_cont != d + 2 or report.disjoint_cont != 3 * d:
            raise InvariantError("triangle-partition totals are off")
    return report
