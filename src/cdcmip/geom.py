"""Planar partition front end: polygons in, disjunctive constraint out.

Coordinates are exact rationals; adjacency and containment are decided by
sign tests, never by tolerances.  A partition's polygons pool their
vertices: each member set holds every pooled vertex lying in that polygon,
boundary included, which is what makes shared edges translate into heavy
intersection-graph edges.

The sign tests run on integers.  Each vertex is converted once into
homogeneous coordinates ``h = (X, Y, W)``: ``W`` is the least common
multiple of its own two denominators, so ``W > 0``, the triple is canonical
and ``(X / W, Y / W)`` is the point.  Each edge ``(a, b)`` keeps the line
``L = h(a) x h(b)``, and ``L . h(p)`` has the sign of the turn
``a -> b -> p`` (it is that turn times three positive weights).  So every
convexity, overlap and containment test is three integer products, edges
are bucketed by their line divided by the gcd of its coefficients, pooled
vertices are keyed by ``h``, and no ``Fraction`` arithmetic runs after
parsing.  The integers are as long as a vertex's own digits: there is no
partition-wide common denominator, whose length would grow with the number
of points.

No step tests all pairs.  Bounding boxes swept along one axis pick the
polygon pairs that the overlap test sees and the pooled vertices that the
containment test sees; edges bucketed by supporting line pick the pairs
that can share a segment.  The sign tests still decide every case.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

from .cdc import IndexSetFamily, read_json
from .errors import DisconnectedPartitionError, InputError, InvariantError
from .sosk import exact_coordinate
from .jtree import _spanning_forest, is_junction_tree, maximum_spanning_tree_of

Point = tuple[Fraction, Fraction]
Box = tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]
Hom = tuple[int, int, int]  # (X, Y, W) with W > 0: the point (X / W, Y / W)
Line = tuple[int, int, int]  # (A, B, C): the points with A x + B y + C = 0
Shape = tuple[tuple[Hom, ...], tuple[Line, ...]]  # vertices, then edge s's line


def _homogeneous(pt: Point) -> Hom:
    x, y = pt
    w = lcm(x.denominator, y.denominator)
    return x.numerator * (w // x.denominator), y.numerator * (w // y.denominator), w


def _shape(poly: Sequence[Point]) -> Shape:
    """The vertices in homogeneous coordinates and, per edge, the line ``h(a) x h(b)``.

    Edge ``s`` runs from vertex ``s`` to the next one, and a point ``h`` is
    left of it, on it or right of it as ``A X + B Y + C W`` is positive,
    zero or negative.
    """
    hs = tuple(map(_homogeneous, poly))
    lines = tuple(
        (ay * bw - aw * by, aw * bx - ax * bw, ax * by - ay * bx)
        for (ax, ay, aw), (bx, by, bw) in zip(hs, hs[1:] + hs[:1])
    )
    return hs, lines


class PlanarPartition:
    """Convex polygons with pairwise disjoint interiors.

    Each polygon is a counterclockwise list of at least three strictly
    convex vertices (no repeats, no collinear triples).
    """

    __slots__ = ("polygons", "_shapes")

    def __init__(self, polygons: Sequence[Sequence[Sequence]]):
        if isinstance(polygons, (str, bytes)) or not hasattr(polygons, "__iter__"):
            raise InputError("polygons must be a list of vertex lists")
        fixed: list[tuple[Point, ...]] = []
        shapes: list[Shape] = []
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
            shape = _shape(pts)
            hs, lines = shape
            if len(set(hs)) != len(hs):
                raise InputError("polygon repeats a vertex")
            # The turn at vertex s + 1 is the side of vertex s + 2 of edge s.
            for (a, b, c), (x, y, w) in zip(lines, hs[2:] + hs[:2]):
                turn = a * x + b * y + c * w
                if turn == 0:
                    raise InputError("polygon has collinear consecutive vertices")
                if turn < 0:
                    raise InputError("polygon must be convex and counterclockwise")
            fixed.append(pts)
            shapes.append(shape)
        if not fixed:
            raise InputError("a partition needs at least one polygon")
        for i, j in _box_overlaps([_box(poly) for poly in fixed]):
            if not _interiors_disjoint(shapes[i], shapes[j]):
                raise InputError("polygon interiors overlap")
        self.polygons: tuple[tuple[Point, ...], ...] = tuple(fixed)
        self._shapes: tuple[Shape, ...] = tuple(shapes)

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


def _interiors_disjoint(p: Shape, q: Shape) -> bool:
    """Whether some edge of either polygon has the other on or beyond its line.

    The test is exact: two convex polygons with disjoint interiors are
    separated by the line through an edge of one of them.  (Their
    difference P - Q is a convex polygon whose edges run along edges of P
    and of Q, and the origin lies outside its interior exactly when it is
    on or beyond the line of one of those edges.)  Touching is allowed.
    """
    return any(
        all(a * x + b * y + c * w <= 0 for x, y, w in other[0])
        for poly, other in ((p, q), (q, p))
        for a, b, c in poly[1]
    )


def _contains(shape: Shape, h: Hom) -> bool:
    """Boundary-inclusive membership in a counterclockwise convex polygon."""
    x, y, w = h
    return all(a * x + b * y + c * w >= 0 for a, b, c in shape[1])


def partition_to_cdc(
    p: PlanarPartition,
) -> tuple[IndexSetFamily, dict[int, Point]]:
    """Index the pooled vertices and collect, per polygon, every one it contains.

    Indices are assigned in first-seen order scanning polygons and their
    vertex lists, keyed by homogeneous coordinates; a vertex of one polygon
    that lies on another's boundary joins that polygon's set as well.  A
    polygon holds its own vertices; of the other points it tests only those
    in its bounding box, found by bisection along the sweep axis.
    """
    index_of: dict[Hom, int] = {}
    points: dict[int, Point] = {}
    owned = []
    for poly, (hs, _) in zip(p.polygons, p._shapes):
        for pt, h in zip(poly, hs):
            if h not in index_of:
                index_of[h] = len(index_of) + 1
                points[len(index_of)] = pt
        owned.append({index_of[h] for h in hs})
    boxes = [_box(poly) for poly in p.polygons]
    axis = _sweep_axis(boxes)
    ranked = sorted(index_of.items(), key=lambda item: points[item[1]][axis])
    keys = [points[i][axis] for _, i in ranked]
    sets = []
    for shape, box, own in zip(p._shapes, boxes, owned):
        lo, hi = box[axis]
        sets.append(
            sorted(
                i
                for h, i in ranked[bisect_left(keys, lo) : bisect_right(keys, hi)]
                if i in own or (_in_box(box, points[i]) and _contains(shape, h))
            )
        )
    return IndexSetFamily(sets), points


def dual_graph(p: PlanarPartition) -> frozenset[tuple[int, int]]:
    """Pairs of polygon ordinals whose boundaries share a nondegenerate segment.

    Two edges share one exactly when they lie on one line and their
    intervals along it overlap in more than a point, so edges are bucketed
    by supporting line and each bucket is swept: O(E log E + output) for E
    polygon edges.  An edge's line divided by the gcd of its coefficients,
    with the first nonzero one made positive, is the same integer triple for
    every edge on that line; it is vertical when ``B = 0``, and then the
    edge's interval is taken along y, else along x.
    """
    lines: dict[Line, list[tuple[Fraction, Fraction, int]]] = {}
    for i, (poly, (_, edge_lines)) in enumerate(zip(p.polygons, p._shapes)):
        for a, b, (la, lb, lc) in zip(poly, poly[1:] + poly[:1], edge_lines):
            g = gcd(la, lb, lc)
            if la < 0 or (la == 0 and lb < 0):
                g = -g
            axis = 0 if lb else 1
            lo, hi = sorted((a[axis], b[axis]))
            lines.setdefault((la // g, lb // g, lc // g), []).append((lo, hi, i))
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
