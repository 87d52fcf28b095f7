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

Order questions run on integers too.  The constructor sorts the distinct x
values and the distinct y values once, keyed by their canonical
``(numerator, denominator)`` so that equal values share one rank however
they were spelled, and stores each vertex's x rank and y rank beside its
homogeneous coordinates.  Ranks keep order and equality, so bounding boxes,
sweeps, bisections and span ends compare ``int``s with the outcomes the
values themselves would give: that one sort per axis is the only place a
``Fraction`` is compared, and no ``Fraction`` arithmetic or comparison runs
after construction.

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

from .cdc import IndexSetFamily, _exact_point, read_json
from .errors import DisconnectedPartitionError, InputError, InvariantError
from .jtree import _spanning_forest, is_junction_tree, maximum_spanning_tree_of

Point = tuple[Fraction, Fraction]
Ranks = tuple[tuple[int, ...], tuple[int, ...]]  # a polygon's vertex x ranks, then y ranks
Box = tuple[tuple[int, int], tuple[int, int]]  # ((xlo, xhi), (ylo, yhi)), closed, in ranks
Span = tuple[int, int, int]  # (lo, hi, tag): an interval's end ranks along one axis
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
    convex vertices (no repeats, no collinear triples).  Besides the exact
    points, a partition keeps per polygon its integer shape, its vertices'
    coordinate ranks, and its bounding box in ranks, together with the
    sweep axis of those boxes.
    """

    __slots__ = ("polygons", "_shapes", "_ranks", "_boxes", "_axis")

    def __init__(self, polygons: Sequence[Sequence[Sequence]]):
        if isinstance(polygons, (str, bytes)) or not hasattr(polygons, "__iter__"):
            raise InputError("polygons must be a list of vertex lists")
        fixed: list[tuple[Point, ...]] = []
        shapes: list[Shape] = []
        for poly in polygons:
            if isinstance(poly, (str, bytes)) or not hasattr(poly, "__iter__"):
                raise InputError("each polygon must be a list of (x, y) vertices")
            pts = tuple(map(_exact_point, poly))
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
        ranks = _rank(fixed)
        boxes = tuple(((min(xs), max(xs)), (min(ys), max(ys))) for xs, ys in ranks)
        axis = _sweep_axis(boxes)
        for i, j in _box_overlaps(boxes, axis):
            if not _interiors_disjoint(shapes[i], shapes[j]):
                raise InputError("polygon interiors overlap")
        self.polygons: tuple[tuple[Point, ...], ...] = tuple(fixed)
        self._shapes: tuple[Shape, ...] = tuple(shapes)
        self._ranks: tuple[Ranks, ...] = ranks
        self._boxes: tuple[Box, ...] = boxes
        self._axis: int = axis

    def __len__(self) -> int:
        return len(self.polygons)

    @classmethod
    def from_json(cls, text: str) -> "PlanarPartition":
        data = read_json(text)
        if not isinstance(data, dict) or "polygons" not in data:
            raise InputError('expected an object with a "polygons" key')
        return cls(data["polygons"])


def _rank(polygons: Sequence[tuple[Point, ...]]) -> tuple[Ranks, ...]:
    """Per polygon, its vertices' ranks among the partition's distinct x and y values.

    Values are keyed by ``(numerator, denominator)``, which a ``Fraction``
    keeps in lowest terms, so equal values get one rank without a
    ``Fraction`` comparison; sorting the distinct values is the only one.
    """
    ranks = []
    for axis in (0, 1):
        keyed = [[(pt[axis].numerator, pt[axis].denominator) for pt in poly] for poly in polygons]
        values = {
            key: pt[axis] for poly, keys in zip(polygons, keyed) for pt, key in zip(poly, keys)
        }
        rank = {key: r for r, key in enumerate(sorted(values, key=values.__getitem__))}
        ranks.append([tuple(map(rank.__getitem__, keys)) for keys in keyed])
    return tuple(zip(*ranks))


def _in_box(box: Box, at: tuple[int, int]) -> bool:
    """Whether the point of ranks ``at`` lies in the closed box."""
    (xlo, xhi), (ylo, yhi) = box
    return xlo <= at[0] <= xhi and ylo <= at[1] <= yhi


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


def _overlaps(spans: Iterable[Span]) -> Iterator[tuple[int, int]]:
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


def _box_overlaps(boxes: Sequence[Box], axis: int) -> Iterator[tuple[int, int]]:
    """Ordinal pairs ``(i, j)``, ``i < j``, whose boxes meet in open interiors.

    Only these pairs can overlap: a coordinate axis that separates two boxes
    is itself a separating axis of the polygons inside them.  The boxes are
    swept along ``axis``.
    """
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
    in its bounding box, found by bisection along the sweep axis.  Boxes,
    axis and bisection keys are the partition's coordinate ranks.
    """
    index_of: dict[Hom, int] = {}
    points: dict[int, Point] = {}
    at: list[tuple[int, int]] = [(-1, -1)]  # at[i]: the ranks of pooled vertex i, from 1
    owned = []
    for poly, (hs, _), (xs, ys) in zip(p.polygons, p._shapes, p._ranks):
        for pt, h, here in zip(poly, hs, zip(xs, ys)):
            if h not in index_of:
                index_of[h] = len(at)
                points[len(at)] = pt
                at.append(here)
        owned.append({index_of[h] for h in hs})
    axis = p._axis
    ranked = sorted(index_of.items(), key=lambda item: at[item[1]][axis])
    keys = [at[i][axis] for _, i in ranked]
    sets = []
    for shape, box, own in zip(p._shapes, p._boxes, owned):
        lo, hi = box[axis]
        sets.append(
            sorted(
                i
                for h, i in ranked[bisect_left(keys, lo) : bisect_right(keys, hi)]
                if i in own or (_in_box(box, at[i]) and _contains(shape, h))
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
    edge's interval is taken along y, else along x, as the ranks of its ends.
    """
    lines: dict[Line, list[Span]] = {}
    for i, ((_, edge_lines), (xs, ys)) in enumerate(zip(p._shapes, p._ranks)):
        for s, (la, lb, lc) in enumerate(edge_lines):
            g = gcd(la, lb, lc)
            if la < 0 or (la == 0 and lb < 0):
                g = -g
            ends = xs if lb else ys
            a, b = ends[s], ends[(s + 1) % len(ends)]
            span = (a, b, i) if a < b else (b, a, i)
            lines.setdefault((la // g, lb // g, lc // g), []).append(span)
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
    spanning-tree weight of its intersection graph is pinned at 2(d - 1).
    ``jtree_cont`` and ``disjoint_cont`` count all copies, the original
    indices included, unlike ``variable_accounting``; with all-triangle
    partitions they are d + 2 against 3d.
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
