"""Planar partition front end: polygons in, disjunctive constraint out.

Coordinates are exact rationals throughout; adjacency and containment are
decided by sign tests, never by tolerances.  A partition's polygons pool
their vertices: each member set holds every pooled vertex lying in that
polygon, boundary included, which is what makes shared edges translate
into heavy intersection-graph edges.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .cdc import IndexSetFamily
from .errors import DisconnectedPartitionError, InputError, InvariantError
from .sosk import exact_coordinate
from .transform import variable_accounting
from .jtree import _spanning_forest, admits_junction_tree, maximum_spanning_tree_of

Point = tuple[Fraction, Fraction]


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
        for p, q in combinations(fixed, 2):
            if not _interiors_disjoint(p, q):
                raise InputError("polygon interiors overlap")
        self.polygons: tuple[tuple[Point, ...], ...] = tuple(fixed)

    def __len__(self) -> int:
        return len(self.polygons)

    @classmethod
    def from_json(cls, text: str) -> "PlanarPartition":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON: {exc}") from exc
        if not isinstance(data, dict) or "polygons" not in data:
            raise InputError('expected an object with a "polygons" key')
        return cls(data["polygons"])


def _project(poly: tuple[Point, ...], axis: Point) -> tuple[Fraction, Fraction]:
    values = [axis[0] * x + axis[1] * y for x, y in poly]
    return min(values), max(values)


def _interiors_disjoint(p: tuple[Point, ...], q: tuple[Point, ...]) -> bool:
    """Separating-axis test over both polygons' edge normals, touching allowed."""
    for poly in (p, q):
        m = len(poly)
        for i in range(m):
            ax, ay = poly[(i + 1) % m][0] - poly[i][0], poly[(i + 1) % m][1] - poly[i][1]
            normal = (-ay, ax)
            plo, phi = _project(p, normal)
            qlo, qhi = _project(q, normal)
            if phi <= qlo or qhi <= plo:
                return True
    return False


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
    joins that polygon's set as well.
    """
    index_of: dict[Point, int] = {}
    for poly in p.polygons:
        for pt in poly:
            if pt not in index_of:
                index_of[pt] = len(index_of) + 1
    points = {i: pt for pt, i in index_of.items()}
    sets = []
    for poly in p.polygons:
        sets.append(sorted(i for i, pt in points.items() if _contains(poly, pt)))
    return IndexSetFamily(sets), points


def _segments_overlap(a: Point, b: Point, c: Point, d: Point) -> bool:
    """Collinear segments sharing more than a point."""
    if _cross(a, b, c) != 0 or _cross(a, b, d) != 0:
        return False
    axis = 0 if a[0] != b[0] else 1
    lo1, hi1 = sorted((a[axis], b[axis]))
    lo2, hi2 = sorted((c[axis], d[axis]))
    return max(lo1, lo2) < min(hi1, hi2)


def dual_graph(p: PlanarPartition) -> frozenset[tuple[int, int]]:
    """Pairs of polygon ordinals whose boundaries share a nondegenerate segment."""
    edges = set()
    for (i, poly_a), (j, poly_b) in combinations(enumerate(p.polygons), 2):
        found = False
        ma, mb = len(poly_a), len(poly_b)
        for s in range(ma):
            for t in range(mb):
                if _segments_overlap(
                    poly_a[s],
                    poly_a[(s + 1) % ma],
                    poly_b[t],
                    poly_b[(t + 1) % mb],
                ):
                    found = True
                    break
            if found:
                break
        if found:
            edges.add((i, j))
    return frozenset(edges)


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
    acc = variable_accounting(family)
    saved = acc.extended_disjoint_cont - acc.extended_jtree_cont
    if saved != 2 * (d - 1) and d > 1:
        raise InvariantError(
            f"expected a saving of {2 * (d - 1)} continuous variables, got {saved}"
        )
    total = sum(len(s) for s in family.sets)
    mst_weight = maximum_spanning_tree_of(family).weight
    report = SavingsReport(
        d=d,
        jtree_found=admits_junction_tree(family) is not None,
        cont_saved=saved,
        jtree_cont=total - mst_weight,
        disjoint_cont=total,
    )
    if all(len(poly) == 3 for poly in p.polygons) and all(
        len(s) == 3 for s in family.sets
    ):
        if report.jtree_cont != d + 2 or report.disjoint_cont != 3 * d:
            raise InvariantError("triangle-partition totals are off")
    return report
