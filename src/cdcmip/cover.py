"""Biclique covers of conflict graphs via junction-tree separation and merging.

Cutting any edge of a junction tree yields a biclique of the conflict graph:
take the index unions of the two sides and strip the edge's middle set.
Recursing on both sides covers every conflict edge with at most one biclique
per tree edge; a greedy second pass then merges compatible bicliques to
shrink the cover.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from operator import and_
from typing import Iterable, Sequence

from .cdc import ConflictGraph, IndexSetFamily, conflict_graph, ground_set, read_json
from .errors import InputError, InvariantError, NoJunctionTreeError
from .jtree import CandidateTree, _cut_recursion, maximum_spanning_tree_of


@dataclass(frozen=True)
class Biclique:
    """Two disjoint nonempty vertex sides; the cross edges are implied."""

    side_a: frozenset[int]
    side_b: frozenset[int]

    def __post_init__(self):
        if not self.side_a or not self.side_b:
            raise InputError("biclique sides must be nonempty")
        if self.side_a & self.side_b:
            raise InputError("biclique sides must be disjoint")

    def cross_pairs(self) -> Iterable[tuple[int, int]]:
        for u in self.side_a:
            for v in self.side_b:
                yield (u, v) if u < v else (v, u)


class BicliqueCover:
    """An ordered collection of bicliques meant to cover a conflict graph."""

    __slots__ = ("bicliques",)

    def __init__(self, bicliques: Iterable[Biclique] = ()):
        self.bicliques: tuple[Biclique, ...] = tuple(bicliques)

    def __len__(self) -> int:
        return len(self.bicliques)

    def __iter__(self):
        return iter(self.bicliques)

    def __getitem__(self, k: int) -> Biclique:
        return self.bicliques[k]

    def __eq__(self, other) -> bool:
        return isinstance(other, BicliqueCover) and self.bicliques == other.bicliques

    def __repr__(self) -> str:
        return f"BicliqueCover({list(self.bicliques)!r})"

    def to_json(self) -> str:
        return json.dumps(
            {
                "bicliques": [
                    {"a": sorted(b.side_a), "b": sorted(b.side_b)} for b in self.bicliques
                ]
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "BicliqueCover":
        data = read_json(text)
        items = data.get("bicliques") if isinstance(data, dict) else None
        if not isinstance(items, list):
            raise InputError('expected an object with a "bicliques" list')
        out = []
        for item in items:
            sides = [item.get(key) if isinstance(item, dict) else None for key in ("a", "b")]
            if not all(isinstance(s, list) and all(isinstance(v, int) for v in s) for s in sides):
                raise InputError('each biclique needs "a" and "b" lists of integers')
            out.append(Biclique(frozenset(sides[0]), frozenset(sides[1])))
        return cls(out)


def is_biclique(g: ConflictGraph, side_a: Iterable[int], side_b: Iterable[int]) -> bool:
    """True iff the two sides are disjoint, nonempty, and fully cross-connected."""
    a, b = frozenset(side_a), frozenset(side_b)
    if not a or not b or a & b:
        return False
    if not (a <= g.vertices and b <= g.vertices):
        return False
    if len(a) > len(b):
        a, b = b, a  # the test is symmetric; AND over the smaller side
    mb = g.mask(b)
    return reduce(and_, map(g.adj.__getitem__, a)) & mb == mb


def _index_union(family: IndexSetFamily, vertices: Iterable[int]) -> frozenset[int]:
    """Every index held by one of the given member sets."""
    return frozenset().union(*map(family.sets.__getitem__, vertices))


def separation(family: IndexSetFamily, tree: CandidateTree) -> list[Biclique]:
    """Tree-cut bicliques of the balanced-cut recursion, top down and pop first.

    Raises :class:`NoJunctionTreeError` when the tree is not a junction tree:
    some cut then finds an index on both of its sides outside its middle set.
    The test is exact.  If no cut finds one, an index held by both ends of a
    tree path lies in the middle set of the first path edge cut, hence in
    both endpoints of that edge, and by induction in every set on the path.
    Candidates that lose a whole side to the middle set are dropped since
    they would carry no conflict edges.
    """
    if tree.size != len(family):
        raise InputError("tree does not span the family's member sets")

    # Top down in preorder, left side before right, so the first offending
    # cut raises.
    splits = _cut_recursion(tree)
    own: list[Biclique | None] = []
    for cut, left, right, _, _ in splits:
        mid = tree.mids[cut]
        side_a = _index_union(family, left) - mid
        side_b = _index_union(family, right) - mid
        shared = side_a & side_b
        if shared:
            raise NoJunctionTreeError(
                f"tree edge {cut} has index {min(shared)} on both sides but not in its middle set"
            )
        own.append(Biclique(side_a, side_b) if side_a and side_b else None)
    # Bottom up (a split's sides come after it): a split's own biclique,
    # then the head of each side's list, then the rest of each side's list.
    out: list[list[Biclique]] = [[] for _ in splits]
    for key in reversed(range(len(splits))):
        subs = [out[c] for c in splits[key][3:] if c is not None]
        merged = [own[key]] if own[key] is not None else []
        merged += [sub[0] for sub in subs if sub]
        for sub in subs:
            merged += sub[1:]
        out[key] = merged
        for c in splits[key][3:]:
            if c is not None:
                out[c] = []
    return out[0] if out else []


def merge_cover(bicliques: Sequence[Biclique], g: ConflictGraph) -> BicliqueCover:
    """Greedy single pass merging each biclique into the first compatible one.

    Both orientations of a union are tried before giving up and appending.

    Each biclique (A, B) is held as the masks of its sides plus N(A), the
    AND of the neighbour masks over A.  A union (A | A', B | B') is a
    biclique iff N(A) & N(A') covers B | B'; since no vertex is its own
    neighbour, that also makes the sides disjoint.  The test splits into
    B' within N(A), B within N(A'), and each part being a biclique itself,
    which is checked once per biclique.  A biclique with a side outside the
    graph, or that is no biclique of ``g``, is kept but never merges.  Sides
    are built as sets only when a merge succeeds.
    """
    merged: list[Biclique] = []
    masks: list[tuple[int, int, int] | None] = []  # (m(A), m(B), N(A)) of a mergeable one
    adj, vertices = g.adj, g.vertices
    for cand in bicliques:
        a2, b2 = cand.side_a, cand.side_b
        mergeable = a2 <= vertices and b2 <= vertices
        if mergeable:
            ma2, mb2 = g.mask(a2), g.mask(b2)
            na2 = reduce(and_, map(adj.__getitem__, a2))
            mergeable = na2 & mb2 == mb2
        if not mergeable:
            merged.append(cand)
            masks.append(None)
            continue
        nb2 = reduce(and_, map(adj.__getitem__, b2))
        for idx, acc in enumerate(masks):
            if acc is None:
                continue
            ma, mb, na = acc
            if na & mb2 == mb2 and na2 & mb == mb:
                old = merged[idx]
                merged[idx] = Biclique(old.side_a | a2, old.side_b | b2)
                masks[idx] = (ma | ma2, mb | mb2, na & na2)
                break
            if na & ma2 == ma2 and nb2 & mb == mb:
                old = merged[idx]
                merged[idx] = Biclique(old.side_a | b2, old.side_b | a2)
                masks[idx] = (ma | mb2, mb | ma2, na & nb2)
                break
        else:
            merged.append(cand)
            masks.append((ma2, mb2, na2))
    return BicliqueCover(merged)


def verify_cover(g: ConflictGraph, cover: BicliqueCover) -> bool:
    """True iff every member is a biclique of ``g`` and together they hit every edge.

    Each vertex collects the opposite sides of the bicliques it sits in as
    one mask; the members being bicliques, that mask equals the vertex's
    neighbour mask exactly when every edge at it is covered.
    """
    covered = dict.fromkeys(g.order, 0)
    for b in cover:
        if not is_biclique(g, b.side_a, b.side_b):
            return False
        ma, mb = g.mask(b.side_a), g.mask(b.side_b)
        for u in b.side_a:
            covered[u] |= mb
        for v in b.side_b:
            covered[v] |= ma
    return covered == g.adj


def heuristic_cover(family: IndexSetFamily) -> BicliqueCover:
    """Separation along a maximum spanning tree, then greedy merging.

    Raises :class:`NoJunctionTreeError` when the family does not admit a
    junction tree: a maximum spanning tree is one exactly when the family
    admits one, and separation rejects it otherwise.  The result always
    verifies against the conflict graph and never exceeds one biclique per
    tree edge.
    """
    try:
        bicliques = separation(family, maximum_spanning_tree_of(family))
    except NoJunctionTreeError as exc:
        raise NoJunctionTreeError(
            f"family admits no junction tree: in its maximum spanning tree, {exc}; "
            "rewrite it with the transform module"
        ) from exc
    g = conflict_graph(family)
    cover = merge_cover(bicliques, g)
    if not verify_cover(g, cover):
        raise InvariantError("heuristic produced a non-covering result")
    if len(cover) > max(len(family) - 1, 0):
        raise InvariantError("heuristic exceeded the tree-edge bound")
    return cover


def disjoint_level_cover(family: IndexSetFamily, tree: CandidateTree) -> BicliqueCover:
    """Separation with all same-depth bicliques fused into one.

    Only valid when the member sets are pairwise disjoint: the conflict
    graph is then complete multipartite, so bicliques produced at the same
    recursion depth can always be combined side-wise.
    """
    if sum(len(s) for s in family.sets) != len(ground_set(family)):
        raise InputError("level merging needs pairwise disjoint member sets")
    splits = _cut_recursion(tree)
    depth = [0] * len(splits)
    level_sides: list[tuple[set[int], set[int]]] = []
    for key, (_, left, right, left_sub, right_sub) in enumerate(splits):
        for sub in (left_sub, right_sub):
            if sub is not None:
                depth[sub] = depth[key] + 1
        if depth[key] == len(level_sides):
            level_sides.append((set(), set()))
        side_a, side_b = level_sides[depth[key]]
        side_a |= _index_union(family, left)
        side_b |= _index_union(family, right)
    return BicliqueCover(Biclique(frozenset(a), frozenset(b)) for a, b in level_sides)
