"""Biclique covers of conflict graphs via junction-tree separation and merging.

Cutting any edge of a junction tree yields a biclique of the conflict graph:
take the index unions of the two sides and strip the edge's middle set.
Recursing on both sides covers every conflict edge with at most one biclique
per tree edge; a greedy second pass then merges compatible bicliques to
shrink the cover.  ``tree_cover`` runs both passes along a given junction
tree and checks the result; every cover the package builds from a tree,
``heuristic_cover`` and both extended formulations, goes through it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterable, Sequence

from .cdc import ConflictGraph, IndexSetFamily, _check_indices, conflict_graph
from .cdc import read_json
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
    """An ordered collection of bicliques meant to cover a conflict graph.

    ``_verified`` is set by ``tree_cover`` and read by ``_covers``, alone:
    the family's ``sets`` tuple and the ``bicliques`` tuple it verified,
    held as objects and compared by identity.  A copy, a pickle or a cover read back from JSON is unstamped.
    """

    __slots__ = ("bicliques", "_verified")

    def __init__(self, bicliques: Iterable[Biclique] = ()):
        self.bicliques: tuple[Biclique, ...] = tuple(bicliques)
        self._verified: tuple[tuple, tuple] | None = None

    def __reduce__(self):
        return type(self), (self.bicliques,)

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
            if not all(isinstance(s, list) for s in sides):
                raise InputError('each biclique needs "a" and "b" lists of integers')
            _check_indices(sides[0] + sides[1])
            out.append(Biclique(frozenset(sides[0]), frozenset(sides[1])))
        return cls(out)


def _index_union(family: IndexSetFamily, vertices: Iterable[int]) -> frozenset[int]:
    """Every index held by one of the given member sets."""
    return frozenset().union(*map(family.sets.__getitem__, vertices))


def separation(family: IndexSetFamily, tree: CandidateTree) -> list[Biclique]:
    """Tree-cut bicliques of the balanced-cut recursion, top down and pop first.

    The tree supplies only its edges: a cut's middle set is the
    intersection of the family's own sets at its two ends.

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

    # Top down in preorder, left side before right: the first offending cut raises.
    splits = _cut_recursion(tree)
    own: list[Biclique | None] = []
    for cut, left, right, _, _ in splits:
        mid = family.sets[cut[0]] & family.sets[cut[1]]
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


def merge_cover(bicliques: Sequence[Biclique], family: IndexSetFamily) -> BicliqueCover:
    """Greedy single pass merging each biclique into the first compatible one.

    Both orientations of a union are tried before giving up and appending.
    Each side S is held as T(S), the mask of the member sets that hold one
    of its vertices: the OR over S of each index's holder mask, built once
    per call from ``family.holders``.  (A, B) is a biclique iff
    both sides lie in the ground set and no member set touches both, i.e.
    T(A) & T(B) is 0, which also makes the sides disjoint.  So the union
    (A | A', B | B') is one iff T(A) & T(B') and T(A') & T(B) are 0, and
    (A | B', B | A') iff T(A) & T(A') and T(B) & T(B') are.  A candidate
    that is no biclique is kept but never merges.  What merged sides gain
    grows in sets, and each merged ``Biclique`` is built once, at the end.
    """
    ground = family.holders.keys()
    holder_mask = {v: sum(map((1).__lshift__, h)) for v, h in family.holders.items()}
    touched = holder_mask.__getitem__
    cover: list[Biclique] = []
    masks: list[tuple[int, int] | None] = []  # (T(A), T(B)) of a mergeable one
    grown: dict[int, tuple[set[int], set[int]]] = {}  # what sides A and B gain, by position
    for cand in bicliques:
        a2, b2 = cand.side_a, cand.side_b
        mergeable = ground >= a2 and ground >= b2
        if mergeable:
            ta2, tb2 = reduce(or_, map(touched, a2)), reduce(or_, map(touched, b2))
            mergeable = not ta2 & tb2
        for idx, acc in enumerate(masks if mergeable else ()):
            if acc is None:
                continue
            ta, tb = acc
            if not (ta & tb2 or ta2 & tb):
                add_a, add_b, masks[idx] = a2, b2, (ta | ta2, tb | tb2)
            elif not (ta & ta2 or tb & tb2):
                add_a, add_b, masks[idx] = b2, a2, (ta | tb2, tb | ta2)
            else:
                continue
            gain_a, gain_b = grown.setdefault(idx, (set(), set()))
            gain_a |= add_a
            gain_b |= add_b
            break
        else:
            cover.append(cand)
            masks.append((ta2, tb2) if mergeable else None)
    for idx, (gain_a, gain_b) in grown.items():
        cover[idx] = Biclique(cover[idx].side_a | gain_a, cover[idx].side_b | gain_b)
    return BicliqueCover(cover)


def verify_cover(g: ConflictGraph, cover: BicliqueCover) -> bool:
    """True iff every member is a biclique of ``g`` and together they hit every edge.

    Each vertex collects the opposite sides of the bicliques it sits in as
    one mask, and the cover is exact when every vertex's mask equals its
    neighbour mask.  That one comparison also rejects a member that is no
    biclique: a cross pair that is no edge, or a vertex on both sides, sets
    a bit its neighbour mask lacks.  Members must lie inside the graph.
    """
    covered = dict.fromkeys(g.order, 0)
    for b in cover:
        if not (b.side_a <= g.vertices and b.side_b <= g.vertices):
            return False
        ma, mb = g.mask(b.side_a), g.mask(b.side_b)
        for u in b.side_a:
            covered[u] |= mb
        for v in b.side_b:
            covered[v] |= ma
    return covered == g.adj


def tree_cover(family: IndexSetFamily, tree: CandidateTree) -> BicliqueCover:
    """Separation along ``tree``, then greedy merging.

    Raises :class:`NoJunctionTreeError` when ``tree`` is not a junction
    tree of the family.  The result always verifies against the conflict
    graph and never exceeds one biclique per tree edge.  It is stamped with
    the family's ``sets`` and its own ``bicliques``, so that
    ``build_ib_from_cover`` need not verify it again for the same family.
    """
    cover = merge_cover(separation(family, tree), family)
    if not verify_cover(conflict_graph(family), cover):
        raise InvariantError("tree cover produced a non-covering result")
    if len(cover) > max(len(family) - 1, 0):
        raise InvariantError("tree cover exceeded the tree-edge bound")
    cover._verified = (family.sets, cover.bicliques)
    return cover


def _covers(family: IndexSetFamily, cover: BicliqueCover) -> bool:
    """True iff ``cover`` covers the family's conflict graph.

    Trusted without a check only when ``tree_cover`` stamped it for this
    very family: the stamp holds the same ``sets`` object and the cover's
    own ``bicliques`` object, compared by identity.  Any other cover is
    verified.
    """
    stamp = cover._verified
    if stamp is not None and stamp[0] is family.sets and stamp[1] is cover.bicliques:
        return True
    return verify_cover(conflict_graph(family), cover)


def heuristic_cover(family: IndexSetFamily) -> BicliqueCover:
    """``tree_cover`` along a maximum spanning tree.

    Raises :class:`NoJunctionTreeError` when the family does not admit a
    junction tree: a maximum spanning tree is one exactly when the family
    admits one, and separation rejects it otherwise.
    """
    try:
        return tree_cover(family, maximum_spanning_tree_of(family))
    except NoJunctionTreeError as exc:
        raise NoJunctionTreeError(
            f"family admits no junction tree: in its maximum spanning tree, {exc}; "
            "rewrite it with the transform module"
        ) from exc
