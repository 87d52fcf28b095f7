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
from typing import Iterable, Sequence

from .cdc import ConflictGraph, IndexSetFamily, conflict_graph, ground_set
from .errors import InputError, InvariantError, NoJunctionTreeError
from .jtree import CandidateTree, _cut_recursion, _index_union, maximum_spanning_tree_of


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
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON: {exc}") from exc
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
    mb = g.mask(b)
    adj = g.adj
    return all(adj[u] & mb == mb for u in a)


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

    # Top-down pass from an explicit stack (a star tree is as deep as it has
    # leaves), left subtree before right, so the first offending cut raises.
    own: list[Biclique | None] = []
    children: list[list[int]] = []
    pending = [(_cut_recursion(tree), -1)]
    while pending:
        node, parent = pending.pop()
        if node is None:
            continue
        cut, left, right, left_sub, right_sub = node
        mid = tree.mids[cut]
        side_a = _index_union(family, left) - mid
        side_b = _index_union(family, right) - mid
        shared = side_a & side_b
        if shared:
            raise NoJunctionTreeError(
                f"tree edge {cut} has index {min(shared)} on both sides but not in its middle set"
            )
        key = len(own)
        own.append(Biclique(side_a, side_b) if side_a and side_b else None)
        children.append([])
        if parent >= 0:
            children[parent].append(key)
        pending.append((right_sub, key))
        pending.append((left_sub, key))
    # Bottom-up: a node's own biclique, then the head of each side's list,
    # then the rest of each side's list.
    out: list[list[Biclique]] = [[] for _ in own]
    for key in reversed(range(len(own))):
        subs = [out[c] for c in children[key]]
        merged = [own[key]] if own[key] is not None else []
        merged += [sub[0] for sub in subs if sub]
        for sub in subs:
            merged += sub[1:]
        out[key] = merged
        for c in children[key]:
            out[c] = []
    return out[0] if out else []


def merge_cover(
    bicliques: Sequence[Biclique], g: ConflictGraph, fixpoint: bool = False
) -> BicliqueCover:
    """Greedy single pass merging each biclique into the first compatible one.

    Both orientations of a union are tried before giving up and appending.
    ``fixpoint`` repeats the pass until the cover stops shrinking; the
    default single pass is the reference behaviour.
    """
    current = list(bicliques)
    while True:
        merged: list[Biclique] = []
        for cand in current:
            placed = False
            for idx, acc in enumerate(merged):
                for a, b in (
                    (acc.side_a | cand.side_a, acc.side_b | cand.side_b),
                    (acc.side_a | cand.side_b, acc.side_b | cand.side_a),
                ):
                    if is_biclique(g, a, b):
                        merged[idx] = Biclique(a, b)
                        placed = True
                        break
                if placed:
                    break
            if not placed:
                merged.append(cand)
        if not fixpoint or len(merged) == len(current):
            return BicliqueCover(merged)
        current = merged


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


def heuristic_cover(family: IndexSetFamily, fixpoint: bool = False) -> BicliqueCover:
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
    cover = merge_cover(bicliques, g, fixpoint=fixpoint)
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
    levels = []
    level = [_cut_recursion(tree)]
    while level:
        side_a: set[int] = set()
        side_b: set[int] = set()
        deeper = []
        for node in level:
            if node is not None:
                _, left, right, left_sub, right_sub = node
                side_a |= _index_union(family, left)
                side_b |= _index_union(family, right)
                deeper += [left_sub, right_sub]
        if side_a and side_b:
            levels.append(Biclique(frozenset(side_a), frozenset(side_b)))
        level = deeper
    return BicliqueCover(levels)
