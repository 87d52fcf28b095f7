"""Intersection graphs, maximum spanning trees, and junction-tree admission.

Member sets become vertices of a complete weighted graph whose edge weights
are the pairwise intersection sizes.  A spanning tree of that graph is a
junction tree exactly when, for every tree edge, the two sides of the cut
only share indices that the edge's own intersection already contains.  The
family admits a junction tree if and only if one (equivalently every)
maximum spanning tree passes that test, so admission is a single greedy
tree construction plus one sweep of cut checks.

The tree machinery the other modules share lives here too: one union-find,
one rooted walk and one balanced-cut recursion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional

from .cdc import IndexSetFamily
from .errors import InputError


@dataclass(frozen=True)
class IntersectionGraph:
    """Complete graph on the member-set ordinals, weighted by overlap size."""

    size: int
    mids: dict[tuple[int, int], frozenset[int]]

    def mid(self, i: int, j: int) -> frozenset[int]:
        if i > j:
            i, j = j, i
        return self.mids[(i, j)]

    def weight(self, i: int, j: int) -> int:
        return len(self.mid(i, j))

    @property
    def edges(self) -> list[tuple[int, int]]:
        return sorted(self.mids)


def _spanning_forest(size: int, edges: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """The edges, in input order, that join two different components so far.

    Union-find with path halving over the ordinals ``0..size-1``; the scan
    stops once the kept edges span all of them.
    """
    root = list(range(size))
    kept = []
    for i, j in edges:
        ri, rj = i, j
        while root[ri] != ri:
            root[ri] = root[root[ri]]
            ri = root[ri]
        while root[rj] != rj:
            root[rj] = root[root[rj]]
            rj = root[rj]
        if ri != rj:
            root[ri] = rj
            # A new tuple: keeping the caller's (such as the keys of an
            # intersection graph about to be freed) pins its memory.
            kept.append((i, j))
            if len(kept) == size - 1:
                break
    return kept


def _rooted_walk(edges: Iterable[tuple[int, int]], root: int) -> list[tuple[int, int]]:
    """(parent, child) pairs of the tree containing ``root``, breadth first.

    Every parent comes before its children, and each vertex's children come
    in ordinal order.
    """
    adj: dict[int, list[int]] = {}
    for i, j in edges:
        adj.setdefault(i, []).append(j)
        adj.setdefault(j, []).append(i)
    seen = {root}
    queue = [root]
    pairs = []
    for parent in queue:
        for child in sorted(adj.get(parent, ())):
            if child not in seen:
                seen.add(child)
                queue.append(child)
                pairs.append((parent, child))
    return pairs


def _index_union(family: IndexSetFamily, vertices: Iterable[int]) -> frozenset[int]:
    """Every index held by one of the given member sets."""
    return frozenset().union(*(family.sets[v] for v in vertices))


def _cut_recursion(tree: CandidateTree):
    """Balanced-cut recursion over the tree, as nested tuples.

    Each node is ``(cut, left, right, left_sub, right_sub)``: the edge whose
    removal splits the current subtree most evenly (ties by ordinal pair),
    the vertex sets on the side of its smaller and larger endpoint, and the
    nodes of the two sides; ``None`` stands for a single vertex.  Subtrees
    are split from an explicit stack, since a star is as deep as it has
    leaves, and the tuples are then assembled from the deepest up.
    """
    splits = {}  # subtree number -> (cut, left, right, left number, right number)
    pending = [(0, list(range(tree.size)), list(tree.edges))]
    count = 1
    while pending:
        key, vertices, edges = pending.pop()
        if len(vertices) <= 1:
            continue
        walk = _rooted_walk(edges, vertices[0])
        size = dict.fromkeys(vertices, 1)
        for parent, child in reversed(walk):
            size[parent] += size[child]
        _, cut, child = min(
            (abs(len(vertices) - 2 * size[c]), (min(p, c), max(p, c)), c) for p, c in walk
        )
        below = {child}
        for parent, c in walk:
            if parent in below:
                below.add(c)
        above = set(vertices) - below
        left, right = (below, above) if child == cut[0] else (above, below)
        rest = [e for e in edges if e != cut]
        splits[key] = (cut, left, right, count, count + 1)
        pending.append((count + 1, sorted(right), [e for e in rest if e[0] in right]))
        pending.append((count, sorted(left), [e for e in rest if e[0] in left]))
        count += 2
    nodes = {}
    for key in sorted(splits, reverse=True):  # a subtree's number exceeds its parent's
        cut, left, right, lkey, rkey = splits.pop(key)
        nodes[key] = (cut, left, right, nodes.pop(lkey, None), nodes.pop(rkey, None))
    return nodes.get(0)


class CandidateTree:
    """A spanning tree over the member-set ordinals of a family.

    Edges carry the intersection of their two endpoint sets as middle set.
    Construction validates connectivity and acyclicity.
    """

    __slots__ = ("size", "edges", "mids")

    def __init__(self, family: IndexSetFamily, edges: Iterable[tuple[int, int]]):
        d = len(family)
        normalized = tuple(sorted((min(i, j), max(i, j)) for i, j in edges))
        for i, j in normalized:
            if not (0 <= i < d and 0 <= j < d) or i == j:
                raise InputError(f"edge ({i}, {j}) is not a valid ordinal pair")
        if len(set(normalized)) != len(normalized) or len(normalized) != d - 1:
            raise InputError(f"a spanning tree over {d} sets needs {d - 1} distinct edges")
        if len(_spanning_forest(d, normalized)) != len(normalized):
            raise InputError("edges contain a cycle")
        self.size = d
        self.edges = normalized
        self.mids = {
            (i, j): family.sets[i] & family.sets[j] for i, j in normalized
        }

    def mid(self, i: int, j: int) -> frozenset[int]:
        if i > j:
            i, j = j, i
        return self.mids[(i, j)]

    @property
    def weight(self) -> int:
        return sum(len(m) for m in self.mids.values())

    def split(self, edge: tuple[int, int]) -> tuple[set[int], set[int]]:
        """Vertex sets of the two components of the tree minus ``edge``."""
        i, j = min(edge), max(edge)
        rest = [e for e in self.edges if e != (i, j)]
        side = {i} | {child for _, child in _rooted_walk(rest, i)}
        return side, set(range(self.size)) - side

    def to_json(self) -> str:
        return json.dumps(
            {
                "edges": [list(e) for e in self.edges],
                "mids": [sorted(self.mids[e]) for e in self.edges],
            }
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CandidateTree)
            and self.size == other.size
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.size, self.edges))

    def __repr__(self) -> str:
        return f"CandidateTree(size={self.size}, edges={list(self.edges)})"


def intersection_graph(family: IndexSetFamily) -> IntersectionGraph:
    """Complete weighted graph of pairwise member-set intersections."""
    d = len(family)
    mids = {
        (i, j): family.sets[i] & family.sets[j]
        for i, j in combinations(range(d), 2)
    }
    return IntersectionGraph(d, mids)


def maximum_spanning_tree(g: IntersectionGraph) -> tuple[tuple[int, int], ...]:
    """Greedy maximum spanning tree, deterministic under ties.

    Edges are scanned by weight descending, then by ordinal pair ascending,
    so repeated runs always pick the same tree.
    """
    order = sorted(g.mids, key=lambda e: (-len(g.mids[e]), e))
    return tuple(sorted(_spanning_forest(g.size, order)))


def maximum_spanning_tree_of(family: IndexSetFamily) -> CandidateTree:
    """Convenience wrapper returning a :class:`CandidateTree`."""
    return CandidateTree(family, maximum_spanning_tree(intersection_graph(family)))


def is_junction_tree(family: IndexSetFamily, tree: CandidateTree) -> bool:
    """Cut test: each edge's two sides may only share what its middle set holds."""
    if tree.size != len(family):
        raise InputError("tree does not span the family's member sets")
    for edge in tree.edges:
        left, right = tree.split(edge)
        if not _index_union(family, left) & _index_union(family, right) <= tree.mids[edge]:
            return False
    return True


def admits_junction_tree(family: IndexSetFamily) -> Optional[CandidateTree]:
    """A junction tree of the family, or ``None`` when none exists.

    Only one maximum spanning tree is tested: a non-maximum tree can never
    qualify, and among maximum trees either all qualify or none does.
    """
    tree = maximum_spanning_tree_of(family)
    return tree if is_junction_tree(family, tree) else None
