"""Maximum spanning trees of the intersection graph, and junction-tree admission.

Member sets are the vertices of a complete graph whose edge weights are the
pairwise intersection sizes.  A spanning tree of that graph is a junction
tree exactly when every index keeps the sets that hold it connected in the
tree.  The family admits a junction tree if and only if one (equivalently
every) maximum spanning tree passes that test.  Both steps read the
family's inverted index: the tree weighs only pairs that share an index,
and the test counts each index's middles, so admission costs the family's
overlaps, not d^2 pairs; the complete graph is never built.

The tree machinery the other modules share lives here too: one union-find,
one rooted layout and one balanced-cut recursion, which cuts each part at
its most even edge, the smaller ordinal pair on a tie.  Those edges share
the part's centroid, so the pairs rank as their other endpoints do.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import chain, combinations, repeat
from typing import Iterable, Iterator, Optional

from .cdc import IndexSetFamily
from .errors import InputError, InvariantError


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
            # A new tuple: keeping the caller's (such as the keys of a
            # pair-weight table about to be freed) pins its memory.
            kept.append((i, j))
            if len(kept) == size - 1:
                break
    return kept


def _preorder(edges: Iterable[tuple[int, int]], root: int) -> dict[int, int]:
    """Each vertex of the tree holding ``root`` mapped to its parent, in depth-first preorder.

    The root's parent is -1.  The walk runs from an explicit stack, pushing
    each vertex's neighbours in edge order, so a parent always comes before
    its children and every subtree is a contiguous run of the keys.
    """
    adj: dict[int, list[int]] = {}
    for i, j in edges:
        adj.setdefault(i, []).append(j)
        adj.setdefault(j, []).append(i)
    parent: dict[int, int] = {}
    stack = [(root, -1)]
    while stack:
        v, p = stack.pop()
        parent[v] = p
        for w in adj.get(v, ()):
            if w != p:
                stack.append((w, v))
    return parent


def _cut_recursion(tree: CandidateTree) -> list[tuple]:
    """Balanced-cut recursion over the tree, as a list of splits in preorder.

    Each split is ``(cut, left, right, left_sub, right_sub)``: the edge whose
    removal splits the current part most evenly (ties by ordinal pair), the
    vertices on the side of its smaller and of its larger endpoint, and the
    positions in the list of the two sides' own splits, ``None`` for a
    single vertex.  A split's left side comes before its right side.

    The tree is laid out once in depth-first preorder from vertex 0, so a
    part is a run of that order headed by its top, and any subtree in it is
    one slice.  One pass over a part, children before parents, counts its
    subtree sizes and each vertex's heaviest child (the smaller on a tie);
    a walk from the top into heavy children stops at the centroid, which
    every most even cut touches.  There the edges to the heaviest child and
    to the parent rank by imbalance, then other endpoint, which for edges
    sharing a vertex is the ordinal-pair order.  A part costs its length,
    as slicing its sides and ``separation``'s unions over them already do.
    """
    parent = _preorder(tree.edges, 0)
    size = [1] * tree.size  # of each vertex's subtree within the current part
    heavy = [-1] * tree.size  # each vertex's child of largest subtree there
    nodes: list[list] = []
    parts = [(list(parent), -1, 0)]  # (vertices in preorder, owner split, slot)
    while parts:
        run, owner, slot = parts.pop()
        n = len(run)
        if n <= 1:
            continue
        for v in run:
            size[v], heavy[v] = 1, -1
        for v in reversed(run[1:]):  # children before parents
            p, s = parent[v], size[v]
            size[p] += s
            h = heavy[p]
            if h < 0 or s > size[h] or (s == size[h] and v < h):
                heavy[p] = v
        top = c = run[0]
        w = heavy[c]
        while w >= 0 and 2 * size[w] > n:
            c, w = w, heavy[w]
        x, p = w, c
        if c != top and (w < 0 or (2 * size[c] - n, parent[c]) < (n - 2 * size[w], w)):
            x, p = c, parent[c]
        lo = run.index(x)
        hi = lo + size[x]
        below, above = run[lo:hi], run[:lo] + run[hi:]
        key = len(nodes)
        if owner >= 0:
            nodes[owner][slot] = key
        left, right = (below, above) if x < p else (above, below)
        nodes.append([(min(x, p), max(x, p)), left, right, None, None])
        parts.append((right, key, 4))  # slots 3 and 4 take the sides' own splits
        parts.append((left, key, 3))  # the left side is popped first
    return [tuple(node) for node in nodes]


class CandidateTree:
    """A spanning tree over the member-set ordinals of a family.

    Edges carry the intersection of their two endpoint sets as middle set,
    computed on the first read of ``mids``.  Construction validates
    connectivity and acyclicity.
    """

    __slots__ = ("size", "edges", "_sets", "_mids")

    def __init__(self, family: IndexSetFamily, edges: Iterable[tuple[int, int]]):
        d = len(family)
        edges = [tuple(e) if isinstance(e, tuple | list) else (e,) for e in edges]
        for e in edges:  # bool is no ordinal, as in cdc._check_indices
            if len(e) != 2 or not all(type(v) is int and 0 <= v < d for v in e) or e[0] == e[1]:
                raise InputError(f"edge {e} is not a valid ordinal pair")
        normalized = tuple(sorted((min(e), max(e)) for e in edges))
        if len(normalized) != d - 1 or len(_spanning_forest(d, normalized)) != d - 1:
            raise InputError(f"a spanning tree over {d} sets needs {d - 1} edges and no cycle")
        self.size, self.edges, self._sets, self._mids = d, normalized, family.sets, None

    @classmethod
    def _of_forest(cls, family: IndexSetFamily, forest: list[tuple[int, int]]) -> CandidateTree:
        """The tree of a forest ``_spanning_forest`` kept: no cycle, each pair (i, j) with i < j.

        Such a forest needs no second validation, only a count of its edges.
        """
        d = len(family)
        if len(forest) != d - 1:
            raise InvariantError(f"a spanning forest over {d} sets kept {len(forest)} edges")
        tree = cls.__new__(cls)
        tree.size, tree.edges, tree._sets, tree._mids = d, tuple(sorted(forest)), family.sets, None
        return tree

    @property
    def mids(self) -> dict[tuple[int, int], frozenset[int]]:
        """Each edge's middle set, the intersection of its two end sets."""
        if self._mids is None:
            sets = self._sets
            self._mids = {(i, j): sets[i] & sets[j] for i, j in self.edges}
        return self._mids

    @property
    def weight(self) -> int:
        return sum(len(m) for m in self.mids.values())

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


def _pair_weights(family: IndexSetFamily) -> Counter:
    """Intersection sizes of the pairs of member sets that can share two indices.

    Such a pair's sets both hold two or more indices that other sets hold
    too, so only those sets are counted.  Each index adds one to every pair
    of the counted sets holding it: at most the sum over v of
    c_v(c_v - 1)/2 updates, c_v the number of holders of v, and pairs that
    share nothing never appear.
    """
    holders = family.holders
    shared = Counter(chain.from_iterable(h for h in holders.values() if len(h) > 1))
    lists = ([i for i in h if shared[i] > 1] for h in holders.values() if len(h) > 1)
    return Counter(chain.from_iterable(combinations(h, 2) for h in lists))


def _weight_one_pairs(family: IndexSetFamily) -> Iterator[tuple[int, int]]:
    """Every pair of weight 1 that can still join two trees, in ordinal order.

    A pair is offered by the first holder of an index the two share.  Once
    the scan has passed index v's first holder, every holder of v is in that
    holder's tree, so a later pair through v could not join anything.  Pairs
    of larger weight come along too; the scan has seen them already, so
    they cannot join anything either.
    """
    lead: dict[int, list[list[int]]] = {}
    for h in family.holders.values():
        if len(h) > 1:
            lead.setdefault(h[0], []).append(h)
    for i in sorted(lead):
        lists = lead[i]
        later = lists[0][1:] if len(lists) == 1 else sorted(set().union(*lists) - {i})
        yield from zip(repeat(i), later)


def maximum_spanning_tree_of(family: IndexSetFamily) -> CandidateTree:
    """Greedy maximum spanning tree of the intersection graph, deterministic under ties.

    Kruskal scans pairs by weight descending, then by ordinal pair
    ascending, so repeated runs always pick the same tree, and it stops
    once the tree spans.  The scan never lists all pairs: those of weight 2
    or more come from the pair table, those of weight 1 from the holder
    lists, and if these leave the forest disconnected, the zero-weight
    pairs (0, j) join the rest in order of j.  A scan of all pairs would
    keep exactly these, since its zero-weight pairs begin with (0, 1),
    (0, 2), ... and those alone connect everything.  So the forest always
    spans, and the tree takes it without validating it again.
    """
    d = len(family)
    weights = _pair_weights(family)
    ranked = sorted(pair for pair, w in weights.items() if w > 1)
    ranked.sort(key=weights.__getitem__, reverse=True)  # stable: pairs stay ascending
    edges = chain(ranked, _weight_one_pairs(family), zip(repeat(0), range(1, d)))
    return CandidateTree._of_forest(family, _spanning_forest(d, edges))


def is_junction_tree(family: IndexSetFamily, tree: CandidateTree) -> bool:
    """Whether every index keeps the sets holding it connected in the tree.

    The tree edges whose two ends both hold index v form a forest on v's
    c_v holders, so v lies in at most c_v - 1 middle sets, and in exactly
    that many iff its holders are connected in the tree.  The tree is a
    junction tree iff that holds for every v, that is iff ``failing_index``
    finds no index; summed over v, the same counts say that a junction tree
    weighs sum over v of (c_v - 1) and every other spanning tree less.
    """
    return failing_index(family, tree) is None


def failing_index(family: IndexSetFamily, tree: CandidateTree) -> Optional[int]:
    """The smallest index whose holders the tree leaves disconnected, if any.

    That index lies in fewer than c_v - 1 of the tree's middle sets.
    """
    if tree.size != len(family):
        raise InputError("tree does not span the family's member sets")
    sets = family.sets
    middles = Counter(chain.from_iterable(sets[i] & sets[j] for i, j in tree.edges))
    failing = (v for v, h in family.holders.items() if middles[v] < len(h) - 1)
    return min(failing, default=None)


def admits_junction_tree(family: IndexSetFamily) -> Optional[CandidateTree]:
    """A junction tree of the family, or ``None`` when none exists.

    Only one maximum spanning tree is tested: a non-maximum tree can never
    qualify, and among maximum trees either all qualify or none does.
    """
    tree = maximum_spanning_tree_of(family)
    return tree if is_junction_tree(family, tree) else None
