"""Core data model for combinatorial disjunctive constraints.

A constraint is described purely combinatorially by a family of index sets
over a common ground set.  A subset of the ground set is feasible when some
member set contains it; the two-element infeasible subsets form the conflict
graph, and the minimal infeasible subsets decide whether the constraint can
be split into two-sided alternatives.
"""

from __future__ import annotations

import json
import math
import warnings
from functools import reduce
from itertools import combinations
from operator import or_
from typing import Iterable, Iterator

from .errors import InputError, RedundantFamilyWarning, SizeGuardError


def read_json(text: str):
    """The parsed JSON text; any parse failure is an ``InputError``.

    Besides syntax errors, ``json.loads`` raises ``ValueError`` for an
    integer literal past ``sys.get_int_max_str_digits()`` digits and
    ``RecursionError`` for nesting past the interpreter's depth limit.
    """
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"invalid JSON: {exc}") from exc


class IndexSetFamily:
    """An ordered family of nonempty index sets over non-negative integers.

    Order is preserved and significant: every algorithm in this package
    iterates the members deterministically.  Exact duplicates are rejected;
    a member contained in another only triggers a warning because the MIP
    builders stay correct on redundant families.

    ``holders`` is the family's one inverted index: each index maps to the
    ordinals of the member sets that hold it, in ordinal order.  It is built
    with the family and must not be modified.
    """

    __slots__ = ("sets", "holders")

    def __init__(self, sets: Iterable[Iterable[int]]):
        members = []
        for raw in sets:
            items = tuple(raw)
            for v in items:  # before hashing, which a list entry would fail
                if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                    raise InputError(f"indices must be non-negative integers, got {v!r}")
            if not items:
                raise InputError("member sets must be nonempty")
            members.append(frozenset(items))
        if not members:
            raise InputError("a family needs at least one member set")
        if len(set(members)) != len(members):
            raise InputError("duplicate member sets are not allowed")
        self.sets: tuple[frozenset[int], ...] = tuple(members)
        holders: dict[int, list[int]] = {}
        for i, s in enumerate(members):
            for v in s:
                holders.setdefault(v, []).append(i)
        self.holders = holders
        if _has_containment(self):
            warnings.warn(
                "family is redundant: one member set contains another",
                RedundantFamilyWarning,
                stacklevel=2,
            )

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self) -> Iterator[frozenset[int]]:
        return iter(self.sets)

    def __eq__(self, other) -> bool:
        return isinstance(other, IndexSetFamily) and self.sets == other.sets

    def __hash__(self) -> int:
        return hash(self.sets)

    def __repr__(self) -> str:
        inner = ", ".join("{" + ", ".join(map(str, sorted(s))) + "}" for s in self.sets)
        return f"IndexSetFamily([{inner}])"

    def to_json(self) -> str:
        return json.dumps({"sets": [sorted(s) for s in self.sets]})

    @classmethod
    def from_json(cls, text: str) -> "IndexSetFamily":
        data = read_json(text)
        if not isinstance(data, dict) or "sets" not in data:
            raise InputError('expected an object with a "sets" key')
        sets = data["sets"]
        if not isinstance(sets, list) or not all(isinstance(s, list) for s in sets):
            raise InputError('"sets" must be a list of lists of integers')
        return cls(sets)


class ConflictGraph:
    """Simple graph on the ground set whose edges are the infeasible pairs.

    Each vertex keeps one neighbour bitmask.  Bits are positional: a vertex
    stands for ``1 << r``, r its rank in the sorted vertex list, never
    ``1 << v``, so a mask is |J| bits wide whatever the index values.
    ``edges`` is built on first access; the other reads use the masks.
    """

    __slots__ = ("vertices", "order", "bit", "adj", "_edges")

    def __init__(self, order: Iterable[int], adj: Iterable[int]):
        """``order`` is the sorted vertex list, ``adj[r]`` the mask of ``order[r]``."""
        self.order: tuple[int, ...] = tuple(order)
        self.vertices: frozenset[int] = frozenset(self.order)
        self.bit: dict[int, int] = {v: 1 << r for r, v in enumerate(self.order)}
        self.adj: dict[int, int] = dict(zip(self.order, adj))
        self._edges: frozenset[tuple[int, int]] | None = None

    def mask(self, vertices: Iterable[int]) -> int:
        """Bitmask of the given vertices, which must all belong to the graph."""
        return reduce(or_, map(self.bit.__getitem__, vertices), 0)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.bit and u in self.adj and self.adj[u] & self.bit[v] != 0

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj.values()) // 2

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Every edge as ``(u, v)`` with ``u < v``."""
        if self._edges is None:
            order = self.order
            out = []
            for r, u in enumerate(order):
                m = self.adj[u] >> (r + 1)
                while m:
                    low = m & -m
                    out.append((u, order[r + low.bit_length()]))
                    m ^= low
            self._edges = frozenset(out)
        return self._edges

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ConflictGraph)
            and self.order == other.order
            and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return hash((self.order, tuple(self.adj.values())))

    def __repr__(self) -> str:
        return f"ConflictGraph(vertices={list(self.order)}, edge_count={self.edge_count})"


def ground_set(family: IndexSetFamily) -> frozenset[int]:
    """Union of all member sets."""
    return frozenset(family.holders)


def _has_containment(family: IndexSetFamily) -> bool:
    """True iff one of the distinct member sets lies inside another.

    A set can only lie inside the sets that hold its rarest element, so it
    is tested against those alone, found through the family's holders.
    """
    sets, holders = family.sets, family.holders
    count = {v: len(h) for v, h in holders.items()}
    for s in sets:
        for t in holders[min(s, key=count.__getitem__)]:
            if s < sets[t]:
                return True
    return False


def is_irredundant(family: IndexSetFamily) -> bool:
    """True iff no member set is contained in a distinct member set."""
    return not _has_containment(family)


def is_feasible_set(family: IndexSetFamily, subset: Iterable[int]) -> bool:
    """True iff ``subset`` is contained in some member set.

    The empty set is feasible by convention.  Indices outside the ground
    set are rejected.
    """
    t = frozenset(subset)
    if not t <= ground_set(family):
        raise InputError("subset contains indices outside the ground set")
    return not t or any(t <= s for s in family.sets)


def conflict_graph(family: IndexSetFamily) -> ConflictGraph:
    """Graph on the ground set with an edge wherever no member set holds both ends.

    The member sets holding a vertex OR together to the vertex and its
    non-neighbours, so its neighbour mask is the complement of that union;
    no pair of vertices is enumerated.
    """
    order = sorted(ground_set(family))
    rank = {v: r for r, v in enumerate(order)}
    held = [0] * len(order)
    for s in family.sets:
        m = 0
        for v in s:
            m |= 1 << rank[v]
        for v in s:
            held[rank[v]] |= m
    everything = (1 << len(order)) - 1
    return ConflictGraph(order, [everything ^ h for h in held])


def minimal_infeasible_sets(
    family: IndexSetFamily, max_subsets: int = 2_000_000
) -> list[frozenset[int]]:
    """All infeasible subsets whose proper subsets are all feasible.

    Enumerates candidates by increasing cardinality, skipping supersets of
    anything already recorded; by then every smaller infeasible subset has
    been found, so a surviving infeasible candidate is minimal.  No minimal
    infeasible set can exceed max member size + 1, which caps the search.
    """
    j = sorted(ground_set(family))
    cap = min(len(j), max(len(s) for s in family.sets) + 1)
    space = sum(math.comb(len(j), c) for c in range(1, cap + 1))
    if space > max_subsets:
        raise SizeGuardError(
            f"subset search space {space} exceeds the cap of {max_subsets}"
        )
    found: list[frozenset[int]] = []
    sets = family.sets
    for c in range(1, cap + 1):
        for combo in combinations(j, c):
            t = frozenset(combo)
            if any(m <= t for m in found):
                continue
            if not any(t <= s for s in sets):
                found.append(t)
    return found


def is_pairwise_ib_representable(
    family: IndexSetFamily, max_subsets: int = 2_000_000
) -> bool:
    """True iff every minimal infeasible set has at most two elements."""
    return all(len(t) <= 2 for t in minimal_infeasible_sets(family, max_subsets))
