"""Brute-force ground truth at desk scale, all in exact rational arithmetic.

Nothing here is meant to scale: every routine enumerates (spanning trees,
binary assignments, extreme rays, edge-to-biclique assignments) or decides
every support subset, and refuses inputs beyond an explicit budget instead
of degrading silently.  Work shared by the enumerated cases is done once
per call: one projection serves every binary assignment, each row is tested
on all 2^|J| supports at once as the bits of one integer, once per
right-hand side the assignments give it, and every spanning tree is
tested and weighed at once as one bit of masks that the tree decoder
builds once per set count for all calls.  Edges fit in one biclique iff a
parity-constrained 2-colouring exists.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, product
from math import gcd
from operator import mul
from typing import Iterable, NamedTuple, Optional

from .cdc import ConflictGraph, IndexSetFamily, ground_set
from .errors import InputError, InvariantError, SizeGuardError
from .formulate import BINARY, LinearFormulation, _integral
from .jtree import CandidateTree


def _compile(f: LinearFormulation) -> tuple[list[list[int]], list[list[int]]]:
    """The model as integer rows ``[a..., b]`` over its variables in declaration order.

    Returns (equalities a.x = b, inequalities a.x <= b): ``>=`` rows are
    negated, and every finite bound follows the constraints as a row.
    """
    n = len(f.variables)
    index = {name: i for i, name in enumerate(f.variable_names())}
    eqs: list[list[int]] = []
    ineqs: list[list[int]] = []
    for c in f.constraints:
        vec = [0] * (n + 1)
        for var, coef in c.terms:
            vec[index[var]] += coef
        vec[n] = c.rhs
        if c.sense == ">=":
            vec = [-x for x in vec]
        (eqs if c.sense == "=" else ineqs).append(_integral(vec))
    for i, v in enumerate(f.variables):
        for sign, bound in ((-1, v.lower), (1, v.upper)):
            if bound is not None:
                vec = [0] * (n + 1)
                vec[i], vec[n] = sign, sign * bound
                ineqs.append(_integral(vec))
    return eqs, ineqs


def _reduce(basis, row: list[int]) -> list[int]:
    """The row with every basis pivot column eliminated, in integers."""
    for p, b in basis:
        if row[p]:
            row = _combine(b[p], row, -row[p], b)
    return row


def _insert(basis, row: list[int], p: int):
    """A new basis with the reduced ``row`` pivoting on column ``p``, kept fully reduced.

    Every pivot entry is made positive, so reducing a row by the basis
    scales it by a positive factor and never flips an inequality.
    """
    if row[p] < 0:
        row = [-a for a in row]
    out = [(q, _combine(row[p], b, -b[p], row)) if b[p] else (q, b) for q, b in basis]
    out.append((p, row))
    return out


def _echelon(rows, m: int):
    """Eliminate the rows in order on pivots among columns ``0..m-1``.

    Returns the fully reduced basis of (pivot, row) pairs and the reduced
    rows left with no pivot there but some other coefficient, or ``None``
    when a row reduces to 0 = b with b nonzero.
    """
    basis: list[tuple[int, list[int]]] = []
    residual: list[list[int]] = []
    for row in rows:
        row = _reduce(basis, row)
        p = next((k for k in range(m) if row[k]), None)
        if p is not None:
            basis = _insert(basis, row, p)
        elif any(row[:-1]):
            residual.append(row)
        elif row[-1]:
            return None
    return basis, residual


def _combine(s: int, x: list[int], t: int, y: list[int]) -> list[int]:
    """s·x + t·y, divided by the gcd of its entries."""
    return _primitive([s * a + t * b for a, b in zip(x, y)])


def _primitive(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries."""
    g = gcd(*row)
    return [a // g for a in row] if g > 1 else row


def _fourier_motzkin(rows: list[list[int]], m: int, max_rows: int) -> Optional[list[tuple]]:
    """Eliminate columns ``0..m-1`` from primitive integer rows ``a.x <= b``.

    Exact Fourier-Motzkin elimination: the returned rows hold at a point of
    the other columns iff some values of the eliminated ones complete it;
    ``None`` when a row with no variables left is violated.  Each round
    eliminates the column held by the fewest rows, the first on a tie.  Its
    distinct rows are counted as they are made, and past ``max_rows`` it
    raises at once, even if a violated constant row later in the round
    would have proved the system infeasible.
    """
    while True:
        kept: dict[tuple[int, ...], None] = {}
        for row in rows:
            if not any(row[:-1]):
                if row[-1] < 0:
                    return None
            elif (key := tuple(row)) not in kept:
                if len(kept) == max_rows:
                    raise SizeGuardError(
                        f"support_validity: eliminating the auxiliary variables reached "
                        f"{max_rows + 1} rows, over the budget of {max_rows}")
                kept[key] = None
        counts = [sum(1 for row in kept if row[k]) for k in range(m)]
        live = [k for k in range(m) if counts[k]]
        if not live:
            return list(kept)
        k = min(live, key=lambda k: (counts[k], k))
        negative = [q for q in kept if q[k] < 0]
        rows = chain((r for r in kept if not r[k]),
                     (_combine(-q[k], p, p[k], q) for p in kept if p[k] > 0 for q in negative))


def _projected_rows(f: LinearFormulation, position: dict[str, int], max_rows: int = 50_000):
    """The model's rows over its binary and primary variables, auxiliaries projected out.

    ``position`` maps each primary variable to its bit.  With the columns
    ordered auxiliary (by name), binary, primary, the auxiliaries are
    eliminated on equality pivots and projected out once, binaries kept
    symbolic: exact, as the pivots and eliminations depend only on auxiliary
    coefficients and projection commutes with fixing the other columns.
    Each row is (binary-coefficient pairs, bit-coefficient pairs, rhs,
    is_equality); ``None`` when no binary assignment is feasible.
    """
    index = {name: i for i, name in enumerate(f.variable_names())}
    binaries = f.binary_names()
    aux = sorted(v.name for v in f.variables if v.kind != BINARY and v.name not in position)
    primary = sorted(position, key=position.get)
    cols = [index[v] for v in aux + binaries + primary] + [-1]
    m, b = len(aux), len(binaries)
    eqs, ineqs = ([_primitive([row[c] for c in cols]) for row in rows] for rows in _compile(f))
    echelon = _echelon(eqs, m)  # None when the equalities alone are inconsistent
    rows = echelon and _fourier_motzkin([_reduce(echelon[0], row) for row in ineqs], m, max_rows)
    if rows is None:
        return None
    bits = [position[v] for v in primary]
    return [
        ([(k, a) for k, a in enumerate(row[m:m + b]) if a],
         tuple((bit, a) for bit, a in zip(bits, row[m + b:-1]) if a), row[-1], is_eq)
        for is_eq, group in ((True, echelon[1]), (False, rows)) for row in group
    ]


def _passing(row, bits: list[int]) -> int:
    """The supports S (sums of ``bits``) at which mass 1/|S| on S meets the row, as bits S.

    A row (bit-coefficient pairs, b, is_equality) holds there iff the sum
    over S of a_v - b is <= 0 (= 0).  At each bit, a subset-sum doubling
    copies every partial sum's bitmap that many bits up, adding a_v - b.
    """
    coefs, rhs, is_eq = row
    a = dict(coefs)
    parts = {0: 1}  # partial sum -> bitmap of the supports with that sum, disjoint
    for bit in bits:
        w = a.get(bit, 0) - rhs
        grown = dict(parts)
        for total, mask in parts.items():
            grown[total + w] = grown.get(total + w, 0) | mask << bit
        parts = grown
    return sum(mask for total, mask in parts.items() if (total == 0 if is_eq else total <= 0))


def support_validity(
    f: LinearFormulation, family: IndexSetFamily, max_ground: int = 12, max_binaries: int = 12
) -> bool:
    """Whether the formulation realizes exactly the feasible supports.

    For every nonempty subset of the ground set, uniform mass on it must be
    completable to a feasible point (over some binary assignment and some
    auxiliary values) exactly when the subset lies in a member set.  One
    exact projection of the auxiliaries, binaries kept symbolic, gives the
    rows over binaries and primaries.  Each row, with an assignment's
    binary terms moved to its right-hand side, gives one bitmap of the
    supports, all 2^|J| at once, at which uniform mass meets it; bitmaps
    are made once per (row, right-hand side), and rows with no binary term
    once per call.  An assignment passes the AND of its rows, the model the
    OR of its assignments, and the first assignment passing a support
    outside every member set ends the check.  Cost: one projection, 2^b
    substitutions into the rows with binary terms and, per bitmap, |J|
    doubling steps over 2^|J| bits.
    """
    j = sorted(ground_set(family))
    if len(j) > max_ground:
        raise SizeGuardError(f"ground set of {len(j)} exceeds the cap of {max_ground}")
    lam = f.lambda_names()
    if set(lam) != set(j):
        raise InputError("formulation's primary variables do not match the family")
    if (b := len(f.binary_names())) > max_binaries:
        raise SizeGuardError(f"{b} binaries exceed the cap of {max_binaries}")
    bits = [1 << k for k in range(len(j))]
    rows = _projected_rows(f, {lam[v]: bit for v, bit in zip(j, bits)})
    realized = feasible = 0
    for s in family.sets:  # S lies in s iff no mass falls outside s
        outside = tuple((bit, 1) for v, bit in zip(j, bits) if v not in s)
        feasible |= _passing((outside, 0, False), bits)
    if rows is None:
        return not feasible  # no assignment realizes a support, not even the empty one
    fixed = (1 << (1 << len(j))) - 1  # the supports meeting every row with no binary term
    for zs, coefs, rhs, is_eq in rows:
        if not zs:
            fixed &= _passing((coefs, rhs, is_eq), bits)
    branching = [row for row in rows if row[0]]
    passing: dict[tuple[int, int], int] = {}  # (row, shifted rhs) -> bitmap, made on first use
    for z in product((0, 1), repeat=b):
        ok = fixed
        for i, (zs, coefs, rhs, is_eq) in enumerate(branching):
            rhs -= sum(a for k, a in zs if z[k])
            if coefs:
                if (i, rhs) not in passing:
                    passing[i, rhs] = _passing((coefs, rhs, is_eq), bits)
                ok &= passing[i, rhs]
            elif rhs < 0 or is_eq and rhs:
                ok = 0  # a violated row with no primary term
            if not ok & ~realized:
                break  # the assignment adds no support
        if ok & ~feasible:
            return False  # it realizes a support outside every member set
        realized |= ok
    return realized == feasible  # bit 0, the empty support, passes every row


def _vertices(f: LinearFormulation, max_vars: int) -> list[tuple[Fraction, ...]]:
    """Every vertex of the relaxation, once each, by exact double description.

    Rows ``[a..., b]`` become a.x - b t <= 0 (= 0) and, with t >= 0, a cone
    whose extreme rays with t > 0 are the vertices times t.  Its constraints
    cut, in that order, a lineality basis and extreme rays kept as primitive
    integer vectors, each ray with the bitmask of its tight constraints.  A
    constraint that a line crosses slides the other generators along that
    line onto it and keeps the line as a ray (drops it, for an equality).
    Otherwise the rays beyond it go, and each adjacent pair across it gives
    a ray on it: a pair is adjacent iff it shares at least n - 1 - lines
    tight constraints and no other ray is tight on all of them.  The lines
    left at the end span the rows' null space, so rows of rank r < n leave
    a line in the relaxation and no vertex, and this refuses.
    """
    n = len(f.variables)
    if n > max_vars:
        raise SizeGuardError(f"{n} variables exceed the cap of {max_vars}")
    eq_rows, ineq_rows = _compile(f)
    constraints = [(row[:n] + [-row[n]], is_eq) for is_eq, rows in (
        (True, eq_rows), (False, ineq_rows), (False, [[0] * n + [1]])) for row in rows]
    lines = [[int(i == k) for k in range(n + 1)] for i in range(n + 1)]
    rays: list[tuple[list[int], int]] = []  # (ray, bitmask of its tight constraints)
    for k, (h, is_eq) in enumerate(constraints):
        bit = 1 << k
        line = next((v for v in lines if sum(map(mul, h, v))), None)
        if line is not None:
            lines.remove(line)
            if (s := sum(map(mul, h, line))) > 0:
                line, s = [-a for a in line], -s
            lines = [_combine(-s, v, a, line) if (a := sum(map(mul, h, v))) else v for v in lines]
            rays = [(_combine(-s, r, a, line) if (a := sum(map(mul, h, r))) else r, tight | bit)
                    for r, tight in rays] + ([] if is_eq else [(line, bit - 1)])
            continue
        sides = [(sum(map(mul, h, r)), r, tight) for r, tight in rays]
        kept = [(r, tight if a else tight | bit) for a, r, tight in sides if not a or a < 0 and not is_eq]
        rays = kept + [(_combine(a, q, -c, r), common | bit)  # one per adjacent pair across
                       for a, r, tight in sides if a > 0 for c, q, other in sides if c < 0
                       if (common := tight & other).bit_count() >= n - 1 - len(lines)
                       and sum(t & common == common for _, t in rays) == 2]
    if lines:
        raise InputError(f"rows of rank {n - len(lines)} < {n}: the relaxation holds a line, no vertex")
    return [tuple(Fraction(a, r[n]) for a in r[:n]) for r, _ in rays if r[n]]


def lp_vertices(f: LinearFormulation, max_vars: int = 12) -> list[tuple[Fraction, ...]]:
    """All vertices of the LP relaxation, sorted, by exact double description.

    The cost follows the extreme rays met on the way, not the bases: a
    degenerate vertex tight on many rows is one ray.  The relaxation must be
    pointed, its rows of rank n, but may be unbounded; otherwise it has no
    vertex and ``InputError`` is raised.
    """
    return sorted(set(_vertices(f, max_vars)))


def is_ideal(f: LinearFormulation, max_vars: int = 12) -> bool:
    """True iff every relaxation vertex has integral binary coordinates.

    Every vertex is found before any coordinate is tested.
    """
    slots = [i for i, v in enumerate(f.variables) if v.kind == BINARY]
    return all(vertex[s] in (0, 1) for vertex in _vertices(f, max_vars) for s in slots)


class _Trees(NamedTuple):
    """Every spanning tree of the complete graph on ``0..d-1``, and masks over them.

    Bit t of each mask stands for ``trees[t]``.  ``holding`` and ``through``
    follow the pairs (i, j) in ``combinations(range(d), 2)`` order.
    """

    trees: tuple[tuple[tuple[int, int], ...], ...]  # each tree's sorted edges
    holding: tuple[int, ...]  # the trees holding pair (i, j) as an edge
    through: tuple[tuple[int, ...], ...]  # per pair, per vertex k: the trees whose path passes k


@lru_cache(maxsize=8)
def _all_spanning_trees(d: int) -> _Trees:
    """Every spanning tree of the complete graph on ``0..d-1``, with its masks.

    The d^(d-2) trees are decoded from their Pruefer sequences, each step
    joining a leaf to its parent.  Sorting the edges' positions in
    ``combinations(range(d), 2)`` gives the order in which ``combinations``
    lists the (d-1)-edge subsets.  Each edge's mask is then read as one
    binary numeral, tree d^(d-2) - 1 first, and the path masks follow from
    the edge masks (``_paths_through``).  The trees depend on d alone, so the
    answer for every d up to the tree search's default cap of 7 sets is
    kept, as tuples that no caller can change under another.
    """
    if d < 2:
        return _Trees(((),), (), ())
    pairs = list(combinations(range(d), 2))
    index = [[0] * d for _ in range(d)]
    for e, (a, b) in enumerate(pairs):
        index[a][b] = index[b][a] = e
    trees = []
    for seq in product(range(d), repeat=d - 2):
        degree = [1] * d
        for v in seq:
            degree[v] += 1
        least = leaf = degree.index(1)
        edges = []
        for v in seq:
            edges.append(index[leaf][v])
            degree[v] -= 1
            # Only v can have become a leaf; it is the next one if below the scan.
            if degree[v] == 1 and v < least:
                leaf = v
            else:
                least = leaf = degree.index(1, least + 1)
        edges.append(index[leaf][d - 1])
        edges.sort()
        trees.append(edges)
    trees.sort()
    digits = [bytearray(b"0" * len(trees)) for _ in pairs]
    for t, edges in enumerate(reversed(trees)):
        for e in edges:
            digits[e][t] = 49  # "1"
    holding = tuple(int(row, 2) for row in digits)
    return _Trees(
        tuple(tuple(map(pairs.__getitem__, edges)) for edges in trees),
        holding,
        _paths_through(d, holding),
    )


def _paths_through(d: int, holding: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Per pair (i, j), per vertex k: the mask of trees whose i-j path passes k.

    From each start i, walks grow one edge at a time, keyed by their end and
    the set of vertices passed; a walk's mask is the trees holding all its
    edges.  A tree holds one path from i to each end, so the masks of one
    end split the trees by the vertex set of that path.
    """
    edge = [[0] * d for _ in range(d)]
    for (a, b), trees in zip(combinations(range(d), 2), holding):
        edge[a][b] = edge[b][a] = trees
    everyone = (1 << d) - 1
    members = [[k for k in range(d) if inner >> k & 1] for inner in range(everyone + 1)]
    through = {pair: [0] * d for pair in combinations(range(d), 2)}
    for i in range(d):
        level = {(v, 0): edge[i][v] for v in range(d) if v != i}
        while level:
            longer: dict[tuple[int, int], int] = {}
            for (v, inner), trees in level.items():
                if i < v:
                    row = through[i, v]
                    for k in members[inner]:
                        row[k] |= trees
                inner |= 1 << v
                for u in members[everyone & ~(inner | 1 << i)]:
                    if step := trees & edge[v][u]:
                        longer[u, inner] = longer.get((u, inner), 0) | step
            level = longer
    return tuple(map(tuple, through.values()))


def _failing_trees(sets, through: tuple[tuple[int, ...], ...]) -> int:
    """The definition, on every tree at once: the mask of trees on which two
    sets' shared indices miss some set on their path."""
    failing = 0
    for (i, j), row in zip(combinations(range(len(sets)), 2), through):
        common = sets[i] & sets[j]
        if common:  # the empty set lies in every set
            for k, s in enumerate(sets):
                if not common <= s:
                    failing |= row[k]
    return failing


def _heaviest(terms: Iterable[tuple[int, int]], everything: int) -> int:
    """The mask of maximum-weight trees, where each (size, trees) term adds
    size to the weight of those trees.

    Weights are bit-sliced: ``planes[b]`` holds the trees whose weight has
    bit b set, and each term is a ripple-carry addition over the planes.
    """
    planes: list[int] = []
    for size, trees in terms:
        b = carry = 0
        while size >> b or carry:
            if b == len(planes):
                planes.append(0)
            add = trees if size >> b & 1 else 0
            p = planes[b]
            planes[b] = p ^ add ^ carry
            carry = p & add | carry & (p ^ add)
            b += 1
    best = everything
    for p in reversed(planes):
        if best & p:
            best &= p
    return best


def brute_admits_junction_tree(
    family: IndexSetFamily, max_sets: int = 7
) -> Optional[CandidateTree]:
    """Exhaustive junction-tree search over all spanning trees, all at once.

    Every tree is tested by the definition, on every path between two sets
    that share an index, and weighed by the sizes of its edges' middle
    sets; both run on masks with one bit per tree.  Besides deciding
    existence, this cross-checks two structural facts on the way: every
    qualifying tree carries maximum weight, and the maximum trees either
    all qualify or none does.  The tree returned is the first qualifying
    one in ``combinations`` order.
    """
    d = len(family)
    if d > max_sets:
        raise SizeGuardError(f"{d} sets exceed the cap of {max_sets}")
    sets = family.sets
    tables = _all_spanning_trees(d)
    everything = (1 << len(tables.trees)) - 1
    passing = everything & ~_failing_trees(sets, tables.through)
    if not passing:
        return None
    best = _heaviest(
        ((len(sets[i] & sets[j]), trees)
         for (i, j), trees in zip(combinations(range(d), 2), tables.holding)),
        everything,
    )
    if passing & ~best:
        raise InvariantError("a qualifying tree of non-maximum weight appeared")
    if passing != best:
        raise InvariantError("maximum trees disagree on the junction property")
    return CandidateTree(family, tables.trees[(passing & -passing).bit_length() - 1])


def _embeddable(g: ConflictGraph, edge_subset: Iterable[tuple[int, int]]) -> bool:
    """Whether some biclique of ``g`` contains all the given edges; none gives false.

    The edges' vertices are 2-coloured under parity constraints: the two
    ends of each given edge take opposite colours, and two vertices ``g``
    does not join take the same one.  Such a colouring makes its colour
    classes a biclique holding the edges, and the sides of any such
    biclique colour the vertices that way, so one search over the
    constraints decides it.
    """
    partners: dict[int, int] = {}  # each vertex's mask of given-edge ends
    for u, v in edge_subset:
        partners[u] = partners.get(u, 0) | g.bit[v]
        partners[v] = partners.get(v, 0) | g.bit[u]
    side: dict[int, int] = {}
    for start in partners:
        if start in side:
            continue
        side[start] = 0
        stack = [start]
        while stack:
            x = stack.pop()
            for y in partners:
                if partners[x] & g.bit[y]:
                    want = side[x] ^ 1
                elif y != x and not g.adj[x] & g.bit[y]:
                    want = side[x]
                else:
                    continue
                if y not in side:
                    side[y] = want
                    stack.append(y)
                elif side[y] != want:
                    return False
    return bool(side)


def min_biclique_cover_exact(g: ConflictGraph, upper: int, max_edges: int = 12) -> int:
    """Smallest number of bicliques covering the edges, by pruned assignment.

    Edges are assigned to groups one by one; a group stays alive only while
    its edges still embed into a single biclique.  Group count is capped by
    ``upper``, which must come from a known cover.
    """
    edges = sorted(g.edges)
    if len(edges) > max_edges:
        raise SizeGuardError(f"{len(edges)} edges exceed the cap of {max_edges}")

    def search(pos: int, groups: tuple, budget: int) -> bool:
        """Whether ``edges[pos:]`` join the groups, or new ones up to ``budget`` in all."""
        if pos == len(edges):
            return True
        edge = edges[pos]
        for k, group in enumerate(groups):
            grown = (*group, edge)
            rest = (*groups[:k], grown, *groups[k + 1:])
            if _embeddable(g, grown) and search(pos + 1, rest, budget):
                return True
        return len(groups) < budget and search(pos + 1, (*groups, (edge,)), budget)

    for budget in range(upper + 1):
        if search(0, (), budget):
            return budget
    raise InputError(f"no cover with at most {upper} bicliques exists")
