"""Brute-force ground truth at desk scale, all in exact rational arithmetic.

Nothing here is meant to scale: every routine enumerates (spanning trees,
binary assignments, extreme rays, edge-to-biclique assignments) or decides
every support subset, and refuses inputs beyond an explicit budget instead
of degrading silently.  Work shared by the enumerated cases is done once
per call: one projection serves every binary assignment, each row is tested
on all 2^|J| supports at once as the bits of one integer, once per
right-hand side the assignments give it, and the tree decoder hands out
parents and depths, once per set count for all calls.  Edges fit in one
biclique iff a parity-constrained 2-colouring exists.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, product
from math import gcd
from operator import mul
from typing import Iterable, Optional

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


@lru_cache(maxsize=8)
def _all_spanning_trees(d: int) -> tuple[tuple[tuple[tuple[int, int], ...], tuple[int, ...], tuple[int, ...]], ...]:
    """Every spanning tree of the complete graph on ``0..d-1``: (sorted edges, parents, depths).

    The d^(d-2) trees are decoded from their Pruefer sequences; each step
    joins a leaf to its parent, so the parents are rooted at d-1 (entry
    -1) and leave after their children, which gives the depths.  Sorting
    the edges' positions in ``combinations(range(d), 2)`` gives the order
    in which ``combinations`` lists the (d-1)-edge subsets.
    The trees depend on d alone, so the answer for every d up to the tree
    search's default cap of 7 sets is kept, as tuples that no caller can
    change under another.
    """
    if d < 2:
        return (((), (-1,) * d, (0,) * d),)
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
        up = [-1] * d
        order = []
        for v in seq:
            edges.append(index[leaf][v])
            up[leaf] = v
            order.append(leaf)
            degree[v] -= 1
            # Only v can have become a leaf; it is the next one if below the scan.
            if degree[v] == 1 and v < least:
                leaf = v
            else:
                least = leaf = degree.index(1, least + 1)
        edges.append(index[leaf][d - 1])
        up[leaf] = d - 1
        order.append(leaf)
        depth = [0] * d
        for v in reversed(order):
            depth[v] = depth[up[v]] + 1
        edges.sort()
        trees.append((edges, tuple(up), tuple(depth)))
    trees.sort()
    return tuple((tuple(map(pairs.__getitem__, edges)), up, depth) for edges, up, depth in trees)


def _holds_on_every_path(sets, shared, up: tuple[int, ...], depth: tuple[int, ...]) -> bool:
    """The definition: two sets' shared indices lie in every set on their tree path.

    ``shared`` lists (i, j, sets[i] & sets[j]) for the pairs sharing an
    index, as the empty set lies in every set.  Along the parents ``up``
    the deeper end climbs until the two meet; each set climbed onto is tested.
    """
    for i, j, common in shared:
        while i != j:
            if depth[i] < depth[j]:
                i, j = j, i
            i = up[i]
            if not common <= sets[i]:
                return False
    return True


def brute_admits_junction_tree(
    family: IndexSetFamily, max_sets: int = 7
) -> Optional[CandidateTree]:
    """Exhaustive junction-tree search over all spanning trees.

    Each tree is tested by the definition, on every path between two sets
    that share an index, and weighed as its tuple of edges by the sizes of
    their middle sets.  Besides deciding existence, this cross-checks two
    structural facts on the way: every qualifying tree carries maximum
    weight, and the maximum trees either all qualify or none does.
    """
    d = len(family)
    if d > max_sets:
        raise SizeGuardError(f"{d} sets exceed the cap of {max_sets}")
    sets = family.sets
    common = {(i, j): sets[i] & sets[j] for i, j in combinations(range(d), 2)}
    middle = {pair: len(s) for pair, s in common.items()}
    shared = [(i, j, s) for (i, j), s in common.items() if s]
    trees = [(sum(map(middle.__getitem__, e)), e, up, depth) for e, up, depth in _all_spanning_trees(d)]
    best = max(weight for weight, *_ in trees)
    passing = [(w, edges) for w, edges, *rooted in trees if _holds_on_every_path(sets, shared, *rooted)]
    if passing:
        if any(weight != best for weight, _ in passing):
            raise InvariantError("a qualifying tree of non-maximum weight appeared")
        if len(passing) != sum(weight == best for weight, *_ in trees):
            raise InvariantError("maximum trees disagree on the junction property")
        return CandidateTree(family, passing[0][1])
    return None


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
