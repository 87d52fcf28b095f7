"""Brute-force ground truth at desk scale, all in exact rational arithmetic.

Nothing here is meant to scale: every routine enumerates (spanning trees,
support subsets, tight-constraint bases, edge-to-biclique assignments) and
refuses inputs beyond an explicit budget instead of degrading silently.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from typing import Optional

from .cdc import ConflictGraph, IndexSetFamily, ground_set, is_feasible_set
from .errors import InputError, InvariantError, SizeGuardError
from .formulate import BINARY, LinearFormulation
from .jtree import CandidateTree, _rooted_walk, _spanning_forest, intersection_graph
from .cover import is_biclique

Row = tuple[dict[str, Fraction], Fraction]  # sum coef*x <= rhs, or = rhs for an equality


def _normalize_row(coefs: dict[str, Fraction], rhs: Fraction) -> Row:
    coefs = {v: c for v, c in coefs.items() if c != 0}
    if coefs:
        scale = abs(coefs[min(coefs)])
        coefs = {v: c / scale for v, c in coefs.items()}
        rhs = rhs / scale
    return coefs, rhs


def _project(rows: list[Row], keep, max_rows: int = 50_000) -> Optional[list[Row]]:
    """Eliminate every variable outside ``keep`` from a system of <= rows.

    Exact Fourier-Motzkin elimination: the returned rows over ``keep`` hold
    at a point iff some values of the other variables complete it.  ``None``
    when no point completes, because a row with no variables left is violated.
    """
    work = list(rows)
    while True:
        kept: list[Row] = []
        seen = set()
        for coefs, rhs in work:
            coefs, rhs = _normalize_row(coefs, rhs)
            if not coefs:
                if rhs < 0:
                    return None
                continue
            key = (tuple(sorted(coefs.items())), rhs)
            if key not in seen:
                seen.add(key)
                kept.append((coefs, rhs))
        if len(kept) > max_rows:
            raise SizeGuardError(
                f"support_validity: eliminating the auxiliary variables reached "
                f"{len(kept)} rows, over the budget of {max_rows}"
            )
        counts: dict[str, int] = {}
        for coefs, _ in kept:
            for v in coefs:
                if v not in keep:
                    counts[v] = counts.get(v, 0) + 1
        if not counts:
            return kept
        target = min(counts, key=lambda v: (counts[v], v))
        work = [r for r in kept if target not in r[0]]
        for pc, pr in kept:
            if pc.get(target, 0) <= 0:
                continue
            for nc, nr in kept:
                if nc.get(target, 0) >= 0:
                    continue
                a, b = pc[target], -nc[target]
                coefs = {v: b * c for v, c in pc.items() if v != target}
                for v, c in nc.items():
                    if v != target:
                        coefs[v] = coefs.get(v, Fraction(0)) + a * c
                work.append((coefs, b * pr + a * nr))


def _substitute(coefs: dict[str, Fraction], rhs: Fraction, solved) -> Row:
    """Replace each solved variable by its expression, in solving order.

    An expression may hold variables solved after it; the later steps of
    the same pass replace those in turn.
    """
    coefs = dict(coefs)
    for pivot, prow, prhs in solved:
        factor = coefs.pop(pivot, Fraction(0))
        if factor:
            for v, c in prow.items():
                coefs[v] = coefs.get(v, Fraction(0)) - factor * c
            rhs -= factor * prhs
    return {v: c for v, c in coefs.items() if c != 0}, rhs


def _solve_equalities(
    eqs: list[Row], ineqs: list[Row], pivots
) -> Optional[tuple[list[Row], list[Row]]]:
    """Gaussian-eliminate equalities on the ``pivots`` variables.

    Each equality pivots on its smallest-named variable among ``pivots``,
    and the solved variables are substituted into the inequalities.  An
    equality left with no such variable is a residual equality over the
    others.  Returns (residual equalities, reduced inequalities), or ``None``
    when the equalities are inconsistent on their own.
    """
    solved: list[tuple[str, dict[str, Fraction], Fraction]] = []  # pivot = rhs - row . rest
    residual: list[Row] = []
    for coefs, rhs in eqs:
        coefs, rhs = _substitute(coefs, rhs, solved)
        eligible = [v for v in coefs if v in pivots]
        if not eligible:
            if coefs:
                residual.append((coefs, rhs))
            elif rhs != 0:
                return None
            continue
        pivot = min(eligible)
        pc = coefs.pop(pivot)
        coefs = {v: c / pc for v, c in coefs.items()}
        rhs /= pc
        solved.append((pivot, coefs, rhs))
    return residual, [_substitute(coefs, rhs, solved) for coefs, rhs in ineqs]


def _integral(values: list[Fraction]) -> list[int]:
    """The values times the least common multiple of their denominators."""
    scale = lcm(*(x.denominator for x in values))
    return [x.numerator * (scale // x.denominator) for x in values]


def _lambda_systems(f: LinearFormulation, position: dict[str, int], max_rows: int = 50_000):
    """One integer system over the primary variables per binary assignment.

    ``position`` maps each primary variable to its bit.  Under an assignment
    the equalities are solved for auxiliary variables, the auxiliaries are
    projected out, and each remaining row is scaled to integers as
    (bit-coefficient pairs, rhs, is_equality).  A primary point completes to
    a feasible point under the assignment iff it satisfies every row.
    Assignments no point completes are left out, and equal systems are kept
    once.
    """
    binaries = f.binary_names()
    aux = {v.name for v in f.variables if v.kind != BINARY and v.name not in position}
    bounds: list[Row] = []
    for v in f.variables:
        if v.kind != BINARY:  # a binary's values 0 and 1 are its bounds
            if v.lower is not None:
                bounds.append(({v.name: Fraction(-1)}, -v.lower))
            if v.upper is not None:
                bounds.append(({v.name: Fraction(1)}, v.upper))
    systems: dict[tuple, None] = {}
    for assignment in product((0, 1), repeat=len(binaries)):
        z = dict(zip(binaries, assignment))
        eqs: list[Row] = []
        ineqs = list(bounds)
        for c in f.constraints:
            coefs: dict[str, Fraction] = {}
            rhs = c.rhs
            for var, coef in c.terms:
                if var in z:
                    rhs -= coef * z[var]
                else:
                    coefs[var] = coefs.get(var, Fraction(0)) + coef
            if c.sense == ">=":
                coefs, rhs = {v: -x for v, x in coefs.items()}, -rhs
            (eqs if c.sense == "=" else ineqs).append((coefs, rhs))
        solved = _solve_equalities(eqs, ineqs, aux)
        if solved is None:
            continue
        residual, reduced = solved
        rows = _project(reduced, position, max_rows)
        if rows is None:
            continue
        system = []
        for is_eq, group in ((True, residual), (False, rows)):
            for coefs, rhs in group:
                scaled = _integral([*coefs.values(), rhs])
                bits = tuple(sorted(zip((position[v] for v in coefs), scaled)))
                system.append((bits, scaled[-1], is_eq))
        systems[tuple(sorted(system))] = None
    return list(systems)


def _admits_uniform(system, mask: int, r: int) -> bool:
    """Uniform mass 1/r on the support ``mask`` meets every row: sum over it of a <= r*b."""
    for bits, rhs, is_eq in system:
        total = sum(a for bit, a in bits if mask & bit)
        if total > r * rhs or is_eq and total != r * rhs:
            return False
    return True


def support_validity(
    f: LinearFormulation,
    family: IndexSetFamily,
    max_ground: int = 12,
    max_binaries: int = 12,
) -> bool:
    """Whether the formulation realizes exactly the feasible supports.

    For every nonempty subset of the ground set, uniform mass on it must be
    completable to a feasible point (over some binary assignment and some
    auxiliary values) exactly when the subset lies in a member set.
    Each binary assignment is compiled once: its equalities are solved for
    the auxiliary variables, and exact Fourier-Motzkin elimination projects
    the auxiliaries out, keeping the primary variables symbolic.  A support
    is then tested against each projected system by integer row sums.  Cost:
    O(2^b) projections plus 2^|J|·2^b integer row tests.
    """
    j = sorted(ground_set(family))
    if len(j) > max_ground:
        raise SizeGuardError(f"ground set of {len(j)} exceeds the cap of {max_ground}")
    lam = f.lambda_names()
    if set(lam) != set(j):
        raise InputError("formulation's primary variables do not match the family")
    binaries = f.binary_names()
    if len(binaries) > max_binaries:
        raise SizeGuardError(f"{len(binaries)} binaries exceed the cap of {max_binaries}")
    bit = {v: 1 << k for k, v in enumerate(j)}
    systems = _lambda_systems(f, {lam[v]: bit[v] for v in j})
    for r in range(1, len(j) + 1):
        for support in combinations(j, r):
            mask = sum(bit[v] for v in support)
            ok = any(_admits_uniform(system, mask, r) for system in systems)
            if ok != is_feasible_set(family, support):
                return False
    return True


def _bound_propagation(f: LinearFormulation, passes: int = 25) -> bool:
    """Certify boundedness by interval propagation over the rows.

    Sufficient, not necessary; every formulation built here is certified
    because simplex rows cap their nonnegative variables at one.
    """
    lo = {v.name: v.lower for v in f.variables}
    hi = {v.name: v.upper for v in f.variables}

    def extremum(terms, skip, minimize):
        total = Fraction(0)
        for var, coef in terms:
            if var == skip:
                continue
            want_low = (coef > 0) == minimize
            bound = lo[var] if want_low else hi[var]
            if bound is None:
                return None
            total += coef * bound
        return total

    for _ in range(passes):
        changed = False
        for c in f.constraints:
            for var, coef in c.terms:
                for sense, minimize in (("<=", True), (">=", False)):
                    if c.sense not in (sense, "="):
                        continue
                    rest = extremum(c.terms, var, minimize)
                    if rest is None:
                        continue
                    cap = (c.rhs - rest) / coef
                    if (coef > 0) == minimize:  # the row caps var from above
                        if hi[var] is None or cap < hi[var]:
                            hi[var] = cap
                            changed = True
                    elif lo[var] is None or cap > lo[var]:
                        lo[var] = cap
                        changed = True
        if all(lo[n] is not None and hi[n] is not None for n in lo):
            return True
        if not changed:
            return False
    return all(lo[n] is not None and hi[n] is not None for n in lo)



def _reduce(basis, row: list[int]) -> list[int]:
    """The row with every basis pivot column eliminated, in integers."""
    for p, b in basis:
        if row[p]:
            row = _combine(b[p], row, -row[p], b)
    return row


def _insert(basis, row: list[int], p: int):
    """A new basis with the reduced ``row`` pivoting on column ``p``, kept fully reduced."""
    out = [(q, _combine(row[p], b, -b[p], row)) if b[p] else (q, b) for q, b in basis]
    out.append((p, row))
    return out


def _combine(s: int, x: list[int], t: int, y: list[int]) -> list[int]:
    """s·x + t·y, divided by the gcd of its entries."""
    out = [s * a + t * b for a, b in zip(x, y)]
    g = gcd(*out)
    return [a // g for a in out] if g > 1 else out


def _vertices(f: LinearFormulation, max_vars: int):
    """Yield every basic feasible point of the relaxation, repeats included.

    A depth-first search over the inequality rows in index order extends a
    fully reduced integer row-echelon basis that starts from the equalities;
    a row dependent on the rows chosen before it prunes its whole subtree,
    and a full basis gives its point straight from the pivots.
    """
    n = len(f.variables)
    if n > max_vars:
        raise SizeGuardError(f"{n} variables exceed the cap of {max_vars}")
    if not _bound_propagation(f):
        raise InputError("relaxation is not certifiably bounded; refusing to enumerate")
    index = {name: i for i, name in enumerate(f.variable_names())}

    eq_rows: list[list[int]] = []
    ineq_rows: list[list[int]] = []  # a.x <= b as [a..., b]
    for c in f.constraints:
        vec = [Fraction(0)] * (n + 1)
        for var, coef in c.terms:
            vec[index[var]] += coef
        vec[n] = c.rhs
        if c.sense == ">=":
            vec = [-x for x in vec]
        (eq_rows if c.sense == "=" else ineq_rows).append(_integral(vec))
    for i, v in enumerate(f.variables):
        for sign, bound in ((-1, v.lower), (1, v.upper)):
            if bound is not None:
                vec = [Fraction(0)] * (n + 1)
                vec[i], vec[n] = Fraction(sign), sign * bound
                ineq_rows.append(_integral(vec))

    basis: list[tuple[int, list[int]]] = []
    for row in eq_rows:
        row = _reduce(basis, row)
        p = next((k for k in range(n) if row[k]), None)
        if p is not None:
            basis = _insert(basis, row, p)
        elif row[n]:
            return  # the equalities alone are inconsistent
    checks = [([(k, a) for k, a in enumerate(row[:n]) if a], row[n]) for row in ineq_rows]

    def search(start: int, basis):
        missing = n - len(basis)
        if not missing:
            scale = lcm(*(abs(b[p]) for p, b in basis))
            x = [0] * n
            for p, b in basis:
                x[p] = b[n] * (scale // b[p])
            if all(sum(a * x[k] for k, a in coefs) <= rhs * scale for coefs, rhs in checks):
                yield tuple(Fraction(v, scale) for v in x)
            return
        for i in range(start, len(ineq_rows) - missing + 1):
            row = _reduce(basis, ineq_rows[i])
            p = next((k for k in range(n) if row[k]), None)
            if p is not None:
                yield from search(i + 1, _insert(basis, row, p))

    yield from search(0, basis)


def lp_vertices(f: LinearFormulation, max_vars: int = 12) -> list[tuple[Fraction, ...]]:
    """All vertices of the LP relaxation, sorted, by tight-row basis search.

    Every independent equality row is forced into the basis, and the
    remaining slots range over inequality rows and finite bounds, chosen
    depth first in index order; a row dependent on the rows already chosen
    prunes every basis that extends the choice.  The cost is one integer
    row reduction per node of the pruned search tree plus a feasibility
    test per full basis.  The relaxation must be certifiably bounded.
    """
    return sorted(set(_vertices(f, max_vars)))


def is_ideal(f: LinearFormulation, max_vars: int = 12) -> bool:
    """True iff every relaxation vertex has integral binary coordinates.

    Stops at the first vertex with a fractional binary coordinate.
    """
    slots = [i for i, v in enumerate(f.variables) if v.kind == BINARY]
    return all(vertex[s] in (0, 1) for vertex in _vertices(f, max_vars) for s in slots)


def _all_spanning_trees(d: int):
    for combo in combinations(combinations(range(d), 2), d - 1):
        if len(_spanning_forest(d, combo)) == d - 1:
            yield combo


def _holds_on_every_path(family: IndexSetFamily, edges) -> bool:
    """The definition: two sets' shared indices lie in every set on their tree path."""
    sets = family.sets
    for root in range(len(sets)):
        up = {child: parent for parent, child in _rooted_walk(edges, root)}
        for far, v in up.items():
            shared = sets[root] & sets[far]
            while v != root:
                if not shared <= sets[v]:
                    return False
                v = up[v]
    return True


def brute_admits_junction_tree(
    family: IndexSetFamily, max_sets: int = 7
) -> Optional[CandidateTree]:
    """Exhaustive junction-tree search over all spanning trees.

    Each tree is tested by the definition, on every path, and weighed by the
    intersection graph.  Besides deciding existence, this cross-checks two
    structural facts on the way: every qualifying tree carries maximum
    weight, and the maximum trees either all qualify or none does.
    """
    d = len(family)
    if d > max_sets:
        raise SizeGuardError(f"{d} sets exceed the cap of {max_sets}")
    g = intersection_graph(family)
    best_weight = None
    passing: list[tuple[int, CandidateTree]] = []
    max_trees: list[CandidateTree] = []
    for edges in _all_spanning_trees(d):
        tree = CandidateTree(family, edges)
        weight = sum(g.weight(i, j) for i, j in edges)
        if best_weight is None or weight > best_weight:
            best_weight = weight
            max_trees = []
        if weight == best_weight:
            max_trees.append(tree)
        if _holds_on_every_path(family, edges):
            passing.append((weight, tree))
    if passing:
        if any(weight != best_weight for weight, _ in passing):
            raise InvariantError("a qualifying tree of non-maximum weight appeared")
        if len(passing) != len(max_trees):
            raise InvariantError("maximum trees disagree on the junction property")
        return passing[0][1]
    return None


def _bipartitions(edge_subset: list[tuple[int, int]]):
    """All 2-colorings of the subset's vertices consistent with its edges."""
    adj: dict[int, list[int]] = {}
    for u, v in edge_subset:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    color: dict[int, int] = {}
    components = []
    for start in sorted(adj):
        if start in color:
            continue
        comp = [start]
        color[start] = 0
        stack = [start]
        ok = True
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in color:
                    color[y] = color[x] ^ 1
                    comp.append(y)
                    stack.append(y)
                elif color[y] == color[x]:
                    ok = False
        if not ok:
            return
        components.append(comp)
    for flips in product((0, 1), repeat=len(components)):
        side_a, side_b = set(), set()
        for comp, flip in zip(components, flips):
            for x in comp:
                if color[x] ^ flip:
                    side_b.add(x)
                else:
                    side_a.add(x)
        yield side_a, side_b


def _embeddable(g: ConflictGraph, edge_subset: list[tuple[int, int]]) -> bool:
    """Whether some biclique of ``g`` contains all the given edges."""
    for side_a, side_b in _bipartitions(edge_subset):
        if is_biclique(g, side_a, side_b):
            return True
    return False


def min_biclique_cover_exact(g: ConflictGraph, upper: int, max_edges: int = 12) -> int:
    """Smallest number of bicliques covering the edges, by pruned assignment.

    Edges are assigned to groups one by one; a group stays alive only while
    its edges still embed into a single biclique.  Group count is capped by
    ``upper``, which must come from a known cover.
    """
    edges = sorted(g.edges)
    if len(edges) > max_edges:
        raise SizeGuardError(f"{len(edges)} edges exceed the cap of {max_edges}")
    if not edges:
        return 0

    def search(pos: int, groups: list[list[tuple[int, int]]], budget: int) -> bool:
        if len(groups) > budget:
            return False
        if pos == len(edges):
            return True
        edge = edges[pos]
        for group in groups:
            group.append(edge)
            if _embeddable(g, group) and search(pos + 1, groups, budget):
                group.pop()
                return True
            group.pop()
        if len(groups) < budget:
            groups.append([edge])
            if search(pos + 1, groups, budget):
                groups.pop()
                return True
            groups.pop()
        return False

    for budget in range(1, upper + 1):
        if search(0, [], budget):
            return budget
    raise InputError(f"no cover with at most {upper} bicliques exists")
