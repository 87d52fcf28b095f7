"""Brute-force ground truth at desk scale, all in exact rational arithmetic.

Nothing here is meant to scale: every routine enumerates (spanning trees,
support subsets, tight-constraint bases, edge-to-biclique assignments) and
refuses inputs beyond an explicit budget instead of degrading silently.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import Optional

from .cdc import ConflictGraph, IndexSetFamily, ground_set, is_feasible_set
from .errors import InputError, InvariantError, SizeGuardError
from .formulate import BINARY, LinearFormulation
from .jtree import CandidateTree, _spanning_forest, intersection_graph, is_junction_tree
from .cover import is_biclique

Row = tuple[dict[str, Fraction], Fraction]  # sum coef*x <= rhs


def _normalize_row(coefs: dict[str, Fraction], rhs: Fraction) -> Row:
    coefs = {v: c for v, c in coefs.items() if c != 0}
    if coefs:
        scale = abs(coefs[min(coefs)])
        coefs = {v: c / scale for v, c in coefs.items()}
        rhs = rhs / scale
    return coefs, rhs


def _fourier_motzkin(rows: list[Row], max_rows: int = 50_000) -> bool:
    """Feasibility of a system of <= rows by exact variable elimination."""
    work = []
    seen = set()
    for coefs, rhs in rows:
        coefs, rhs = _normalize_row(coefs, rhs)
        if not coefs:
            if rhs < 0:
                return False
            continue
        key = (tuple(sorted(coefs.items())), rhs)
        if key not in seen:
            seen.add(key)
            work.append((coefs, rhs))
    while True:
        counts: dict[str, int] = {}
        for coefs, _ in work:
            for v in coefs:
                counts[v] = counts.get(v, 0) + 1
        if not counts:
            return True
        target = min(counts, key=lambda v: (counts[v], v))
        pos = [r for r in work if r[0].get(target, 0) > 0]
        neg = [r for r in work if r[0].get(target, 0) < 0]
        keep = [r for r in work if target not in r[0]]
        new_rows = keep
        seen = {(tuple(sorted(c.items())), r) for c, r in keep}
        for pc, pr in pos:
            a = pc[target]
            for nc, nr in neg:
                b = -nc[target]
                coefs: dict[str, Fraction] = {}
                for v, c in pc.items():
                    if v != target:
                        coefs[v] = coefs.get(v, Fraction(0)) + b * c
                for v, c in nc.items():
                    if v != target:
                        coefs[v] = coefs.get(v, Fraction(0)) + a * c
                rhs = b * pr + a * nr
                coefs, rhs = _normalize_row(coefs, rhs)
                if not coefs:
                    if rhs < 0:
                        return False
                    continue
                key = (tuple(sorted(coefs.items())), rhs)
                if key not in seen:
                    seen.add(key)
                    new_rows.append((coefs, rhs))
        if len(new_rows) > max_rows:
            raise SizeGuardError("variable elimination exceeded the row budget")
        work = new_rows


def _solve_equalities(
    eqs: list[tuple[dict[str, Fraction], Fraction]], ineqs: list[Row]
) -> Optional[list[Row]]:
    """Gaussian-eliminate equalities, substituting into the inequalities.

    Returns the reduced inequality system, or ``None`` when the equalities
    are inconsistent on their own.
    """
    reduced: list[tuple[str, dict[str, Fraction], Fraction]] = []  # pivot, row, rhs
    for coefs, rhs in eqs:
        coefs = dict(coefs)
        for pivot, prow, prhs in reduced:
            factor = coefs.pop(pivot, Fraction(0))
            if factor:
                for v, c in prow.items():
                    coefs[v] = coefs.get(v, Fraction(0)) - factor * c
                rhs -= factor * prhs
        coefs = {v: c for v, c in coefs.items() if c != 0}
        if not coefs:
            if rhs != 0:
                return None
            continue
        pivot = min(coefs)
        pc = coefs.pop(pivot)
        coefs = {v: c / pc for v, c in coefs.items()}
        rhs /= pc
        for i, (pv, prow, prhs) in enumerate(reduced):
            factor = prow.pop(pivot, Fraction(0))
            if factor:
                for v, c in coefs.items():
                    prow[v] = prow.get(v, Fraction(0)) - factor * c
                reduced[i] = (pv, {v: c for v, c in prow.items() if c != 0}, prhs - factor * rhs)
        reduced.append((pivot, coefs, rhs))
    # pivot var equals rhs - sum(coefs * free vars)
    out: list[Row] = []
    for coefs, rhs in ineqs:
        coefs = dict(coefs)
        for pivot, prow, prhs in reduced:
            factor = coefs.pop(pivot, Fraction(0))
            if factor:
                for v, c in prow.items():
                    coefs[v] = coefs.get(v, Fraction(0)) - factor * c
                rhs -= factor * prhs
        out.append((coefs, rhs))
    return out


def _system_feasible(eqs, ineqs) -> bool:
    reduced = _solve_equalities(eqs, ineqs)
    if reduced is None:
        return False
    return _fourier_motzkin(reduced)


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
    Completability is decided exactly: equality substitution first, then
    variable elimination on what remains.
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
    lam_names = set(lam.values())
    by_name = {v.name: v for v in f.variables}
    aux = [
        v.name
        for v in f.variables
        if v.kind != BINARY and v.name not in lam_names
    ]

    for r in range(1, len(j) + 1):
        for support in combinations(j, r):
            weight = Fraction(1, r)
            fixed_lam = {lam[v]: (weight if v in support else Fraction(0)) for v in j}
            ok = any(
                _completable(f, by_name, aux, fixed_lam, dict(zip(binaries, assignment)))
                for assignment in product((Fraction(0), Fraction(1)), repeat=len(binaries))
            )
            if ok != is_feasible_set(family, support):
                return False
    return True


def _completable(f, by_name, aux, fixed_lam, fixed_z) -> bool:
    fixed = dict(fixed_lam)
    fixed.update(fixed_z)
    for name, value in fixed.items():
        var = by_name[name]
        if var.lower is not None and value < var.lower:
            return False
        if var.upper is not None and value > var.upper:
            return False
    eqs = []
    ineqs: list[Row] = []
    for c in f.constraints:
        coefs: dict[str, Fraction] = {}
        shift = Fraction(0)
        for var, coef in c.terms:
            if var in fixed:
                shift += coef * fixed[var]
            else:
                coefs[var] = coefs.get(var, Fraction(0)) + coef
        rhs = c.rhs - shift
        if not coefs:
            if c.sense == "=" and rhs != 0:
                return False
            if c.sense == "<=" and rhs < 0:
                return False
            if c.sense == ">=" and rhs > 0:
                return False
            continue
        if c.sense == "=":
            eqs.append((coefs, rhs))
        elif c.sense == "<=":
            ineqs.append((coefs, rhs))
        else:
            ineqs.append(({v: -c for v, c in coefs.items()}, -rhs))
    for name in aux:
        var = by_name[name]
        if var.lower is not None:
            ineqs.append(({name: Fraction(-1)}, -var.lower))
        if var.upper is not None:
            ineqs.append(({name: Fraction(1)}, var.upper))
    return _system_feasible(eqs, ineqs)


def _gauss_solve(matrix: list[list[Fraction]], rhs: list[Fraction]) -> Optional[list[Fraction]]:
    """Solve a square exact system; ``None`` when singular."""
    n = len(matrix)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        pc = a[col][col]
        a[col] = [x / pc for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


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
                if c.sense in ("<=", "="):
                    rest = extremum(c.terms, var, minimize=True)
                    if rest is not None:
                        if coef > 0:
                            cap = (c.rhs - rest) / coef
                            if hi[var] is None or cap < hi[var]:
                                hi[var] = cap
                                changed = True
                        else:
                            cap = (c.rhs - rest) / coef
                            if lo[var] is None or cap > lo[var]:
                                lo[var] = cap
                                changed = True
                if c.sense in (">=", "="):
                    rest = extremum(c.terms, var, minimize=False)
                    if rest is not None:
                        if coef > 0:
                            cap = (c.rhs - rest) / coef
                            if lo[var] is None or cap > lo[var]:
                                lo[var] = cap
                                changed = True
                        else:
                            cap = (c.rhs - rest) / coef
                            if hi[var] is None or cap < hi[var]:
                                hi[var] = cap
                                changed = True
        if all(lo[n] is not None and hi[n] is not None for n in lo):
            return True
        if not changed:
            return False
    return all(lo[n] is not None and hi[n] is not None for n in lo)


def lp_vertices(f: LinearFormulation, max_vars: int = 12) -> list[tuple[Fraction, ...]]:
    """All vertices of the LP relaxation, by tight-constraint basis enumeration.

    Every independent equality row is forced into the basis, and the
    remaining slots range over inequality rows and finite bounds.  The
    relaxation must be certifiably bounded.
    """
    f.validate()
    names = f.variable_names()
    n = len(names)
    if n > max_vars:
        raise SizeGuardError(f"{n} variables exceed the cap of {max_vars}")
    if not _bound_propagation(f):
        raise InputError("relaxation is not certifiably bounded; refusing to enumerate")
    index = {name: i for i, name in enumerate(names)}

    eq_rows: list[tuple[list[Fraction], Fraction]] = []
    ineq_rows: list[tuple[list[Fraction], Fraction]] = []  # a.x <= b
    for c in f.constraints:
        vec = [Fraction(0)] * n
        for var, coef in c.terms:
            vec[index[var]] += coef
        if c.sense == "=":
            eq_rows.append((vec, c.rhs))
        elif c.sense == "<=":
            ineq_rows.append((vec, c.rhs))
        else:
            ineq_rows.append(([-x for x in vec], -c.rhs))
    for i, v in enumerate(f.variables):
        if v.lower is not None:
            vec = [Fraction(0)] * n
            vec[i] = Fraction(-1)
            ineq_rows.append((vec, -v.lower))
        if v.upper is not None:
            vec = [Fraction(0)] * n
            vec[i] = Fraction(1)
            ineq_rows.append((vec, v.upper))

    independent_eqs = _independent_rows(eq_rows, n)
    base_count = len(independent_eqs)
    vertices: dict[tuple[Fraction, ...], None] = {}
    for combo in combinations(range(len(ineq_rows)), n - base_count):
        matrix = [row[0][:] for row in independent_eqs] + [ineq_rows[i][0][:] for i in combo]
        rhs = [row[1] for row in independent_eqs] + [ineq_rows[i][1] for i in combo]
        point = _gauss_solve(matrix, rhs)
        if point is None:
            continue
        if any(
            sum(c * x for c, x in zip(vec, point)) != b for vec, b in eq_rows
        ):
            continue
        if any(
            sum(c * x for c, x in zip(vec, point)) > b for vec, b in ineq_rows
        ):
            continue
        vertices.setdefault(tuple(point), None)
    return sorted(vertices)


def _independent_rows(rows, n):
    """A maximal linearly independent subset, kept in input order."""
    kept: list[tuple[list[Fraction], Fraction]] = []
    basis: list[list[Fraction]] = []
    for vec, b in rows:
        probe = vec[:]
        for piv in basis:
            lead = next(i for i, x in enumerate(piv) if x != 0)
            if probe[lead] != 0:
                factor = probe[lead] / piv[lead]
                probe = [x - factor * y for x, y in zip(probe, piv)]
        if any(x != 0 for x in probe):
            basis.append(probe)
            kept.append((vec, b))
            if len(kept) == n:
                break
    return kept


def is_ideal(f: LinearFormulation, max_vars: int = 12) -> bool:
    """True iff every relaxation vertex has integral binary coordinates."""
    names = f.variable_names()
    binary_slots = [i for i, v in enumerate(f.variables) if v.kind == BINARY]
    for vertex in lp_vertices(f, max_vars=max_vars):
        for slot in binary_slots:
            if vertex[slot] not in (Fraction(0), Fraction(1)):
                return False
    return True


def _all_spanning_trees(d: int):
    for combo in combinations(combinations(range(d), 2), d - 1):
        if len(_spanning_forest(d, combo)) == d - 1:
            yield combo


def brute_admits_junction_tree(
    family: IndexSetFamily, max_sets: int = 7
) -> Optional[CandidateTree]:
    """Exhaustive junction-tree search over all spanning trees.

    Besides deciding existence, this cross-checks two structural facts on
    the way: every qualifying tree carries maximum weight, and the maximum
    trees either all qualify or none does.
    """
    d = len(family)
    if d > max_sets:
        raise SizeGuardError(f"{d} sets exceed the cap of {max_sets}")
    g = intersection_graph(family)
    best_weight = None
    passing: list[CandidateTree] = []
    max_trees: list[CandidateTree] = []
    for edges in _all_spanning_trees(d):
        tree = CandidateTree(family, edges)
        weight = tree.weight
        if best_weight is None or weight > best_weight:
            best_weight = weight
            max_trees = []
        if weight == best_weight:
            max_trees.append(tree)
        if is_junction_tree(family, tree):
            passing.append(tree)
    if passing:
        if any(t.weight != best_weight for t in passing):
            raise InvariantError("a qualifying tree of non-maximum weight appeared")
        if len(passing) != len(max_trees):
            raise InvariantError("maximum trees disagree on the junction property")
        return passing[0]
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
