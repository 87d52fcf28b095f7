"""Independent oracles and generators shared by the test modules.

Everything here recomputes results from definitions (powerset scans, direct
formula evaluation, all-pairs scans, text parsing) so the production code is checked against
a second, simpler route.  The junction-tree references are the routes the
library used to take: Kruskal over all pairs, the per-edge cut test, the
cut recursion that re-walks each part, and merging through set unions.
"""

from __future__ import annotations

import random
import warnings
from fractions import Fraction
from itertools import chain, combinations, product

from cdcmip import (
    Biclique,
    BicliqueCover,
    IndexSetFamily,
    InputError,
    RedundantFamilyWarning,
    SizeGuardError,
    is_biclique,
)
from cdcmip import geom, jtree, oracle
from cdcmip.cdc import ground_set
from cdcmip.formulate import BINARY
from cdcmip.geom import PlanarPartition


def quiet_family(sets) -> IndexSetFamily:
    """Random sweeps legitimately produce redundant families; keep them quiet."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RedundantFamilyWarning)
        return IndexSetFamily(sets)


def powerset(items):
    items = sorted(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def brute_feasible(sets, subset) -> bool:
    t = frozenset(subset)
    return not t or any(t <= frozenset(s) for s in sets)


def brute_minimal_infeasible(sets):
    """Powerset scan, no pruning: infeasible with every proper subset feasible."""
    j = sorted(set().union(*map(frozenset, sets)))
    out = []
    for t in powerset(j):
        t = frozenset(t)
        if t and not brute_feasible(sets, t):
            if all(brute_feasible(sets, t - {x}) for x in t):
                out.append(t)
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def brute_conflict_edges(sets):
    j = sorted(set().union(*map(frozenset, sets)))
    return {
        (u, v)
        for u, v in combinations(j, 2)
        if not brute_feasible(sets, {u, v})
    }


def brute_is_biclique(edges, vertices, side_a, side_b) -> bool:
    """Nonempty disjoint sides inside ``vertices`` with every cross pair in ``edges``."""
    a, b = set(side_a), set(side_b)
    if not a or not b or a & b or not (a | b) <= set(vertices):
        return False
    return all((min(u, v), max(u, v)) in edges for u in a for v in b)


def pairset_verify_cover(edges, vertices, cover) -> bool:
    """Every member a biclique, and the union of their cross pairs is ``edges``."""
    covered = set()
    for bc in cover:
        if not brute_is_biclique(edges, vertices, bc.side_a, bc.side_b):
            return False
        covered.update((min(u, v), max(u, v)) for u in bc.side_a for v in bc.side_b)
    return covered == set(edges)


def pairwise_has_containment(sets) -> bool:
    """Some member set lies inside another distinct one, by testing every pair."""
    return any(a <= b or b <= a for a, b in combinations(map(frozenset, sets), 2))


def projection_interiors_disjoint(p, q) -> bool:
    """Separating-axis test: the projections meet in at most a point along some edge normal."""
    def extent(poly, normal):
        values = [normal[0] * x + normal[1] * y for x, y in poly]
        return min(values), max(values)

    for poly in (p, q):
        for (ax, ay), (bx, by) in zip(poly, poly[1:] + poly[:1]):
            normal = (ay - by, bx - ax)
            plo, phi = extent(p, normal)
            qlo, qhi = extent(q, normal)
            if phi <= qlo or qhi <= plo:
                return True
    return False


def pairwise_partition_error(polygons):
    """The ``InputError`` message of an all-pairs validation, or ``None``.

    Each polygon's own checks run as a one-polygon partition, which has no
    pair to test; every pair of the checked polygons then goes through the
    separating-axis test.
    """
    fixed = []
    for poly in polygons:
        try:
            fixed.append(PlanarPartition([poly]).polygons[0])
        except InputError as exc:
            return str(exc)
    if not fixed:
        return "a partition needs at least one polygon"
    for p, q in combinations(fixed, 2):
        if not projection_interiors_disjoint(p, q):
            return "polygon interiors overlap"
    return None


def all_points_partition_to_cdc(p: PlanarPartition):
    """Pooled vertices in first-seen order, each polygon tested against all of them."""
    index_of = {}
    for poly in p.polygons:
        for pt in poly:
            if pt not in index_of:
                index_of[pt] = len(index_of) + 1
    points = {i: pt for pt, i in index_of.items()}
    sets = [sorted(i for i, pt in points.items() if geom._contains(poly, pt)) for poly in p.polygons]
    return sets, points


def _segments_overlap(a, b, c, d) -> bool:
    """Collinear segments sharing more than a point."""
    if geom._cross(a, b, c) != 0 or geom._cross(a, b, d) != 0:
        return False
    axis = 0 if a[0] != b[0] else 1
    lo1, hi1 = sorted((a[axis], b[axis]))
    lo2, hi2 = sorted((c[axis], d[axis]))
    return max(lo1, lo2) < min(hi1, hi2)


def pairwise_dual_graph(p: PlanarPartition) -> set[tuple[int, int]]:
    """Every pair of polygons, every pair of their edges, tested for a shared segment."""
    def edges(poly):
        return [(poly[s], poly[(s + 1) % len(poly)]) for s in range(len(poly))]

    return {
        (i, j)
        for (i, a), (j, b) in combinations(enumerate(p.polygons), 2)
        if any(_segments_overlap(*e, *f) for e in edges(a) for f in edges(b))
    }


def dense_maximum_spanning_tree(family) -> tuple[tuple[int, int], ...]:
    """Kruskal over every pair of member sets, by intersection size descending, then pair."""
    sets = family.sets
    weight = {(i, j): len(sets[i] & sets[j]) for i, j in combinations(range(len(sets)), 2)}
    order = sorted(weight, key=lambda e: (-weight[e], e))
    return tuple(sorted(jtree._spanning_forest(len(sets), order)))


def breadth_first_walk(edges, root) -> list[tuple[int, int]]:
    """(parent, child) pairs of the forest's tree containing ``root``, breadth first.

    Every parent comes before its children, and each vertex's children come
    in ordinal order.
    """
    adj = {}
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


def tree_split(tree, edge) -> tuple[set[int], set[int]]:
    """Vertex sets of the two components of the tree minus ``edge``, by a fresh walk."""
    i, j = min(edge), max(edge)
    rest = [e for e in tree.edges if e != (i, j)]
    side = {i} | {child for _, child in breadth_first_walk(rest, i)}
    return side, set(range(tree.size)) - side


def cut_test_is_junction_tree(family, tree) -> bool:
    """Each edge's two sides may only share what its middle set holds."""
    def union(vertices):
        return frozenset().union(*(family.sets[v] for v in vertices))

    for edge in tree.edges:
        left, right = tree_split(tree, edge)
        if not union(left) & union(right) <= tree.mids[edge]:
            return False
    return True


def disconnected_index(family, tree):
    """The smallest index whose holders are not connected by tree edges between holders."""
    for v in sorted(ground_set(family)):
        holders = [i for i, s in enumerate(family.sets) if v in s]
        inside = [(i, j) for i, j in tree.edges if v in family.sets[i] and v in family.sets[j]]
        if 1 + len(breadth_first_walk(inside, holders[0])) < len(holders):
            return v
    return None


def reference_merge_cover(bicliques, g):
    """Greedy merge building both unions as sets and testing each with ``is_biclique``."""
    merged = []
    for cand in bicliques:
        for idx, acc in enumerate(merged):
            pairs = (
                (acc.side_a | cand.side_a, acc.side_b | cand.side_b),
                (acc.side_a | cand.side_b, acc.side_b | cand.side_a),
            )
            fused = next(((a, b) for a, b in pairs if is_biclique(g, a, b)), None)
            if fused is not None:
                merged[idx] = Biclique(*fused)
                break
        else:
            merged.append(cand)
    return BicliqueCover(merged)


def reference_cut_recursion(tree):
    """Balanced cuts by re-walking each part: (cut, left, right, left_sub, right_sub) nested."""
    def build(vertices, edges):
        if len(vertices) <= 1:
            return None
        walk = breadth_first_walk(edges, min(vertices))
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
        return (
            cut, left, right,
            build(left, [e for e in rest if e[0] in left]),
            build(right, [e for e in rest if e[0] in right]),
        )

    return build(set(range(tree.size)), list(tree.edges))


def random_family(rng: random.Random, max_sets=6, max_ground=10) -> IndexSetFamily:
    d = rng.randint(1, max_sets)
    n = rng.randint(max(d, 2), max_ground)
    sets: set[frozenset[int]] = set()
    while len(sets) < d:
        size = rng.randint(1, n)
        sets.add(frozenset(rng.sample(range(1, n + 1), size)))
    return quiet_family(sorted(sets, key=sorted))


def random_junction_family(rng: random.Random, max_sets=10, max_ground=20) -> IndexSetFamily:
    """A family guaranteed to admit a junction tree.

    Build a random tree over the member sets and let every element occupy a
    connected subtree of it; any element shared by two sets then lives on
    the whole path between them, which is the junction property.
    """
    d = rng.randint(1, max_sets)
    parent = {i: rng.randrange(i) for i in range(1, d)}
    adj = {i: [] for i in range(d)}
    for i, p in parent.items():
        adj[i].append(p)
        adj[p].append(i)
    sets = [set() for _ in range(d)]
    next_index = 1
    n_shared = rng.randint(0, max(max_ground - d, 0))
    for _ in range(n_shared):
        root = rng.randrange(d)
        member = {root}
        frontier = [x for x in adj[root] if x not in member]
        while frontier and rng.random() < 0.55:
            pick = frontier.pop(rng.randrange(len(frontier)))
            member.add(pick)
            frontier.extend(x for x in adj[pick] if x not in member and x not in frontier)
        for v in member:
            sets[v].add(next_index)
        next_index += 1
    seen: set[frozenset[int]] = set()
    for s in sets:
        while not s or frozenset(s) in seen:
            s.add(next_index)
            next_index += 1
        seen.add(frozenset(s))
    return quiet_family(sets)


def parse_lp(text: str):
    """Parse the LP writer's output back into (terms, sense, rhs) rows.

    Returns (rows, bounds, binaries) where rows map constraint names to
    ({var: coef}, sense, rhs) with exact fractions.
    """
    lines = [ln.rstrip("\n") for ln in text.splitlines()]
    section = None
    rows = {}
    bounds = {}
    binaries = []
    for ln in lines:
        stripped = ln.strip()
        if not stripped or stripped.startswith("\\"):
            continue
        if stripped in ("Minimize", "Subject To", "Bounds", "Binaries", "End"):
            section = stripped
            continue
        if section == "Minimize":
            continue
        if section == "Subject To":
            name, body = stripped.split(":", 1)
            for sense in ("<=", ">=", "="):
                if f" {sense} " in body:
                    lhs, rhs = body.rsplit(f" {sense} ", 1)
                    break
            rows[name.strip()] = (_parse_terms(lhs), sense, Fraction(rhs.strip()))
        elif section == "Bounds":
            if stripped.endswith(" free"):
                bounds[stripped[:-5].strip()] = (None, None)
            elif "<=" in stripped:
                parts = [p.strip() for p in stripped.split("<=")]
                if len(parts) == 3:
                    bounds[parts[1]] = (Fraction(parts[0]), Fraction(parts[2]))
                else:
                    bounds[parts[0]] = (None, Fraction(parts[1]))
            elif ">=" in stripped:
                var, lo = [p.strip() for p in stripped.split(">=")]
                bounds[var] = (Fraction(lo), None)
        elif section == "Binaries":
            binaries.extend(stripped.split())
    return rows, bounds, binaries


def _parse_terms(body: str):
    tokens = body.split()
    terms: dict[str, Fraction] = {}
    sign = Fraction(1)
    pending: Fraction | None = None
    for tok in tokens:
        if tok == "+":
            sign = Fraction(1)
        elif tok == "-":
            sign = Fraction(-1)
        else:
            try:
                value = Fraction(tok)
            except ValueError:
                coef = sign * (pending if pending is not None else Fraction(1))
                terms[tok] = terms.get(tok, Fraction(0)) + coef
                sign = Fraction(1)
                pending = None
                continue
            pending = value
    return terms


def rows_match_up_to_scaling(parsed_rows, formulation) -> bool:
    """Each IR constraint must appear in the text scaled by a positive factor."""
    for c in formulation.constraints:
        want: dict[str, Fraction] = {}
        for var, coef in c.terms:
            want[var] = want.get(var, Fraction(0)) + coef
        want = {v: x for v, x in want.items() if x != 0}
        if c.name not in parsed_rows:
            return False
        got, sense, rhs = parsed_rows[c.name]
        if sense != c.sense:
            return False
        anchor = sorted(want)[0]
        if anchor not in got or got[anchor] == 0:
            return False
        scale = got[anchor] / want[anchor]
        if scale <= 0:
            return False
        if {v: x * scale for v, x in want.items()} != got:
            return False
        if c.rhs * scale != rhs:
            return False
    return True


# ---------------------------------------------------------------- oracles
#
# The exact oracles' earlier routes, kept as references: support validity
# rebuilds and eliminates the whole system for every (support, assignment)
# pair, and vertex enumeration solves every choice of tight rows afresh.


def _normalize_row(coefs, rhs):
    coefs = {v: c for v, c in coefs.items() if c != 0}
    if coefs:
        scale = abs(coefs[min(coefs)])
        coefs = {v: c / scale for v, c in coefs.items()}
        rhs = rhs / scale
    return coefs, rhs


def _fourier_motzkin(rows, max_rows=50_000) -> bool:
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
        counts = {}
        for coefs, _ in work:
            for v in coefs:
                counts[v] = counts.get(v, 0) + 1
        if not counts:
            return True
        target = min(counts, key=lambda v: (counts[v], v))
        pos = [r for r in work if r[0].get(target, 0) > 0]
        neg = [r for r in work if r[0].get(target, 0) < 0]
        new_rows = [r for r in work if target not in r[0]]
        seen = {(tuple(sorted(c.items())), r) for c, r in new_rows}
        for pc, pr in pos:
            a = pc[target]
            for nc, nr in neg:
                b = -nc[target]
                coefs = {}
                for v, c in pc.items():
                    if v != target:
                        coefs[v] = coefs.get(v, Fraction(0)) + b * c
                for v, c in nc.items():
                    if v != target:
                        coefs[v] = coefs.get(v, Fraction(0)) + a * c
                coefs, rhs = _normalize_row(coefs, b * pr + a * nr)
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


def _solve_equalities(eqs, ineqs):
    """Gaussian-eliminate equalities, substituting into the inequalities.

    Returns the reduced inequality system, or ``None`` when the equalities
    are inconsistent on their own.
    """
    reduced = []  # pivot, row, rhs
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
    out = []
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


def _completable(f, by_name, aux, fixed_lam, fixed_z) -> bool:
    """Whether fixed primary and binary values extend to a feasible point."""
    fixed = dict(fixed_lam)
    fixed.update(fixed_z)
    for name, value in fixed.items():
        var = by_name[name]
        if var.lower is not None and value < var.lower:
            return False
        if var.upper is not None and value > var.upper:
            return False
    eqs = []
    ineqs = []
    for c in f.constraints:
        coefs = {}
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


def reference_support_validity(f, family, max_ground=12, max_binaries=12) -> bool:
    """``support_validity`` by one elimination per (support, assignment) pair."""
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
    aux = [v.name for v in f.variables if v.kind != BINARY and v.name not in lam_names]
    for r in range(1, len(j) + 1):
        for support in combinations(j, r):
            weight = Fraction(1, r)
            fixed_lam = {lam[v]: (weight if v in support else Fraction(0)) for v in j}
            ok = any(
                _completable(f, by_name, aux, fixed_lam, dict(zip(binaries, assignment)))
                for assignment in product((Fraction(0), Fraction(1)), repeat=len(binaries))
            )
            if ok != brute_feasible(family.sets, support):
                return False
    return True


def _gauss_solve(matrix, rhs):
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


def _independent_rows(rows, n):
    """A maximal linearly independent subset, kept in input order."""
    kept = []
    basis = []
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


def reference_lp_vertices(f, max_vars=12):
    """``lp_vertices`` by solving every choice of tight inequality rows."""
    names = f.variable_names()
    n = len(names)
    if n > max_vars:
        raise SizeGuardError(f"{n} variables exceed the cap of {max_vars}")
    if not oracle._bound_propagation(f):
        raise InputError("relaxation is not certifiably bounded; refusing to enumerate")
    index = {name: i for i, name in enumerate(names)}
    eq_rows = []
    ineq_rows = []  # a.x <= b
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
    vertices = set()
    for combo in combinations(range(len(ineq_rows)), n - len(independent_eqs)):
        matrix = [row[0][:] for row in independent_eqs] + [ineq_rows[i][0][:] for i in combo]
        rhs = [row[1] for row in independent_eqs] + [ineq_rows[i][1] for i in combo]
        point = _gauss_solve(matrix, rhs)
        if point is None:
            continue
        if any(sum(c * x for c, x in zip(vec, point)) != b for vec, b in eq_rows):
            continue
        if any(sum(c * x for c, x in zip(vec, point)) > b for vec, b in ineq_rows):
            continue
        vertices.add(tuple(point))
    return sorted(vertices)
