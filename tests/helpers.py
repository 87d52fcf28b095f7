"""Independent oracles and generators shared by the test modules.

Everything here recomputes results from definitions (powerset scans, direct
formula evaluation, all-pairs scans, text parsing) so the production code is checked against
a second, simpler route.
"""

from __future__ import annotations

import random
import warnings
from fractions import Fraction
from itertools import chain, combinations

from cdcmip import IndexSetFamily, InputError, RedundantFamilyWarning
from cdcmip import geom
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
        if not geom._interiors_disjoint(p, q):
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
