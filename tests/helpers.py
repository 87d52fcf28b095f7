"""Independent oracles and generators shared by the test modules.

Everything here recomputes results from definitions (powerset scans, direct
formula evaluation, all-pairs scans, text parsing) so the production code is checked against
a second, simpler route.  The junction-tree references are the routes the
library used to take: Kruskal over all pairs, the per-edge cut test, the
cut recursion that re-walks each part, merging through set unions, and
the level cover that fused the same-depth cuts of a disjoint rewrite.
"""

from __future__ import annotations

import json
import math
import random
import re
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, product

from cdcmip import (
    Biclique,
    BicliqueCover,
    CandidateTree,
    IndexSetFamily,
    InputError,
    InvariantError,
    RedundantFamilyWarning,
    SizeGuardError,
    tree_cover,
)
from cdcmip import jtree, oracle
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


def brute_embeddable(edges, vertices, edge_subset) -> bool:
    """Some split of the subset's vertices into two sides is a biclique crossing every given edge."""
    ends = sorted({v for edge in edge_subset for v in edge})
    for sides in product((0, 1), repeat=len(ends)):
        a = {v for v, side in zip(ends, sides) if side == 0}
        b = set(ends) - a
        crossing = all((u in a) != (v in a) for u, v in edge_subset)
        if crossing and brute_is_biclique(edges, vertices, a, b):
            return True
    return False


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


def cross(o, a, b) -> Fraction:
    """Twice the signed area of the triangle ``o, a, b`` in rational arithmetic.

    Positive when ``o -> a -> b`` turns left, zero when the three are collinear.
    """
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def contains(poly, pt) -> bool:
    """Boundary-inclusive membership in a counterclockwise convex polygon, by ``cross``."""
    m = len(poly)
    return all(cross(poly[i], poly[(i + 1) % m], pt) >= 0 for i in range(m))


def polygon_error(poly):
    """The ``InputError`` message of one polygon's own checks, on ``Fraction`` points, or ``None``."""
    pts = [(Fraction(x), Fraction(y)) for x, y in poly]
    m = len(pts)
    if m < 3:
        return "polygons need at least three vertices"
    if len(set(pts)) != m:
        return "polygon repeats a vertex"
    for i in range(m):
        turn = cross(pts[i], pts[(i + 1) % m], pts[(i + 2) % m])
        if turn == 0:
            return "polygon has collinear consecutive vertices"
        if turn < 0:
            return "polygon must be convex and counterclockwise"
    return None


def pairwise_partition_error(polygons):
    """The ``InputError`` message of an all-pairs validation, or ``None``.

    Coordinates may be spelled any way ``Fraction`` parses.  Each polygon's
    own checks run in ``Fraction`` arithmetic; every pair of the checked
    polygons then goes through the separating-axis test.
    """
    polygons = [[(Fraction(x), Fraction(y)) for x, y in poly] for poly in polygons]
    for poly in polygons:
        if (error := polygon_error(poly)) is not None:
            return error
    if not polygons:
        return "a partition needs at least one polygon"
    for p, q in combinations(polygons, 2):
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
    sets = [sorted(i for i, pt in points.items() if contains(poly, pt)) for poly in p.polygons]
    return sets, points


def _segments_overlap(a, b, c, d) -> bool:
    """Collinear segments sharing more than a point."""
    if cross(a, b, c) != 0 or cross(a, b, d) != 0:
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


def per_root_holds_on_every_path(family, edges) -> bool:
    """The definition, rooting the tree once per set: two sets' shared indices
    lie in every set on their tree path."""
    sets = family.sets
    for root in range(len(sets)):
        up = jtree._preorder(edges, root)
        del up[root]
        for far, v in up.items():
            shared = sets[root] & sets[far]
            while v != root:
                if not shared <= sets[v]:
                    return False
                v = up[v]
    return True


@lru_cache(maxsize=8)
def _rooted_spanning_trees(d):
    """Each tree of ``oracle._all_spanning_trees(d)`` with its parents and depths, rooted at d - 1."""
    rooted = []
    for edges in oracle._all_spanning_trees(d).trees:
        up, depth = [-1] * d, [0] * d
        for parent, child in breadth_first_walk(edges, d - 1):
            up[child], depth[child] = parent, depth[parent] + 1
        rooted.append((edges, up, depth))
    return rooted


def _holds_on_every_path(sets, shared, up, depth) -> bool:
    """Two sets' shared indices lie in every set on their tree path, climbing
    from the deeper end until the two meet."""
    for i, j, common in shared:
        while i != j:
            if depth[i] < depth[j]:
                i, j = j, i
            i = up[i]
            if not common <= sets[i]:
                return False
    return True


def reference_brute_admits_junction_tree(family, max_sets=7):
    """The exhaustive tree search one tree at a time: each tree weighed by
    its middle sizes and tested on every sharing pair by the climb."""
    d = len(family)
    if d > max_sets:
        raise SizeGuardError(f"{d} sets exceed the cap of {max_sets}")
    sets = family.sets
    common = {(i, j): sets[i] & sets[j] for i, j in combinations(range(d), 2)}
    middle = {pair: len(s) for pair, s in common.items()}
    shared = [(i, j, s) for (i, j), s in common.items() if s]
    trees = [(sum(map(middle.__getitem__, e)), e, up, depth) for e, up, depth in _rooted_spanning_trees(d)]
    best = max(weight for weight, *_ in trees)
    passing = [(w, edges) for w, edges, *rooted in trees if _holds_on_every_path(sets, shared, *rooted)]
    if passing:
        if any(weight != best for weight, _ in passing):
            raise InvariantError("a qualifying tree of non-maximum weight appeared")
        if len(passing) != sum(weight == best for weight, *_ in trees):
            raise InvariantError("maximum trees disagree on the junction property")
        return CandidateTree(family, passing[0][1])
    return None


def disconnected_index(family, tree):
    """The smallest index whose holders are not connected by tree edges between holders."""
    for v in sorted(ground_set(family)):
        holders = [i for i, s in enumerate(family.sets) if v in s]
        inside = [(i, j) for i, j in tree.edges if v in family.sets[i] and v in family.sets[j]]
        if 1 + len(breadth_first_walk(inside, holders[0])) < len(holders):
            return v
    return None


def reference_merge_cover(bicliques, g):
    """Greedy merge building both unions as sets and testing each against ``g.edges``."""
    edges, vertices = g.edges, g.vertices
    merged = []
    for cand in bicliques:
        for idx, acc in enumerate(merged):
            pairs = (
                (acc.side_a | cand.side_a, acc.side_b | cand.side_b),
                (acc.side_a | cand.side_b, acc.side_b | cand.side_a),
            )
            fused = next(
                ((a, b) for a, b in pairs if brute_is_biclique(edges, vertices, a, b)), None
            )
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


def reference_level_cover(family, tree):
    """Tree-cut bicliques with all same-depth ones fused into one.

    Only valid when the member sets are pairwise disjoint: the conflict
    graph is then complete multipartite, so bicliques produced at the same
    recursion depth can always be combined side-wise.
    """
    if sum(len(s) for s in family.sets) != len(ground_set(family)):
        raise ValueError("level merging needs pairwise disjoint member sets")
    splits = jtree._cut_recursion(tree)
    depth = [0] * len(splits)
    level_sides: list[tuple[set[int], set[int]]] = []
    for key, (_, left, right, left_sub, right_sub) in enumerate(splits):
        for sub in (left_sub, right_sub):
            if sub is not None:
                depth[sub] = depth[key] + 1
        if depth[key] == len(level_sides):
            level_sides.append((set(), set()))
        side_a, side_b = level_sides[depth[key]]
        side_a.update(*map(family.sets.__getitem__, left))
        side_b.update(*map(family.sets.__getitem__, right))
    return BicliqueCover(Biclique(frozenset(a), frozenset(b)) for a, b in level_sides)


def padded_tree_cover(family, tree):
    """``tree_cover`` with its first member repeated: still a valid cover, one member too many."""
    members = list(tree_cover(family, tree))
    return BicliqueCover(members + members[:1])


def counted_verify_cover(monkeypatch, *modules) -> list:
    """The covers ``verify_cover`` is called on, recorded at each module's binding of it."""
    calls = []
    real = modules[0].verify_cover

    def counted(g, cover):
        calls.append(cover)
        return real(g, cover)

    for module in modules:
        monkeypatch.setattr(module, "verify_cover", counted)
    return calls


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
                    lo = None if parts[0] == "-inf" else Fraction(parts[0])
                    bounds[parts[1]] = (lo, Fraction(parts[2]))
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


# ---------------------------------------------------------------- writers
#
# The LP and JSON text with every value first made a Fraction, the route
# the writers took before integral values were stored as ints.


def _reference_name(name: str) -> str:
    """The name as given, which the LP format needs to be an ASCII identifier."""
    if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
        raise InputError(f"{name!r} is not an LP name")
    return name


def _reference_decimal(x: Fraction):
    """The exact decimal of ``x`` by decimal division, or None if it does not terminate."""
    den = x.denominator
    while den % 2 == 0:
        den //= 2
    while den % 5 == 0:
        den //= 5
    if den != 1:
        return None
    with localcontext() as ctx:
        ctx.prec = len(str(x.numerator)) + 2 * x.denominator.bit_length() + 2
        return format(Decimal(x.numerator) / Decimal(x.denominator), "f")


def reference_write_lp(f) -> str:
    for v in f.variables:
        _reference_name(v.name)
    rows = [_reference_name(c.name) for c in f.constraints]
    if "obj" in rows or len(set(rows)) != len(rows):
        raise InputError("row name collision")
    lines = ["\\ " + f.metadata.get("builder", "formulation"), "Minimize", " obj:", "Subject To"]
    for c, row in zip(f.constraints, rows):
        values = [Fraction(a) for _, a in c.terms] + [Fraction(c.rhs)]
        text = [_reference_decimal(x) for x in values]
        if None in text:
            scale = math.lcm(*(x.denominator for x in values))
            text = [str(int(x * scale)) for x in values]
        *coefs, rhs = text
        parts = []
        for (var, _), coef in zip(c.terms, coefs):
            mag = coef.lstrip("-")
            sign = "-" if coef.startswith("-") else "+"
            piece = var if mag == "1" else f"{mag} {var}"
            parts.append(f"{sign} {piece}")
        body = " ".join(parts) if parts else "0 " + f.variables[0].name
        if body.startswith("+ "):
            body = body[2:]
        lines.append(f" {row}: {body} {c.sense} {rhs}")
    lines.append("Bounds")
    for v in f.variables:
        name = v.name
        lo, up = (b if b is None else _reference_decimal(Fraction(b)) for b in (v.lower, v.upper))
        if (lo is None) != (v.lower is None) or (up is None) != (v.upper is None):
            raise InputError(f"a bound of variable {v.name!r} is not a terminating decimal")
        if lo is None and up is None:
            lines.append(f" {name} free")
        elif up is None:
            lines.append(f" {name} >= {lo}")
        elif lo is None:
            lines.append(f" -inf <= {name} <= {up}")
        else:
            lines.append(f" {lo} <= {name} <= {up}")
    binaries = [v.name for v in f.variables if v.kind == BINARY]
    if binaries:
        lines += ["Binaries", *(f" {name}" for name in binaries)]
    return "\n".join(lines + ["End"]) + "\n"


def reference_to_json(f) -> str:
    def text(x):
        return None if x is None else str(Fraction(x))

    variables = [
        {"name": v.name, "kind": v.kind, "lower": text(v.lower), "upper": text(v.upper)}
        for v in f.variables
    ]
    constraints = [
        {
            "name": c.name,
            "terms": [[var, text(a)] for var, a in c.terms],
            "sense": c.sense,
            "rhs": text(c.rhs),
        }
        for c in f.constraints
    ]
    payload = {"variables": variables, "constraints": constraints, "metadata": f.metadata}
    return json.dumps(payload, sort_keys=True)


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
    """``lp_vertices`` by solving every choice of tight inequality rows.

    A relaxation whose rows have rank below n holds a line and has no
    vertex; like ``lp_vertices``, this refuses it.
    """
    names = f.variable_names()
    n = len(names)
    if n > max_vars:
        raise SizeGuardError(f"{n} variables exceed the cap of {max_vars}")
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
    if len(_independent_rows(eq_rows + ineq_rows, n)) < n:
        raise InputError("relaxation holds a line, so it has no vertex; refusing to enumerate")
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
