"""Fast paths against brute pair-by-pair routes.

The bitset conflict graph, the redundancy scan, the planar front end's
index structures and the junction-tree core each answer the same question
as an all-pairs scan or an earlier route in ``helpers``; the exact oracles answer the same question as their earlier
routes there, which redo the whole elimination or solve for every case.  Families mix small labels with labels near 10**12, so a mask
that used the label itself as its bit position would show up here as a
size blow-up.
"""

import random
import warnings
from dataclasses import replace
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cdcmip import (
    Biclique,
    BicliqueCover,
    CandidateTree,
    IndexSetFamily,
    InputError,
    LinearFormulation,
    RedundantFamilyWarning,
    SizeGuardError,
    admits_junction_tree,
    build_extended_disjoint,
    build_extended_jtree,
    build_ib_from_cover,
    build_jeroslow_lowe,
    build_log_embedding,
    build_naive,
    build_sosk,
    conflict_graph,
    failing_index,
    heuristic_cover,
    is_biclique,
    is_irredundant,
    is_junction_tree,
    lp_vertices,
    maximum_spanning_tree_of,
    merge_cover,
    separation,
    sosk_family,
    support_validity,
    verify_cover,
)
from cdcmip.geom import PlanarPartition, _cross, _interiors_disjoint, dual_graph, partition_to_cdc
from cdcmip.jtree import _cut_recursion
from helpers import (
    all_points_partition_to_cdc,
    brute_conflict_edges,
    brute_is_biclique,
    cut_test_is_junction_tree,
    dense_maximum_spanning_tree,
    disconnected_index,
    pairset_verify_cover,
    pairwise_dual_graph,
    pairwise_has_containment,
    pairwise_partition_error,
    projection_interiors_disjoint,
    quiet_family,
    random_family,
    random_junction_family,
    reference_cut_recursion,
    reference_lp_vertices,
    reference_merge_cover,
    reference_support_validity,
)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

labels = st.one_of(st.integers(0, 12), st.integers(10**12, 10**12 + 3))
families = st.lists(
    st.frozensets(labels, min_size=1, max_size=6), min_size=1, max_size=6, unique=True
).map(quiet_family)


def brute_view(fam):
    """Conflict edges and ground set, recomputed from the member sets alone."""
    sets = [sorted(s) for s in fam.sets]
    return brute_conflict_edges(sets), set().union(*fam.sets)


def star_cover(edges, vertices):
    """One biclique per vertex: itself against its higher-labelled neighbours."""
    out = []
    for u in sorted(vertices):
        higher = frozenset(v for x, v in edges if x == u)
        if higher:
            out.append(Biclique(frozenset([u]), higher))
    return out


@PROPERTY
@given(families)
def test_conflict_graph_matches_pair_scan(fam):
    edges, ground = brute_view(fam)
    g = conflict_graph(fam)
    assert g.vertices == ground
    assert g.edges == edges
    assert g.edge_count == len(edges)
    for u in ground:
        for v in ground:
            assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in edges)
    assert max(m.bit_length() for m in g.adj.values()) <= len(ground)


@PROPERTY
@given(st.data())
def test_is_biclique_matches_all_pairs(data):
    fam = data.draw(families)
    edges, ground = brute_view(fam)
    g = conflict_graph(fam)
    outside = max(ground) + 1
    pool = sorted(ground) + [outside]
    side_a = data.draw(st.frozensets(st.sampled_from(pool), max_size=4))
    side_b = data.draw(st.frozensets(st.sampled_from(pool), max_size=4))
    assert is_biclique(g, side_a, side_b) == brute_is_biclique(edges, ground, side_a, side_b)
    # Sides drawn among the common neighbours of side_a, plus at most one
    # other vertex, so that positive answers are frequent too.
    common = [v for v in ground if all((min(u, v), max(u, v)) in edges for u in side_a)]
    near = data.draw(st.frozensets(st.sampled_from(common), max_size=4)) if common else frozenset()
    near |= data.draw(st.frozensets(st.sampled_from(pool), max_size=1))
    assert is_biclique(g, side_a, near) == brute_is_biclique(edges, ground, side_a, near)


def mutated(data, bicliques, pool):
    """The cover as is, with one biclique dropped, or with one side widened."""
    how = data.draw(st.sampled_from(["keep", "drop", "widen"]))
    if how == "keep" or not bicliques:
        return bicliques
    k = data.draw(st.integers(0, len(bicliques) - 1))
    if how == "drop":
        return bicliques[:k] + bicliques[k + 1 :]
    bc = bicliques[k]
    spare = [v for v in pool if v not in bc.side_a | bc.side_b]
    if not spare:
        return bicliques
    w = data.draw(st.sampled_from(spare))
    if data.draw(st.booleans()):
        widened = Biclique(bc.side_a | {w}, bc.side_b)
    else:
        widened = Biclique(bc.side_a, bc.side_b | {w})
    return bicliques[:k] + [widened] + bicliques[k + 1 :]


@PROPERTY
@given(st.data())
def test_verify_cover_matches_pair_set_on_star_covers(data):
    fam = data.draw(families)
    edges, ground = brute_view(fam)
    g = conflict_graph(fam)
    cover = BicliqueCover(mutated(data, star_cover(edges, ground), sorted(ground) + [max(ground) + 1]))
    assert verify_cover(g, cover) == pairset_verify_cover(edges, ground, cover)


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.data())
def test_verify_cover_matches_pair_set_on_heuristic_covers(seed, data):
    fam = random_junction_family(random.Random(seed), max_sets=8, max_ground=14)
    edges, ground = brute_view(fam)
    g = conflict_graph(fam)
    cover = BicliqueCover(mutated(data, list(heuristic_cover(fam)), sorted(ground)))
    assert verify_cover(g, cover) == pairset_verify_cover(edges, ground, cover)


@PROPERTY
@given(families)
def test_redundancy_scan_matches_pair_scan(fam):
    sets = [sorted(s) for s in fam.sets]
    want = pairwise_has_containment(sets)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        IndexSetFamily(sets)
    assert any(issubclass(w.category, RedundantFamilyWarning) for w in caught) == want
    assert is_irredundant(fam) == (not want)


# ---------------------------------------------------------------- planar
#
# Partitions are drawn with small integer coordinates, then sheared by an
# integer map and optionally transposed, so that edges of every slope, vertical
# strips and boxes that overlap along one axis only all occur.


@st.composite
def placements(draw):
    """A point map: integer shear (determinant nonzero), rational shift, maybe a transpose.

    Returns the map and whether it reverses orientation.
    """
    p, q, r, s = (draw(st.integers(-2, 2)) for _ in range(4))
    if p * s - q * r == 0:
        p, q, r, s = 1, 0, 0, 1
    tx, ty = (Fraction(draw(st.integers(-12, 12)), 4) for _ in range(2))
    transpose = draw(st.booleans())

    def f(pt):
        x, y = p * pt[0] + q * pt[1] + tx, r * pt[0] + s * pt[1] + ty
        return (y, x) if transpose else (x, y)

    return f, (p * s - q * r < 0) != transpose


def placed(draw, polys):
    f, flips = draw(placements())
    return [[f(pt) for pt in (reversed(poly) if flips else poly)] for poly in polys]


@st.composite
def strips(draw):
    """Triangles zigzagging between two lines at increasing integer stations."""
    d = draw(st.integers(1, 12))
    steps = st.lists(st.integers(1, 3), min_size=d + 2, max_size=d + 2)
    bottom, top = ([sum(xs[: k + 1]) for k in range(len(xs))] for xs in (draw(steps), draw(steps)))
    polys = []
    for t in range(d):
        i = t // 2
        if t % 2 == 0:
            polys.append([(bottom[i], 0), (bottom[i + 1], 0), (top[i], 1)])
        else:
            polys.append([(top[i], 1), (bottom[i + 1], 0), (top[i + 1], 1)])
    return placed(draw, polys)


@st.composite
def grids(draw):
    """Unit squares, each kept whole or cut along either diagonal."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    polys = []
    for r in range(rows):
        for c in range(cols):
            a, b, cc, dd = (c, r), (c + 1, r), (c + 1, r + 1), (c, r + 1)
            cut = draw(st.sampled_from(["none", "up", "down"]))
            if cut == "none":
                polys.append([a, b, cc, dd])
            elif cut == "up":
                polys += [[a, b, cc], [a, cc, dd]]
            else:
                polys += [[a, b, dd], [b, cc, dd]]
    return placed(draw, polys)


@st.composite
def tilings(draw):
    """Rows of rectangles cut at each row's own stations, some dropped.

    Cuts that differ from row to row put corners inside other rectangles'
    edges (T-junctions) and make horizontal edges overlap only in part;
    dropped rectangles leave gaps, so the dual graph may be disconnected.
    """
    rows = draw(st.integers(1, 4))
    width = draw(st.integers(2, 8))
    polys = []
    for r in range(rows):
        inner = draw(st.sets(st.integers(1, 2 * width - 1), max_size=4))
        cuts = [Fraction(x, 2) for x in sorted(inner | {0, 2 * width})]
        for x0, x1 in zip(cuts, cuts[1:]):
            if draw(st.integers(0, 5)) > 0:
                polys.append([(x0, r), (x1, r), (x1, r + 1), (x0, r + 1)])
    if not polys:
        polys.append([(0, 0), (1, 0), (1, 1), (0, 1)])
    return placed(draw, polys)


def counterclockwise(tri):
    """The triangle turned counterclockwise; collinear corners stay as drawn."""
    a, b, c = tri
    if (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]) < 0:
        return [a, c, b]
    return tri


# Triangles on a small lattice: many overlap, many only touch, and a few
# are collinear.
coordinates = st.integers(0, 6)
soups = st.lists(
    st.lists(st.tuples(coordinates, coordinates), min_size=3, max_size=3, unique=True).map(
        counterclockwise
    ),
    min_size=1,
    max_size=6,
)


def check_front_end(polys):
    """The same verdict as the all-pairs route, and on acceptance the same outputs."""
    want_error = pairwise_partition_error(polys)
    try:
        part = PlanarPartition(polys)
    except InputError as exc:
        assert str(exc) == want_error
        return
    assert want_error is None
    assert dual_graph(part) == pairwise_dual_graph(part)
    fam, points = partition_to_cdc(part)
    want_sets, want_points = all_points_partition_to_cdc(part)
    assert [sorted(s) for s in fam.sets] == want_sets
    assert list(points.items()) == list(want_points.items())


@PROPERTY
@given(st.one_of(strips(), grids()))
def test_front_end_matches_all_pairs_on_sheared_strips_and_grids(polys):
    check_front_end(polys)


@PROPERTY
@given(tilings())
def test_front_end_matches_all_pairs_on_tilings(polys):
    check_front_end(polys)


@PROPERTY
@given(soups)
def test_front_end_matches_all_pairs_on_triangle_soups(polys):
    check_front_end(polys)


def convex_hull(points):
    """Counterclockwise hull of the points (monotone chain), collinear points dropped."""
    pts = sorted(set(points))

    def chain(seq):
        out = []
        for pt in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], pt) <= 0:
                out.pop()
            out.append(pt)
        return out[:-1]

    return tuple(chain(pts) + chain(reversed(pts)))


# Hulls on a 7x7 lattice: pairs overlap, touch along edges or at vertices,
# share vertices, and have collinear edges.
hulls = st.lists(st.tuples(coordinates, coordinates), min_size=3, max_size=8).map(
    convex_hull
).filter(lambda hull: len(hull) >= 3)


@PROPERTY
@given(st.lists(hulls, min_size=2, max_size=6))
def test_edge_line_overlap_test_matches_the_projection_test(polys):
    for p in polys:
        for q in polys:
            assert _interiors_disjoint(p, q) == projection_interiors_disjoint(p, q)


# ------------------------------------------------------ junction-tree core
#
# The sparse maximum spanning tree, the running-intersection identity, the
# cut recursion over one preorder and merging by masks, each against the
# route it replaced in ``helpers``: Kruskal over all pairs, the per-edge cut
# test, re-walking every part, and merging through set unions.

junction_families = st.integers(0, 2**32 - 1).map(
    lambda seed: random_junction_family(random.Random(seed), max_sets=12, max_ground=24)
)


@st.composite
def split_families(draw):
    """Sets drawn from up to three disjoint blocks of labels, so the pieces often share nothing."""
    blocks = draw(st.integers(1, 3))
    drawn = draw(
        st.lists(
            st.tuples(st.integers(0, blocks - 1), st.frozensets(st.integers(0, 5), min_size=1, max_size=4)),
            min_size=1,
            max_size=10,
        )
    )
    return quiet_family(dict.fromkeys(frozenset(100 * b + x for x in s) for b, s in drawn))


@st.composite
def spanning_trees(draw, fam):
    """A maximum spanning tree of the family, or a random path-, star- or bushy-shaped one."""
    d = len(fam)
    shape = draw(st.sampled_from(["maximum", "path", "star", "random"]))
    if shape == "maximum":
        return maximum_spanning_tree_of(fam)
    perm = draw(st.permutations(range(d)))
    parents = {
        "path": lambda i: i - 1,
        "star": lambda i: draw(st.sampled_from([0, 0, 0, i - 1])),
        "random": lambda i: draw(st.integers(0, i - 1)),
    }[shape]
    return CandidateTree(fam, [(perm[parents(i)], perm[i]) for i in range(1, d)])


@PROPERTY
@given(st.one_of(families, split_families(), junction_families))
def test_sparse_tree_matches_kruskal_over_all_pairs(fam):
    tree = maximum_spanning_tree_of(fam)
    assert tree.edges == dense_maximum_spanning_tree(fam)


@PROPERTY
@given(st.data())
def test_identity_matches_the_cut_test_on_any_spanning_tree(data):
    fam = data.draw(st.one_of(families, split_families(), junction_families))
    tree = data.draw(spanning_trees(fam))
    assert is_junction_tree(fam, tree) == cut_test_is_junction_tree(fam, tree)
    assert failing_index(fam, tree) == disconnected_index(fam, tree)


def nested(splits, key=0):
    """The preorder list of splits as the nested tuples of the reference."""
    if key is None or not splits:
        return None
    cut, left, right, left_sub, right_sub = splits[key]
    return (cut, set(left), set(right), nested(splits, left_sub), nested(splits, right_sub))


@PROPERTY
@given(st.data())
def test_cut_recursion_matches_rewalking_every_part(data):
    d = data.draw(st.integers(1, 40))
    tree = data.draw(spanning_trees(IndexSetFamily([[i] for i in range(d)])))
    assert nested(_cut_recursion(tree)) == reference_cut_recursion(tree)


@PROPERTY
@given(st.one_of(families, junction_families), st.data())
def test_mask_merge_matches_set_unions(fam, data):
    g = conflict_graph(fam)
    pool = sorted(g.vertices) + [max(g.vertices) + 1, max(g.vertices) + 2]  # two outside
    pieces = separation(fam, admits_junction_tree(fam)) if admits_junction_tree(fam) else []
    bicliques = []
    for _ in range(data.draw(st.integers(0, 10))):
        if pieces and data.draw(st.booleans()):
            # part of a tree-cut biclique, so merges succeed often
            bc = data.draw(st.sampled_from(pieces))
            a = data.draw(st.frozensets(st.sampled_from(sorted(bc.side_a)), min_size=1))
            b = data.draw(st.frozensets(st.sampled_from(sorted(bc.side_b)), min_size=1))
        else:
            a = data.draw(st.frozensets(st.sampled_from(pool), min_size=1, max_size=3))
            rest = [v for v in pool if v not in a]
            b = data.draw(st.frozensets(st.sampled_from(rest), min_size=1, max_size=3))
        bicliques.append(Biclique(a, b) if data.draw(st.booleans()) else Biclique(b, a))
    assert merge_cover(bicliques, g) == reference_merge_cover(bicliques, g)


# ---------------------------------------------------------------- oracles
#
# Models come from every builder on small random families (with and without
# a junction tree) and from build_sosk, as built, with one constraint dropped
# or its right-hand side raised by one, or with one continuous variable's
# bound dropped.  The references are slow, so the
# sizes sit well inside the oracles' caps of 12.

ORACLE_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

BUILDERS = {
    "naive": build_naive,
    "jl": build_jeroslow_lowe,
    "log": build_log_embedding,
    "ib": lambda fam: build_ib_from_cover(fam, heuristic_cover(fam)),
    "ext-jtree": build_extended_jtree,
    "ext-disjoint": build_extended_disjoint,
}


@st.composite
def oracle_models(draw, max_sets=4, max_ground=6):
    """A (model, family) pair: a builder's output, maybe with one piece dropped or moved."""
    kind = draw(st.sampled_from(["sosk", *BUILDERS]))
    if kind == "sosk":
        n = draw(st.integers(3, max_ground))
        k = draw(st.integers(2, n - 1))
        f, fam = build_sosk(n, k), sosk_family(n, k)
    else:
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        if kind == "ib" or draw(st.booleans()):
            fam = random_junction_family(rng, max_sets=max_sets, max_ground=max_ground)
        else:
            fam = random_family(rng, max_sets=max_sets, max_ground=max_ground)
        if kind == "ib" and admits_junction_tree(fam) is None:
            kind = "naive"
        f = BUILDERS[kind](fam)
    variables, constraints = list(f.variables), list(f.constraints)
    how = draw(st.sampled_from(["keep", "constraint", "shift", "bound"]))
    bounded = [i for i, v in enumerate(variables) if v.kind != "binary" and (v.lower, v.upper) != (None, None)]
    if how in ("constraint", "shift") and constraints:
        k = draw(st.integers(0, len(constraints) - 1))
        if how == "constraint":
            del constraints[k]
        else:
            constraints[k] = replace(constraints[k], rhs=constraints[k].rhs + 1)
    elif how == "bound" and bounded:
        i = draw(st.sampled_from(bounded))
        v = variables[i]
        variables[i] = replace(v, lower=None) if v.lower is not None else replace(v, upper=None)
    return LinearFormulation(variables, constraints, dict(f.metadata)), fam


def outcome(fn, *args):
    """The result, or the class of the refusal raised."""
    try:
        return fn(*args)
    except (InputError, SizeGuardError) as exc:
        return type(exc)


@ORACLE_PROPERTY
@given(oracle_models())
def test_support_validity_matches_per_support_elimination(model):
    f, fam = model
    assert outcome(support_validity, f, fam) == outcome(reference_support_validity, f, fam)


@ORACLE_PROPERTY
@given(oracle_models(max_sets=3, max_ground=4))
def test_lp_vertices_match_every_basis_solve(model):
    f, _ = model
    assert outcome(lp_vertices, f) == outcome(reference_lp_vertices, f)
