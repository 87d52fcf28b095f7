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
from fractions import Fraction
from itertools import combinations

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from cdcmip import (
    Biclique,
    BicliqueCover,
    CandidateTree,
    IndexSetFamily,
    InputError,
    InvariantError,
    LinearFormulation,
    RedundantFamilyWarning,
    SizeGuardError,
    admits_junction_tree,
    brute_admits_junction_tree,
    build_equivalent_family,
    build_extended_disjoint,
    build_extended_jtree,
    build_ib_from_cover,
    build_jeroslow_lowe,
    build_log_embedding,
    build_naive,
    build_sosk,
    conflict_graph,
    failing_index,
    ground_set,
    heuristic_cover,
    is_irredundant,
    is_junction_tree,
    lp_vertices,
    maximum_spanning_tree_of,
    merge_cover,
    separation,
    sosk_family,
    support_validity,
    tree_cover,
    variable_accounting,
    verify_cover,
)
from cdcmip import oracle
from cdcmip.cdc import _exact_coordinate
from cdcmip.formulate import Constraint, Variable, write_lp
from cdcmip.geom import PlanarPartition, _interiors_disjoint, _shape, dual_graph, partition_to_cdc
from cdcmip.jtree import _cut_recursion
from helpers import (
    all_points_partition_to_cdc,
    brute_conflict_edges,
    brute_embeddable,
    cross,
    cut_test_is_junction_tree,
    dense_maximum_spanning_tree,
    disconnected_index,
    pairset_verify_cover,
    pairwise_dual_graph,
    pairwise_has_containment,
    pairwise_partition_error,
    per_root_holds_on_every_path,
    projection_interiors_disjoint,
    quiet_family,
    random_family,
    random_junction_family,
    reference_brute_admits_junction_tree,
    reference_cut_recursion,
    reference_level_cover,
    reference_lp_vertices,
    reference_merge_cover,
    reference_support_validity,
    reference_to_json,
    reference_write_lp,
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


one_size_families = st.integers(1, 4).flatmap(
    lambda size: st.lists(
        st.frozensets(labels, min_size=size, max_size=size), min_size=1, max_size=6, unique=True
    )
).map(quiet_family)


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


@PROPERTY
@given(one_size_families)
def test_one_size_families_have_no_containment(fam):
    # A family of one member size answers without the scan.
    assert not pairwise_has_containment([sorted(s) for s in fam.sets])
    assert is_irredundant(fam)


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
    assert part.polygons == tuple(tuple((Fraction(x), Fraction(y)) for x, y in poly) for poly in polys)
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
            while len(out) >= 2 and cross(out[-2], out[-1], pt) <= 0:
                out.pop()
            out.append(pt)
        return out[:-1]

    return tuple(chain(pts) + chain(reversed(pts)))


# Hulls on a 7x7 lattice: pairs overlap, touch along edges or at vertices,
# share vertices, and have collinear edges.
hulls = st.lists(st.tuples(coordinates, coordinates), min_size=3, max_size=8).map(
    convex_hull
).filter(lambda hull: len(hull) >= 3)


def check_overlap_test(polys):
    shapes = [_shape(p) for p in polys]
    for p, sp in zip(polys, shapes):
        for q, sq in zip(polys, shapes):
            assert _interiors_disjoint(sp, sq) == projection_interiors_disjoint(p, q)


@PROPERTY
@given(st.lists(hulls, min_size=2, max_size=6))
def test_edge_line_overlap_test_matches_the_projection_test(polys):
    check_overlap_test(polys)


# --------------------------------------------------- rational coordinates
#
# The same shapes with each axis scaled by its own 1/d and shifted by a
# rational offset, negative or with a numerator near 2**70, so that x and y
# have different denominators and vertices get different weights W.  A
# positive scale per axis keeps orientation, and an affine map keeps the
# overlaps, touches and collinear triples the lattice shapes have.

offsets = st.one_of(
    st.integers(-12, 12),
    st.integers(2**70 - 3, 2**70 + 3),
    st.integers(-(2**70) - 3, -(2**70) + 3),
)


@st.composite
def rational_axes(draw):
    dx, dy = draw(st.permutations([1, 2, 3, 7, 12]))[:2]
    ox, oy = (Fraction(draw(offsets), draw(st.sampled_from([1, 2, 3, 7, 12]))) for _ in range(2))
    return lambda pt: (Fraction(pt[0], dx) + ox, Fraction(pt[1], dy) + oy)


@st.composite
def rescaled(draw, shapes):
    f = draw(rational_axes())
    return [[f(pt) for pt in poly] for poly in draw(shapes)]


@PROPERTY
@given(rescaled(strips()))
def test_front_end_matches_all_pairs_on_rational_sheared_strips(polys):
    check_front_end(polys)


@PROPERTY
@given(rescaled(soups))
def test_front_end_matches_all_pairs_on_rational_triangle_soups(polys):
    check_front_end(polys)


@PROPERTY
@given(rescaled(st.lists(hulls, min_size=2, max_size=6)))
def test_edge_line_overlap_test_matches_the_projection_test_on_rational_hulls(polys):
    check_overlap_test(polys)


# ------------------------------------------------------------ spellings
#
# The same shapes with every coordinate written out again, each occurrence
# on its own: as a reduced fraction string, a decimal string when the value
# has one, an unreduced fraction string, a Fraction, or an int when the
# value is whole.  One value may then come spelled several ways in one
# partition, and the coordinate ranks must key the value, not the text.


def decimal_text(x: Fraction):
    """``x`` as an exact decimal string, or ``None`` when its expansion does not end."""
    rest, twos, fives = x.denominator, 0, 0
    while rest % 2 == 0:
        rest, twos = rest // 2, twos + 1
    while rest % 5 == 0:
        rest, fives = rest // 5, fives + 1
    if rest != 1:
        return None
    places = max(twos, fives)
    digits = str(abs(x.numerator) * 10**places // x.denominator).rjust(places + 1, "0")
    sign = "-" if x < 0 else ""
    return f"{sign}{digits[: len(digits) - places]}.{digits[len(digits) - places :] or '0'}"


def spellings(x: Fraction) -> list:
    out = [str(x), f"{2 * x.numerator}/{2 * x.denominator}", x]
    if (text := decimal_text(x)) is not None:
        out.append(text)
    if x.denominator == 1:
        out.append(int(x))
    return out


@st.composite
def respelled(draw, shapes):
    def spell(value):
        return draw(st.sampled_from(spellings(Fraction(value))))

    return [[(spell(x), spell(y)) for x, y in poly] for poly in draw(shapes)]


@PROPERTY
@given(respelled(st.one_of(strips(), grids(), tilings(), rescaled(strips()), rescaled(soups))))
def test_front_end_matches_all_pairs_whatever_the_spelling(polys):
    check_front_end(polys)


def test_spellings_parse_to_the_value():
    for x in [*map(Fraction, (1, 0, 7, "1/2", "-3/8", "-1/3")), Fraction(2**70 + 1, 4)]:
        assert {Fraction(s) for s in spellings(x)} == {x}
    assert {"1/2", "2/4", "0.5"} <= set(spellings(Fraction(1, 2)))
    assert decimal_text(Fraction(-3, 8)) == "-0.375" and decimal_text(Fraction(7)) == "7.0"


def fraction_or_refusal(parse, text):
    """The parsed value, or ``None`` when the text is refused."""
    try:
        return parse(text)
    except (InputError, ValueError, ZeroDivisionError):
        return None


@PROPERTY
@given(st.one_of(
    st.text("0123456789-/", max_size=22),
    st.text("0123456789-+/ _.eE\u0663\u00b2\u3000", max_size=22),
))
@example("-0/5")
@example("5/-3")
@example("+5/3")
@example("12345678901234567/9")  # 19 characters, the longest short spelling
@example("123456789012345678/9")
def test_exact_coordinate_reads_a_short_spelling_as_fraction_does(text):
    # Short integers and a/b skip Fraction's parser; the value and the
    # refusals must not show it.
    assert fraction_or_refusal(_exact_coordinate, text) == fraction_or_refusal(Fraction, text)


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
@given(st.one_of(families, split_families(), junction_families))
def test_maximum_spanning_tree_is_the_tree_validation_gives(fam):
    # The Kruskal forest goes to the tree unvalidated; the validating
    # constructor must take the same edges and give the same tree.
    tree = maximum_spanning_tree_of(fam)
    checked = CandidateTree(fam, tree.edges)
    assert tree == checked and tree.edges == checked.edges and type(tree.edges) is tuple
    assert tree.mids == checked.mids
    assert tree.weight == checked.weight
    assert tree.to_json() == checked.to_json()


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


def _spider(legs, length):
    """A centre 0 with ``legs`` paths of ``length`` vertices hanging off it."""
    edges = []
    for leg in range(legs):
        first = 1 + leg * length
        edges += [(0, first)] + [(v, v + 1) for v in range(first, first + length - 1)]
    return edges


def _caterpillar(spine, leaves):
    """A path of ``spine`` vertices, each holding ``leaves`` one-vertex leaves."""
    edges = [(v, v + 1) for v in range(spine - 1)]
    for v in range(spine):
        first = spine + v * leaves
        edges += [(v, leaf) for leaf in range(first, first + leaves)]
    return edges


def _broom(handle, bristles):
    """A path of ``handle`` vertices whose last one holds ``bristles`` leaves."""
    edges = [(v, v + 1) for v in range(handle - 1)]
    return edges + [(handle - 1, leaf) for leaf in range(handle, handle + bristles)]


TIE_TREES = {
    **{f"spider-{legs}x{length}": _spider(legs, length)
       for legs, length in [(3, 1), (3, 5), (3, 66), (4, 7), (4, 49), (5, 3), (5, 39), (6, 33)]},
    # The centre edge (0, 1) splits the tree exactly in half.
    **{f"double-star-{k}": [(0, 1)] + [(0, 2 + i) for i in range(k)]
       + [(1, 2 + k + i) for i in range(k)] for k in (1, 2, 7, 99)},
    **{f"path-{d}": [(v, v + 1) for v in range(d - 1)] for d in (2, 3, 64, 199, 200)},
    "caterpillar-40x4": _caterpillar(40, 4),
    "caterpillar-25x7": _caterpillar(25, 7),
    "broom-100x100": _broom(100, 100),
    "broom-20x150": _broom(20, 150),
}


@pytest.mark.parametrize("relabel", [False, True])
@pytest.mark.parametrize("name", sorted(TIE_TREES))
def test_cut_recursion_breaks_ties_as_rewalking_every_part(name, relabel):
    edges = TIE_TREES[name]
    d = len(edges) + 1
    label = list(range(d))
    if relabel:  # the same shape under other ordinals, so ties fall elsewhere
        random.Random(d).shuffle(label)
    tree = CandidateTree(
        IndexSetFamily([[i] for i in range(d)]), [(label[i], label[j]) for i, j in edges]
    )
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
            # at most len(pool) - 1 vertices, so that side b has one left
            a = data.draw(
                st.frozensets(st.sampled_from(pool), min_size=1, max_size=min(3, len(pool) - 1))
            )
            rest = [v for v in pool if v not in a]
            b = data.draw(st.frozensets(st.sampled_from(rest), min_size=1, max_size=3))
        bicliques.append(Biclique(a, b) if data.draw(st.booleans()) else Biclique(b, a))
    assert merge_cover(bicliques, fam) == reference_merge_cover(bicliques, g)


random_families = st.integers(0, 2**32 - 1).map(
    lambda seed: random_family(random.Random(seed), max_sets=12, max_ground=15)
)


def assert_level_cover(fam):
    """``tree_cover`` of the disjoint rewrite is the level cover, with ceil(log2 d) members."""
    res = build_equivalent_family(fam, disjoint=True)
    cover = tree_cover(res.family_prime, res.tree)
    assert cover == reference_level_cover(res.family_prime, res.tree)
    assert len(cover) == (len(fam) - 1).bit_length()


@PROPERTY
@given(st.one_of(families, random_families))
def test_tree_cover_of_a_disjoint_rewrite_is_the_level_cover(fam):
    assert_level_cover(fam)


def test_tree_cover_of_disjoint_pairs_is_the_level_cover():
    for d in range(2, 200):
        assert_level_cover(IndexSetFamily([[2 * i, 2 * i + 1] for i in range(d)]))


def test_extended_routes_agree_on_their_auxiliary_cost():
    """Four counts of the copies beyond the original indices agree, per route.

    The builder's ``aux_continuous``, the rewrite's ``extra_continuous``,
    ``variable_accounting`` and the copy variables the model declares minus
    |J|; the disjoint route spends exactly its logarithmic binaries and the
    tree route at most d - 1.
    """
    rng = random.Random(25)
    fams = [random_family(rng, 10, 15) for _ in range(200)]
    fams += [random_junction_family(rng, 10, 20) for _ in range(200)]
    for fam in fams:
        acc = variable_accounting(fam)
        j = len(ground_set(fam))
        tree, disjoint = build_extended_jtree(fam), build_extended_disjoint(fam)
        routes = [
            (tree, False, "lamp_", acc.extended_jtree_cont),
            (disjoint, True, "lampp_", acc.extended_disjoint_cont),
        ]
        for f, mode, prefix, accounted in routes:
            copies = sum(name.startswith(prefix) for name in f.variable_names())
            rewrite = build_equivalent_family(fam, disjoint=mode)
            assert f.metadata["aux_continuous"] == rewrite.extra_continuous == accounted == copies - j
        assert len(disjoint.binary_names()) == acc.disjoint_binaries
        assert len(tree.binary_names()) <= acc.jtree_binaries_ub


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
            constraints[k] = constraints[k]._replace(rhs=constraints[k].rhs + 1)
    elif how == "bound" and bounded:
        i = draw(st.sampled_from(bounded))
        v = variables[i]
        variables[i] = v._replace(lower=None) if v.lower is not None else v._replace(upper=None)
    return LinearFormulation(variables, constraints, dict(f.metadata)), fam


def wide_model(n, kind, how):
    """A (model, family) pair over exactly ``n`` indices: a builder's output on a
    seeded family, as built (``keep``), with one row dropped (``drop``) or its
    right-hand side raised by one (``shift``)."""
    rng = random.Random(f"{n} {kind} {how}")
    while True:
        sets = {frozenset(rng.sample(range(1, n + 1), rng.randint(2, n // 2)))
                for _ in range(rng.randint(2, 4))}
        if set().union(*sets) == set(range(1, n + 1)):
            break
    fam = quiet_family(sorted(sets, key=sorted))
    f = BUILDERS[kind](fam)
    constraints = list(f.constraints)
    k = rng.randrange(len(constraints))
    if how == "drop":
        del constraints[k]
    elif how == "shift":
        constraints[k] = constraints[k]._replace(rhs=constraints[k].rhs + 1)
    return LinearFormulation(list(f.variables), constraints, dict(f.metadata)), fam


# Ground sets of 7-10 indices, each mutation at each size, every builder but
# ib; the per-support reference takes about 4 s for all twelve.
WIDE_MODELS = [wide_model(*case) for case in (
    (7, "jl", "keep"), (7, "log", "drop"), (7, "ext-disjoint", "shift"),
    (8, "ext-jtree", "keep"), (8, "naive", "drop"), (8, "log", "shift"),
    (9, "naive", "keep"), (9, "ext-jtree", "drop"), (9, "jl", "shift"),
    (10, "naive", "keep"), (10, "ext-disjoint", "drop"), (10, "ext-jtree", "shift"),
)]


def with_examples(models):
    """Runs a model property on ``models`` besides the drawn ones."""
    def decorate(test):
        for model in models:
            test = example(model)(test)
        return test
    return decorate


def outcome(fn, *args):
    """The result, or the class of the refusal raised."""
    try:
        return fn(*args)
    except (InputError, SizeGuardError) as exc:
        return type(exc)


@ORACLE_PROPERTY
@given(oracle_models())
@with_examples(WIDE_MODELS)
def test_support_validity_matches_per_support_elimination(model):
    f, fam = model
    assert outcome(support_validity, f, fam) == outcome(reference_support_validity, f, fam)


def test_wide_models_draw_both_verdicts():
    verdicts = [support_validity(f, fam) for f, fam in WIDE_MODELS]
    assert {len(ground_set(fam)) for _, fam in WIDE_MODELS} == {7, 8, 9, 10}
    assert verdicts.count(True) >= 4 and verdicts.count(False) >= 4


rows = st.tuples(
    st.lists(st.one_of(st.integers(-3, 3), st.integers(-10**30, 10**30)), min_size=1, max_size=8),
    st.one_of(st.integers(-3, 3), st.integers(-10**30, 10**30)),
    st.booleans(),
)


@settings(PROPERTY, max_examples=300)
@given(rows)
def test_passing_bitmap_matches_a_per_support_row_sum(row):
    coefs, rhs, is_eq = row
    bits = [1 << k for k in range(len(coefs))]
    got = oracle._passing((tuple((bit, a) for bit, a in zip(bits, coefs) if a), rhs, is_eq), bits)
    assert got >> (1 << len(bits)) == 0
    for mask in range(1, 1 << len(bits)):
        total = sum(a for bit, a in zip(bits, coefs) if mask & bit)
        r = mask.bit_count()
        assert got >> mask & 1 == (total == r * rhs if is_eq else total <= r * rhs)


def pointed_unbounded_model():
    """x, y >= 0 and a binary z with x + y >= z and x - y <= 1: y has no upper limit."""
    f = LinearFormulation(metadata={})
    f.add_variable("x", lower=0)
    f.add_variable("y", lower=0)
    f.add_variable("z", "binary", 0, 1)
    f.add_constraint("cover", [("x", 1), ("y", 1), ("z", -1)], ">=", 0)
    f.add_constraint("gap", [("x", 1), ("y", -1)], "<=", 1)
    return f, None


# The ib model of a family shaped like the `verify` benchmark's second one
# (6 variables, 236 feasible bases, 6 vertices: very degenerate), and a
# pointed relaxation that is unbounded.
DESK_FAMILY = quiet_family([[2, 3], [3, 4], [1]])
VERTEX_MODELS = [
    (BUILDERS["ib"](DESK_FAMILY), DESK_FAMILY),
    pointed_unbounded_model(),
]


@ORACLE_PROPERTY
@given(oracle_models(max_sets=3, max_ground=4))
@with_examples(VERTEX_MODELS)
def test_lp_vertices_match_every_basis_solve(model):
    f, _ = model
    want = outcome(reference_lp_vertices, f)
    assert outcome(lp_vertices, f) == want
    # The constraints are added one at a time; their order must not show.
    flipped = LinearFormulation(list(f.variables), f.constraints[::-1], dict(f.metadata))
    assert outcome(lp_vertices, flipped) == want


@settings(PROPERTY, max_examples=40)
@given(families)
def test_tree_masks_path_test_matches_the_per_root_walk(fam):
    # brute_admits_junction_tree reads the definition only through the
    # path masks built with the Pruefer decode, one bit per tree.
    tables = oracle._all_spanning_trees(len(fam))
    failing = oracle._failing_trees(fam.sets, tables.through)
    for t, edges in enumerate(tables.trees):
        assert (not failing >> t & 1) == per_root_holds_on_every_path(fam, edges)


def brute_outcome(search, fam):
    """The found tree's edges, None, or the type and message of the refusal raised."""
    try:
        tree = search(fam)
    except (InvariantError, SizeGuardError) as exc:
        return type(exc), str(exc)
    return None if tree is None else tree.edges


def test_brute_tree_search_matches_the_per_tree_reference():
    rng = random.Random(2026)
    fams = [random_family(rng, max_sets=7, max_ground=9) if k % 2 else
            random_junction_family(rng, max_sets=7, max_ground=12) for k in range(2000)]
    assert {len(fam) for fam in fams} == set(range(1, 8))
    # Past the cap, both refuse with the same message.
    fams += [random_family(rng, max_sets=9, max_ground=12) for _ in range(20)]
    for fam in fams:
        assert brute_outcome(brute_admits_junction_tree, fam) == brute_outcome(
            reference_brute_admits_junction_tree, fam)


@PROPERTY
@given(st.data())
def test_embeddable_matches_every_side_assignment(data):
    # min_biclique_cover_exact reads embeddability only through _embeddable.
    fam = data.draw(families.filter(lambda fam: brute_view(fam)[0]))
    edges, ground = brute_view(fam)
    # Half the subsets lie among the cross pairs of two sides, the second
    # drawn among common neighbours of the first, so that they embed often;
    # any subset may take one more edge from anywhere.
    pool = sorted(edges)
    if data.draw(st.booleans()):
        side_a = data.draw(st.frozensets(st.sampled_from(sorted(ground)), min_size=1, max_size=3))
        common = [v for v in ground if all((min(u, v), max(u, v)) in edges for u in side_a)]
        side_b = data.draw(st.frozensets(st.sampled_from(common), max_size=3)) if common else ()
        pool = sorted({(min(u, v), max(u, v)) for u in side_a for v in side_b}) or pool
    picks = st.lists(st.sampled_from(pool), min_size=min(2, len(pool)), max_size=4, unique=True)
    subset = data.draw(picks) + data.draw(st.lists(st.sampled_from(sorted(edges)), max_size=1))
    got = oracle._embeddable(conflict_graph(fam), subset)
    assert got == brute_embeddable(edges, ground, subset)


# ------------------------------------------------- integral values as ints
#
# The IR stores an integral value as an int and any other as a Fraction.
# Whatever types a model is built from, the LP text, the JSON and the
# oracles' integer rows must be those of the route that made every value a
# Fraction first.

lp_values = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**70), 2**70).filter(lambda x: abs(x) > 2**64),
    st.integers(-9, 9).map(Fraction),
    st.builds(Fraction, st.integers(-60, 60), st.sampled_from([2, 4, 5, 8, 20, 3, 6, 7, 12])),
)
# Names that the LP writer prints as declared, or refuses as no LP names.
VAR_NAMES = ["x", "lam_1", "z_2", "a.b", "a_b", "1st", "y-1", "\u03bc", "_"]
ROW_NAMES = ["r", "row.1", "2nd", "c_3"]


@st.composite
def mixed_models(draw):
    """A formulation built from ints, Fractions and strings mixed."""
    names = draw(st.lists(st.sampled_from(VAR_NAMES), min_size=1, max_size=5, unique=True))
    f = LinearFormulation(metadata={"builder": "mixed"})
    for name in names:
        if draw(st.booleans()):
            zero, one = draw(st.sampled_from([(0, 1), (Fraction(0), Fraction(1)), ("0", "1/1")]))
            f.add_variable(name, "binary", zero, one)
        else:
            bound = st.one_of(st.none(), lp_values)
            f.add_variable(name, "continuous", draw(bound), draw(bound))
    for _ in range(draw(st.integers(1, 4))):
        terms = draw(st.lists(st.tuples(st.sampled_from(names), lp_values), max_size=5))
        sense = draw(st.sampled_from(["<=", "=", ">="]))
        f.add_constraint(draw(st.sampled_from(ROW_NAMES)), terms, sense, draw(lp_values))
    return f


def as_fractions(f):
    """The same model with every stored value a Fraction, as the IR used to hold it."""

    def frac(x):
        return None if x is None else Fraction(x)

    variables = [Variable(v.name, v.kind, frac(v.lower), frac(v.upper)) for v in f.variables]
    constraints = [
        Constraint(c.name, tuple((v, Fraction(a)) for v, a in c.terms), c.sense, Fraction(c.rhs))
        for c in f.constraints
    ]
    return LinearFormulation(variables, constraints, dict(f.metadata))


@PROPERTY
@given(mixed_models())
def test_integral_values_are_ints_and_outputs_match_the_fraction_route(f):
    values = [b for v in f.variables for b in (v.lower, v.upper) if b is not None]
    values += [x for c in f.constraints for x in (*(a for _, a in c.terms), c.rhs)]
    assert all(type(x) is int or (type(x) is Fraction and x.denominator != 1) for x in values)
    seed = as_fractions(f)
    assert outcome(write_lp, f) == outcome(write_lp, seed) == outcome(reference_write_lp, f)
    assert f.to_json() == seed.to_json() == reference_to_json(f)
    # The oracles' integer rows do not depend on the value types either.
    rows = oracle._compile(f)
    assert rows == oracle._compile(seed)
    assert all(type(x) is int for group in rows for row in group for x in row)
