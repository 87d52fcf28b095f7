"""Bitset fast paths of the conflict graph against brute pair-by-pair routes.

Families mix small labels with labels near 10**12, so a mask that used the
label itself as its bit position would show up here as a size blow-up.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from cdcmip import (
    Biclique,
    BicliqueCover,
    conflict_graph,
    heuristic_cover,
    is_biclique,
    verify_cover,
)
from helpers import (
    brute_conflict_edges,
    brute_is_biclique,
    pairset_verify_cover,
    quiet_family,
    random_junction_family,
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
