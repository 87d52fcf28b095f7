import random
import re
from fractions import Fraction

import pytest

from cdcmip import (
    IndexSetFamily,
    SizeGuardError,
    admits_junction_tree,
    brute_admits_junction_tree,
    build_ib_from_cover,
    build_naive,
    build_sosk,
    build_sosk_kis,
    build_extended_disjoint,
    build_extended_jtree,
    conflict_graph,
    heuristic_cover,
    is_ideal,
    is_junction_tree,
    lp_vertices,
    min_biclique_cover_exact,
    support_validity,
)
from cdcmip import oracle
from cdcmip.cli import main
from cdcmip.errors import InputError
from cdcmip.formulate import LinearFormulation
from helpers import random_family


def test_brute_admits(path3, triangle):
    t = brute_admits_junction_tree(path3)
    assert t is not None and is_junction_tree(path3, t)
    assert brute_admits_junction_tree(triangle) is None
    single = brute_admits_junction_tree(IndexSetFamily([[1, 2]]))
    assert single is not None and single.edges == ()


def test_brute_matches_fast_path():
    rng = random.Random(41)
    for _ in range(40):
        fam = random_family(rng, max_sets=5, max_ground=8)
        assert (admits_junction_tree(fam) is None) == (
            brute_admits_junction_tree(fam) is None
        )


def test_brute_size_guard():
    fam = IndexSetFamily([[i] for i in range(1, 9)])
    with pytest.raises(SizeGuardError):
        brute_admits_junction_tree(fam)


def test_support_validity_sosk(sos2_5):
    assert support_validity(build_sosk(5, 2), sos2_5)


def test_support_validity_detects_missing_biclique(sos2_5):
    # dropping one biclique admits a support that straddles an uncovered edge;
    # build from the full cover, then delete the second biclique's rows
    complete = build_ib_from_cover(sos2_5, heuristic_cover(sos2_5))
    complete.constraints = [
        c for c in complete.constraints if c.name not in ("a_2", "b_2")
    ]
    complete.variables = [v for v in complete.variables if v.name != "z_2"]
    assert not support_validity(complete, sos2_5)


def test_support_validity_extended_triangle(triangle):
    assert support_validity(build_extended_jtree(triangle), triangle)


def test_support_validity_guards(sos2_5):
    big = IndexSetFamily([list(range(1, 14))])
    with pytest.raises(SizeGuardError):
        support_validity(build_naive(big), big)
    f = build_naive(sos2_5)
    with pytest.raises(SizeGuardError):
        support_validity(f, sos2_5, max_binaries=2)
    del f.metadata["lambda_vars"]
    with pytest.raises(InputError):
        support_validity(f, sos2_5)


def test_elimination_budget_error_explains_itself(sos2_5):
    f = build_extended_disjoint(sos2_5)
    lam = f.lambda_names()
    position = {lam[v]: 1 << k for k, v in enumerate(sorted(lam))}
    with pytest.raises(SizeGuardError) as caught:
        oracle._lambda_systems(f, position, max_rows=10)
    found = re.fullmatch(
        r"support_validity: eliminating the auxiliary variables reached (\d+) rows, "
        r"over the budget of 10",
        str(caught.value),
    )
    assert found and int(found.group(1)) > 10
    assert oracle._lambda_systems(f, position)  # fits the default budget


def test_elimination_budget_exits_3(sos2_5, tmp_path, monkeypatch, capsys):
    compile_systems = oracle._lambda_systems
    monkeypatch.setattr(
        oracle, "_lambda_systems", lambda f, position: compile_systems(f, position, max_rows=10)
    )
    path = tmp_path / "family.json"
    path.write_text('{"sets": [[1, 2], [2, 3], [3, 4], [4, 5]]}')
    code = main(["formulate", str(path), "--formulation", "ext-disjoint", "--verify"])
    assert code == 3
    assert "over the budget of 10" in capsys.readouterr().err


def test_lp_vertices_simplex():
    f = LinearFormulation(metadata={"builder": "simplex"})
    for i in (1, 2, 3):
        f.add_variable(f"lam_{i}", lower=Fraction(0))
    f.add_constraint("mass", [(f"lam_{i}", Fraction(1)) for i in (1, 2, 3)], "=", 1)
    assert lp_vertices(f) == [
        (Fraction(0), Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(0), Fraction(0)),
    ]


def test_lp_vertices_sosk_binary_coordinates():
    f = build_sosk(3, 2)
    slots = [i for i, v in enumerate(f.variables) if v.kind == "binary"]
    verts = lp_vertices(f)
    assert verts
    for vert in verts:
        for s in slots:
            assert vert[s] in (Fraction(0), Fraction(1))


def test_lp_vertices_rejects_uncertified():
    f = LinearFormulation(metadata={})
    f.add_variable("x")  # free, unconstrained
    with pytest.raises(InputError):
        lp_vertices(f)


def test_lp_vertices_size_guard():
    fam = IndexSetFamily([list(range(1, 12))])
    with pytest.raises(SizeGuardError):
        lp_vertices(build_naive(fam), max_vars=5)


def test_naive_relaxation_vertex_scan(triangle):
    # no pinned expectation on idealness of the naive build; only that the
    # verdict agrees with a direct scan of the enumerated vertices
    f = build_naive(triangle)
    verts = lp_vertices(f)
    slots = [i for i, v in enumerate(f.variables) if v.kind == "binary"]
    fractional = [
        v for v in verts if any(v[s] not in (Fraction(0), Fraction(1)) for s in slots)
    ]
    assert verts
    assert is_ideal(f) == (not fractional)


def test_is_ideal_examples(path3):
    assert is_ideal(build_sosk(3, 2))
    assert is_ideal(build_sosk(5, 2))
    assert is_ideal(build_ib_from_cover(path3, heuristic_cover(path3)))
    # the windowed one-binary-per-position build: outcome recorded, not pinned
    is_ideal(build_sosk_kis(4, 2))


def test_extended_builders_ideal_at_desk_scale(triangle):
    assert is_ideal(build_extended_jtree(triangle))
    assert is_ideal(build_extended_disjoint(IndexSetFamily([[1, 2], [2, 3]])))


def test_min_biclique_cover(sos2_5):
    g = conflict_graph(sos2_5)
    assert min_biclique_cover_exact(g, 2) == 2
    edgeless = conflict_graph(IndexSetFamily([[1, 2, 3]]))
    assert min_biclique_cover_exact(edgeless, 3) == 0
    pair = conflict_graph(IndexSetFamily([[1], [2]]))
    assert min_biclique_cover_exact(pair, 1) == 1


def test_min_biclique_cover_guard(path3):
    g = conflict_graph(path3)
    with pytest.raises(SizeGuardError):
        min_biclique_cover_exact(g, 3, max_edges=5)


def test_every_builder_valid_on_random_families():
    from cdcmip import build_jeroslow_lowe, build_log_embedding

    rng = random.Random(71)
    count = 0
    while count < 8:
        fam = random_family(rng, max_sets=4, max_ground=8)
        if len(fam) > 4:
            continue
        for build in (
            build_naive,
            build_jeroslow_lowe,
            build_log_embedding,
            build_extended_jtree,
            build_extended_disjoint,
        ):
            assert support_validity(build(fam), fam), build.__name__
        count += 1


def test_plain_builders_valid_without_junction_tree(triangle):
    from cdcmip import build_jeroslow_lowe, build_log_embedding

    for build in (build_naive, build_jeroslow_lowe, build_log_embedding):
        assert support_validity(build(triangle), triangle)


def test_heuristic_meets_exact_on_small_instances():
    rng = random.Random(59)
    from helpers import random_junction_family

    for _ in range(20):
        fam = random_junction_family(rng, max_sets=5, max_ground=8)
        g = conflict_graph(fam)
        if g.edge_count == 0 or g.edge_count > 12:
            continue
        size = len(heuristic_cover(fam))
        assert size >= min_biclique_cover_exact(g, max(size, 1))
