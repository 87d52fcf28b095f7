import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cdcmip import (
    IndexSetFamily,
    SizeGuardError,
    admits_junction_tree,
    brute_admits_junction_tree,
    build_ib_from_cover,
    build_jeroslow_lowe,
    build_log_embedding,
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
from cdcmip import jtree, oracle
from cdcmip.cli import main
from cdcmip.errors import InputError, InvariantError
from cdcmip.formulate import LinearFormulation
from helpers import breadth_first_walk, random_family, random_junction_family


def test_all_spanning_trees_match_the_acyclic_edge_subsets():
    from itertools import combinations

    from cdcmip.jtree import _spanning_forest

    for d in range(1, 8):
        subsets = combinations(combinations(range(d), 2), d - 1)
        trees = [edges for edges in subsets if len(_spanning_forest(d, edges)) == d - 1]
        decoded = oracle._all_spanning_trees(d)
        assert list(decoded.trees) == trees and len(trees) == d ** max(d - 2, 0)
        # Bit t of a pair's mask is set iff tree t holds the pair as an edge.
        for pair, mask in zip(combinations(range(d), 2), decoded.holding, strict=True):
            assert mask == sum(1 << t for t, edges in enumerate(trees) if pair in edges)
        if d <= 6:  # and bit t of (i, j)'s row at k iff k lies on tree t's i-j path
            for t, edges in enumerate(trees):
                for (i, j), row in zip(combinations(range(d), 2), decoded.through, strict=True):
                    up = {child: parent for parent, child in breadth_first_walk(edges, j)}
                    inside, v = set(), up[i]
                    while v != j:
                        inside.add(v)
                        v = up[v]
                    assert [row[k] >> t & 1 for k in range(d)] == [k in inside for k in range(d)]


def _counting_decodes(monkeypatch, count):
    """Count Pruefer decodes (by ``product`` calls) and path-mask builds, by set count."""
    def counted(*args, repeat=1, real=oracle.product):
        count.append(("decode", repeat + 2))
        return real(*args, repeat=repeat)

    def paths(d, holding, real=oracle._paths_through):
        count.append(("paths", d))
        return real(d, holding)

    monkeypatch.setattr(oracle, "product", counted)
    monkeypatch.setattr(oracle, "_paths_through", paths)


def test_spanning_trees_are_decoded_once_per_d(monkeypatch):
    builds = []
    _counting_decodes(monkeypatch, builds)
    path = IndexSetFamily([[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 7]])
    triangles = IndexSetFamily([[1, 2], [2, 3], [1, 3], [4, 5], [5, 6], [4, 6]])
    oracle._all_spanning_trees.cache_clear()
    first = brute_admits_junction_tree(path)
    assert builds == [("decode", 6), ("paths", 6)]
    builds.clear()
    assert brute_admits_junction_tree(path) == first and first is not None
    assert brute_admits_junction_tree(triangles) is None
    assert builds == []
    # The shared answer, trees and masks alike, is immutable all the way down,
    # and the cache is bounded.
    tables = oracle._all_spanning_trees(6)
    assert tables is oracle._all_spanning_trees(6)
    assert type(tables.trees) is type(tables.holding) is type(tables.through) is tuple
    assert all(type(edges) is tuple for edges in tables.trees)
    assert all(type(mask) is int for mask in tables.holding)
    assert all(type(row) is tuple and all(type(mask) is int for mask in row) for row in tables.through)
    assert oracle._all_spanning_trees.cache_info().maxsize <= 8


def test_random_verify_decodes_each_set_count_once(monkeypatch, capsys):
    builds = []  # ("decode" or "paths", the set count d) of each build
    _counting_decodes(monkeypatch, builds)
    oracle._all_spanning_trees.cache_clear()
    assert main(["verify", "--random", "20", "--seed", "7"]) == 0
    decodes = [d for kind, d in builds if kind == "decode"]
    assert len(set(decodes)) > 4 and sorted(decodes) == sorted(set(decodes))
    # Each decode builds its path masks once, with it.
    assert sorted(d for kind, d in builds if kind == "paths") == sorted(decodes)
    builds.clear()
    assert main(["verify", "--random", "20", "--seed", "7"]) == 0
    assert builds == []
    capsys.readouterr()


def test_brute_admits(path3, triangle):
    t = brute_admits_junction_tree(path3)
    assert t is not None and is_junction_tree(path3, t)
    assert brute_admits_junction_tree(triangle) is None
    single = brute_admits_junction_tree(IndexSetFamily([[1, 2]]))
    assert single is not None and single.edges == ()


def test_brute_matches_fast_path():
    rng = random.Random(41)
    for k in range(2000):  # half random, half built to admit a tree
        if k % 2:
            fam = random_family(rng, max_sets=7, max_ground=9)
        else:
            fam = random_junction_family(rng, max_sets=7, max_ground=12)
        fast, slow = admits_junction_tree(fam), brute_admits_junction_tree(fam)
        assert (fast is None) == (slow is None)
        # Both trees are maximum spanning trees.
        assert fast is None or fast.weight == slow.weight


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
        oracle._projected_rows(f, position, max_rows=10)
    found = re.fullmatch(
        r"support_validity: eliminating the auxiliary variables reached (\d+) rows, "
        r"over the budget of 10",
        str(caught.value),
    )
    assert found and int(found.group(1)) > 10
    assert oracle._projected_rows(f, position)  # fits the default budget


def test_elimination_budget_exits_3(sos2_5, tmp_path, monkeypatch, capsys):
    project = oracle._projected_rows
    monkeypatch.setattr(
        oracle, "_projected_rows", lambda f, position: project(f, position, max_rows=10)
    )
    path = tmp_path / "family.json"
    path.write_text('{"sets": [[1, 2], [2, 3], [3, 4], [4, 5]]}')
    code = main(["formulate", str(path), "--formulation", "ext-disjoint", "--verify"])
    assert code == 3
    assert "over the budget of 10" in capsys.readouterr().err


def test_support_validity_projects_once_per_call(monkeypatch, sos2_5, triangle):
    calls = []
    project = oracle._fourier_motzkin
    monkeypatch.setattr(oracle, "_fourier_motzkin", lambda *args: calls.append(1) or project(*args))
    for fam in (sos2_5, triangle):
        for build in (build_naive, build_jeroslow_lowe, build_log_embedding,
                      build_extended_jtree, build_extended_disjoint):
            calls.clear()
            assert support_validity(build(fam), fam)
            assert len(calls) == 1


def test_brute_admits_roots_no_tree(monkeypatch, path3, triangle):
    calls = []
    preorder = jtree._preorder
    for module in (jtree, oracle):  # an import by name would bind its own copy in oracle
        monkeypatch.setattr(
            module, "_preorder", lambda *args: calls.append(1) or preorder(*args), raising=False
        )
    rng = random.Random(5)
    for fam in [path3, triangle] + [random_family(rng, max_sets=6, max_ground=8) for _ in range(10)]:
        brute_admits_junction_tree(fam)
    assert calls == []


# Eight sets over nine indices.  Projecting their log model (33 variables,
# 3 binaries) reaches a round of about 34,450 rows, under the 50,000-row
# budget, whose eliminated column pairs 21,062 rows with 8,011: about 168.7
# million combinations.
WIDE_ROUND = {"sets": [[1], [1, 2, 8, 9], [1, 3, 9], [3, 6, 8], [3, 6, 8, 9], [4, 8],
                       [5, 6, 8, 9], [9]]}


def run_capped(code: str, *args: str):
    """Run ``code`` in a fresh Python whose address space is capped at 1 GB."""
    cap = "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    src = str(Path(oracle.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", cap + code, *args], env=env,
                          capture_output=True, text=True, timeout=300)


def test_elimination_budget_holds_inside_a_round():
    res = run_capped(
        "import json, sys, warnings\n"
        "from cdcmip import IndexSetFamily, SizeGuardError, build_log_embedding, support_validity\n"
        "warnings.simplefilter('ignore')\n"
        "fam = IndexSetFamily(json.loads(sys.argv[1])['sets'])\n"
        "try:\n"
        "    support_validity(build_log_embedding(fam), fam)\n"
        "except SizeGuardError as e:\n"
        "    print(e)\n",
        json.dumps(WIDE_ROUND),
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == (
        "support_validity: eliminating the auxiliary variables reached 50001 rows, "
        "over the budget of 50000\n"
    )


def test_cli_verify_exits_3_on_a_wide_round(tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(WIDE_ROUND))
    res = run_capped(
        "import sys, warnings\n"
        "from cdcmip.cli import main\n"
        "warnings.simplefilter('ignore')\n"
        "sys.exit(main(sys.argv[1:]))\n",
        "verify", str(path), "--formulation", "log",
    )
    assert res.returncode == 3, res.stderr
    assert "over the budget of 50000" in res.stderr


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


def test_lp_vertices_of_a_pointed_unbounded_relaxation():
    # The ray x = y >= 0 is unbounded, but the rows have rank 2, so the
    # relaxation has its apex as its one vertex.
    f = LinearFormulation(metadata={})
    f.add_variable("x", lower=Fraction(0))
    f.add_variable("y", lower=Fraction(0))
    f.add_constraint("tie", [("x", 1), ("y", -1)], "=", 0)
    assert lp_vertices(f) == [(Fraction(0), Fraction(0))]


def test_is_ideal_with_an_unbounded_continuous_variable():
    f = LinearFormulation(metadata={})
    f.add_variable("z", "binary", Fraction(0), Fraction(1))
    f.add_variable("x")  # no bound either way
    f.add_constraint("lift", [("x", 1), ("z", -1)], ">=", 0)
    assert lp_vertices(f) == [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))]
    assert is_ideal(f)
    f.add_constraint("mirror", [("x", 1), ("z", 1)], ">=", 1)
    half = Fraction(1, 2)
    assert lp_vertices(f) == [(0, 1), (half, half), (1, 1)]
    assert not is_ideal(f)


def test_lp_vertices_rejects_a_relaxation_holding_a_line():
    # Rows of rank 1 in two variables: every point moves along x + y = c.
    f = LinearFormulation(metadata={})
    f.add_variable("x")
    f.add_variable("y")
    f.add_constraint("low", [("x", 1), ("y", 1)], ">=", 0)
    f.add_constraint("high", [("x", 1), ("y", 1)], "<=", 1)
    with pytest.raises(InputError, match="rank 1 < 2"):
        lp_vertices(f)
    with pytest.raises(InputError):
        is_ideal(f)


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
    assert is_ideal(build_sosk(8, 2))  # 11 variables, 15 vertices
    assert is_ideal(build_ib_from_cover(path3, heuristic_cover(path3)))
    # the windowed one-binary-per-position build: outcome recorded, not pinned
    is_ideal(build_sosk_kis(4, 2))


# The vertices of build_naive on a 4-set family (10 variables), as the
# earlier tight-row basis search returned them; solving every choice of
# tight rows instead takes over a minute at this size.
NAIVE_VERTICES = """
    0 0 0 0 0 1 1 0 0 0
    0 0 0 0 1 0 0 0 0 1
    0 0 0 1 0 0 0 1 0 0
    0 0 1/2 0 1/2 0 0 0 1/2 1/2
    0 0 1/2 0 1/2 0 1/2 0 0 1/2
    0 0 1/2 1/2 0 0 0 1/2 1/2 0
    0 0 1/2 1/2 0 0 1/2 1/2 0 0
    0 0 1 0 0 0 0 0 0 1
    0 0 1 0 0 0 0 1 0 0
    0 1 0 0 0 0 0 0 1 0
    1/3 0 1/3 0 1/3 0 0 0 2/3 1/3
    1/3 0 1/3 0 1/3 0 2/3 0 0 1/3
    1/3 0 1/3 1/3 0 0 0 1/3 2/3 0
    1/3 0 1/3 1/3 0 0 2/3 1/3 0 0
    1/2 0 0 0 1/2 0 0 0 1/2 1/2
    1/2 0 0 0 1/2 0 1/2 0 0 1/2
    1/2 0 0 1/2 0 0 0 1/2 1/2 0
    1/2 0 0 1/2 0 0 1/2 1/2 0 0
    1/2 0 1/2 0 0 0 0 0 1/2 1/2
    1/2 0 1/2 0 0 0 0 1/2 1/2 0
    1/2 0 1/2 0 0 0 1/2 0 0 1/2
    1/2 0 1/2 0 0 0 1/2 1/2 0 0
    1 0 0 0 0 0 0 0 0 1
    1 0 0 0 0 0 0 1 0 0
"""


def test_lp_vertices_of_a_ten_variable_naive_model():
    f = build_naive(IndexSetFamily([[6], [1, 3, 4], [2], [1, 3, 5]]))
    want = [tuple(map(Fraction, line.split())) for line in NAIVE_VERTICES.strip().splitlines()]
    assert len(f.variables) == 10 and len(want) == 24
    assert lp_vertices(f) == want


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


def _naive_12():
    return build_naive(IndexSetFamily([[1, 2], [2, 3]]))


def test_support_validity_is_false_when_no_assignment_is_feasible():
    # An auxiliary t >= 0 held to t <= -1: the projection leaves a violated row.
    f = _naive_12()
    f.add_variable("t", lower=0)
    f.add_constraint("neg", [("t", 1)], "<=", -1)
    assert support_validity(f, IndexSetFamily([[1, 2], [2, 3]])) is False
    # A free t held to t = 1 and t = 2: the equalities alone are inconsistent.
    g = _naive_12()
    g.add_variable("t")
    g.add_constraint("one", [("t", 1)], "=", 1)
    g.add_constraint("two", [("t", 1)], "=", 2)
    assert support_validity(g, IndexSetFamily([[1, 2], [2, 3]])) is False
    assert support_validity(_naive_12(), IndexSetFamily([[1, 2], [2, 3]])) is True


def test_lp_vertices_of_contradicting_equalities_is_empty():
    f = _naive_12()
    assert lp_vertices(f)
    f.add_constraint("mass2", [(f"lam_{v}", 1) for v in (1, 2, 3)], "=", 2)
    assert lp_vertices(f) == []


def test_support_validity_refuses_a_model_of_another_family():
    with pytest.raises(InputError, match="primary variables do not match"):
        support_validity(_naive_12(), IndexSetFamily([[1, 2], [2, 4]]))


def test_brute_tree_search_cross_checks_trip(monkeypatch):
    real = oracle._all_spanning_trees

    def tables_with(through):
        """The real tables with the path masks replaced by ``through(real ones)``."""
        return lambda d: real(d)._replace(through=through(real(d).through))

    # Every tree qualifying: the path 1-2-3 family has trees of weight 2 and 1.
    monkeypatch.setattr(oracle, "_all_spanning_trees", tables_with(lambda rows: tuple(
        (0,) * len(row) for row in rows)))
    with pytest.raises(InvariantError, match="non-maximum weight"):
        brute_admits_junction_tree(IndexSetFamily([[1, 2], [2, 3], [3, 4]]))
    # Only the first of three equally heavy trees qualifying: no path of a
    # triangle's trees passes a vertex on tree 0.
    monkeypatch.setattr(oracle, "_all_spanning_trees", tables_with(lambda rows: tuple(
        tuple(mask & ~1 for mask in row) for row in rows)))
    with pytest.raises(InvariantError, match="maximum trees disagree"):
        brute_admits_junction_tree(IndexSetFamily([[1, 2], [2, 3], [1, 3]]))
