import random
import sys
import time
from fractions import Fraction

import pytest

from cdcmip import (
    IndexSetFamily,
    InputError,
    RedundantFamilyWarning,
    SizeGuardError,
    conflict_graph,
    ground_set,
    is_feasible_set,
    is_irredundant,
    is_pairwise_ib_representable,
    minimal_infeasible_sets,
)
from cdcmip.cdc import _exact_coordinate, _exact_point
from helpers import brute_conflict_edges, brute_minimal_infeasible, random_family


def test_ground_set_union():
    assert ground_set(IndexSetFamily([[1, 2], [2, 3]])) == {1, 2, 3}
    assert ground_set(IndexSetFamily([[5]])) == {5}
    assert ground_set(IndexSetFamily([[1, 2], [2, 3], [3, 4], [4, 5]])) == {1, 2, 3, 4, 5}


def test_construction_rejects_bad_input():
    with pytest.raises(InputError):
        IndexSetFamily([[1, 2], []])
    with pytest.raises(InputError):
        IndexSetFamily([])
    with pytest.raises(InputError):
        IndexSetFamily([[-1, 2]])
    with pytest.raises(InputError):
        IndexSetFamily([[1.5]])
    # equal member sets are rejected outright, in any written order
    with pytest.raises(InputError):
        IndexSetFamily([[1], [1]])
    with pytest.raises(InputError):
        IndexSetFamily([[1, 2], [2, 1]])


@pytest.mark.parametrize(
    "sets, message",
    [
        ([[True]], "indices must be non-negative integers, got True"),
        ([[-1]], "indices must be non-negative integers, got -1"),
        ([["1"]], "indices must be non-negative integers, got '1'"),
        ([[[1]]], "indices must be non-negative integers, got [1]"),
        ([[]], "member sets must be nonempty"),
        ([[1.0]], "indices must be non-negative integers, got 1.0"),
        # The first offender in member order, then in item order, is named.
        ([[1, 2], [3, -4, True], [True]], "got -4"),
        ([[1, 2], [], [-1]], "member sets must be nonempty"),
        ([[1, 2], [-1], []], "got -1"),
    ],
)
def test_construction_names_the_first_bad_member(sets, message):
    with pytest.raises(InputError) as caught:
        IndexSetFamily(sets)
    assert message in str(caught.value)


def test_construction_keeps_int_subclasses_and_non_iterable_errors():
    import enum

    class Label(enum.IntEnum):
        A = 1
        B = 2

    assert IndexSetFamily([[Label.A, Label.B], [Label.B, 3]]) == IndexSetFamily([[1, 2], [2, 3]])
    with pytest.raises(TypeError):
        IndexSetFamily([[1], 5])


def test_redundant_family_warns_but_builds():
    with pytest.warns(RedundantFamilyWarning):
        fam = IndexSetFamily([[1, 2], [1, 2, 3]])
    assert not is_irredundant(fam)


def test_is_irredundant():
    assert is_irredundant(IndexSetFamily([[1, 2], [2, 3]]))


def test_is_feasible_set(sos2_5):
    fam = IndexSetFamily([[1, 2], [2, 3]])
    assert is_feasible_set(fam, {2})
    assert not is_feasible_set(fam, {1, 3})
    assert is_feasible_set(fam, set())
    with pytest.raises(InputError):
        is_feasible_set(fam, {9})


def test_minimal_infeasible_sets_examples(triangle):
    assert minimal_infeasible_sets(triangle) == [frozenset({1, 2, 3})]
    sos2_3 = IndexSetFamily([[1, 2], [2, 3]])
    assert brute_minimal_infeasible([[1, 2], [2, 3]]) == [frozenset({1, 3})]
    assert minimal_infeasible_sets(sos2_3) == [frozenset({1, 3})]
    assert minimal_infeasible_sets(IndexSetFamily([[1, 2, 3]])) == []


def test_minimal_infeasible_sets_against_powerset_scan():
    rng = random.Random(7)
    for _ in range(60):
        fam = random_family(rng, max_sets=4, max_ground=7)
        sets = [sorted(s) for s in fam.sets]
        got = sorted(minimal_infeasible_sets(fam), key=lambda s: (len(s), sorted(s)))
        assert got == brute_minimal_infeasible(sets)
        cap = max(len(s) for s in fam.sets) + 1
        assert all(len(t) <= cap for t in got)


def test_minimal_infeasible_sets_size_guard():
    fam = IndexSetFamily([list(range(1, 16)), list(range(10, 31))])
    with pytest.raises(SizeGuardError):
        minimal_infeasible_sets(fam, max_subsets=1000)


def test_is_pairwise_ib_representable(sos2_5, triangle):
    assert not is_pairwise_ib_representable(triangle)
    assert is_pairwise_ib_representable(sos2_5)
    assert is_pairwise_ib_representable(IndexSetFamily([[1], [2]]))


def test_conflict_graph_examples(sos2_5, path3):
    g = conflict_graph(sos2_5)
    assert sorted(g.edges) == [(1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 5)]
    assert conflict_graph(IndexSetFamily([[1, 2, 3]])).edge_count == 0
    assert conflict_graph(path3).edge_count == 12


def test_conflict_graph_matches_pair_feasibility():
    rng = random.Random(11)
    for _ in range(40):
        fam = random_family(rng, max_sets=5, max_ground=8)
        g = conflict_graph(fam)
        assert set(g.edges) == brute_conflict_edges([sorted(s) for s in fam.sets])
        for u, v in g.edges:
            assert not is_feasible_set(fam, {u, v})


def test_conflict_graph_bits_are_ranks_not_labels():
    big = 10**12
    g = conflict_graph(IndexSetFamily([[0, big], [big + 1, 5]]))
    assert g.edges == {(0, 5), (0, big + 1), (5, big), (big, big + 1)}
    assert g.edge_count == 4
    assert g.has_edge(big + 1, big) and not g.has_edge(0, big)
    assert not g.has_edge(big, big) and not g.has_edge(big, big + 2)
    assert max(m.bit_length() for m in g.adj.values()) <= 4


def test_family_json_roundtrip(sos2_5):
    assert IndexSetFamily.from_json(sos2_5.to_json()) == sos2_5
    with pytest.raises(InputError):
        IndexSetFamily.from_json("not json")
    with pytest.raises(InputError):
        IndexSetFamily.from_json('{"nope": 1}')


def test_exact_point():
    assert _exact_point(["1/2", 3]) == (Fraction(1, 2), 3)
    assert _exact_point(("0.25", Fraction(2, 4))) == (Fraction(1, 4), Fraction(1, 2))
    for bad in ({"x": 0, "y": 0}, (0,), (0, 0, 0), [], "00", None, 5):
        with pytest.raises(InputError):
            _exact_point(bad)
    with pytest.raises(InputError, match="booleans"):
        _exact_point((True, 0))


def test_exact_coordinate_takes_a_fraction_as_is():
    q = Fraction(2, 3)
    assert _exact_coordinate(q) is q
    with pytest.raises(InputError, match="digit limit"):
        _exact_coordinate(Fraction(10**5000, 3))
    with pytest.raises(InputError, match="digit limit"):
        _exact_coordinate(Fraction(3, 10**5000))


def test_exact_coordinate_exponents_without_a_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # 0 switches the digit limit off
    try:
        assert _exact_coordinate("1e5") == 100_000
        assert _exact_coordinate("-2.5e-3") == Fraction(-1, 400)
        assert _exact_coordinate("1e4300") == 10**4300
        start = time.monotonic()
        with pytest.raises(InputError, match="1e99999999"):
            _exact_coordinate("1e99999999")
        assert time.monotonic() - start < 10
    finally:
        sys.set_int_max_str_digits(limit)


def test_from_json_refuses_sets_that_are_not_lists():
    with pytest.raises(InputError, match="list of lists"):
        IndexSetFamily.from_json('{"sets": [1, 2]}')
