import random
from fractions import Fraction
from itertools import combinations

import pytest

from cdcmip import (
    IndexSetFamily,
    InputError,
    InvariantError,
    build_equivalent_family,
    ground_set,
    is_feasible_set,
    is_junction_tree,
    maximum_spanning_tree_of,
    project,
    variable_accounting,
)
from helpers import powerset, random_family


def feasible_supports(fam):
    j = ground_set(fam)
    return {frozenset(t) for t in powerset(j) if is_feasible_set(fam, t)}


def test_triangle_nondisjoint(triangle):
    res = build_equivalent_family(triangle, disjoint=False)
    assert len(ground_set(res.family_prime)) == 4
    assert res.extra_continuous == 1
    assert is_junction_tree(res.family_prime, res.tree)
    assert len(res.family_prime) == len(triangle)


def test_triangle_disjoint(triangle):
    res = build_equivalent_family(triangle, disjoint=True)
    assert len(ground_set(res.family_prime)) == 6
    assert res.extra_continuous == 3
    assert is_junction_tree(res.family_prime, res.tree)
    sets = res.family_prime.sets
    assert all(not (a & b) for a, b in combinations(sets, 2))


def test_already_admitting_family_costs_nothing(sos2_5):
    res = build_equivalent_family(sos2_5, disjoint=False)
    assert res.extra_continuous == 0
    # per member set, the copies map bijectively onto the original set
    for prime, orig in zip(res.family_prime.sets, sos2_5.sets):
        image = {res.mapping.forward[u] for u in prime}
        assert image == orig and len(prime) == len(orig)


def test_mapping_surjective_and_injective_per_set():
    rng = random.Random(3)
    for _ in range(40):
        fam = random_family(rng, max_sets=5, max_ground=8)
        for disjoint in (False, True):
            res = build_equivalent_family(fam, disjoint=disjoint)
            assert set(res.mapping.forward.values()) == set(ground_set(fam))
            assert set(res.mapping.forward) == set(ground_set(res.family_prime))
            for s in res.family_prime.sets:
                image = [res.mapping.forward[u] for u in s]
                assert len(set(image)) == len(image)


def test_support_equivalence_exhaustive():
    # pushing feasible supports through the mapping hits exactly the original
    # feasible supports, and the mapping never collapses a feasible support
    rng = random.Random(17)
    for _ in range(25):
        fam = random_family(rng, max_sets=4, max_ground=6)
        for disjoint in (False, True):
            res = build_equivalent_family(fam, disjoint=disjoint)
            if len(ground_set(res.family_prime)) > 12:
                continue
            alpha = res.mapping.forward
            image = set()
            for t_prime in feasible_supports(res.family_prime):
                mapped = [alpha[u] for u in t_prime]
                assert len(set(mapped)) == len(mapped)
                image.add(frozenset(mapped))
            assert image == feasible_supports(fam)


def test_saving_gap_is_tree_weight():
    rng = random.Random(29)
    for _ in range(30):
        fam = random_family(rng, max_sets=5, max_ground=8)
        loose = build_equivalent_family(fam, disjoint=True)
        tight = build_equivalent_family(fam, disjoint=False)
        w = maximum_spanning_tree_of(fam).weight
        assert loose.extra_continuous - tight.extra_continuous == w


def test_project(triangle):
    res = build_equivalent_family(triangle, disjoint=False)
    alpha = res.mapping
    assert project({1: Fraction(1)}, alpha) == {1: Fraction(1)}
    # two copies of the same original index sum up
    fibers = {v: us for v, us in alpha.fibers().items() if len(us) > 1}
    v, (u1, u2) = next(iter(fibers.items()))
    assert project({u1: Fraction(1, 2), u2: Fraction(1, 2)}, alpha) == {v: Fraction(1)}
    assert project({2: Fraction(1, 2), 4: Fraction(1, 2)}, alpha) == {
        2: Fraction(1, 2),
        3: Fraction(1, 2),
    }
    with pytest.raises(InputError):
        project({99: Fraction(1)}, alpha)


def test_variable_accounting(triangle):
    two = IndexSetFamily([[1, 2, 3], [2, 3, 4]])
    assert variable_accounting(two) == (0, 2, 1, 1)
    assert variable_accounting(triangle) == (1, 3, 2, 2)
    assert variable_accounting(IndexSetFamily([[1, 2]])) == (0, 0, 0, 0)


def test_transform_json(triangle):
    import json

    res = build_equivalent_family(triangle, disjoint=False)
    data = json.loads(res.to_json())
    assert data["extra_continuous"] == 1
    assert data["alpha"] == {"1": 1, "2": 2, "4": 3, "6": 3}
    assert data["sets"] == [[1, 2], [2, 4], [1, 6]]


@pytest.mark.parametrize("disjoint", [False, True])
def test_both_modes_run_the_junction_guard(monkeypatch, triangle, disjoint):
    from cdcmip import transform

    monkeypatch.setattr(transform, "is_junction_tree", lambda family, tree: False)
    with pytest.raises(InvariantError, match="failed the junction test"):
        build_equivalent_family(triangle, disjoint=disjoint)
