from fractions import Fraction

import pytest

from cdcmip import (
    BicliqueCover,
    IndexSetFamily,
    InputError,
    build_extended_disjoint,
    build_extended_jtree,
    build_ib_from_cover,
    build_jeroslow_lowe,
    build_log_embedding,
    build_naive,
    build_pwl,
    build_sosk,
    build_sosk_kis,
    heuristic_cover,
    write_lp,
)
from cdcmip.cover import Biclique
from helpers import parse_lp, rows_match_up_to_scaling

SOS2_3 = [[1, 2], [2, 3]]


def names(f, kind=None):
    return [v.name for v in f.variables if kind is None or v.kind == kind]


def test_build_naive_counts(triangle):
    f = build_naive(IndexSetFamily(SOS2_3))
    assert len(names(f, "continuous")) == 3 and len(f.binary_names()) == 2
    assert len(f.constraints) == 5  # three caps, selection, mass

    single = build_naive(IndexSetFamily([[1, 2]]))
    assert f"z_1" in single.binary_names() and len(single.binary_names()) == 1

    tri = build_naive(triangle)
    assert len(names(tri, "continuous")) == 3 and len(tri.binary_names()) == 3


def test_build_jeroslow_lowe_counts(triangle):
    f = build_jeroslow_lowe(IndexSetFamily(SOS2_3))
    gammas = [n for n in names(f) if n.startswith("gam_")]
    assert len(gammas) == 4 and len(f.binary_names()) == 2

    single = build_jeroslow_lowe(IndexSetFamily([[1, 2]]))
    assert len([n for n in names(single) if n.startswith("gam_")]) == 2

    tri = build_jeroslow_lowe(triangle)
    assert len([n for n in names(tri) if n.startswith("gam_")]) == 6
    assert len(tri.binary_names()) == 3


def test_build_log_embedding(triangle):
    four = IndexSetFamily([[1], [2], [3], [4]])
    assert len(build_log_embedding(four).binary_names()) == 2
    assert len(build_log_embedding(IndexSetFamily([[1, 2]])).binary_names()) == 0
    assert len(build_log_embedding(triangle).binary_names()) == 2
    assert build_log_embedding(triangle).metadata["codes"] == ["00", "10", "01"]  # low bit first


def test_build_ib_from_cover_rows(sos2_5):
    f = build_ib_from_cover(sos2_5, heuristic_cover(sos2_5))
    rows = {c.name: c for c in f.constraints}
    assert dict(rows["a_1"].terms) == {"lam_1": 1, "lam_2": 1, "z_1": -1}
    assert (rows["a_1"].sense, rows["a_1"].rhs) == ("<=", 0)
    assert dict(rows["b_1"].terms) == {"lam_4": 1, "lam_5": 1, "z_1": 1}
    assert (rows["b_1"].sense, rows["b_1"].rhs) == ("<=", 1)
    assert dict(rows["a_2"].terms) == {"lam_1": 1, "lam_5": 1, "z_2": -1}
    assert dict(rows["b_2"].terms) == {"lam_3": 1, "z_2": 1}
    assert len(f.binary_names()) == 2


def test_build_ib_empty_cover_single_set():
    fam = IndexSetFamily([[1, 2, 3]])
    f = build_ib_from_cover(fam, BicliqueCover())
    assert f.binary_names() == []
    assert [c.name for c in f.constraints] == ["mass"]


def test_build_ib_rejects_bad_cover(sos2_5, path3):
    with pytest.raises(InputError):
        build_ib_from_cover(sos2_5, BicliqueCover([Biclique(frozenset({1, 2}), frozenset({4, 5}))]))
    f = build_ib_from_cover(path3, heuristic_cover(path3))
    assert len(f.binary_names()) == 2
    cover_rows = [c for c in f.constraints if c.name != "mass"]
    assert len(cover_rows) == 4


def test_build_sosk_counts():
    f = build_sosk(5, 2)
    assert len(f.binary_names()) == 2
    assert len([c for c in f.constraints if c.name != "mass"]) == 4

    ten = build_sosk(10, 3)
    assert len(ten.binary_names()) <= 4
    assert len([c for c in ten.constraints if c.name != "mass"]) <= 8

    small = build_sosk(3, 2)
    rows = {c.name: c for c in small.constraints}
    assert dict(rows["a_1"].terms) == {"lam_1": 1, "z_1": -1}
    assert dict(rows["b_1"].terms) == {"lam_3": 1, "z_1": 1}
    with pytest.raises(InputError):
        build_sosk(4, 4)


def test_build_sosk_binary_bound_grid():
    for k in range(2, 8):
        for n in range(k + 1, 26):
            f = build_sosk(n, k)
            assert len(f.binary_names()) <= (n - k).bit_length() + k - 2
            assert len(f.binary_names()) <= n - k + 1  # never beyond one per window


def test_build_sosk_kis():
    f = build_sosk_kis(5, 2)
    assert len(f.binary_names()) == 4
    assert len([c for c in f.constraints if c.name.startswith("win_")]) == 5

    forced = build_sosk_kis(3, 3)
    assert len(forced.binary_names()) == 1

    assert len(build_sosk_kis(4, 2).binary_names()) == 3


def test_build_extended_jtree(triangle, sos2_5):
    f = build_extended_jtree(triangle)
    assert f.metadata["aux_continuous"] == 1
    assert len(f.binary_names()) <= 2

    g = build_extended_jtree(sos2_5)
    assert g.metadata["aux_continuous"] == 0

    two = build_extended_jtree(IndexSetFamily([[1, 2, 3], [2, 3, 4]]))
    assert two.metadata["aux_continuous"] == 0
    assert len(two.binary_names()) == 1


def test_build_extended_disjoint(triangle):
    f = build_extended_disjoint(triangle)
    assert len([n for n in names(f) if n.startswith("lampp_")]) == 6
    assert len(f.binary_names()) == 2
    assert len([c for c in f.constraints if c.sense == "<="]) == 4

    four = build_extended_disjoint(IndexSetFamily([[1], [2], [3], [4]]))
    assert len(four.binary_names()) == 2

    single = build_extended_disjoint(IndexSetFamily([[1, 2]]))
    assert single.binary_names() == []


GOLDEN_SOSK_3_2 = """\\ sosk
Minimize
 obj:
Subject To
 mass: lam_1 + lam_2 + lam_3 = 1
 a_1: lam_1 - z_1 <= 0
 b_1: lam_3 + z_1 <= 1
Bounds
 lam_1 >= 0
 lam_2 >= 0
 lam_3 >= 0
 0 <= z_1 <= 1
Binaries
 z_1
End
"""


def test_write_lp_golden():
    text = write_lp(build_sosk(3, 2))
    assert text == GOLDEN_SOSK_3_2
    assert "lam_1 - z_1 <= 0" in text
    assert "lam_3 + z_1 <= 1" in text


def test_write_lp_deterministic(sos2_5):
    a = write_lp(build_sosk(5, 2))
    b = write_lp(build_sosk(5, 2))
    assert a == b
    assert build_sosk(5, 2).to_json() == build_sosk(5, 2).to_json()


@pytest.mark.parametrize(
    "build",
    [
        build_naive,
        build_jeroslow_lowe,
        build_log_embedding,
        lambda fam: build_ib_from_cover(fam, heuristic_cover(fam)),
        build_extended_jtree,
        build_extended_disjoint,
    ],
)
def test_write_lp_roundtrip(sos2_5, build):
    f = build(sos2_5)
    rows, bounds, binaries = parse_lp(write_lp(f))
    assert rows_match_up_to_scaling(rows, f)
    assert binaries == f.binary_names()
    for v in f.variables:
        assert bounds[v.name] == (v.lower, v.upper)


def test_write_lp_scales_non_terminating_rows():
    f = build_pwl([(0, 0), ("1/3", 1), (1, "2/3")])
    text = write_lp(f)
    rows, _, _ = parse_lp(text)
    assert rows_match_up_to_scaling(rows, f)
    # the x-definition row had denominator 3, so it must appear integer-scaled
    assert "0.33" not in text and "1/3" not in text


def test_write_lp_decimal_fractions():
    f = build_pwl([(0, 0), ("1/2", "3/4"), (1, 1)])
    text = write_lp(f)
    assert "0.5" in text and "0.75" in text
    rows, _, _ = parse_lp(text)
    assert rows_match_up_to_scaling(rows, f)


def test_write_lp_renders_each_value_once(monkeypatch):
    from cdcmip import formulate

    f = build_sosk(40, 3)
    render = formulate._decimal_or_none
    calls = []
    monkeypatch.setattr(formulate, "_decimal_or_none", lambda x: calls.append(x) or render(x))
    write_lp(f)
    printed = sum(len(c.terms) + 1 for c in f.constraints)
    printed += sum((v.lower is not None) + (v.upper is not None) for v in f.variables)
    assert 0 < len(calls) <= printed


def test_write_lp_rejects_a_non_terminating_bound():
    from cdcmip import LinearFormulation

    f = LinearFormulation()
    f.add_variable("x", lower=Fraction(1, 3), upper=Fraction(7, 2))
    f.add_constraint("row", [("x", 1)], "<=", 3)
    with pytest.raises(InputError, match="'x'"):
        write_lp(f)


def test_pwl_rejects_coordinates_past_the_digit_limit():
    with pytest.raises(InputError, match="digit limit"):
        build_pwl([(0, 0), ("1e4300", 1)])
    f = build_pwl([(0, 0), ("1e4000", 1)])
    assert "1" + "0" * 4000 in write_lp(f) and f.to_json()


def test_write_lp_empty_formulation():
    from cdcmip import LinearFormulation

    text = write_lp(LinearFormulation())
    assert text.splitlines() == ["\\ formulation", "Minimize", " obj:", "Subject To", "Bounds", "End"]


def test_write_lp_rejects_sanitized_collisions():
    from cdcmip import LinearFormulation

    f = LinearFormulation()
    f.add_variable("a b")
    f.add_variable("a_b")
    with pytest.raises(InputError):
        write_lp(f)


def test_formulation_rejects_duplicate_and_unknown_names():
    from cdcmip import LinearFormulation
    from cdcmip.formulate import Variable

    f = LinearFormulation(variables=[Variable("x")])
    with pytest.raises(InputError):
        f.add_variable("x")
    f.add_variable("y")
    with pytest.raises(InputError):
        f.add_variable("y")
    f.add_constraint("row", [("x", 1), ("y", 1)], "<=", 1)
    with pytest.raises(InputError):
        f.add_constraint("bad", [("x", 1), ("z", 1)], "<=", 1)
    assert [c.name for c in f.constraints] == ["row"]


def test_formulation_rejects_duplicate_names_at_construction():
    from cdcmip import LinearFormulation
    from cdcmip.formulate import Variable

    with pytest.raises(InputError, match="not unique"):
        LinearFormulation(variables=[Variable("x"), Variable("y"), Variable("x")])
    assert LinearFormulation(variables=[Variable("x"), Variable("y")]).variable_names() == ["x", "y"]


def test_lambda_metadata(sos2_5):
    f = build_naive(sos2_5)
    assert f.lambda_names() == {v: f"lam_{v}" for v in range(1, 6)}
    assert f.metadata["builder"] == "naive"
    assert len(f.metadata["family_digest"]) == 12
