import re
from decimal import Decimal
from fractions import Fraction

import pytest

from cdcmip import (
    BicliqueCover,
    IndexSetFamily,
    InputError,
    InvariantError,
    build_extended_disjoint,
    build_extended_jtree,
    build_ib,
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
from cdcmip.formulate import Constraint, LinearFormulation, Variable
from helpers import counted_verify_cover, padded_tree_cover, parse_lp, rows_match_up_to_scaling

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


def test_build_ib_verifies_its_tree_cover_once(monkeypatch, sos2_5, path3):
    # tree_cover's check is the only one: build_ib assembles the cover it returns.
    calls = counted_verify_cover(monkeypatch)
    for fam in (sos2_5, path3):
        calls.clear()
        build_ib(fam)
        assert len(calls) == 1


def test_build_ib_from_cover_verifies_a_heuristic_cover_again(monkeypatch, sos2_5, path3):
    calls = counted_verify_cover(monkeypatch)
    for fam in (sos2_5, path3):
        calls.clear()
        built = heuristic_cover(fam)
        build_ib_from_cover(fam, built)
        assert len(calls) == 2 and calls[1] is built


def test_build_ib_rejects_a_cover_missing_a_biclique(sos2_5):
    cover = heuristic_cover(sos2_5)
    with pytest.raises(InputError):
        build_ib_from_cover(sos2_5, BicliqueCover(cover.bicliques[1:]))
    cover.bicliques = cover.bicliques[1:]
    with pytest.raises(InputError):
        build_ib_from_cover(sos2_5, cover)


def test_build_ib_rejects_a_tree_cover_of_another_family(sos2_5, path3):
    with pytest.raises(InputError):
        build_ib_from_cover(sos2_5, heuristic_cover(path3))


def test_build_ib_from_cover_verifies_every_cover_it_is_given(monkeypatch, sos2_5, path3):
    import copy
    import pickle

    built = heuristic_cover(sos2_5)
    reassigned = heuristic_cover(sos2_5)
    reassigned.bicliques = reassigned.bicliques[::-1]
    equal = IndexSetFamily([sorted(s) for s in sos2_5.sets])
    assert equal == sos2_5 and equal.sets is not sos2_5.sets
    calls = counted_verify_cover(monkeypatch)
    given = [
        (sos2_5, built),
        (sos2_5, copy.copy(built)),
        (sos2_5, copy.deepcopy(built)),
        (sos2_5, pickle.loads(pickle.dumps(built))),
        (sos2_5, BicliqueCover.from_json(built.to_json())),
        (sos2_5, BicliqueCover(built)),
        (sos2_5, reassigned),
        (equal, built),
    ]
    for fam, cover in given:
        calls.clear()
        build_ib_from_cover(fam, cover)
        assert len(calls) == 1 and calls[0] is cover
    calls.clear()
    with pytest.raises(InputError):
        build_ib_from_cover(path3, built)
    assert calls == [built]


def _drop_first_closed_form_biclique(monkeypatch):
    from cdcmip import formulate

    real = formulate.sosk_cover
    monkeypatch.setattr(formulate, "sosk_cover", lambda n, k: BicliqueCover(real(n, k).bicliques[1:]))


def test_a_faulty_closed_form_sosk_cover_exits_4(monkeypatch, capsys):
    from cdcmip.cli import main

    _drop_first_closed_form_biclique(monkeypatch)
    with pytest.raises(InvariantError):
        build_sosk(12, 3)
    assert main(["sosk", "--n", "12", "--k", "3"]) == 4
    assert capsys.readouterr().err.startswith("internal error: closed-form windowed cover")


def test_a_faulty_closed_form_pwl_cover_is_an_internal_error(monkeypatch):
    _drop_first_closed_form_biclique(monkeypatch)
    with pytest.raises(InvariantError, match="closed-form windowed cover"):
        build_pwl([(0, 0), (1, 2), (2, 1), (3, 3), (4, 0)])


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


def test_build_extended_disjoint_records_the_copies_beyond_the_original_indices(triangle):
    # Six copies of three indices, as ext-jtree's four copies record 1.
    assert build_extended_disjoint(triangle).metadata["aux_continuous"] == 3


def test_build_extended_disjoint_checks_the_logarithmic_count(monkeypatch, triangle):
    from cdcmip import formulate

    monkeypatch.setattr(formulate, "tree_cover", padded_tree_cover)
    with pytest.raises(InvariantError, match="logarithmic count"):
        build_extended_disjoint(triangle)


def test_build_extended_jtree_builds_one_spanning_tree(monkeypatch, triangle, sos2_5):
    from cdcmip import cover, jtree, transform

    calls = []

    def counted(family):
        calls.append(family)
        return jtree.maximum_spanning_tree_of(family)

    # The rewrite takes one tree of the original family, and its cover
    # runs along that tree's image rather than a second tree of the rewrite.
    for module in (transform, cover):
        monkeypatch.setattr(module, "maximum_spanning_tree_of", counted)
    for fam in (triangle, sos2_5):
        calls.clear()
        build_extended_jtree(fam)
        assert calls == [fam]


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

    # Breakpoints in halves and thirds: def_x terminates, def_y must be scaled.
    f = build_pwl([(0, 0), ("1/2", "1/3"), (1, "3/2"), ("7/4", "2/3"), (3, 1)])
    render = formulate._decimal_or_none
    calls = []
    monkeypatch.setattr(formulate, "_decimal_or_none", lambda x: calls.append(x) or render(x))
    text = write_lp(f)
    assert " def_x: x - 0.5 lam_2 - lam_3" in text and " def_y: 6 y - 2 lam_2" in text
    printed = sum(len(c.terms) + 1 for c in f.constraints)
    printed += sum((v.lower is not None) + (v.upper is not None) for v in f.variables)
    assert 0 < len(calls) <= printed
    # Integers are printed directly; only the true fractions are searched for a decimal.
    values = [x for c in f.constraints for x in (*(a for _, a in c.terms), c.rhs)]
    assert sorted(calls) == sorted(x for x in values if type(x) is not int)


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


@pytest.mark.parametrize("builder", ["mine\nEnd", "tab\there", "café", 5, None])
def test_write_lp_refuses_a_builder_that_is_no_printable_ascii_text(builder):
    # The builder is printed in the file's comment line: a line break there
    # would end the model before ``Subject To`` for any LP reader.
    f = build_sosk(3, 2)
    f.metadata["builder"] = builder
    with pytest.raises(InputError, match=f"metadata 'builder' {re.escape(repr(builder))}"):
        write_lp(f)
    f.metadata["builder"] = "mine, with spaces (1/2)"
    assert write_lp(f).startswith("\\ mine, with spaces (1/2)\nMinimize\n")


@pytest.mark.parametrize("bad", ["a b", "1st", "y-1", "a.b", "\u03bc", ""])
@pytest.mark.parametrize("where", ["variable", "row"])
def test_write_lp_refuses_a_name_that_is_no_lp_name(bad, where):
    from cdcmip import LinearFormulation

    f = LinearFormulation()
    var = f.add_variable(bad if where == "variable" else "x")
    f.add_constraint(bad if where == "row" else "r", [(var, 1)], "<=", 1)
    assert f.to_json()  # the IR takes any str; only the LP file needs identifiers
    with pytest.raises(InputError, match=f"{where} name {re.escape(repr(bad))}"):
        write_lp(f)


def test_write_lp_rejects_colliding_row_names():
    from cdcmip import LinearFormulation

    def rows(*row_names):
        f = LinearFormulation()
        f.add_variable("x")
        for name in row_names:
            f.add_constraint(name, [("x", 1)], "<=", 1)
        return f

    with pytest.raises(InputError, match="'r_1'"):
        write_lp(rows("r_1", "r_2", "r_1"))
    with pytest.raises(InputError, match="row name 'r-1'"):
        write_lp(rows("r-1", "r_1"))
    # The objective's label is taken before any row is written.
    with pytest.raises(InputError, match="'obj'"):
        write_lp(rows("obj"))
    assert " obj_: x <= 1" in write_lp(rows("obj_"))


def test_write_lp_keeps_an_upper_only_bound_unbounded_below():
    from cdcmip import LinearFormulation, lp_vertices

    f = LinearFormulation()
    f.add_variable("x", upper=5)
    f.add_variable("y", lower=0)
    f.add_constraint("r", [("x", 1), ("y", 1)], ">=", -3)
    # An LP reader takes a variable with no lower bound as x >= 0, so the
    # file must say -inf to keep the vertex (-3, 0).
    assert (-3, 0) in lp_vertices(f)
    text = write_lp(f)
    assert " -inf <= x <= 5" in text.splitlines()
    _, bounds, _ = parse_lp(text)
    assert bounds["x"] == (None, 5)


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


def test_formulation_rejects_floats():
    from cdcmip import LinearFormulation

    f = LinearFormulation()
    f.add_variable("x")
    for bad in (
        lambda: f.add_constraint("r", [("x", 0.1)], "<=", 1),
        lambda: f.add_constraint("r", [("x", 1)], "<=", 0.5),
        lambda: f.add_constraint("r", [("x", 1.0)], "<=", 1),
        lambda: f.add_variable("y", lower=0.5),
        lambda: f.add_variable("y", upper=2.0),
    ):
        with pytest.raises(InputError, match="float"):
            bad()
    assert f.variable_names() == ["x"] and f.constraints == []
    f.add_variable("y", lower=Fraction(1, 2), upper="3/2")
    f.add_constraint("r", [("x", Fraction(1, 10)), ("y", "2")], "<=", 1)
    assert "0.1 x + 2 y <= 1" in write_lp(f)


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


def test_lambda_names_refuse_an_undeclared_variable(sos2_5):
    from cdcmip import support_validity

    f = build_naive(sos2_5)
    f.metadata["lambda_vars"]["3"] = "lam_9"
    for call in (f.lambda_names, lambda: support_validity(f, sos2_5)):
        with pytest.raises(InputError, match="index 3 to undeclared variable 'lam_9'"):
            call()


def test_lambda_names_refuse_a_key_that_is_not_an_index(sos2_5):
    from cdcmip import support_validity

    f = build_naive(sos2_5)
    f.metadata["lambda_vars"]["x3"] = f.metadata["lambda_vars"].pop("3")
    for call in (f.lambda_names, lambda: support_validity(f, sos2_5)):
        with pytest.raises(InputError, match="key 'x3' is not an index"):
            call()


@pytest.mark.parametrize(
    "declare, message",
    [
        (lambda f: f.add_variable(1), "variable name 1 "),
        (lambda f: f.add_variables(["y", None]), "variable name None "),
        (lambda f: f.add_variable(["y"]), r"variable name \['y'\] "),
        (lambda f: f.add_constraint(2, [("x", 1)], "<=", 1), "row name 2 "),
        (lambda f: LinearFormulation([Variable("x"), Variable(1)]), "variable name 1 "),
        (lambda f: LinearFormulation([Variable(("y",))]), r"variable name \('y',\) "),
        (lambda f: LinearFormulation([Variable("x")], [Constraint(b"r", (("x", 1),), "<=", 1)]),
         "row name b'r' "),
    ],
    ids=["add-variable", "add-variables", "unhashable-variable", "add-constraint",
         "constructor-variable", "constructor-tuple-variable", "constructor-row"],
)
def test_names_that_are_not_str_are_input_errors(declare, message):
    f = LinearFormulation([Variable("x")])
    with pytest.raises(InputError, match=message + "is not a str"):
        declare(f)
    assert f.variable_names() == ["x"] and f.constraints == []


def test_write_lp_refuses_an_empty_row_without_variables():
    from cdcmip import LinearFormulation

    f = LinearFormulation()
    f.add_constraint("r", [], "<=", 1)
    with pytest.raises(InputError, match="'r'"):
        write_lp(f)
    f.add_variable("x")
    assert " r: 0 x <= 1" in write_lp(f)


def test_formulation_constructor_checks_names_and_floats():
    from cdcmip import LinearFormulation
    from cdcmip.formulate import Constraint, Variable

    x = Variable("x")
    with pytest.raises(InputError, match="unknown variable 'y'"):
        LinearFormulation([x], [Constraint("r", (("x", 1), ("y", 1)), "<=", 1)])
    for bad in (
        lambda: LinearFormulation([Variable("x", lower=0.5)]),
        lambda: LinearFormulation([Variable("x", upper=2.0)]),
        lambda: LinearFormulation([x], [Constraint("r", (("x", 0.5),), "<=", 1)]),
        lambda: LinearFormulation([x], [Constraint("r", (("x", 1),), "<=", 1.0)]),
    ):
        with pytest.raises(InputError, match="float"):
            bad()
    # Values are kept as given: a Fraction-valued model stays one.
    f = LinearFormulation(
        [Variable("x", lower=Fraction(0))], [Constraint("r", (("x", Fraction(1)),), "<=", Fraction(2))]
    )
    assert type(f.variables[0].lower) is Fraction
    assert f.constraints[0].terms == (("x", Fraction(1)),) and type(f.constraints[0].rhs) is Fraction
    assert " r: x <= 2" in write_lp(f)


@pytest.mark.parametrize(
    "declare, message",
    [
        (lambda f: f.add_variable("y", lower=True), "booleans"),
        (lambda f: f.add_variable("y", lower="1e5000"), "'1e5000'"),
        (lambda f: f.add_constraint("r", [("x", "nan")], "<=", 1), "'nan'"),
        (lambda f: f.add_constraint("r", [("x", 1)], "<=", "1/0"), "'1/0'"),
        (lambda f: f.add_constraint("r", [("x", Decimal("0.5"))], "<=", 1), "Decimal"),
    ],
    ids=["bool-bound", "exponent-past-the-limit", "nan-coefficient", "zero-denominator-rhs", "decimal"],
)
def test_formulation_parses_every_value_as_an_exact_number(declare, message):
    f = LinearFormulation()
    f.add_variable("x")
    with pytest.raises(InputError, match=message):
        declare(f)
    assert f.variable_names() == ["x"] and f.constraints == []


@pytest.mark.parametrize(
    "variable, term, rhs",
    [
        (Variable("x", lower="0.5"), ("x", 1), 1),
        (Variable("x", upper=True), ("x", 1), 1),
        (Variable("x"), ("x", "2"), 1),
        (Variable("x"), ("x", False), 1),
        (Variable("x"), ("x", None), 1),
        (Variable("x"), ("x", 1), "1"),
        (Variable("x"), ("x", 1), True),
    ],
    ids=["str-bound", "bool-bound", "str-coefficient", "bool-coefficient", "none-coefficient", "str-rhs", "bool-rhs"],
)
def test_formulation_constructor_takes_only_int_and_fraction(variable, term, rhs):
    with pytest.raises(InputError, match="int or Fraction"):
        LinearFormulation([variable], [Constraint("r", (term,), "<=", rhs)])


@pytest.mark.parametrize(
    "declare, named",
    [
        (lambda f: f.add_constraint("r", [("x", Fraction(1, 3**5000)), ("y", Fraction(1, 7**4500))], "<=", 1), "row 'r'"),
        (lambda f: f.add_constraint("r", [("x", Fraction(1, 2**14000))], "<=", 1), "row 'r'"),
        (lambda f: f.add_constraint("r", [("x", 1)], "<=", 10**5000), "row 'r'"),
        (lambda f: f.add_variable("w", lower=Fraction(-1, 2**14000)), "variable 'w'"),
        (lambda f: f.add_variable("w", lower=10**5000), "variable 'w'"),
        (lambda f: f.add_variable("w", lower=0, upper=10**5000), "variable 'w'"),
    ],
    ids=["scaled-row", "decimal-coefficient", "int-rhs", "decimal-bound", "int-lower-bound", "int-bounds"],
)
def test_write_lp_refuses_digits_past_the_limit(declare, named):
    # Every value passes the parser's digit cap; only its printed form is too long.
    f = LinearFormulation()
    f.add_variables(["x", "y"])
    declare(f)
    with pytest.raises(InputError, match=named):
        write_lp(f)


def _refusal(declare):
    with pytest.raises(InputError) as exc:
        declare()
    return str(exc.value)


@pytest.mark.parametrize(
    "names, kind, lower, upper",
    [
        (["a", "b", "a"], "continuous", 0, None),  # duplicate inside the batch
        (["a", "x", "b"], "continuous", 0, None),  # clash with a declared name
        (["a", "b"], "continuous", 0.5, None),  # float bound
        (["a", "b"], "binary", 0, 2),  # binary not on [0, 1]
        (["a", "b"], "integer", 0, None),  # unknown kind
    ],
    ids=["duplicate", "clash", "float", "binary-bounds", "kind"],
)
def test_batch_declaration_refuses_as_one_by_one(names, kind, lower, upper):
    from cdcmip import LinearFormulation

    one, batch = LinearFormulation(), LinearFormulation()
    one.add_variable("x")
    batch.add_variable("x")

    def one_by_one():
        for name in names:
            one.add_variable(name, kind, lower, upper)

    assert _refusal(one_by_one) == _refusal(lambda: batch.add_variables(names, kind, lower, upper))
    assert batch.variable_names() == ["x"]  # a refused batch declares nothing


def test_batch_declaration_matches_one_by_one():
    from cdcmip import LinearFormulation

    one, batch = LinearFormulation(), LinearFormulation()
    for kind, lower, upper in (("continuous", 0, None), ("binary", "0", Fraction(1)), ("continuous", None, "1/2")):
        names = [f"{kind}_{lower}_{i}" for i in range(3)]
        assert batch.add_variables(names, kind, lower, upper) == names
        for name in names:
            one.add_variable(name, kind, lower, upper)
    assert batch.variables == one.variables and batch.add_variables([]) == []
    batch.add_variable("y")
    with pytest.raises(InputError, match="duplicate variable name 'y'"):
        batch.add_variable("y")


@pytest.mark.parametrize("pack", [tuple, list])  # tuple terms reach the one-test route
@pytest.mark.parametrize(
    "bad, message",
    [
        (("r2", [("x", 1), ("w", 1)], "<=", 1), "constraint 'r2' references unknown variable 'w'"),
        (("r2", [("x", 0.5)], "<=", 1), "float"),
        (("r2", [("x", True)], "<=", 1), "bool"),
        ((2, [("x", 1)], "<=", 1), "row name 2 is not a str"),
        ((2, 5, "<=", 1), "row name 2 is not a str"),  # the name is checked before the terms
        (("r2", [("x", 1)], "==", 1), "unknown sense '=='"),
        (("r2", [("x", 1)], "<=", 0.5), "float"),
    ],
    ids=["unknown-variable", "float", "bool", "name", "name-first", "sense", "float-rhs"],
)
def test_batch_rows_refuse_as_one_by_one(bad, message, pack):
    one, batch = LinearFormulation(), LinearFormulation()
    for f in (one, batch):
        f.add_variables(["x", "y"])
    rows = [("r1", [("x", 1), ("y", -1)], "<=", 0), bad, ("r3", [("y", 1)], ">=", 0)]
    rows = [(name, pack(terms) if type(terms) is list else terms, sense, rhs) for name, terms, sense, rhs in rows]

    def one_by_one():
        for row in rows:
            one.add_constraint(*row)

    refusal = _refusal(one_by_one)
    assert message in refusal and refusal == _refusal(lambda: batch.add_constraints(rows))
    # The rows before the refused one are kept, as one call per row keeps them.
    assert batch.constraints == one.constraints == [Constraint("r1", (("x", 1), ("y", -1)), "<=", 0)]


@pytest.mark.parametrize("pack", [tuple, list])
def test_batch_rows_match_one_by_one(pack):
    clean = [
        ("r1", pack([("x", 1), ("y", 0)]), "<=", 1),  # the zero term is dropped
        ("r2", pack([("x", 2), ("y", -3)]), "<=", 5),
        ("r3", pack([]), "<=", 0),
    ]
    mixed = [
        ("r4", [("x", "1/2"), ("y", Fraction(2))], "=", "3/4"),
        ("r5", (t for t in [("x", -1)]), ">=", Fraction(-2)),
        ("r6", (("x", 1),), "<=", 1),
    ]
    one, batch = LinearFormulation(), LinearFormulation()
    for f in (one, batch):
        f.add_variables(["x", "y"])
    batch.add_constraints(clean)
    batch.add_constraints(mixed)
    mixed[1] = ("r5", [("x", -1)], ">=", Fraction(-2))  # the generator above is spent
    for row in clean + mixed:
        one.add_constraint(*row)
    assert batch.constraints == one.constraints
    assert batch.constraints[0] == Constraint("r1", (("x", 1),), "<=", 1)
    assert batch.constraints[3:5] == [
        Constraint("r4", (("x", Fraction(1, 2)), ("y", 2)), "=", Fraction(3, 4)),
        Constraint("r5", (("x", -1),), ">=", -2),
    ]
    assert [type(a) for c in batch.constraints for _, a in c.terms] == [int, int, int, Fraction, int, int, int]
    batch.add_constraints([])
    assert len(batch.constraints) == 6


@pytest.mark.parametrize("build", [build_naive, build_jeroslow_lowe, build_log_embedding, build_extended_jtree])
def test_write_lp_prints_integer_models_without_the_fraction_route(monkeypatch, triangle, build):
    from cdcmip import formulate

    f = build(triangle)
    expected = write_lp(formulate.LinearFormulation(
        [v._replace(lower=_frac(v.lower), upper=_frac(v.upper)) for v in f.variables],
        [c._replace(terms=tuple((v, Fraction(a)) for v, a in c.terms)) for c in f.constraints],
        f.metadata,
    ))

    def refuse(values):
        raise AssertionError(f"integer values {values} took the fraction route")

    monkeypatch.setattr(formulate, "_render_row", refuse)
    assert write_lp(f) == expected
    assert write_lp(build_sosk(3, 2)) == GOLDEN_SOSK_3_2


def _frac(x):
    return None if x is None else Fraction(x)


@pytest.mark.parametrize(
    "variable, sense, message",
    [
        (Variable("x", "integer", 0), "<=", "unknown variable kind 'integer'"),
        (Variable("x", "binary", 0, 2), "<=", r"binary variables must have bounds \[0, 1\]"),
        (Variable("x", "binary"), "<=", r"binary variables must have bounds \[0, 1\]"),
        (Variable("x"), "<", "unknown sense '<'"),
    ],
    ids=["kind", "binary-bounds", "unbounded-binary", "sense"],
)
def test_formulation_constructor_checks_kinds_binaries_and_senses(variable, sense, message):
    with pytest.raises(InputError, match=message):
        LinearFormulation([variable], [Constraint("r", (("x", 1),), sense, 1)])
    assert LinearFormulation([Variable("x", "binary", Fraction(0), 1)]).binary_names() == ["x"]


def test_add_constraint_refuses_an_unknown_sense():
    f = LinearFormulation()
    f.add_variable("x")
    with pytest.raises(InputError, match="unknown sense '=='"):
        f.add_constraint("r", [("x", 1)], "==", 1)
    assert f.constraints == []


@pytest.mark.parametrize(
    "build",
    [
        build_naive,
        build_jeroslow_lowe,
        build_log_embedding,
        lambda fam: build_ib_from_cover(fam, heuristic_cover(fam)),
        build_extended_jtree,
        build_extended_disjoint,
        lambda fam: build_sosk(6, 3),
        lambda fam: build_sosk_kis(6, 3),
        lambda fam: build_pwl([(0, 0), ("1/3", 1), (1, "2/3"), ("7/4", "-1/7")]),
    ],
    ids=["naive", "jeroslow_lowe", "log_embedding", "ib_cover", "extended_jtree", "extended_disjoint", "sosk", "sosk_kis", "pwl"],
)
def test_constructor_accepts_every_builders_records(sos2_5, build):
    # The constructor and the add_* methods agree on what a model may hold.
    f = build(sos2_5)
    g = LinearFormulation(list(f.variables), list(f.constraints), dict(f.metadata))
    assert write_lp(g) == write_lp(f) and g.to_json() == f.to_json()


def _with(declare):
    f = LinearFormulation()
    f.add_variable("x")
    declare(f)
    return f


@pytest.mark.parametrize(
    "model, named",
    [
        (lambda: _with(lambda f: f.add_variable("w", lower=10**5000)), "variable 'w'"),
        (lambda: _with(lambda f: f.add_constraint("r", [("x", 1)], "<=", 10**5000)), "row 'r'"),
        (lambda: _with(lambda f: f.add_constraint("r", [("x", 10**5000)], "<=", 1)), "row 'r'"),
        # The constructor does not parse, so a long Fraction reaches to_json.
        (lambda: LinearFormulation([Variable("w", upper=Fraction(10**5000 + 1, 3))]), "variable 'w'"),
        (lambda: LinearFormulation([Variable("x")], [Constraint("r", (("x", Fraction(1, 3**10000)),), "<=", 1)]), "row 'r'"),
    ],
    ids=["int-bound", "int-rhs", "int-coefficient", "fraction-bound", "fraction-coefficient"],
)
def test_to_json_refuses_digits_past_the_limit(model, named):
    f = model()
    with pytest.raises(InputError, match=named):
        f.to_json()
