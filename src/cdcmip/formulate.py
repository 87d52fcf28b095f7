"""Solver-agnostic MIP intermediate representation and every builder.

The IR is plain ``Variable`` and ``Constraint`` named tuples, which
``LinearFormulation`` checks, and holds only ``int`` (integral values) and
``Fraction``: other values, such as ``"1/3"``, enter through ``cdc``'s
exact-number parser in ``add_variables`` and ``add_constraints``, and the
constructor refuses them.
Builders share one naming scheme (``lam_<v>`` for the primary simplex
variables, ``lamp_``/``lampp_`` for copy-index variables, ``gam_<set>_<v>``
for per-set weights, ``z_<j>`` for binaries) so emitted files diff
cleanly.  The LP writer prints an all-integer row or bound straight from
its values, renders terminating rationals as exact decimals and scales any
other row to integers, which keeps output byte-stable; a bound that does
not terminate cannot be scaled and is an input error, as is a row or bound
whose digits pass the integer digit limit.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, compress, pairwise, repeat
from operator import itemgetter
from typing import NamedTuple, Optional

from .cdc import IndexSetFamily, _exact_coordinate, _exact_point, conflict_graph, ground_set
from .cover import BicliqueCover, heuristic_cover, tree_cover, verify_cover
from .errors import InputError, InvariantError
from .sosk import sosk_cover, sosk_family
from .transform import build_equivalent_family

CONTINUOUS = "continuous"
BINARY = "binary"

_SENSES = ("<=", "=", ">=")


class Variable(NamedTuple):
    name: str
    kind: str = CONTINUOUS
    lower: int | Fraction | None = None
    upper: int | Fraction | None = None


class Constraint(NamedTuple):
    name: str
    terms: tuple[tuple[str, int | Fraction], ...]
    sense: str
    rhs: int | Fraction


@dataclass
class LinearFormulation:
    variables: list[Variable] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    _names: set[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Refuses what ``add_variables`` and ``add_constraints`` refuse, values unparsed.

        That is names that are not ``str``, duplicate names, unknown kinds,
        binaries not on [0, 1], rows naming unknown variables, unknown senses
        and inexact values.  Values
        must be ``int`` (not ``bool``) or ``Fraction``, or ``None`` for a
        missing bound, and are stored as given: unlike ``add_constraints``, the
        constructor neither parses strings nor turns ``Fraction(1)`` into ``1``.
        """
        _check_names("variable", [v.name for v in self.variables])
        _check_names("row", [c.name for c in self.constraints])
        self._names = {v.name for v in self.variables}
        if len(self._names) != len(self.variables):
            raise InputError("variable names are not unique")
        values = []
        for v in self.variables:
            _check_kind(v.kind, v.lower, v.upper)
            values += (b for b in (v.lower, v.upper) if b is not None)
        for c in self.constraints:
            self._check_known(c.name, c.terms)
            _check_sense(c.sense)
            values += (*map(_COEF, c.terms), c.rhs)
        for x in values:
            if type(x) not in _STORED:
                raise InputError(f"exact value required (int or Fraction), got {type(x).__name__} {x!r}")

    def variable_names(self) -> list[str]:
        return [v.name for v in self.variables]

    def binary_names(self) -> list[str]:
        return [v.name for v in self.variables if v.kind == BINARY]

    def lambda_names(self) -> dict[int, str]:
        """Primary simplex variable per original index, recorded by builders.

        Each key must be an index, as an ``int`` or its decimal digits, and
        each value a declared variable; anything else is an input error.
        """
        raw = self.metadata.get("lambda_vars")
        if raw is None:
            raise InputError("formulation does not record its primary variables")
        declared = set(self.variable_names())
        lam = {}
        for k, name in raw.items():
            if not (type(k) is int or type(k) is str and k.isascii() and k.isdigit()):
                raise InputError(f"lambda_vars key {k!r} is not an index")
            if not isinstance(name, str) or name not in declared:
                raise InputError(f"lambda_vars maps index {k} to undeclared variable {name!r}")
            lam[int(k)] = name
        return lam

    def add_variable(self, name, kind=CONTINUOUS, lower=None, upper=None) -> str:
        return self.add_variables([name], kind, lower, upper)[0]

    def add_variables(self, names, kind=CONTINUOUS, lower=None, upper=None) -> list[str]:
        """Declares one variable per name, all of one kind and bounds; returns the names.

        The checks run once per batch, in ``add_variable``'s order (names,
        then bounds, then kind); a refused batch declares none of its names.
        """
        names = list(names)
        _check_names("variable", names)
        fresh = set(names)
        if len(fresh) != len(names) or not self._names.isdisjoint(fresh):
            raise InputError(f"duplicate variable name {_first_repeat(names, self._names)!r}")
        if not names:
            return names
        lower, upper = [b if b is None else _exact(b) for b in (lower, upper)]
        _check_kind(kind, lower, upper)
        self.variables += map(Variable._make, zip(names, repeat(kind), repeat(lower), repeat(upper)))
        self._names |= fresh
        return names

    def add_constraint(self, name, terms, sense, rhs) -> None:
        self.add_constraints([(name, terms, sense, rhs)])

    def add_constraints(self, rows) -> None:
        """Adds ``(name, terms, sense, rhs)`` rows, ``terms`` as ``(variable, value)`` pairs.

        One test admits a batch of ``str`` names, ``tuple`` terms, nonzero
        ``int`` values, known senses and declared variables as given; any
        other goes row by row, parsing values and dropping zero terms, so a
        refusal keeps the rows before the one refused.
        """
        rows = [*rows]
        if {*map(type, map(_TERMS, rows))} <= _TUPLE:
            terms = [*chain.from_iterable(map(_TERMS, rows))]
            coefs = [*map(_COEF, terms)]
            if (
                {*map(type, map(_NAME, rows))} <= _STR
                and {*map(type, coefs), *map(type, map(_RHS, rows))} <= _INT
                and 0 not in coefs
                and all(map(_SENSES.__contains__, map(_SENSE, rows)))
                and self._names.issuperset(map(_VAR, terms))
            ):
                self.constraints += map(Constraint._make, rows)
                return
        for name, terms, sense, rhs in rows:
            _check_name("row", name)
            terms = tuple((var, x) for var, c in terms if (x := _exact(c)))
            self._check_known(name, terms)
            rhs = _exact(rhs)
            _check_sense(sense)
            self.constraints.append(Constraint(name, terms, sense, rhs))

    def _check_known(self, row, terms) -> None:
        if not self._names.issuperset(map(_VAR, terms)):
            var = next(var for var, _ in terms if var not in self._names)
            raise InputError(f"constraint {row!r} references unknown variable {var!r}")

    def to_json(self) -> str:
        """Every value as an exact string; one past the integer digit limit is an input error."""
        variables, constraints = [], []
        for v in self.variables:
            try:
                lower, upper = (None if b is None else str(b) for b in (v.lower, v.upper))
            except ValueError as exc:  # str() of an int past sys.get_int_max_str_digits()
                raise InputError(f"a bound of variable {v.name!r} cannot be written: {exc}") from exc
            variables.append({"name": v.name, "kind": v.kind, "lower": lower, "upper": upper})
        for c in self.constraints:
            try:
                terms, rhs = [[var, str(coef)] for var, coef in c.terms], str(c.rhs)
            except ValueError as exc:
                raise InputError(f"row {c.name!r} cannot be written: {exc}") from exc
            constraints.append({"name": c.name, "terms": terms, "sense": c.sense, "rhs": rhs})
        return json.dumps(
            {"variables": variables, "constraints": constraints, "metadata": self.metadata}, sort_keys=True
        )


_VAR, _COEF = itemgetter(0), itemgetter(1)
_NAME, _TERMS, _SENSE, _RHS = map(itemgetter, range(4))
_INT = {int}
_STR = {str}
_TUPLE = {tuple}
_STORED = {int, Fraction}


def _check_name(what: str, name) -> None:
    """Refuses a name that is not a ``str``: the LP writer reads names as text."""
    if not isinstance(name, str):
        raise InputError(f"{what} name {name!r} is not a str")


def _check_names(what: str, names: list) -> None:
    if not {*map(type, names)} <= _STR:
        for name in names:
            _check_name(what, name)


def _check_kind(kind, lower, upper) -> None:
    if kind not in (CONTINUOUS, BINARY):
        raise InputError(f"unknown variable kind {kind!r}")
    if kind == BINARY and (lower != 0 or upper != 1):
        raise InputError("binary variables must have bounds [0, 1]")


def _check_sense(sense) -> None:
    if sense not in _SENSES:
        raise InputError(f"unknown sense {sense!r}")


def _exact(x) -> int | Fraction:
    """``x`` parsed by ``cdc._exact_coordinate``: an ``int`` when it is integral, else a ``Fraction``."""
    if type(x) is int:
        return x
    x = _exact_coordinate(x)
    return x.numerator if x.denominator == 1 else x


def family_digest(family: IndexSetFamily) -> str:
    payload = json.dumps([sorted(s) for s in family.sets]).encode()
    return hashlib.sha256(payload).hexdigest()[:12]


def _new(builder: str, family: IndexSetFamily) -> tuple[LinearFormulation, dict[int, str]]:
    """A formulation with one ``lam_<v>`` per index of the family, recorded as primary."""
    f = LinearFormulation(metadata={"builder": builder, "family_digest": family_digest(family)})
    lam = _add_lambda_vars(f, ground_set(family))
    f.metadata["lambda_vars"] = {str(v): name for v, name in lam.items()}
    return f, lam


def _add_lambda_vars(f: LinearFormulation, indices, prefix="lam") -> dict[int, str]:
    indices = sorted(indices)
    return dict(zip(indices, f.add_variables([f"{prefix}_{v}" for v in indices], lower=0)))


def _add_binaries(f: LinearFormulation, count: int) -> list[str]:
    return f.add_variables([f"z_{i + 1}" for i in range(count)], BINARY, 0, 1)


def _terms(names, coef=1) -> tuple:
    """``(name, coef)`` for each name, paired by ``zip`` rather than one by one."""
    return tuple(zip(names, repeat(coef)))


def _less(name, others) -> tuple:
    """The terms of ``name`` minus the sum of ``others``."""
    return ((name, 1), *zip(others, repeat(-1)))


def _per_set_weights(f, family, lam, binaries: int):
    """Weights ``gam_<set>_<v>``, then ``binaries`` binaries, then ``link_<v>`` rows.

    Each link row equates ``lam_<v>`` with the sum of the weights on ``v``.
    Returns each member set's weights, in index order, and the binaries.
    """
    keys = [(i, v) for i, s in enumerate(family.sets) for v in sorted(s)]
    names = f.add_variables([f"gam_{i + 1}_{v}" for i, v in keys], lower=0)
    gam = dict(zip(keys, names))
    z = _add_binaries(f, binaries)
    f.add_constraints(
        (f"link_{v}", _less(name, map(gam.__getitem__, zip(family.holders[v], repeat(v)))), "=", 0)
        for v, name in lam.items()
    )
    return [names[a:b] for a, b in pairwise(accumulate(map(len, family.sets), initial=0))], z


def build_naive(family: IndexSetFamily) -> LinearFormulation:
    """One binary per member set; each index is capped by the sets that hold it."""
    f, lam = _new("naive", family)
    z = _add_binaries(f, len(family))
    f.add_constraints([
        *((f"cap_{v}", _less(name, map(z.__getitem__, family.holders[v])), "<=", 0) for v, name in lam.items()),
        ("select", _terms(z), "=", 1),
        ("mass", _terms(lam.values()), "=", 1),
    ])
    return f


def build_jeroslow_lowe(family: IndexSetFamily) -> LinearFormulation:
    """One weight vector per member set, tied to a selection binary."""
    f, lam = _new("jeroslow_lowe", family)
    weights, z = _per_set_weights(f, family, lam, len(family))
    f.add_constraints([
        *((f"weight_{i + 1}", _less(z[i], block), "=", 0) for i, block in enumerate(weights)),
        ("select", _terms(z), "=", 1),
    ])
    return f


def build_log_embedding(family: IndexSetFamily) -> LinearFormulation:
    """Per-set weights whose code-weighted sum pins logarithmically many binaries.

    Member set ``i`` (from 0) is labelled by the binary encoding of ``i``;
    ``metadata["codes"]`` lists the labels, lowest bit first.
    """
    f, lam = _new("log_embedding", family)
    r = (len(family) - 1).bit_length()
    weights, z = _per_set_weights(f, family, lam, r)
    rows = [("mass", _terms(chain.from_iterable(weights)), "=", 1)]
    for bit in range(r):
        held = chain.from_iterable(compress(weights, (i >> bit & 1 for i in range(len(weights)))))
        rows.append((f"code_{bit + 1}", (*_terms(held), (z[bit], -1)), "=", 0))
    f.add_constraints(rows)
    f.metadata["codes"] = [
        "".join(str(i >> bit & 1) for bit in range(r)) for i in range(len(family))
    ]
    return f


def _cover_model(builder, family, cover, rewrite=None, prefix="lamp") -> LinearFormulation:
    """The independent-branching model of a biclique cover: one binary per biclique.

    Without ``rewrite`` the cover is of ``family``'s conflict graph and acts
    on ``lam``.  With a :class:`TransformResult`, it is of the rewritten
    family's and acts on copy variables ``<prefix>_<u>``, which ``fiber_<v>``
    rows sum back onto each ``lam_<v>``; ``metadata["aux_continuous"]`` then
    records the rewrite's ``extra_continuous``, the copies beyond the
    original indices.  Each biclique's side A has its mass forbidden when
    its binary is 0, side B when it is 1.
    """
    f, lam = _new(builder, family)
    var_of, rows = lam, []
    if rewrite is not None:
        var_of = _add_lambda_vars(f, ground_set(rewrite.family_prime), prefix)
        fibers = rewrite.mapping.fibers()
        rows += (
            (f"fiber_{v}", _less(name, map(var_of.__getitem__, fibers.get(v, ()))), "=", 0)
            for v, name in lam.items()
        )
        f.metadata["aux_continuous"] = rewrite.extra_continuous
    z = _add_binaries(f, len(cover))
    rows.append(("mass", _terms(var_of.values()), "=", 1))
    pick = var_of.__getitem__
    for idx, bc in enumerate(cover):
        rows.append((f"a_{idx + 1}", (*_terms(map(pick, sorted(bc.side_a))), (z[idx], -1)), "<=", 0))
        rows.append((f"b_{idx + 1}", (*_terms(map(pick, sorted(bc.side_b))), (z[idx], 1)), "<=", 1))
    f.add_constraints(rows)
    f.metadata["cover_size"] = len(cover)
    return f


def build_ib(family: IndexSetFamily) -> LinearFormulation:
    """The model of ``heuristic_cover(family)``, which ``tree_cover`` has already verified."""
    return _cover_model("ib_cover", family, heuristic_cover(family))


def build_ib_from_cover(family: IndexSetFamily, cover: BicliqueCover) -> LinearFormulation:
    """One binary per cover biclique: each side's mass is forbidden on one branch.

    The cover is verified against the family's conflict graph.
    """
    if not verify_cover(conflict_graph(family), cover):
        raise InputError("cover does not verify against the family's conflict graph")
    return _cover_model("ib_cover", family, cover)


def _sosk_model(builder: str, n: int, k: int) -> LinearFormulation:
    """The model of the closed-form windowed cover, verified as the package's own result."""
    family = sosk_family(n, k)
    cover = sosk_cover(n, k) if n > k else BicliqueCover()
    if not verify_cover(conflict_graph(family), cover):
        raise InvariantError("closed-form windowed cover does not verify against its family")
    return _cover_model(builder, family, cover)


def build_sosk(n: int, k: int) -> LinearFormulation:
    """Windowed constraint via the merged dyadic cover; logarithmic binary count."""
    if not 2 <= k < n:
        raise InputError("need n > k >= 2")
    return _sosk_model("sosk", n, k)


def build_sosk_kis(n: int, k: int) -> LinearFormulation:
    """Windowed constraint with one binary per window position."""
    if not 1 <= k <= n:
        raise InputError("need n >= k >= 1")
    f, lam = _new("sosk_kis", sosk_family(n, k))
    nwin = n - k + 1
    z = _add_binaries(f, nwin)
    f.add_constraints([
        # Index j lies in the windows that start at max(j - k + 1, 1) through min(j, nwin).
        *((f"win_{j}", _less(lam[j], z[max(j - k, 0):min(j, nwin)]), "<=", 0) for j in range(1, n + 1)),
        ("mass", _terms(lam.values()), "=", 1),
        ("select", _terms(z), "=", 1),
    ])
    return f


def build_extended_jtree(family: IndexSetFamily) -> LinearFormulation:
    """Rewrites the family along a spanning tree, then covers the rewrite along that tree.

    ``metadata["aux_continuous"]`` counts the copies beyond the original
    indices: the total copy count minus the tree's weight minus |J|.
    """
    res = build_equivalent_family(family, disjoint=False)
    return _cover_model("extended_jtree", family, tree_cover(res.family_prime, res.tree), res, "lamp")


def build_extended_disjoint(family: IndexSetFamily) -> LinearFormulation:
    """Private copies per set, covered along the rewrite's path tree; exactly ceil(log2 d) binaries.

    The copies make the member sets pairwise disjoint, so the conflict graph
    is complete multipartite and merging fuses the path's tree cuts level by
    level into ceil(log2 d) bicliques.  That count is checked.
    ``metadata["aux_continuous"]`` counts the copies beyond the original
    indices: the total copy count minus |J|.
    """
    res = build_equivalent_family(family, disjoint=True)
    cover = tree_cover(res.family_prime, res.tree)
    if len(cover) != (len(family) - 1).bit_length():
        raise InvariantError("disjoint rewrite's tree cover missed the logarithmic count")
    return _cover_model("extended_disjoint", family, cover, res, "lampp")


def build_pwl(breakpoints) -> LinearFormulation:
    """Formulation of a univariate piecewise-linear function given its breakpoints.

    Accepts (x, y) lists or tuples with exact coordinates (int, Fraction, or
    string); x values must be strictly increasing.  The graph of the
    function is the set of convex combinations of at most two consecutive
    breakpoints, so the windowed cover with k = 2 supplies the binaries on
    top of the usual convex combination rows.
    """
    pts = [_exact_point(pt) for pt in breakpoints]
    if len(pts) < 2:
        raise InputError("need at least two breakpoints")
    if any(a >= b for (a, _), (b, _) in zip(pts, pts[1:])):
        raise InputError("breakpoint x values must be strictly increasing")
    n = len(pts)
    f = _sosk_model("piecewise_linear", n, 2)
    lam = f.lambda_names()
    f.add_variables("xy")
    f.add_constraints(
        (f"def_{name}", [(name, 1)] + [(lam[v], -pts[v - 1][axis]) for v in range(1, n + 1)], "=", 0)
        for axis, name in enumerate("xy")
    )
    return f


def _decimal_or_none(x: Fraction) -> Optional[str]:
    """Exact decimal string when the denominator divides a power of ten."""
    den = x.denominator
    twos = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return None
    digits = max(twos, fives)
    scaled = x.numerator * 10**digits // x.denominator
    if digits == 0:
        return str(scaled)
    sign = "-" if scaled < 0 else ""
    body = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{body[:-digits]}.{body[-digits:]}"


def _integral(values: list[int | Fraction]) -> list[int]:
    """The values times the least common multiple of their denominators; ``int`` values as given."""
    if {*map(type, values)} <= _INT:
        return values
    scale = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (scale // x.denominator) for x in values]


def _render_row(values: list[int | Fraction]) -> Optional[list[str]]:
    """The values as exact decimals, each rendered once, or ``None`` if one does not terminate."""
    out = [str(x) if type(x) is int else _decimal_or_none(x) for x in values]
    return None if None in out else out


def _fraction_row(terms, rhs) -> tuple[list[str], str]:
    """Terms and right-hand side of a row holding a ``Fraction``: decimals, else scaled."""
    values = [*map(_COEF, terms), rhs]
    *coefs, rhs = _render_row(values) or map(str, _integral(values))
    parts = []
    for (var, _), coef in zip(terms, coefs):
        if coef == "1":
            parts.append("+ " + var)
        elif coef == "-1":
            parts.append("- " + var)
        elif coef[0] == "-":
            parts.append(f"- {coef[1:]} {var}")
        else:
            parts.append(f"+ {coef} {var}")
    return parts, rhs


def _first_repeat(items, seen=()):
    """The first item equal to an earlier one or to one of ``seen``."""
    seen = set(seen)
    return next(x for x in items if x in seen or seen.add(x))


def _bound_shape(name, lower, upper) -> tuple[str, str]:
    """The text either side of the name in a bound line of ``lower`` and ``upper``."""
    try:
        bounds = [b for b in (lower, upper) if b is not None]
        bounds = list(map(str, bounds)) if {*map(type, bounds)} <= _INT else _render_row(bounds)
    except ValueError as exc:  # str() of an int past sys.get_int_max_str_digits()
        raise InputError(f"a bound of variable {name!r} cannot be written: {exc}") from exc
    if bounds is None:
        raise InputError(f"a bound of variable {name!r} is not a terminating decimal")
    if lower is None:
        return (" ", " free") if upper is None else (" -inf <= ", f" <= {bounds[0]}")
    return (" ", f" >= {bounds[0]}") if upper is None else (f" {bounds[0]} <= ", f" <= {bounds[1]}")


def write_lp(f: LinearFormulation) -> str:
    """Render the formulation in LP format, deterministically.

    Every variable and row name is printed as declared, so each must be an
    ASCII identifier (letters, digits and ``_``, not starting with a digit);
    the first one that is not is an input error, as is a ``metadata["builder"]``
    (the comment line) that is not printable ASCII.  Rows keep declaration
    order, and their names must be unique and differ from the objective's
    ``obj``.  A row of integers is printed straight from its values; a row
    holding a fraction prints exact decimals, or is scaled by the common
    denominator when one does not terminate, so the file stays exact.  A
    bound cannot be scaled, so one that does not terminate is an input
    error, as is a row or bound whose digits pass
    ``sys.get_int_max_str_digits()``.  A bound with no lower end is written
    ``-inf <= x``, as LP readers take a missing lower bound for 0.  Value
    types are tested once per model and each distinct bound pair rendered once.
    """
    builder = f.metadata.get("builder", "formulation")
    if not (isinstance(builder, str) and builder.isascii() and builder.isprintable()):
        raise InputError(f"metadata 'builder' {builder!r} is not printable ASCII text")
    names, rows = [v.name for v in f.variables], f.constraints
    row_names = [*map(_NAME, rows)]
    for what, given in (("variable", names), ("row", row_names)):
        if not (all(map(str.isidentifier, given)) and all(map(str.isascii, given))):
            bad = next(name for name in given if not (name.isascii() and name.isidentifier()))
            raise InputError(f"{what} name {bad!r} is not an LP name: an ASCII identifier is required")
    if len({*row_names, "obj"}) != len(row_names) + 1:
        raise InputError(f"row name {_first_repeat(row_names, ('obj',))!r} is repeated or is the objective's obj")
    coefs = map(_COEF, chain.from_iterable(map(_TERMS, rows)))
    integral = {*map(type, coefs), *map(type, map(_RHS, rows))} <= _INT

    lines = ["\\ " + builder, "Minimize", " obj:", "Subject To"]
    for name, terms, sense, rhs in rows:
        if not (terms or names):
            raise InputError(f"row {name!r} has no terms and there is no variable to write it with")
        try:
            if integral or type(rhs) is int and {*map(type, map(_COEF, terms))} <= _INT:
                parts = [
                    "+ " + var if a == 1
                    else "- " + var if a == -1
                    else f"- {-a} {var}" if a < 0
                    else f"+ {a} {var}"
                    for var, a in terms
                ]
            else:
                parts, rhs = _fraction_row(terms, rhs)
            body = " ".join(parts) or "0 " + names[0]
            lines.append(f" {name}: {body.removeprefix('+ ')} {sense} {rhs}")
        except ValueError as exc:  # str() of an int past sys.get_int_max_str_digits()
            raise InputError(f"row {name!r} cannot be written: {exc}") from exc
    lines.append("Bounds")
    shapes = {}
    for name, _, lower, upper in f.variables:
        key = (type(lower), lower, type(upper), upper)
        if (shape := shapes.get(key)) is None:
            shape = shapes[key] = _bound_shape(name, lower, upper)
        lines.append(name.join(shape))
    binaries = [" " + v.name for v in f.variables if v.kind == BINARY]
    lines += ["Binaries", *binaries, "End"] if binaries else ["End"]
    return "\n".join(lines) + "\n"
