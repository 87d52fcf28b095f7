"""Solver-agnostic MIP intermediate representation and every builder.

All coefficients are exact rationals; floats never enter the IR.  Builders
share one naming scheme (``lam_<v>`` for the primary simplex variables,
``lamp_``/``lampp_`` for copy-index variables, ``gam_<set>_<v>`` for
per-set weights, ``z_<j>`` for binaries) so emitted files diff cleanly.
The LP writer renders terminating rationals as exact decimals and scales
any other row to integers, which keeps output byte-stable.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .cdc import IndexSetFamily, conflict_graph, ground_set
from .cover import BicliqueCover, disjoint_level_cover, heuristic_cover, verify_cover
from .errors import InputError, InvariantError
from .sosk import exact_coordinate, sosk_cover, sosk_family
from .transform import build_equivalent_family

CONTINUOUS = "continuous"
BINARY = "binary"

_SENSES = ("<=", "=", ">=")


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str = CONTINUOUS
    lower: Optional[Fraction] = None
    upper: Optional[Fraction] = None

    def __post_init__(self):
        if self.kind not in (CONTINUOUS, BINARY):
            raise InputError(f"unknown variable kind {self.kind!r}")
        if self.kind == BINARY and (self.lower != 0 or self.upper != 1):
            raise InputError("binary variables must have bounds [0, 1]")


@dataclass(frozen=True)
class Constraint:
    name: str
    terms: tuple[tuple[str, Fraction], ...]
    sense: str
    rhs: Fraction

    def __post_init__(self):
        if self.sense not in _SENSES:
            raise InputError(f"unknown sense {self.sense!r}")


@dataclass
class LinearFormulation:
    variables: list[Variable] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    _names: set[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._names = {v.name for v in self.variables}

    def variable_names(self) -> list[str]:
        return [v.name for v in self.variables]

    def binary_names(self) -> list[str]:
        return [v.name for v in self.variables if v.kind == BINARY]

    def lambda_names(self) -> dict[int, str]:
        """Primary simplex variable per original index, recorded by builders."""
        raw = self.metadata.get("lambda_vars")
        if raw is None:
            raise InputError("formulation does not record its primary variables")
        return {int(k): v for k, v in raw.items()}

    def add_variable(self, name, kind=CONTINUOUS, lower=None, upper=None) -> str:
        if name in self._names:
            raise InputError(f"duplicate variable name {name!r}")
        self.variables.append(Variable(name, kind, lower, upper))
        self._names.add(name)
        return name

    def add_constraint(self, name, terms, sense, rhs) -> None:
        fixed = tuple(
            (var, Fraction(coef)) for var, coef in terms if Fraction(coef) != 0
        )
        for var, _ in fixed:
            if var not in self._names:
                raise InputError(f"constraint {name!r} references unknown variable {var!r}")
        self.constraints.append(Constraint(name, fixed, sense, Fraction(rhs)))

    def validate(self) -> None:
        names = self.variable_names()
        if len(set(names)) != len(names):
            raise InputError("variable names are not unique")

    def to_json(self) -> str:
        def frac(x):
            return None if x is None else str(x)

        return json.dumps(
            {
                "variables": [
                    {
                        "name": v.name,
                        "kind": v.kind,
                        "lower": frac(v.lower),
                        "upper": frac(v.upper),
                    }
                    for v in self.variables
                ],
                "constraints": [
                    {
                        "name": c.name,
                        "terms": [[var, str(coef)] for var, coef in c.terms],
                        "sense": c.sense,
                        "rhs": str(c.rhs),
                    }
                    for c in self.constraints
                ],
                "metadata": self.metadata,
            },
            sort_keys=True,
        )


def family_digest(family: IndexSetFamily) -> str:
    payload = json.dumps([sorted(s) for s in family.sets]).encode()
    return hashlib.sha256(payload).hexdigest()[:12]


def _new(builder: str, family: Optional[IndexSetFamily]) -> LinearFormulation:
    meta = {"builder": builder}
    if family is not None:
        meta["family_digest"] = family_digest(family)
    return LinearFormulation(metadata=meta)


def _add_lambda_vars(f: LinearFormulation, indices, prefix="lam") -> dict[int, str]:
    names = {}
    for v in sorted(indices):
        names[v] = f.add_variable(f"{prefix}_{v}", CONTINUOUS, lower=Fraction(0))
    return names


def build_naive(family: IndexSetFamily) -> LinearFormulation:
    """One binary per member set; each index is capped by the sets that hold it."""
    f = _new("naive", family)
    j = ground_set(family)
    lam = _add_lambda_vars(f, j)
    z = [f.add_variable(f"z_{i + 1}", BINARY, Fraction(0), Fraction(1)) for i in range(len(family))]
    for v in sorted(j):
        terms = [(lam[v], Fraction(1))]
        terms += [(z[i], Fraction(-1)) for i, s in enumerate(family.sets) if v in s]
        f.add_constraint(f"cap_{v}", terms, "<=", 0)
    f.add_constraint("select", [(name, Fraction(1)) for name in z], "=", 1)
    f.add_constraint("mass", [(lam[v], Fraction(1)) for v in sorted(j)], "=", 1)
    f.metadata["lambda_vars"] = {str(v): lam[v] for v in sorted(j)}
    return f


def build_jeroslow_lowe(family: IndexSetFamily) -> LinearFormulation:
    """One weight vector per member set, tied to a selection binary."""
    f = _new("jeroslow_lowe", family)
    j = ground_set(family)
    lam = _add_lambda_vars(f, j)
    gam = {
        (i, v): f.add_variable(f"gam_{i + 1}_{v}", CONTINUOUS, lower=Fraction(0))
        for i, s in enumerate(family.sets)
        for v in sorted(s)
    }
    z = [f.add_variable(f"z_{i + 1}", BINARY, Fraction(0), Fraction(1)) for i in range(len(family))]
    for v in sorted(j):
        terms = [(lam[v], Fraction(1))]
        terms += [
            (gam[(i, v)], Fraction(-1)) for i, s in enumerate(family.sets) if v in s
        ]
        f.add_constraint(f"link_{v}", terms, "=", 0)
    for i, s in enumerate(family.sets):
        terms = [(z[i], Fraction(1))]
        terms += [(gam[(i, v)], Fraction(-1)) for v in sorted(s)]
        f.add_constraint(f"weight_{i + 1}", terms, "=", 0)
    f.add_constraint("select", [(name, Fraction(1)) for name in z], "=", 1)
    f.metadata["lambda_vars"] = {str(v): lam[v] for v in sorted(j)}
    return f


def _default_codes(d: int) -> list[tuple[int, ...]]:
    r = (d - 1).bit_length()
    return [tuple((i >> bit) & 1 for bit in range(r)) for i in range(d)]


def gray_codes(d: int) -> list[tuple[int, ...]]:
    """Reflected binary labels; consecutive member sets differ in one bit."""
    r = (d - 1).bit_length()
    return [tuple(((i ^ (i >> 1)) >> bit) & 1 for bit in range(r)) for i in range(d)]


def build_log_embedding(
    family: IndexSetFamily,
    codes: Optional[Sequence[Sequence[int]]] = None,
    gray: bool = False,
) -> LinearFormulation:
    """Per-set weights whose code-weighted sum pins logarithmically many binaries.

    Default labels are the plain binary encoding of each set's ordinal;
    ``gray`` switches to reflected labels.  Any family of distinct 0/1
    vectors of a common sufficient length works.
    """
    f = _new("log_embedding", family)
    d = len(family)
    if codes is None:
        fixed = gray_codes(d) if gray else _default_codes(d)
    else:
        fixed = [tuple(c) for c in codes]
        if len(fixed) != d:
            raise InputError(f"need {d} codes, got {len(fixed)}")
        if len(set(fixed)) != d:
            raise InputError("codes must be distinct")
        lengths = {len(c) for c in fixed}
        if len(lengths) != 1:
            raise InputError("codes must share a common length")
        r = lengths.pop()
        if r < (d - 1).bit_length():
            raise InputError("code length is too short to distinguish the sets")
        if any(bit not in (0, 1) for c in fixed for bit in c):
            raise InputError("codes must be 0/1 vectors")
    r = len(fixed[0]) if fixed else 0
    j = ground_set(family)
    lam = _add_lambda_vars(f, j)
    gam = {
        (i, v): f.add_variable(f"gam_{i + 1}_{v}", CONTINUOUS, lower=Fraction(0))
        for i, s in enumerate(family.sets)
        for v in sorted(s)
    }
    z = [f.add_variable(f"z_{bit + 1}", BINARY, Fraction(0), Fraction(1)) for bit in range(r)]
    for v in sorted(j):
        terms = [(lam[v], Fraction(1))]
        terms += [
            (gam[(i, v)], Fraction(-1)) for i, s in enumerate(family.sets) if v in s
        ]
        f.add_constraint(f"link_{v}", terms, "=", 0)
    f.add_constraint(
        "mass",
        [(gam[(i, v)], Fraction(1)) for i, s in enumerate(family.sets) for v in sorted(s)],
        "=",
        1,
    )
    for bit in range(r):
        terms = [
            (gam[(i, v)], Fraction(fixed[i][bit]))
            for i, s in enumerate(family.sets)
            for v in sorted(s)
            if fixed[i][bit]
        ]
        terms.append((z[bit], Fraction(-1)))
        f.add_constraint(f"code_{bit + 1}", terms, "=", 0)
    f.metadata["lambda_vars"] = {str(v): lam[v] for v in sorted(j)}
    f.metadata["codes"] = ["".join(map(str, c)) for c in fixed]
    return f


def _add_cover_rows(f, cover, var_of, z_names) -> None:
    for idx, bc in enumerate(cover):
        terms = [(var_of[v], Fraction(1)) for v in sorted(bc.side_a)]
        terms.append((z_names[idx], Fraction(-1)))
        f.add_constraint(f"a_{idx + 1}", terms, "<=", 0)
        terms = [(var_of[v], Fraction(1)) for v in sorted(bc.side_b)]
        terms.append((z_names[idx], Fraction(1)))
        f.add_constraint(f"b_{idx + 1}", terms, "<=", 1)


def build_ib_from_cover(family: IndexSetFamily, cover: BicliqueCover) -> LinearFormulation:
    """One binary per cover biclique: each side's mass is forbidden on one branch."""
    if not verify_cover(conflict_graph(family), cover):
        raise InputError("cover does not verify against the family's conflict graph")
    f = _new("ib_cover", family)
    j = ground_set(family)
    lam = _add_lambda_vars(f, j)
    z = [
        f.add_variable(f"z_{idx + 1}", BINARY, Fraction(0), Fraction(1))
        for idx in range(len(cover))
    ]
    f.add_constraint("mass", [(lam[v], Fraction(1)) for v in sorted(j)], "=", 1)
    _add_cover_rows(f, cover, lam, z)
    f.metadata["lambda_vars"] = {str(v): lam[v] for v in sorted(j)}
    f.metadata["cover_size"] = len(cover)
    return f


def build_sosk(n: int, k: int) -> LinearFormulation:
    """Windowed constraint via the merged dyadic cover; logarithmic binary count."""
    if not 2 <= k < n:
        raise InputError("need n > k >= 2")
    f = build_ib_from_cover(sosk_family(n, k), sosk_cover(n, k))
    f.metadata["builder"] = "sosk"
    return f


def build_sosk_kis(n: int, k: int) -> LinearFormulation:
    """Windowed constraint with one binary per window position."""
    if not 1 <= k <= n:
        raise InputError("need n >= k >= 1")
    f = _new("sosk_kis", None)
    family = sosk_family(n, k)
    f.metadata["family_digest"] = family_digest(family)
    lam = _add_lambda_vars(f, range(1, n + 1))
    nwin = n - k + 1
    z = [f.add_variable(f"z_{i + 1}", BINARY, Fraction(0), Fraction(1)) for i in range(nwin)]
    for j in range(1, n + 1):
        lo = max(j - k + 1, 1)
        hi = min(j, nwin)
        terms = [(lam[j], Fraction(1))]
        terms += [(z[i - 1], Fraction(-1)) for i in range(lo, hi + 1)]
        f.add_constraint(f"win_{j}", terms, "<=", 0)
    f.add_constraint("mass", [(lam[j], Fraction(1)) for j in range(1, n + 1)], "=", 1)
    f.add_constraint("select", [(name, Fraction(1)) for name in z], "=", 1)
    f.metadata["lambda_vars"] = {str(v): lam[v] for v in range(1, n + 1)}
    return f


def _add_fiber_rows(f, family, mapping, lam, copy_names) -> None:
    fibers = mapping.fibers()
    for v in sorted(ground_set(family)):
        terms = [(lam[v], Fraction(1))]
        terms += [(copy_names[u], Fraction(-1)) for u in fibers.get(v, [])]
        f.add_constraint(f"fiber_{v}", terms, "=", 0)


def build_extended_jtree(family: IndexSetFamily) -> LinearFormulation:
    """Rewrites the family along a spanning tree, then covers the rewrite.

    Auxiliary continuous cost equals the copy count beyond tree overlap.
    """
    res = build_equivalent_family(family, disjoint=False)
    cover = heuristic_cover(res.family_prime)
    f = _new("extended_jtree", family)
    j = ground_set(family)
    j2 = ground_set(res.family_prime)
    lam = _add_lambda_vars(f, j)
    lamp = _add_lambda_vars(f, j2, prefix="lamp")
    z = [
        f.add_variable(f"z_{idx + 1}", BINARY, Fraction(0), Fraction(1))
        for idx in range(len(cover))
    ]
    _add_fiber_rows(f, family, res.mapping, lam, lamp)
    f.add_constraint("mass", [(lamp[u], Fraction(1)) for u in sorted(j2)], "=", 1)
    _add_cover_rows(f, cover, lamp, z)
    f.metadata["lambda_vars"] = {str(v): lam[v] for v in sorted(j)}
    f.metadata["aux_continuous"] = res.extra_continuous
    f.metadata["cover_size"] = len(cover)
    return f


def build_extended_disjoint(family: IndexSetFamily) -> LinearFormulation:
    """Private copies per set and a level-merged cover; exactly ceil(log2 d) binaries."""
    res = build_equivalent_family(family, disjoint=True)
    cover = disjoint_level_cover(res.family_prime, res.tree)
    if not verify_cover(conflict_graph(res.family_prime), cover):
        raise InvariantError("level-merged cover failed verification")
    d = len(family)
    if len(cover) != (d - 1).bit_length():
        raise InvariantError("level-merged cover missed the logarithmic count")
    f = _new("extended_disjoint", family)
    j = ground_set(family)
    j2 = ground_set(res.family_prime)
    lam = _add_lambda_vars(f, j)
    lampp = _add_lambda_vars(f, j2, prefix="lampp")
    z = [
        f.add_variable(f"z_{idx + 1}", BINARY, Fraction(0), Fraction(1))
        for idx in range(len(cover))
    ]
    _add_fiber_rows(f, family, res.mapping, lam, lampp)
    f.add_constraint("mass", [(lampp[u], Fraction(1)) for u in sorted(j2)], "=", 1)
    _add_cover_rows(f, cover, lampp, z)
    f.metadata["lambda_vars"] = {str(v): lam[v] for v in sorted(j)}
    f.metadata["aux_continuous"] = len(j2)
    f.metadata["cover_size"] = len(cover)
    return f


def build_piecewise_linear(breakpoints) -> LinearFormulation:
    """Graph of a piecewise-linear function over its breakpoint list.

    Two consecutive breakpoints may carry mass at a time, so the windowed
    cover with k = 2 supplies the binaries on top of the usual convex
    combination rows.
    """
    pts = [(exact_coordinate(x), exact_coordinate(y)) for x, y in breakpoints]
    if len(pts) < 2:
        raise InputError("need at least two breakpoints")
    xs = [x for x, _ in pts]
    if any(a >= b for a, b in zip(xs, xs[1:])):
        raise InputError("breakpoint x values must be strictly increasing")
    n = len(pts)
    cover = sosk_cover(n, 2) if n > 2 else BicliqueCover()
    f = build_ib_from_cover(sosk_family(n, 2), cover)
    f.metadata["builder"] = "piecewise_linear"
    lam = f.lambda_names()
    x = f.add_variable("x", CONTINUOUS)
    y = f.add_variable("y", CONTINUOUS)
    f.add_constraint(
        "def_x",
        [(x, Fraction(1))] + [(lam[v], -pts[v - 1][0]) for v in range(1, n + 1)],
        "=",
        0,
    )
    f.add_constraint(
        "def_y",
        [(y, Fraction(1))] + [(lam[v], -pts[v - 1][1]) for v in range(1, n + 1)],
        "=",
        0,
    )
    return f


_NAME_RE = re.compile(r"[^A-Za-z0-9_]")


def _sanitize(name: str) -> str:
    out = _NAME_RE.sub("_", name)
    if not out or out[0].isdigit() or out[0] == ".":
        out = "v_" + out
    return out


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


def _lcm(a: int, b: int) -> int:
    import math

    return a * b // math.gcd(a, b)


def _render_row(terms, rhs) -> tuple[list[tuple[str, str]], str]:
    values = [coef for _, coef in terms] + [rhs]
    if all(_decimal_or_none(v) is not None for v in values):
        return [(var, _decimal_or_none(coef)) for var, coef in terms], _decimal_or_none(rhs)
    scale = 1
    for v in values:
        scale = _lcm(scale, v.denominator)
    return (
        [(var, str(coef.numerator * scale // coef.denominator)) for var, coef in terms],
        str(rhs.numerator * scale // rhs.denominator),
    )


def write_lp(f: LinearFormulation) -> str:
    """Render the formulation in LP format, deterministically.

    Rows keep declaration order; a row with any non-terminating coefficient
    is scaled by the common denominator so the file stays exact.
    """
    f.validate()
    renamed = {}
    used = set()
    for v in f.variables:
        clean = _sanitize(v.name)
        if clean in used:
            raise InputError(f"sanitized name collision on {clean!r}")
        used.add(clean)
        renamed[v.name] = clean

    lines = ["\\ " + f.metadata.get("builder", "formulation"), "Minimize", " obj:", "Subject To"]
    for c in f.constraints:
        rendered, rhs = _render_row(c.terms, c.rhs)
        parts = []
        for var, coef in rendered:
            mag = coef.lstrip("-")
            sign = "-" if coef.startswith("-") else "+"
            piece = renamed[var] if mag in ("1", "1.0") else f"{mag} {renamed[var]}"
            if not parts:
                parts.append(piece if sign == "+" else f"- {piece}")
            else:
                parts.append(f"{sign} {piece}")
        body = " ".join(parts) if parts else "0 " + renamed[f.variables[0].name]
        lines.append(f" {_sanitize(c.name)}: {body} {c.sense} {rhs}")
    lines.append("Bounds")
    for v in f.variables:
        name = renamed[v.name]
        lo = None if v.lower is None else _decimal_or_none(v.lower) or str(v.lower)
        hi = None if v.upper is None else _decimal_or_none(v.upper) or str(v.upper)
        if lo is None and hi is None:
            lines.append(f" {name} free")
        elif hi is None:
            lines.append(f" {name} >= {lo}")
        elif lo is None:
            lines.append(f" {name} <= {hi}")
        else:
            lines.append(f" {lo} <= {name} <= {hi}")
    binaries = [renamed[v.name] for v in f.variables if v.kind == BINARY]
    if binaries:
        lines.append("Binaries")
        for name in binaries:
            lines.append(f" {name}")
    lines.append("End")
    return "\n".join(lines) + "\n"
