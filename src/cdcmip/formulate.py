"""Solver-agnostic MIP intermediate representation and every builder.

All coefficients are exact rationals; floats never enter the IR.  Builders
share one naming scheme (``lam_<v>`` for the primary simplex variables,
``lamp_``/``lampp_`` for copy-index variables, ``gam_<set>_<v>`` for
per-set weights, ``z_<j>`` for binaries) so emitted files diff cleanly.
The LP writer renders terminating rationals as exact decimals and scales
any other row to integers, which keeps output byte-stable; a bound that
does not terminate cannot be scaled and is an input error.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

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
        if len(self._names) != len(self.variables):
            raise InputError("variable names are not unique")

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
        fixed = tuple((var, x) for var, coef in terms if (x := Fraction(coef)))
        for var, _ in fixed:
            if var not in self._names:
                raise InputError(f"constraint {name!r} references unknown variable {var!r}")
        self.constraints.append(Constraint(name, fixed, sense, Fraction(rhs)))

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


def _new(builder: str, family: IndexSetFamily) -> tuple[LinearFormulation, dict[int, str]]:
    """A formulation with one ``lam_<v>`` per index of the family, recorded as primary."""
    f = LinearFormulation(metadata={"builder": builder, "family_digest": family_digest(family)})
    lam = _add_lambda_vars(f, ground_set(family))
    f.metadata["lambda_vars"] = {str(v): name for v, name in lam.items()}
    return f, lam


def _add_lambda_vars(f: LinearFormulation, indices, prefix="lam") -> dict[int, str]:
    return {
        v: f.add_variable(f"{prefix}_{v}", CONTINUOUS, lower=Fraction(0)) for v in sorted(indices)
    }


def _add_binaries(f: LinearFormulation, count: int) -> list[str]:
    return [f.add_variable(f"z_{i + 1}", BINARY, Fraction(0), Fraction(1)) for i in range(count)]


def _per_set_weights(f, family, lam, binaries: int):
    """Weights ``gam_<set>_<v>``, then ``binaries`` binaries, then ``link_<v>`` rows.

    Each link row equates ``lam_<v>`` with the sum of the weights on ``v``.
    Returns the weights keyed by (set ordinal, index) and the binaries.
    """
    gam = {
        (i, v): f.add_variable(f"gam_{i + 1}_{v}", CONTINUOUS, lower=Fraction(0))
        for i, s in enumerate(family.sets)
        for v in sorted(s)
    }
    z = _add_binaries(f, binaries)
    for v, name in lam.items():
        terms = [(name, 1)] + [(gam[(i, v)], -1) for i in family.holders[v]]
        f.add_constraint(f"link_{v}", terms, "=", 0)
    return gam, z


def build_naive(family: IndexSetFamily) -> LinearFormulation:
    """One binary per member set; each index is capped by the sets that hold it."""
    f, lam = _new("naive", family)
    z = _add_binaries(f, len(family))
    for v, name in lam.items():
        terms = [(name, 1)] + [(z[i], -1) for i in family.holders[v]]
        f.add_constraint(f"cap_{v}", terms, "<=", 0)
    f.add_constraint("select", [(name, 1) for name in z], "=", 1)
    f.add_constraint("mass", [(name, 1) for name in lam.values()], "=", 1)
    return f


def build_jeroslow_lowe(family: IndexSetFamily) -> LinearFormulation:
    """One weight vector per member set, tied to a selection binary."""
    f, lam = _new("jeroslow_lowe", family)
    gam, z = _per_set_weights(f, family, lam, len(family))
    for i, s in enumerate(family.sets):
        terms = [(z[i], 1)] + [(gam[(i, v)], -1) for v in sorted(s)]
        f.add_constraint(f"weight_{i + 1}", terms, "=", 0)
    f.add_constraint("select", [(name, 1) for name in z], "=", 1)
    return f


def build_log_embedding(family: IndexSetFamily) -> LinearFormulation:
    """Per-set weights whose code-weighted sum pins logarithmically many binaries.

    Member set ``i`` (from 0) is labelled by the binary encoding of ``i``;
    ``metadata["codes"]`` lists the labels, lowest bit first.
    """
    f, lam = _new("log_embedding", family)
    r = (len(family) - 1).bit_length()
    gam, z = _per_set_weights(f, family, lam, r)
    f.add_constraint("mass", [(name, 1) for name in gam.values()], "=", 1)
    for bit in range(r):
        terms = [(name, 1) for (i, _), name in gam.items() if i >> bit & 1]
        f.add_constraint(f"code_{bit + 1}", terms + [(z[bit], -1)], "=", 0)
    f.metadata["codes"] = [
        "".join(str(i >> bit & 1) for bit in range(r)) for i in range(len(family))
    ]
    return f


def _cover_model(builder, family, cover, rewrite=None, prefix="lamp") -> LinearFormulation:
    """The independent-branching model of a biclique cover: one binary per biclique.

    Without ``rewrite`` the cover is of ``family``'s conflict graph and acts
    on ``lam``.  With a :class:`TransformResult`, it is of the rewritten
    family's and acts on copy variables ``<prefix>_<u>``, which ``fiber_<v>``
    rows sum back onto each ``lam_<v>``.  Each biclique's side A has its mass
    forbidden when its binary is 0, side B when it is 1.
    """
    f, lam = _new(builder, family)
    var_of = lam
    if rewrite is not None:
        var_of = _add_lambda_vars(f, ground_set(rewrite.family_prime), prefix)
        fibers = rewrite.mapping.fibers()
        for v, name in lam.items():
            terms = [(name, 1)] + [(var_of[u], -1) for u in fibers.get(v, [])]
            f.add_constraint(f"fiber_{v}", terms, "=", 0)
    z = _add_binaries(f, len(cover))
    f.add_constraint("mass", [(name, 1) for name in var_of.values()], "=", 1)
    for idx, bc in enumerate(cover):
        terms = [(var_of[v], 1) for v in sorted(bc.side_a)]
        f.add_constraint(f"a_{idx + 1}", terms + [(z[idx], -1)], "<=", 0)
        terms = [(var_of[v], 1) for v in sorted(bc.side_b)]
        f.add_constraint(f"b_{idx + 1}", terms + [(z[idx], 1)], "<=", 1)
    f.metadata["cover_size"] = len(cover)
    return f


def build_ib_from_cover(family: IndexSetFamily, cover: BicliqueCover) -> LinearFormulation:
    """One binary per cover biclique: each side's mass is forbidden on one branch."""
    if not verify_cover(conflict_graph(family), cover):
        raise InputError("cover does not verify against the family's conflict graph")
    return _cover_model("ib_cover", family, cover)


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
    f, lam = _new("sosk_kis", sosk_family(n, k))
    nwin = n - k + 1
    z = _add_binaries(f, nwin)
    for j in range(1, n + 1):
        windows = range(max(j - k + 1, 1), min(j, nwin) + 1)
        f.add_constraint(f"win_{j}", [(lam[j], 1)] + [(z[i - 1], -1) for i in windows], "<=", 0)
    f.add_constraint("mass", [(name, 1) for name in lam.values()], "=", 1)
    f.add_constraint("select", [(name, 1) for name in z], "=", 1)
    return f


def build_extended_jtree(family: IndexSetFamily) -> LinearFormulation:
    """Rewrites the family along a spanning tree, then covers the rewrite.

    Auxiliary continuous cost equals the copy count beyond tree overlap.
    """
    res = build_equivalent_family(family, disjoint=False)
    f = _cover_model("extended_jtree", family, heuristic_cover(res.family_prime), res, "lamp")
    f.metadata["aux_continuous"] = res.extra_continuous
    return f


def build_extended_disjoint(family: IndexSetFamily) -> LinearFormulation:
    """Private copies per set and a level-merged cover; exactly ceil(log2 d) binaries."""
    res = build_equivalent_family(family, disjoint=True)
    cover = disjoint_level_cover(res.family_prime, res.tree)
    if not verify_cover(conflict_graph(res.family_prime), cover):
        raise InvariantError("level-merged cover failed verification")
    if len(cover) != (len(family) - 1).bit_length():
        raise InvariantError("level-merged cover missed the logarithmic count")
    f = _cover_model("extended_disjoint", family, cover, res, "lampp")
    f.metadata["aux_continuous"] = len(ground_set(res.family_prime))
    return f


def build_pwl(breakpoints) -> LinearFormulation:
    """Formulation of a univariate piecewise-linear function given its breakpoints.

    Accepts (x, y) pairs with exact coordinates (int, Fraction, or string);
    x values must be strictly increasing.  The graph of the function is the
    set of convex combinations of at most two consecutive breakpoints, so
    the windowed cover with k = 2 supplies the binaries on top of the usual
    convex combination rows.
    """
    pts = [(exact_coordinate(x), exact_coordinate(y)) for x, y in breakpoints]
    if len(pts) < 2:
        raise InputError("need at least two breakpoints")
    if any(a >= b for (a, _), (b, _) in zip(pts, pts[1:])):
        raise InputError("breakpoint x values must be strictly increasing")
    n = len(pts)
    f = build_ib_from_cover(sosk_family(n, 2), sosk_cover(n, 2) if n > 2 else BicliqueCover())
    f.metadata["builder"] = "piecewise_linear"
    lam = f.lambda_names()
    for axis, name in enumerate("xy"):
        f.add_variable(name, CONTINUOUS)
        terms = [(name, 1)] + [(lam[v], -pts[v - 1][axis]) for v in range(1, n + 1)]
        f.add_constraint(f"def_{name}", terms, "=", 0)
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


def _integral(values: list[Fraction]) -> list[int]:
    """The values times the least common multiple of their denominators."""
    scale = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (scale // x.denominator) for x in values]


def _render_row(values: list[Fraction]) -> Optional[list[str]]:
    """The values as exact decimals, each rendered once, or ``None`` if one does not terminate."""
    out = [_decimal_or_none(x) for x in values]
    return None if None in out else out


def write_lp(f: LinearFormulation) -> str:
    """Render the formulation in LP format, deterministically.

    Rows keep declaration order; a row with any non-terminating coefficient
    is scaled by the common denominator so the file stays exact.  A bound
    cannot be scaled, so one that does not terminate is an input error.
    """
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
        values = [coef for _, coef in c.terms] + [c.rhs]
        *coefs, rhs = _render_row(values) or map(str, _integral(values))
        parts = []
        for (var, _), coef in zip(c.terms, coefs):
            mag = coef.lstrip("-")
            sign = "-" if coef.startswith("-") else "+"
            piece = renamed[var] if mag == "1" else f"{mag} {renamed[var]}"
            if not parts:
                parts.append(piece if sign == "+" else f"- {piece}")
            else:
                parts.append(f"{sign} {piece}")
        body = " ".join(parts) if parts else "0 " + renamed[f.variables[0].name]
        lines.append(f" {_sanitize(c.name)}: {body} {c.sense} {rhs}")
    lines.append("Bounds")
    for v in f.variables:
        name = renamed[v.name]
        bounds = _render_row([b for b in (v.lower, v.upper) if b is not None])
        if bounds is None:
            raise InputError(f"a bound of variable {v.name!r} is not a terminating decimal")
        if v.lower is None and v.upper is None:
            lines.append(f" {name} free")
        elif v.upper is None:
            lines.append(f" {name} >= {bounds[0]}")
        elif v.lower is None:
            lines.append(f" {name} <= {bounds[0]}")
        else:
            lines.append(f" {bounds[0]} <= {name} <= {bounds[1]}")
    binaries = [renamed[v.name] for v in f.variables if v.kind == BINARY]
    if binaries:
        lines.append("Binaries")
        for name in binaries:
            lines.append(f" {name}")
    lines.append("End")
    return "\n".join(lines) + "\n"
