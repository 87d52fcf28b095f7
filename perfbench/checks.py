"""Checks made apart from the program under test.

Nothing here imports ``cdcmip``: every expected value is recomputed from a
definition (the conflict rule, the running-intersection property, pooled
vertices of a polygon list) or read back from the emitted LP text by a
parser of its own.  A failed check raises :class:`CheckError` with the
reason.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction


class CheckError(AssertionError):
    """An output disagrees with the independent computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def ceil_log2(x: int) -> int:
    return (x - 1).bit_length() if x >= 1 else 0


# ---------------------------------------------------------------- LP text


@dataclass
class LPModel:
    """The parts of an LP file the checks need, with exact coefficients."""

    rows: list[tuple[str, dict[str, Fraction], str, Fraction]] = field(default_factory=list)
    bounds: dict[str, tuple[Fraction | None, Fraction | None]] = field(default_factory=dict)
    binaries: list[str] = field(default_factory=list)

    @property
    def variables(self) -> list[str]:
        return list(self.bounds)

    def counts(self) -> dict[str, int]:
        nb = len(self.binaries)
        return {
            "binaries": nb,
            "continuous": len(self.bounds) - nb,
            "rows": len(self.rows),
            "nonzeros": sum(len(terms) for _, terms, _, _ in self.rows),
        }

    def row(self, name: str):
        for row in self.rows:
            if row[0] == name:
                return row
        raise CheckError(f"LP has no row {name!r}")


_NUMBER = re.compile(r"^-?\d+(\.\d+)?$")
_SENSES = ("<=", "=", ">=")


def _parse_row(line: str):
    name, _, body = line.partition(":")
    tokens = body.split()
    require(len(tokens) >= 3 and tokens[-2] in _SENSES, f"malformed row {line!r}")
    sense, rhs = tokens[-2], Fraction(tokens[-1])
    terms: dict[str, Fraction] = {}
    sign = 1
    coef = None
    for tok in tokens[:-2]:
        if tok in ("+", "-"):
            sign = -1 if tok == "-" else 1
        elif _NUMBER.match(tok):
            coef = Fraction(tok)
        else:
            value = sign * (Fraction(1) if coef is None else coef)
            require(tok not in terms, f"row {name.strip()} repeats {tok}")
            if value != 0:
                terms[tok] = value
            sign, coef = 1, None
    require(coef is None, f"dangling coefficient in row {name.strip()}")
    return name.strip(), terms, sense, rhs


def parse_lp(text: str) -> LPModel:
    """Parse the LP dialect ``write_lp`` emits: rows, bounds, binaries."""
    lines = text.split("\n")
    require(lines and lines[-1] == "" and lines[-2] == "End", "LP text must end with End")
    model = LPModel()
    section = None
    for line in lines[:-2]:
        if line.startswith("\\"):
            continue
        if line in ("Minimize", "Subject To", "Bounds", "Binaries"):
            section = line
            continue
        require(line.startswith(" "), f"unexpected LP line {line!r}")
        item = line.strip()
        if section == "Minimize":
            require(item == "obj:", "objective must be empty")
        elif section == "Subject To":
            model.rows.append(_parse_row(item))
        elif section == "Bounds":
            parts = item.split()
            if len(parts) == 2 and parts[1] == "free":
                model.bounds[parts[0]] = (None, None)
            elif len(parts) == 3 and parts[1] == ">=":
                model.bounds[parts[0]] = (Fraction(parts[2]), None)
            elif len(parts) == 3 and parts[1] == "<=":
                model.bounds[parts[0]] = (None, Fraction(parts[2]))
            elif len(parts) == 5 and parts[1] == parts[3] == "<=":
                model.bounds[parts[2]] = (Fraction(parts[0]), Fraction(parts[4]))
            else:
                raise CheckError(f"malformed bound {item!r}")
        elif section == "Binaries":
            model.binaries.append(item)
        else:
            raise CheckError(f"line outside any section: {line!r}")
    declared = set(model.bounds)
    for name, terms, _, _ in model.rows:
        require(set(terms) <= declared, f"row {name} uses an undeclared variable")
    for z in model.binaries:
        require(model.bounds.get(z) == (0, 1), f"binary {z} must have bounds [0, 1]")
    return model


def lambda_index(name: str, prefix: str = "lam_") -> int | None:
    if name.startswith(prefix) and name[len(prefix):].isdigit():
        return int(name[len(prefix):])
    return None


def cover_from_lp(model: LPModel, prefix: str = "lam_") -> list[tuple[frozenset, frozenset]]:
    """Bicliques of an ib-style model: per binary z, the row lam(A) - z <= 0
    and the row lam(B) + z <= 1, both over ``prefix`` variables only."""
    out = []
    for z in model.binaries:
        side_a = side_b = None
        for name, terms, sense, rhs in model.rows:
            if terms.get(z) is None:
                continue
            rest = {v: c for v, c in terms.items() if v != z}
            idx = [lambda_index(v, prefix) for v in rest]
            if sense != "<=" or None in idx or any(c != 1 for c in rest.values()):
                continue
            if terms[z] == -1 and rhs == 0:
                require(side_a is None, f"{z} has two A rows")
                side_a = frozenset(idx)
            elif terms[z] == 1 and rhs == 1:
                require(side_b is None, f"{z} has two B rows")
                side_b = frozenset(idx)
        require(side_a is not None and side_b is not None, f"binary {z} lacks a cover row pair")
        require(side_a and side_b and not side_a & side_b, f"binary {z} has bad biclique sides")
        out.append((side_a, side_b))
    return out


def check_mass_row(model: LPModel, prefix: str, ground: set[int]) -> None:
    """Some row says the ``prefix`` variables over ``ground`` sum to one."""
    want = {f"{prefix}{v}": Fraction(1) for v in ground}
    require(
        any(terms == want and sense == "=" and rhs == 1 for _, terms, sense, rhs in model.rows),
        f"no row sums the {prefix} variables to one",
    )


# ---------------------------------------------------------- conflict rules


def membership_masks(sets) -> dict[int, int]:
    masks: dict[int, int] = {}
    for i, s in enumerate(sets):
        for v in s:
            masks[v] = masks.get(v, 0) | (1 << i)
    return masks


def check_cover(bicliques, ground, conflicts) -> None:
    """Every pair that ``conflicts(u, v)`` is crossed by some biclique, and no
    biclique crosses a pair that does not conflict.

    ``conflicts`` is the independent rule: for windows, |u - v| >= k; for a
    general family, no member set holds both ends.
    """
    order = sorted(ground)
    pos = {v: i for i, v in enumerate(order)}
    covered = {v: 0 for v in order}
    for side_a, side_b in bicliques:
        require(side_a <= ground and side_b <= ground, "biclique leaves the ground set")
        mask_a = sum(1 << pos[v] for v in side_a)
        mask_b = sum(1 << pos[v] for v in side_b)
        for u in side_a:
            covered[u] |= mask_b
        for v in side_b:
            covered[v] |= mask_a
    for u in order:
        want = 0
        for v in order:
            if v != u and conflicts(u, v):
                want |= 1 << pos[v]
        got = covered[u]
        require(got & ~want == 0, f"a biclique crosses a non-conflicting pair at index {u}")
        require(want & ~got == 0, f"a conflicting pair at index {u} is not covered")


def check_window_cover(bicliques, n: int, k: int) -> None:
    """Cover of the windowed conflict graph on 1..n: u, v conflict iff |u - v| >= k."""
    check_cover(bicliques, set(range(1, n + 1)), lambda u, v: abs(u - v) >= k)


def family_conflicts(sets):
    masks = membership_masks(sets)
    return lambda u, v: masks[u] & masks[v] == 0


def conflict_edge_count(sets) -> int:
    conflicts = family_conflicts(sets)
    ground = sorted({v for s in sets for v in s})
    return sum(1 for i, u in enumerate(ground) for v in ground[i + 1:] if conflicts(u, v))


def windows(n: int, k: int) -> list[list[int]]:
    return [list(range(i, i + k)) for i in range(1, n - k + 2)]


# --------------------------------------------------------- junction trees


def is_connected(nodes, edges) -> bool:
    nodes = set(nodes)
    if not nodes:
        return True
    adj = {v: [] for v in nodes}
    for i, j in edges:
        if i in nodes and j in nodes:
            adj[i].append(j)
            adj[j].append(i)
    start = next(iter(nodes))
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == nodes


def check_running_intersection(sets, edges) -> None:
    """``edges`` span the sets as a tree, and each index's holders are connected in it."""
    d = len(sets)
    require(len(edges) == d - 1, f"a tree over {d} sets needs {d - 1} edges")
    require(is_connected(range(d), edges), "tree edges do not connect the sets")
    holders: dict[int, list[int]] = {}
    for i, s in enumerate(sets):
        for v in s:
            holders.setdefault(v, []).append(i)
    for v, hs in holders.items():
        require(is_connected(hs, edges), f"holders of index {v} are not connected in the tree")


def max_spanning_weight(sets) -> int:
    """Weight of a maximum spanning tree of the intersection graph (Prim)."""
    d = len(sets)
    fs = [frozenset(s) for s in sets]
    best = [-1] * d
    done = [False] * d
    best[0] = 0
    total = 0
    for _ in range(d):
        u = max((i for i in range(d) if not done[i]), key=lambda i: best[i])
        done[u] = True
        total += best[u]
        for w in range(d):
            if not done[w]:
                best[w] = max(best[w], len(fs[u] & fs[w]))
    return total


# ---------------------------------------------------------------- geometry


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def pooled_family(polygons) -> list[frozenset]:
    """Per polygon, every pooled vertex lying in it, boundary included, as points."""
    points = {pt for poly in polygons for pt in poly}
    out = []
    for poly in polygons:
        m = len(poly)
        out.append(
            frozenset(
                pt for pt in points
                if all(_cross(poly[i], poly[(i + 1) % m], pt) >= 0 for i in range(m))
            )
        )
    return out


def triangle_adjacency(polygons) -> set[tuple[int, int]]:
    """In a conforming triangulation, two cells share an edge iff they share two vertices."""
    verts = [set(p) for p in polygons]
    return {
        (i, j)
        for i in range(len(verts))
        for j in range(i + 1, len(verts))
        if len(verts[i] & verts[j]) == 2
    }



# ------------------------------------------------------ solver reference


def highs_reference_check(model: LPModel, sets, rng, tol: float = 1e-6) -> tuple[float, float]:
    """Solve the emitted model with HiGHS under a random objective and two
    random side rows on the primary variables, and compare with the best of
    the per-member-set face LPs.  Returns (model optimum, face optimum).
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, linprog, milp
    from scipy.sparse import csr_array

    ground = sorted({v for s in sets for v in s})
    names = model.variables
    col = {name: i for i, name in enumerate(names)}
    lam_col = {}
    for name in names:
        v = lambda_index(name)
        if v is not None:
            lam_col[v] = col[name]
    require(sorted(lam_col) == ground, "primary variables do not match the family")

    cost = {v: rng.uniform(-1, 1) for v in ground}
    # Both side rows hold at the vertex e_v0, so some member face stays feasible.
    v0 = rng.choice(ground)
    side = []
    for _ in range(2):
        a = {v: rng.uniform(-1, 1) for v in ground}
        side.append((a, a[v0] + 0.05))

    rows, cols, vals, lo, hi = [], [], [], [], []
    r = 0
    for _, terms, sense, rhs in model.rows:
        for var, coef in terms.items():
            rows.append(r)
            cols.append(col[var])
            vals.append(float(coef))
        lo.append(-np.inf if sense == "<=" else float(rhs))
        hi.append(np.inf if sense == ">=" else float(rhs))
        r += 1
    for a, b in side:
        for v in ground:
            rows.append(r)
            cols.append(lam_col[v])
            vals.append(a[v])
        lo.append(-np.inf)
        hi.append(b)
        r += 1
    matrix = csr_array((vals, (rows, cols)), shape=(r, len(names)))
    c = np.zeros(len(names))
    for v in ground:
        c[lam_col[v]] = cost[v]
    binaries = set(model.binaries)
    integrality = np.array([1 if n in binaries else 0 for n in names])
    lb = np.array([-np.inf if model.bounds[n][0] is None else float(model.bounds[n][0]) for n in names])
    ub = np.array([np.inf if model.bounds[n][1] is None else float(model.bounds[n][1]) for n in names])
    res = milp(
        c,
        integrality=integrality,
        bounds=Bounds(lb, ub),
        constraints=LinearConstraint(matrix, lo, hi),
        options={"mip_rel_gap": 0, "presolve": True},
    )
    require(res.status == 0, f"HiGHS did not solve the emitted model: {res.message}")

    best = np.inf
    for s in sets:
        idx = sorted(s)
        face = linprog(
            [cost[v] for v in idx],
            A_ub=[[a[v] for v in idx] for a, _ in side],
            b_ub=[b for _, b in side],
            A_eq=[[1.0] * len(idx)],
            b_eq=[1.0],
            bounds=[(0, None)] * len(idx),
            method="highs",
        )
        if face.status == 0:
            best = min(best, face.fun)
    require(np.isfinite(best), "no member face is feasible under the side rows")
    require(abs(res.fun - best) <= tol, f"model optimum {res.fun!r} != face optimum {best!r}")
    return float(res.fun), float(best)
