"""The benchmark's four workloads: seeded inputs, operations and their checks.

Each workload makes JSON inputs from the seed (``generate``), parses them
into library objects (``parse``, the timed set-up), and lists the
operations of one pass (``ops``).  An operation calls the library, or
``cdcmip.cli.main`` for a small input, and returns what a user would get;
its ``check`` compares that output with ``checks``, which never calls the
library.  ``check`` returns the parsed LP model when the output is a
formulation, so the runner can count its size.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

from checks import (
    CheckError,
    ceil_log2,
    check_cover,
    check_mass_row,
    check_running_intersection,
    check_window_cover,
    conflict_edge_count,
    cover_from_lp,
    family_conflicts,
    lambda_index,
    max_spanning_weight,
    parse_lp,
    pooled_family,
    require,
    triangle_adjacency,
    windows,
)

# Small inputs stay within the CLI's default guard of 25 indices.
CLI_MAX_GROUND = 25


@dataclass
class Op:
    """One timed call.  ``sets`` is the family a formulation must realise,
    for the solver reference; ``small`` marks a CLI call on a small input."""

    label: str
    fn: Callable[[], Any]
    check: Callable[[Any], Any]
    small: bool = False
    sets: Optional[list] = None


@dataclass
class Inputs:
    json_texts: dict[str, str] = field(default_factory=dict)  # parsed in set-up
    meta: dict[str, Any] = field(default_factory=dict)  # what the checks know
    files: dict[str, str] = field(default_factory=dict)  # CLI input files


def run_cli(cli, argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_ok(result) -> str:
    code, out, err = result
    require(code == 0, f"CLI exited {code}: {err.strip()}")
    return out


def ground_of(sets) -> set[int]:
    return {v for s in sets for v in s}


def family_json(sets) -> str:
    return json.dumps({"sets": [sorted(s) for s in sets]})


# ----------------------------------------------------------- generators


def planted_family(rng: random.Random, d: int, lacking: bool, shared=None, priv=(1, 2), span=(2, 4)):
    """A family whose junction-tree answer is known by construction.

    Sets grow on a random tree skeleton: set i gets ``priv`` private
    indices in turn (so no set contains another), and shared index j is held
    by a connected subtree of ``span`` sets in turn, so the skeleton is a
    junction tree.  Sizes cycle rather than being drawn, so that the ground
    set and the total set size, and with them the cost of a pass, depend on
    ``d`` alone.  ``lacking`` adds a cyclic triple: fresh indices a, b, c
    held by exactly two of three sets, pairwise, which no tree can keep
    connected.  Labels are shuffled so the index order carries no structure.
    """
    parent = [None] + [rng.randrange(i) for i in range(1, d)]
    adj: dict[int, list[int]] = {i: [] for i in range(d)}
    for i in range(1, d):
        adj[i].append(parent[i])
        adj[parent[i]].append(i)
    sets: list[set[int]] = [set() for _ in range(d)]
    nxt = 0
    privs = range(priv[0], priv[1] + 1)
    spans = range(span[0], span[1] + 1)
    for i in range(d):
        for _ in range(privs[i % len(privs)]):
            sets[i].add(nxt)
            nxt += 1
    for j in range(d if shared is None else shared):
        size = min(spans[j % len(spans)], d)
        sub = {rng.randrange(d)}
        while len(sub) < size:
            cands = sorted({w for v in sub for w in adj[v]} - sub)
            if not cands:
                break
            sub.add(rng.choice(cands))
        for v in sub:
            sets[v].add(nxt)
        nxt += 1
    if lacking:
        x, y, z = rng.sample(range(d), 3)
        a, b, c = nxt, nxt + 1, nxt + 2
        nxt += 3
        sets[x] |= {a, b}
        sets[y] |= {b, c}
        sets[z] |= {c, a}
    labels = rng.sample(range(1, 3 * nxt + 1), nxt)
    return [sorted(labels[v] for v in s) for s in sets]


# Coordinates are sixths: exact rationals whose size, and so the cost of
# exact geometry on them, does not change from seed to seed.
DENOMINATOR = 6


def random_rational(rng: random.Random, lo: int, hi: int) -> Fraction:
    return Fraction(rng.randint(lo * DENOMINATOR, hi * DENOMINATOR), DENOMINATOR)


def increasing(rng: random.Random, count: int) -> list[Fraction]:
    out, x = [], Fraction(0)
    for _ in range(count):
        x += random_rational(rng, 1, 3)
        out.append(x)
    return out


def affine(rng: random.Random):
    """A random integer shear-and-scale plus a rational shift, with positive
    determinant so counterclockwise order is kept."""
    while True:
        p, q, r, s = (rng.randint(-2, 2) for _ in range(4))
        if p * s - q * r > 0:
            break
    tx, ty = random_rational(rng, -5, 5), random_rational(rng, -5, 5)
    return lambda pt: (p * pt[0] + q * pt[1] + tx, r * pt[0] + s * pt[1] + ty)


def triangle_strip(rng: random.Random, d: int) -> list[list[tuple]]:
    """d triangles zigzagging between two parallel lines at random rational stations."""
    bottom = increasing(rng, d + 2)
    top = increasing(rng, d + 2)
    f = affine(rng)
    polys = []
    for t in range(d):
        i = t // 2
        if t % 2 == 0:
            tri = [(bottom[i], 0), (bottom[i + 1], 0), (top[i], 1)]
        else:
            tri = [(top[i], 1), (bottom[i + 1], 0), (top[i + 1], 1)]
        polys.append([f(pt) for pt in tri])
    return polys


def triangulated_grid(rng: random.Random, rows: int, cols: int) -> list[list[tuple]]:
    """A rows x cols grid at random rational spacings, each cell cut along a random diagonal."""
    xs = increasing(rng, cols + 1)
    ys = increasing(rng, rows + 1)
    f = affine(rng)
    polys = []
    for i in range(rows):
        for j in range(cols):
            a, b = (xs[j], ys[i]), (xs[j + 1], ys[i])
            c, e = (xs[j + 1], ys[i + 1]), (xs[j], ys[i + 1])
            if rng.random() < 0.5:
                tris = [[a, b, c], [a, c, e]]
            else:
                tris = [[a, b, e], [b, c, e]]
            polys.extend([f(pt) for pt in tri] for tri in tris)
    return polys


def polygons_json(polys) -> str:
    return json.dumps({"polygons": [[[str(x), str(y)] for x, y in poly] for poly in polys]})


# ------------------------------------------------------------ shared checks


def lp_check(text: str, sets, binaries=None, max_binaries=None, continuous=None):
    """Parse an emitted model and check its size against known formulas."""
    model = parse_lp(text)
    counts = model.counts()
    ground = ground_of(sets)
    lam = {lambda_index(v) for v in model.variables} - {None}
    require(lam == ground, "primary variables do not match the family's ground set")
    if binaries is not None:
        require(counts["binaries"] == binaries, f"{counts['binaries']} binaries, expected {binaries}")
    if max_binaries is not None:
        require(counts["binaries"] <= max_binaries, f"{counts['binaries']} binaries exceed {max_binaries}")
    if continuous is not None:
        require(
            counts["continuous"] == continuous,
            f"{counts['continuous']} continuous variables, expected {continuous}",
        )
    return model


def ib_check(text: str, sets):
    """An ib model's cover rows cross exactly the pairs no member set holds."""
    d = len(sets)
    model = lp_check(text, sets, max_binaries=max(d - 1, 0), continuous=len(ground_of(sets)))
    check_cover(cover_from_lp(model), ground_of(sets), family_conflicts(sets))
    check_mass_row(model, "lam_", ground_of(sets))
    return model


def builder_check(kind: str, sets):
    """Size rules of each general builder, from the family alone."""
    d = len(sets)
    j = len(ground_of(sets))
    total = sum(len(s) for s in sets)
    if kind == "naive":
        return lambda text: lp_check(text, sets, binaries=d, continuous=j)
    if kind == "jl":
        return lambda text: lp_check(text, sets, binaries=d, continuous=j + total)
    if kind == "log":
        return lambda text: lp_check(text, sets, binaries=ceil_log2(d), continuous=j + total)
    if kind == "ib":
        return lambda text: ib_check(text, sets)
    if kind == "ext-jtree":
        w = max_spanning_weight(sets)
        return lambda text: lp_check(
            text, sets, max_binaries=max(d - 1, 0), continuous=j + total - w
        )
    if kind == "ext-disjoint":
        return lambda text: lp_check(text, sets, binaries=ceil_log2(d), continuous=j + total)
    raise ValueError(kind)


LIBRARY_BUILDERS = {
    "naive": "build_naive",
    "jl": "build_jeroslow_lowe",
    "log": "build_log_embedding",
    "ext-jtree": "build_extended_jtree",
    "ext-disjoint": "build_extended_disjoint",
}


def library_builder(pkg, kind: str):
    """The builder of one formulation.  Each library function is looked up
    at call time, so a traced round calls the tracer's wrappers."""
    if kind == "ib":
        return lambda fam: pkg.build_ib_from_cover(fam, pkg.heuristic_cover(fam))
    name = LIBRARY_BUILDERS[kind]
    return lambda fam: getattr(pkg, name)(fam)


def builder_kinds(admits: bool) -> list[str]:
    kinds = ["naive", "jl", "log", "ib", "ext-jtree", "ext-disjoint"]
    return kinds if admits else [k for k in kinds if k != "ib"]


def admission_check(sets, admits: bool):
    def check(tree):
        require((tree is not None) == admits, f"admission says {tree is not None}, planted {admits}")
        if tree is not None:
            check_running_intersection(sets, list(tree.edges))

    return check


def analyze_check(text: str, sets, admits: bool):
    """`cdcmip analyze`: every structural fact recomputed from the sets."""
    report = json.loads(text)
    require(report["admits_junction_tree"] == admits, "analyze disagrees with the planted answer")
    require(report["num_sets"] == len(sets), "analyze miscounts the sets")
    require(report["ground_size"] == len(ground_of(sets)), "analyze miscounts the ground set")
    require(report["conflict_edges"] == conflict_edge_count(sets), "analyze miscounts the conflict edges")
    require(report["mst_weight"] == max_spanning_weight(sets), "analyze has the wrong tree weight")


def cover_check(text: str, sets):
    """`cdcmip cover --verify`: the cover crosses exactly the conflicting pairs."""
    report = json.loads(text)
    bics = [(frozenset(b["a"]), frozenset(b["b"])) for b in report["bicliques"]]
    require(report["verified"] is True, "cover reports itself unverified")
    require(len(bics) <= len(sets) - 1, "cover exceeds one biclique per tree edge")
    check_cover(bics, ground_of(sets), family_conflicts(sets))
    if "min_exact" in report:
        require(report["min_exact"] <= len(bics), "exact minimum exceeds the heuristic cover")


# ------------------------------------------------------------- windowed


class Windowed:
    """At-most-k-consecutive families and piecewise-linear breakpoint lists."""

    name = "windowed"
    # (n, k) rungs of the generic ib route; the closed forms run on the same rungs.
    RUNGS = [(40, 2), (60, 5), (80, 8), (100, 3), (120, 6), (160, 4), (200, 7), (250, 3)]
    PWL_SIZES = [16, 32, 64, 128]
    SMALL_SOSK = [(12, 2), (16, 3), (20, 4), (25, 5)]
    SMALL_IB = [(10, 2), (15, 3), (20, 4), (25, 6)]

    def generate(self, rng: random.Random) -> Inputs:
        inp = Inputs()
        for n, k in self.RUNGS:
            inp.json_texts[f"win-{n}-{k}"] = family_json(windows(n, k))
        for m in self.PWL_SIZES:
            xs = increasing(rng, m)
            pts = [[str(x), str(random_rational(rng, -10, 10))] for x in xs]
            inp.json_texts[f"pwl-{m}"] = json.dumps(pts)
        for n, k in self.SMALL_IB:
            inp.files[f"win-{n}-{k}.json"] = family_json(windows(n, k))
        return inp

    def parse(self, pkg, inp: Inputs):
        return {
            key: json.loads(text) if key.startswith("pwl-") else pkg.IndexSetFamily.from_json(text)
            for key, text in inp.json_texts.items()
        }

    def ops(self, pkg, cli, parsed, inp: Inputs, workdir: Path) -> list[Op]:
        ops = []
        for n, k in self.RUNGS:
            fam = parsed[f"win-{n}-{k}"]
            sets = windows(n, k)
            ops.append(Op(
                f"ib n={n} k={k}",
                lambda fam=fam: pkg.write_lp(pkg.build_ib_from_cover(fam, pkg.heuristic_cover(fam))),
                lambda text, n=n, k=k: self.check_windowed(text, n, k, bound=n - k),
                sets=sets,
            ))
            ops.append(Op(
                f"sosk n={n} k={k}",
                lambda n=n, k=k: pkg.write_lp(pkg.build_sosk(n, k)),
                lambda text, n=n, k=k: self.check_windowed(
                    text, n, k, bound=ceil_log2(n - k + 1) + k - 2
                ),
                sets=sets,
            ))
            ops.append(Op(
                f"kis n={n} k={k}",
                lambda n=n, k=k: pkg.write_lp(pkg.build_sosk_kis(n, k)),
                lambda text, n=n, k=k: self.check_kis(text, n, k),
                sets=sets,
            ))
        for m in self.PWL_SIZES:
            pts = parsed[f"pwl-{m}"]
            ops.append(Op(
                f"pwl m={m}",
                lambda pts=pts: pkg.write_lp(pkg.build_pwl(pts)),
                lambda text, pts=pts: self.check_pwl(text, pts),
                sets=windows(m, 2),
            ))
        for n, k in self.SMALL_SOSK:
            for form in ("sosk", "kis"):
                argv = ["sosk", "--n", str(n), "--k", str(k), "--formulation", form]
                if form == "sosk":
                    check = lambda res, n=n, k=k: self.check_windowed(
                        cli_ok(res), n, k, bound=ceil_log2(n - k + 1) + k - 2
                    )
                else:
                    check = lambda res, n=n, k=k: self.check_kis(cli_ok(res), n, k)
                ops.append(Op(
                    f"cli sosk {form} n={n} k={k}",
                    lambda argv=argv: run_cli(cli, argv),
                    check,
                    small=True,
                    sets=windows(n, k),
                ))
        for n, k in self.SMALL_IB:
            path = str(workdir / f"win-{n}-{k}.json")
            ops.append(Op(
                f"cli formulate ib n={n} k={k}",
                lambda path=path: run_cli(cli, ["formulate", path, "--formulation", "ib"]),
                lambda res, n=n, k=k: self.check_windowed(cli_ok(res), n, k, bound=n - k),
                small=True,
                sets=windows(n, k),
            ))
        return ops

    @staticmethod
    def check_windowed(text: str, n: int, k: int, bound: int):
        model = lp_check(text, windows(n, k), max_binaries=bound, continuous=n)
        check_window_cover(cover_from_lp(model), n, k)
        check_mass_row(model, "lam_", set(range(1, n + 1)))
        return model

    @staticmethod
    def check_kis(text: str, n: int, k: int):
        """One binary per window; binary i releases exactly window i's indices."""
        nwin = n - k + 1
        model = lp_check(text, windows(n, k), binaries=nwin, continuous=n)
        released: dict[str, set[int]] = {z: set() for z in model.binaries}
        binaries = set(model.binaries)
        for _, terms, sense, rhs in model.rows:
            lam = [lambda_index(v) for v in terms if lambda_index(v) is not None]
            zs = [v for v in terms if v in binaries]
            if len(lam) == 1 and sense == "<=" and rhs == 0 and len(zs) == len(terms) - 1:
                require(terms[f"lam_{lam[0]}"] == 1 and all(terms[z] == -1 for z in zs), "bad window row")
                for z in zs:
                    released[z].add(lam[0])
        got = sorted(sorted(s) for s in released.values())
        require(got == sorted(windows(n, k)), "kis binaries do not release the windows")
        select = {z: Fraction(1) for z in model.binaries}
        require(
            any(t == select and s == "=" and r == 1 for _, t, s, r in model.rows),
            "kis model lacks the one-window row",
        )
        check_mass_row(model, "lam_", set(range(1, n + 1)))
        return model

    @staticmethod
    def check_pwl(text: str, pts):
        m = len(pts)
        model = parse_lp(text)
        bics = cover_from_lp(model)
        require(len(bics) <= ceil_log2(m - 1), f"pwl uses {len(bics)} binaries")
        check_window_cover(bics, m, 2)
        check_mass_row(model, "lam_", set(range(1, m + 1)))
        for axis, var in ((0, "x"), (1, "y")):
            _, terms, sense, rhs = model.row(f"def_{var}")
            require(sense == "=" and rhs == 0 and var in terms, f"bad def_{var} row")
            for i, pt in enumerate(pts, start=1):
                got = -terms.get(f"lam_{i}", Fraction(0)) / terms[var]
                require(got == Fraction(pt[axis]), f"def_{var} has the wrong coordinate at {i}")
        return model


# -------------------------------------------------------------- rewrite


class Rewrite:
    """Seeded random families, half admitting a junction tree, half not."""

    name = "rewrite"
    SIZES = [20, 40, 60, 80]
    SMALL_SIZES = [6, 8, 10, 12]

    def generate(self, rng: random.Random) -> Inputs:
        inp = Inputs()
        for d in self.SIZES:
            for admits in (True, False):
                sets = planted_family(rng, d, lacking=not admits)
                key = f"fam-{d}-{'tree' if admits else 'cyclic'}"
                inp.json_texts[key] = family_json(sets)
                inp.meta[key] = (sets, admits)
        for d in self.SMALL_SIZES:
            for admits in (True, False):
                sets = planted_family(rng, d, lacking=not admits, shared=d // 2, priv=(1, 1))
                key = f"small-{d}-{'tree' if admits else 'cyclic'}"
                require(len(ground_of(sets)) <= CLI_MAX_GROUND, "small family too large")
                inp.files[key + ".json"] = family_json(sets)
                inp.meta[key] = (sets, admits)
        return inp

    def parse(self, pkg, inp: Inputs):
        return {key: pkg.IndexSetFamily.from_json(text) for key, text in inp.json_texts.items()}

    def ops(self, pkg, cli, parsed, inp: Inputs, workdir: Path) -> list[Op]:
        ops = []
        for key, fam in parsed.items():
            sets, admits = inp.meta[key]
            ops.append(Op(
                f"admission {key}",
                lambda fam=fam: pkg.admits_junction_tree(fam),
                admission_check(sets, admits),
            ))
            for kind in builder_kinds(admits):
                build = library_builder(pkg, kind)
                ops.append(Op(
                    f"{kind} {key}",
                    lambda fam=fam, build=build: pkg.write_lp(build(fam)),
                    builder_check(kind, sets),
                    sets=sets,
                ))
        for name in inp.files:
            key = name[: -len(".json")]
            sets, admits = inp.meta[key]
            path = str(workdir / name)
            ops.append(Op(
                f"cli transform {key}",
                lambda path=path: run_cli(cli, ["transform", path]),
                lambda res, sets=sets: self.check_transform(cli_ok(res), sets),
                small=True,
            ))
            for kind in builder_kinds(admits):
                check = builder_check(kind, sets)
                ops.append(Op(
                    f"cli formulate {kind} {key}",
                    lambda path=path, kind=kind: run_cli(cli, ["formulate", path, "--formulation", kind]),
                    lambda res, check=check: check(cli_ok(res)),
                    small=True,
                    sets=sets,
                ))
        return ops

    @staticmethod
    def check_transform(text: str, sets):
        """The rewrite maps each new set onto an original one and admits its tree."""
        res = json.loads(text)
        alpha = {int(u): v for u, v in res["alpha"].items()}
        new_sets = res["sets"]
        require(len(new_sets) == len(sets), "transform changed the set count")
        for new, old in zip(new_sets, sets):
            require(sorted(alpha[u] for u in new) == sorted(old), "a rewritten set maps wrongly")
        check_running_intersection(new_sets, [tuple(e) for e in res["tree"]["edges"]])
        total = sum(len(s) for s in sets)
        want = total - max_spanning_weight(sets) - len(ground_of(sets))
        require(res["extra_continuous"] == want, "transform reports the wrong extra continuous count")


# --------------------------------------------------------------- planar


class Planar:
    """Triangle strips and triangulated grids with exact rational coordinates."""

    name = "planar"
    STRIPS = [20, 40, 60]
    GRIDS = [(3, 4), (4, 5)]
    SMALL_STRIPS = [8, 14, 20]
    SMALL_GRIDS = [(2, 2), (2, 3), (3, 3)]

    def generate(self, rng: random.Random) -> Inputs:
        inp = Inputs()
        shapes = [("strip", d, triangle_strip(rng, d)) for d in self.STRIPS]
        shapes += [("grid", r * c * 2, triangulated_grid(rng, r, c)) for r, c in self.GRIDS]
        for kind, d, polys in shapes:
            key = f"{kind}-{d}"
            inp.json_texts[key] = polygons_json(polys)
            inp.meta[key] = (kind, polys)
        small = [("strip", d, triangle_strip(rng, d)) for d in self.SMALL_STRIPS]
        small += [("grid", r * c * 2, triangulated_grid(rng, r, c)) for r, c in self.SMALL_GRIDS]
        for kind, d, polys in small:
            key = f"small-{kind}-{d}"
            inp.files[key + ".json"] = polygons_json(polys)
            inp.meta[key] = (kind, polys)
            points = pooled_family([tuple(poly) for poly in polys])
            label = {pt: i for i, pt in enumerate(sorted({p for s in points for p in s}), start=1)}
            sets = [sorted(label[p] for p in s) for s in points]
            inp.files[key + "-cdc.json"] = family_json(sets)
            inp.meta[key + "-cdc"] = sets
        return inp

    def parse(self, pkg, inp: Inputs):
        return {key: pkg.PlanarPartition.from_json(text) for key, text in inp.json_texts.items()}

    def ops(self, pkg, cli, parsed, inp: Inputs, workdir: Path) -> list[Op]:
        ops = []
        for key, part in parsed.items():
            kind, polys = inp.meta[key]
            points = [tuple(poly) for poly in polys]
            d = len(points)
            state: dict[str, Any] = {}

            def to_cdc(part=part, state=state):
                state["family"], state["points"] = pkg.partition_to_cdc(part)
                return state["family"], state["points"]

            ops.append(Op(f"dual_graph {key}", lambda part=part: pkg.dual_graph(part),
                          lambda edges, points=points: self.check_dual(edges, points)))
            ops.append(Op(f"partition_to_cdc {key}", to_cdc,
                          lambda out, points=points: self.check_cdc(out, points)))
            ops.append(Op(f"savings {key}", lambda part=part: pkg.savings_report(part),
                          lambda rep, d=d, kind=kind: self.check_savings(
                              json.loads(rep.to_json()), d, kind)))
            for form in ("ext-jtree", "ext-disjoint"):
                build = library_builder(pkg, form)
                ops.append(Op(
                    f"{form} {key}",
                    lambda build=build, state=state: pkg.write_lp(build(state["family"])),
                    lambda text, form=form, d=d, state=state: self.check_ext(
                        text, form, d, [sorted(s) for s in state["family"].sets]),
                ))
        for name in inp.files:
            if name.endswith("-cdc.json"):
                continue
            key = name[: -len(".json")]
            kind, polys = inp.meta[key]
            points = [tuple(poly) for poly in polys]
            d = len(points)
            path = str(workdir / name)
            ops.append(Op(
                f"cli geom savings {key}",
                lambda path=path: run_cli(cli, ["geom", "savings", path]),
                lambda res, d=d, kind=kind: self.check_savings(json.loads(cli_ok(res)), d, kind),
                small=True,
            ))
            ops.append(Op(
                f"cli geom analyze {key}",
                lambda path=path: run_cli(cli, ["geom", "analyze", path]),
                lambda res, points=points: self.check_geom_analyze(json.loads(cli_ok(res)), points),
                small=True,
            ))
            sets = inp.meta[key + "-cdc"]
            cdc_path = str(workdir / (key + "-cdc.json"))
            for form in ("ext-jtree", "ext-disjoint"):
                ops.append(Op(
                    f"cli formulate {form} {key}",
                    lambda cdc_path=cdc_path, form=form: run_cli(
                        cli, ["formulate", cdc_path, "--formulation", form]),
                    lambda res, form=form, d=d, sets=sets: self.check_ext(cli_ok(res), form, d, sets),
                    small=True,
                    sets=sets,
                ))
        return ops

    @staticmethod
    def check_dual(edges, points):
        want = triangle_adjacency(points)
        require(set(edges) == want, "dual graph differs from the shared-edge adjacency")
        return None

    @staticmethod
    def check_cdc(out, points):
        family, pts = out
        got = [frozenset(pts[i] for i in s) for s in family.sets]
        require(got == pooled_family(points), "pooled-vertex sets differ from the polygons'")

    @staticmethod
    def check_geom_analyze(report, points):
        pts = {int(i): (Fraction(x), Fraction(y)) for i, (x, y) in report["points"].items()}
        got = [frozenset(pts[i] for i in s) for s in report["sets"]]
        require(got == pooled_family(points), "geom analyze pools the wrong vertices")
        require({tuple(e) for e in report["dual_edges"]} == triangle_adjacency(points),
                "geom analyze reports the wrong dual edges")

    @staticmethod
    def check_savings(rep, d: int, kind: str):
        require(rep["d"] == d, "savings report has the wrong cell count")
        require(rep["cont_saved"] == 2 * (d - 1), "tree route must save 2(d - 1) continuous variables")
        require(rep["jtree_cont"] == d + 2, "all-triangle tree route must use d + 2")
        require(rep["disjoint_cont"] == 3 * d, "all-triangle disjoint route must use 3d")
        if kind == "strip":
            require(rep["jtree_found"], "a triangle strip's path of cells is a junction tree")

    @staticmethod
    def check_ext(text: str, form: str, d: int, sets):
        j = len(ground_of(sets))
        if form == "ext-jtree":
            return lp_check(text, sets, max_binaries=d - 1, continuous=j + d + 2)
        return lp_check(text, sets, binaries=ceil_log2(d), continuous=j + 3 * d)


# --------------------------------------------------------------- verify


class Verify:
    """Desk-scale families through every exact oracle.

    The oracles' cost is exponential in the variable count, and their pivot
    order follows variable names, so a shape drawn afresh per seed swings a
    pass by a factor of two.  The shapes are therefore fixed (drawn from
    constant seeds); the run's seed relabels the indices with two-digit
    labels in the same order, which keeps every ordering decision, and so
    the work, the same.
    """

    name = "verify"
    # (d, admits, shared indices); private indices are one per set.
    SHAPES = [(2, True, 1), (3, True, 1), (4, True, 2), (4, True, 1), (3, False, 0)]
    # is_ideal enumerates bases: about 0.4 s at 6 variables, 3 s at 9, 70 s at 10.
    IDEAL_MAX_VARS = 7
    CLI_IDEAL_CAP = 12

    def generate(self, rng: random.Random) -> Inputs:
        inp = Inputs()
        for slot, (d, admits, shared) in enumerate(self.SHAPES):
            shape = planted_family(
                random.Random(f"verify-shape-{slot}"), d, lacking=not admits,
                shared=shared, priv=(1, 1), span=(2, 2),
            )
            ground = sorted(ground_of(shape))
            labels = sorted(rng.sample(range(10, 100), len(ground)))
            relabel = dict(zip(ground, labels))
            sets = [sorted(relabel[v] for v in s) for s in shape]
            key = f"desk-{slot}-{'tree' if admits else 'cyclic'}"
            inp.json_texts[key] = family_json(sets)
            inp.files[key + ".json"] = family_json(sets)
            inp.meta[key] = (sets, admits)
        return inp

    def parse(self, pkg, inp: Inputs):
        return {key: pkg.IndexSetFamily.from_json(text) for key, text in inp.json_texts.items()}

    def ops(self, pkg, cli, parsed, inp: Inputs, workdir: Path) -> list[Op]:
        ops = []
        for key, fam in parsed.items():
            sets, admits = inp.meta[key]
            ops.append(Op(
                f"brute admission {key}",
                lambda fam=fam: pkg.brute_admits_junction_tree(fam),
                admission_check(sets, admits),
            ))
            ops.append(Op(
                f"min cover {key}",
                lambda fam=fam: self.min_cover(pkg, fam),
                lambda out, sets=sets: self.check_min_cover(out, sets),
            ))
            sizes = {}
            for kind in builder_kinds(admits):
                build = library_builder(pkg, kind)
                f = build(fam)  # the oracles' input, built outside the timed call
                sizes[kind] = len(f.variables)
                ops.append(Op(
                    f"build {kind} {key}",
                    lambda fam=fam, build=build: pkg.write_lp(build(fam)),
                    builder_check(kind, sets),
                    sets=sets,
                ))
                ops.append(Op(
                    f"support {kind} {key}",
                    lambda f=f, fam=fam: pkg.support_validity(f, fam),
                    lambda ok: require(ok is True, "support_validity rejected a builder's model"),
                ))
                if kind in ("ib", "ext-jtree", "ext-disjoint") and sizes[kind] <= self.IDEAL_MAX_VARS:
                    ops.append(Op(
                        f"ideal {kind} {key}",
                        lambda f=f: pkg.is_ideal(f),
                        lambda ok: require(ok is True, "a cover-based model is not ideal"),
                    ))
            if admits:
                broken = self.drop_one_biclique(pkg, fam, sets)
                ops.append(Op(
                    f"support broken ib {key}",
                    lambda fam=fam, broken=broken: pkg.support_validity(broken, fam),
                    lambda ok: require(ok is False, "support_validity accepted a model missing a biclique"),
                ))
            path = str(workdir / f"{key}.json")
            if admits:
                command = ["cover", path, "--verify"]
                check = lambda res, sets=sets: cover_check(cli_ok(res), sets)
            else:
                command = ["analyze", path]
                check = lambda res, sets=sets: analyze_check(cli_ok(res), sets, False)
            ops.append(Op(f"cli {command[0]} {key}", lambda command=command: run_cli(cli, command),
                          check, small=True))
            # `cdcmip verify` runs is_ideal on models of up to 12 variables;
            # pick a formulation whose idealness check fits the run or is skipped.
            form = next(k for k in ("ib", "ext-jtree", "jl") if k in sizes and (
                sizes[k] <= self.IDEAL_MAX_VARS or sizes[k] > self.CLI_IDEAL_CAP))
            want = "pass" if sizes[form] <= self.CLI_IDEAL_CAP else "skipped (size)"
            ops.append(Op(
                f"cli verify {form} {key}",
                lambda path=path, form=form: run_cli(cli, ["verify", path, "--formulation", form]),
                lambda res, want=want: require(
                    cli_ok(res) == f"support_validity: pass\nideal: {want}\n", "cdcmip verify failed"),
                small=True,
            ))
        # The CLI draws these families itself; a fixed seed keeps their cost fixed.
        ops.append(Op(
            "cli verify --random",
            lambda: run_cli(cli, ["verify", "--random", "20", "--seed", "7"]),
            lambda res: require(json.loads(cli_ok(res))["agreements"] == 20, "random cross-check failed"),
            small=True,
        ))
        return ops

    @staticmethod
    def min_cover(pkg, fam):
        g = pkg.conflict_graph(fam)
        if g.edge_count == 0 or g.edge_count > 12:
            return None, g.edge_count
        return pkg.min_biclique_cover_exact(g, g.edge_count), g.edge_count

    @staticmethod
    def check_min_cover(out, sets):
        """Sandwich the exact minimum: a clique of size q needs ceil(log2 q)
        bicliques, and a cover never needs more bicliques than edges."""
        best, edges = out
        require(edges == conflict_edge_count(sets), "conflict graph has the wrong edge count")
        if best is None:
            return
        conflicts = family_conflicts(sets)
        clique: list[int] = []
        for v in sorted(ground_of(sets)):
            if all(conflicts(u, v) for u in clique):
                clique.append(v)
        require(ceil_log2(len(clique)) <= best <= edges, f"minimum cover {best} out of range")

    @staticmethod
    def drop_one_biclique(pkg, fam, sets):
        """The ib model minus the rows of one biclique the rest do not replace."""
        f = pkg.build_ib_from_cover(fam, pkg.heuristic_cover(fam))
        bics = cover_from_lp(parse_lp(pkg.write_lp(f)))
        for drop in range(len(bics)):
            try:
                check_cover(bics[:drop] + bics[drop + 1:], ground_of(sets), family_conflicts(sets))
            except CheckError:
                break
        else:
            raise CheckError("no biclique of the cover is needed")
        gone = {f"a_{drop + 1}", f"b_{drop + 1}"}
        broken = pkg.LinearFormulation(
            variables=list(f.variables),
            constraints=[c for c in f.constraints if c.name not in gone],
            metadata=dict(f.metadata),
        )
        return broken


WORKLOADS = {w.name: w for w in (Windowed(), Rewrite(), Planar(), Verify())}
