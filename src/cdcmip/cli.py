"""Command-line front end.

Subcommands mirror the library pipeline: analyze a family, cover it, emit a
formulation, rewrite it, sweep the windowed constructions, verify against
the brute-force oracles, and ingest planar partitions.  Output is JSON (or
LP text), deterministic for fixed inputs and flags.

Exit codes: 0 ok, 2 input error, 3 size-guard trip, 4 internal invariant
violation.

`main` builds its parser on its first call and reuses it.  argparse keeps
no state on a parser between `parse_args` calls, and its formatter reads
the terminal width each time it formats, so the output is the same as a
fresh parser's; only a process that calls `main` more than once saves
anything.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import warnings
from contextlib import suppress

from . import __version__
from .cdc import (
    IndexSetFamily,
    conflict_graph,
    ground_set,
    is_irredundant,
    is_pairwise_ib_representable,
)
from .cover import heuristic_cover, verify_cover
from .errors import (
    InputError,
    InvariantError,
    NoJunctionTreeError,
    RedundantFamilyWarning,
    SizeGuardError,
)
from .formulate import (
    build_extended_disjoint,
    build_extended_jtree,
    build_ib,
    build_jeroslow_lowe,
    build_log_embedding,
    build_naive,
    build_sosk,
    build_sosk_kis,
    write_lp,
)
from .geom import PlanarPartition, dual_graph, partition_to_cdc, savings_report
from .jtree import (
    admits_junction_tree,
    failing_index,
    maximum_spanning_tree_of,
)
from .oracle import (
    brute_admits_junction_tree,
    is_ideal,
    min_biclique_cover_exact,
    support_validity,
)
from .sosk import compare_bounds, sosk_cover
from .transform import build_equivalent_family

# Formulations of the `formulate` and `verify` subcommands.  Each builder is
# looked up when called, so wrappers bound to this module's attributes (the
# benchmark's spans) see the call.
BUILDERS = {
    "naive": lambda family: build_naive(family),
    "jl": lambda family: build_jeroslow_lowe(family),
    "log": lambda family: build_log_embedding(family),
    "ib": lambda family: build_ib(family),
    "ext-jtree": lambda family: build_extended_jtree(family),
    "ext-disjoint": lambda family: build_extended_disjoint(family),
}
MAX_GROUND = 25  # default of every --max-ground flag
# verify --random draws at most this many sets over at most this many
# indices, whatever larger --max-sets and --max-ground allow.
RANDOM_MAX_SETS = 6
RANDOM_MAX_GROUND = 10


def _dump(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_family(path: str, max_sets: int, max_ground: int) -> IndexSetFamily:
    family = IndexSetFamily.from_json(_read(path))
    if len(family) > max_sets:
        raise SizeGuardError(f"{len(family)} sets exceed --max-sets {max_sets}")
    if len(ground_set(family)) > max_ground:
        raise SizeGuardError(
            f"ground set of {len(ground_set(family))} exceeds --max-ground {max_ground}"
        )
    return family


def cmd_analyze(args) -> int:
    family = _load_family(args.input, args.max_sets, args.max_ground)
    tree = maximum_spanning_tree_of(family)
    # The smallest index whose holders the tree cannot keep connected, if any.
    failing = failing_index(family, tree)
    report = {
        "num_sets": len(family),
        "ground_size": len(ground_set(family)),
        "irredundant": is_irredundant(family),
        "pairwise_ib": is_pairwise_ib_representable(family),
        "admits_junction_tree": failing is None,
        "mst_weight": tree.weight,
        "conflict_edges": conflict_graph(family).edge_count,
    }
    if failing is not None:
        report["failing_index"] = failing
    if args.pretty:
        width = max(len(k) for k in report)
        lines = [f"{k.ljust(width)}  {report[k]}" for k in sorted(report)]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_dump(report), args.out)
    return 0


def cmd_cover(args) -> int:
    family = _load_family(args.input, args.max_sets, args.max_ground)
    cover = heuristic_cover(family)
    payload = json.loads(cover.to_json())
    if args.verify:
        g = conflict_graph(family)
        payload["verified"] = verify_cover(g, cover)
        with suppress(SizeGuardError):  # past the exact search's cap, min_exact is left out
            payload["min_exact"] = min_biclique_cover_exact(g, max(len(cover), 1))
    _emit(_dump(payload), args.out)
    return 0


def cmd_formulate(args) -> int:
    family = _load_family(args.input, args.max_sets, args.max_ground)
    f = BUILDERS[args.formulation](family)
    _emit(write_lp(f) if args.format == "lp" else f.to_json() + "\n", args.out)
    if args.verify:
        ok = support_validity(f, family)
        sys.stderr.write(f"support_validity: {'pass' if ok else 'fail'}\n")
        if not ok:
            raise InvariantError("formulation failed support validation")
    return 0


def cmd_transform(args) -> int:
    family = _load_family(args.input, args.max_sets, args.max_ground)
    res = build_equivalent_family(family, disjoint=args.disjoint)
    _emit(res.to_json() + "\n", args.out)
    return 0


def cmd_sosk(args) -> int:
    if args.n > args.max_ground:
        raise SizeGuardError(f"n = {args.n} exceeds --max-ground {args.max_ground}")
    if args.formulation == "kis":
        f = build_sosk_kis(args.n, args.k)
    else:
        f = build_sosk(args.n, args.k)
    if args.cover_out:
        _emit(sosk_cover(args.n, args.k).to_json() + "\n", args.cover_out)
    if args.bounds:
        ours, hv, kis = compare_bounds(args.n, args.k)
        sys.stderr.write(f"binaries: ours={ours} huchette_vielma={hv} kis_horvath={kis}\n")
    _emit(write_lp(f), args.out)
    return 0


def cmd_verify(args) -> int:
    if args.random is not None and args.input:
        raise InputError("pass a family JSON file or --random, not both")
    if args.random is not None:
        return _verify_random(args)
    if not args.input:
        raise InputError("pass a family JSON file or use --random")
    family = _load_family(args.input, args.max_sets, args.max_ground)
    f = BUILDERS[args.formulation](family)
    ok = support_validity(f, family)
    try:
        ideal = "pass" if is_ideal(f) else "fail"
    except SizeGuardError:
        ideal = "skipped (size)"
    lines = [f"support_validity: {'pass' if ok else 'fail'}", f"ideal: {ideal}"]
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 4


def _verify_random(args) -> int:
    if args.max_sets < 1 or args.max_ground < 2:
        raise InputError("--random needs --max-sets >= 1 and --max-ground >= 2")
    rng = random.Random(args.seed)
    j_cap = min(args.max_ground, RANDOM_MAX_GROUND)
    # A draw of d sets takes its indices from n >= d of them.
    d_cap = min(args.max_sets, RANDOM_MAX_SETS, j_cap)
    agree = 0
    for _ in range(args.random):
        d = rng.randint(1, d_cap)
        n = rng.randint(max(d, 2), j_cap)
        sets = set()
        while len(sets) < d:
            size = rng.randint(1, n)
            sets.add(frozenset(rng.sample(range(1, n + 1), size)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RedundantFamilyWarning)
            family = IndexSetFamily(sorted(sets, key=sorted))
        fast = admits_junction_tree(family)
        slow = brute_admits_junction_tree(family)
        if (fast is None) != (slow is None):
            raise InvariantError("junction-tree admission disagrees with brute force")
        agree += 1
    _emit(_dump({"random_families": args.random, "agreements": agree}), args.out)
    return 0


def cmd_geom(args) -> int:
    partition = PlanarPartition.from_json(_read(args.input))
    if len(partition) > args.max_sets:
        raise SizeGuardError(f"{len(partition)} polygons exceed --max-sets {args.max_sets}")
    # The pooled ground set, keyed by integer coordinates as partition_to_cdc keys it.
    vertices = len({h for hs, _ in partition._shapes for h in hs})
    if vertices > args.max_ground:
        raise SizeGuardError(f"{vertices} distinct vertices exceed --max-ground {args.max_ground}")
    if args.action == "analyze":
        family, points = partition_to_cdc(partition)
        payload = {
            "sets": [sorted(s) for s in family.sets],
            "points": {str(i): [str(x), str(y)] for i, (x, y) in sorted(points.items())},
            "dual_edges": sorted(list(e) for e in dual_graph(partition)),
        }
        _emit(_dump(payload), args.out)
    else:
        report = savings_report(partition)
        _emit(report.to_json() + "\n", args.out)
    return 0


def _count(text: str) -> int:
    """Type of the size flags: a non-negative integer, refused at parse time."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"needs a count >= 0, got {value}")
    return value


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdcmip",
        description="Analyze disjunctive constraints and emit MIP formulations.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("input", help="family JSON file")
        p.add_argument("--out", help="write output here instead of stdout")
        p.add_argument("--max-sets", type=_count, default=64)
        p.add_argument("--max-ground", type=_count, default=MAX_GROUND)

    p = sub.add_parser("analyze", help="report structural facts about a family")
    common(p)
    p.add_argument("--pretty", action="store_true")
    # Each handler is looked up when called, as the builders are: `main` reuses
    # the parser, and wrappers bound to this module later must still see it.
    p.set_defaults(func=lambda args: cmd_analyze(args))

    p = sub.add_parser("cover", help="heuristic biclique cover of the conflict graph")
    common(p)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=lambda args: cmd_cover(args))

    p = sub.add_parser("formulate", help="emit a MIP formulation")
    common(p)
    p.add_argument(
        "--formulation",
        choices=list(BUILDERS),
        default="ib",
    )
    p.add_argument("--format", choices=("lp", "json"), default="lp")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=lambda args: cmd_formulate(args))

    p = sub.add_parser("transform", help="rewrite a family to admit a junction tree")
    common(p)
    p.add_argument("--disjoint", action="store_true")
    p.set_defaults(func=lambda args: cmd_transform(args))

    p = sub.add_parser("sosk", help="windowed-constraint constructions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--formulation", choices=("sosk", "kis"), default="sosk")
    p.add_argument("--cover-out", help="also write the cover JSON here")
    p.add_argument("--bounds", action="store_true", help="print the bound comparison")
    p.add_argument("--out", help="write output here instead of stdout")
    p.add_argument("--max-ground", type=_count, default=MAX_GROUND)
    p.set_defaults(func=lambda args: cmd_sosk(args))

    p = sub.add_parser("verify", help="run the exact oracles on a formulation")
    p.add_argument("input", nargs="?", help="family JSON file (omit with --random)")
    common(p, needs_input=False)
    p.add_argument(
        "--formulation",
        choices=list(BUILDERS),
        default="ib",
    )
    p.add_argument(
        "--random",
        type=_count,
        help=(
            f"check N random families instead, each of at most {RANDOM_MAX_SETS} sets "
            f"over at most {RANDOM_MAX_GROUND} indices (lower with --max-sets, --max-ground)"
        ),
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=lambda args: cmd_verify(args))

    p = sub.add_parser("geom", help="planar partition ingestion")
    p.add_argument("action", choices=("analyze", "savings"))
    common(p)
    p.set_defaults(func=lambda args: cmd_geom(args))

    return parser


_parser = functools.lru_cache(maxsize=1)(make_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except NoJunctionTreeError as exc:
        sys.stderr.write(f"error: {exc}\nhint: retry with --formulation ext-jtree\n")
        return 2
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except SizeGuardError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except InvariantError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
