"""Tests of the benchmark's own checks and generators.

Run from the repository root:  python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import cdcmip  # noqa: E402
import cdcmip.cli  # noqa: E402
from checks import (  # noqa: E402
    CheckError,
    check_running_intersection,
    check_window_cover,
    cover_from_lp,
    highs_reference_check,
    parse_lp,
    windows,
)
from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Planar,
    Verify,
    Windowed,
    admission_check,
    builder_check,
    planted_family,
    triangle_strip,
)


def drop_row(text: str, name: str) -> str:
    lines = text.split("\n")
    kept = [ln for ln in lines if not ln.startswith(f" {name}:")]
    assert len(kept) == len(lines) - 1
    return "\n".join(kept)


def ib_text(sets) -> str:
    fam = cdcmip.IndexSetFamily(sets)
    return cdcmip.write_lp(cdcmip.build_ib_from_cover(fam, cdcmip.heuristic_cover(fam)))


def test_parser_counts_match_the_formulation():
    fam = cdcmip.IndexSetFamily(planted_family(random.Random(3), 12, lacking=True))
    f = cdcmip.build_extended_jtree(fam)
    counts = parse_lp(cdcmip.write_lp(f)).counts()
    assert counts["binaries"] == len(f.binary_names())
    assert counts["binaries"] + counts["continuous"] == len(f.variables)
    assert counts["rows"] == len(f.constraints)
    assert counts["nonzeros"] == sum(len(c.terms) for c in f.constraints)


def test_window_cover_check_rejects_a_dropped_biclique():
    n, k = 30, 3
    bics = cover_from_lp(parse_lp(cdcmip.write_lp(cdcmip.build_sosk(n, k))))
    check_window_cover(bics, n, k)
    for drop in range(len(bics)):
        with pytest.raises(CheckError):
            check_window_cover(bics[:drop] + bics[drop + 1:], n, k)


def test_window_cover_check_rejects_a_too_close_pair():
    n, k = 12, 3
    bics = cover_from_lp(parse_lp(cdcmip.write_lp(cdcmip.build_sosk(n, k))))
    with pytest.raises(CheckError, match="crosses a non-conflicting pair at index 2"):
        check_window_cover(bics + [(frozenset({2}), frozenset({4}))], n, k)


@pytest.mark.parametrize("row", ["a_1", "b_2", "mass"])
def test_windowed_check_rejects_an_lp_with_a_row_removed(row):
    text = ib_text(windows(20, 3))
    Windowed.check_windowed(text, 20, 3, bound=17)
    with pytest.raises(CheckError):
        Windowed.check_windowed(drop_row(text, row), 20, 3, bound=17)


def test_kis_check_rejects_an_lp_with_a_row_removed():
    text = cdcmip.write_lp(cdcmip.build_sosk_kis(12, 4))
    Windowed.check_kis(text, 12, 4)
    with pytest.raises(CheckError):
        Windowed.check_kis(drop_row(text, "win_6"), 12, 4)


def test_solver_reference_rejects_an_lp_with_a_row_removed():
    sets = planted_family(random.Random(5), 8, lacking=True)
    text = cdcmip.write_lp(cdcmip.build_naive(cdcmip.IndexSetFamily(sets)))
    highs_reference_check(parse_lp(text), sets, random.Random(1))
    # Without the one-set row every binary may be 1, so any simplex point fits.
    with pytest.raises(CheckError, match="face optimum"):
        highs_reference_check(parse_lp(drop_row(text, "select")), sets, random.Random(1))


def test_builder_size_check_rejects_a_wrong_binary_count():
    sets = planted_family(random.Random(9), 10, lacking=False)
    text = cdcmip.write_lp(cdcmip.build_log_embedding(cdcmip.IndexSetFamily(sets)))
    builder_check("log", sets)(text)
    with pytest.raises(CheckError):
        builder_check("naive", sets)(text)


@pytest.mark.parametrize("admits", [True, False])
def test_admission_check_rejects_the_wrong_planted_answer(admits):
    sets = planted_family(random.Random(11), 9, lacking=not admits)
    tree = cdcmip.admits_junction_tree(cdcmip.IndexSetFamily(sets))
    admission_check(sets, admits)(tree)
    with pytest.raises(CheckError, match="planted"):
        admission_check(sets, not admits)(tree)


def test_running_intersection_check_rejects_a_broken_tree():
    sets = [[1, 2], [2, 3], [3, 4]]
    check_running_intersection(sets, [(0, 1), (1, 2)])
    with pytest.raises(CheckError):
        check_running_intersection(sets, [(0, 2), (1, 2)])


def test_planar_checks_reject_a_wrong_partition_answer():
    polys = triangle_strip(random.Random(2), 8)
    part = cdcmip.PlanarPartition(polys)
    points = [tuple(poly) for poly in polys]
    Planar.check_dual(cdcmip.dual_graph(part), points)
    with pytest.raises(CheckError):
        Planar.check_dual(set(cdcmip.dual_graph(part)) - {(0, 1)}, points)
    with pytest.raises(CheckError):
        Planar.check_savings({"d": 8, "jtree_found": True, "cont_saved": 13,
                              "jtree_cont": 10, "disjoint_cont": 24}, 8, "strip")


def test_support_oracle_fails_on_the_broken_model():
    sets = [[1, 2], [2, 3], [3, 4], [4, 5]]
    fam = cdcmip.IndexSetFamily(sets)
    broken = Verify.drop_one_biclique(cdcmip, fam, sets)
    assert cdcmip.support_validity(broken, fam) is False


def test_planted_answers_agree_with_brute_force():
    rng = random.Random(2024)
    for _ in range(60):
        d = rng.randint(3, 7)
        lacking = rng.random() < 0.5
        sets = planted_family(rng, d, lacking=lacking, shared=rng.randint(0, d), priv=(1, 1))
        fam = cdcmip.IndexSetFamily(sets)
        assert (cdcmip.brute_admits_junction_tree(fam) is None) == lacking


@pytest.mark.parametrize("workload", ["windowed", "rewrite", "planar", "verify"])
def test_traced_builders_count_every_emitted_variable(workload, tmp_path):
    """Every builder that an operation emitting a model calls runs through
    the tracer, so the operation adds exactly the emitted model's variables
    to ``formulate.variables``."""
    wl = WORKLOADS[workload]
    inputs = wl.generate(random.Random(f"{workload}:1"))
    for name, text in inputs.files.items():
        (tmp_path / name).write_text(text)
    ops = wl.ops(cdcmip, cdcmip.cli, wl.parse(cdcmip, inputs), inputs, tmp_path)
    tracer = Tracer()
    tracer.install()
    emitted = 0
    try:
        for op in ops:
            before = tracer.counts["formulate.variables"]
            model = op.check(op.fn())
            if hasattr(model, "counts"):
                counts = model.counts()
                added = tracer.counts["formulate.variables"] - before
                assert added == counts["binaries"] + counts["continuous"], op.label
                emitted += 1
    finally:
        tracer.uninstall()
    assert emitted > 0


EMIT = """
import random, sys
import cdcmip
from workloads import planted_family, triangle_strip, windows, Verify
w = sys.argv[1]
if w == "windowed":
    fam = cdcmip.IndexSetFamily(windows(40, 3))
    f = cdcmip.build_ib_from_cover(fam, cdcmip.heuristic_cover(fam))
elif w == "rewrite":
    f = cdcmip.build_extended_jtree(cdcmip.IndexSetFamily(planted_family(random.Random(1), 20, True)))
elif w == "planar":
    fam, _ = cdcmip.partition_to_cdc(cdcmip.PlanarPartition(triangle_strip(random.Random(1), 12)))
    f = cdcmip.build_extended_disjoint(fam)
else:
    inp = Verify().generate(random.Random(1))
    f = cdcmip.build_log_embedding(cdcmip.IndexSetFamily.from_json(inp.json_texts["desk-2-tree"]))
sys.stdout.write(cdcmip.write_lp(f))
"""


@pytest.mark.parametrize("workload", ["windowed", "rewrite", "planar", "verify"])
def test_lp_text_is_identical_under_two_hash_seeds(workload):
    digests = set()
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
        out = subprocess.run([sys.executable, "-c", EMIT, workload], env=env,
                             capture_output=True, text=True, check=True, timeout=120).stdout
        assert out.endswith("End\n")
        digests.add(hashlib.sha256(out.encode()).hexdigest())
    assert len(digests) == 1


def test_runner_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "windowed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode != 0
    assert res.stdout == ""
