import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cdcmip
from cdcmip.cli import main
from conftest import triangle_strip

SOS2_5 = '{"sets": [[1, 2], [2, 3], [3, 4], [4, 5]]}'
TRIANGLE = '{"sets": [[1, 2], [2, 3], [1, 3]]}'
# Its naive model has 13 variables and its conflict graph 15 edges: both past
# the exact oracles' cap of 12.
SOS2_7 = '{"sets": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 7]]}'
# An integer literal longer than json.loads converts (4,300 digits by default).
HUGE_INT = "1" * 5000
# The naive model of this family has 9 variables and 17 fractional vertices out of 27.
NAIVE_NOT_IDEAL = '{"sets": [[1, 2, 3, 5], [1, 4], [1, 4, 5], [4]]}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def family_file(tmp_path, text, name="family.json"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def strip_file(tmp_path, d):
    polys = [[[str(x), str(y)] for x, y in poly] for poly in triangle_strip(d).polygons]
    path = tmp_path / f"strip{d}.json"
    path.write_text(json.dumps({"polygons": polys}))
    return str(path)


def test_analyze_sos2(tmp_path, capsys):
    code, out, _ = run(capsys, "analyze", family_file(tmp_path, SOS2_5))
    assert code == 0
    report = json.loads(out)
    assert report["admits_junction_tree"] is True
    assert report["mst_weight"] == 3
    assert report["conflict_edges"] == 6
    assert report["pairwise_ib"] is True


def test_analyze_triangle(tmp_path, capsys):
    code, out, _ = run(capsys, "analyze", family_file(tmp_path, TRIANGLE))
    assert code == 0
    report = json.loads(out)
    assert report["admits_junction_tree"] is False
    assert report["pairwise_ib"] is False


def test_analyze_names_the_failing_index(tmp_path, capsys):
    # The cyclic triple's maximum spanning tree is (0, 1), (0, 2): index 3,
    # held by sets 1 and 2, lies in no middle set.
    keys = None
    for text, failing in ((TRIANGLE, 3), (SOS2_5, None)):
        code, out, _ = run(capsys, "analyze", family_file(tmp_path, text))
        report = json.loads(out)
        assert code == 0 and report.get("failing_index") == failing
        assert ("failing_index" in report) is (failing is not None)
        report.pop("failing_index", None)
        assert keys is None or set(report) == keys
        keys = set(report)
    code, out, _ = run(capsys, "analyze", "--pretty", family_file(tmp_path, TRIANGLE))
    assert code == 0 and "failing_index         3" in out


def test_analyze_deterministic(tmp_path, capsys):
    path = family_file(tmp_path, SOS2_5)
    _, first, _ = run(capsys, "analyze", path)
    _, second, _ = run(capsys, "analyze", path)
    assert first == second


def test_analyze_pretty(tmp_path, capsys):
    code, out, _ = run(capsys, "analyze", "--pretty", family_file(tmp_path, SOS2_5))
    assert code == 0 and "mst_weight" in out and "{" not in out


def test_analyze_builds_one_spanning_tree(tmp_path, capsys, monkeypatch):
    import cdcmip.cli as cli
    import cdcmip.jtree as jtree

    calls = []
    real = jtree.maximum_spanning_tree_of

    def counted(family):
        calls.append(family)
        return real(family)

    # Both bindings: jtree's own helpers (admits_junction_tree) call it there.
    for module in (cli, jtree):
        monkeypatch.setattr(module, "maximum_spanning_tree_of", counted)
    for text, admits in ((SOS2_5, True), (TRIANGLE, False)):
        calls.clear()
        code, out, _ = run(capsys, "analyze", family_file(tmp_path, text))
        assert code == 0 and len(calls) == 1
        assert json.loads(out)["admits_junction_tree"] is admits


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "FAMILY", "--out", "MISSING"],
        ["sosk", "--n", "5", "--k", "2", "--out", "MISSING"],
        ["sosk", "--n", "5", "--k", "2", "--cover-out", "MISSING"],
    ],
)
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    missing = str(tmp_path / "no-such-dir" / "x")
    family = family_file(tmp_path, SOS2_5)
    argv = [{"FAMILY": family, "MISSING": missing}.get(a, a) for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 2 and err.startswith(f"error: cannot write {missing}")


def test_malformed_input_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "analyze", family_file(tmp_path, '{"sets": []}'))
    assert code == 2 and "error" in err
    code, _, _ = run(capsys, "analyze", family_file(tmp_path, "not json"))
    assert code == 2
    code, _, _ = run(capsys, "analyze", str(tmp_path / "missing.json"))
    assert code == 2
    code, _, err = run(capsys, "analyze", family_file(tmp_path, '{"sets": [[[1]]]}'))
    assert code == 2 and "non-negative integers" in err
    code, _, err = run(capsys, "analyze", family_file(tmp_path, f'{{"sets": [[{HUGE_INT}]]}}'))
    assert code == 2 and "invalid JSON" in err
    code, _, err = run(capsys, "analyze", family_file(tmp_path, "[" * 100_000))
    assert code == 2 and "invalid JSON" in err
    polygons = f'{{"polygons": [[[0, 0], [2, 0], [{HUGE_INT}, 1]]]}}'
    code, _, err = run(capsys, "geom", "analyze", family_file(tmp_path, polygons))
    assert code == 2 and "invalid JSON" in err
    # A coordinate within the exponent limit whose value has 4,301 digits.
    polygons = '{"polygons": [[["0", "0"], ["1e4300", "0"], ["0", "1"]]]}'
    for action in ("analyze", "savings"):
        code, _, err = run(capsys, "geom", action, family_file(tmp_path, polygons))
        assert code == 2 and "digit limit" in err
    polygons = '{"polygons": [[["0", "0"], ["1e4000", "0"], ["0", "1"]]]}'
    code, _, _ = run(capsys, "geom", "analyze", family_file(tmp_path, polygons))
    assert code == 0


def test_huge_decimal_exponent_exits_2_promptly(tmp_path, capsys):
    polygons = '{"polygons": [[["0", "0"], ["2", "0"], ["1e99999999", "1"]]]}'
    start = time.monotonic()
    code, _, err = run(capsys, "geom", "analyze", family_file(tmp_path, polygons))
    assert code == 2 and "1e99999999" in err
    assert time.monotonic() - start < 10


def test_size_guard_exits_3(tmp_path, capsys):
    code, _, err = run(
        capsys, "analyze", "--max-ground", "3", family_file(tmp_path, SOS2_5)
    )
    assert code == 3 and "exceed" in err


def test_cover_verify(tmp_path, capsys):
    code, out, _ = run(capsys, "cover", "--verify", family_file(tmp_path, SOS2_5))
    assert code == 0
    payload = json.loads(out)
    assert len(payload["bicliques"]) == 2
    assert payload["verified"] is True
    assert payload["min_exact"] == 2


def test_cover_verify_omits_min_exact_past_the_cap(tmp_path, capsys):
    code, out, _ = run(capsys, "cover", "--verify", family_file(tmp_path, SOS2_7))
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert "min_exact" not in payload


def test_cover_without_junction_tree_hints(tmp_path, capsys):
    code, _, err = run(capsys, "cover", family_file(tmp_path, TRIANGLE))
    assert code == 2 and "ext-jtree" in err


def test_formulate_lp(tmp_path, capsys):
    out_path = tmp_path / "out.lp"
    code, _, _ = run(
        capsys,
        "formulate",
        "--formulation",
        "ib",
        "--out",
        str(out_path),
        family_file(tmp_path, SOS2_5),
    )
    assert code == 0
    text = out_path.read_text()
    assert "Binaries" in text and text.count("\n z_") == 2


def test_formulate_json_format(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "formulate",
        "--formulation",
        "naive",
        "--format",
        "json",
        family_file(tmp_path, SOS2_5),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["metadata"]["builder"] == "naive"
    assert len(payload["variables"]) == 9
    assert any(c["name"] == "mass" for c in payload["constraints"])


def test_formulate_triangle_ib_fails_with_hint(tmp_path, capsys):
    code, _, err = run(
        capsys, "formulate", "--formulation", "ib", family_file(tmp_path, TRIANGLE)
    )
    assert code == 2 and "ext-jtree" in err
    code, out, _ = run(
        capsys,
        "formulate",
        "--formulation",
        "ext-jtree",
        family_file(tmp_path, TRIANGLE),
    )
    assert code == 0 and "Binaries" in out


def test_sosk_subcommand(tmp_path, capsys):
    code, out, err = run(capsys, "sosk", "--n", "5", "--k", "2", "--bounds")
    assert code == 0
    assert out.count("\n z_") == 2
    assert "ours=2" in err and "kis_horvath=5" in err


def test_verify_subcommand(tmp_path, capsys):
    code, out, _ = run(
        capsys, "verify", "--formulation", "ib", family_file(tmp_path, SOS2_5)
    )
    assert code == 0
    assert "support_validity: pass" in out
    assert "ideal: pass" in out


def test_verify_skips_ideal_past_the_cap(tmp_path, capsys):
    code, out, _ = run(
        capsys, "verify", "--formulation", "naive", family_file(tmp_path, SOS2_7)
    )
    assert code == 0
    assert out == "support_validity: pass\nideal: skipped (size)\n"


def test_verify_random(capsys):
    code, out, _ = run(capsys, "verify", "--random", "15", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["agreements"] == 15


@pytest.mark.parametrize(
    "flags, code",
    [
        (["--max-ground", "3"], 0),
        (["--max-ground", "4"], 0),
        (["--max-ground", "1"], 2),
        (["--max-sets", "0"], 2),
        (["--random", "-2"], 2),
    ],
)
def test_verify_random_caps(capsys, flags, code):
    got, out, err = run(capsys, "verify", "--random", "30", "--seed", "1", *flags)
    assert got == code
    if code == 0:
        assert json.loads(out) == {"agreements": 30, "random_families": 30}
    else:
        assert err.startswith("error: --random needs")


def test_transform_subcommand(tmp_path, capsys):
    code, out, _ = run(capsys, "transform", family_file(tmp_path, TRIANGLE))
    assert code == 0
    assert json.loads(out)["extra_continuous"] == 1
    code, out, _ = run(capsys, "transform", "--disjoint", family_file(tmp_path, TRIANGLE))
    assert code == 0
    assert json.loads(out)["extra_continuous"] == 3


def test_geom_savings(tmp_path, capsys):
    code, out, _ = run(capsys, "geom", "savings", strip_file(tmp_path, 5))
    assert code == 0
    report = json.loads(out)
    assert report["cont_saved"] == 8
    assert report["jtree_cont"] == 7 and report["disjoint_cont"] == 15


def test_geom_analyze(tmp_path, capsys):
    code, out, _ = run(capsys, "geom", "analyze", strip_file(tmp_path, 2))
    assert code == 0
    payload = json.loads(out)
    assert payload["dual_edges"] == [[0, 1]]
    assert len(payload["sets"]) == 2


@pytest.mark.filterwarnings("ignore::cdcmip.RedundantFamilyWarning")
def test_verify_reports_a_model_that_is_not_ideal(tmp_path, capsys):
    code, out, _ = run(
        capsys, "verify", "--formulation", "naive", family_file(tmp_path, NAIVE_NOT_IDEAL)
    )
    assert code == 0
    assert out == "support_validity: pass\nideal: fail\n"


def run_optimized(*argv):
    """Run Python with ``-O``, so that ``assert`` statements are stripped."""
    src = str(Path(cdcmip.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-O", *argv], env=env, capture_output=True, text=True)


def test_verify_passes_under_optimization(tmp_path):
    res = run_optimized("-m", "cdcmip.cli", "verify", family_file(tmp_path, SOS2_5))
    assert res.returncode == 0, res.stderr
    assert res.stdout == "support_validity: pass\nideal: pass\n"


BROKEN_IB = """
import sys
from cdcmip import cli

build = cli.BUILDERS["ib"]

def without_a_biclique_row(family):
    f = build(family)
    f.constraints = [c for c in f.constraints if c.name != "a_2"]
    return f

cli.BUILDERS["ib"] = without_a_biclique_row
sys.exit(cli.main(["formulate", sys.argv[1], "--verify"]))
"""


def test_formulate_verify_catches_a_dropped_row_under_optimization(tmp_path):
    res = run_optimized("-c", BROKEN_IB, family_file(tmp_path, SOS2_5))
    assert res.returncode == 4, res.stderr
    assert "support_validity: fail" in res.stderr
