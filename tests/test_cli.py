import argparse
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cdcmip
from cdcmip import cli
from cdcmip.cli import main, make_parser
from conftest import triangle_strip
from helpers import counted_verify_cover

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


def _ib_formulate_checks(tmp_path, capsys, monkeypatch) -> int:
    """How many times ``formulate --formulation ib`` calls ``verify_cover``, at any binding."""
    calls = counted_verify_cover(monkeypatch)
    code, out, _ = run(capsys, "formulate", family_file(tmp_path, SOS2_5), "--formulation", "ib")
    assert code == 0 and "Subject To" in out
    return len(calls)


def test_formulate_ib_verifies_its_cover_once(tmp_path, capsys, monkeypatch):
    assert _ib_formulate_checks(tmp_path, capsys, monkeypatch) == 1


def test_formulate_ib_count_sees_a_second_check_inside_formulate(tmp_path, capsys, monkeypatch):
    # Composing the two public calls checks once more, through formulate's
    # own binding of verify_cover: the once-test above would fail on it.
    monkeypatch.setattr(cli, "build_ib", lambda fam: cdcmip.build_ib_from_cover(fam, cdcmip.heuristic_cover(fam)))
    assert _ib_formulate_checks(tmp_path, capsys, monkeypatch) == 2


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


def test_formulate_exits_4_when_the_disjoint_cover_misses_its_count(tmp_path, capsys, monkeypatch):
    from cdcmip import formulate
    from helpers import padded_tree_cover

    monkeypatch.setattr(formulate, "tree_cover", padded_tree_cover)
    code = main(["formulate", family_file(tmp_path, TRIANGLE), "--formulation", "ext-disjoint"])
    assert code == 4 and "logarithmic count" in capsys.readouterr().err


def test_sosk_subcommand(tmp_path, capsys):
    code, out, err = run(capsys, "sosk", "--n", "5", "--k", "2", "--bounds")
    assert code == 0
    assert out.count("\n z_") == 2
    assert "ours=2" in err and "kis_horvath=5" in err


def test_sosk_size_guard_exits_3_before_building(capsys, monkeypatch):
    def refuse(n, k):
        raise AssertionError("built past the guard")

    monkeypatch.setattr(cli, "build_sosk", refuse)
    monkeypatch.setattr(cli, "build_sosk_kis", refuse)
    for form in ("sosk", "kis"):
        code, out, err = run(capsys, "sosk", "--n", "26", "--k", "2", "--formulation", form)
        assert (code, out) == (3, "")
        assert "--max-ground 25" in err and "26" in err
    monkeypatch.undo()
    code, out, _ = run(capsys, "sosk", "--n", "26", "--k", "2", "--max-ground", "26")
    assert code == 0 and out.endswith("End\n")


def test_geom_size_guards_exit_3_before_pooling(tmp_path, capsys, monkeypatch):
    def refuse(partition):
        raise AssertionError("pooled past the guard")

    monkeypatch.setattr(cli, "partition_to_cdc", refuse)
    monkeypatch.setattr(cli, "savings_report", refuse)
    # Two triangles on four distinct vertices.
    path = family_file(tmp_path, '{"polygons": [[[0, 0], [2, 0], [1, 1]], [[0, 0], [1, 1], [-1, 1]]]}')
    for action in ("analyze", "savings"):
        for flags, named in (
            (["--max-sets", "1"], "--max-sets 1"),
            (["--max-ground", "3"], "--max-ground 3"),
            (["--max-sets", "1", "--max-ground", "1"], "--max-sets 1"),
        ):
            code, out, err = run(capsys, "geom", action, path, *flags)
            assert (code, out) == (3, "")
            assert named in err
    monkeypatch.undo()
    for action in ("analyze", "savings"):
        code, _, _ = run(capsys, "geom", action, path, "--max-sets", "2", "--max-ground", "4")
        assert code == 0
    code, _, err = run(capsys, "geom", "analyze", strip_file(tmp_path, 24))
    assert code == 3 and "26 distinct vertices exceed --max-ground 25" in err
    code, _, _ = run(capsys, "geom", "analyze", strip_file(tmp_path, 23))
    assert code == 0


def test_formulate_help_wraps_at_columns_minus_two(capsys, monkeypatch):
    texts = []
    for columns in (60, 100):
        monkeypatch.setenv("COLUMNS", str(columns))
        with pytest.raises(SystemExit):
            main(["formulate", "--help"])
        text = capsys.readouterr().out
        # The same text as argparse's own formatter, which reads the width itself.
        formulate = make_parser()._subparsers._group_actions[0].choices["formulate"]
        formulate.formatter_class = argparse.HelpFormatter
        assert text == formulate.format_help()
        # Only the unbreakable --formulation choices run past the width.
        assert max(len(line) for line in text.splitlines() if "{" not in line) <= columns - 2
        texts.append(text)
    assert "instead of\n" in texts[0] and "instead of stdout" in texts[1]


def test_main_builds_its_parser_once_and_not_at_import(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    # The fresh module replaces the package's `cli` attribute; put the old one back after.
    monkeypatch.setattr(cdcmip, "cli", cli)
    monkeypatch.delitem(sys.modules, "cdcmip.cli")
    fresh = importlib.import_module("cdcmip.cli")
    assert fresh is not cli and built == []
    monkeypatch.setenv("COLUMNS", "80")
    assert fresh.main(["sosk", "--n", "5", "--k", "2"]) == 0
    assert len(built) == 8  # the root parser and its seven subcommands
    built.clear()
    assert fresh.main(["analyze", family_file(tmp_path, SOS2_5)]) == 0
    assert built == []
    monkeypatch.setenv("COLUMNS", "100")
    assert fresh.main(["analyze", family_file(tmp_path, SOS2_5)]) == 0
    assert built == []
    capsys.readouterr()


def test_reused_parser_leaks_no_state_between_calls(tmp_path, capsys, monkeypatch):
    path = family_file(tmp_path, SOS2_5)
    sequence = [
        ["formulate", path, "--format", "json", "--verify"],
        ["formulate", path],
        ["sosk", "--n", "7", "--k", "3", "--bounds"],
        ["sosk", "--n", "7", "--k", "3"],
        ["formulate", path, "--format", "xml"],
        ["formulate", path],
    ]

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    monkeypatch.setenv("COLUMNS", "80")
    cli._parser.cache_clear()
    together = [call(argv) for argv in sequence]
    assert (cli._parser.cache_info().misses, cli._parser.cache_info().hits) == (1, 5)
    alone = []
    for argv in sequence:
        cli._parser.cache_clear()
        alone.append(call(argv))
    assert together == alone
    assert [code for code, _, _ in together] == [0, 0, 0, 0, 2, 0]
    assert together[0][2] == "support_validity: pass\n"
    assert "binaries: ours=" in together[2][2]
    assert "invalid choice: 'xml'" in together[4][2]
    for code, out, err in (together[1], together[3], together[5]):
        assert out.endswith("End\n") and err == ""
    assert together[1] == together[5]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["analyze", "MISSING", "--max-sets", "-1"], "--max-sets"),
        (["analyze", "MISSING", "--max-ground", "-1"], "--max-ground"),
        (["sosk", "--n", "5", "--k", "2", "--max-ground", "-1"], "--max-ground"),
        (["geom", "savings", "MISSING", "--max-sets", "-3"], "--max-sets"),
        (["verify", "--random", "-2"], "--random"),
    ],
    ids=["analyze-max-sets", "analyze-max-ground", "sosk-max-ground", "geom-max-sets", "verify-random"],
)
def test_negative_size_flags_exit_2_at_parse_time(tmp_path, capsys, argv, flag):
    # The input does not exist: a flag checked after reading would report that instead.
    argv = [str(tmp_path / "missing.json") if a == "MISSING" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    value = argv[argv.index(flag) + 1]
    assert captured.err.endswith(f"error: argument {flag}: needs a count >= 0, got {value}\n")


def test_verify_refuses_a_file_with_random(tmp_path, capsys):
    path = family_file(tmp_path, SOS2_5)
    for count in ("5", "0"):
        code, out, err = run(capsys, "verify", "--random", count, path)
        assert (code, out) == (2, "")
        assert err == "error: pass a family JSON file or --random, not both\n"


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


def test_verify_random_draws_within_the_named_caps(capsys, monkeypatch):
    drawn = []
    real = cli.IndexSetFamily

    def recorded(sets):
        family = real(sets)
        drawn.append(family)
        return family

    monkeypatch.setattr(cli, "IndexSetFamily", recorded)
    flags = ["--random", "60", "--seed", "3", "--max-sets", "9", "--max-ground", "20"]
    code, _, _ = run(capsys, "verify", *flags)
    assert code == 0 and len(drawn) == 60
    assert max(map(len, drawn)) == cli.RANDOM_MAX_SETS == 6
    assert max(len(set().union(*f.sets)) for f in drawn) <= cli.RANDOM_MAX_GROUND == 10
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit):
        make_parser().parse_args(["verify", "--help"])
    help_line = " ".join(capsys.readouterr().out.split())
    assert "each of at most 6 sets over at most 10 indices" in help_line


def test_verify_random_zero_prints_an_empty_report(capsys):
    code, out, err = run(capsys, "verify", "--random", "0")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"agreements": 0, "random_families": 0}


@pytest.mark.parametrize(
    "flags, code",
    [
        (["--max-ground", "3"], 0),
        (["--max-ground", "4"], 0),
        (["--max-ground", "1"], 2),
        (["--max-sets", "0"], 2),
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


def test_geom_vertex_objects_exit_2(tmp_path, capsys):
    objects = '{"x": 0, "y": 0}, {"x": 1, "y": 0}, {"x": 0, "y": 1}'
    for vertices in (objects, "[0, 0], [1, 0, 0], [0, 1]"):
        path = family_file(tmp_path, f'{{"polygons": [[{vertices}]]}}')
        for action in ("analyze", "savings"):
            code, out, err = run(capsys, "geom", action, path)
            assert code == 2 and out == "" and "point" in err and "Traceback" not in err


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


SHIFTED_RHS = """
import sys
from cdcmip import cli

build = cli.BUILDERS["naive"]

def selecting_two_sets(family):
    f = build(family)
    f.constraints = [c._replace(rhs=2) if c.name == "select" else c for c in f.constraints]
    return f

cli.BUILDERS["naive"] = selecting_two_sets
sys.exit(cli.main(["verify", sys.argv[1], "--formulation", "naive"]))
"""


def test_verify_catches_a_shifted_right_hand_side_under_optimization(tmp_path):
    res = run_optimized("-c", SHIFTED_RHS, family_file(tmp_path, SOS2_5))
    assert res.returncode == 4, res.stderr
    assert res.stdout.startswith("support_validity: fail\n")


def test_sosk_kis_route_and_bit_label_cover(tmp_path, capsys):
    code, out, _ = run(capsys, "sosk", "--n", "5", "--k", "2", "--formulation", "kis")
    assert code == 0 and out.startswith("\\ sosk_kis\n")
    cover = tmp_path / "cover.json"
    code, out, _ = run(capsys, "sosk", "--n", "5", "--k", "1", "--formulation", "kis", "--cover-out", str(cover))
    assert code == 0 and out.startswith("\\ sosk_kis\n")
    # Labels 1..5 split by the bits of v - 1: three bicliques.
    bicliques = json.loads(cover.read_text())["bicliques"]
    assert [sorted(map(sorted, (b["a"], b["b"]))) for b in bicliques] == [
        [[1, 3, 5], [2, 4]], [[1, 2, 5], [3, 4]], [[1, 2, 3, 4], [5]]
    ]


def test_small_exits_for_guards_and_missing_input(tmp_path, capsys):
    code, _, err = run(capsys, "analyze", family_file(tmp_path, SOS2_5), "--max-sets", "1")
    assert code == 3 and "4 sets exceed --max-sets 1" in err
    code, _, err = run(capsys, "verify")
    assert code == 2 and "pass a family JSON file or use --random" in err
    code, _, err = run(capsys, "geom", "savings", str(tmp_path / "missing.json"))
    assert code == 2 and "cannot read" in err
    with pytest.raises(SystemExit) as exc:
        main(["analyze", family_file(tmp_path, SOS2_5), "--max-sets", "x"])
    assert exc.value.code == 2 and "invalid int value: 'x'" in capsys.readouterr().err


def test_verify_random_exits_4_when_admission_and_brute_force_disagree(capsys, monkeypatch):
    monkeypatch.setattr(cli, "admits_junction_tree", lambda family: None)
    monkeypatch.setattr(cli, "brute_admits_junction_tree", lambda family: object())
    code, out, err = run(capsys, "verify", "--random", "3")
    assert code == 4 and out == ""
    assert "junction-tree admission disagrees with brute force" in err
