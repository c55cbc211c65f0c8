"""Tests for the command-line interface.

Runs main() in process, captures stdout, and checks: JSON outputs parse and
are byte-identical across repeat invocations; exit codes follow the
0 (ok) / 1 (usage) / 2 (verification failure) / 3 (engine disagreement)
contract; values agree with the library routines.
"""

import importlib.metadata
import json
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import partperm
from partperm import (
    Polynomial,
    nvol_poly,
    nvol_recursive,
    oracle_domain,
    pp_facets,
    pp_vertices,
)
from partperm.cli import _build_parser, main, verify_suite


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------
# vertices / facets / faces / fvector


def test_vertices_json(capsys):
    code, out, _ = run_cli(capsys, "vertices", "--m", "2", "--n", "2")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 5
    assert [0, 0] in data["vertices"]
    assert data["vertices"] == [list(p) for p in pp_vertices(2, 2).points]


def test_vertices_csv(capsys):
    code, out, _ = run_cli(capsys, "vertices", "--m", "2", "--n", "2",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert all(len(line.split(",")) == 2 for line in lines)


def test_facets_json(capsys):
    code, out, _ = run_cli(capsys, "facets", "--m", "3", "--n", "2")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 7
    rows = {(tuple(r["coeffs"]), r["rhs"]) for r in data["rows"]}
    assert rows == set(pp_facets(3, 2).rows)


def test_faces_json_lines(capsys):
    code, out, _ = run_cli(capsys, "faces", "--m", "2", "--n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11  # 5 + 5 + 1 faces of the pentagon
    recs = [json.loads(line) for line in lines]
    dims = sorted(r["dimension"] for r in recs)
    assert dims.count(0) == 5 and dims.count(1) == 5 and dims.count(2) == 1
    top = [r for r in recs if r["dimension"] == 2]
    assert top[0]["vertex_count"] == 5


def test_fvector_json(capsys):
    code, out, _ = run_cli(capsys, "fvector", "--m", "3", "--n", "3")
    assert code == 0
    data = json.loads(out)
    assert data["f_vector"] == [16, 24, 10, 1]
    assert data["euler"] == 1


def test_fvector_and_hpoly_need_no_chain_listing(capsys):
    code, out, _ = run_cli(capsys, "fvector", "--m", "11", "--n", "2")
    assert code == 0
    assert sum(json.loads(out)["f_vector"]) == 26601
    code, out, _ = run_cli(capsys, "hpoly", "--m", "30", "--n", "2")
    assert code == 0
    assert json.loads(out)["h_at_1"] == 1 + 30 + 30 * 29


def test_vertex_bound_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "vertices", "--m", "12", "--n", "12")
    assert code == 1
    assert out == ""
    assert "VERTEX_LIST_MAX" in err
    # --all-methods skips the orientation route where the vertices are refused
    code, out, _ = run_cli(capsys, "hpoly", "--m", "12", "--n", "12",
                           "--all-methods")
    assert code == 0
    data = json.loads(out)
    assert set(data["results"]) == {"from_f", "closed", "stellohedron"}
    assert data["agree"] is True


# --------------------------------------------------------------------------
# hpoly


def test_hpoly_default(capsys):
    code, out, _ = run_cli(capsys, "hpoly", "--m", "2", "--n", "2")
    assert code == 0
    data = json.loads(out)
    assert data["coefficients"] == ["1", "3", "1"]
    assert data["palindromic"] is True


def test_hpoly_all_methods(capsys):
    code, out, _ = run_cli(capsys, "hpoly", "--m", "3", "--n", "3",
                           "--all-methods")
    assert code == 0
    data = json.loads(out)
    assert data["agree"] is True
    assert set(data["results"]) == {"from_f", "closed", "orientation",
                                    "stellohedron"}
    assert len({tuple(v) for v in data["results"].values()}) == 1


def test_hpoly_stellohedron_excluded_when_inapplicable(capsys):
    code, out, _ = run_cli(capsys, "hpoly", "--m", "3", "--n", "2",
                           "--all-methods")
    assert code == 0
    data = json.loads(out)
    assert "stellohedron" not in data["results"]
    assert data["agree"] is True


# --------------------------------------------------------------------------
# volume


def test_volume_default(capsys):
    code, out, _ = run_cli(capsys, "volume", "--m", "3", "--n", "3")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 129


def test_volume_all_methods(capsys):
    code, out, _ = run_cli(capsys, "volume", "--m", "2", "--n", "2",
                           "--all-methods")
    assert code == 0
    data = json.loads(out)
    assert data["agree"] is True
    assert set(data["values"].values()) == {7}
    assert "oracle" in data["values"] and "draconian" in data["values"]


def test_volume_small_n_territory(capsys):
    # n < m-1: only the sculpting formulas apply
    code, out, _ = run_cli(capsys, "volume", "--m", "5", "--n", "2")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 3 ** 5 - 5
    assert data["method"] in {"small_n", "oracle"}


def test_volume_of_a_point(capsys):
    # P(m,0) is the origin; the n <= 4 formulas cover it
    code, out, _ = run_cli(capsys, "volume", "--m", "2", "--n", "0")
    assert code == 0
    assert json.loads(out)["value"] == 0
    code, out, _ = run_cli(capsys, "volume", "--m", "2", "--n", "0",
                           "--all-methods")
    assert code == 0
    assert json.loads(out)["values"] == {"oracle": 0, "small_n": 0}


def test_volume_at_p_1_0_offers_every_engine(capsys):
    # P(1,0) is the point 0 of the line; every n >= m-1 engine covers it
    code, out, _ = run_cli(capsys, "volume", "--m", "1", "--n", "0",
                           "--all-methods")
    assert code == 0
    assert json.loads(out)["values"] == {
        "oracle": 0, "recursive": 0, "closed": 0, "three_term": 0,
        "draconian": 0, "lambda": 0, "small_n": 0}
    code, out, _ = run_cli(capsys, "volume", "--m", "1", "--n", "0")
    assert json.loads(out)["method"] == "closed"


def test_volume_draconian_beyond_enumeration(capsys):
    code, out, _ = run_cli(capsys, "volume", "--m", "9", "--n", "10",
                           "--all-methods")
    assert code == 0
    data = json.loads(out)
    assert data["agree"] is True
    assert "draconian" in data["values"]


def test_volume_lambda_check_survives_python_O():
    # a fractional lambda sum is an engine fault even where python -O
    # strips assert statements
    script = textwrap.dedent("""
        import sys
        from fractions import Fraction
        import partperm.volume as VO
        from partperm.cli import main
        from partperm.exactmath import EngineDisagreement
        if sys.flags.optimize != 1:
            sys.exit(99)
        VO._nvol_rec = lambda m, n: Fraction(1, 2)
        try:
            VO.nvol_recursive(2, 2)
            sys.exit(98)
        except EngineDisagreement:
            pass
        VO.nvol_lambda = lambda m, n, lam=None: Fraction(1, 2)
        sys.exit(main(["volume", "--m", "2", "--n", "2", "--method", "lambda"]))
    """)
    src = str(Path(partperm.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert "engine disagreement" in proc.stderr
    assert "non-integral" in proc.stderr


def test_volume_no_engine_is_usage_error(capsys):
    # m = 8, n = 5: n > 4 rules out small_n, n < m-1 rules out the rest,
    # m > 5 rules out the oracle
    code, out, err = run_cli(capsys, "volume", "--m", "8", "--n", "5")
    assert code == 1
    assert "usage error" in err


def test_volume_inapplicable_method_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "volume", "--m", "4", "--n", "2",
                             "--method", "recursive")
    assert code == 1
    assert "not applicable" in err


# --------------------------------------------------------------------------
# ehrhart


def test_ehrhart_default(capsys):
    code, out, _ = run_cli(capsys, "ehrhart", "--m", "3", "--n", "2")
    assert code == 0
    data = json.loads(out)
    assert data["coefficients"] == ["1", "9/2", "15/2", "4"]


def test_ehrhart_eval(capsys):
    code, out, _ = run_cli(capsys, "ehrhart", "--m", "3", "--n", "3",
                           "--eval", "1")
    assert code == 0
    data = json.loads(out)
    assert data["value_at_t"] == "51"


def test_ehrhart_all_methods(capsys):
    code, out, _ = run_cli(capsys, "ehrhart", "--m", "2", "--n", "2",
                           "--all-methods")
    assert code == 0
    data = json.loads(out)
    assert data["agree"] is True
    assert set(data["results"]) == {"interpolate", "small_n", "small_m",
                                    "draconian"}


def test_ehrhart_of_a_point(capsys):
    code, out, _ = run_cli(capsys, "ehrhart", "--m", "3", "--n", "0",
                           "--all-methods")
    assert code == 0
    data = json.loads(out)
    assert data["agree"] is True
    assert data["results"] == {"interpolate": ["1"], "small_n": ["1"]}


def test_ehrhart_draconian_default_beyond_counting(capsys):
    # m = 7 is past the counting oracle; the draconian census covers it
    code, out, _ = run_cli(capsys, "ehrhart", "--m", "7", "--n", "7")
    assert code == 0
    data = json.loads(out)
    assert data["method"] == "draconian"
    assert data["coefficients"][0] == "1"
    code, _, err = run_cli(capsys, "ehrhart", "--m", "13", "--n", "13",
                           "--method", "draconian")
    assert code == 1


def test_ehrhart_method_selection(capsys):
    code, out, _ = run_cli(capsys, "ehrhart", "--m", "2", "--n", "5",
                           "--method", "small_m")
    assert code == 0
    data = json.loads(out)
    assert data["method"] == "small_m"
    assert data["coefficients"] == ["1", "19/2", "49/2"]


# --------------------------------------------------------------------------
# table


def test_table_volume_n(capsys):
    code, out, _ = run_cli(capsys, "table", "--which", "volume-n")
    assert code == 0
    data = json.loads(out)
    assert len(data["rows"]) == 7
    for row in data["rows"]:
        m = row["m"]
        assert row["coefficients"] == nvol_poly(m, "n").to_strings()


def test_table_volume_shifted(capsys):
    code, out, _ = run_cli(capsys, "table", "--which", "volume-N", "--max-m", "4")
    assert code == 0
    data = json.loads(out)
    assert len(data["rows"]) == 4
    assert data["rows"][3]["coefficients"] == ["954", "2064", "1224", "288", "24"]


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "--which", "volume-n",
                           "--max-m", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "1,0,1"
    assert lines[1] == "2,-1,0,2"
    assert lines[2] == "3,-6,-9,0,6"


def test_table_tex_smoke(capsys):
    code, out, _ = run_cli(capsys, "table", "--which", "volume-N",
                           "--max-m", "2", "--format", "tex")
    assert code == 0
    assert out.startswith("\\begin{tabular}")
    assert "\\end{tabular}" in out


# --------------------------------------------------------------------------
# determinism and exactness of the JSON encoding


@pytest.mark.parametrize(
    "argv",
    [
        ("vertices", "--m", "3", "--n", "2"),
        ("facets", "--m", "3", "--n", "3"),
        ("fvector", "--m", "3", "--n", "3"),
        ("hpoly", "--m", "3", "--n", "3", "--all-methods"),
        ("volume", "--m", "3", "--n", "3", "--all-methods"),
        ("ehrhart", "--m", "2", "--n", "2", "--all-methods"),
        ("table", "--which", "volume-n", "--max-m", "4"),
    ],
)
def test_output_byte_deterministic(capsys, argv):
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
    assert out1.strip()


def test_json_has_no_floats(capsys):
    # exact rationals are emitted as strings, never floats
    _, out, _ = run_cli(capsys, "ehrhart", "--m", "2", "--n", "2")
    assert "7/2" in out
    data = json.loads(out)

    def walk(x):
        if isinstance(x, float):
            raise AssertionError("float leaked into JSON output")
        if isinstance(x, dict):
            for v in x.values():
                walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)

    walk(data)


# --------------------------------------------------------------------------
# exit codes


def test_usage_error_unknown_flag(capsys):
    code, _, err = run_cli(capsys, "vertices", "--m", "2")  # missing --n
    assert code == 1


def test_usage_error_unknown_command(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 1


def test_bad_range_is_error_code_1(capsys):
    code, _, err = run_cli(capsys, "vertices", "--m", "0", "--n", "2")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("argv,flag", [
    (("volume", "--m", "0", "--n", "3"), "--m"),
    (("volume", "--m", "3", "--n", "-2"), "--n"),
    (("fvector", "--m", "two", "--n", "2"), "--m"),
    (("fvector", "--m", "3", "--n", "0"), "--n"),
    (("verify", "--suite", "engines", "--max-m", "0"), "--max-m"),
    (("table", "--which", "volume-n", "--max-m", "0"), "--max-m"),
    (("table", "--which", "volume-n", "--max-m", "-3"), "--max-m"),
])
def test_parser_names_the_bad_flag(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert f"argument {flag}:" in err


@pytest.mark.parametrize("argv", [
    ("ehrhart", "--m", "2", "--n", "2", "--parallel", "2"),
    ("verify", "--suite", "appendix", "--parallel", "2"),
])
def test_parallel_flag_is_gone(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "unrecognized arguments: --parallel 2" in err


# --------------------------------------------------------------------------
# --all-methods disagreements name every method and its value


def _rendered(coefficients):
    return Polynomial([Fraction(c) for c in coefficients]).render()


def test_volume_disagreement_names_every_value(capsys, monkeypatch):
    import partperm.volume as VO

    monkeypatch.setattr(VO, "nvol_recursive", lambda m, n: 1000)
    code, out, err = run_cli(capsys, "volume", "--m", "3", "--n", "3",
                             "--all-methods")
    assert code == 3
    values = json.loads(out)["values"]
    assert values["recursive"] == 1000 and values["oracle"] == 129
    assert "volume engines disagree at (m,n)=(3,3)" in err
    for method, value in values.items():
        assert f"{method} -> {value}" in err


def test_ehrhart_disagreement_names_every_value(capsys, monkeypatch):
    import partperm.ehrhart as EH

    monkeypatch.setattr(EH, "ehr_closed_small_n",
                        lambda m, n: Polynomial([1, 2, 3]))
    code, out, err = run_cli(capsys, "ehrhart", "--m", "2", "--n", "2",
                             "--all-methods")
    assert code == 3
    results = json.loads(out)["results"]
    assert set(results) == {"interpolate", "small_n", "small_m", "draconian"}
    assert "Ehrhart engines disagree at (m,n)=(2,2)" in err
    assert "small_n -> " + Polynomial([1, 2, 3]).render() in err
    for method, coefficients in results.items():
        assert f"{method} -> {_rendered(coefficients)}" in err


def test_hpoly_disagreement_names_every_value(capsys, monkeypatch):
    import partperm.faces as FA

    true_h_poly = FA.h_poly
    monkeypatch.setattr(FA, "h_poly", lambda m, n, method="from_f": (
        Polynomial([1, 1]) if method == "closed" else true_h_poly(m, n, method)))
    code, out, err = run_cli(capsys, "hpoly", "--m", "3", "--n", "3",
                             "--all-methods")
    assert code == 3
    results = json.loads(out)["results"]
    assert len(results) == 4
    assert "h-polynomial methods disagree at (m,n)=(3,3)" in err
    assert "closed -> " + Polynomial([1, 1]).render() in err
    for method, coefficients in results.items():
        assert f"{method} -> {_rendered(coefficients)}" in err


def test_hpoly_method_recurrence_is_gone(capsys):
    code, out, err = run_cli(capsys, "hpoly", "--m", "2", "--n", "2",
                             "--method", "recurrence")
    assert code == 1
    assert out == ""
    assert "argument --method:" in err


@pytest.mark.parametrize("command,table", [
    ("volume", partperm.VOLUME_ENGINES),
    ("ehrhart", partperm.EHRHART_ENGINES),
    ("hpoly", partperm.H_POLY_ENGINES),
])
def test_method_choices_are_the_engine_table(command, table):
    parser = _build_parser()
    sub = next(a for a in parser._actions if a.dest == "command").choices[command]
    method = next(a for a in sub._actions if a.dest == "method")
    assert list(method.choices) == list(table)


def test_chain_work_bound_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "faces", "--m", "30", "--n", "2")
    assert code == 1
    assert out == ""
    assert "CHAIN_WORK_MAX" in err


def test_verify_small_suite_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "faces",
                           "--max-m", "3", "--max-n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["summary"] == "PASS"
    assert summary["checks_run"] == len(lines) - 1
    for line in lines[:-1]:
        rec = json.loads(line)
        assert rec["status"] == "pass"


def test_verify_conjectures_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "conjectures",
                           "--max-m", "3", "--max-n", "3")
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["summary"] == "PASS"


def test_verify_faces_census_records():
    recs = [r for r in verify_suite("faces", max_m=6, max_n=3)
            if r["check"] == "f-vector-census-matches-enumeration"]
    assert [(r["params"]["m"], r["params"]["n"]) for r in recs] == [
        (m, n) for m in range(1, 5) for n in range(1, 4)]
    assert all(r["status"] == "pass" for r in recs)


def test_verify_engines_census_records():
    recs = [r for r in verify_suite("engines", max_m=3, max_n=3)
            if r["check"] == "draconian-census-matches-enumeration"]
    assert [(r["params"]["m"], r["params"]["mode"]) for r in recs] == [
        (m, mode) for m in (1, 2, 3) for mode in ("volume", "ehrhart")]
    assert all(r["status"] == "pass" for r in recs)


def test_verify_engines_pp_count_records_cover_the_oracle_domain():
    recs = [r for r in verify_suite("engines", max_m=6, max_n=7)
            if r["check"] == "pp-count-matches-generic"]
    assert [(r["params"]["m"], r["params"]["n"]) for r in recs] == [
        (m, n) for m in range(1, 7) for n in range(8) if oracle_domain(m, n)]
    assert all(r["status"] == "pass" for r in recs)


def test_oracle_methods_follow_the_oracle_domain(capsys):
    for m, n in [(5, 6), (6, 5), (5, 7), (2, 0)]:
        code, out, _ = run_cli(capsys, "volume", "--m", str(m), "--n", str(n),
                               "--all-methods")
        assert code == 0
        assert ("oracle" in json.loads(out)["values"]) == oracle_domain(m, n)


def test_verify_suite_generator_records():
    recs = list(verify_suite("faces", max_m=2, max_n=2))
    assert recs
    assert all(r["status"] == "pass" for r in recs)
    assert any(r["check"].startswith("f-vector") for r in recs)


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "bogus")
    assert code == 1


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def declared_scripts():
    """The ``[project.scripts]`` table that pyproject.toml declares."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: tomllib is 3.11+
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


def test_console_entry_point_matches_main():
    # Checks the declaration the repo ships rather than installed metadata,
    # so it also runs from a plain checkout on PYTHONPATH=src.
    scripts = declared_scripts()
    assert "partperm" in scripts
    assert scripts["partperm"] == "partperm.cli:main"
    ep = importlib.metadata.EntryPoint(
        name="partperm", value=scripts["partperm"], group="console_scripts")
    assert ep.load() is main


def test_installed_console_entry_point_matches_pyproject():
    try:
        dist = importlib.metadata.distribution("partperm")
    except importlib.metadata.PackageNotFoundError:
        pytest.skip("no installed partperm distribution to inspect")
    ours = [ep for ep in dist.entry_points
            if ep.group == "console_scripts" and ep.name == "partperm"]
    assert len(ours) == 1
    assert ours[0].value == declared_scripts()["partperm"]
