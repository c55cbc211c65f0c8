"""Tests for the command-line interface.

Runs main() in process, captures stdout, and checks: JSON outputs parse and
are byte-identical across repeat invocations; exit codes follow the
0 (ok) / 1 (usage) / 2 (verification failure) / 3 (engine disagreement)
contract; values agree with the library routines.
"""

import importlib.metadata
import json
import os
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path

import pytest

import partperm
from partperm import (
    Polynomial,
    nvol_poly,
    oracle_domain,
    pp_facets,
    pp_vertex_count,
    pp_vertices,
)
from partperm.cli import COMMANDS, main, verify_suite


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


def test_faces_records_are_the_library_records(capsys):
    from partperm import face_records

    code, out, _ = run_cli(capsys, "faces", "--m", "3", "--n", "3")
    assert code == 0
    got = [json.loads(line) for line in out.splitlines()]
    assert got == [{"chain": [sorted(a) for a in c], "dimension": dim,
                    "vertex_count": count} for c, dim, count in face_records(3, 3)]


@pytest.mark.parametrize("m,n", [(5, 5), (6, 2), (3, 6)])
def test_faces_writer_lines_are_the_encoded_records(capsys, m, n):
    # the writer assembles each line from cached member text; every line
    # must equal the record encoded whole, in both formats
    from partperm import face_records

    records = list(face_records(m, n))
    code, out, _ = run_cli(capsys, "faces", "--m", str(m), "--n", str(n))
    assert code == 0
    assert out.splitlines() == [
        json.dumps({"chain": [sorted(a) for a in c], "dimension": dim,
                    "vertex_count": count}, sort_keys=True, separators=(",", ":"))
        for c, dim, count in records]
    code, out, _ = run_cli(capsys, "faces", "--m", str(m), "--n", str(n),
                           "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        f"{dim},{count}," + "<".join("{" + " ".join(map(str, sorted(a))) + "}" for a in c)
        for c, dim, count in records]


@pytest.mark.parametrize("cmd", ["faces", "volume"])
def test_format_offers_only_what_the_subcommand_writes(capsys, cmd):
    code, out, err = run_cli(capsys, cmd, "--m", "2", "--n", "1", "--format", "tex")
    assert code == 1 and out == ""
    assert "--format" in err and "'tex'" in err
    code, out, _ = run_cli(capsys, cmd, "--m", "2", "--n", "1", "--format", "csv")
    assert code == 0 and not out.startswith("{")


@pytest.mark.parametrize("cmd,fmt", [("hpoly", "csv"), ("hpoly", "tex"),
                                     ("volume", "csv"), ("ehrhart", "csv"),
                                     ("ehrhart", "tex")])
def test_all_methods_refuses_a_non_json_format(capsys, cmd, fmt):
    code, out, err = run_cli(capsys, cmd, "--m", "2", "--n", "2",
                             "--all-methods", "--format", fmt)
    assert code == 1 and out == ""
    assert "usage error" in err and "--all-methods" in err and f"--format {fmt}" in err
    code, out, _ = run_cli(capsys, cmd, "--m", "2", "--n", "2",
                           "--all-methods", "--format", "json")
    assert code == 0 and json.loads(out)["agree"] is True


@pytest.mark.parametrize("fmt", ["csv", "tex"])
def test_eval_refuses_a_non_json_format(capsys, fmt):
    # csv and tex have no place for the value, so it is refused, not dropped
    code, out, err = run_cli(capsys, "ehrhart", "--m", "3", "--n", "3",
                             "--eval", "2", "--format", fmt)
    assert code == 1 and out == ""
    assert "usage error" in err and "--eval" in err and f"--format {fmt}" in err
    code, out, _ = run_cli(capsys, "ehrhart", "--m", "3", "--n", "3", "--eval", "2")
    assert code == 0 and json.loads(out)["value_at_t"] == "272"


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


def test_fvector_work_bound_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "fvector", "--m", "5000", "--n", "1")
    assert code == 1
    assert out == ""
    assert "F_VECTOR_WORK_MAX" in err


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


def test_hpoly_method_reads_the_engine_table(capsys):
    code, out, err = run_cli(capsys, "hpoly", "--m", "3", "--n", "2",
                             "--method", "stellohedron")
    assert code == 1
    assert out == ""
    assert err == ("usage error: method 'stellohedron' not applicable at "
                   "(m,n)=(3,2); applicable: from_f, closed, orientation\n")
    # from_f is the default wherever it applies; beyond the f-vector work
    # bound the first covering method answers
    code, out, _ = run_cli(capsys, "hpoly", "--m", "5000", "--n", "1")
    assert code == 0
    data = json.loads(out)
    assert data["method"] == "closed" and data["h_at_1"] == 5001
    code, out, err = run_cli(capsys, "hpoly", "--m", "5000", "--n", "1",
                             "--method", "from_f")
    assert code == 1
    assert "usage error: method 'from_f' not applicable at (m,n)=(5000,1)" in err


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


def test_package_holds_no_assert_statement():
    # exactness checks raise EngineDisagreement: python -O strips asserts
    import ast

    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(partperm.__file__).resolve().parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_hpoly_no_engine_is_usage_error(capsys):
    # (600,599): above the f-vector, closed-form and vertex-listing work
    # bounds, and n < m rules out the stellohedron form
    for extra in ((), ("--all-methods",)):
        code, out, err = run_cli(capsys, "hpoly", "--m", "600", "--n", "599", *extra)
        assert code == 1
        assert out == ""
        assert "no exact h-polynomial engine covers (m,n)=(600,599)" in err


def test_hpoly_200_150_takes_the_closed_route(capsys):
    code, out, _ = run_cli(capsys, "hpoly", "--m", "200", "--n", "150")
    assert code == 0
    data = json.loads(out)
    assert data["method"] == "closed"
    assert data["palindromic"] is True
    assert data["h_at_1"] == pp_vertex_count(200, 150)
    assert sum(int(c) for c in data["coefficients"]) == pp_vertex_count(200, 150)


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
# The command table's parse loop


def test_flag_equals_value_and_last_repeat_wins(capsys):
    _, want, _ = run_cli(capsys, "volume", "--m", "3", "--n", "3", "--method", "closed")
    code, out, _ = run_cli(capsys, "volume", "--m=3", "--n=3", "--method=closed")
    assert code == 0 and out == want
    code, out, _ = run_cli(capsys, "volume", "--m", "5", "--n", "3", "--m=3",
                           "--method", "oracle", "--method", "closed")
    assert code == 0 and out == want


def test_unique_prefix_names_its_flag(capsys):
    _, want, _ = run_cli(capsys, "volume", "--m", "3", "--n", "3", "--all-methods")
    code, out, _ = run_cli(capsys, "volume", "--m", "3", "--n", "3", "--all")
    assert code == 0 and out == want
    code, out, _ = run_cli(capsys, "verify", "--s", "conjectures")
    assert code == 0 and json.loads(out.splitlines()[-1])["summary"] == "PASS"


@pytest.mark.parametrize("argv", [("--max", "3"), ("--max=3",)])
def test_ambiguous_prefix_names_both_flags(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 1
    assert out == ""
    assert err == (f"usage error: ambiguous option: {argv[0]} could match "
                   "--max-m, --max-n\n")


def test_negative_value_after_eval(capsys):
    p = partperm.EHRHART_ENGINES["interpolate"].value(2, 2)
    for argv in (("--eval", "-2"), ("--eval=-2",)):
        code, out, _ = run_cli(capsys, "ehrhart", "--m", "2", "--n", "2", *argv)
        assert code == 0
        assert json.loads(out)["value_at_t"] == str(p(-2))


@pytest.mark.parametrize("argv,message", [
    (("volume",), "the following arguments are required: --m, --n"),
    (("table", "--max-m", "2"), "the following arguments are required: --which"),
    (("frobnicate",), "argument command: invalid choice: 'frobnicate' (choose from "
                      "'vertices', 'facets', 'faces', 'fvector', 'hpoly', 'volume', "
                      "'ehrhart', 'verify', 'table')"),
    ((), "the following arguments are required: command"),
    (("volume", "--m", "3", "--n", "3", "--method"), "argument --method: expected one argument"),
    (("volume", "--m", "3", "--n", "3", "--all-methods=yes"),
     "argument --all-methods: ignored explicit argument 'yes'"),
    (("ehrhart", "--m", "2", "--n", "2", "--eval", "x"), "argument --eval: invalid int value: 'x'"),
])
def test_usage_errors_keep_their_text(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"usage error: {message}\n"


@pytest.mark.parametrize("argv", [("-h",), ("--help",), ("--he",)])
def test_top_level_help_lists_every_command(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert err == ""
    listed = [line.split()[0] for line in out.split("commands:\n")[1].split("\n\n")[0].splitlines()]
    assert listed == list(COMMANDS) == ["vertices", "facets", "faces", "fvector", "hpoly",
                                        "volume", "ehrhart", "verify", "table"]


def test_command_help_lists_each_flag_with_its_choices(capsys):
    code, out, err = run_cli(capsys, "volume", "-h")
    assert code == 0
    assert err == ""
    rows = out.split("flags:\n")[1]
    for flag in ("-h, --help", "--m M", "--n N", "--format {json,csv}", "--all-methods",
                 "--method {" + ",".join(partperm.VOLUME_ENGINES) + "}"):
        assert f"\n  {flag}" in "\n" + rows, flag
    # help is printed before the required flags are checked, as argparse does
    code, out2, _ = run_cli(capsys, "volume", "--m", "3", "--help")
    assert code == 0 and out2 == out


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["partperm", "fvector", "--m", "2", "--n", "2"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["f_vector"] == [5, 5, 1]


# --------------------------------------------------------------------------
# Output above the interpreter's 4,300-digit limit; engine work bounds


def _text(value: int) -> str:
    """value in decimal, above the interpreter's digit limit too."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(value)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("m,n,method,digits", [
    (1010, 1010, "three_term", 5632),
    (5000, 4, "small_n", 5000),
])
def test_volume_above_4300_digits_prints_exactly(capsys, m, n, method, digits):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run_cli(capsys, "volume", "--m", str(m), "--n", str(n),
                             "--method", method)
    assert code == 0, err
    value = _text(partperm.VOLUME_ENGINES[method].value(m, n))
    assert len(value) == digits
    assert out == f'{{"m":{m},"method":"{method}","n":{n},"value":{value}}}\n'
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_digit_limit_is_restored_after_errors(capsys, monkeypatch):
    import partperm.cli as cli

    if not hasattr(sys, "set_int_max_str_digits"):
        return  # Python before 3.10.7 has no limit to restore
    limit = sys.get_int_max_str_digits()
    for argv in (("volume", "--m", "0", "--n", "3"),                 # a bad flag
                 ("volume", "--m", "8", "--n", "5"),                 # no engine
                 ("faces", "--m", "30", "--n", "2")):                # a work bound
        assert run_cli(capsys, *argv)[0] == 1
        assert sys.get_int_max_str_digits() == limit
    monkeypatch.setattr(cli, "OUTPUT_DIGITS_MAX", 1000)
    code, out, err = run_cli(capsys, "volume", "--m", "1010", "--n", "1010",
                             "--method", "three_term")
    assert code == 1
    assert out == ""
    assert err == ("usage error: an output value has more than "
                   "OUTPUT_DIGITS_MAX = 1000 digits\n")
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("argv,message", [
    (("volume", "--m", "2000", "--n", "2000", "--method", "closed"),
     "method 'closed' not applicable at (m,n)=(2000,2000); applicable: three_term"),
    (("volume", "--m", "1000", "--n", "1000", "--method", "recursive"),
     "method 'recursive' not applicable at (m,n)=(1000,1000); applicable: closed, three_term"),
    (("volume", "--m", "10000", "--n", "10000"),
     "no exact volume engine covers (m,n)=(10000,10000)"),
    (("volume", "--m", "100", "--n", "1" + "0" * 4000),
     "no exact volume engine covers (m,n)=(100,1" + "0" * 4000 + ")"),
    (("ehrhart", "--m", "2000", "--n", "2", "--method", "small_n"),
     "no exact Ehrhart engine covers (m,n)=(2000,2)"),
])
def test_work_bounds_refuse_up_front(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 1
    assert out == ""
    assert err == f"usage error: {message}\n"


def test_ehrhart_eval_refuses_an_oversized_value_up_front(capsys):
    # ehr(t) of P(300,3) at 4,000 nines has about 1.2 million digits; the
    # lower bound |ehr(t)| >= |C(t+m,m)| refuses it before any evaluation
    nines = "9" * 4000
    for argv in (("--method", "small_n", "--eval", nines),
                 ("--all-methods", "--eval", nines),
                 ("--all-methods", "--eval", "-" + nines)):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "ehrhart", "--m", "300", "--n", "3", *argv)
        assert time.perf_counter() - start < 0.5
        assert code == 1
        assert out == ""
        assert err == ("usage error: the value at --eval has more than OUTPUT_DIGITS_MAX = "
                       "131072 digits: P(300,3) contains the simplex P(300,1), so "
                       "|ehr(t)| >= |C(t+m,m)|\n")
    # P(m,0) is a point: ehr(t) = 1 at every t
    code, out, _ = run_cli(capsys, "ehrhart", "--m", "300", "--n", "0", "--eval", nines)
    assert code == 0
    assert json.loads(out)["value_at_t"] == "1"


def _first_refused(m, n, sign, digits):
    """The smallest s >= 0 at which the --eval bound refuses t = sign * s."""
    import partperm.cli as cli

    hi = 1
    while not cli._eval_exceeds(m, n, sign * hi, digits):
        hi *= 2
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        if cli._eval_exceeds(m, n, sign * mid, digits):
            hi = mid
        else:
            lo = mid + 1
    return lo


@pytest.mark.parametrize("m,n", [(1, 1), (1, 4), (2, 3), (3, 6), (5, 2), (6, 1)])
def test_ehrhart_eval_bound_never_refuses_a_value_that_fits(capsys, monkeypatch, m, n):
    import partperm.cli as cli

    digits = 1000  # the interpreter takes no digit limit below 641
    monkeypatch.setattr(cli, "OUTPUT_DIGITS_MAX", digits)
    table = partperm.EHRHART_ENGINES
    p = table[cli._methods(table, m, n)[0]].value(m, n)  # the one --eval reads
    for sign in (1, -1):
        first = _first_refused(m, n, sign, digits)
        ts = {sign * s for s in range(max(first - 3, 0), first + 4)}
        ts |= {sign * 10 ** e + d for e in range(0, 2 * digits, 7) for d in (-1, 0, 1)}
        for t in ts:
            if cli._eval_exceeds(m, n, t, digits):
                assert abs(p(t)) >= 10 ** digits, (m, n, t)
        # both sides through the CLI: the largest |t| whose value fits is
        # answered, and the first t the bound names is refused up front
        lo, hi = 0, first  # the value at sign * hi has more than digits digits
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if abs(p(sign * mid)) < 10 ** digits else (lo, mid)
        fit = lo
        code, out, err = run_cli(capsys, "ehrhart", "--m", str(m), "--n", str(n),
                                 "--eval", str(sign * fit))
        assert code == 0, err
        assert json.loads(out)["value_at_t"] == str(p(sign * fit))
        assert len(str(abs(p(sign * (fit + 1))))) > digits
        code, out, err = run_cli(capsys, "ehrhart", "--m", str(m), "--n", str(n),
                                 "--eval", str(sign * first))
        assert code == 1 and out == ""
        assert err.startswith("usage error: the value at --eval has more than "
                              "OUTPUT_DIGITS_MAX = 1000 digits")


def test_all_methods_drops_the_engines_over_their_bounds(capsys):
    code, out, _ = run_cli(capsys, "volume", "--m", "400", "--n", "400", "--all-methods")
    assert code == 0
    data = json.loads(out)
    assert list(data["values"]) == ["closed", "three_term"]
    assert data["agree"] is True


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
def test_method_choices_are_the_engine_table(capsys, command, table):
    code, out, err = run_cli(capsys, command, "--m", "2", "--n", "2",
                             "--method", "bogus")
    assert code == 1
    assert out == ""
    choices = ", ".join(repr(name) for name in table)
    assert err == (f"usage error: argument --method: invalid choice: 'bogus' "
                   f"(choose from {choices})\n")


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


def _engine_records(check, **grid):
    return {(r["params"]["m"], r["params"]["n"]): r
            for r in verify_suite("engines", **grid) if r["check"] == check}


def test_verify_engines_records_cover_every_shape_with_two_routes():
    volume = _engine_records("volume-engines-agree", max_m=12, max_n=14)
    ehrhart = _engine_records("ehrhart-engines-agree", max_m=12, max_n=14)
    for m in range(1, 13):
        for n in range(max(0, m - 1), 15):
            assert volume[m, n]["status"] == "pass", (m, n)
            assert ehrhart[m, n]["status"] == "pass", (m, n)
    # at n = 0 and in the wedge n < m-1, beside the oracle
    for shape in [(3, 0), (4, 1)]:
        assert volume[shape]["status"] == ehrhart[shape]["status"] == "pass"
    # one route alone is no record: (6,0) has only small_n
    assert (6, 0) not in volume and (6, 0) not in ehrhart


def test_verify_engines_runs_no_engine_that_is_a_shapes_only_route(monkeypatch):
    # small_n is the one volume and Ehrhart route at m >= 6, n <= 2: its
    # value there would be dropped, so it is never computed
    import partperm.ehrhart as EH
    import partperm.volume as VO

    calls = {"nvol_small_n": set(), "ehr_closed_small_n": set()}
    for module, name in [(VO, "nvol_small_n"), (EH, "ehr_closed_small_n")]:
        def counted(m, n, route=getattr(module, name), seen=calls[name]):
            seen.add((m, n))
            return route(m, n)
        monkeypatch.setattr(module, name, counted)
    volume = _engine_records("volume-engines-agree", max_m=12, max_n=2)
    ehrhart = _engine_records("ehrhart-engines-agree", max_m=12, max_n=2)
    alone = {(m, n) for m in range(6, 13) for n in range(3)}
    assert alone.isdisjoint(volume) and alone.isdisjoint(ehrhart)
    assert calls["nvol_small_n"] == set(volume)
    assert calls["ehr_closed_small_n"] == set(ehrhart)
    assert all(r["status"] == "pass" for r in (*volume.values(), *ehrhart.values()))


@pytest.mark.parametrize("route", ["ehr_recurrence", "ehr_conjecture", "nvol_closed"])
def test_verify_engines_compares_both_generating_function_forms(monkeypatch, route):
    # each generating function is read once, so a wrong coefficient in it is
    # caught only where the engines suite sets its route beside another
    import partperm.ehrhart as EH
    import partperm.volume as VO

    module, check = {"ehr": (EH, "ehrhart-engines-agree"),
                     "nvol": (VO, "volume-engines-agree")}[route.split("_")[0]]
    true_route = getattr(module, route)
    monkeypatch.setattr(module, route, lambda m, n: true_route(m, n) + 1)
    records = _engine_records(check, max_m=3, max_n=3)
    failed = sorted(shape for shape, r in records.items() if r["status"] == "fail")
    assert failed == [(m, n) for m in range(1, 4) for n in range(m - 1, 4)]
    name = route.split("_")[1]
    assert all(f"'{name}'" in records[shape]["detail"] for shape in failed)


def test_verify_conjectures_suite_holds_only_the_volume_fit():
    recs = list(verify_suite("conjectures", max_m=6, max_n=6))
    assert [(r["check"], r["params"]) for r in recs] == [
        ("volume-expansion-fit", {"n": 3}), ("volume-expansion-fit", {"n": 4})]


def test_verify_engines_census_stops_at_the_listing_bound(monkeypatch):
    import partperm.combinat as CB

    monkeypatch.setattr(CB, "DRACONIAN_LIST_MAX", 500)
    recs = [r for r in verify_suite("engines", max_m=6, max_n=0)
            if r["check"] == "draconian-census-matches-enumeration"]
    assert [(r["params"]["m"], r["params"]["mode"]) for r in recs] == [
        (m, mode) for m in range(1, 5) for mode in ("volume", "ehrhart")]


def test_verify_engines_refuses_a_grid_above_its_bound(capsys, monkeypatch):
    import partperm.cli as CLI

    # refused before a shape of the grid is listed: 10^9 * 7 shapes
    monkeypatch.setattr(CLI, "_methods", lambda *args: pytest.fail("the grid started"))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--max-m", "1000000000")
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert "shapes = 7000000000" in err and "VERIFY_GRID_MAX" in err
    monkeypatch.undo()
    for max_m, max_n in [(4, 6), (5, 6), (12, 14), (200, 2)]:
        assert max_m * (max_n + 1) <= CLI.VERIFY_GRID_MAX
    # the bound is read at each call, and admits a grid of exactly its size
    monkeypatch.setattr(CLI, "VERIFY_GRID_MAX", 12)
    assert next(verify_suite("engines", max_m=4, max_n=2))["status"] == "pass"
    with pytest.raises(ValueError, match="shapes = 14, above the bound VERIFY_GRID_MAX"):
        next(verify_suite("engines", max_m=2, max_n=6))


def test_facets_listing_bound_is_an_error(capsys):
    # the row count of P(10^5,10^5) has about 30,000 digits; the bound
    # stops counting once passed
    for size in ("30", "100000"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "facets", "--m", size, "--n", size)
        assert time.perf_counter() - start < 1
        assert code == 1
        assert out == ""
        assert "FACET_LIST_MAX" in err and len(err) < 200


def test_verify_engines_pp_count_records_cover_the_oracle_domain():
    recs = [r for r in verify_suite("engines", max_m=6, max_n=7)
            if r["check"] == "pp-count-matches-generic"]
    assert [(r["params"]["m"], r["params"]["n"]) for r in recs] == [
        (m, n) for m in range(1, 7) for n in range(8) if oracle_domain(m, n)]
    assert all(r["status"] == "pass" for r in recs)


def test_verify_engines_pp_count_record_compares_interior_counts(monkeypatch):
    import partperm.cli as CLI

    true_count = CLI.pp_count

    def off_inside(m, n, t, interior=False):
        return true_count(m, n, t, interior) + (interior and (m, n, t) == (3, 2, 2))

    monkeypatch.setattr(CLI, "pp_count", off_inside)
    recs = [r for r in verify_suite("engines", max_m=3, max_n=3)
            if r["check"] == "pp-count-matches-generic"]
    failed = [r for r in recs if r["status"] == "fail"]
    assert [r["params"] for r in failed] == [{"m": 3, "n": 2}]
    inside = true_count(3, 2, 2, True)
    assert f"2: ({inside + 1}, {inside})" in failed[0]["detail"]
    assert "'interior'" in failed[0]["detail"]
    assert all("detail" not in r for r in recs if r["status"] == "pass")


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


# --------------------------------------------------------------------------
# No parser library; a closed pipe


def _run_script(script, *args, **kwargs):
    src = str(Path(partperm.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.Popen([sys.executable, "-c", textwrap.dedent(script), *args],
                            env=env, text=True, **kwargs)


def test_import_loads_neither_argparse_nor_gettext():
    proc = _run_script("""
        import sys
        import partperm, partperm.cli
        loaded = sorted({"argparse", "gettext"} & set(sys.modules))
        assert not loaded, loaded
        assert partperm.cli.main(["fvector", "--m", "2", "--n", "2"]) == 0
        assert not {"argparse", "gettext"} & set(sys.modules)
    """, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err


def test_consecutive_main_calls_share_no_state(capsys):
    code, out, _ = run_cli(capsys, "ehrhart", "--m", "2", "--n", "2", "--eval", "3")
    assert code == 0 and "value_at_t" in json.loads(out)
    code, out, _ = run_cli(capsys, "ehrhart", "--m", "2", "--n", "2")
    assert code == 0 and "value_at_t" not in json.loads(out)
    code, out, _ = run_cli(capsys, "hpoly", "--m", "3", "--n", "3", "--method", "closed")
    assert code == 0 and json.loads(out)["method"] == "closed"
    code, _, err = run_cli(capsys, "hpoly", "--m", "3", "--n", "3", "--method", "nope")
    assert code == 1 and "usage error" in err
    code, out, _ = run_cli(capsys, "hpoly", "--m", "3", "--n", "3")
    assert code == 0 and json.loads(out)["method"] == "from_f"
    code, out, _ = run_cli(capsys, "faces", "--m", "2", "--n", "2", "--format", "csv")
    assert code == 0 and not out.startswith("{")
    code, out, _ = run_cli(capsys, "faces", "--m", "2", "--n", "2")
    assert code == 0 and all(line.startswith("{") for line in out.splitlines())


def test_closed_pipe_exits_quietly():
    proc = _run_script(
        "import sys; from partperm.cli import main; sys.exit(main(sys.argv[1:]))",
        "faces", "--m", "7", "--n", "3",
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()  # the reader goes away after one line, as `head -1` does
    err = proc.stderr.read()
    proc.stderr.close()
    proc.wait(timeout=60)
    assert json.loads(first) == {"chain": [[]], "dimension": 0, "vertex_count": 1}
    assert err == ""
    assert proc.returncode == 1


def test_broken_pipe_without_a_file_descriptor_propagates(monkeypatch):
    # in-process callers capture stdout in a StringIO: nothing to redirect
    import io
    from contextlib import redirect_stdout

    import partperm.faces as FA

    def closed(m, n):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(FA, "f_vector", closed)
    with redirect_stdout(io.StringIO()), pytest.raises(BrokenPipeError):
        main(["fvector", "--m", "2", "--n", "2"])
