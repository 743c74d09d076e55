"""CLI behaviour: output formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from toricode.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN_LINES = [
    "q=5 P=triangle N=16 k=6 d=8 PASS",
    "q=8 P=triangle N=49 k=6 d=28 PASS",
    "q=5 P=prism N=64 k=12 d=24 PASS",
    "q=5 P=pyramid(triangle) N=64 k=7 d=32 PASS",
    "q=5 P=ex4 N=64 k=13 d=31 PASS",
]
TRIANGLE_JSON = {"n": 2, "vertices": [[1, 0], [0, 3], [3, 1]]}
SIMPLEX2_RECIPE = {"steps": [{"segment": 1}, {"pyramid_scale": 2}]}


@pytest.fixture
def triangle_path(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(TRIANGLE_JSON))
    return str(path)


@pytest.fixture
def recipe_path(tmp_path):
    path = tmp_path / "simplex2.json"
    path.write_text(json.dumps(SIMPLEX2_RECIPE))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_banner_and_counts(capsys, triangle_path):
    code, out, _ = run_cli(capsys, ["build", "--field", "5", "--polytope", triangle_path])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# GF(5) p=5 m=1 modulus=[0,1] generator=2"
    assert "vertices: [[0, 3], [1, 0], [3, 1]]" in lines[1]
    assert lines[2] == "q=5 n=2 k=6 N=16"


def test_build_emits_generator_matrix(capsys, tmp_path, triangle_path):
    gen_path = tmp_path / "gen.txt"
    code, _, _ = run_cli(
        capsys,
        ["build", "--field", "5", "--polytope", triangle_path,
         "--emit-generator", str(gen_path)],
    )
    assert code == 0
    lines = gen_path.read_text().splitlines()
    assert lines[0] == "5 2 6 16"
    assert len(lines) == 7
    # row of monomial (0,3): g^{3 j2} cycling with the inner torus index
    assert lines[1] == "1 3 4 2 1 3 4 2 1 3 4 2 1 3 4 2"
    # row of monomial (1,0): g^{j1} constant over the inner index
    assert lines[2] == "1 1 1 1 2 2 2 2 4 4 4 4 3 3 3 3"


def test_mindist_line_format(capsys, triangle_path):
    code, out, _ = run_cli(
        capsys, ["mindist", "--field", "5", "--polytope", triangle_path]
    )
    assert code == 0
    assert out == "N=16 k=6 d=8 method=isd exact=true witness=4,4,1,4,4,4\n"


def test_mindist_budget_below_first_level_is_an_error(capsys, triangle_path):
    # auto is the ISD, whose first level needs k N = 96 symbol operations
    code, out, err = run_cli(
        capsys, ["mindist", "--field", "5", "--polytope", triangle_path, "--budget", "20"]
    )
    assert code == 2 and out == ""
    assert err == "error: budget 20 cannot scan the weight-1 level\n"


def test_mindist_accepts_recipe_input(capsys, recipe_path):
    code, out, _ = run_cli(
        capsys, ["mindist", "--field", "5", "--recipe", recipe_path]
    )
    assert code == 0
    assert out.startswith("N=16 k=6 d=8 ")


def test_mindist_requires_exactly_one_input(capsys, triangle_path, recipe_path):
    code, _, err = run_cli(capsys, ["mindist", "--field", "5"])
    assert code == 2 and "required" in err
    code, _, err = run_cli(
        capsys,
        ["mindist", "--field", "5", "--polytope", triangle_path, "--recipe", recipe_path],
    )
    assert code == 2 and "exactly one" in err


def test_verify_pass(capsys, recipe_path):
    code, out, _ = run_cli(capsys, ["verify", "--field", "5", "--recipe", recipe_path])
    assert code == 0
    assert out == "q=5 N=16 k=6 formula_d=8 bruteforce_d=8 exact=true PASS\n"


def test_verify_invalid_recipe_for_field(capsys, recipe_path):
    # simplex scale 2 leaves K_3: factor q-1-k becomes nonpositive
    code, _, err = run_cli(capsys, ["verify", "--field", "3", "--recipe", recipe_path])
    assert code == 2
    assert "invalid over GF(3)" in err


def test_table_csv_schema_and_skips(capsys, recipe_path):
    code, out, _ = run_cli(
        capsys, ["table", "--field-range", "4..9", "--recipe", recipe_path]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "q,N,k,d,rel_d,rate,method,exact"
    assert len(lines) == 7
    assert lines[3] == "6,,,,,,skipped,"  # 6 is not a prime power
    assert lines[2] == "5,16,6,8,1/2,3/8,formula,true"


def test_table_builds_no_field(capsys, tmp_path):
    from toricode import gf

    path = tmp_path / "s1p1.json"
    path.write_text(json.dumps({"steps": [{"segment": 1}, {"pyramid_scale": 1}]}))
    cached = len(gf._FIELD_CACHE)
    code, out, _ = run_cli(capsys, ["table", "--field-range", "4..2000", "--recipe", str(path)])
    assert code == 0
    assert out.splitlines()[-1] == "2000,,,,,,skipped,"
    assert len(gf._FIELD_CACHE) == cached


def test_table_field_cap_is_an_error(capsys, recipe_path):
    code, out, err = run_cli(
        capsys, ["table", "--field-range", "65536..65537", "--recipe", recipe_path]
    )
    assert code == 2 and out == ""
    assert err == "error: q = 65537^1 exceeds the supported cap 65536\n"


def test_huge_field_exponent_is_one_error_line(capsys, triangle_path):
    code, out, err = run_cli(
        capsys, ["build", "--field", "2^10000000000", "--polytope", triangle_path]
    )
    assert code == 2 and out == ""
    assert err == "error: q = 2^10000000000 exceeds the supported cap 65536\n"


def test_emit_generator_over_the_size_cap_writes_nothing(capsys, tmp_path):
    recipe = tmp_path / "s1p1s1.json"
    recipe.write_text(json.dumps({"steps": [
        {"segment": 1}, {"pyramid_scale": 1}, {"segment": 1},
    ]}))
    gen_path = tmp_path / "gen.txt"
    code, out, err = run_cli(
        capsys,
        ["build", "--field", "257", "--recipe", str(recipe),
         "--emit-generator", str(gen_path)],
    )
    assert code == 2 and out == ""
    assert err == (
        "error: generator of 6 x 16777216 entries exceeds the cap 16777216\n"
    )
    assert not gen_path.exists()


@pytest.mark.parametrize("field", ["abc", "2^", "2^x"])
def test_malformed_field_is_one_error_line(capsys, triangle_path, field):
    code, out, err = run_cli(capsys, ["build", "--field", field, "--polytope", triangle_path])
    assert code == 2 and out == ""
    assert err == f"error: bad field '{field}'; expected p or p^m\n"


def test_table_bad_range(capsys, recipe_path):
    code, _, err = run_cli(capsys, ["table", "--field-range", "9", "--recipe", recipe_path])
    assert code == 2 and "field-range" in err


def test_json_error_reports_byte_offset(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "vertices": [[1, 0], ')
    code, _, err = run_cli(capsys, ["mindist", "--field", "5", "--polytope", str(bad)])
    assert code == 2
    assert "invalid JSON at byte" in err


@pytest.mark.parametrize(
    "flag,data",
    [
        ("--polytope", {"n": 2, "vertices": 5}),
        ("--polytope", {"n": 2, "vertices": [5, [1, 1]]}),
        ("--polytope", {"n": 2.9, "vertices": [[0, 0], [1, 0], [0, 1]]}),
        ("--recipe", {"steps": 3}),
        ("--recipe", {"steps": [{"segment": 1.5}]}),
        ("--recipe", {"steps": [{"segment": True}]}),
    ],
    ids=["vertices-int", "vertex-int", "n-float", "steps-int", "segment-float", "segment-bool"],
)
def test_malformed_json_is_one_error_line(capsys, tmp_path, flag, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, ["mindist", "--field", "5", flag, str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_examples_golden_lines(capsys):
    code, out, _ = run_cli(capsys, ["examples"])
    assert code == 0
    assert out.splitlines() == GOLDEN_LINES


def test_python_m_toricode_runs_examples():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "toricode", "examples"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == GOLDEN_LINES


def test_examples_deterministic_across_runs(capsys):
    _, out1, _ = run_cli(capsys, ["examples"])
    _, out2, _ = run_cli(capsys, ["examples"])
    assert out1 == out2


def test_out_flag_writes_file(capsys, tmp_path, triangle_path):
    out_path = tmp_path / "report.txt"
    code, out, _ = run_cli(
        capsys,
        ["mindist", "--field", "5", "--polytope", triangle_path, "--out", str(out_path)],
    )
    assert code == 0
    assert out == ""
    assert out_path.read_text().startswith("N=16 k=6 d=8")


@pytest.mark.parametrize("flag", ["--emit-generator", "--out"])
def test_missing_output_directory_is_an_error(capsys, tmp_path, triangle_path, flag):
    target = tmp_path / "missing" / "file.txt"
    code, _, err = run_cli(
        capsys, ["build", "--field", "5", "--polytope", triangle_path, flag, str(target)]
    )
    assert code == 2
    assert err.startswith(f"error: cannot write {target}: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["mindist", "verify"])
def test_failed_witness_check_is_one_error_line(capsys, monkeypatch, recipe_path, command):
    from toricode import mindist

    class WrongWeight:
        weight = -1

    # the search re-evaluates its witness; a mismatch raises AssertionError
    monkeypatch.setattr(mindist, "evaluate", lambda code, witness: WrongWeight())
    code, out, err = run_cli(capsys, [command, "--field", "5", "--recipe", recipe_path])
    assert code == 1 and out == ""
    assert err.startswith("error: internal check failed: witness weight -1 ")
    assert len(err.splitlines()) == 1
