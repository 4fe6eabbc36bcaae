import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kcone.cli import main
from kcone.errors import KConeError

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_metric_example(capsys):
    code, out, _ = run_cli(capsys, "metric", "P1XP1", "--at", "1,1")
    assert code == 0
    rep = json.loads(out)
    assert rep["command"] == "metric" and rep["form"] == "P1XP1"
    assert rep["outputs"]["vol"] == 1.0
    assert rep["outputs"]["gram"] == [[1.0, 0.0], [0.0, 1.0]]


def test_curvature_sectional_example(capsys):
    code, out, _ = run_cli(
        capsys, "curvature", "LOR3", "--at", "1,0,0", "--sectional", "0,1,0", "0,0,1"
    )
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["outputs"]["sectional"] + 0.5) <= 1e-8


def test_curvature_ricci_scalar_flags(capsys):
    code, out, _ = run_cli(capsys, "curvature", "LOR3", "--ricci", "--scalar")
    rep = json.loads(out)
    assert code == 0
    assert abs(rep["outputs"]["scalar"] + 1.0) <= 1e-7
    assert len(rep["outputs"]["ricci"]) == 3


def test_connection_output(capsys):
    code, out, _ = run_cli(
        capsys, "connection", "P1XP1", "--at", "1,1", "--z", "1,0", "--u", "1,0"
    )
    rep = json.loads(out)
    assert code == 0
    assert np.allclose(rep["outputs"]["christoffel"], [-1.0, 0.0])


def test_geodesic_csv(capsys, tmp_path):
    csv = tmp_path / "path.csv"
    code, out, _ = run_cli(
        capsys,
        "geodesic", "QUINTIC", "--at", "1", "--v", "0.3333333333333333",
        "--T", "1", "--steps", "100", "--csv", str(csv),
    )
    rep = json.loads(out)
    assert code == 0
    assert rep["outputs"]["speed_drift"] <= 1e-8
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "t,x1,speed"
    assert len(lines) == 102
    t, x, s = (float(p) for p in lines[-1].split(","))
    assert t == 1.0 and abs(x - np.exp(1.0 / 3.0)) <= 1e-6


def test_probe_divergent(capsys):
    code, out, _ = run_cli(
        capsys,
        "probe", "P1XP1", "--alpha", "1,0", "--omega", "1,1", "--halvings", "10",
    )
    rep = json.loads(out)
    assert code == 0
    assert rep["outputs"]["classification"] == "DIVERGENT"
    assert list(rep["outputs"]) == [
        "classification", "ts", "vols", "cumulative_lengths", "increments",
        "growth_threshold", "conv_tol",
    ]


def test_probe_halvings_underflow_is_usage_error(capsys):
    code, out, err = run_cli(
        capsys,
        "probe", "P1XP1", "--alpha", "1,0", "--omega", "1,1", "--halvings", "2000",
    )
    assert code == 1 and out == ""
    assert "t = 1 halved 2000 times underflows to 0" in err


def test_overflowing_metric_is_usage_error(capsys):
    # the Gram matrix overflows near a wall; the volume far out, where it
    # would read as an indefinite metric with eigenvalues [0.0, 0.0]
    for command, at, point in (
        ("metric", "1,1e-300", "[1.0, 1e-300]"),
        ("metric", "1e200,1e200", "[1e+200, 1e+200]"),
        ("algebra", "1e155,1e155", "[1e+155, 1e+155]"),
    ):
        code, out, err = run_cli(capsys, command, "P1XP1", "--at", at)
        assert code == 1 and out == ""
        assert f"point 0 at {point} overflows double precision" in err


def test_algebra_flags(capsys):
    code, out, _ = run_cli(
        capsys, "algebra", "LOR3", "--derivations", "--kn", "--constant-curvature"
    )
    rep = json.loads(out)
    assert code == 0
    assert rep["outputs"]["derivations"]["dimension"] == 1
    assert rep["outputs"]["kulkarni_nomizu"]["reconstruction_residual"] <= 1e-10
    assert rep["outputs"]["constant_curvature"]["is_constant"] is False


def test_split_output(capsys):
    code, out, _ = run_cli(capsys, "split", "QUINTIC", "--at", "1")
    rep = json.loads(out)
    assert code == 0
    assert abs(rep["outputs"]["t"] - np.log(5.0 / 6.0)) <= 1e-12
    assert abs(rep["outputs"]["dt2_coefficient"] - 1.0 / 3.0) <= 1e-8
    assert list(rep["outputs"]) == [
        "t", "omega1", "dt2_coefficient", "expected_dt2", "max_mixed_entry",
        "primitive_block",
    ]


def test_pullback_swap(capsys):
    code, out, _ = run_cli(
        capsys, "pullback", "P1XP1", "P1XP1", "--matrix", "0,1;1,0", "--degree", "1"
    )
    rep = json.loads(out)
    assert code == 0
    assert rep["checks"][0]["pass"] is True
    assert list(rep["outputs"]) == ["max_vol_deviation", "max_gram_deviation", "points_checked"]


def test_failing_pullback_check_exits_3(capsys):
    # degree 2 does not match the identity map, so the isometry check fails
    code, out, _ = run_cli(
        capsys, "pullback", "P1XP1", "P1XP1", "--matrix", "1,0;0,1", "--degree", "2"
    )
    rep = json.loads(out)
    assert code == 3
    assert rep["command"] == "pullback" and rep["checks"][0]["pass"] is False


def test_failing_verify_check_exits_3(capsys, monkeypatch):
    failing = {"name": "P3:stub", "max_dev": 1.0, "tol": 0.0, "pass": False}
    monkeypatch.setattr("kcone.cli.run_verification", lambda names: ([failing], False))
    code, out, _ = run_cli(capsys, "verify", "P3")
    rep = json.loads(out)
    assert code == 3
    assert rep["checks"] == [failing] and rep["outputs"]["all_pass"] is False


def _raise_kcone_error(*args):
    raise KConeError("no admissible point in 1000 draws")


@pytest.mark.parametrize(
    "argv, patch, code, message",
    [
        (["metric"], None, 1, "error: the following arguments are required: form"),
        (["metric", "P1XP1", "--at", "1/0,1"], None, 1, "error: bad number '1/0'"),
        (["metric", "P1XP1", "--at", "abc,1"], None, 1, "error: bad number 'abc'"),
        (["pullback", "P1XP1", "P1XP1", "--matrix", "1,0;1", "--degree", "1"], None, 1,
         "error: matrix rows have unequal lengths"),
        (["verify", "foo"], None, 1, "error: verify only runs on catalog forms, not 'foo'"),
        (["--help"], None, 0, "usage: kcone"),
        (["split", "P1XP1"], ("kcone.cli.split_report", _raise_kcone_error), 3,
         "error: no admissible point in 1000 draws"),
    ],
    ids=["argparse", "zero-denominator", "not-a-number", "ragged-matrix",
         "verify-non-catalog", "help", "other-kcone-error"],
)
def test_documented_exit_codes(capsys, monkeypatch, argv, patch, code, message):
    if patch:
        monkeypatch.setattr(*patch)
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    if code == 0:
        assert message in out and err == ""
    else:
        assert out == "" and message in err


def test_info_catalog_and_form(capsys):
    code, out, _ = run_cli(capsys, "info")
    rep = json.loads(out)
    assert code == 0
    assert {e["name"] for e in rep["outputs"]["catalog"]} >= {"P1XP1", "LOR3"}
    code, out, _ = run_cli(capsys, "info", "BLP2")
    rep = json.loads(out)
    assert rep["outputs"]["h11"] == 2
    assert rep["outputs"]["default_omega"] == [2.0, -1.0]


def test_manifold_file_loading(capsys, tmp_path):
    path = tmp_path / "form.json"
    path.write_text(
        json.dumps(
            {
                "name": "custom",
                "dim": 2,
                "h11": 1,
                "intersection": [{"index": [1, 1], "value": "3/2"}],
            }
        )
    )
    code, out, _ = run_cli(capsys, "metric", str(path), "--at", "1")
    rep = json.loads(out)
    assert code == 0
    assert rep["outputs"]["vol"] == 0.75


def test_exit_code_usage_error(capsys):
    code, _, err = run_cli(capsys, "metric", "NOSUCH", "--at", "1")
    assert code == 1
    assert "unknown form" in err


def test_exit_code_inadmissible(capsys):
    code, out, _ = run_cli(capsys, "metric", "P1XP1", "--at", "1,-1")
    assert code == 2
    rep = json.loads(out)
    assert rep["error"] == "NonPositiveVolume"
    code, out, _ = run_cli(capsys, "metric", "CY3GEN", "--at", "1,-1")
    assert code == 2
    assert json.loads(out)["error"] == "IndefiniteMetric"


def test_wrong_length_class_argument_is_input_error(capsys):
    for argv in (
        ["curvature", "P1XP1", "--sectional", "1,0,0", "2,0"],
        ["connection", "P1XP1", "--z", "1,0,0", "--u", "1,0"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert "class has shape (3,), expected (2,)" in err


def test_pullback_inadmissible_base_exits_2_without_hanging():
    # the base point has negative volume; sampling around it used to loop forever
    src = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "kcone", "pullback", "P1XP1", "P1XP1",
         "--matrix", "1,0;0,1", "--degree", "1", "--at", "1,-1"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == "NonPositiveVolume"


def test_pullback_degree_zero_is_input_error(capsys):
    code, out, err = run_cli(
        capsys, "pullback", "P1XP1", "P1XP1", "--matrix", "1,0;0,1", "--degree", "0"
    )
    assert code == 1 and out == ""
    assert "degree" in err


def test_non_finite_point_is_input_error(capsys):
    for at in ("inf,1", "nan,1", "1,-inf"):
        code, out, err = run_cli(capsys, "metric", "P1XP1", "--at", at)
        assert code == 1 and out == ""
        assert "non-finite" in err


def test_non_finite_coefficient_is_input_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"name": "X", "dim": 2, "h11": 2, '
        '"intersection": [{"index": [1, 2], "value": Infinity}]}'
    )
    code, out, err = run_cli(capsys, "metric", str(path), "--at", "1,1")
    assert code == 1 and out == ""
    assert "non-finite" in err


def test_directory_as_form_is_input_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "info", str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Is a directory" in err


def test_unwritable_csv_is_input_error(capsys, tmp_path):
    csv = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(
        capsys, "geodesic", "P1XP1", "--v", "1,0", "--T", "0.1", "--steps", "2", "--csv", str(csv)
    )
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "No such file or directory" in err


def test_huge_step_count_is_input_error(capsys):
    # numpy refuses the 8 EB sample array at once
    code, out, err = run_cli(
        capsys, "geodesic", "P1XP1", "--v", "1,0", "--T", "1", "--steps", str(10**18)
    )
    assert code == 1 and out == ""
    assert err.startswith("error: Unable to allocate") and "Traceback" not in err


def test_high_dimension_form_does_not_hang(tmp_path):
    # densifying by a loop over the 13! axis permutations took hours
    path = tmp_path / "dim13.json"
    path.write_text(json.dumps(
        {"name": "D13", "dim": 13, "h11": 1, "intersection": [{"index": [1] * 13, "value": 1}]}
    ))
    proc = subprocess.run(
        [sys.executable, "-m", "kcone", "metric", str(path), "--at", "1"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["outputs"]["vol"] == 1.0 / math.factorial(13)


def _readme_cli_lines():
    """The kcone lines of the README's CLI code block, minus the verify synopsis."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    return [
        line for line in block.splitlines()
        if line.startswith("kcone ") and not line.startswith("kcone verify [")
    ]


def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)   # the geodesic example writes path.csv
    lines = _readme_cli_lines()
    assert len(lines) == 9
    for line in lines:
        lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
        lexer.whitespace_split = True
        tokens = list(lexer)
        # a bare shell operator would split the example into two commands
        assert not {";", "|", "&"} & set(tokens), line
        code, out, err = run_cli(capsys, *tokens[1:])
        assert code == 0, (line, err)
        json.loads(out)


def test_exit_code_left_cone(capsys):
    code, out, _ = run_cli(
        capsys, "geodesic", "CY3GEN", "--v", "0,-2", "--T", "1", "--steps", "400"
    )
    assert code == 2
    assert json.loads(out)["error"] == "LeftCone"


def test_verify_subset(capsys):
    code, out, _ = run_cli(capsys, "verify", "P3")
    rep = json.loads(out)
    assert code == 0
    assert rep["outputs"]["all_pass"] is True
    assert all(c["pass"] for c in rep["checks"])
    names = [c["name"] for c in rep["checks"]]
    assert "P3:hessian_vs_gram" in names and "pullback:identity" in names


def test_report_determinism(capsys):
    _, out1, _ = run_cli(capsys, "curvature", "LOR3", "--ricci", "--scalar")
    _, out2, _ = run_cli(capsys, "curvature", "LOR3", "--ricci", "--scalar")
    assert out1 == out2


def test_file_reusing_a_catalog_name_has_no_default_point(capsys, tmp_path):
    # a file named after a catalog entry is another form: it must not pick up
    # that entry's default point, whether it would be admissible or not
    def write(name, dim, h11, entries):
        path = tmp_path / f"{name}.json"
        intersection = [{"index": list(k), "value": v} for k, v in entries.items()]
        path.write_text(json.dumps(
            {"name": name, "dim": dim, "h11": h11, "intersection": intersection}
        ))
        return str(path)

    lor3 = write("LOR3", 2, 3, {(1, 1): 1, (2, 2): -1, (3, 3): -4})
    p3 = write("P3", 3, 2, {(1, 1, 1): 1, (1, 2, 2): -1})
    for argv in (
        ["metric", lor3],
        ["metric", p3],
        ["pullback", lor3, lor3, "--matrix", "1,0,0;0,1,0;0,0,1", "--degree", "1"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert "--at is required" in err
    code, out, _ = run_cli(capsys, "metric", lor3, "--at", "1,0,0")
    assert code == 0 and json.loads(out)["outputs"]["vol"] == 0.5
    code, out, _ = run_cli(capsys, "info", lor3)
    rep = json.loads(out)
    assert code == 0 and rep["form"] == "LOR3"
    assert "default_omega" not in rep["outputs"]


def test_deeply_nested_manifold_is_input_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run_cli(capsys, "info", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: not valid JSON") and "recursion" in err
