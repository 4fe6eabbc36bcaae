import io
import itertools
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kcone.catalog import CATALOG, default_omega
from kcone.cli import main
from kcone.curvature import derived_curvatures, riemann_tensor
from kcone.errors import KConeError
from kcone.intersection import IntersectionForm
from kcone.metric import ConePoint

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


def test_curvature_sectional_at_extreme_scales(capsys):
    # the pinned LOR3 plane with u scaled far out and far in: K does not
    # depend on the scale, and |u^v|^2 alone would overflow or underflow
    for u in ("0,1e160,0", "0,1e-170,0"):
        code, out, _ = run_cli(
            capsys, "curvature", "LOR3", "--at", "1,0,0", "--sectional", u, "0,0,1"
        )
        assert code == 0
        assert abs(json.loads(out)["outputs"]["sectional"] + 0.5) <= 1e-12


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


def test_connection_overflow_is_input_error(capsys):
    # Gamma(z, u) = -z at P1XP1 overflows for |z| |u| = 1e400
    code, out, err = run_cli(
        capsys, "connection", "P1XP1", "--at", "1,1", "--z", "1e200,0", "--u", "1e200,0"
    )
    assert code == 1 and out == ""
    assert "overflows double precision" in err


@pytest.mark.parametrize("argv", [
    # the basis curvature tensor has degree -4 in omega: about 1e320 here
    ("curvature", "P1XP1", "--at", "1e-80,1e-80"),
    ("curvature", "LOR3", "--at", "1e-80,0,0"),
    # the KN residual of a point this close to a wall is inf - inf
    ("algebra", "BLP2", "--at", "5.414736855943464e-150,-1.0390504829804963e-305", "--kn"),
])
def test_non_finite_output_is_input_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "overflows double precision" in err


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


def test_probe_past_the_metric_wall_names_the_indefinite_sample(capsys):
    # near the Vol = 0 wall one eigenvalue grows like 1/t^2, so the Gershgorin
    # discs leave the samples to eigvalsh, whose eigenvalues word the first bad one
    code, out, err = run_cli(
        capsys,
        "probe", "P1XP1", "--alpha", "1,0", "--omega", "1,1", "--halvings", "18",
    )
    assert code == 2 and err == ""
    assert json.loads(out) == {
        "command": "probe",
        "error": "IndefiniteMetric",
        "message": "Gram matrix of probe point 2137 at [1.0000099539756775, "
                   "9.953975677490234e-06] is not positive definite "
                   "(eigenvalues [0.9999800923458859, 10092688038.676756])",
    }


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
    for command, at, what in (
        ("metric", "1,1e-300", "metric of point 0 at [1.0, 1e-300]"),
        ("metric", "1e200,1e200", "volume of point 0 at [1e+200, 1e+200]"),
        ("algebra", "1e155,1e155", "volume of point 0 at [1e+155, 1e+155]"),
    ):
        code, out, err = run_cli(capsys, command, "P1XP1", "--at", at)
        assert code == 1 and out == ""
        assert err == f"error: {what} overflows double precision\n"


def test_non_finite_metric_is_worded_not_solved(capsys):
    # the Gram matrix at this LOR3 point is not finite; LAPACK does not converge
    # on it, so admit zeroes it before eigvalsh and words the overflow
    code, out, err = run_cli(capsys, "metric", "LOR3", "--at=1e-160,1e-200,1e-200")
    assert code == 1 and out == ""
    assert err == ("error: metric of point 0 at [1e-160, 1e-200, 1e-200] "
                   "overflows double precision\n")


def test_underflowing_volume_is_usage_error(capsys):
    # the volume underflows to 0 although the scaled point is admissible; the
    # wall points, also of volume 0, stay inadmissible
    for form, at in (("P1XP1", "1e-200,1e-200"), ("P3", "1e-110")):
        code, out, err = run_cli(capsys, "metric", form, "--at", at)
        assert code == 1 and out == ""
        assert "underflows double precision" in err
    for at in ("1,0", "1e-200,-1e-200", "0,0"):
        code, out, _ = run_cli(capsys, "metric", "P1XP1", "--at", at)
        assert code == 2
        assert json.loads(out)["error"] == "NonPositiveVolume"


def test_geodesic_overflow_is_input_error(capsys):
    # the radial ray of P3 stays in the cone; near t = 710 its volume
    # overflows, which is an input error, not a LeftCone
    code, out, err = run_cli(
        capsys, "geodesic", "P3", "--at", "1", "--v", "1/3", "--T", "800", "--steps", "400"
    )
    assert code == 1 and out == ""
    assert err.startswith("error: step from t=") and "overflows double precision" in err


def test_small_scale_point_has_finite_structure_constants(capsys):
    # at 1e-150 e_1 the volume 5e-301 is normal but Lam2 is about 1e300:
    # Lam(u cup z) = Lam2(u cup z) omega forms no out-of-range product, and
    # the constants are those at e_1 times 1e150 (degree -1); a RuntimeWarning
    # would fail the test
    code, out, _ = run_cli(capsys, "algebra", "LOR3", "--at", "1e-150,0,0")
    assert code == 0 and "NaN" not in out and "Infinity" not in out
    small = np.array(json.loads(out)["outputs"]["structure_constants"])
    code, out, _ = run_cli(capsys, "algebra", "LOR3", "--at", "1,0,0")
    unit = np.array(json.loads(out)["outputs"]["structure_constants"])
    assert np.allclose(small, 1e150 * unit, rtol=1e-15, atol=0.0)


def test_small_scale_point_has_finite_connection(capsys):
    code, out, _ = run_cli(
        capsys, "connection", "LOR3", "--at", "1e-150,0,0", "--z", "1,0,0", "--u", "1,0,0"
    )
    assert code == 0
    assert json.loads(out)["outputs"]["christoffel"] == [-1e150, 0.0, 0.0]


def test_geodesic_stage_point_overflow_is_input_error(capsys):
    # the first stage point (5e199, 1) is inside the cone of P1XP1, but the
    # acceleration Lam(v) v is about 1e400, so the next stage point is not
    # finite: an input error, not a LeftCone from a singular solve.  The
    # sample at t = 0 fails first: its speed g(v, v) = 1e400 overflows
    code, out, err = run_cli(
        capsys, "geodesic", "P1XP1", "--at", "1,1", "--v", "1e200,0", "--T", "1", "--steps", "2"
    )
    assert code == 1 and out == ""
    assert err == ("error: step from t=0.0: speed of geodesic member 0 at [1.0, 1.0] "
                   "with velocity [1e+200, 0.0] overflows double precision\n")


def test_algebra_kn_frame_starts_with_omega(capsys):
    # the Kulkarni-Nomizu forms are given in the omega-adapted frame
    for name in ("LOR3", "CY3GEN"):
        code, out, _ = run_cli(capsys, "algebra", name, "--kn")
        rep = json.loads(out)
        assert code == 0
        basis = np.array(rep["outputs"]["kulkarni_nomizu"]["orthonormal_basis"])
        omega = np.array(rep["inputs"]["at"])
        assert np.array_equal(basis[:, 0], omega / np.sqrt(CATALOG[name].dim_n))


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
        (["pullback", "P1XP1", "P3", "--matrix", "1,0", "--degree", "1"], None, 1,
         "error: source form has dimension 2, target 3"),
        (["verify", "foo"], None, 1, "error: verify only runs on catalog forms, not 'foo'"),
        (["--help"], None, 0, "usage: kcone"),
        (["split", "P1XP1"], ("kcone.cli.split_report", _raise_kcone_error), 3,
         "error: no admissible point in 1000 draws"),
    ],
    ids=["argparse", "zero-denominator", "not-a-number", "ragged-matrix",
         "pullback-dimension-mismatch", "verify-non-catalog", "help", "other-kcone-error"],
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


def test_verify_runs_a_repeated_form_once(capsys):
    _, once, _ = run_cli(capsys, "verify", "P3")
    code, repeated, _ = run_cli(capsys, "verify", "P3", "p3")
    assert code == 0
    assert repeated == once


def test_near_wall_derivations(capsys):
    # cond G = 4e8 here: the derivations hold only up to roundoff of that order
    code, out, err = run_cli(capsys, "algebra", "LOR3", "--at", "1,0.9999,0", "--derivations")
    assert (code, err) == (0, "")
    assert json.loads(out)["outputs"]["derivations"]["dimension"] == 1


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


def test_closed_stdout_exits_1_without_traceback(tmp_path):
    # a reader that stops after one line of a report larger than the pipe buffer
    m = 10
    entries = [{"index": [1, 1, 1], "value": 6}]
    entries += [{"index": [1, j, j], "value": -1} for j in range(2, m + 1)]
    path = tmp_path / "sym10.json"
    path.write_text(json.dumps({"name": "SYM10", "dim": 3, "h11": m, "intersection": entries}))
    proc = subprocess.Popen(
        [sys.executable, "-m", "kcone", "curvature", str(path), "--at", ",".join(["1"] + ["0"] * (m - 1))],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


def _closed_after_first_line(argv, unbuffered):
    # a reader that stops after the first line of the report
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "kcone", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    return proc.returncode, err


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_stdout_during_a_streamed_report_exits_1(tmp_path, unbuffered):
    # SYM16's curvature report is about 1.6 MB, written in many blocks: the
    # reader leaves while they are written.  Unbuffered stdio returns a short
    # count for the cut block; the next write (at the latest the final
    # newline) raises
    m = 16
    entries = [{"index": [1, 1, 1], "value": 6}]
    entries += [{"index": [1, j, j], "value": -1} for j in range(2, m + 1)]
    path = tmp_path / "sym16.json"
    path.write_text(json.dumps({"name": "SYM16", "dim": 3, "h11": m, "intersection": entries}))
    at = ",".join(["1"] + ["0"] * (m - 1))
    code, err = _closed_after_first_line(["curvature", str(path), "--at", at], unbuffered)
    assert code == 1
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


def _syn_file(tmp_path, m, labels=()):
    # SYNm-like: kappa_111 = 6, kappa_1jj = -1 plus seeded noise, admissible at e_1
    rng = np.random.default_rng(m)
    entries = [{"index": [1, 1, 1], "value": 6.0}]
    entries += [{"index": [1, j, j], "value": -1.0 + 0.05 * rng.standard_normal()}
                for j in range(2, m + 1)]
    entries += [{"index": [i, j, k], "value": 0.05 * rng.standard_normal()}
                for i in range(2, m + 1) for j in range(i, m + 1) for k in range(j, m + 1)
                if rng.random() < 0.3]
    obj = {"name": f"SYN{m}", "dim": 3, "h11": m, "intersection": entries}
    if labels:
        obj["labels"] = list(labels)
    path = tmp_path / f"syn{m}.json"
    path.write_text(json.dumps(obj, ensure_ascii=False), encoding="utf-8")
    return str(path), ",".join(["1"] + ["0"] * (m - 1))


def _streamed_cases(tmp_path):
    cases = [["info"], ["verify", "P3"],
             ["metric", "P1XP1", "--at=-1,1"],                   # exit 2 error report
             ["algebra", "LOR3", "--at", "1e-150,0,0"],          # constants of 1e150
             ["curvature", "LOR3", "--sectional", "0,1,0", "0,0,1"]]
    forms = [(name, ",".join(repr(float(x)) for x in default_omega(name))) for name in CATALOG]
    m = 12
    path, at = _syn_file(tmp_path, m, labels=["hé", "日本"] + [f"e{j}" for j in range(3, m + 1)])
    forms.append((path, at))
    for form, at in forms:
        eye = ";".join(",".join("1" if i == j else "0" for j in range(at.count(",") + 1))
                       for i in range(at.count(",") + 1))
        cases += [
            ["info", form], ["metric", form, f"--at={at}"],
            ["curvature", form, f"--at={at}", "--ricci", "--scalar"],
            ["connection", form, f"--at={at}", f"--z={at}", f"--u={at}"],
            ["geodesic", form, f"--at={at}", f"--v={at}", "--T", "0.1", "--steps", "4"],
            ["probe", form, f"--alpha={at}", f"--omega={at}", "--halvings", "4"],
            ["algebra", form, f"--at={at}", "--derivations", "--kn", "--constant-curvature"],
            ["split", form, f"--at={at}"],
            ["pullback", form, form, "--matrix", eye, "--degree", "1", f"--at={at}"],
        ]
    return cases


def test_streamed_report_equals_json_dumps(capsys, monkeypatch, tmp_path):
    # every subcommand on the catalog and an m = 12 file with non-ASCII labels:
    # the streamed stdout is byte for byte what json.dumps(indent=2) printed
    from kcone import cli

    reports, write = [], cli._write_report

    def spy(report, out):
        reports.append(report)
        write(report, out)

    monkeypatch.setattr(cli, "_write_report", spy)
    codes = set()
    for argv in _streamed_cases(tmp_path):
        codes.add(main(argv))
        out = capsys.readouterr().out
        assert out == json.dumps(reports[-1], indent=2, default=lambda x: x.tolist()) + "\n", argv
    assert codes == {0, 2}
    assert any(r.get("outputs", {}).get("derivations", {}).get("basis") == [] for r in reports)


def test_streamed_report_of_numpy_scalars_and_empty_values():
    from kcone import cli

    report = {"inputs": {}, "int": np.int64(-3), "bool": np.bool_(True), "zero_d": np.array(2.5),
              "zero_d_int": np.array(7), "f32": np.float32(0.1), "f64": np.float64(-0.0),
              "ints": np.arange(3), "bools": np.array([[True, False]]), "empty": np.zeros((0, 3)),
              "empty_rows": np.zeros((2, 0)), "list": [], "tuple": (1.5, None, "é日"),
              "rows": np.array([[1e-300, -np.inf], [np.nan, 2.0]]), "cube": np.ones((2, 1, 2)),
              "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "f64_inf": np.float64(np.inf),
              "non_finite": np.array([np.nan, np.inf, -np.inf]),
              "nested": [{"a": np.float64(1 / 3)}, [np.array([1.0, 2.0])]]}
    text = []
    cli._write_report(report, SimpleNamespace(write=text.append))
    assert "".join(text) == json.dumps(report, indent=2, default=lambda x: x.tolist()) + "\n"
    assert text[-1] == "\n"   # the newline is its own write


def test_streamed_report_holds_bounded_scratch():
    # writing an m = 16 curvature report (about 2 MB) holds one block of
    # parts, not the whole text: json.dumps held about 4x the text
    from kcone import cli

    m, rng = 16, np.random.default_rng(16)
    coeffs = {(1, 1, 1): 6.0, **{(1, j, j): -1.0 for j in range(2, m + 1)}}
    coeffs.update({idx: 0.05 * rng.standard_normal()
                   for idx in itertools.combinations_with_replacement(range(2, m + 1), 3)})
    P = ConePoint(IntersectionForm("SYN16", 3, m, coeffs), np.eye(m)[0])
    dc = derived_curvatures(P)
    report = {"command": "curvature", "form": "SYN16", "inputs": {"at": P.omega},
              "outputs": {"tensor": riemann_tensor(P), "ricci": dc.ricci,
                          "scalar": dc.scalar}, "checks": []}
    written = [0]

    def write(text):
        written[0] += len(text)

    tracemalloc.start()
    try:
        cli._write_report(report, SimpleNamespace(write=write))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert written[0] > 1.5e6
    assert peak <= written[0] / 8


# the subcommands the fuzz below drives; each handles any catalog form
FUZZED = ["metric", "curvature", "connection", "algebra", "split", "geodesic", "probe"]
# argv the fuzz must exit with a known code, each run as an explicit example: the
# kernel's two range verdicts and a non-positive volume; a curvature tensor that
# overflows; and the range defects the fuzz found, each an error now (a geodesic
# whose final velocity overflows, a probe whose path or its midpoints overflow, a
# sectional curvature and the structure constants at a subnormal volume)
PINNED_EXITS = {
    ("metric", "P1XP1", "--at", "1e154,1e154"): 1,
    ("metric", "P1XP1", "--at", "1e-200,1e-200"): 1,
    ("metric", "BLP2", "--at", "1,2"): 2,
    ("metric", "LOR3", "--at=1e-160,1e-200,1e-200"): 1,
    ("curvature", "P1XP1", "--at", "1e-80,1e-80"): 1,
    ("geodesic", "BLP2", "--v=6.80564733841877e+38,0.0", "--T=1.0", "--steps=1"): 1,
    ("probe", "P1XP1", "--alpha=0.0,8.98846567431158e+307",
     "--omega=0.0,8.98846567431158e+307", "--halvings=1"): 2,
    ("probe", "P3", "--alpha=8.98846567431158e+307", "--omega=1.0", "--halvings=1"): 1,
    ("curvature", "P3", "--at=4.3180842775472223e-78", "--sectional", "1.0", "1.0"): 1,
    ("algebra", "P3", "--at=2.2323972485981933e-103"): 1,
}


def _reject_constant(token):
    raise ValueError(f"report holds {token}")


@st.composite
def cli_calls(draw):
    """argv of one FUZZED call on a catalog form, every class entry 0 or +-2^k."""
    power = st.integers(-1074, 1023).map(lambda k: math.ldexp(1.0, k))
    entry = st.one_of(st.just(0.0), power, power.map(lambda x: -x))
    command, name = draw(st.sampled_from(FUZZED)), draw(st.sampled_from(list(CATALOG)))
    m = CATALOG[name].rank_m

    def vec():
        return draw(st.lists(entry, min_size=m, max_size=m))

    def cls(x):
        return ",".join(map(repr, x))

    argv = [command, name]
    if command == "probe":
        return argv + [f"--alpha={cls(vec())}", f"--omega={cls(vec())}",
                       f"--halvings={draw(st.integers(1, 6))}"]
    if draw(st.booleans()):
        argv.append(f"--at={cls(vec())}")
    if command == "curvature":
        argv += [flag for flag in ("--ricci", "--scalar") if draw(st.booleans())]
        if draw(st.booleans()):
            # K(u, v) = K(-u, v): argparse reads a bare argument starting with "-" as a flag
            argv += ["--sectional"] + [cls([math.copysign(1.0, u[0]) * x for x in u])
                                       for u in (vec(), vec())]
    elif command == "connection":
        argv += [f"--z={cls(vec())}", f"--u={cls(vec())}"]
    elif command == "algebra":
        argv += [flag for flag in ("--derivations", "--kn", "--constant-curvature")
                 if draw(st.booleans())]
    elif command == "geodesic":
        argv += [f"--v={cls(vec())}", f"--T={draw(entry)!r}", f"--steps={draw(st.integers(1, 4))}"]
    return argv


def _pinned_examples(test):
    for argv in PINNED_EXITS:
        test = example(list(argv))(test)
    return test


@settings(derandomize=True, max_examples=300, deadline=None)
@given(cli_calls())
@_pinned_examples
def test_fuzzed_cli_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    assert code == PINNED_EXITS.get(tuple(argv), code)
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
    else:
        assert isinstance(json.loads(out.getvalue(), parse_constant=_reject_constant), dict)
