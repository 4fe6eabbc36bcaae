"""The verification suite runs its catalog entries in forked worker
processes; these tests pin that the parallel run is the serial one, and
how its checks score a failure."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from kcone import verify
from kcone.algebra import algebra_at
from kcone.catalog import ENTRIES, catalog_names, default_point
from kcone.cli import main
from kcone.curvature import riemann_tensor
from kcone.errors import LeftCone
from kcone.verify import run_verification


def test_parallel_records_equal_single_entry_runs(monkeypatch):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    checks, all_pass = run_verification()
    singles = [run_verification([name])[0] for name in catalog_names()]
    expected = [c for single in singles for c in single if not c["name"].startswith("pullback:")]
    expected += [c for c in singles[0] if c["name"].startswith("pullback:")]
    assert checks == expected
    assert all_pass == all(c["pass"] for c in expected)


def test_parallel_cli_output_equals_serial(capsys, monkeypatch):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    code_parallel = main(["verify"])
    out_parallel = capsys.readouterr().out
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
    code_serial = main(["verify"])
    out_serial = capsys.readouterr().out
    assert code_parallel == code_serial == 0
    assert out_parallel == out_serial


def test_left_cone_in_a_worker_exits_2(capsys, monkeypatch):
    def leave_cone(P):
        raise LeftCone(0.25)

    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(verify, "hessian_deviation", leave_cone)
    code_all = main(["verify"])
    out_all = capsys.readouterr().out
    code_one = main(["verify", "P3"])   # one entry: no pool
    out_one = capsys.readouterr().out
    assert code_all == code_one == 2
    assert out_all == out_one
    report = json.loads(out_all)
    assert report["error"] == "LeftCone" and report["message"].endswith("t=0.25")


def test_probe_with_the_wrong_classification_scores_inf():
    probe = dataclasses.replace(ENTRIES["BLP2"].probe, expect="DIVERGENT")
    assert verify.probe_deviation(default_point("BLP2"), probe) == float("inf")


def test_symmetry_check_detects_one_bent_entry():
    # one entry off by d breaks an identity by at least d, less the roundoff
    # the unbent tensor carries
    rng = np.random.default_rng(6)
    for name in catalog_names():
        P = default_point(name)
        for r in (riemann_tensor(P), algebra_at(P).curvature_tensor()):
            bent = r.copy()
            bent[tuple(rng.integers(P.rank_m, size=4))] += 1e-6
            assert verify.symmetry_deviation(r) <= 1e-12, name
            assert verify.symmetry_deviation(bent) >= 1e-6 - verify.symmetry_deviation(r), name


def test_omega_slot_check_holds_for_the_metric_tensor_only():
    # R_alg is -n/4 on every plane through omega: in the g-orthonormal frame,
    # whose column 0 is the unit radial class omega / sqrt(n), it reads n/4
    P = default_point("LOR3")
    x, unit_radial = P.frame, SimpleNamespace(omega=np.eye(P.rank_m)[0])
    r, ralg = riemann_tensor(P), algebra_at(P).curvature_tensor()
    r_frame, ralg_frame = (np.einsum("abcd,ai,bj,ck,dl->ijkl", t, x, x, x, x) for t in (r, ralg))
    assert verify.omega_slot_deviation(P, r) <= 1e-12
    assert verify.omega_slot_deviation(unit_radial, r_frame) <= 1e-12
    assert verify.omega_slot_deviation(unit_radial, ralg_frame) == pytest.approx(P.dim_n / 4)
    assert verify.omega_slot_deviation(P, ralg) > 1.0


def test_sign_relation_fails_for_the_flipped_algebra_tensor(quartic_points, hyperbolic_point):
    # points whose curvature tensor is not zero
    for P in (default_point("LOR3"), quartic_points["QUARTIC3"], hyperbolic_point(3, 4)):
        r, ralg = riemann_tensor(P), algebra_at(P).curvature_tensor()
        assert verify.sign_relation_deviation(P, r, ralg) <= 1e-10
        flipped = verify.sign_relation_deviation(P, r, -ralg)
        assert flipped > 1e-10
        assert flipped == pytest.approx(2 * np.abs(r).max())


def test_importing_the_cli_loads_no_process_pool():
    # nor scipy or sympy: the package itself imports numpy only
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = ("import sys, kcone.cli; print(sorted(m for m in "
             "('concurrent.futures', 'multiprocessing', 'scipy', 'sympy') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"
