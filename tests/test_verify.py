"""The verification suite runs its catalog entries in forked worker
processes; these tests pin that the parallel run is the serial one, and
how its checks score a failure."""

import itertools
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time
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
from kcone.fdcheck import FDReport, check_connection, check_curvature, check_primitive_field
from kcone.paths import PROBE_CONV_TOL, PullbackReport
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


def test_first_failing_entry_in_named_order_decides(monkeypatch):
    # QUINTIC fails while P3, named before it, still runs: the pool raises
    # P3's error, as one process would, and leaves no worker behind
    original = verify.hessian_deviation

    def fail_p3_late_quintic_at_once(P):
        if P.form.name == "P3":
            time.sleep(0.3)
            raise LeftCone(1.0)
        if P.form.name == "QUINTIC":
            raise LeftCone(2.0)
        return original(P)

    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(verify, "hessian_deviation", fail_p3_late_quintic_at_once)
    with pytest.raises(LeftCone) as raised:
        run_verification()
    assert raised.value.t == 1.0
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(not sys.platform.startswith("linux") or verify._usable_cpus() < 2,
                    reason="reads /proc for the forked workers; needs 2 CPUs to fork them")
def test_sigterm_ends_verify_and_its_workers_without_output(tmp_path):
    # each worker marks its first check, then sleeps in it; SIGTERM exits 143 at
    # once, with no worker left to print a BrokenPipeError for its unsent result
    src, marks = str(Path(__file__).resolve().parent.parent / "src"), tmp_path / "marks"
    code = "\n".join(["import sys, time", "from kcone import cli, verify",
                      "def mark_and_sleep(P):", f"    with open({str(marks)!r}, 'a') as fh:",
                      "        fh.write('.')", "    time.sleep(5)",
                      "verify.hessian_deviation = mark_and_sleep", "verify._usable_cpus = lambda: 2",
                      "sys.exit(cli.main(['verify']))"])
    proc = subprocess.Popen([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 30
        while not (marks.exists() and len(marks.read_text()) == 2):
            assert proc.poll() is None and time.monotonic() < deadline, "no two workers started"
            time.sleep(0.01)
        with open(f"/proc/{proc.pid}/task/{proc.pid}/children") as fh:
            workers = fh.read().split()
        assert len(workers) == 2
        signalled = time.monotonic()
        proc.terminate()
        out, err = proc.communicate(timeout=10)
        assert time.monotonic() - signalled < 4.0   # the workers sleep 5 s
    finally:
        proc.kill()
    assert proc.returncode == 143 and out == b"" and err == b""
    assert not [pid for pid in workers if os.path.exists(f"/proc/{pid}")]


def test_verify_runs_off_the_main_thread(capsys):
    # only the main thread may set the SIGTERM handler; another leaves it as it is
    codes = []
    worker = threading.Thread(target=lambda: codes.append(main(["verify", "P1XP1"])))
    worker.start()
    worker.join()
    assert codes == [0] and json.loads(capsys.readouterr().out)["outputs"]["all_pass"]


def test_non_finite_scores_keep_the_report_strict_json(capsys, monkeypatch):
    # a NaN or inf max_dev fails its check and is written as a string
    def reject(constant):
        raise AssertionError(f"bare {constant} in the report")

    monkeypatch.setattr(verify, "torsion_deviation", lambda P: float("nan"))
    monkeypatch.setattr(verify, "probe_deviation", lambda P, probe: float("inf"))
    assert main(["verify", "P1XP1"]) == 3
    report = json.loads(capsys.readouterr().out, parse_constant=reject)
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["P1XP1:torsion_symmetry"] == {"name": "P1XP1:torsion_symmetry",
                                                "max_dev": "nan", "tol": 0.0, "pass": False}
    assert checks["P1XP1:boundary_divergent"]["max_dev"] == "inf"
    assert not checks["P1XP1:boundary_divergent"]["pass"]
    assert FDReport("x", float("-inf"), 1.0).as_dict()["max_dev"] == "-inf"
    assert report["outputs"]["all_pass"] is False


def test_probe_with_the_wrong_classification_scores_inf():
    probe = ENTRIES["BLP2"].probe._replace(expect="DIVERGENT")
    assert verify.probe_deviation(default_point("BLP2"), probe) == float("inf")


def test_probe_tolerance_follows_the_classification(suite):
    # a matching DIVERGENT probe scores 0.0; a matching CONVERGENT one scores
    # its last increment, below the classifier's own threshold
    assert suite["P1XP1:boundary_divergent"]["tol"] == 0.0
    assert suite["BLP2:boundary_convergent"]["tol"] == PROBE_CONV_TOL


def test_fd_reports_carry_their_verify_names(suite):
    for name in catalog_names():
        P = default_point(name)
        reports = (verify.hessian_deviation(P), verify.lambda_rule_deviation(P),
                   check_connection(P), check_primitive_field(P), check_curvature(P))
        for report in reports:
            record = suite[f"{name}:{report.name}"]
            assert (record["max_dev"], record["tol"]) == (report.max_dev, report.tol)


def test_derivation_check_detects_a_bent_derivation():
    # D + eps I moves omega by eps |omega| and has symmetric part eps I
    P = default_point("LOR3")
    (d,) = algebra_at(P).derivations()
    assert verify.derivation_deviation(P, []) == 0.0
    assert verify.derivation_deviation(P, [d]) <= 1e-8
    assert verify.derivation_deviation(P, [d, d + 1e-6 * np.eye(3)]) >= 1e-6


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


# A NaN deviation scores NaN, which no tolerance passes; the cases below put
# it after a finite one, which a running Python max would keep instead.


def test_hessian_check_picks_a_nan_report_on_a_perturbed_point(monkeypatch):
    devs = iter([1e-9, np.nan, 1e-9, 1e-9])   # P, then its three perturbations
    monkeypatch.setattr(verify, "check_hessian_metric",
                        lambda Q: FDReport("hessian_metric", next(devs), 1e-6))
    assert np.isnan(verify.hessian_deviation(default_point("P1XP1")).max_dev)


def test_curvature_agreement_fails_on_a_nan_at_a_later_quadruple(monkeypatch):
    alt = itertools.chain([0.0, np.nan], itertools.repeat(0.0))
    monkeypatch.setattr(verify, "riemann", lambda P, *q: 0.0)
    monkeypatch.setattr(verify, "riemann_alt", lambda P, *q: next(alt))
    assert np.isnan(verify.curvature_agreement_deviation(default_point("P1XP1")))


def test_geodesic_drift_fails_on_a_nan_on_a_later_geodesic(monkeypatch):
    P = default_point("P1XP1")
    radial = SimpleNamespace(ts=np.zeros(1), points=P.omega[None, :])
    rest = [SimpleNamespace(speed_drift=s) for s in [1e-12, np.nan] + [1e-12] * 8]
    monkeypatch.setattr(verify, "integrate_geodesics", lambda P0, V0, T, steps: [radial, *rest])
    radial_dev, drift_dev = verify.geodesic_deviations(P)
    assert radial_dev == 0.0 and np.isnan(drift_dev)


def test_length_bound_fails_on_a_nan_slack_on_a_later_path(monkeypatch):
    P = default_point("P1XP1")
    still = np.repeat(P.omega[None, :], 5, axis=0)   # slack 0 - length
    lengths = iter([[1.0], [np.nan]] + [[1.0]] * 48)
    monkeypatch.setattr(verify, "_random_piecewise_path",
                        lambda form, omega0, rng: (still, next(lengths)))
    assert np.isnan(verify.length_bound_violation(P))


def test_probe_fails_on_a_nan_increment(monkeypatch):
    P, probe = default_point("P1XP1"), ENTRIES["P1XP1"].probe
    rep = verify.boundary_probe(P.form, np.array(probe.alpha), P.omega, probe.halvings)
    rep.increments[-2] = np.nan
    monkeypatch.setattr(verify, "boundary_probe", lambda *args: rep)
    assert np.isnan(verify.probe_deviation(P, probe))


def test_kn_residual_refuses_a_nan_slab(monkeypatch):
    alg = algebra_at(default_point("LOR3"))
    forms = alg.bilinear_forms()
    forms[2, 1, 0] = np.nan
    monkeypatch.setattr(alg, "bilinear_forms", lambda: forms)
    with pytest.raises(ValueError, match="overflows double precision"):
        alg.kn_reconstruction_residual()


def test_derivation_check_fails_on_a_nan_antisymmetry_defect():
    P = default_point("LOR3")
    (d,) = algebra_at(P).derivations()
    P.gram_inv = np.full_like(P.gram, np.nan)   # D omega and Lam D stay finite
    assert P.norm(d @ P.omega) <= 1e-8
    assert np.isnan(verify.derivation_deviation(P, [d]))


def test_pullback_report_fails_on_a_nan_gram_deviation():
    assert np.isnan(PullbackReport(1e-12, np.nan, 4).max_dev)


def test_importing_the_cli_loads_no_process_pool():
    # nor scipy or sympy: the package itself imports numpy only
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = ("import sys, kcone.cli; print(sorted(m for m in "
             "('concurrent.futures', 'multiprocessing', 'scipy', 'sympy') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"
