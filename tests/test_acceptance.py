"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-13 assert against a single shared run of the verification
suite (the `suite` fixture of conftest.py), which pins every tolerance;
criterion 14 runs the CLI `verify` twice and compares bytes.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import pytest

from kcone.catalog import catalog_names
from kcone.cli import main

FORMS = catalog_names()
SURFACE_LIKE = ["BLP2", "LOR3", "CY3GEN"]
RANK_ONE = ["P3", "QUINTIC"]


def _run(suite, num, title, names):
    rows = [suite[n] for n in names]
    failed = [r for r in rows if not r["pass"]]
    status = "PASS" if not failed else "FAIL"
    # a failed row first: a non-finite max_dev ("nan", "inf") compares with nothing
    worst = max(rows, key=lambda r: (not r["pass"], float(r["max_dev"])))
    print(
        f"criterion {num:2d} [{status}] {title}: "
        f"worst dev {float(worst['max_dev']):.3e} (tol {worst['tol']:.1e}, {worst['name']})"
    )
    assert not failed, [(r["name"], r["max_dev"], r["tol"]) for r in failed]


def test_non_finite_score_prints_the_fail_line(capsys):
    suite = {
        "A:x": {"name": "A:x", "max_dev": 1e-12, "tol": 1e-10, "pass": True},
        "A:y": {"name": "A:y", "max_dev": "nan", "tol": 1e-10, "pass": False},
    }
    with pytest.raises(AssertionError):
        _run(suite, 1, "title", ["A:x", "A:y"])
    assert capsys.readouterr().out == (
        "criterion  1 [FAIL] title: worst dev nan (tol 1.0e-10, A:y)\n"
    )


def test_criterion_01_hessian_identity(suite):
    _run(suite, 1, "FD Hessian of -log Vol equals Gram (<=1e-6)",
         [f"{f}:hessian_vs_gram" for f in FORMS])


def test_criterion_02_lambda_derivative_rule(suite):
    _run(suite, 2, "Lefschetz scalar derivative rule (<=1e-6)",
         [f"{f}:lambda_derivative_rule" for f in FORMS])


def test_criterion_03_connection(suite):
    _run(suite, 3, "torsion exactly symmetric; FD metric compatibility (<=1e-6)",
         [f"{f}:torsion_symmetry" for f in FORMS]
         + [f"{f}:metric_compatibility" for f in FORMS])


def test_criterion_04_parallel_kahler_class(suite):
    _run(suite, 4, "nabla omega = 0 (<=1e-12); primitive fields stay primitive (<=1e-8)",
         [f"{f}:parallel_kahler_class" for f in FORMS]
         + [f"{f}:primitive_field_covariant" for f in FORMS])


def test_criterion_05_curvature_triple_agreement(suite):
    _run(suite, 5, "closed form = alternate form (<=1e-10) = FD commutator (<=1e-5)",
         [f"{f}:curvature_formula_agreement" for f in SURFACE_LIKE]
         + [f"{f}:curvature_vs_fd" for f in SURFACE_LIKE])


def test_criterion_06_tensor_symmetries(suite):
    _run(suite, 6, "antisymmetries, pair symmetry, Bianchi (<=1e-12)",
         [f"{f}:riemann_symmetries" for f in FORMS]
         + [f"{f}:algebra_curvature_symmetries" for f in FORMS])


def test_criterion_07_sign_relation(suite):
    _run(suite, 7, "riemann = -algebra curvature on primitive parts (<=1e-10)",
         [f"{f}:curvature_sign_relation" for f in FORMS])


def test_criterion_08_surface_benchmark(suite):
    _run(suite, 8, "LOR3 benchmark (-1/2, -1/2, -1); flat rank-one entries",
         ["LOR3:primitive_sectional", "LOR3:primitive_ricci",
          "LOR3:scalar_curvature", "LOR3:radial_plane_sectional"]
         + [f"{f}:flat_curvature" for f in RANK_ONE])


def test_criterion_09_geodesics(suite):
    _run(suite, 9, "radial closed form (<=1e-8); speed drift (<=1e-8)",
         [f"{f}:radial_geodesic" for f in FORMS]
         + [f"{f}:geodesic_speed_drift" for f in FORMS])


def test_criterion_10_length_bound(suite):
    _run(suite, 10, "length >= (1/sqrt n)|dlog Vol| - 1e-9; radial tight; sqrt2 variant fails",
         [f"{f}:length_lower_bound" for f in FORMS]
         + [f"{f}:radial_bound_tightness" for f in FORMS]
         + [f"{f}:sqrt2_bound_violated" for f in FORMS])


def test_criterion_11_boundary_probes(suite):
    _run(suite, 11, "vanishing-volume probe DIVERGENT; positive-volume probe CONVERGENT",
         ["P1XP1:boundary_divergent", "BLP2:boundary_convergent"])


def test_criterion_12_algebra(suite):
    _run(suite, 12, "product identities, KN reconstruction (<=1e-10), derivations",
         [f"{f}:algebra_product_identities" for f in FORMS]
         + [f"{f}:kn_reconstruction" for f in FORMS]
         + [f"{f}:derivation_conclusions" for f in FORMS]
         + [f"{f}:derivation_dimension" for f in ("P3", "QUINTIC", "P1XP1", "LOR3")])


def test_criterion_13_pullback_isometry(suite):
    _run(suite, 13, "identity, degree-2 scaling and basis-swap embeddings (<=1e-10)",
         ["pullback:identity", "pullback:degree_scaling", "pullback:basis_swap"])


def test_criterion_14_cli_determinism(capsys):
    code1 = main(["verify"])
    out1 = capsys.readouterr().out
    code2 = main(["verify"])
    out2 = capsys.readouterr().out
    ok = code1 == 0 and code2 == 0 and out1 == out2
    status = "PASS" if ok else "FAIL"
    print(f"criterion 14 [{status}] repeated `verify` runs byte-identical, exit 0")
    assert code1 == 0 and code2 == 0
    assert out1 == out2
