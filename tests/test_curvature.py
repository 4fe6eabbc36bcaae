import itertools

import numpy as np
import pytest

from kcone.catalog import catalog_names, default_point
from kcone.curvature import (
    christoffel,
    christoffel_tensor,
    derived_curvatures,
    inner22,
    riemann,
    riemann_alt,
    riemann_tensor,
)
from kcone.errors import DegeneratePlane
from kcone.fdcheck import (
    check_connection,
    check_curvature,
    check_hessian_metric,
)
from kcone.intersection import IntersectionForm
from kcone.metric import ConePoint
from kcone.verify import parallel_kahler_deviation


def test_christoffel_p1xp1_example():
    P = default_point("P1XP1")
    h1 = np.array([1.0, 0.0])
    assert np.allclose(christoffel(P, h1, h1), -h1)


def test_christoffel_of_omega_cancels_tautological_jacobian():
    # Gamma(z, omega) = -z, so the tautological field is parallel
    for name in catalog_names():
        P = default_point(name)
        eye = np.eye(P.rank_m)
        for i in range(P.rank_m):
            assert np.abs(christoffel(P, eye[i], P.omega) + eye[i]).max() <= 1e-12


def test_christoffel_torsion_free_exactly():
    for name in catalog_names():
        P = default_point(name)
        eye = np.eye(P.rank_m)
        for i in range(P.rank_m):
            for j in range(P.rank_m):
                assert np.array_equal(
                    christoffel(P, eye[i], eye[j]), christoffel(P, eye[j], eye[i])
                )


def test_christoffel_bilinear():
    P = default_point("LOR3")
    rng = np.random.default_rng(0)
    z, u, w = (rng.uniform(-1, 1, 3) for _ in range(3))
    lhs = christoffel(P, z, u + 2.0 * w)
    rhs = christoffel(P, z, u) + 2.0 * christoffel(P, z, w)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_covariant_derivative_tautological_vanishes():
    # criterion 4a's one contraction equals the per-basis christoffel loop
    for name in catalog_names():
        P = default_point(name)
        per_basis = max(
            float(np.abs(e + christoffel(P, e, P.omega)).max()) for e in np.eye(P.rank_m)
        )
        assert parallel_kahler_deviation(P) == per_basis <= 1e-12


def test_primitive_field_stays_primitive_analytic(projector_derivative):
    # nabla_z of field i is d_z Pi e_i + Gamma(z, Pi e_i); Lam of it vanishes
    for name in catalog_names():
        P = default_point(name)
        gamma_pi = np.einsum("ui,zuk->zki", P.primitive_projector, christoffel_tensor(P))
        nabla = projector_derivative(P) + gamma_pi
        assert np.abs(P._lam @ nabla).max() <= 1e-10


def test_riemann_vanishes_with_omega_slot():
    for name in catalog_names():
        P = default_point(name)
        rng = np.random.default_rng(1)
        u, v, z = (rng.uniform(-1, 1, P.rank_m) for _ in range(3))
        assert abs(riemann(P, P.omega, u, v, z)) <= 1e-12
        assert abs(riemann(P, u, v, P.omega, z)) <= 1e-12


def test_riemann_rank_one_is_zero():
    for name in ("P3", "QUINTIC"):
        P = default_point(name)
        assert np.abs(riemann_tensor(P).entries).max() <= 1e-14


def test_riemann_lor3_benchmark():
    P = default_point("LOR3")
    u = np.array([0.0, 1.0, 0.0]) / np.sqrt(2.0)
    v = np.array([0.0, 0.0, 1.0]) / np.sqrt(2.0)
    assert riemann(P, u, v, v, u) == pytest.approx(-0.5, abs=1e-12)


def test_inner22_p1xp1_example():
    P = default_point("P1XP1")
    h1, h2 = np.eye(2)
    assert inner22(P, (h1, h2), (h1, h2)) == pytest.approx(1.0, abs=1e-12)


def test_inner22_swap_symmetry():
    P = default_point("CY3GEN")
    rng = np.random.default_rng(2)
    u, w, v, z = (rng.uniform(-1, 1, 2) for _ in range(4))
    assert inner22(P, (u, w), (v, z)) == pytest.approx(
        inner22(P, (v, z), (u, w)), abs=1e-12
    )


def test_riemann_alt_agrees():
    for name in ("BLP2", "LOR3", "CY3GEN"):
        P = default_point(name)
        m = P.rank_m
        eye = np.eye(m)
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    for l in range(m):
                        a = riemann(P, eye[i], eye[j], eye[k], eye[l])
                        b = riemann_alt(P, eye[i], eye[j], eye[k], eye[l])
                        assert abs(a - b) <= 1e-10


def test_quartic_curvature_closed_forms_agree(quartic_points):
    # n = 4: the pair tensor's Lam3 is a contraction with omega, and inner22
    # carries its Lam4 term
    for P in quartic_points.values():
        eye = np.eye(P.rank_m)
        entries = riemann_tensor(P).entries
        for idx in itertools.product(range(P.rank_m), repeat=4):
            args = [eye[a] for a in idx]
            r = riemann(P, *args)
            assert abs(r - riemann_alt(P, *args)) <= 1e-15, (P, idx)
            assert abs(r - entries[idx]) <= 1e-15, (P, idx)


def test_christoffel_tensor_matches_formula(quartic_points):
    points = [default_point(name) for name in catalog_names()]
    for P in points + list(quartic_points.values()):
        gamma = christoffel_tensor(P)
        assert np.abs(gamma - gamma.transpose(1, 0, 2)).max() == 0.0
        eye = np.eye(P.rank_m)
        for z, u in itertools.product(range(P.rank_m), repeat=2):
            expect = -0.5 * (
                P.lambda_scalar([eye[u]]) * eye[z] + P.lambda_scalar([eye[z]]) * eye[u]
            ) + 0.5 * P.lambda_class(eye[u], eye[z])
            assert np.abs(gamma[z, u] - expect).max() <= 1e-14, (P, z, u)


def test_curvature_tensor_symmetries():
    for name in catalog_names():
        tensor = riemann_tensor(default_point(name))
        report = tensor.symmetry_report()
        assert max(report.values()) <= 1e-12, (name, report)
        assert tensor.omega_slot_deviation() <= 1e-12


def test_derived_curvatures_match_dense_tensor(quartic_points, dense_curvature_check):
    # Ricci, scalar and sectional come from the pair tensor without the m^4
    # array; the dense contractions stay as the reference
    rng = np.random.default_rng(11)
    points = [default_point(name) for name in catalog_names()]
    for P in points + list(quartic_points.values()):
        planes = list(rng.standard_normal((10, 2, P.rank_m)))
        planes += [(P.primitive_part(u), v) for u, v in planes[:3]]
        dense_curvature_check(P, planes)


def test_derived_curvatures_lor3():
    P = default_point("LOR3")
    dc = derived_curvatures(P)
    e1, e2, e3 = np.eye(3)
    assert dc.sectional(e2, e3) == pytest.approx(-0.5, abs=1e-12)
    assert dc.sectional(P.omega, e2) == pytest.approx(0.0, abs=1e-12)
    u = e2 / np.sqrt(2.0)
    assert float(u @ dc.ricci @ u) == pytest.approx(-0.5, abs=1e-12)
    assert dc.scalar == pytest.approx(-1.0, abs=1e-12)


def test_derived_curvatures_rank_one():
    dc = derived_curvatures(default_point("QUINTIC"))
    assert dc.scalar == pytest.approx(0.0, abs=1e-14)


def test_lor3_curvature_constant_across_cone():
    # the cone is homogeneous: primitive sectional curvature is -1/2 at
    # every admissible point, not just the default one
    form = default_point("LOR3").form
    rng = np.random.default_rng(8)
    for _ in range(5):
        omega = np.array([1.0, 0.0, 0.0]) + 0.25 * rng.standard_normal(3)
        P = ConePoint(form, omega)
        dc = derived_curvatures(P)
        u = P.primitive_part(np.eye(3)[1])
        v = P.primitive_part(np.eye(3)[2])
        assert dc.sectional(u, v) == pytest.approx(-0.5, abs=1e-10)
        assert dc.scalar == pytest.approx(-1.0, abs=1e-10)


def test_sectional_degenerate_plane():
    P = default_point("LOR3")
    dc = derived_curvatures(P)
    u = np.array([0.0, 1.0, 0.0])
    with pytest.raises(DegeneratePlane):
        dc.sectional(u, 2.0 * u)


def test_fd_hessian_matches_gram():
    for name in catalog_names():
        assert check_hessian_metric(default_point(name)).max_dev <= 1e-6


def test_fd_metric_compatibility():
    for name in catalog_names():
        assert check_connection(default_point(name)).max_dev <= 1e-6


def test_fd_curvature_commutator():
    for name in ("BLP2", "LOR3", "CY3GEN"):
        assert check_curvature(default_point(name)).max_dev <= 1e-5


def _product_point(P, Q):
    """The cone point (omega_X, omega_Y) of X x Y, whose intersection number
    on the index (I, J + m_X) is kappa_X(I) kappa_Y(J)."""
    coeffs = {
        i + tuple(j + P.rank_m for j in jj): a * b
        for i, a in P.form.coeffs.items()
        for jj, b in Q.form.coeffs.items()
    }
    form = IntersectionForm(
        name=f"{P.form.name}x{Q.form.name}",
        dim_n=P.dim_n + Q.dim_n,
        rank_m=P.rank_m + Q.rank_m,
        coeffs=coeffs,
    )
    return ConePoint(form, np.concatenate([P.omega, Q.omega]))


def _block_sum(a, b):
    out = np.zeros((len(a) + len(b),) * 2)
    out[: len(a), : len(a)], out[len(a):, len(a):] = a, b
    return out


@pytest.mark.parametrize("x, y", [("P1XP1", "LOR3"), ("P3", "P1XP1"), ("CY3GEN", "BLP2")])
def test_product_manifold_is_a_riemannian_product(x, y):
    # Vol multiplies, so -log Vol and its Hessian metric split: the Gram and
    # Ricci matrices are block sums and the scalar curvatures add
    P, Q = default_point(x), default_point(y)
    PQ = _product_point(P, Q)
    assert PQ.dim_n == P.dim_n + Q.dim_n >= 4
    dp, dq, dpq = (derived_curvatures(R) for R in (P, Q, PQ))
    close = dict(rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(PQ.vol, P.vol * Q.vol, **close)
    np.testing.assert_allclose(PQ.gram, _block_sum(P.gram, Q.gram), **close)
    np.testing.assert_allclose(dpq.ricci, _block_sum(dp.ricci, dq.ricci), **close)
    np.testing.assert_allclose(dpq.scalar, dp.scalar + dq.scalar, **close)
