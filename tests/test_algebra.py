import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcone import algebra
from kcone.algebra import NULL_TOL, BilinearFormSet, algebra_at, kn_product, orthonormal_basis
from kcone.catalog import catalog_names, default_point
from kcone.curvature import riemann_tensor
from kcone.errors import KConeError
from kcone.intersection import IntersectionForm
from kcone.metric import ConePoint


def test_product_omega_squared():
    for name in catalog_names():
        P = default_point(name)
        alg = algebra_at(P)
        expect = (P.dim_n - 1.0) * P.omega
        assert np.abs(alg.product(P.omega, P.omega) - expect).max() <= 1e-10


def test_product_with_omega_identity():
    for name in catalog_names():
        P = default_point(name)
        alg = algebra_at(P)
        eye = np.eye(P.rank_m)
        for i in range(P.rank_m):
            expect = (
                0.5 * P.lambda_scalar([eye[i]]) * P.omega
                + 0.5 * (P.dim_n - 2.0) * eye[i]
            )
            assert np.abs(alg.product(eye[i], P.omega) - expect).max() <= 1e-10


def test_product_p1xp1_example():
    P = default_point("P1XP1")
    alg = algebra_at(P)
    h1, h2 = np.eye(2)
    assert np.allclose(alg.product(h1, h2), 0.5 * P.omega)


def test_product_commutative_bilinear():
    P = default_point("CY3GEN")
    alg = algebra_at(P)
    rng = np.random.default_rng(0)
    u, v, w = (rng.uniform(-1, 1, 2) for _ in range(3))
    assert np.abs(alg.product(u, v) - alg.product(v, u)).max() <= 1e-13
    lhs = alg.product(u + 0.5 * w, v)
    rhs = alg.product(u, v) + 0.5 * alg.product(w, v)
    assert np.abs(lhs - rhs).max() <= 1e-13


def test_product_not_associative_on_lor3():
    # (e2.e2).e1 = -e1.e1 = -e1 while e2.(e2.e1) = e2.0 = 0
    P = default_point("LOR3")
    alg = algebra_at(P)
    e1, e2, _ = np.eye(3)
    lhs = alg.product(alg.product(e2, e2), e1)
    rhs = alg.product(e2, alg.product(e2, e1))
    assert P.norm(lhs - rhs) == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert P.norm(lhs - rhs) > 1e-6


def test_structure_constants_symmetric():
    alg = algebra_at(default_point("LOR3"))
    assert np.abs(alg.structure - alg.structure.transpose(1, 0, 2)).max() == 0.0


def test_algebra_curvature_symmetries():
    for name in catalog_names():
        tensor = algebra_at(default_point(name)).curvature_tensor()
        assert tensor.max_symmetry_deviation() <= 1e-12


def test_algebra_curvature_rank_one_zero():
    tensor = algebra_at(default_point("P3")).curvature_tensor()
    assert np.abs(tensor.entries).max() <= 1e-14


def test_algebra_curvature_lor3_sign():
    P = default_point("LOR3")
    tensor = algebra_at(P).curvature_tensor()
    u = np.array([0.0, 1.0, 0.0]) / np.sqrt(2.0)
    v = np.array([0.0, 0.0, 1.0]) / np.sqrt(2.0)
    val = tensor.evaluate(u, v, v, u)
    assert val == pytest.approx(0.5, abs=1e-12)


def test_sign_relation_with_metric_tensor():
    for name in catalog_names():
        P = default_point(name)
        m = P.rank_m
        ralg = algebra_at(P).curvature_tensor().entries
        pi = np.eye(m) - np.outer(P.omega, P._lam) / P.dim_n
        prim = np.einsum("abcd,ai,bj,ck,dl->ijkl", ralg, pi, pi, pi, pi)
        assert np.abs(riemann_tensor(P).entries + prim).max() <= 1e-10


def test_orthonormal_basis_is_orthonormal():
    for name in catalog_names():
        P = default_point(name)
        x = orthonormal_basis(P)
        assert np.abs(x.T @ P.gram @ x - np.eye(P.rank_m)).max() <= 1e-12


def test_bilinear_forms_reconstruct_product():
    for name in catalog_names():
        P = default_point(name)
        alg = algebra_at(P)
        fs = alg.bilinear_forms()
        assert np.abs(fs.forms - fs.forms.transpose(0, 2, 1)).max() <= 1e-12
        rebuilt = np.einsum("lij,cl->ijc", fs.forms, fs.basis)
        assert np.abs(rebuilt - alg.structure).max() <= 1e-10


def test_kn_product_of_gram_is_space_form_tensor():
    P = default_point("LOR3")
    g = P.gram
    t = kn_product(g)
    expect = np.einsum("ik,jl->ijkl", g, g) - np.einsum("il,jk->ijkl", g, g)
    assert np.array_equal(t, expect)


def test_kn_decomposition_reconstructs_curvature():
    for name in catalog_names():
        assert algebra_at(default_point(name)).kn_reconstruction_residual() <= 1e-10


def test_kn_residual_matches_sum_of_kn_squares():
    for name in ("BLP2", "LOR3", "CY3GEN"):
        alg = algebra_at(default_point(name))
        total = sum(kn_product(b) for b in alg.bilinear_forms().forms)
        expect = float(np.abs(alg.curvature_tensor().entries + total).max())
        assert abs(alg.kn_reconstruction_residual() - expect) <= 1e-14


def test_kn_residual_matches_sum_of_kn_squares_away_from_zero(monkeypatch, quartic_points):
    # perturbed forms no longer cancel R_alg, so the residual is far from
    # roundoff and must still equal the dense sum of Kulkarni-Nomizu squares
    rng = np.random.default_rng(5)
    points = [default_point(name) for name in ("BLP2", "LOR3", "CY3GEN")]
    for P in points + list(quartic_points.values()):
        alg = algebra_at(P)
        fs = alg.bilinear_forms()
        noise = 0.1 * rng.standard_normal(fs.forms.shape)
        bent = BilinearFormSet(forms=fs.forms + noise, basis=fs.basis)
        monkeypatch.setattr(alg, "bilinear_forms", lambda: bent)
        total = sum(kn_product(b) for b in bent.forms)
        expect = float(np.abs(alg.curvature_tensor().entries + total).max())
        assert expect > 1e-3
        assert abs(alg.kn_reconstruction_residual() - expect) <= 1e-12 * expect


def test_constant_curvature_rank_one_trivial():
    fit = algebra_at(default_point("P3")).constant_curvature_test()
    assert fit.residual <= fit.tol


def test_constant_curvature_rank_two_automatic():
    # every algebraic curvature tensor on a rank-2 space is a multiple of
    # the Kulkarni-Nomizu square of the inner product
    for name, lam in (("P1XP1", 0.5), ("BLP2", 0.5), ("CY3GEN", 0.75)):
        fit = algebra_at(default_point(name)).constant_curvature_test()
        assert fit.is_constant
        assert fit.lam == pytest.approx(lam, abs=1e-9)


def test_constant_curvature_fails_on_lor3():
    fit = algebra_at(default_point("LOR3")).constant_curvature_test()
    assert not fit.is_constant
    # frozen diagnostics: best-fit multiple and residual of the fit
    assert fit.lam == pytest.approx(1.0 / 6.0, abs=1e-9)
    assert fit.residual == pytest.approx(0.9428090415820634, abs=1e-9)


def _constant_curvature_24(P):
    """Reference for constant_curvature_test: (lam, residual, |t|) with the
    full 24-permutation symmetrization."""
    basis = orthonormal_basis(P)
    vec = np.einsum("ijc,ia,jb->abc", algebra_at(P).structure, basis, basis)
    comp = np.einsum("abc,cd,dl->abl", vec, P.gram, basis)
    t = np.einsum("abl,cdl->abcd", comp, comp)
    eye = np.eye(P.rank_m)
    s = 0.5 * (np.einsum("ac,bd->abcd", eye, eye) + np.einsum("ad,bc->abcd", eye, eye))

    def nonsym(x):
        return x - sum(np.transpose(x, p) for p in itertools.permutations(range(4))) / 24.0

    nt, ns = nonsym(t), nonsym(s)
    denom = 2.0 * float(np.sum(ns * ns))
    lam = float(np.sum(nt * ns)) / denom if denom > 0.0 else 0.0
    return lam, float(np.linalg.norm(nt - 2.0 * lam * ns)), float(np.linalg.norm(t))


def _cubic_point(m=6, noise=0.05, seed=3):
    # kappa_111 = 6, kappa_1jj = -1 plus seeded noise on every sorted triple,
    # admissible at e_1 and, with noise, far from constant curvature;
    # without noise (SYMm) O(m - 1) fixing e_1 acts by automorphisms
    rng = np.random.default_rng(seed)
    coeffs = {}
    for idx in itertools.combinations_with_replacement(range(1, m + 1), 3):
        base = 6.0 if idx == (1, 1, 1) else (-1.0 if idx[0] == 1 and idx[1] == idx[2] else 0.0)
        coeffs[idx] = base + noise * rng.standard_normal()
    return ConePoint(IntersectionForm(name=f"CUBIC{m}", dim_n=3, rank_m=m, coeffs=coeffs),
                     np.eye(m)[0])


def _assert_fit_matches_24_permutations(P):
    fit = algebra_at(P).constant_curvature_test()
    lam, residual, t_norm = _constant_curvature_24(P)
    assert fit.lam == pytest.approx(lam, rel=1e-12, abs=1e-15)
    assert fit.residual == pytest.approx(residual, rel=1e-12, abs=1e-12 * t_norm)
    assert fit.is_constant == (residual <= 1e-8 * t_norm)


def test_constant_curvature_three_pairings_match_24_permutations(quartic_points):
    points = [default_point(name) for name in catalog_names()]
    points += list(quartic_points.values()) + [_cubic_point(), _cubic_point(8)]
    for P in points:
        _assert_fit_matches_24_permutations(P)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_constant_curvature_matches_24_permutations_on_random_cubics(m, seed):
    _assert_fit_matches_24_permutations(_cubic_point(m, seed=seed))


def test_constant_curvature_holds_no_m4_array():
    # the fit works one first-index slab at a time: its traced peak stays
    # below the size of a single m^4 float64 array
    m = 16
    alg = algebra_at(_cubic_point(m))
    tracemalloc.start()
    try:
        alg.constant_curvature_test()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * m**4


def _derivations_einsum(alg):
    """Reference for derivations(): the derivation system built by three
    einsums over the identity, then the same QR, SVD and cutoff."""
    m, s = alg.base.rank_m, alg.structure
    eye = np.eye(m)
    i, j = np.triu_indices(m)
    system = np.einsum("cp,rq->rcpq", eye, s[i, j])
    system -= np.einsum("prc,rq->rcpq", s[:, j], eye[i])
    system -= np.einsum("rpc,rq->rcpq", s[i], eye[j])
    r = np.linalg.qr(system.reshape(-1, m * m), mode="r")
    _, sv, vh = np.linalg.svd(r, full_matrices=False)
    null = vh[np.sum(sv > NULL_TOL * sv[0]):]
    return [flat.reshape(m, m) for flat in null]


def test_derivations_match_einsum_system():
    points = [default_point(name) for name in catalog_names()]
    points += [_cubic_point(), _cubic_point(5, noise=0.0), _cubic_point(6, noise=0.0)]
    for P in points:
        alg = algebra_at(P)
        got, ref = alg.derivations(), _derivations_einsum(alg)
        assert len(got) == len(ref)
        assert all(np.array_equal(d, e) for d, e in zip(got, ref)), P.form.name


def test_derivation_dimension_of_symmetric_cubic():
    # SYMm: the stabilizer O(m - 1) of e_1 has dimension (m - 1)(m - 2)/2
    for m in (5, 6):
        assert len(algebra_at(_cubic_point(m, noise=0.0)).derivations()) == (m - 1) * (m - 2) // 2


def test_derivation_dimensions():
    expected = {"P1XP1": 0, "P3": 0, "QUINTIC": 0, "BLP2": 0, "LOR3": 1, "CY3GEN": 0}
    for name, dim in expected.items():
        assert len(algebra_at(default_point(name)).derivations()) == dim


def test_derivation_lor3_generator_is_primitive_rotation():
    P = default_point("LOR3")
    (d,) = algebra_at(P).derivations()
    # rotation of span(e2, e3): the only nonzero entries are the 2-3 block
    assert abs(d[1, 2]) == pytest.approx(abs(d[2, 1]), abs=1e-10)
    assert abs(d[1, 2]) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-10)
    mask = np.ones((3, 3), dtype=bool)
    mask[1, 2] = mask[2, 1] = False
    assert np.abs(d[mask]).max() <= 1e-10
    # derivation equation residual on all basis pairs
    eye = np.eye(3)
    alg = algebra_at(P)
    for i in range(3):
        for j in range(3):
            lhs = d @ alg.product(eye[i], eye[j])
            rhs = alg.product(d @ eye[i], eye[j]) + alg.product(eye[i], d @ eye[j])
            assert np.abs(lhs - rhs).max() <= 1e-10


def test_derivation_defect_is_an_error(monkeypatch):
    monkeypatch.setattr(algebra, "derivation_defects", lambda P, d: {"defect too large": 2e-8})
    with pytest.raises(KConeError, match="defect too large"):
        algebra_at(default_point("LOR3")).derivations()


def test_derivation_conclusions_hold():
    P = default_point("LOR3")
    for d in algebra_at(P).derivations():
        assert P.norm(d @ P.omega) <= 1e-8
        assert max(abs(P.lambda_scalar([d[:, i]])) for i in range(3)) <= 1e-8
        assert np.linalg.norm(P.gram_inv @ d.T @ P.gram + d) <= 1e-8


def test_derivations_need_complex_dimension_two():
    point = IntersectionForm(name="PT", dim_n=1, rank_m=1, coeffs={(1,): 1.0})
    with pytest.raises(ValueError, match="requires complex dimension >= 2"):
        algebra_at(ConePoint(point, np.array([1.0]))).derivations()
