import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcone import algebra
from kcone.algebra import algebra_at, kn_product
from kcone.catalog import catalog_names, default_point
from kcone.curvature import riemann_tensor
from kcone.intersection import IntersectionForm
from kcone.metric import ConePoint
from kcone.verify import symmetry_deviation


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
        assert symmetry_deviation(tensor) <= 1e-12


def test_algebra_curvature_rank_one_zero():
    tensor = algebra_at(default_point("P3")).curvature_tensor()
    assert np.abs(tensor).max() <= 1e-14


def test_algebra_curvature_lor3_sign():
    P = default_point("LOR3")
    tensor = algebra_at(P).curvature_tensor()
    u = np.array([0.0, 1.0, 0.0]) / np.sqrt(2.0)
    v = np.array([0.0, 0.0, 1.0]) / np.sqrt(2.0)
    val = np.einsum("ijkl,i,j,k,l->", tensor, u, v, v, u)
    assert val == pytest.approx(0.5, abs=1e-12)


def test_sign_relation_with_metric_tensor():
    for name in catalog_names():
        P = default_point(name)
        m = P.rank_m
        ralg = algebra_at(P).curvature_tensor()
        pi = np.eye(m) - np.outer(P.omega, P._lam) / P.dim_n
        prim = np.einsum("abcd,ai,bj,ck,dl->ijkl", ralg, pi, pi, pi, pi)
        assert np.abs(riemann_tensor(P) + prim).max() <= 1e-10


def test_frame_is_omega_adapted_and_orthonormal(quartic_points):
    points = [default_point(name) for name in catalog_names()]
    for P in points + list(quartic_points.values()):
        x = P.frame
        assert np.abs(x.T @ P.gram @ x - np.eye(P.rank_m)).max() <= 1e-12, P
        assert np.array_equal(x[:, 0], P.omega / np.sqrt(P.dim_n)), P
        assert np.abs(P._lam @ x[:, 1:]).max(initial=0.0) <= 1e-12, P


def test_bilinear_forms_reconstruct_product():
    for name in catalog_names():
        P = default_point(name)
        alg = algebra_at(P)
        forms = alg.bilinear_forms()
        assert np.abs(forms - forms.transpose(0, 2, 1)).max() <= 1e-12
        rebuilt = np.einsum("lij,cl->ijc", forms, P.frame)
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
        total = sum(kn_product(b) for b in alg.bilinear_forms())
        expect = float(np.abs(alg.curvature_tensor() + total).max())
        assert abs(alg.kn_reconstruction_residual() - expect) <= 1e-14


def test_kn_residual_matches_sum_of_kn_squares_away_from_zero(
    monkeypatch, quartic_points, kn_residual_full_slabs
):
    # perturbed forms no longer cancel R_alg, so the residual is far from
    # roundoff and must still equal the dense sum of Kulkarni-Nomizu squares
    # and, within 1e-15 max(1, ref), the residual over every slab entry
    rng = np.random.default_rng(5)
    points = [default_point(name) for name in ("BLP2", "LOR3", "CY3GEN")]
    for P in points + list(quartic_points.values()):
        alg = algebra_at(P)
        forms = alg.bilinear_forms()
        bent = forms + 0.1 * rng.standard_normal(forms.shape)
        monkeypatch.setattr(alg, "bilinear_forms", lambda: bent)
        total = sum(kn_product(b) for b in bent)
        expect = float(np.abs(alg.curvature_tensor() + total).max())
        assert expect > 1e-3
        assert abs(alg.kn_reconstruction_residual() - expect) <= 1e-12 * expect
        ref = kn_residual_full_slabs(alg)
        assert abs(alg.kn_reconstruction_residual() - ref) <= 1e-15 * max(1.0, ref)


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


def test_constant_curvature_three_pairings_match_24_permutations(
    quartic_points, fit_matches_24_permutations, cubic_point
):
    points = [default_point(name) for name in catalog_names()]
    points += list(quartic_points.values()) + [cubic_point(), cubic_point(8)]
    for P in points:
        fit_matches_24_permutations(P)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_constant_curvature_matches_24_permutations_on_random_cubics(
    fit_matches_24_permutations, cubic_point, m, seed
):
    fit_matches_24_permutations(cubic_point(m, seed=seed))


def test_halved_slabs_match_full_slabs(quartic_points, halved_slabs_match_full, cubic_point):
    # the KN residual contracts slab i over j >= i only, and the fit sums
    # twice the e > a rows of slab a: both against every slab entry
    points = [default_point(name) for name in catalog_names()]
    points += list(quartic_points.values()) + [cubic_point(m) for m in (6, 12, 16)]
    for P in points:
        halved_slabs_match_full(algebra_at(P))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(3, 4), st.integers(2, 9), st.integers(0, 2**32 - 1))
def test_halved_slabs_match_full_slabs_on_random_forms(
    hyperbolic_point, halved_slabs_match_full, n, m, seed
):
    halved_slabs_match_full(algebra_at(hyperbolic_point(n, m, seed)))


def test_constant_curvature_holds_no_m4_array(cubic_point):
    # the fit works one first-index slab at a time: its traced peak stays
    # below the size of a single m^4 float64 array
    m = 16
    alg = algebra_at(cubic_point(m))
    tracemalloc.start()
    try:
        alg.constant_curvature_test()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * m**4


def test_derivations_match_einsum_system(
    derivations_match_einsum, cubic_point, gl_symmetric_point
):
    gl_points = [gl_symmetric_point(m) for m in (6, 12)]
    # the cutoff pitfall: a cutoff relative to the largest singular value of
    # the so(m - 1) system would count this roundoff cubic as rank
    assert all(0.0 < np.abs(P.cubic).max() <= 1e-12 for P in gl_points)
    points = [default_point(name) for name in catalog_names()] + gl_points
    points += [cubic_point(m, noise=noise) for m in (5, 6, 8, 12) for noise in (0.05, 0.0)]
    for P in points:
        derivations_match_einsum(algebra_at(P))


def test_derivations_equal_the_full_svd(derivations_full_svd, cubic_point, gl_symmetric_point):
    # a values-only SVD first, the full one only when a value is within twice
    # the cutoff: the derivations are bitwise those of the full SVD every time
    points = [default_point(name) for name in catalog_names()]
    points += [gl_symmetric_point(m) for m in (6, 12)]
    points += [cubic_point(m, noise=noise) for m in (5, 6, 8, 12) for noise in (0.05, 0.0)]
    for P in points:
        alg = algebra_at(P)
        got, ref = alg.derivations(), derivations_full_svd(alg)
        assert len(got) == len(ref) and all(map(np.array_equal, got, ref)), P


def test_derivations_judge_values_near_the_cutoff_by_the_full_svd(monkeypatch, cubic_point):
    # the two SVD drivers round differently: values-only singular values raised to
    # 1.5 times the cutoff still leave the verdict to the full SVD, so SYM5 keeps
    # its (m - 1)(m - 2)/2 = 6 derivations
    alg = algebra_at(cubic_point(5, noise=0.0))
    alg.base.frame, alg.base.coframe
    svd = np.linalg.svd

    def raised(a, *args, compute_uv=True, **kwargs):
        out = svd(a, *args, compute_uv=compute_uv, **kwargs)
        return out if compute_uv else np.maximum(out, 1.5 * algebra.NULL_TOL * out.max(initial=1.0))

    monkeypatch.setattr(algebra.np.linalg, "svd", raised)
    assert len(alg.derivations()) == 6


def _dense_derivation_system(c):
    # the (rows, k(k - 1)/2) system as derivations() built it in one piece,
    # with the dense (rows, k, k) array and its two gathered copies
    k = c.shape[0]
    a, b, f = np.array(list(itertools.combinations_with_replacement(range(k), 3)),
                       int).reshape(-1, 3).T
    row = np.arange(a.size)
    system = np.zeros((a.size, k, k))
    system[row, :, a] = c[:, b, f].T
    system[row, :, b] += c[a, :, f]
    system[row, :, f] += c[a, b]
    p, q = np.triu_indices(k, 1)
    return system[:, p, q] - system[:, q, p]


class _SystemBuilt(Exception):
    pass


def test_blocked_derivation_system_equals_dense_builder(monkeypatch):
    # random symmetric cubics, k = 0..30: one block up to k = 12, then
    # uneven blocks (k = 23: 2,300 rows in 18 blocks, k = 30: 4,960 in 68)
    captured = []

    def qr(lhs, mode):
        captured.append(lhs)
        raise _SystemBuilt

    monkeypatch.setattr(algebra.np.linalg, "qr", qr)
    rng = np.random.default_rng(21)
    for k in range(31):
        c = rng.standard_normal((k, k, k))
        c = sum(c.transpose(perm) for perm in itertools.permutations(range(3)))
        base = SimpleNamespace(dim_n=3, rank_m=k + 1, cubic=c)
        with pytest.raises(_SystemBuilt):
            algebra.AlgebraAtPoint.derivations(SimpleNamespace(base=base))
        dense = _dense_derivation_system(c)
        assert captured[-1].shape == dense.shape and np.array_equal(captured[-1], dense), k


def test_derivations_hold_bounded_scratch(cubic_point):
    # at m = 24 the (2,300, 23, 23) dense system and its gathered copies
    # peaked at 22.8 MB; row blocks keep the (2,300, 253) system and the QR
    P = cubic_point(24)
    P.cubic, P.coframe
    tracemalloc.start()
    try:
        assert algebra_at(P).derivations() == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20


def test_derivation_dimension_of_symmetric_cubic(cubic_point):
    # SYMm: the stabilizer O(m - 1) of e_1 has dimension (m - 1)(m - 2)/2
    for m in (5, 6):
        assert len(algebra_at(cubic_point(m, noise=0.0)).derivations()) == (m - 1) * (m - 2) // 2


def test_derivation_dimensions():
    expected = {"P1XP1": 0, "P3": 0, "QUINTIC": 0, "BLP2": 0, "LOR3": 1, "CY3GEN": 0}
    for name, dim in expected.items():
        assert len(algebra_at(default_point(name)).derivations()) == dim


def test_derivation_lor3_generator_is_primitive_rotation():
    P = default_point("LOR3")
    (d,) = algebra_at(P).derivations()
    # rotation of span(e2, e3): the only nonzero entries are the 2-3 block;
    # the frame route leaves exact zeros everywhere else
    assert abs(d[1, 2]) == pytest.approx(abs(d[2, 1]), abs=1e-10)
    assert abs(d[1, 2]) > 0.5
    mask = np.ones((3, 3), dtype=bool)
    mask[1, 2] = mask[2, 1] = False
    assert np.all(d[mask] == 0.0)
    # derivation equation residual on all basis pairs
    eye = np.eye(3)
    alg = algebra_at(P)
    for i in range(3):
        for j in range(3):
            lhs = d @ alg.product(eye[i], eye[j])
            rhs = alg.product(d @ eye[i], eye[j]) + alg.product(eye[i], d @ eye[j])
            assert np.abs(lhs - rhs).max() <= 1e-10


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
