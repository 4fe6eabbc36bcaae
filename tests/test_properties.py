"""Property tests over random admissible forms with n in 2..5 and h11 in 1..4.

Each form is kappa_{1..1} = 1 and kappa_{1..1jj} = -1 for j >= 2 (admissible
at e_1 for every such n and h11: Gram diag(n, n(n-1), ..)) plus bounded
random coefficients; a draw is kept when ConePoint admits e_1.  The n = 2
curvature test draws Lorentzian quadratic forms instead.
"""

from itertools import combinations_with_replacement
from math import factorial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kcone.algebra import algebra_at
from kcone.curvature import derived_curvatures, riemann, riemann_alt
from kcone.errors import DegeneratePlane, IndefiniteMetric, NonPositiveVolume
from kcone.intersection import IntersectionForm
from kcone.metric import ConePoint, admit, lefschetz
from kcone.paths import _flow

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


@st.composite
def points_at_e1(draw, max_m=4):
    n, m = draw(st.integers(2, 5)), draw(st.integers(1, max_m))
    coeffs = {(1,) * n: 1.0}
    coeffs.update({(1,) * (n - 2) + (j, j): -1.0 for j in range(2, m + 1)})
    indices = list(combinations_with_replacement(range(1, m + 1), n))
    terms = draw(st.dictionaries(st.sampled_from(indices), st.floats(-0.3, 0.3), max_size=6))
    for idx, val in terms.items():
        coeffs[idx] = coeffs.get(idx, 0.0) + val
    form = IntersectionForm(name="RANDOM", dim_n=n, rank_m=m, coeffs=coeffs)
    try:
        return ConePoint(form, np.eye(m)[0])
    except (NonPositiveVolume, IndefiniteMetric):
        assume(False)


@SETTINGS
@given(points_at_e1(), st.integers(0, 2**32 - 1))
def test_lambda_scalar_is_the_divided_power_contraction(P, seed):
    # Lam^k(u_1..u_k) = form(u_1..u_k, omega..omega) / ((n-k)! Vol) for every k,
    # to 1e-12 of the same contraction taken over absolute values
    form, n, omega = P.form, P.dim_n, P.omega
    abs_form = IntersectionForm(
        name="ABS", dim_n=n, rank_m=P.rank_m, coeffs={k: abs(v) for k, v in form.coeffs.items()}
    )
    rng = np.random.default_rng(seed)
    for k in range(1, n + 1):
        us = list(rng.uniform(-1.0, 1.0, (k, P.rank_m)))
        ref = form.evaluate(*us, *[omega] * (n - k)) / (factorial(n - k) * P.vol)
        scale = abs_form.evaluate(*np.abs(us), *[omega] * (n - k)) / (factorial(n - k) * P.vol)
        assert abs(P.lambda_scalar(us) - ref) <= 1e-12 * scale


@SETTINGS
@given(points_at_e1(), st.integers(0, 2**32 - 1))
def test_riemann_alt_matches_riemann_on_random_classes(P, seed):
    # the exact route, with its Lam3 and (n >= 4) Lam4 terms, against the cubic
    # route on random classes, to 1e-12 max(1, max|G|^2) |u| |v| |z| |w|
    quad = np.random.default_rng(seed).uniform(-1.0, 1.0, (4, P.rank_m))
    scale = max(1.0, np.abs(P.gram).max() ** 2) * np.prod(np.linalg.norm(quad, axis=1))
    assert abs(riemann_alt(P, *quad) - riemann(P, *quad)) <= 1e-12 * scale


@SETTINGS
@given(points_at_e1(), st.integers(0, 2**32 - 1))
def test_admit_rows_match_cone_points(P, seed):
    rng = np.random.default_rng(seed)
    X = P.omega + 1e-3 * rng.standard_normal((4, P.rank_m))
    try:
        data = admit(P.form, X)
    except (NonPositiveVolume, IndefiniteMetric):
        assume(False)
    n = P.dim_n
    for b, x in enumerate(X):
        Q = ConePoint(P.form, x)
        assert abs(data.vol[b] - Q.vol) <= 1e-14 * Q.vol
        assert np.abs(data.gram[b] - Q.gram).max() <= 1e-14 * np.abs(Q.gram).max()
        for k in range(1, n + 1):
            stage = data.stages[k][min(b, len(data.stages[k]) - 1)]
            assert np.abs(stage - Q._stages[k]).max() <= 1e-14 * np.abs(Q._stages[k]).max()


@SETTINGS
@given(points_at_e1(), st.integers(0, 2**32 - 1))
def test_omega_is_the_dual_of_lam(lambda_pairs_by_inverse, acceleration_by_solve, P, seed):
    # G omega = Lam to 1e-13 of |G| |omega|; the pair tensor and the
    # acceleration that use it agree with their inverse-Gram references
    scale = np.abs(P.gram) @ np.abs(P.omega)
    assert np.all(np.abs(P.gram @ P.omega - P._lam) <= 1e-13 * scale)
    ref = lambda_pairs_by_inverse(P)
    assert np.abs(P.lambda_pairs - ref).max() <= 1e-13 * np.abs(ref).max()
    rng = np.random.default_rng(seed)
    X = P.omega + 1e-3 * rng.standard_normal((4, P.rank_m))
    V = rng.standard_normal((4, P.rank_m))
    ref = acceleration_by_solve(lefschetz(P.form, X), V)
    acc = _flow(P.form, np.stack((X, V), axis=1))[:, 1]
    assert np.all(np.abs(acc - ref).max(axis=1) <= 1e-13 * np.abs(ref).max(axis=1))


@SETTINGS
@given(points_at_e1(), st.integers(0, 2**32 - 1))
def test_derived_curvatures_match_dense_tensor(dense_curvature_check, P, seed):
    rng = np.random.default_rng(seed)
    dense_curvature_check(P, rng.uniform(-1.0, 1.0, (4, 2, P.rank_m)))


@SETTINGS
@given(points_at_e1())
def test_dense_matches_permutation_loop(dense_by_permutations, P):
    assert np.array_equal(P.form._dense, dense_by_permutations(P.form))


@SETTINGS
@given(points_at_e1())
def test_derivations_match_einsum_system(derivations_match_einsum, einsum_derivation_svd, P):
    # a draw with a singular value within 1e3 of the 1e-8 cutoff (a
    # symmetry broken by a coefficient of 1e-9 .. 1e-6) has no well-defined
    # numerical rank: two routes may count it differently
    alg = algebra_at(P)
    sv = einsum_derivation_svd(alg)[0]
    assume(not np.any((sv > 1e-11 * sv[0]) & (sv < 1e-5 * sv[0])))
    derivations_match_einsum(alg)


@SETTINGS
@given(points_at_e1())
def test_constant_curvature_matches_24_permutations(fit_matches_24_permutations, P):
    fit_matches_24_permutations(P)


@SETTINGS
@given(points_at_e1(max_m=2))
def test_constant_curvature_is_exact_for_h11_up_to_two(P):
    # no primitive plane: R_alg is -n/4 on every plane, and on the planes
    # through omega the fit is exact in floating point
    fit = algebra_at(P).constant_curvature_test()
    assert fit.residual == 0.0
    assert fit.lam == (P.dim_n / 4 if P.rank_m == 2 else 0.0)


@st.composite
def lorentzian_points(draw):
    """n = 2 cone points at omega = A^-1 e_1 of Q = A^T diag(1, -1, .., -1) A,
    A = I + 0.3 N(0, I), h11 in 2..6: Q(omega, omega) = 1, so omega is in
    the positive cone of a form of Lorentzian signature."""
    m, seed = draw(st.integers(2, 6)), draw(st.integers(0, 2**32 - 1))
    a = np.eye(m) + 0.3 * np.random.default_rng(seed).standard_normal((m, m))
    q = a.T @ np.diag([1.0] + [-1.0] * (m - 1)) @ a
    coeffs = {(i + 1, j + 1): q[i, j] for i in range(m) for j in range(i, m)}
    form = IntersectionForm(name="LORENTZ", dim_n=2, rank_m=m, coeffs=coeffs)
    try:
        return ConePoint(form, np.linalg.solve(a, np.eye(m)[0]))
    except (NonPositiveVolume, IndefiniteMetric):
        assume(False)


@SETTINGS
@given(lorentzian_points(), st.integers(0, 2**32 - 1))
def test_surface_cone_has_constant_primitive_curvature(P, seed):
    # n = 2: the cubic vanishes, so every primitive plane has sectional
    # curvature -1/n and the scalar is -k(k - 1)/n, k = m - 1; riemann_alt,
    # which reads no cubic, gives the same sectional values
    k = P.rank_m - 1
    assert not P.cubic.any()
    dc = derived_curvatures(P)
    assert dc.scalar == -k * (k - 1) / 2
    for u, v in np.random.default_rng(seed).standard_normal((3, 2, P.rank_m)):
        u, v = P.primitive_part(u), P.primitive_part(v)
        try:
            sectional = dc.sectional(u, v)
        except DegeneratePlane:   # every primitive plane for h11 = 2
            continue
        assert abs(sectional + 0.5) <= 1e-12
        den = P.inner(u, u) * P.inner(v, v) - P.inner(u, v) ** 2
        assert abs(riemann_alt(P, u, v, v, u) / den - sectional) <= 1e-12
    # the fit asks for K = n/4 = 1/2 on primitive planes: R_alg - lam R1 is
    # -1/2 + lam on the 4k entries through omega and -(1/2 + lam) R1 on the
    # 2k(k - 1) nonzero primitive ones
    m, lam = P.rank_m, (4 - P.rank_m) / (2 * P.rank_m)
    fit = algebra_at(P).constant_curvature_test()
    assert fit.lam == pytest.approx(lam, rel=1e-14)
    residual = np.sqrt((4 * k * (lam - 0.5) ** 2 + 2 * k * (k - 1) * (lam + 0.5) ** 2) / 3)
    assert fit.residual == pytest.approx(residual, rel=1e-14, abs=1e-15)
    assert fit.is_constant == (m == 2)


@SETTINGS
@given(lorentzian_points())
def test_surface_cone_derivations_are_all_of_so(P):
    # n = 2: the cubic vanishes, so its stabilizer is all of so(m - 1)
    assert len(algebra_at(P).derivations()) == (P.rank_m - 1) * (P.rank_m - 2) // 2
