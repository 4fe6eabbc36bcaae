import itertools
import tracemalloc
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcone import metric
from kcone.algebra import algebra_at
from kcone.catalog import CATALOG, catalog_names, default_point
from kcone.curvature import christoffel, christoffel_tensor, riemann_tensor
from kcone.errors import IndefiniteMetric, KConeError, NonPositiveVolume
from kcone.fdcheck import check_lambda_derivative
from kcone.intersection import IntersectionForm
from kcone.metric import POSDEF_TOL, ConePoint, Lefschetz, _divisor, _finite, admit, lefschetz


def test_cone_point_p1xp1():
    P = default_point("P1XP1")
    assert P.vol == pytest.approx(1.0)
    assert np.allclose(P.gram, np.eye(2))


def test_cone_point_blp2():
    # (4 - 1)/2 at omega = 2H - E
    P = default_point("BLP2")
    assert P.vol == pytest.approx(1.5)


def test_cone_point_rejects_negative_volume():
    with pytest.raises(NonPositiveVolume):
        ConePoint(CATALOG["P1XP1"], np.array([1.0, -1.0]))


def test_cone_point_rejects_indefinite_gram():
    # volume (8 - 12 + 6)/6 = 1/3 > 0 but the Gram matrix is indefinite
    with pytest.raises(IndefiniteMetric):
        ConePoint(CATALOG["CY3GEN"], np.array([1.0, -1.0]))


def test_cone_point_rejects_non_finite_omega():
    with pytest.raises(ValueError, match="non-finite"):
        ConePoint(CATALOG["P1XP1"], np.array([np.inf, 1.0]))


def test_lefschetz_batch_matches_cone_points():
    # one batched kernel call agrees with per-point admission on every catalog form
    rng = np.random.default_rng(4)
    for name in catalog_names():
        P = default_point(name)
        X = P.omega * (1.0 + 0.01 * rng.standard_normal((5, 1)))
        data = admit(P.form, X)
        for b, x in enumerate(X):
            Q = ConePoint(P.form, x)
            assert abs(data.vol[b] - Q.vol) <= 1e-14 * Q.vol
            assert np.abs(data.lam[b] - Q._lam).max() <= 1e-14
            assert np.abs(data.gram[b] - Q.gram).max() <= 1e-14 * np.abs(Q.gram).max()
            n = P.dim_n
            for k in range(1, n + 1):   # Lam^k from the batch row and from the point
                stage = data.stages[k]
                lam_k = stage[min(b, len(stage) - 1)] / (factorial(n - k) * data.vol[b])
                ref = Q._stages[k] / (factorial(n - k) * Q.vol)
                assert np.abs(lam_k - ref).max() <= 1e-14 * np.abs(ref).max()


def test_admit_names_the_failing_row():
    X = np.array([[1.0, 1.0], [1.0, -1.0]])
    with pytest.raises(NonPositiveVolume, match="point 1"):
        admit(CATALOG["P1XP1"], X)
    with pytest.raises(IndefiniteMetric, match="point 1"):
        admit(CATALOG["CY3GEN"], X)


def _outcome(fn, *args):
    """None if fn(*args) returns, else the type and text of what it raised."""
    try:
        fn(*args)
    except (KConeError, ValueError) as err:
        return type(err), str(err)
    return None


def _gram_row(kind, m, rng):
    """An (m, m) symmetric matrix of the kind: diagonally dominant, with a
    negative eigenvalue, non-finite, or with lam_min / lam_max in [tau/2, 4 tau]."""
    q = np.linalg.qr(rng.standard_normal((m, m)))[0]
    scale = 10.0 ** rng.uniform(-3, 3)
    if kind in ("dominant", "non-finite"):
        d = scale * 10.0 ** rng.uniform(-3, 3, m)
        a = rng.uniform(-1.0, 1.0, (m, m))
        g = np.diag(d) + 0.99 / m * (a + a.T) / 2 * np.minimum.outer(d, d) * (1 - np.eye(m))
        if kind == "non-finite":
            i, j = rng.integers(m, size=2)
            g[i, j] = g[j, i] = rng.choice([np.inf, -np.inf, np.nan])
        return g
    if kind == "indefinite":
        lam = rng.uniform(-1.0, 1.0, m)
        lam[0] = -abs(lam[0]) - 1e-3
    else:
        lam = rng.uniform(0.0, 1.0, m)
        lam[0], lam[-1] = POSDEF_TOL * 2.0 ** rng.uniform(-1, 2), 1.0
    if kind == "near, rotated":
        return scale * (q * lam) @ q.T
    g = np.diag(scale * lam[rng.permutation(m)])
    if kind == "near, perturbed":
        g += 1e-3 * POSDEF_TOL * scale * (1 - np.eye(m))
    return g


KINDS = ["dominant", "non-finite", "indefinite", "near", "near, rotated", "near, perturbed"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 5), st.lists(st.sampled_from(KINDS), min_size=1, max_size=6),
       st.integers(0, 2**32 - 1))
def test_disc_admission_matches_eigvalsh(admit_by_eigvalsh, m, kinds, seed):
    # the rows the Gershgorin discs admit pass the eigenvalue rule; the others
    # reach eigvalsh, so the verdict and the text of the first failing row are
    # those of eigvalsh on every row
    rng = np.random.default_rng(seed)
    gram = np.array([_gram_row(kind, m, rng) for kind in kinds])
    X = rng.uniform(0.5, 2.0, (len(kinds), m))
    data = Lefschetz(np.ones(len(X)), X, gram, gram, [])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metric, "lefschetz", lambda form, X, what: data)
        assert _outcome(admit, None, X, "sample") == _outcome(admit_by_eigvalsh, None, X, "sample")


def test_disc_admission_matches_eigvalsh_toward_the_walls(admit_by_eigvalsh):
    # real Gram matrices: rows along rays to the walls of every catalog form,
    # admissible, undecided by the discs and inadmissible, as one batch and one by one
    rng = np.random.default_rng(32)
    for name in catalog_names():
        P = default_point(name)
        alpha = rng.uniform(-1.0, 1.0, (8, P.rank_m))
        ts = np.ldexp(1.0, -np.arange(0, 40, 3))
        X = (alpha[:, None] + ts[:, None] * P.omega).reshape(-1, P.rank_m)
        X = np.concatenate([P.omega * (1.0 + 0.01 * rng.standard_normal((16, 1))), X])
        for rows in [X[:16], X] + [x[None] for x in X]:
            assert _outcome(admit, P.form, rows) == _outcome(admit_by_eigvalsh, P.form, rows)


def test_admit_words_the_first_failing_row_finite_or_not():
    # a non-finite row is zeroed before eigvalsh and fails, so the first failing
    # row in input order chooses the error: an indefinite one, or the overflow
    indefinite, nan_diagonal = np.diag([1.0, -1.0, 2.0]), np.diag([np.nan, 1.0, 1.0])
    X = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    cases = [((indefinite, nan_diagonal), IndefiniteMetric, "Gram matrix of point 0 at "
              "[1.0, 2.0, 3.0] is not positive definite (eigenvalues [-1.0, 1.0, 2.0])"),
             ((nan_diagonal, indefinite), ValueError,
              "metric of point 0 at [1.0, 2.0, 3.0] overflows double precision")]
    for rows, error, text in cases:
        gram = np.array(rows)
        data = Lefschetz(np.ones(2), X, gram, gram, [])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metric, "lefschetz", lambda form, X, what: data)
            assert _outcome(admit, None, X) == (error, text)


class _Unformattable(np.ndarray):
    """A point that fails the test if it is formatted into a message."""

    def tolist(self):
        raise AssertionError("a range message was formatted for a finite result")


def test_range_messages_are_formatted_only_on_failure(monkeypatch):
    point = np.array([1.0, 2.0]).view(_Unformattable)
    assert _finite(np.ones(2), "curvature tensor at", point) is not None
    with pytest.raises(ValueError) as err:
        _finite(np.array([1.0, np.inf]), "curvature tensor at", np.array([1.0, 2.0]))
    assert str(err.value) == "curvature tensor at [1.0, 2.0] overflows double precision"
    with pytest.raises(ValueError) as err:
        _finite(np.array(np.nan), "the product table")
    assert str(err.value) == "the product table overflows double precision"
    # the callers pass the point, not its text: Gamma's z, R's and the KN residual's omega
    P = default_point("LOR3")
    P.cubic, P.coframe   # cached before omega is swapped
    P.omega = P.omega.view(_Unformattable)
    check_class = IntersectionForm._check_class
    monkeypatch.setattr(IntersectionForm, "_check_class",
                        lambda form, a: check_class(form, a).view(_Unformattable))
    christoffel(P, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    riemann_tensor(P)
    algebra_at(P).kn_reconstruction_residual()


def test_overflowing_metric_is_input_error():
    # the metric of P1XP1 at (1, t) is diag(1, 1/t^2): positive definite, but
    # 1/t^2 = 1e600 at t = 1e-300 overflows double precision
    form = CATALOG["P1XP1"]
    with pytest.raises(ValueError, match=r"point 0 at \[1.0, 1e-300\] overflows double"):
        ConePoint(form, np.array([1.0, 1e-300]))
    with pytest.raises(ValueError, match="sample 1 .* overflows double precision"):
        admit(form, np.array([[1.0, 1.0], [1.0, 1e-300]]), "sample")
    # Vol = xy overflows to inf at (1e200, 1e200), so Lam = stage / Vol and the
    # Gram matrix come out as 0: an overflow, not an indefinite metric
    with pytest.raises(ValueError, match=r"point 0 at \[1e\+200, 1e\+200\] overflows double"):
        ConePoint(form, np.array([1e200, 1e200]))


def test_lefschetz_words_overflow_without_a_warning():
    # the public kernel owns its errstate: under the suite's error::RuntimeWarning
    # an overflowing volume is its ValueError, not the matmul's warning, and a
    # Gram matrix that overflows is returned for admit to judge
    form = CATALOG["P1XP1"]
    with pytest.raises(ValueError) as err:
        lefschetz(form, np.array([[1e200, 1e200]]))
    assert str(err.value) == "volume of point 0 at [1e+200, 1e+200] overflows double precision"
    assert not np.isfinite(lefschetz(form, np.array([[1.0, 1e-300]])).gram).all()


def test_underflowing_volume_is_input_error():
    # Vol = xy underflows to 0 at (1e-200, 1e-200) and is positive once the
    # row is scaled by a power of two; at (1e-200, -1e-200) it stays negative
    form = CATALOG["P1XP1"]
    with pytest.raises(ValueError, match=r"point 0 at \[1e-200, 1e-200\] underflows double"):
        ConePoint(form, np.array([1e-200, 1e-200]))
    with pytest.raises(ValueError, match="sample 1 .* underflows double precision"):
        admit(form, np.array([[1.0, 1.0], [1e-200, 1e-200]]), "sample")
    with pytest.raises(ValueError, match=r"point 0 at \[1e-110\] underflows double"):
        ConePoint(CATALOG["P3"], np.array([1e-110]))
    for wall in ([1e-200, -1e-200], [1.0, 0.0], [0.0, 0.0]):
        with pytest.raises(NonPositiveVolume):
            ConePoint(form, np.array(wall))


def test_cone_point_caches_consistent():
    for name in catalog_names():
        P = default_point(name)
        assert np.abs(P.gram - P.gram.T).max() <= 1e-12
        assert np.abs(P.gram @ P.gram_inv - np.eye(P.rank_m)).max() <= 1e-10


def test_lambda_scalar_of_omega_is_n():
    for name in catalog_names():
        P = default_point(name)
        assert P.lambda_scalar([P.omega]) == pytest.approx(P.dim_n, rel=1e-12)


def test_lambda_scalar_examples():
    P = default_point("P1XP1")
    assert P.lambda_scalar([np.array([1.0, 0.0])]) == pytest.approx(1.0)
    Q = default_point("QUINTIC")
    e = np.ones(1)
    assert Q.lambda_scalar([e, e]) == pytest.approx(6.0)


def test_lambda_scalar_degree_above_top_is_zero():
    P = default_point("P1XP1")
    assert P.lambda_scalar([P.omega, P.omega, P.omega]) == 0.0


def test_lambda_scalar_needs_a_class():
    with pytest.raises(ValueError, match="at least one class"):
        default_point("P1XP1").lambda_scalar([])


def test_inner_omega_is_n():
    for name in catalog_names():
        P = default_point(name)
        assert P.inner(P.omega, P.omega) == pytest.approx(P.dim_n, rel=1e-12)


def test_inner_with_omega_equals_lambda():
    for name in catalog_names():
        P = default_point(name)
        rng = np.random.default_rng(3)
        for _ in range(5):
            u = rng.uniform(-1, 1, P.rank_m)
            assert P.inner(u, P.omega) == pytest.approx(
                P.lambda_scalar([u]), abs=1e-12
            )


def test_primitive_part_examples():
    P = default_point("P1XP1")
    assert np.allclose(P.primitive_part(np.array([1.0, 0.0])), [0.5, -0.5])
    assert np.abs(P.primitive_part(P.omega)).max() <= 1e-14


def test_primitive_part_properties():
    for name in catalog_names():
        P = default_point(name)
        rng = np.random.default_rng(4)
        u = rng.uniform(-1, 1, P.rank_m)
        p = P.primitive_part(u)
        assert abs(P.lambda_scalar([p])) <= 1e-12
        assert np.abs(P.primitive_part(p) - p).max() <= 1e-12
        # primitive classes are orthogonal to omega
        assert abs(P.inner(p, P.omega)) <= 1e-12


def test_lambda_class_p1xp1_examples():
    P = default_point("P1XP1")
    h1, h2 = np.eye(2)
    assert np.allclose(P.lambda_class(h1, h2), P.omega)
    assert np.abs(P.lambda_class(h1, h1)).max() <= 1e-14


def test_lambda_class_with_omega_identity():
    # Lam(u cup omega) = Lam(u) omega + (n-2) u
    for name in catalog_names():
        P = default_point(name)
        rng = np.random.default_rng(5)
        for _ in range(5):
            u = rng.uniform(-1, 1, P.rank_m)
            expect = P.lambda_scalar([u]) * P.omega + (P.dim_n - 2) * u
            assert np.abs(P.lambda_class(u, P.omega) - expect).max() <= 1e-10


def test_lambda_class_symmetry_and_bilinearity():
    P = default_point("CY3GEN")
    rng = np.random.default_rng(6)
    u, v, w = (rng.uniform(-1, 1, 2) for _ in range(3))
    assert np.abs(P.lambda_class(u, v) - P.lambda_class(v, u)).max() <= 1e-12
    lam = 1.3
    lhs = P.lambda_class(u + lam * w, v)
    rhs = P.lambda_class(u, v) + lam * P.lambda_class(w, v)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_lambda_class_defining_equation_roundtrip():
    # <Lam(u cup v), z> = -Lam3(u,v,z) + Lam2(u,v) Lam(z) on all basis pairs
    for name in catalog_names():
        P = default_point(name)
        eye = np.eye(P.rank_m)
        for i in range(P.rank_m):
            for j in range(P.rank_m):
                lc = P.lambda_class(eye[i], eye[j])
                for k in range(P.rank_m):
                    rhs = -P.lambda_scalar([eye[i], eye[j], eye[k]]) + P.lambda_scalar(
                        [eye[i], eye[j]]
                    ) * P.lambda_scalar([eye[k]])
                    assert P.inner(lc, eye[k]) == pytest.approx(rhs, abs=1e-10)


def test_lambda_derivative_rule_fd():
    for name in catalog_names():
        P = default_point(name)
        rng = np.random.default_rng(7)
        for k in range(1, P.dim_n):
            classes = [rng.uniform(-1, 1, P.rank_m) for _ in range(k)]
            v = rng.uniform(-1, 1, P.rank_m)
            assert check_lambda_derivative(P, classes, v).max_dev <= 1e-6


def test_lambda_derivative_zero_direction():
    P = default_point("P1XP1")
    rep = check_lambda_derivative(P, [np.array([1.0, 0.0])], np.zeros(2))
    assert rep.max_dev == 0.0


def test_lambda_pairs_symmetric_and_defining_equation(quartic_points):
    # G Lam(e_i cup e_j) = -Lam3(e_i, e_j, .) + Lam2(e_i, e_j) Lam, entry by entry
    points = [default_point(name) for name in catalog_names()]
    for P in points + list(quartic_points.values()):
        pairs = P.lambda_pairs
        assert np.abs(pairs - pairs.transpose(1, 0, 2)).max() == 0.0
        eye = np.eye(P.rank_m)
        for i, j, k in itertools.product(range(P.rank_m), repeat=3):
            rhs = -P.lambda_scalar([eye[i], eye[j], eye[k]]) + P.lambda_scalar(
                [eye[i], eye[j]]
            ) * P.lambda_scalar([eye[k]])
            assert abs(P.gram[k] @ pairs[i, j] - rhs) <= 1e-12, (P, i, j, k)


def _identity_points(quartic_points, hyperbolic_point):
    catalog = [default_point(name) for name in catalog_names()]
    return catalog + list(quartic_points.values()) + [hyperbolic_point(3, m) for m in (6, 12)]


def test_gram_maps_omega_to_lam(quartic_points, hyperbolic_point):
    # g(omega, z) = n Lam(z) - (n-1) Lam(z) = Lam(z), to 1e-13 of |G| |omega|
    for P in _identity_points(quartic_points, hyperbolic_point):
        scale = np.abs(P.gram) @ np.abs(P.omega)
        assert np.all(np.abs(P.gram @ P.omega - P._lam) <= 1e-13 * scale), P


def test_lambda_pairs_match_the_inverse_gram_route(
    quartic_points, hyperbolic_point, lambda_pairs_by_inverse
):
    for P in _identity_points(quartic_points, hyperbolic_point):
        ref = lambda_pairs_by_inverse(P)
        assert np.abs(P.lambda_pairs - ref).max() <= 1e-13 * np.abs(ref).max(), P


def test_surface_cone_product_makes_no_inverse(monkeypatch, lambda_pairs_by_inverse):
    # n = 2: Lam(u cup z) = Lam2(u cup z) omega, so the pair tensor, the
    # connection and the product read neither gram_inv nor a solve
    def no_inverse(*args, **kwargs):
        raise AssertionError("inverse Gram matrix used")

    for name in ("P1XP1", "BLP2", "LOR3"):
        with monkeypatch.context() as mp:
            for fn in ("inv", "solve"):
                mp.setattr(np.linalg, fn, no_inverse)
            P = default_point(name)   # admission makes no inverse either
            pairs = P.lambda_pairs
            gamma = christoffel_tensor(P)
            structure = algebra_at(P).structure
        ref = lambda_pairs_by_inverse(P)
        assert np.abs(pairs - ref).max() <= 1e-13 * np.abs(ref).max(), name
        assert np.array_equal(structure, 0.5 * pairs)
        # Gamma(z, omega) = -z
        assert np.abs(np.einsum("zuk,u->zk", gamma, P.omega) + np.eye(P.rank_m)).max() <= 1e-13


def _cubic_out_of_place(P):
    # ConePoint.cubic as one expression with its full-size temporaries
    m, k, x = P.rank_m, P.rank_m - 1, P.frame[:, 1:]
    if P.dim_n < 3:
        return np.zeros((k, k, k))
    t = (P._stages[3].reshape(m * m, m) @ x).reshape(m, m * k)
    c = x.T @ (x.T @ t).reshape(k, m, k) * (-0.5 / _divisor(P.dim_n, 3, P.vol))
    return 0.5 * (c + c.transpose(1, 0, 2))


def test_cubic_in_place_equals_out_of_place(hyperbolic_point):
    for n, ms in ((2, (1, 4)), (3, (1, 2, 3, 7, 24, 64)), (4, (1, 2, 5, 12))):
        for m in ms:
            P = hyperbolic_point(n, m)
            assert np.array_equal(P.cubic, _cubic_out_of_place(P)), (n, m)
            assert P.cubic.shape == (m - 1,) * 3


def test_cubic_holds_bounded_scratch(hyperbolic_point):
    # beside the result, the contraction holds at most two partial products;
    # the out-of-place build held up to four m^2 (m - 1) arrays at once
    m = 64
    P = hyperbolic_point(3, m)
    P.frame
    tracemalloc.start()
    try:
        P.cubic
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * m * m * (m - 1) * 8
