import json
import sys
import warnings
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import factorial, isfinite
from pathlib import Path

# allow running the suite from a fresh checkout without installing
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from kcone import metric  # noqa: E402
from kcone.algebra import NULL_TOL, algebra_at  # noqa: E402
from kcone.catalog import default_point  # noqa: E402
from kcone.curvature import _exact, _fractions, derived_curvatures  # noqa: E402
from kcone.errors import DegeneratePlane, IndefiniteMetric, ManifoldFormatError  # noqa: E402
from kcone.fdcheck import fd_directional  # noqa: E402
from kcone.intersection import IntersectionForm  # noqa: E402
from kcone.metric import POSDEF_TOL, ConePoint, _divisor, _finite  # noqa: E402
from kcone.verify import run_verification  # noqa: E402


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """hypothesis's pytest plugin writes a patch for each failing example with libcst,
    whose import warns a DeprecationWarning: under the suite's filterwarnings that ended
    the session in INTERNALERROR, hiding the failure.  Import it first, the warning ignored."""
    if call.when == "teardown" and hasattr(item, "_hypothesis_failing_examples"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            try:
                import hypothesis.extra._patching  # noqa: F401
            except ImportError:   # without libcst the plugin writes no patch
                pass
    yield


@pytest.fixture(scope="session")
def suite():
    """One shared run of the whole verification suite: its records by name."""
    checks, _ = run_verification()
    return {c["name"]: c for c in checks}


@pytest.fixture(scope="session")
def quartic_points():
    """Two n = 4 cone points, where Lam3 comes from a contraction with omega
    and inner22 has a Lam4 term: P1^4 and a rank-3 quartic."""
    p1_4 = IntersectionForm(name="P1^4", dim_n=4, rank_m=4, coeffs={(1, 2, 3, 4): 1.0})
    quartic = IntersectionForm(
        name="QUARTIC3",
        dim_n=4,
        rank_m=3,
        coeffs={(1, 1, 1, 1): 6.0, (1, 1, 2, 2): -1.0, (1, 1, 3, 3): -1.0, (1, 2, 2, 3): 0.3},
    )
    return {
        "P1^4": ConePoint(p1_4, np.array([1.0, 1.0, 1.0, 1.3])),
        "QUARTIC3": ConePoint(quartic, np.array([1.0, 0.1, 0.05])),
    }


def _hyperbolic_point(n, m, seed=0):
    """kappa_1..1 = n!, kappa_1..1jj = -1 for j >= 2 (SYNm for n = 3) plus
    0.05 N(0, 1) on about 30% of the sorted indices; admissible at e_1."""
    rng = np.random.default_rng([n, m, seed])
    coeffs = {idx: 0.05 * rng.standard_normal()
              for idx in combinations_with_replacement(range(1, m + 1), n)
              if rng.random() < 0.3}
    coeffs[(1,) * n] = float(factorial(n))
    coeffs.update({(1,) * (n - 2) + (j, j): -1.0 for j in range(2, m + 1)})
    return ConePoint(IntersectionForm(f"H{n}_{m}", n, m, coeffs), np.eye(m)[0])


@pytest.fixture(scope="session")
def hyperbolic_point():
    return _hyperbolic_point


def _lambda_pairs_by_inverse(P):
    """ConePoint.lambda_pairs with both terms sent through gram_inv: the
    reference for the identity G omega = Lam that spares the Lam2 term."""
    rhs = np.multiply.outer(P._lam2, P._lam)
    if P.dim_n >= 3:
        rhs -= P._stages[3] / _divisor(P.dim_n, 3, P.vol)
    pairs = rhs @ P.gram_inv.T
    return 0.5 * (pairs + pairs.transpose(1, 0, 2))


def _acceleration_by_solve(data, v):
    """paths._acceleration with both terms of Lam(v cup v) in one solve: the
    reference for the identity G x = Lam that spares the Lam2 term."""
    n, m = len(data.stages) - 1, v.shape[1]
    vc = v[:, :, None]
    rhs = (v[:, None, :] @ data.lam2 @ vc) * data.lam[:, :, None]
    if n >= 3:
        t3vv = (data.stages[3].reshape(-1, m * m, m) @ vc).reshape(-1, m, m) @ vc
        rhs -= t3vv / _divisor(n, 3, data.vol)[:, None, None]
    lvv = np.linalg.solve(data.gram, rhs)
    return ((data.lam[:, None, :] @ vc) * vc - 0.5 * lvv)[:, :, 0]


@pytest.fixture(scope="session")
def lambda_pairs_by_inverse():
    return _lambda_pairs_by_inverse


@pytest.fixture(scope="session")
def acceleration_by_solve():
    return _acceleration_by_solve


def _kn_residual_full_slabs(alg):
    """AlgebraAtPoint.kn_reconstruction_residual with every slab i contracted
    over all j, not only j >= i: the reference for its use of the symmetry
    E[i,k,j,l] = E[j,l,i,k]."""
    m = alg.base.rank_m
    with np.errstate(over="ignore", invalid="ignore"):
        f, s = alg.bilinear_forms(), alg.structure
        fmat = f.reshape(m, m * m)
        gst = alg.base.gram @ s.reshape(m * m, m).T
        slab_max = np.empty(m)
        for i in range(m):
            d = (f[:, i].T @ fmat - s[i] @ gst).reshape(m, m, m)   # [k, j, l] = D[i, k, j, l]
            slab_max[i] = np.abs(d - d.transpose(2, 1, 0)).max()
    return float(slab_max.max())


def _constant_curvature_residual_full_slabs(alg):
    """The residual of AlgebraAtPoint.constant_curvature_test with every slab
    a summed over all rows e, not twice over e > a: the reference for its use
    of the antisymmetry of a slab in (a, e)."""
    n, m, k, c = alg.base.dim_n, alg.base.rank_m, alg.base.rank_m - 1, alg.base.cubic
    flat = c.reshape(k * k, k)
    lam = derived_curvatures(alg.base).scalar / (m * m - m) + n / (2 * m) if m > 1 else 0.0
    shift, b, res_sq = lam + 1.0 / n, np.arange(k), 4 * k * (lam - n / 4) ** 2
    for a in range(k):
        ip = (c[a] @ flat.T).reshape(k, k, k)   # [b, e, d] = <c_ab, c_ed>
        r = ip.transpose(1, 0, 2) - ip.transpose(1, 2, 0)
        r[b, a, b] += shift
        r[b, b, a] -= shift
        res_sq += float(np.vdot(r, r))
    return float(np.sqrt(res_sq / 3))


def _assert_halved_slabs_match_full(alg):
    """The KN residual to 1e-15 max(1, ref) and the constant-curvature
    residual to 1e-12 relative of their full-slab references."""
    ref = _kn_residual_full_slabs(alg)
    assert abs(alg.kn_reconstruction_residual() - ref) <= 1e-15 * max(1.0, ref), alg.base
    ref = _constant_curvature_residual_full_slabs(alg)
    assert abs(alg.constant_curvature_test().residual - ref) <= 1e-12 * ref, alg.base


@pytest.fixture(scope="session")
def kn_residual_full_slabs():
    return _kn_residual_full_slabs


@pytest.fixture(scope="session")
def halved_slabs_match_full():
    return _assert_halved_slabs_match_full


def _check_against_dense_curvature(P, planes):
    """derived_curvatures (cubic route) against contractions of a dense m^4
    reference built here from the Pi-projected pair tensor L,
    R(i,j,k,l) = 1/4 (<L_ik, L_jl> - <L_il, L_jk>): Ricci, scalar and
    sectional(u, v) for each non-degenerate (u, v) in planes, each to 1e-12
    of the same dense contraction taken over absolute values (flat forms
    read roundoff only)."""
    dc = derived_curvatures(P)
    pi = P.primitive_projector
    pairs = np.einsum("ai,bj,abk->ijk", pi, pi, P.lambda_pairs)
    ip = np.einsum("ija,ab,klb->ijkl", pairs, P.gram, pairs)
    r = 0.25 * (np.einsum("ikjl->ijkl", ip) - np.einsum("iljk->ijkl", ip))
    ip_abs = np.abs(ip)
    r_abs = 0.25 * (np.einsum("ikjl->ijkl", ip_abs) + np.einsum("iljk->ijkl", ip_abs))
    ginv, ginv_abs = P.gram_inv, np.abs(P.gram_inv)
    ricci = np.einsum("pq,pijq->ij", ginv, r)
    ricci_abs = np.einsum("pq,pijq->ij", ginv_abs, r_abs)
    assert np.all(np.abs(dc.ricci - ricci) <= 1e-12 * ricci_abs), P
    scalar = np.einsum("ij,ij->", ginv, ricci)
    assert abs(dc.scalar - scalar) <= 1e-12 * np.einsum("ij,ij->", ginv_abs, ricci_abs), P
    for u, v in planes:
        try:
            k = dc.sectional(u, v)
        except DegeneratePlane:
            continue
        den = P.inner(u, u) * P.inner(v, v) - P.inner(u, v) ** 2
        num = np.einsum("ijkl,i,j,k,l->", r, u, v, v, u)
        num_abs = np.einsum("ijkl,i,j,k,l->", r_abs, *np.abs([u, v, v, u]))
        assert abs(k - num / den) <= 1e-12 * num_abs / den, (P, u, v)


@pytest.fixture(scope="session")
def dense_curvature_check():
    return _check_against_dense_curvature


def _dense_by_permutations(form):
    """The dense array of a form filled one coefficient and one distinct
    permutation of its index at a time: the reference for
    IntersectionForm._dense."""
    t = np.zeros((form.rank_m,) * form.dim_n)
    for idx, val in form.coeffs.items():
        for perm in set(permutations(tuple(i - 1 for i in idx))):
            t[perm] = val
    return t


@pytest.fixture(scope="session")
def dense_by_permutations():
    return _dense_by_permutations


def _normalize_coeffs_reference(pairs, dim_n, rank_m):
    """The coefficient dict of (index, value) pairs, built one entry at a
    time: sort the index, check its length, range, finiteness and agreement
    with an earlier duplicate in that order, then drop zeros and sort the
    keys.  The reference for IntersectionForm.coeffs and its messages."""
    out = {}
    for idx, val in pairs:
        idx = tuple(sorted(int(i) for i in idx))
        if len(idx) != dim_n:
            raise ManifoldFormatError(
                f"index length mismatch: {list(idx)} has {len(idx)} entries, expected {dim_n}"
            )
        if idx[0] < 1 or idx[-1] > rank_m:
            raise ManifoldFormatError(f"index {list(idx)} out of range 1..{rank_m}")
        val = float(val)
        if not isfinite(val):
            raise ManifoldFormatError(f"non-finite value {val!r} for index {list(idx)}")
        if idx in out and out[idx] != val:
            raise ManifoldFormatError(
                f"conflicting values for index {list(idx)}: {out[idx]} vs {val}"
            )
        out[idx] = val
    out = {k: v for k, v in sorted(out.items()) if v != 0.0}
    if not out:
        raise ManifoldFormatError("all-zero form")
    return out


@pytest.fixture(scope="session")
def normalize_coeffs_reference():
    return _normalize_coeffs_reference


def _serialize_manifold_reference(form, coeffs):
    """Manifold file text of a form with the coefficient dict `coeffs`,
    written from its sorted items: the reference for serialize_manifold."""
    obj = {
        "name": form.name,
        "dim": form.dim_n,
        "h11": form.rank_m,
        "intersection": [
            {"index": list(idx), "value": val} for idx, val in sorted(coeffs.items())
        ],
    }
    if form.labels:
        obj["labels"] = list(form.labels)
    return json.dumps(obj, indent=2)


@pytest.fixture(scope="session")
def serialize_manifold_reference():
    return _serialize_manifold_reference


def _projector_derivative(P):
    """Analytic d_z Pi at P, shape (m, m, m) with out[z] = d_z Pi: column i
    is the jacobian of the primitive field omega |-> Pi(omega) e_i, from
    Pi = 1 - omega Lam^T / n and d_z Lam(e_i) = -Lam(z) Lam(e_i) + Lam2(e_i cup z)."""
    lam, n = P._lam, P.dim_n
    d_lam = P._lam2 - np.outer(lam, lam)   # [z, i] = d_z Lam(e_i)
    return -(np.einsum("zk,i->zki", np.eye(P.rank_m), lam)
             + np.einsum("k,zi->zki", P.omega, d_lam)) / n


@pytest.fixture(scope="session")
def projector_derivative():
    return _projector_derivative


def _einsum_derivation_svd(alg):
    """Singular values and right singular vectors of the derivation system
    over all m^2 entries of D, built by three einsums over the identity on
    the structure constants and reduced by QR."""
    m, s = alg.base.rank_m, alg.structure
    eye = np.eye(m)
    i, j = np.triu_indices(m)
    system = np.einsum("cp,rq->rcpq", eye, s[i, j])
    system -= np.einsum("prc,rq->rcpq", s[:, j], eye[i])
    system -= np.einsum("rpc,rq->rcpq", s[i], eye[j])
    r = np.linalg.qr(system.reshape(-1, m * m), mode="r")
    return np.linalg.svd(r, full_matrices=False)[1:]


def _derivations_einsum(alg):
    """Reference for derivations(): the nullspace of _einsum_derivation_svd
    below a cutoff relative to its largest singular value."""
    sv, vh = _einsum_derivation_svd(alg)
    m = alg.base.rank_m
    return [flat.reshape(m, m) for flat in vh[np.sum(sv > NULL_TOL * sv[0]):]]


def _check_derivations_against_einsum(alg):
    """derivations() and _derivations_einsum have the same dimension, and
    their spans agree to a largest principal-angle sine of 1e-9."""
    got, ref = alg.derivations(), _derivations_einsum(alg)
    assert len(got) == len(ref), alg.base
    if got:
        q_got, q_ref = (np.linalg.qr(np.reshape(ds, (len(ds), -1)).T)[0] for ds in (got, ref))
        assert np.linalg.norm(q_got - q_ref @ (q_ref.T @ q_got), 2) <= 1e-9, alg.base


@pytest.fixture(scope="session")
def derivations_match_einsum():
    return _check_derivations_against_einsum


@pytest.fixture(scope="session")
def einsum_derivation_svd():
    return _einsum_derivation_svd


def _constant_curvature_24(P):
    """Reference for constant_curvature_test: (lam, residual, |t|) from the
    structure constants in ConePoint.frame, with the full 24-permutation
    symmetrization."""
    basis = P.frame
    vec = np.einsum("ijc,ia,jb->abc", algebra_at(P).structure, basis, basis)
    comp = np.einsum("abc,cd,dl->abl", vec, P.gram, basis)
    t = np.einsum("abl,cdl->abcd", comp, comp)
    eye = np.eye(P.rank_m)
    s = 0.5 * (np.einsum("ac,bd->abcd", eye, eye) + np.einsum("ad,bc->abcd", eye, eye))

    def nonsym(x):
        return x - sum(np.transpose(x, p) for p in permutations(range(4))) / 24.0

    nt, ns = nonsym(t), nonsym(s)
    denom = 2.0 * float(np.sum(ns * ns))
    lam = float(np.sum(nt * ns)) / denom if denom > 0.0 else 0.0
    return lam, float(np.linalg.norm(nt - 2.0 * lam * ns)), float(np.linalg.norm(t))


def _assert_fit_matches_24_permutations(P):
    fit = algebra_at(P).constant_curvature_test()
    lam, residual, t_norm = _constant_curvature_24(P)
    assert fit.lam == pytest.approx(lam, rel=1e-12, abs=1e-15)
    assert fit.residual == pytest.approx(residual, rel=1e-12, abs=1e-12 * t_norm)
    assert fit.tol == pytest.approx(1e-8 * t_norm, rel=1e-12)
    assert fit.is_constant == (residual <= 1e-8 * t_norm)


@pytest.fixture(scope="session")
def fit_matches_24_permutations():
    return _assert_fit_matches_24_permutations


def _cubic_point(m=6, noise=0.05, seed=3):
    """kappa_111 = 6, kappa_1jj = -1 plus seeded noise on every sorted triple,
    admissible at e_1 and, with noise, far from constant curvature; without
    noise (SYMm) O(m - 1) fixing e_1 acts by automorphisms."""
    rng = np.random.default_rng(seed)
    coeffs = {}
    for idx in combinations_with_replacement(range(1, m + 1), 3):
        base = 6.0 if idx == (1, 1, 1) else (-1.0 if idx[0] == 1 and idx[1] == idx[2] else 0.0)
        coeffs[idx] = base + noise * rng.standard_normal()
    return ConePoint(IntersectionForm(name=f"CUBIC{m}", dim_n=3, rank_m=m, coeffs=coeffs),
                     np.eye(m)[0])


def _gl_symmetric_point(m, seed=11):
    """SYMm written in the basis of a seeded GL(m) matrix Q diag(1..2), Q
    orthogonal (condition number 2): its cubic is roundoff, not zero."""
    q = np.linalg.qr(np.random.default_rng(seed).standard_normal((m, m)))[0]
    a = q * np.linspace(1.0, 2.0, m)
    P = _cubic_point(m, noise=0.0)
    return ConePoint(P.form.pullback(a), np.linalg.solve(a, P.omega))


@pytest.fixture(scope="session")
def cubic_point():
    return _cubic_point


@pytest.fixture(scope="session")
def gl_symmetric_point():
    return _gl_symmetric_point


def _admit_by_eigvalsh(form, X, what="point"):
    """metric.admit with eigvalsh on every finite row, no Gershgorin discs: the
    reference for the rows the discs admit without the eigensolver."""
    X = np.asarray(X, dtype=float)
    data = metric.lefschetz(form, X, what)
    finite = np.isfinite(data.gram).all(axis=(1, 2))   # non-finite rows fail, unsolved
    eig = np.linalg.eigvalsh(np.where(finite[:, None, None], data.gram, 0.0))
    ok = eig[:, 0] > POSDEF_TOL * eig[:, -1]
    if not ok.all():
        b = int(np.argmin(ok))
        _finite(data.gram[b], f"metric of {what} {b} at", X[b])
        raise IndefiniteMetric(
            f"Gram matrix of {what} {b} at {X[b].tolist()} is not positive definite "
            f"(eigenvalues {eig[b].tolist()})"
        )
    return data


@pytest.fixture(scope="session")
def admit_by_eigvalsh():
    return _admit_by_eigvalsh


def _fd_per_point(P, quantity, z):
    """fdcheck._fd_stencils with one ConePoint per stencil point, each admitted
    on its own, through fd_directional: the reference for the batch."""
    return np.array([fd_directional(lambda w: quantity(ConePoint(P.form, w)), P.omega, e)
                     for e in z])


@pytest.fixture(scope="session")
def fd_per_point():
    return _fd_per_point


def _exact_geodesic(form, x0, v0, ts):
    """The geodesic from x0 with velocity v0 in closed form, one row per time in ts.

    n = 2: Vol = x^T K x / 2 and the cone is R x H^{m-1}.  With lam = x0^T K v0 / Vol0,
    u0 = x0 / sqrt(Vol0), u0' = v0 / sqrt(Vol0) - lam u0 / 2 and a^2 = -u0'^T K u0' / 2,
    x(t) = sqrt(Vol0 e^{lam t}) (cosh(a t) u0 + sinh(a t) / a u0'), with t u0' for a = 0.
    A product of P^1s (Vol proportional to x_1 .. x_m): g = sum dx_i^2 / x_i^2, so
    x_i(t) = x_i0 exp(v_i0 t / x_i0)."""
    x0, v0, ts = (np.asarray(a, dtype=float) for a in (x0, v0, ts))
    if form.dim_n == 2:
        K = form._dense
        vol0 = x0 @ K @ x0 / 2
        lam = x0 @ K @ v0 / vol0
        u0 = x0 / np.sqrt(vol0)
        du0 = v0 / np.sqrt(vol0) - lam / 2 * u0
        a = np.sqrt(max(-(du0 @ K @ du0) / 2, 0.0))
        along = ts if a == 0.0 else np.sinh(a * ts) / a
        scale = np.sqrt(vol0 * np.exp(lam * ts))
        return scale[:, None] * (np.cosh(a * ts)[:, None] * u0 + along[:, None] * du0)
    assert len(form.index) == 1 and form.index[0].tolist() == list(range(1, form.rank_m + 1))
    return x0 * np.exp(ts[:, None] * v0 / x0)


@pytest.fixture(scope="session")
def exact_geodesic():
    return _exact_geodesic


def _derivations_full_svd(alg):
    """AlgebraAtPoint.derivations with the full SVD of R taken every time, no
    Cholesky certificate of the normal matrix first: the reference for its early exit."""
    P, k, c = alg.base, alg.base.rank_m - 1, alg.base.cubic
    abf = np.array(list(combinations_with_replacement(range(k), 3)), int).reshape(-1, 3)
    p, q = np.triu_indices(k, 1)
    lhs, blocks = np.empty((len(abf), p.size)), max(1, len(abf) * k * k >> 16)
    for out, blk in zip(np.array_split(lhs, blocks), np.array_split(abf, blocks)):
        (a, b, f), row, system = blk.T, np.arange(len(blk)), np.zeros((len(blk), k, k))
        system[row, :, a] = c[:, b, f].T
        system[row, :, b] += c[a, :, f]
        system[row, :, f] += c[a, b]
        np.subtract(system[:, p, q], system[:, q, p], out=out)
    r = np.linalg.qr(lhs, mode="r")
    _, sv, vh = np.linalg.svd(r, full_matrices=False)
    null = vh[np.sum(sv > NULL_TOL * sv.max(initial=1.0)):]
    gens = np.zeros((len(null), k, k))
    gens[:, p, q] = null
    gens -= gens.transpose(0, 2, 1)
    return list(P.frame[:, 1:] @ gens @ P.coframe.T)


@pytest.fixture(scope="session")
def derivations_full_svd():
    return _derivations_full_svd


def _riemann_four_contractions(P, u, v, z, w):
    """curvature.riemann with the cubic contracted once per product, four times,
    not once per class of the second slot: the reference for its reuse."""
    pu, pv, pz, pw = np.array([P.form._check_class(a) for a in (u, v, z, w)]) @ P.coframe
    c = P.cubic
    uz, vw, uw, vz = (a @ (b @ c) for a, b in ((pu, pz), (pv, pw), (pu, pw), (pv, pz)))
    space_form = (pu @ pz) * (pv @ pw) - (pu @ pw) * (pv @ pz)
    return float(uz @ vw - uw @ vz + space_form / P.dim_n)


@pytest.fixture(scope="session")
def riemann_four_contractions():
    return _riemann_four_contractions


def _cup_inner_by_stages(P, u, w, v, z, with_lam4=True):
    """inner22 of Fraction classes with each Lam^k contracted from its stage and
    divided on every call, 0 for k > n: the reference for the stages _exact divides
    once.  With with_lam4=False it leaves out the Lam4 term, as curvature._cup_inner does."""
    gram_inv, _, lam, *_ = _exact(P)
    lam_k = {k: (_fractions(P._stages[k]), _divisor(P.dim_n, k, Fraction(P.vol)))
             for k in (2, 3, 4) if k <= P.dim_n and (with_lam4 or k < 4)}

    def lam_of(k, *classes):
        if k not in lam_k:
            return 0
        t, divisor = lam_k[k]
        for a in classes:
            t = a @ t
        return t / divisor

    r_x, r_y = (lam_of(2, a, b) * lam - lam_of(3, a, b) for a, b in ((u, w), (v, z)))
    return lam_of(4, u, w, v, z) + r_x @ gram_inv @ r_y - lam_of(2, u, w) * lam_of(2, v, z)


@pytest.fixture(scope="session")
def cup_inner_by_stages():
    return _cup_inner_by_stages


_P1 = IntersectionForm("P1", 1, 1, {(1,): 1.0})


def _product_form(fx, fy):
    """The form of X x Y on H^2(X) + H^2(Y), the classes of X first: nonzero only on
    index sets with a = dim X entries from X, where it is kappa_X kappa_Y.  So
    Vol = Vol_X Vol_Y, and the cone of X x Y is the Riemannian product of the two."""
    coeffs = {ix + tuple(j + fx.rank_m for j in iy): kx * ky
              for ix, kx in fx.coeffs.items() for iy, ky in fy.coeffs.items()}
    return IntersectionForm(f"{fx.name}x{fy.name}", fx.dim_n + fy.dim_n,
                            fx.rank_m + fy.rank_m, coeffs)


def _product_point(x, y):
    """(X x Y at (omega_X, omega_Y), the point of X, the point of Y) for two catalog
    names or "P1", each factor at its default point (P1 at 1)."""
    px, py = (ConePoint(_P1, np.ones(1)) if a == "P1" else default_point(a) for a in (x, y))
    return ConePoint(_product_form(px.form, py.form), np.concatenate([px.omega, py.omega])), px, py


@pytest.fixture(scope="session")
def product_point():
    return _product_point
