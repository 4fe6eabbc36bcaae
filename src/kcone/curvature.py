"""Levi-Civita connection, curvature tensor and derived curvatures.

The connection of the cone metric acts on a tangent field u by

    nabla_z u = d_z u - 1/2 Lam(u) z - 1/2 Lam(z) u + 1/2 Lam(u cup z),

so the Christoffel part Gamma(z, u), a whole-tensor expression in
ConePoint.lambda_pairs, is symmetric and torsion-free by inspection.  The
tautological field omega |-> omega is parallel: d_z omega = z while
Gamma(z, omega) = -z.

The curvature tensor lives on primitive parts, as the metric splits off a
flat radial line.  In the g-orthonormal primitive frame x_1..x_k of
ConePoint.frame (k = m - 1) it is a space form of curvature -1/n plus a term
quadratic in the cubic c_abc = <x_a . x_b, x_c> = -1/2 Lam3(x_a, x_b, x_c):

    R(a,b,c,d) = <c_ac, c_bd> - <c_ad, c_bc> + (d_ac d_bd - d_ad d_bc) / n,
    Ric_ab = sum_e <c_ae, c_be> - <c_ab, tr c> - (k - 1)/n d_ab,
    scalar = |c|^2 - |tr c|^2 - k (k - 1)/n,    tr c = sum_a c_aa.

F = ConePoint.coframe pulls these back to the basis.  fdcheck
differentiates the Gram and Christoffel tensors once per basis direction:
O(m) cone points per check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import DegeneratePlane
from .intersection import CohClass
from .metric import ConePoint, _divisor, _finite

__all__ = [
    "christoffel_tensor",
    "christoffel",
    "riemann",
    "riemann_alt",
    "inner22",
    "riemann_tensor",
    "DerivedCurvatures",
    "derived_curvatures",
]


def christoffel_tensor(P: ConePoint) -> np.ndarray:
    """Gamma on the basis, shape (m, m, m): row (z, u) is nabla_z u for a
    constant field u,

        Gamma(e_z, e_u) = -1/2 Lam(e_u) e_z - 1/2 Lam(e_z) e_u + 1/2 Lam(e_u cup e_z),

    exactly symmetric in (z, u), hence torsion-free.  Gamma(z, omega) = -z
    exactly cancels the jacobian of the tautological field.
    """
    radial = np.einsum("zk,u->zuk", np.eye(P.rank_m), P._lam)
    return 0.5 * P.lambda_pairs - 0.5 * (radial + radial.transpose(1, 0, 2))


def christoffel(P: ConePoint, z: CohClass, u: CohClass) -> CohClass:
    """Gamma(z, u): christoffel_tensor contracted with z and u, if finite."""
    z, u = P.form._check_class(z), P.form._check_class(u)
    with np.errstate(over="ignore", invalid="ignore"):
        gamma = z @ (u @ christoffel_tensor(P))
    return _finite(gamma, "Gamma(z, u) at z =", z)


def riemann(P: ConePoint, u, v, z, w) -> float:
    """Curvature tensor entry R(u, v, z, w) at P from the cubic, with the
    frame coordinates of the four classes."""
    pu, pv, pz, pw = np.array([P.form._check_class(a) for a in (u, v, z, w)]) @ P.coframe
    zc, wc = pz @ P.cubic, pw @ P.cubic
    uz, vw, uw, vz = pu @ zc, pv @ wc, pu @ wc, pv @ zc
    space_form = (pu @ pz) * (pv @ pw) - (pu @ pw) * (pv @ pz)
    return float(uz @ vw - uw @ vz + space_form / P.dim_n)


_fractions = np.vectorize(Fraction, otypes=[object])


@lru_cache(maxsize=1)   # callers such as verify's criterion 5a loop over one point
def _exact(P: ConePoint):
    """The float data of P as exact Fractions, which callers only read: G^-1 by
    Gauss-Jordan elimination (G is positive definite), Gram, Lam, omega, Lam2, r_ij =
    Lam2_ij Lam - Lam3_ij (None, n < 3) and Lam4 (None, n < 4), each divided once."""
    n, m, vol, lam = P.dim_n, P.rank_m, Fraction(P.vol), _fractions(P._lam)
    gram = _fractions(P.gram)
    a = np.column_stack([gram, np.eye(m, dtype=int).astype(object)])
    for i in range(m):
        a[i] /= a[i, i]
        a -= np.outer(a[:, i] - (np.arange(m) == i), a[i])   # row i keeps a[i]
    lam2, lam3, lam4 = (_fractions(P._stages[k]) / _divisor(n, k, vol) if k <= n
                        else np.zeros((m, m), int) if k == 2 else None for k in (2, 3, 4))
    r = None if lam3 is None else np.multiply.outer(lam2, lam) - lam3
    return a[:, m:], gram, lam, _fractions(P.omega), lam2, r, lam4


def _cup_inner(exact, u, w, v, z):
    """inner22 of Fraction classes on the data of _exact: <Lam(x), Lam(y)> =
    r_x G^-1 r_y with r_x = g(Lam(x), .) = -Lam3(x, .) + Lam2(x) Lam."""
    gram_inv, _, lam, _, lam2, r, lam4 = exact
    x, y = lam2 @ w @ u, lam2 @ z @ v
    r_x, r_y = (x * lam, y * lam) if r is None else (u @ (w @ r), v @ (z @ r))   # n < 3: O(m^2)
    return r_x @ gram_inv @ r_y - x * y + (0 if lam4 is None else lam4 @ z @ v @ w @ u)


def inner22(P: ConePoint, pair_x, pair_y) -> float:
    """Inner product of the (2,2)-classes u cup w and v cup z, no primitive
    projection (the Lam4 term vanishes for n < 4):

        <x, y> = Lam4(x cup y) + <Lam(x), Lam(y)> - Lam2(x) Lam2(y).
    """
    return float(_cup_inner(_exact(P), *_fractions([*pair_x, *pair_y])))


def riemann_alt(P: ConePoint, u, v, z, w) -> float:
    """Curvature on primitive parts as a perturbation of a space form:

        R = -1/4 <u,w><v,z> + 1/4 <u,z><v,w>
            - 1/4 <u cup w, v cup z> + 1/4 <u cup z, v cup w>.

    Like inner22 it runs in exact rational arithmetic on the float Gram
    matrix, Lam and stages of P, so the only rounding it carries is theirs.
    """
    exact = _exact(P)
    _, gram, lam, omega, *_ = exact
    pu, pv, pz, pw = (a - (lam @ a) / P.dim_n * omega for a in _fractions([u, v, z, w]))
    metric_part = (pu @ gram @ pz) * (pv @ gram @ pw) - (pu @ gram @ pw) * (pv @ gram @ pz)
    cup_part = _cup_inner(exact, pu, pz, pv, pw) - _cup_inner(exact, pu, pw, pv, pz)
    return float((metric_part + cup_part) / 4)


def riemann_tensor(P: ConePoint) -> np.ndarray:
    """R on the basis as a dense m^4 array: R(i,j,k,l) = ip(i,k,j,l) -
    ip(i,l,j,k), ip(i,j,k,l) = <C_ij, C_kl> + h_ij h_kl / n, with the cubic
    C = c(F, F, .) and h = F F^T pulled back through F; a ValueError if it
    overflows, as near a wall of the cone (R has degree -4 in omega)."""
    m, k, f = P.rank_m, P.rank_m - 1, P.coframe
    with np.errstate(over="ignore", invalid="ignore"):
        pulled = np.concatenate([f @ (f @ P.cubic.reshape(k, k * k)).reshape(m, k, k),
                                 (f @ f.T)[:, :, None] / np.sqrt(P.dim_n)], axis=2)
        ip = (pulled.reshape(m * m, m) @ pulled.reshape(m * m, m).T).reshape(m, m, m, m)
        r = np.einsum("ikjl->ijkl", ip) - np.einsum("iljk->ijkl", ip)
    return _finite(r, "curvature tensor at", P.omega)


class DerivedCurvatures(NamedTuple):
    sectional: Callable[[CohClass, CohClass], float]
    ricci: np.ndarray
    scalar: float


def derived_curvatures(P: ConePoint) -> DerivedCurvatures:
    """Sectional curvature function, Ricci matrix and scalar curvature from
    the closed forms in the cubic c, without the m^4 array of riemann_tensor;
    sectional(u, v) = riemann(u,v,v,u) / (g(u,u) g(v,v) - g(u,v)^2)."""
    k, c, f = P.rank_m - 1, P.cubic, P.coframe
    flat, trace = c.reshape(k, k * k), np.einsum("aae->e", c)
    ricci = f @ (flat @ flat.T - c @ trace - (k - 1) / P.dim_n * np.eye(k)) @ f.T
    scalar = float(np.vdot(c, c) - trace @ trace) - k * (k - 1) / P.dim_n

    def sectional(u: CohClass, v: CohClass) -> float:
        # K is scale-invariant: exact powers of two take the largest entries to [1/2, 1)
        u, v = (np.ldexp(a, -np.frexp(np.abs(a).max())[1]) for a in
                (P.form._check_class(u), P.form._check_class(v)))
        guu, gvv, guv = P.inner(u, u), P.inner(v, v), P.inner(u, v)
        den = _finite(guu * gvv - guv * guv, "|u^v|^2 of the plane")
        if den <= 1e-12 * guu * gvv or den <= 0.0:
            raise DegeneratePlane(f"degenerate plane: |u^v|^2 = {den!r}")
        return _finite(riemann(P, u, v, v, u) / den, "the sectional curvature")

    return DerivedCurvatures(sectional=sectional, ricci=ricci, scalar=scalar)
