"""Cone points, Lefschetz contractions and the Riemannian metric.

At an admissible class omega the metric on (1,1)-classes is

    g(u, v) = Lam(u) Lam(v) - Lam2(u cup v),

where Lam^k denotes the divided-power contraction

    Lam^k(u_1 cup .. cup u_k) = int(u_1 .. u_k omega^{n-k}) / ((n-k)! Vol)

and Vol = int(omega^n)/n!.  The same quadratic form is the Hessian of
-log Vol, which is what the finite-difference oracle checks.
"""

from __future__ import annotations

from functools import cached_property
from math import factorial
from typing import NamedTuple, Sequence

import numpy as np

from .errors import IndefiniteMetric, NonPositiveVolume
from .intersection import CohClass, IntersectionForm

__all__ = ["POSDEF_TOL", "ConePoint", "Lefschetz", "lefschetz", "admit"]

# Relative eigenvalue floor separating genuine degeneracy from roundoff.
POSDEF_TOL = 1e-10


class Lefschetz(NamedTuple):
    """Divided-power contractions at each row x_b of a (B, m) batch.

    stages[k] is the form with n - k slots filled by x_b, of shape
    (B,) + (m,) * k (batch axis of length 1 for k = n), so that
    Lam^k = stages[k] / ((n-k)! vol); callers contract a stage first.
    """

    vol: np.ndarray      # (B,)
    lam: np.ndarray      # (B, m)        Lam(e_i)
    lam2: np.ndarray     # (B, m, m)     Lam2(e_i cup e_j)
    gram: np.ndarray     # (B, m, m)     Lam(e_i) Lam(e_j) - Lam2(e_i cup e_j)
    stages: list         # stages[0..n]


def _finite(a, what: str, at=None):
    """a, if every entry is finite; else ValueError: what, then the point at if given,
    overflows double precision.  The message is formatted only when it raises."""
    if not np.isfinite(a).all():
        where = "" if at is None else f" {at.tolist()}"
        raise ValueError(f"{what}{where} overflows double precision")
    return a


def _divisor(n: int, k: int, vol):
    """(n - k)! Vol, the divided-power factor of Lam^k; Vol = stages[0] / n!."""
    return factorial(n - k) * vol


def _contract(form: IntersectionForm, Y: np.ndarray, what: str = "point"):
    """filled, for each stack Y[b] = (x, y_1, ..) of the (B, r, m) rows Y (r = 1 for cone
    points, 2 for the geodesic state (x, v)), one matmul per slot: filled[j][b, a, c] =
    kappa(y_a x^(j-1) y_c ..) (c = 0 alone at j = 0).  The one owner of why x cannot be
    contracted: for the first x whose volume is not finite and positive, ValueError if x is not
    finite or its volume over- or underflows double precision, else NonPositiveVolume."""
    n, m, (B, r) = form.dim_n, form.rank_m, Y.shape[:2]
    filled = [(Y.reshape(-1, m) @ form._dense.reshape(m, -1)).reshape(B, r, 1, -1)]
    for _ in range(n - 1):
        filled.append(Y[:, None] @ filled[-1][:, :, 0].reshape(B, r, m, -1))
    s = filled[-1][:, 0, 0, 0]   # n! Vol: rounding is monotone, so min(Vol) = min(s) / n!
    if not (s.min() / factorial(n) > 0.0 and s.max() < np.inf):
        vol = s / factorial(n)
        b = int(np.argmin((vol > 0.0) & (vol < np.inf)))
        x = Y[b, 0]
        if not np.isfinite(x).all():
            raise ValueError(f"{what} {b} at {x.tolist()} has non-finite entries")
        _finite(np.maximum(vol[b], 0.0), f"volume of {what} {b} at", x)   # +inf, or inf - inf
        # Vol is homogeneous: it underflowed if positive with x scaled by 2^k into [1/2, 1)
        if form.volume(np.ldexp(x, -np.frexp(np.abs(x).max())[1])) > 0.0:
            raise ValueError(f"volume of {what} {b} at {x.tolist()} underflows double precision")
        raise NonPositiveVolume(f"{what} {b} at {x.tolist()}: volume {float(vol[b])!r} "
                                "is not positive")
    return filled


def lefschetz(form: IntersectionForm, X: np.ndarray, what: str = "point") -> Lefschetz:
    """_contract on each row of X, normalized by divided powers; raises what it raises.
    Overflow is its verdict, not a warning; a row whose Gram matrix overflows fails admit."""
    n, m, B = form.dim_n, form.rank_m, len(X)
    with np.errstate(over="ignore", invalid="ignore"):
        filled = _contract(form, np.asarray(X, dtype=float)[:, None], what)
        stages = [filled[n - 1 - k][:, 0, 0].reshape((B,) + (m,) * k) for k in range(n)]
        stages.append(form._dense[None])
        vol = stages[0] / factorial(n)
        lam = stages[1] / _divisor(n, 1, vol)[:, None]
        lam2 = stages[2] / _divisor(n, 2, vol)[:, None, None] if n >= 2 else np.zeros((B, m, m))
        gram = lam[:, :, None] * lam[:, None, :] - lam2
    return Lefschetz(vol, lam, lam2, gram, stages)


def admit(form: IntersectionForm, X: np.ndarray, what: str = "point") -> Lefschetz:
    """The kernel plus ConePoint's admission check on every row of X.

    Raises what the kernel raises, IndefiniteMetric naming the first
    inadmissible row, or ValueError when its metric overflows double
    precision (near a Vol = 0 wall the Gram matrix grows like 1/t^2).
    """
    X = np.asarray(X, dtype=float)
    data = lefschetz(form, X, what)
    eig = np.linalg.eigvalsh(data.gram)
    # also rejects eig_max <= 0, since then eig_min <= eig_max <= POSDEF_TOL * eig_max
    ok = eig[:, 0] > POSDEF_TOL * eig[:, -1]
    if not ok.all():
        b = int(np.argmin(ok))
        _finite(data.gram[b], f"metric of {what} {b} at", X[b])
        raise IndefiniteMetric(
            f"Gram matrix of {what} {b} at {X[b].tolist()} is not positive definite "
            f"(eigenvalues {eig[b].tolist()})"
        )
    return data


class ConePoint:
    """A validated cone point with cached volume, Gram matrix and inverse.

    Admission enforces the necessary conditions for a Kahler class that are
    decidable from the intersection form alone: positive volume and a
    positive definite Gram matrix.  Membership in the actual Kahler cone is
    asserted by the caller; every computed quantity is well defined under
    the two checks.
    """

    def __init__(self, form: IntersectionForm, omega: CohClass):
        self.form, self.omega = form, form._check_class(omega)
        self.dim_n, self.rank_m = form.dim_n, form.rank_m
        data = admit(form, self.omega[None], "point")
        self.vol = float(data.vol[0])
        self._lam, self._lam2, self.gram = data.lam[0], data.lam2[0], data.gram[0]
        self._stages = [stage[0] for stage in data.stages]

    def __repr__(self):
        return (
            f"ConePoint({self.form.name}, omega={self.omega.tolist()}, "
            f"vol={self.vol!r})"
        )

    @cached_property
    def gram_inv(self) -> np.ndarray:
        return np.linalg.inv(self.gram)

    # -- Lefschetz contractions -------------------------------------------

    def lambda_scalar(self, classes: Sequence[CohClass]) -> float:
        """Divided-power contraction Lam^k(u_1 cup .. cup u_k).

        Returns 0 for k > n, matching the vanishing of classes of degree
        above 2n.
        """
        k = len(classes)
        n = self.dim_n
        if k > n:
            return 0.0
        if k == 0:
            raise ValueError("need at least one class")
        t = self._stages[k]
        for a in classes:
            t = t @ self.form._check_class(a)
        return float(t) / _divisor(n, k, self.vol)

    def inner(self, u: CohClass, v: CohClass) -> float:
        """The metric g(u, v) = u^T Gram v."""
        return float(np.asarray(u, float) @ self.gram @ np.asarray(v, float))

    def norm(self, u: CohClass) -> float:
        return float(np.sqrt(max(self.inner(u, u), 0.0)))

    def primitive_part(self, u: CohClass) -> CohClass:
        """u minus its component along omega: u - (Lam(u)/n) omega."""
        u = np.asarray(u, dtype=float)
        return u - (float(self._lam @ u) / self.dim_n) * self.omega

    @property
    def primitive_projector(self) -> np.ndarray:
        """Pi = I - omega Lam^T / n, so that Pi @ u is the primitive part of u."""
        return np.eye(self.rank_m) - np.outer(self.omega, self._lam) / self.dim_n

    @cached_property
    def lambda_pairs(self) -> np.ndarray:
        """Lam(e_i cup e_j), shape (m, m, m): row (i, j) is the metric dual of

            z |-> -Lam3(e_i cup e_j cup z) + Lam2(e_i cup e_j) Lam(z)

        (no Lam3 term for n < 3), exactly symmetric in (i, j): the single
        source of Lam(u cup v) for the connection and the algebra.  As
        g(omega, z) = n Lam(z) - (n-1) Lam(z) = Lam(z), the dual of the Lam2
        term is Lam2(e_i cup e_j) omega; only the Lam3 term meets gram_inv.
        """
        pairs = np.multiply.outer(self._lam2, self.omega)
        if self.dim_n >= 3:
            pairs -= (self._stages[3] / _divisor(self.dim_n, 3, self.vol)) @ self.gram_inv.T
        return 0.5 * (pairs + pairs.transpose(1, 0, 2))

    @cached_property
    def frame(self) -> np.ndarray:
        """The omega-adapted g-orthonormal frame, shape (m, m).  Column 0 is
        omega / sqrt(n) (|omega|^2 = n); columns 1..m-1 are the leading m - 1
        left singular vectors of primitive_projector (of rank m - 1), projected
        by it once more, which leaves Lam of each at roundoff squared, and
        times the inverse transpose of the Cholesky factor of their Gram block."""
        pi = self.primitive_projector
        u = pi @ np.linalg.svd(pi)[0][:, :self.rank_m - 1]
        prim = u @ np.linalg.inv(np.linalg.cholesky(u.T @ self.gram @ u)).T
        return np.column_stack([self.omega / np.sqrt(self.dim_n), prim])

    @cached_property
    def coframe(self) -> np.ndarray:
        """F = Pi^T Gram frame[:, 1:], shape (m, m - 1): u @ F are the frame
        coordinates of the primitive part of u.  Pi^T keeps exact zeros where
        a basis class has none."""
        return self.primitive_projector.T @ (self.gram @ self.frame[:, 1:])

    @cached_property
    def cubic(self) -> np.ndarray:
        """c_abc = <x_a . x_b, x_c> over the primitive frame columns, shape
        (m - 1,) * 3, x . y = 1/2 Lam(x cup y): the one source of curvature.
        Lam vanishes on primitive classes, so c_abc = -1/2 Lam3(x_a, x_b, x_c),
        zero for n < 3; exactly symmetric in (a, b).  Each partial contraction
        is dropped once the next is made; c is scaled and symmetrized in place."""
        m, k, x = self.rank_m, self.rank_m - 1, self.frame[:, 1:]
        if self.dim_n < 3:
            return np.zeros((k, k, k))
        c = x.T @ (x.T @ (self._stages[3].reshape(-1, m) @ x).reshape(m, m * k)).reshape(k, m, k)
        c *= -0.5 / _divisor(self.dim_n, 3, self.vol)
        c += c.transpose(1, 0, 2)   # numpy copies the overlapping operand
        return np.multiply(c, 0.5, out=c)

    def lambda_class(self, u: CohClass, v: CohClass) -> CohClass:
        """The (1,1)-class Lam(u cup v): lambda_pairs contracted with u and v.

        Symmetric and bilinear in (u, v).
        """
        return np.asarray(u, dtype=float) @ (np.asarray(v, dtype=float) @ self.lambda_pairs)
