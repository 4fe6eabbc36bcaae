"""The commutative algebra (u, v) |-> 1/2 Lam(u cup v) at a cone point.

The product is commutative, non-associative and non-unital.  Two structural
identities pin it against the metric:

    x . omega = 1/2 Lam(x) omega + 1/2 (n - 2) x,
    omega . omega = (n - 1) omega.

Its curvature-type tensor R_alg(x,y,z,w) = <x.w, y.z> - <x.z, y.w> is an
algebraic curvature tensor, decomposes as minus a sum of Kulkarni-Nomizu
squares, and relates to the cone metric by

    riemann(u,v,z,w) = -R_alg(primitive parts).

The structure constants are half of ConePoint.lambda_pairs, the single
source of Lam(e_i cup e_j) that also feeds the connection and curvature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .curvature import CurvatureTensor, pair_curvature
from .errors import KConeError
from .intersection import CohClass
from .metric import ConePoint

__all__ = [
    "AlgebraAtPoint",
    "algebra_at",
    "BilinearFormSet",
    "kn_product",
    "ConstantCurvatureFit",
]

# Singular values below this relative threshold count as zero when
# extracting derivation spaces.
NULL_TOL = 1e-8


def orthonormal_basis(P: ConePoint) -> np.ndarray:
    """Columns form a g-orthonormal basis, via Cholesky of the Gram matrix.

    Deterministic: the same point always produces the same basis.
    """
    chol = np.linalg.cholesky(P.gram)
    return np.linalg.inv(chol).T


def kn_product(b, b2=None) -> np.ndarray:
    """Kulkarni-Nomizu square (b ^ b2)(x,y,z,w) = b(x,z)b2(y,w) - b(x,w)b2(y,z)."""
    b = np.asarray(b, dtype=float)
    b2 = b if b2 is None else np.asarray(b2, dtype=float)
    return np.einsum("ik,jl->ijkl", b, b2) - np.einsum("il,jk->ijkl", b, b2)


@dataclass
class BilinearFormSet:
    """Forms b_l(x, y) = <x.y, x_l> over a g-orthonormal basis x_l.

    They reconstruct the product, x.y = sum_l b_l(x,y) x_l, and give the
    Kulkarni-Nomizu decomposition R_alg = -sum_l (b_l ^ b_l).
    """

    forms: np.ndarray   # shape (m, m, m); forms[l] is b_l on the standard basis
    basis: np.ndarray   # orthonormal vectors as columns


@dataclass
class ConstantCurvatureFit:
    lam: float
    residual: float
    tol: float

    @property
    def is_constant(self) -> bool:
        return self.residual <= self.tol


class AlgebraAtPoint:
    """Structure constants of the product at a fixed cone point."""

    def __init__(self, base: ConePoint):
        self.base = base
        self.structure = 0.5 * base.lambda_pairs

    def product(self, u: CohClass, v: CohClass) -> CohClass:
        """u . v = 1/2 Lam(u cup v); commutative and bilinear."""
        return 0.5 * self.base.lambda_class(u, v)

    def curvature_tensor(self) -> CurvatureTensor:
        """R_alg(x,y,z,w) = <x.w, y.z> - <x.z, y.w> on the basis."""
        entries = -4.0 * pair_curvature(self.structure, self.base.gram)
        return CurvatureTensor(entries=entries, base_point=self.base)

    def bilinear_forms(self) -> BilinearFormSet:
        """Kulkarni-Nomizu data: b_l(x,y) = <x.y, x_l> over an orthonormal basis."""
        basis = orthonormal_basis(self.base)
        forms = np.einsum(
            "ijc,cd,dl->lij", self.structure, self.base.gram, basis, optimize=True
        )
        return BilinearFormSet(forms=forms, basis=basis)

    def kn_reconstruction_residual(self) -> float:
        """Max deviation of R_alg + sum_l (b_l ^ b_l) from zero."""
        total = self.curvature_tensor().entries
        f = self.bilinear_forms().forms
        a = np.einsum("lik,ljm->ijkm", f, f, optimize=True)
        total += a   # sum_l (b_l ^ b_l) = a - a.transpose(0, 1, 3, 2)
        total -= a.transpose(0, 1, 3, 2)
        return float(np.abs(total).max())

    def constant_curvature_test(self) -> ConstantCurvatureFit:
        """Best multiple of the induced S^2 inner product inside <x.y, z.w>.

        Works in a g-orthonormal basis: T(x,y,z,w) = <x.y, z.w> has constant
        sectional curvature -lam exactly when T - 2 lam S is a fully
        symmetric 4-tensor, with S(x,y,z,w) = (d_xz d_yw + d_xw d_yz)/2.
        lam is extracted by least squares on the non-symmetric components,
        so the fit is reported even when the test fails.
        """
        basis = orthonormal_basis(self.base)
        m = self.base.rank_m
        # products of orthonormal vectors, expressed in orthonormal coordinates
        vec = np.einsum("ijc,ia,jb->abc", self.structure, basis, basis, optimize=True)
        comp = np.einsum("abc,cd,dl->abl", vec, self.base.gram, basis, optimize=True)
        t = np.einsum("abl,cdl->abcd", comp, comp, optimize=True)
        eye = np.eye(m)
        s = 0.5 * (
            np.einsum("ac,bd->abcd", eye, eye) + np.einsum("ad,bc->abcd", eye, eye)
        )

        def nonsym(x):
            # t and s are invariant under the 8 pair symmetries (t up to
            # roundoff), so the 24-term symmetrization is the mean over the
            # 3 pairings {ab|cd}, {ac|bd}, {ad|bc}
            return x - (x + x.transpose(0, 2, 1, 3) + x.transpose(0, 3, 2, 1)) / 3.0

        nt, ns = nonsym(t), nonsym(s)
        denom = 2.0 * float(np.sum(ns * ns))
        lam = float(np.sum(nt * ns)) / denom if denom > 0.0 else 0.0
        residual = float(np.linalg.norm(nt - 2.0 * lam * ns))
        tol = 1e-8 * float(np.linalg.norm(t))
        return ConstantCurvatureFit(lam=lam, residual=residual, tol=tol)

    def derivations(self) -> List[np.ndarray]:
        """Basis of the derivation algebra: maps D with D(x.y) = Dx.y + x.Dy.

        Solved as an SVD nullspace over the m^2 unknowns of D.  Every
        returned D is checked against the structural consequences
        D omega = 0, Lam(D x) = 0 and g-antisymmetry of D.
        """
        if self.base.dim_n < 2:
            # in complex dimension one the product vanishes identically and
            # every linear map is a derivation; the structural conclusions
            # above need the nonzero products with omega
            raise ValueError("derivation analysis requires complex dimension >= 2")
        m = self.base.rank_m
        s = self.structure
        eye = np.eye(m)
        i, j = np.triu_indices(m)
        # row (i <= j, c) holds the coefficients of D[p, q] in component c of
        # D(e_i . e_j) - (D e_i) . e_j - e_i . (D e_j)
        system = np.einsum("cp,rq->rcpq", eye, s[i, j])
        system -= np.einsum("prc,rq->rcpq", s[:, j], eye[i])
        system -= np.einsum("rpc,rq->rcpq", s[i], eye[j])
        _, sv, vh = np.linalg.svd(system.reshape(-1, m * m), full_matrices=False)
        cutoff = NULL_TOL * (sv[0] if sv.size else 1.0)
        null = vh[np.sum(sv > cutoff):]
        out = []
        for flat in null:
            d = flat.reshape(m, m)
            self._check_derivation(d)
            out.append(d)
        return out

    def _check_derivation(self, d: np.ndarray, tol: float = 1e-8):
        P = self.base
        d_omega = d @ P.omega
        if P.norm(d_omega) > tol:
            raise KConeError("derivation fails D omega = 0")
        if np.abs(P._lam @ d).max() > tol:
            raise KConeError("derivation image is not primitive")
        adjoint = P.gram_inv @ d.T @ P.gram
        if float(np.linalg.norm(adjoint + d)) > tol:
            raise KConeError("derivation is not g-antisymmetric")


def algebra_at(P: ConePoint) -> AlgebraAtPoint:
    return AlgebraAtPoint(P)
