"""The commutative algebra (u, v) |-> 1/2 Lam(u cup v) at a cone point.

The product is commutative, non-associative and non-unital.  Two structural
identities pin it against the metric:

    x . omega = 1/2 Lam(x) omega + 1/2 (n - 2) x,
    omega . omega = (n - 1) omega.

Its curvature-type tensor R_alg(x,y,z,w) = <x.w, y.z> - <x.z, y.w> is an
algebraic curvature tensor, decomposes as minus a sum of Kulkarni-Nomizu
squares, and relates to the cone metric by

    riemann(u,v,z,w) = -R_alg(primitive parts).

The structure constants are half of ConePoint.lambda_pairs, which also
feeds the connection; R_alg is built from them on the basis, apart from the
cubic the metric curvature reads.  The Kulkarni-Nomizu forms and the
constant-curvature test work in the omega-adapted frame ConePoint.frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .curvature import CurvatureTensor
from .errors import KConeError
from .intersection import CohClass
from .metric import ConePoint

__all__ = [
    "AlgebraAtPoint",
    "algebra_at",
    "BilinearFormSet",
    "kn_product",
    "ConstantCurvatureFit",
    "derivation_defects",
]

# Singular values below this relative threshold count as zero when
# extracting derivation spaces.
NULL_TOL = 1e-8


def kn_product(b) -> np.ndarray:
    """Kulkarni-Nomizu square (b ^ b)(x,y,z,w) = b(x,z)b(y,w) - b(x,w)b(y,z)."""
    b = np.asarray(b, dtype=float)
    return np.einsum("ik,jl->ijkl", b, b) - np.einsum("il,jk->ijkl", b, b)


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
        s = self.structure
        ip = np.einsum("ija,ab,klb->ijkl", s, self.base.gram, s, optimize=True)
        entries = np.einsum("iljk->ijkl", ip) - np.einsum("ikjl->ijkl", ip)
        return CurvatureTensor(entries=entries, base_point=self.base)

    def bilinear_forms(self) -> BilinearFormSet:
        """Kulkarni-Nomizu data: b_l(x,y) = <x.y, x_l> over the columns x_l
        of ConePoint.frame."""
        basis = self.base.frame
        forms = np.einsum("ijc,cd,dl->lij", self.structure, self.base.gram, basis, optimize=True)
        return BilinearFormSet(forms=forms, basis=basis)

    def kn_reconstruction_residual(self) -> float:
        """Max deviation of R_alg + sum_l (b_l ^ b_l) from zero.

        Both terms antisymmetrize Gram matrices of the products e_i.e_k: the
        sum is D[i,k,j,l] - D[i,l,j,k] with D = F^T F - S G S^T (F the forms
        as (m, m^2), S the structure as (m^2, m)), built one i at a time."""
        m = self.base.rank_m
        f, s = self.bilinear_forms().forms, self.structure
        fmat = f.reshape(m, m * m)
        gst = self.base.gram @ s.reshape(m * m, m).T
        worst = 0.0
        for i in range(m):
            d = (f[:, i].T @ fmat - s[i] @ gst).reshape(m, m, m)   # [k, j, l] = D[i, k, j, l]
            worst = max(worst, float(np.abs(d - d.transpose(2, 1, 0)).max()))
        return worst

    def constant_curvature_test(self) -> ConstantCurvatureFit:
        """Best multiple of the induced S^2 inner product inside <x.y, z.w>.

        In the g-orthonormal frame x of bilinear_forms(), T(a,b,c,d) =
        <x_a.x_b, x_c.x_d> has constant sectional curvature -lam exactly when
        T - 2 lam S is fully symmetric, with S(a,b,c,d) = (d_ac d_bd + d_ad d_bc)/2.
        lam fits the non-symmetric parts, nT ~ 2 lam nS, by least squares, so it
        is reported even when the test fails.  nS is orthogonal to every
        symmetric tensor, so <nT, nS> = <T, nS> and
        lam = (sum_ab |x_a.x_b|^2 - |sum_a x_a.x_a|^2) / (m^2 - m): minus the
        mean sectional curvature of R_alg over the planes of the frame.  The
        residual is summed one first-index slab T[a] at a time, in O(m^3) memory.
        """
        fs = self.bilinear_forms()
        m = self.base.rank_m
        # comp[a, b] = x_a . x_b in orthonormal coordinates
        comp = np.einsum("lij,ia,jb->abl", fs.forms, fs.basis, fs.basis, optimize=True)
        flat = comp.reshape(m * m, m)
        sq = comp[np.arange(m), np.arange(m)].sum(axis=0)   # sum_a x_a . x_a
        lam = float(np.vdot(flat, flat) - sq @ sq) / (m * m - m) if m > 1 else 0.0
        # nT - 2 lam nS is the non-symmetric part of T - 2 lam S: each slab drops
        # 2 lam S[a] (lam at [b, a, b] and at [b, b, a]), then its symmetric part,
        # which by the 8 pair symmetries is its mean over the 3 pairings {ab|cd},
        # {ac|bd}, {ad|bc}; all three fix a.  |nT - 2 lam nS|^2
        # is summed directly: its expansion |nT|^2 - 4 lam <nT, nS> + ... would
        # cancel when the fit passes
        b = np.arange(m)
        t_sq = res_sq = 0.0
        for a in range(m):
            block = (comp[a] @ flat.T).reshape(m, m, m)
            t_sq += float(np.vdot(block, block))
            block[b, a, b] -= lam
            block[b, b, a] -= lam
            block -= (block + block.transpose(1, 0, 2) + block.transpose(2, 1, 0)) / 3.0
            res_sq += float(np.vdot(block, block))
        return ConstantCurvatureFit(lam=lam, residual=float(np.sqrt(res_sq)),
                                    tol=1e-8 * float(np.sqrt(t_sq)))

    def derivations(self) -> List[np.ndarray]:
        """Basis of the derivation algebra: maps D with D(x.y) = Dx.y + x.Dy.

        Solved as an SVD nullspace over the m^2 unknowns of D: the linear
        system, one row per (i <= j, component), is written in by index
        assignment with no m^5 temporary, then reduced by QR.  Every
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
        i, j = np.triu_indices(m)
        pair, c = np.arange(i.size), np.arange(m)
        # row (i <= j, c) holds the coefficients of D[p, q] in component c of
        # D(e_i . e_j) - (D e_i) . e_j - e_i . (D e_j), scattered term by term
        system = np.zeros((i.size, m, m, m))
        system[:, c, c, :] = s[i, j][:, None, :]
        system[pair, :, :, i] -= s[:, j].transpose(1, 2, 0)
        system[pair, :, :, j] -= s[i].transpose(0, 2, 1)
        # the SVD of the square QR factor R has the singular values and right
        # singular vectors of the tall system, at a fraction of the cost
        r = np.linalg.qr(system.reshape(-1, m * m), mode="r")
        _, sv, vh = np.linalg.svd(r, full_matrices=False)
        cutoff = NULL_TOL * (sv[0] if sv.size else 1.0)
        null = vh[np.sum(sv > cutoff):]
        out = [flat.reshape(m, m) for flat in null]
        for d in out:
            for message, dev in derivation_defects(self.base, d).items():
                if dev > 1e-8:
                    raise KConeError(message)
        return out


def derivation_defects(P: ConePoint, d: np.ndarray) -> dict:
    """The structural consequences every derivation D at P satisfies, each
    as its deviation keyed by the message of its failure: D omega = 0,
    Lam(D x) = 0 for every x, and g-antisymmetry of D."""
    return {
        "derivation fails D omega = 0": P.norm(d @ P.omega),
        "derivation image is not primitive": float(np.abs(P._lam @ d).max()),
        "derivation is not g-antisymmetric": float(np.linalg.norm(P.gram_inv @ d.T @ P.gram + d)),
    }


def algebra_at(P: ConePoint) -> AlgebraAtPoint:
    return AlgebraAtPoint(P)
