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
feeds the connection; R_alg and the Kulkarni-Nomizu forms in ConePoint.frame
are built from them.  The derivations and the constant-curvature fit, lam =
scalar/(m^2 - m) + n/(2m), read only the cubic ConePoint.cubic; the fit passes
exactly when every primitive plane has sectional curvature n/4.
"""

from __future__ import annotations

from contextlib import suppress
from itertools import combinations_with_replacement
from typing import List, NamedTuple

import numpy as np

from .curvature import derived_curvatures
from .intersection import CohClass
from .metric import ConePoint, _finite

__all__ = [
    "AlgebraAtPoint",
    "algebra_at",
    "kn_product",
    "ConstantCurvatureFit",
]

# Derivation singular values below NULL_TOL * max(sv_0, 1), an absolute scale, are zero.
NULL_TOL = 1e-8


def kn_product(b) -> np.ndarray:
    """Kulkarni-Nomizu square (b ^ b)(x,y,z,w) = b(x,z)b(y,w) - b(x,w)b(y,z)."""
    b = np.asarray(b, dtype=float)
    return np.einsum("ik,jl->ijkl", b, b) - np.einsum("il,jk->ijkl", b, b)


class ConstantCurvatureFit(NamedTuple):
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
        with np.errstate(over="ignore", invalid="ignore"):   # Lam3 / Vol overflows near Vol = 0
            self.structure = _finite(0.5 * base.lambda_pairs, "the product table")

    def product(self, u: CohClass, v: CohClass) -> CohClass:
        """u . v = 1/2 Lam(u cup v); commutative and bilinear."""
        return 0.5 * self.base.lambda_class(u, v)

    def curvature_tensor(self) -> np.ndarray:
        """R_alg(x,y,z,w) = <x.w, y.z> - <x.z, y.w> on the basis, shape (m,) * 4."""
        s = self.structure
        ip = np.einsum("ija,ab,klb->ijkl", s, self.base.gram, s, optimize=True)
        return np.einsum("iljk->ijkl", ip) - np.einsum("ikjl->ijkl", ip)

    def bilinear_forms(self) -> np.ndarray:
        """Kulkarni-Nomizu forms on the basis, shape (m, m, m): [l] is b_l(x,y)
        = <x.y, x_l> for the g-orthonormal column x_l of ConePoint.frame, so
        that x.y = sum_l b_l(x,y) x_l and R_alg = -sum_l (b_l ^ b_l)."""
        return np.einsum("ijc,cd,dl->lij", self.structure, self.base.gram, self.base.frame,
                         optimize=True)

    def kn_reconstruction_residual(self) -> float:
        """Max deviation of R_alg + sum_l (b_l ^ b_l) from zero.

        Both terms antisymmetrize Gram matrices of the products e_i.e_k: the
        sum is E[i,k,j,l] = D[i,k,j,l] - D[i,l,j,k] with D = F^T F - S G S^T
        (F the forms as (m, m^2), S the structure as (m^2, m)) symmetric, so
        E[i,k,j,l] = E[j,l,i,k] and slab i, built one i at a time, needs only
        j >= i.  E is antisymmetric in (k, l), so its max is max |E|; a
        ValueError if it overflows."""
        m = self.base.rank_m
        with np.errstate(over="ignore", invalid="ignore"):
            f, s = self.bilinear_forms(), self.structure
            fmat = f.reshape(m, m * m)
            gst = self.base.gram @ s.reshape(m * m, m).T
            slab_max = np.empty(m)
            for i in range(m):
                d = f[:, i].T @ fmat[:, i * m:]
                d -= s[i] @ gst[:, i * m:]
                d = d.reshape(m, m - i, m)   # [k, j - i, l] = D[i, k, j, l]
                slab_max[i] = (d - d.transpose(2, 1, 0)).max()
        return float(_finite(slab_max.max(), "KN residual at", self.base.omega))

    def constant_curvature_test(self) -> ConstantCurvatureFit:
        """Best multiple of the induced S^2 inner product inside <x.y, z.w>.

        T(a,b,c,d) = <x_a.x_b, x_c.x_d> over ConePoint.frame has constant sectional
        curvature -lam iff T - 2 lam S is fully symmetric, 2 S = d_ac d_bd + d_ad d_bc.
        R_alg is -n/4 on planes through omega and -R on primitive ones, so the
        least-squares lam = scalar/(m^2 - m) + n/(2m), the residual is
        |R_alg - lam R1|/sqrt(3) with R1 = d_ac d_bd - d_ad d_bc, and tol 1e-8 |T|.
        Slab a of R + lam R1 is antisymmetric in (a, e) and zero at e = a: twice its e > a rows."""
        n, m, k, c = self.base.dim_n, self.base.rank_m, self.base.rank_m - 1, self.base.cubic
        flat, trace = c.reshape(k * k, k), np.einsum("aae->e", c)
        tr_sq = float(trace @ trace)
        lam = derived_curvatures(self.base).scalar / (m * m - m) + n / (2 * m) if m > 1 else 0.0
        # 4k entries -n/4 + lam through omega, then |R + lam R1|^2 one slab at a time
        # from ip = <c_ab, c_ed>, summed directly: its expansion would cancel when the fit passes
        shift, b, res_sq = lam + 1.0 / n, np.arange(k), 4 * k * (lam - n / 4) ** 2
        for a in range(k):
            ip = (c[a] @ flat[(a + 1) * k:].T).reshape(k, k - a - 1, k)   # [b, e - a - 1, d]
            r = ip.transpose(1, 0, 2) - ip.transpose(1, 2, 0)
            r[b[:k - a - 1], a, b[a + 1:]] += shift
            r[b[:k - a - 1], b[a + 1:], a] -= shift
            res_sq += 2 * float(np.vdot(r, r))
        # |T| is that of the m x m Gram matrix of the products: omega entry, row, primitive block
        gram = flat.T @ flat + (n - 2) ** 2 / (2 * n) * np.eye(k)
        t_sq = ((n - 1) ** 2 + k) ** 2 / n**2 + 2 * tr_sq / n + float(np.vdot(gram, gram))
        return ConstantCurvatureFit(lam=lam, residual=float(np.sqrt(res_sq / 3)),
                                    tol=1e-8 * float(np.sqrt(t_sq)))

    def derivations(self) -> List[np.ndarray]:
        """Basis of the derivation algebra: maps D with D(x.y) = Dx.y + x.Dy.

        On the primitive columns X = frame[:, 1:] each D lies in so(m - 1) and solves
        D.c = 0: one row per a <= b <= f of sum_e D_ea c_ebf + D_eb c_aef +
        D_ef c_abe, built in blocks of about 2^16 (k, k) coefficient entries into
        one (rows, p) system A, p = k(k - 1)/2.  Its null cutoff NULL_TOL max(sv_0, 1)
        is absolute: the g-orthonormal frame keeps the omega parts of the product
        of order one, while c, unchanged by omega -> t omega and kappa -> s kappa,
        can be roundoff.  A Cholesky factor of A^T A - s I certifies every singular
        value above twice it, s = 4 NULL_TOL^2 max(|A|_F^2, 1) + (rows + p^2 + 1) eps
        |A|_F^2 with the rounding of both steps (Demmel 1989; Higham 2002, ch. 10);
        else the full SVD gives the count and the basis.  D maps back as X D F^T,
        F = coframe with F^T omega = 0, so D omega = 0, its image is primitive
        and it is g-antisymmetric by construction, up to roundoff of order
        cond(G) eps; verify.derivation_deviation measures the three.
        """
        if self.base.dim_n < 2:
            # n = 1: the product vanishes and every linear map is a derivation;
            # the structural conclusions need the nonzero products with omega
            raise ValueError("derivation analysis requires complex dimension >= 2")
        P, k, c = self.base, self.base.rank_m - 1, self.base.cubic
        abf = np.array(list(combinations_with_replacement(range(k), 3)), int).reshape(-1, 3)
        p, q = np.triu_indices(k, 1)
        lhs, blocks = np.empty((len(abf), p.size)), max(1, len(abf) * k * k >> 16)
        for out, blk in zip(np.array_split(lhs, blocks), np.array_split(abf, blocks)):
            # system[row, s, t] is the coefficient of D_st in (D.c)_abf
            (a, b, f), row, system = blk.T, np.arange(len(blk)), np.zeros((len(blk), k, k))
            system[row, :, a] = c[:, b, f].T
            system[row, :, b] += c[a, :, f]
            system[row, :, f] += c[a, b]
            np.subtract(system[:, p, q], system[:, q, p], out=out)
        # full rank with margin 2, no derivations, when A^T A - s I has a Cholesky factor
        with np.errstate(over="ignore", invalid="ignore"), suppress(np.linalg.LinAlgError):
            normal = lhs.T @ lhs
            fro_sq = np.trace(normal)
            rounding = (len(lhs) + p.size**2 + 1) * np.finfo(float).eps * fro_sq
            normal.flat[::p.size + 1] -= 4 * NULL_TOL**2 * max(fro_sq, 1.0) + rounding
            if np.isfinite(fro_sq):   # cholesky does not raise on NaN
                np.linalg.cholesky(normal)
                return []
        _, sv, vh = np.linalg.svd(lhs, full_matrices=False)
        null = vh[np.sum(sv > NULL_TOL * sv.max(initial=1.0)):]
        gens = np.zeros((len(null), k, k))
        gens[:, p, q] = null
        gens -= gens.transpose(0, 2, 1)
        return list(P.frame[:, 1:] @ gens @ P.coframe.T)


def algebra_at(P: ConePoint) -> AlgebraAtPoint:
    return AlgebraAtPoint(P)
