"""Levi-Civita connection, curvature tensor and derived curvatures.

The connection of the cone metric acts on a tangent field u by

    nabla_z u = d_z u - 1/2 Lam(u) z - 1/2 Lam(z) u + 1/2 Lam(u cup z),

so the Christoffel part Gamma(z, u) is symmetric and torsion-free by
inspection.  The tautological field omega |-> omega is parallel:
d_z omega = z while Gamma(z, omega) = -z.

The curvature tensor, evaluated on primitive parts, is

    R(u,v,z,w) = -1/4 <Lam(u cup w), Lam(v cup z)>
                 + 1/4 <Lam(u cup z), Lam(v cup w)>.

All four arguments are projected to their primitive parts first: the
metric splits off a flat radial line, so the tensor degenerates to the
primitive subspace and vanishes whenever a slot is omega.

Gamma and R on the basis are whole-tensor expressions in ConePoint.lambda_pairs,
the single source of Lam(e_i cup e_j).  fdcheck differentiates the Gram and
Christoffel tensors once per basis direction: O(m) cone points per check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DegeneratePlane
from .intersection import CohClass
from .metric import ConePoint

__all__ = [
    "christoffel_tensor",
    "christoffel",
    "riemann",
    "riemann_alt",
    "inner22",
    "CurvatureTensor",
    "pair_curvature",
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
    """Gamma(z, u): christoffel_tensor contracted with z and u."""
    z, u = P.form._check_class(z), P.form._check_class(u)
    return z @ (u @ christoffel_tensor(P))


def riemann(P: ConePoint, u, v, z, w) -> float:
    """Curvature tensor entry R(u, v, z, w) at P: the primitive pair tensor
    contracted once with u and once with v."""
    u, v, z, w = (P.form._check_class(a) for a in (u, v, z, w))
    lu, lv = u @ P.primitive_pairs, v @ P.primitive_pairs
    return 0.25 * (P.inner(z @ lu, w @ lv) - P.inner(w @ lu, z @ lv))


def inner22(P: ConePoint, pair_x, pair_y) -> float:
    """Inner product of the (2,2)-classes u cup w and v cup z:

        <x, y> = Lam4(x cup y) + <Lam(x), Lam(y)> - Lam2(x) Lam2(y),

    where the Lam4 term vanishes for n < 4.  No primitive projection.
    """
    u, w = pair_x
    v, z = pair_y
    lam4 = P.lambda_scalar([u, w, v, z])
    lx = P.lambda_class(u, w)
    ly = P.lambda_class(v, z)
    return lam4 + P.inner(lx, ly) - P.lambda_scalar([u, w]) * P.lambda_scalar([v, z])


def riemann_alt(P: ConePoint, u, v, z, w) -> float:
    """Curvature as a perturbation of a space-form tensor:

        R = -1/4 <u,w><v,z> + 1/4 <u,z><v,w>
            - 1/4 <u cup w, v cup z> + 1/4 <u cup z, v cup w>,

    with the cup inner products from inner22.  Agrees with riemann.
    """
    pu, pv, pz, pw = (P.primitive_part(a) for a in (u, v, z, w))
    metric_part = -0.25 * P.inner(pu, pw) * P.inner(pv, pz) + 0.25 * P.inner(
        pu, pz
    ) * P.inner(pv, pw)
    cup_part = -0.25 * inner22(P, (pu, pw), (pv, pz)) + 0.25 * inner22(
        P, (pu, pz), (pv, pw)
    )
    return metric_part + cup_part


@dataclass
class CurvatureTensor:
    """Dense rank-4 curvature array over the basis, plus its base point."""

    entries: np.ndarray
    base_point: ConePoint

    def symmetry_report(self) -> dict:
        """Max deviations from the algebraic curvature tensor identities."""
        r = self.entries
        bianchi = r + np.einsum("jkil->ijkl", r) + np.einsum("kijl->ijkl", r)
        return {
            "antisym_first_pair": float(np.abs(r + np.einsum("jikl->ijkl", r)).max()),
            "antisym_second_pair": float(np.abs(r + np.einsum("ijlk->ijkl", r)).max()),
            "pair_symmetry": float(np.abs(r - np.einsum("klij->ijkl", r)).max()),
            "first_bianchi": float(np.abs(bianchi).max()),
        }

    def max_symmetry_deviation(self) -> float:
        return max(self.symmetry_report().values())

    def omega_slot_deviation(self) -> float:
        """Max entry after inserting omega in any slot (metric tensor only)."""
        omega = self.base_point.omega
        return max(
            float(np.abs(np.tensordot(self.entries, omega, axes=([a], [0]))).max())
            for a in range(4)
        )

    def evaluate(self, u, v, z, w) -> float:
        return float(
            np.einsum("ijkl,i,j,k,l->", self.entries, u, v, z, w, optimize=True)
        )


def pair_curvature(pairs: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """The 4-tensor 1/4 (<L_ik, L_jl> - <L_il, L_jk>) of a pair tensor
    L[i, j] of shape (m, m, m), with inner products taken by gram."""
    ip = np.einsum("ija,ab,klb->ijkl", pairs, gram, pairs, optimize=True)
    return 0.25 * (np.einsum("ikjl->ijkl", ip) - np.einsum("iljk->ijkl", ip))


def riemann_tensor(P: ConePoint) -> CurvatureTensor:
    """R on the basis as a dense m^4 array: pair_curvature of the primitive
    pair tensor.  derived_curvatures contracts the pair tensor directly."""
    return CurvatureTensor(entries=pair_curvature(P.primitive_pairs, P.gram), base_point=P)


class DerivedCurvatures(NamedTuple):
    sectional: Callable[[CohClass, CohClass], float]
    ricci: np.ndarray
    scalar: float


def derived_curvatures(P: ConePoint) -> DerivedCurvatures:
    """Sectional curvature function, Ricci matrix and scalar curvature from
    the primitive pair tensor L, without the m^4 array of riemann_tensor:

        Ric_ij = 1/4 (sum_q <(L G)_iq, M_jq> - <L_ij, T>),  M_jq = sum_p g^pq L_pj,
        T = sum_pq g^pq L_pq, one (m, m^2) x (m^2, m) matmul;  scalar = <G^-1, Ric>;
        sectional(u, v) = riemann(u,v,v,u) / (g(u,u) g(v,v) - g(u,v)^2), O(m^3) per plane.
    """
    m, pairs = P.rank_m, P.primitive_pairs
    k = (pairs @ P.gram).reshape(m, m * m)
    mt = np.einsum("pq,pja->jqa", P.gram_inv, pairs, optimize=True).reshape(m, m * m)
    trace = np.einsum("pq,pqa->a", P.gram_inv, pairs, optimize=True)
    ricci = 0.25 * (k @ mt.T - pairs @ (P.gram @ trace))
    scalar = float(np.einsum("ij,ij->", P.gram_inv, ricci))

    def sectional(u: CohClass, v: CohClass) -> float:
        u, v = P.form._check_class(u), P.form._check_class(v)
        guu = P.inner(u, u)
        gvv = P.inner(v, v)
        guv = P.inner(u, v)
        den = guu * gvv - guv * guv
        if den <= 1e-12 * guu * gvv or den <= 0.0:
            raise DegeneratePlane(f"degenerate plane: |u^v|^2 = {den!r}")
        return riemann(P, u, v, v, u) / den

    return DerivedCurvatures(sectional=sectional, ricci=ricci, scalar=scalar)
