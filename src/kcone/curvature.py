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
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import DegeneratePlane
from .intersection import CohClass
from .metric import ConePoint

__all__ = [
    "VectorField",
    "constant_field",
    "tautological_field",
    "primitive_projection_field",
    "christoffel_tensor",
    "christoffel",
    "covariant_derivative",
    "riemann",
    "riemann_alt",
    "inner22",
    "CurvatureTensor",
    "pair_curvature",
    "riemann_tensor",
    "DerivedCurvatures",
    "derived_curvatures",
]


@dataclass(frozen=True)
class VectorField:
    """A tangent field as a (value, directional jacobian) pair.

    `jacobian_at(P, z)` returns the directional derivative d_z u at P; it
    may be None, in which case the finite-difference oracle can synthesize
    one (see fdcheck.with_fd_jacobian).
    """

    value_at: Callable[[ConePoint], CohClass]
    jacobian_at: Optional[Callable[[ConePoint, CohClass], CohClass]] = None


def constant_field(u0: CohClass) -> VectorField:
    u0 = np.asarray(u0, dtype=float)
    return VectorField(
        value_at=lambda P: u0,
        jacobian_at=lambda P, z: np.zeros_like(u0),
    )


def tautological_field() -> VectorField:
    """The field omega |-> omega; its jacobian is the identity."""
    return VectorField(
        value_at=lambda P: P.omega,
        jacobian_at=lambda P, z: np.asarray(z, dtype=float),
    )


def primitive_projection_field(u0: CohClass) -> VectorField:
    """The field omega |-> primitive part of u0 at omega.

    The analytic jacobian uses the derivative rule for Lam applied to a
    constant class: d_z Lam(u0) = -Lam(z) Lam(u0) + Lam2(u0 cup z).
    """
    u0 = np.asarray(u0, dtype=float)

    def value(P: ConePoint) -> CohClass:
        return P.primitive_part(u0)

    def jacobian(P: ConePoint, z: CohClass) -> CohClass:
        z = np.asarray(z, dtype=float)
        n = P.dim_n
        lam_u = P.lambda_scalar([u0])
        dlam = -P.lambda_scalar([z]) * lam_u + P.lambda_scalar([u0, z])
        return -(dlam / n) * P.omega - (lam_u / n) * z

    return VectorField(value_at=value, jacobian_at=jacobian)


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
    return np.asarray(z, dtype=float) @ (np.asarray(u, dtype=float) @ christoffel_tensor(P))


def covariant_derivative(P: ConePoint, u: VectorField, z: CohClass) -> CohClass:
    """nabla_z u = d_z u + Gamma(z, u(P))."""
    if u.jacobian_at is None:
        raise ValueError(
            "field has no jacobian; wrap it with fdcheck.with_fd_jacobian"
        )
    z = np.asarray(z, dtype=float)
    return u.jacobian_at(P, z) + christoffel(P, z, u.value_at(P))


def riemann(P: ConePoint, u, v, z, w) -> float:
    """Curvature tensor entry R(u, v, z, w) at P (primitive projection)."""
    pu, pv, pz, pw = (P.primitive_part(a) for a in (u, v, z, w))
    luw = P.lambda_class(pu, pw)
    lvz = P.lambda_class(pv, pz)
    luz = P.lambda_class(pu, pz)
    lvw = P.lambda_class(pv, pw)
    return 0.25 * (P.inner(luz, lvw) - P.inner(luw, lvz))


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
    """R on the basis: pair_curvature of the pair tensor with both slots
    projected to primitive parts by P.primitive_projector."""
    pi = P.primitive_projector
    prim = np.einsum("ai,bj,abk->ijk", pi, pi, P.lambda_pairs, optimize=True)
    return CurvatureTensor(entries=pair_curvature(prim, P.gram), base_point=P)


class DerivedCurvatures(NamedTuple):
    sectional: Callable[[CohClass, CohClass], float]
    ricci: np.ndarray
    scalar: float


def derived_curvatures(P: ConePoint) -> DerivedCurvatures:
    """Sectional curvature function, Ricci matrix and scalar curvature.

    sectional(u, v) = R(u,v,v,u) / (g(u,u) g(v,v) - g(u,v)^2);
    Ric(u, v) contracts the first and last slots over a g-orthonormal
    basis, which is the same as contracting with the inverse Gram matrix.
    """
    tensor = riemann_tensor(P)
    r = tensor.entries
    ricci = np.einsum("pq,pijq->ij", P.gram_inv, r, optimize=True)
    scalar = float(np.einsum("ij,ij->", P.gram_inv, ricci))

    def sectional(u: CohClass, v: CohClass) -> float:
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        guu = P.inner(u, u)
        gvv = P.inner(v, v)
        guv = P.inner(u, v)
        den = guu * gvv - guv * guv
        if den <= 1e-12 * guu * gvv or den <= 0.0:
            raise DegeneratePlane(f"degenerate plane: |u^v|^2 = {den!r}")
        num = float(np.einsum("ijkl,i,j,k,l->", r, u, v, v, u, optimize=True))
        return num / den

    return DerivedCurvatures(sectional=sectional, ricci=ricci, scalar=scalar)
