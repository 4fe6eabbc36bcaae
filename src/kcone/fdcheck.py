"""Independent finite-difference verification of the analytic formulas.

Every closed-form object in the library (metric, connection, curvature,
derivative rules for the Lefschetz contractions) is re-derived here by
central differences with one level of Richardson extrapolation, and the
two are compared.  Reports carry raw maxima rather than booleans only, so
tolerances stay data-driven.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log

import numpy as np

from .curvature import VectorField, christoffel_tensor, riemann_tensor
from .intersection import IntersectionForm
from .metric import ConePoint

__all__ = [
    "FDConfig",
    "FDReport",
    "fd_directional",
    "fd_hessian",
    "with_fd_jacobian",
    "check_hessian_metric",
    "check_lambda_derivative",
    "check_connection",
    "check_curvature",
    "check_primitive_field",
]


@dataclass(frozen=True)
class FDConfig:
    """Step sizes (relative to |omega|) and tolerances for the checks."""

    step_scale: float = 1e-4
    hessian_step_scale: float = 1e-3
    richardson: bool = True
    tol_hessian: float = 1e-6
    tol_lambda_derivative: float = 1e-6
    tol_compatibility: float = 1e-6
    tol_curvature: float = 1e-5
    tol_primitive: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.step_scale < 1e-1:
            raise ValueError("step_scale must lie in (0, 0.1)")
        if not 0.0 < self.hessian_step_scale < 1e-1:
            raise ValueError("hessian_step_scale must lie in (0, 0.1)")


@dataclass
class FDReport:
    name: str
    max_dev: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_dev <= self.tol

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "max_dev": float(self.max_dev),
            "tol": float(self.tol),
            "pass": bool(self.passed),
        }


def fd_directional(f, omega, z, cfg: FDConfig = None):
    """Central difference of f at omega in direction z, Richardson-refined.

    f may return a scalar or an array; evaluation points omega +- h z must
    be admissible for f.
    """
    cfg = cfg or FDConfig()
    omega = np.asarray(omega, dtype=float)
    z = np.asarray(z, dtype=float)
    h = cfg.step_scale * max(np.linalg.norm(omega), 1e-12)

    def central(step):
        return (f(omega + step * z) - f(omega - step * z)) / (2.0 * step)

    d = central(h)
    if cfg.richardson:
        d = (4.0 * central(h / 2.0) - d) / 3.0
    return d


def fd_hessian(f, omega, cfg: FDConfig = None) -> np.ndarray:
    """Full Hessian of a scalar function by 4-point central differences."""
    cfg = cfg or FDConfig()
    omega = np.asarray(omega, dtype=float)
    m = omega.shape[0]
    h = cfg.hessian_step_scale * max(np.linalg.norm(omega), 1e-12)
    eye = np.eye(m)

    def hess(step):
        out = np.empty((m, m))
        for i in range(m):
            for j in range(i, m):
                ei, ej = step * eye[i], step * eye[j]
                val = (
                    f(omega + ei + ej)
                    - f(omega + ei - ej)
                    - f(omega - ei + ej)
                    + f(omega - ei - ej)
                ) / (4.0 * step * step)
                out[i, j] = out[j, i] = val
        return out

    out = hess(h)
    if cfg.richardson:
        out = (4.0 * hess(h / 2.0) - out) / 3.0
    return out


def with_fd_jacobian(field: VectorField, form: IntersectionForm, cfg: FDConfig = None) -> VectorField:
    """Equip a field with a finite-difference directional jacobian."""
    cfg = cfg or FDConfig()

    def jacobian(P: ConePoint, z):
        return fd_directional(
            lambda w: field.value_at(ConePoint(form, w)), P.omega, z, cfg
        )

    return VectorField(value_at=field.value_at, jacobian_at=jacobian)


def check_hessian_metric(P: ConePoint, cfg: FDConfig = None) -> FDReport:
    """FD Hessian of -log Vol against the analytic Gram matrix."""
    cfg = cfg or FDConfig()
    hess = fd_hessian(lambda w: -log(P.form.volume(w)), P.omega, cfg)
    dev = float(np.abs(hess - P.gram).max() / np.abs(P.gram).max())
    return FDReport("hessian_vs_gram", dev, cfg.tol_hessian)


def check_lambda_derivative(
    P: ConePoint, classes, v, cfg: FDConfig = None
) -> FDReport:
    """Derivative rule for the scalar contraction of constant classes:

        d_v Lam^k(u_1 .. u_k) = -Lam(v) Lam^k(u_1 .. u_k)
                                + Lam^{k+1}(u_1 .. u_k cup v).
    """
    cfg = cfg or FDConfig()
    classes = [np.asarray(a, dtype=float) for a in classes]
    v = np.asarray(v, dtype=float)
    form = P.form
    fd = fd_directional(
        lambda w: ConePoint(form, w).lambda_scalar(classes), P.omega, v, cfg
    )
    analytic = -P.lambda_scalar([v]) * P.lambda_scalar(classes) + P.lambda_scalar(
        classes + [v]
    )
    dev = abs(fd - analytic) / max(1.0, abs(analytic))
    return FDReport("lambda_derivative_rule", dev, cfg.tol_lambda_derivative)


def check_connection(P: ConePoint, cfg: FDConfig = None) -> FDReport:
    """Metric compatibility over all basis triples (z, u <= v):

        d_z g(u, v) = g(Gamma(z,u), v) + g(u, Gamma(z,v));

    torsion is identically zero by construction of Gamma.  The Gram matrix
    is differentiated whole, once per basis direction z.
    """
    cfg = cfg or FDConfig()
    form, m = P.form, P.rank_m
    fd = np.array([
        fd_directional(lambda w: ConePoint(form, w).gram, P.omega, e, cfg)
        for e in np.eye(m)
    ])
    lowered = christoffel_tensor(P) @ P.gram   # [z, u, v] = g(Gamma(z,u), v)
    analytic = lowered + lowered.transpose(0, 2, 1)
    iu, iv = np.triu_indices(m)   # g is symmetric in (u, v)
    fd, analytic = fd[:, iu, iv], analytic[:, iu, iv]
    max_dev = float((np.abs(fd - analytic) / np.maximum(1.0, np.abs(analytic))).max())
    return FDReport("metric_compatibility", max_dev, cfg.tol_compatibility)


def check_curvature(P: ConePoint, cfg: FDConfig = None) -> FDReport:
    """Curvature commutator of the connection against the closed form.

    For constant basis fields (vanishing bracket)

        R(u,v)z = d_u Gamma(v,z) - d_v Gamma(u,z)
                  + Gamma(u, Gamma(v,z)) - Gamma(v, Gamma(u,z)),

    lowered with the Gram matrix and compared entrywise with the tensor
    over u < v.  The Christoffel tensor is differentiated whole, once per
    basis direction.
    """
    cfg = cfg or FDConfig()
    form, m = P.form, P.rank_m
    tensor = riemann_tensor(P).entries
    scale = max(1.0, float(np.abs(tensor).max()))
    gamma = christoffel_tensor(P)
    # d_gamma[u, v, z] = d_u Gamma(v, z)
    d_gamma = np.array([
        fd_directional(lambda w: christoffel_tensor(ConePoint(form, w)), P.omega, e, cfg)
        for e in np.eye(m)
    ])
    # nested[u, v, z] = Gamma(u, Gamma(v, z))
    nested = np.einsum("ubk,vzb->uvzk", gamma, gamma, optimize=True)
    vec = d_gamma - d_gamma.transpose(1, 0, 2, 3) + nested - nested.transpose(1, 0, 2, 3)
    iu, iv = np.triu_indices(m, 1)
    max_dev = float(np.abs(vec[iu, iv] @ P.gram - tensor[iu, iv]).max(initial=0.0)) / scale
    return FDReport("curvature_vs_fd", max_dev, cfg.tol_curvature)


def check_primitive_field(P: ConePoint, cfg: FDConfig = None) -> FDReport:
    """Covariant derivatives of primitive projection fields stay primitive.

    Field i is column i of the primitive projector.  The projector is
    differentiated whole by finite differences, once per basis direction,
    so the check is independent of the analytic jacobian of the field.
    """
    cfg = cfg or FDConfig()
    form, m = P.form, P.rank_m
    # d_pi[z] = d_z Pi, so nabla_{e_z} of field i is d_pi[z][:, i] + Gamma(e_z, Pi[:, i])
    d_pi = np.array([
        fd_directional(lambda w: ConePoint(form, w).primitive_projector, P.omega, e, cfg)
        for e in np.eye(m)
    ])
    gamma_pi = np.einsum("ui,zuk->zki", P.primitive_projector, christoffel_tensor(P))
    max_dev = float(np.abs(P._lam @ (d_pi + gamma_pi)).max())
    return FDReport("primitive_field_stays_primitive", max_dev, cfg.tol_primitive)
