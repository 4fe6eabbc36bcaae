"""Independent finite-difference verification of the analytic formulas.

Every closed-form object in the library (metric, connection, curvature,
derivative rules for the Lefschetz contractions) is re-derived here by
central differences with one level of Richardson extrapolation, and the
two are compared.  Reports carry raw maxima rather than booleans only, so
tolerances stay data-driven.
"""

from __future__ import annotations

from math import isfinite, log
from typing import NamedTuple

import numpy as np

from .curvature import christoffel_tensor, riemann_tensor
from .metric import ConePoint

__all__ = [
    "FDReport",
    "fd_directional",
    "fd_hessian",
    "check_hessian_metric",
    "check_lambda_derivative",
    "check_connection",
    "check_curvature",
    "check_primitive_field",
]

# Step sizes relative to |omega|, and the tolerance of each check.
STEP_SCALE = 1e-4
HESSIAN_STEP_SCALE = 1e-3
TOL_HESSIAN = 1e-6
TOL_LAMBDA_DERIVATIVE = 1e-6
TOL_COMPATIBILITY = 1e-6
TOL_CURVATURE = 1e-5
TOL_PRIMITIVE = 1e-8


class FDReport(NamedTuple):
    name: str
    max_dev: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_dev <= self.tol

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "max_dev": float(self.max_dev) if isfinite(self.max_dev) else repr(float(self.max_dev)),
            "tol": float(self.tol),
            "pass": bool(self.passed),
        }


def _richardson(q, h):
    """Richardson-refined central difference of q = f(omega + s z), s = h, -h, h/2, -h/2."""
    d = (q[0] - q[1]) / (2.0 * h)
    return (4.0 * ((q[2] - q[3]) / (2.0 * (h / 2.0))) - d) / 3.0


def fd_directional(f, omega, z):
    """Central difference of f at omega in direction z, Richardson-refined.

    f may return a scalar or an array; evaluation points omega +- h z must
    be admissible for f.
    """
    omega = np.asarray(omega, dtype=float)
    z = np.asarray(z, dtype=float)
    h = STEP_SCALE * max(np.linalg.norm(omega), 1e-12)
    return _richardson([f(omega + s * z) for s in (h, -h, h / 2, -h / 2)], h)


def fd_hessian(f, omega) -> np.ndarray:
    """Full Hessian of a scalar function by 4-point central differences,
    Richardson-refined."""
    omega = np.asarray(omega, dtype=float)
    m = omega.shape[0]
    h = HESSIAN_STEP_SCALE * max(np.linalg.norm(omega), 1e-12)
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
    return (4.0 * hess(h / 2.0) - out) / 3.0


def _fd_stencils(P: ConePoint, quantity, z) -> np.ndarray:
    """fd_directional of quantity(ConePoint) at P along each row of z, stacked: out[i] =
    d_{z_i} quantity.  The stencil points omega +- h z_i, omega +- (h/2) z_i of every row,
    in fd_directional's order, are admitted in one batch and finished by _richardson."""
    h = STEP_SCALE * max(np.linalg.norm(P.omega), 1e-12)
    X = (P.omega + np.array([h, -h, h / 2, -h / 2])[:, None] * z[:, None]).reshape(-1, P.rank_m)
    q = np.array([quantity(Q) for Q in ConePoint._rows(P.form, X, "stencil point")])
    return _richardson([q[j::4] for j in range(4)], h)


def check_hessian_metric(P: ConePoint) -> FDReport:
    """FD Hessian of -log Vol against the analytic Gram matrix."""
    hess = fd_hessian(lambda w: -log(P.form.volume(w)), P.omega)
    dev = float(np.abs(hess - P.gram).max() / np.abs(P.gram).max())
    return FDReport("hessian_vs_gram", dev, TOL_HESSIAN)


def check_lambda_derivative(P: ConePoint, classes, v) -> FDReport:
    """Derivative rule for the scalar contraction of constant classes:

        d_v Lam^k(u_1 .. u_k) = -Lam(v) Lam^k(u_1 .. u_k)
                                + Lam^{k+1}(u_1 .. u_k cup v).
    """
    classes = [np.asarray(a, dtype=float) for a in classes]
    v = np.asarray(v, dtype=float)
    fd = float(_fd_stencils(P, lambda Q: Q.lambda_scalar(classes), v[None])[0])
    analytic = -P.lambda_scalar([v]) * P.lambda_scalar(classes) + P.lambda_scalar(
        classes + [v]
    )
    dev = abs(fd - analytic) / max(1.0, abs(analytic))
    return FDReport("lambda_derivative_rule", dev, TOL_LAMBDA_DERIVATIVE)


def check_connection(P: ConePoint) -> FDReport:
    """Metric compatibility over all basis triples (z, u <= v):

        d_z g(u, v) = g(Gamma(z,u), v) + g(u, Gamma(z,v));

    torsion is identically zero by construction of Gamma.  The Gram matrix
    is differentiated whole, once per basis direction z.
    """
    fd = _fd_stencils(P, lambda Q: Q.gram, np.eye(P.rank_m))
    lowered = christoffel_tensor(P) @ P.gram   # [z, u, v] = g(Gamma(z,u), v)
    analytic = lowered + lowered.transpose(0, 2, 1)
    iu, iv = np.triu_indices(P.rank_m)   # g is symmetric in (u, v)
    fd, analytic = fd[:, iu, iv], analytic[:, iu, iv]
    max_dev = float((np.abs(fd - analytic) / np.maximum(1.0, np.abs(analytic))).max())
    return FDReport("metric_compatibility", max_dev, TOL_COMPATIBILITY)


def check_curvature(P: ConePoint) -> FDReport:
    """Curvature commutator of the connection against the closed form.

    For constant basis fields (vanishing bracket)

        R(u,v)z = d_u Gamma(v,z) - d_v Gamma(u,z)
                  + Gamma(u, Gamma(v,z)) - Gamma(v, Gamma(u,z)),

    lowered with the Gram matrix and compared entrywise with the tensor
    over u < v.  The Christoffel tensor is differentiated whole, once per
    basis direction.
    """
    tensor = riemann_tensor(P)
    scale = max(1.0, float(np.abs(tensor).max()))
    gamma = christoffel_tensor(P)
    # d_gamma[u, v, z] = d_u Gamma(v, z)
    d_gamma = _fd_stencils(P, christoffel_tensor, np.eye(P.rank_m))
    # nested[u, v, z] = Gamma(u, Gamma(v, z))
    nested = np.einsum("ubk,vzb->uvzk", gamma, gamma, optimize=True)
    vec = d_gamma - d_gamma.transpose(1, 0, 2, 3) + nested - nested.transpose(1, 0, 2, 3)
    iu, iv = np.triu_indices(P.rank_m, 1)
    max_dev = float(np.abs(vec[iu, iv] @ P.gram - tensor[iu, iv]).max(initial=0.0)) / scale
    return FDReport("curvature_vs_fd", max_dev, TOL_CURVATURE)


def check_primitive_field(P: ConePoint) -> FDReport:
    """Covariant derivatives of primitive projection fields stay primitive.

    Field i is column i of the primitive projector.  The projector is
    differentiated whole by finite differences, once per basis direction,
    so the check needs no analytic jacobian of the field.
    """
    # d_pi[z] = d_z Pi, so nabla_{e_z} of field i is d_pi[z][:, i] + Gamma(e_z, Pi[:, i])
    d_pi = _fd_stencils(P, lambda Q: Q.primitive_projector, np.eye(P.rank_m))
    gamma_pi = np.einsum("ui,zuk->zki", P.primitive_projector, christoffel_tensor(P))
    max_dev = float(np.abs(P._lam @ (d_pi + gamma_pi)).max())
    return FDReport("primitive_field_covariant", max_dev, TOL_PRIMITIVE)
