"""Walkthrough: connection, curvature tensor and derived curvatures.

The Lorentzian rank-3 surface is the smallest example with nonzero
curvature: its unit-volume slice is a hyperbolic plane of curvature -1/2,
while every plane containing the radial direction is flat.
"""

import numpy as np

from kcone import (
    check_curvature,
    christoffel,
    derived_curvatures,
    riemann,
    riemann_alt,
    riemann_tensor,
)
from kcone.catalog import default_point

P = default_point("LOR3")
e1, e2, e3 = np.eye(3)
print("point:", P)

# The connection: Gamma(z, u) is the covariant derivative of a constant
# field.  The class omega itself, seen as the tautological field, is
# parallel: its jacobian, the identity, cancels Gamma(z, omega) = -z exactly.
print("\nGamma(e2, e2) =", christoffel(P, e2, e2))
print("Gamma(e2, omega) =", christoffel(P, e2, P.omega))
nabla_omega = e2 + christoffel(P, e2, P.omega)
print("nabla_{e2} omega =", nabla_omega, " (parallel)")

# Curvature: the closed form, its space-form-perturbation variant, and an
# independent finite-difference commutator of the connection all agree.
u = e2 / np.sqrt(2.0)
v = e3 / np.sqrt(2.0)
print("\nR(u,v,v,u) closed form :", riemann(P, u, v, v, u))
print("R(u,v,v,u) alternate   :", riemann_alt(P, u, v, v, u))
print("FD commutator check    : max dev", f"{check_curvature(P).max_dev:.2e}")

tensor = riemann_tensor(P)
print("tensor symmetry deviations:", tensor.symmetry_report())
print("entries with an omega slot:", f"{tensor.omega_slot_deviation():.2e}")

# Derived curvatures: sectional on the primitive plane, Ricci, scalar.
dc = derived_curvatures(P)
print("\nsectional(e2, e3)      =", dc.sectional(e2, e3))
print("sectional(omega, e2)   =", dc.sectional(P.omega, e2), " (radial planes are flat)")
print("Ricci matrix:\n", dc.ricci)
print("scalar curvature       =", dc.scalar)

# Rank-one cones are isometric to a line: identically flat.
flat = riemann_tensor(default_point("QUINTIC"))
print("\nQUINTIC curvature max |entry| =", np.abs(flat.entries).max())
