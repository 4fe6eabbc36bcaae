"""Walkthrough: the commutative algebra at a cone point.

Half the Lefschetz contraction of a cup product makes the (1,1)-classes a
commutative, non-associative, non-unital algebra.  Its curvature-type
tensor decomposes into Kulkarni-Nomizu squares, matches the metric
curvature on primitive classes with a sign flip, and its derivations are
exactly the rotations of the primitive subspace that appear for surfaces.
"""

import numpy as np

from kcone import algebra_at, riemann_tensor
from kcone.catalog import default_point

P = default_point("LOR3")
alg = algebra_at(P)
e1, e2, e3 = np.eye(3)

print("omega . omega =", alg.product(P.omega, P.omega), " ((n-1) omega)")
print("e2 . e2       =", alg.product(e2, e2))
print("e2 . e3       =", alg.product(e2, e3))

lhs = alg.product(alg.product(e2, e2), e1)
rhs = alg.product(e2, alg.product(e2, e1))
print("\nnon-associativity: (e2.e2).e1 =", lhs, "but e2.(e2.e1) =", rhs)

# The algebra's curvature tensor vs the metric's: equal up to sign on
# primitive arguments.
t_alg = alg.curvature_tensor()
u, v = e2 / np.sqrt(2.0), e3 / np.sqrt(2.0)
print("\nR_alg(u,v,v,u) =", t_alg.evaluate(u, v, v, u))
print("riemann tensor  =", riemann_tensor(P).evaluate(u, v, v, u), " (opposite sign)")

# Kulkarni-Nomizu decomposition over a g-orthonormal basis.
forms = alg.bilinear_forms()
print("\nKN data: forms shape", forms.forms.shape,
      "reconstruction residual", f"{alg.kn_reconstruction_residual():.2e}")

# Constant sectional curvature test.  R_alg is -n/4 on every plane through
# omega, so the fit passes exactly when every primitive plane has sectional
# curvature n/4, with lambda = scalar/(m^2 - m) + n/(2m).  For h11 <= 2 there
# is no primitive plane (residual 0, lambda = n/4); LOR3 is a surface (n = 2)
# whose primitive plane has K = -1/2, not 1/2, so it fails.
fit = alg.constant_curvature_test()
print(f"constant-curvature fit: lambda={fit.lam:.6f} residual={fit.residual:.3f} "
      f"-> constant: {fit.is_constant}")
fit2 = algebra_at(default_point("CY3GEN")).constant_curvature_test()
print(f"CY3GEN (rank 2):        lambda={fit2.lam:.6f} residual={fit2.residual:.2e} "
      f"-> constant: {fit2.is_constant}")

# Derivations: D(x.y) = Dx.y + x.Dy.  For surfaces the dimension is
# (m-1)(m-2)/2; here a single rotation of the primitive plane span(e2,e3).
ders = alg.derivations()
print(f"\nderivation algebra dimension: {len(ders)}")
print("generator:\n", np.round(ders[0], 6))
