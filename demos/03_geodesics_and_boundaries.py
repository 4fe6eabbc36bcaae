"""Walkthrough: geodesics, path lengths and boundary behavior.

Radial rays t -> e^{t/n} omega are exact geodesics, and they realize the
sharp constant in the length lower bound

    L(gamma) >= (1/sqrt n) |log Vol(end) - log Vol(start)|.

Probing straight paths toward the cone boundary separates walls the
metric pushes to infinite distance (volume collapses) from walls at
finite distance (volume stays positive).
"""

import numpy as np

from kcone import boundary_probe, integrate_geodesic, length_bound_check, split_report
from kcone.catalog import CATALOG, default_omega, default_point

P = default_point("QUINTIC")
n = P.dim_n

# Radial geodesic: RK4 against the closed form.
path = integrate_geodesic(P, P.omega / n, T=1.0, steps=1000)
closed = np.exp(path.ts[:, None] / n) * P.omega[None, :]
print("radial geodesic: max deviation from e^{t/n} w =", np.abs(path.points - closed).max())
print("speed drift over the whole path:", path.speed_drift)

# The same ray is tight against the length bound; the sqrt(2/n)-constant
# variant of the bound is strictly violated by it.
ts = np.linspace(0.0, 1.0, 4097)
lb = length_bound_check(P.form, np.exp(ts[:, None] / n) * P.omega[None, :])
print(f"\nlength {lb.length:.6f} vs (1/sqrt n)|dlogVol| = {lb.lower_bound:.6f}")
print(f"sqrt(2/n) variant would demand {lb.sqrt2_bound:.6f}: violated")

# The splitting (t, unit-volume slice): the radial coordinate carries the
# measured coefficient 1/n, and mixed terms vanish.
rep = split_report(P)
print(f"\nsplit: t = {rep.t:.6f}, dt^2 coefficient = {rep.dt2_coefficient} (1/n = {rep.expected_dt2})")
print("max mixed metric entry:", rep.max_mixed_entry)

# Boundary probes.  On the product of lines, pushing a factor to zero
# volume takes infinite length; on the blown-up surface, the wall where
# the volume stays positive sits at finite distance.
p1 = CATALOG["P1XP1"]
# boundary_probe(form, alpha, omega, halvings) walks t = 1, 1/2, ..., 2^-halvings.
rep1 = boundary_probe(p1, np.array([1.0, 0.0]), np.array([1.0, 1.0]), 10)
print(f"\nP1XP1 toward (1,0): {rep1.classification}")
print("  per-halving length increments:", np.round(rep1.increments[-5:], 4))
print("  volumes:", np.round(rep1.vols[:5], 5), "...")

blp2 = CATALOG["BLP2"]
rep2 = boundary_probe(blp2, np.array([1.0, 0.0]), default_omega("BLP2"), 14)
print(f"BLP2 toward (1,0): {rep2.classification}")
print("  tail increments:", [f"{x:.2e}" for x in rep2.increments[-3:]])
print("  limiting volume:", rep2.vols[-1])
