"""Product forms as an exact oracle: the cone of X x Y is the Riemannian product
of the cones of X and Y, so its metric, scalar curvature and geodesics follow
from the factors' with no new formula and no finite differences, and its
derivation count is the factors' sum in every case measured."""

import numpy as np
import pytest

from kcone.algebra import algebra_at
from kcone.curvature import derived_curvatures, riemann, riemann_alt
from kcone.paths import integrate_geodesics

PRODUCTS = [("LOR3", "P1"), ("BLP2", "P1"), ("BLP2", "BLP2"), ("LOR3", "BLP2"),
            ("CY3GEN", "P1XP1"), ("CY3GEN", "LOR3"), ("LOR3", "P3")]


@pytest.mark.parametrize("x, y", PRODUCTS, ids=[f"{x}x{y}" for x, y in PRODUCTS])
def test_product_metric_and_curvature_are_the_factors(product_point, x, y):
    # the Gram matrix is block diagonal with the factors' Gram matrices as its
    # blocks, the scalar curvatures add (all of LOR3's comes from the cubic term),
    # and the two closed forms of the curvature tensor agree on seeded classes
    P, px, py = product_point(x, y)
    blocks = np.zeros_like(P.gram)
    blocks[:px.rank_m, :px.rank_m], blocks[px.rank_m:, px.rank_m:] = px.gram, py.gram
    assert np.abs(P.gram - blocks).max() <= 4e-15 * np.abs(blocks).max(), P
    scalars = [derived_curvatures(Q).scalar for Q in (P, px, py)]
    assert abs(scalars[0] - scalars[1] - scalars[2]) <= 1e-13, (P, scalars)
    for q in np.random.default_rng(20).uniform(-1.0, 1.0, (20, 4, P.rank_m)):
        assert abs(riemann_alt(P, *q) - riemann(P, *q)) <= 1e-13, (P, q)


@pytest.mark.parametrize("x", ["LOR3", "BLP2", "P1XP1"])
def test_product_geodesics_are_pairs_of_closed_forms(product_point, exact_geodesic, x):
    # on X x P1 a geodesic is a pair of geodesics of the factors, each in closed
    # form: 400 RK4 steps over T = 1 on the n = 3 path, with its solve
    P, px, py = product_point(x, "P1")
    a = px.rank_m
    velocities = np.random.default_rng(7).uniform(-0.3, 0.3, (3, P.rank_m))
    for v0, path in zip(velocities, integrate_geodesics(P, velocities, 1.0, 400)):
        exact = np.concatenate([exact_geodesic(px.form, px.omega, v0[:a], path.ts),
                                exact_geodesic(py.form, py.omega, v0[a:], path.ts)], axis=1)
        assert np.abs(path.points - exact).max() <= 1e-13 * np.abs(exact).max(), (P, v0)


DERIVATION_COUNTS = [("LOR3", "P1", 1), ("BLP2", "P1", 0), ("BLP2", "BLP2", 0), ("LOR3", "BLP2", 1),
                     ("CY3GEN", "P1XP1", 0), ("CY3GEN", "LOR3", 1), ("LOR3", "P3", 1),
                     ("LOR3", "LOR3", 2)]


@pytest.mark.parametrize("x, y, count", DERIVATION_COUNTS,
                         ids=[f"{x}x{y}" for x, y, _ in DERIVATION_COUNTS])
def test_product_derivation_count_is_the_factors_sum(product_point, x, y, count):
    # LOR3's one rotation per LOR3 factor, none from the others; P1 (n = 1) has
    # no derivation analysis and counts 0.  Counts 0 leave the full-rank system to
    # the Cholesky certificate, the others to the full SVD, at n = 3 to 5
    P, px, py = product_point(x, y)
    factors = [len(algebra_at(Q).derivations()) if Q.dim_n > 1 else 0 for Q in (px, py)]
    assert len(algebra_at(P).derivations()) == sum(factors) == count, (P, factors)
