"""Full verification suite: every analytic formula against the
finite-difference oracle, plus the structural invariants, benchmark
values, geodesic diagnostics and boundary probes, at pinned tolerances.

The same checks back the `verify` CLI subcommand and the acceptance test
module; all sampling is seeded, so repeated runs are bit-identical.
"""

from __future__ import annotations

from itertools import product as iter_product
from math import log, sqrt

import numpy as np

from .algebra import algebra_at
from .catalog import CATALOG, default_omega, default_point
from .curvature import (
    christoffel,
    covariant_derivative,
    riemann,
    riemann_alt,
    riemann_tensor,
    tautological_field,
)
from .fdcheck import (
    FDConfig,
    check_connection,
    check_curvature,
    check_hessian_metric,
    check_lambda_derivative,
    check_primitive_field,
)
from .intersection import IntersectionForm
from .metric import ConePoint
from .paths import (
    admissible_perturbations,
    boundary_probe,
    draw_admissible,
    integrate_geodesics,
    length_bound_check,
    path_length,
    pullback_isometry_check,
)

__all__ = ["run_verification"]

_CFG = FDConfig()

# entries whose derivation algebra dimension is pinned by the suite
_DERIVATION_DIMS = {"P3": 0, "QUINTIC": 0, "P1XP1": 0, "LOR3": 1}


# -- criterion helpers ------------------------------------------------------


def hessian_deviation(name: str) -> float:
    """Criterion 1: FD Hessian of -log Vol vs Gram at the default point and
    three seeded admissible perturbations."""
    form = CATALOG[name]
    omega = default_omega(name)
    points = [omega] + admissible_perturbations(form, omega, 3, seed=1)
    return max(check_hessian_metric(ConePoint(form, w), _CFG).max_dev for w in points)


def lambda_rule_deviation(name: str, per_k: int = 20) -> float:
    """Criterion 2: derivative rule for Lam^k, k in 1..n-1, random tuples."""
    P = default_point(name)
    m, n = P.rank_m, P.dim_n
    rng = np.random.default_rng(2)
    worst = 0.0
    for k in range(1, n):
        for _ in range(per_k):
            classes = [rng.uniform(-1.0, 1.0, m) for _ in range(k)]
            v = rng.uniform(-1.0, 1.0, m)
            worst = max(worst, check_lambda_derivative(P, classes, v, _CFG).max_dev)
    return worst


def torsion_deviation(name: str) -> float:
    """Criterion 3a: christoffel(z, u) - christoffel(u, z) over basis pairs."""
    P = default_point(name)
    eye = np.eye(P.rank_m)
    return max(
        float(np.abs(christoffel(P, eye[i], eye[j]) - christoffel(P, eye[j], eye[i])).max())
        for i in range(P.rank_m)
        for j in range(P.rank_m)
    )


def compatibility_deviation(name: str) -> float:
    """Criterion 3b: FD metric compatibility over all basis triples."""
    return check_connection(default_point(name), _CFG).max_dev


def parallel_kahler_deviation(name: str) -> float:
    """Criterion 4a: nabla omega = 0 for the tautological field, computed
    through christoffel: z + christoffel(z, omega) over all basis z."""
    P = default_point(name)
    field = tautological_field()
    eye = np.eye(P.rank_m)
    return max(
        float(np.abs(covariant_derivative(P, field, eye[i])).max())
        for i in range(P.rank_m)
    )


def primitive_field_deviation(name: str) -> float:
    """Criterion 4b: primitive projection fields stay primitive under nabla,
    with finite-difference jacobians."""
    return check_primitive_field(default_point(name), _CFG).max_dev


def curvature_agreement_deviation(name: str) -> float:
    """Criterion 5a: the two closed forms of R over all basis quadruples."""
    P = default_point(name)
    m = P.rank_m
    eye = np.eye(m)
    return max(
        abs(
            riemann(P, eye[i], eye[j], eye[k], eye[l])
            - riemann_alt(P, eye[i], eye[j], eye[k], eye[l])
        )
        for i, j, k, l in iter_product(range(m), repeat=4)
    )


def curvature_fd_deviation(name: str) -> float:
    """Criterion 5b: closed-form R vs the FD commutator of the connection."""
    return check_curvature(default_point(name), _CFG).max_dev


def riemann_symmetry_deviation(name: str) -> float:
    """Criterion 6a: antisymmetries, pair symmetry, Bianchi, omega slots."""
    tensor = riemann_tensor(default_point(name))
    return max(tensor.max_symmetry_deviation(), tensor.omega_slot_deviation())


def algebra_symmetry_deviation(name: str) -> float:
    """Criterion 6b: the same identities for the algebra curvature tensor."""
    return algebra_at(default_point(name)).curvature_tensor().max_symmetry_deviation()


def sign_relation_deviation(name: str) -> float:
    """Criterion 7: riemann = -R_alg on primitive parts, all quadruples."""
    P = default_point(name)
    m = P.rank_m
    ralg = algebra_at(P).curvature_tensor().entries
    pi = np.eye(m) - np.outer(P.omega, P._lam) / P.dim_n
    ralg_prim = np.einsum("abcd,ai,bj,ck,dl->ijkl", ralg, pi, pi, pi, pi, optimize=True)
    return float(np.abs(riemann_tensor(P).entries + ralg_prim).max())


def lor3_benchmarks() -> dict:
    """Criterion 8: the Lorentzian rank-3 surface benchmark values."""
    from .curvature import derived_curvatures

    P = default_point("LOR3")
    e1, e2, e3 = np.eye(3)
    dc = derived_curvatures(P)
    sec_dev = abs(dc.sectional(e2, e3) + 0.5)
    units = [e2 / sqrt(2.0), e3 / sqrt(2.0), (e2 + e3) / 2.0]
    ric_dev = max(abs(float(u @ dc.ricci @ u) + 0.5) for u in units)
    scal_dev = abs(dc.scalar + 1.0)
    omega_planes = [e2, e3, e2 + e3, e2 - 2.0 * e3]
    radial_dev = max(abs(dc.sectional(P.omega, u)) for u in omega_planes)
    return {
        "primitive_sectional": sec_dev,
        "primitive_ricci": ric_dev,
        "scalar_curvature": scal_dev,
        "radial_plane_sectional": radial_dev,
    }


def flat_curvature_deviation(name: str) -> float:
    """Criterion 8 (rank one): the curvature tensor vanishes identically."""
    return float(np.abs(riemann_tensor(default_point(name)).entries).max())


def geodesic_deviations(name: str, count: int = 10, steps: int = 1000):
    """Criteria 9a and 9b from one batched integration: the radial ray
    against its closed form e^{t/n} omega, and the worst speed drift over
    seeded random initial data."""
    P = default_point(name)
    n = P.dim_n
    rng = np.random.default_rng(42)
    velocities = [P.omega / n]
    for _ in range(count):
        vr = rng.standard_normal(P.rank_m)
        velocities.append(0.25 * vr / sqrt(P.inner(vr, vr)))
    radial, *rest = integrate_geodesics(P, np.array(velocities), 1.0, steps)
    closed = np.exp(radial.ts[:, None] / n) * P.omega[None, :]
    return float(np.abs(radial.points - closed).max()), max(p.speed_drift for p in rest)


def _random_piecewise_path(form, omega0, rng, waypoints=4, scale=0.15, subdiv=64,
                           lengths=None):
    """Seeded piecewise-linear admissible path, finely subdivided.

    Each segment is admitted once, by path_length, and its length appended
    to `lengths` when that is a list.  Rank-one cones only contain radial
    (bound-tight) paths, so they get a much finer subdivision to keep the
    discretization error below the criterion slack.
    """
    pts = [np.asarray(omega0, float)]
    grid = np.linspace(0.0, 1.0, subdiv + 1)
    lengths = [] if lengths is None else lengths

    def draw():
        step = scale * np.linalg.norm(pts[-1]) * rng.standard_normal(form.rank_m)
        return pts[-1] + step

    def check_segment(cand):
        seg = pts[-1][None, :] + grid[:, None] * (cand - pts[-1])[None, :]
        lengths.append(path_length(form, seg))

    while len(pts) < waypoints + 1:
        pts.append(draw_admissible(draw, check_segment, "waypoint"))
    a, b = np.array(pts[:-1]), np.array(pts[1:])
    t = np.linspace(0.0, 1.0, subdiv, endpoint=False)
    fine = a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]
    return np.concatenate([fine.reshape(-1, form.rank_m), pts[-1][None, :]])


def length_bound_violation(name: str, count: int = 50) -> float:
    """Criterion 10a: worst violation of the (1/sqrt n) bound of
    length_bound_check over seeded random piecewise-linear paths, each
    measured segment by segment as it is sampled (negative slack means
    satisfied)."""
    form = CATALOG[name]
    omega = default_omega(name)
    subdiv = 4096 if form.rank_m == 1 else 64
    rng = np.random.default_rng(5)
    worst = -np.inf
    for _ in range(count):
        lengths = []
        path = _random_piecewise_path(form, omega, rng, subdiv=subdiv, lengths=lengths)
        dlv = abs(log(form.volume(path[-1])) - log(form.volume(path[0])))
        worst = max(worst, dlv / sqrt(form.dim_n) - sum(lengths))
    return max(worst, 0.0)


def radial_tightness_deviation(name: str, samples: int = 4096) -> float:
    """Criterion 10b: the radial path attains the bound."""
    P = default_point(name)
    n = P.dim_n
    ts = np.linspace(0.0, 1.0, samples + 1)
    pts = np.exp(ts[:, None] / n) * P.omega[None, :]
    lb = length_bound_check(P.form, pts)
    return abs(lb.length - lb.lower_bound)


def sqrt2_bound_violated(name: str, samples: int = 4096) -> float:
    """Criterion 10c: 0.0 when the radial path strictly violates the
    sqrt(2/n)-constant variant of the bound (the documented finding)."""
    P = default_point(name)
    n = P.dim_n
    ts = np.linspace(0.0, 1.0, samples + 1)
    pts = np.exp(ts[:, None] / n) * P.omega[None, :]
    lb = length_bound_check(P.form, pts)
    return 0.0 if lb.length < lb.sqrt2_bound else 1.0


def probe_divergent_shortfall() -> float:
    """Criterion 11a: the product-of-lines probe toward a collapsing factor
    diverges at the forced per-halving rate; returns the growth shortfall."""
    form = CATALOG["P1XP1"]
    schedule = [1.0 / 2**j for j in range(11)]
    rep = boundary_probe(form, np.array([1.0, 0.0]), np.array([1.0, 1.0]), schedule)
    if rep.classification != "DIVERGENT":
        return float("inf")
    return max(0.0, float((rep.growth_threshold - rep.increments[-5:]).max()))


def probe_convergent_tail() -> float:
    """Criterion 11b: the blown-up surface probe toward its volume-positive
    wall has Cauchy tails; returns the final tail increment (inf if not
    classified CONVERGENT)."""
    form = CATALOG["BLP2"]
    schedule = [1.0 / 2**j for j in range(15)]
    rep = boundary_probe(form, np.array([1.0, 0.0]), np.array([2.0, -1.0]), schedule)
    if rep.classification != "CONVERGENT":
        return float("inf")
    return float(rep.increments[-1])


def algebra_identity_deviation(name: str) -> float:
    """Criterion 12a: x.omega and omega.omega structural identities."""
    P = default_point(name)
    alg = algebra_at(P)
    n, m = P.dim_n, P.rank_m
    omega = P.omega
    dev = float(np.abs(alg.product(omega, omega) - (n - 1.0) * omega).max())
    eye = np.eye(m)
    for i in range(m):
        expect = 0.5 * P.lambda_scalar([eye[i]]) * omega + 0.5 * (n - 2.0) * eye[i]
        dev = max(dev, float(np.abs(alg.product(eye[i], omega) - expect).max()))
    return dev


def kn_residual(name: str) -> float:
    """Criterion 12b: Kulkarni-Nomizu reconstruction of R_alg."""
    return algebra_at(default_point(name)).kn_reconstruction_residual()


def derivation_dimension_error(name: str) -> float:
    """Criterion 12c: derivation algebra dimensions on the pinned entries."""
    dim = len(algebra_at(default_point(name)).derivations())
    return float(abs(dim - _DERIVATION_DIMS[name]))


def derivation_conclusion_deviation(name: str) -> float:
    """Criterion 12d: D omega = 0, primitivity of the image, antisymmetry."""
    P = default_point(name)
    devs = [0.0]
    for d in algebra_at(P).derivations():
        devs.append(P.norm(d @ P.omega))
        devs.append(float(np.abs(P._lam @ d).max()))   # Lam of every image column
        devs.append(float(np.linalg.norm(P.gram_inv @ d.T @ P.gram + d)))
    return max(devs)


def pullback_case_deviations() -> dict:
    """Criterion 13: identity, degree-2 scaling and basis-swap embeddings."""
    p1 = CATALOG["P1XP1"]
    quintic = CATALOG["QUINTIC"]
    doubled = IntersectionForm(
        name="QUINTIC_doubled",
        dim_n=3,
        rank_m=1,
        coeffs={k: 2.0 * v for k, v in quintic.coeffs.items()},
    )
    cases = {
        "identity": pullback_isometry_check(
            p1, p1, np.eye(2), 1.0, default_omega("P1XP1")
        ),
        "degree_scaling": pullback_isometry_check(
            quintic, doubled, np.eye(1), 2.0, default_omega("QUINTIC")
        ),
        "basis_swap": pullback_isometry_check(
            p1, p1, np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0, default_omega("P1XP1")
        ),
    }
    return {
        tag: max(rep.max_vol_deviation, rep.max_gram_deviation)
        for tag, rep in cases.items()
    }


# -- assembled suite --------------------------------------------------------


def run_verification(names=None):
    """Run the verification suite; returns (checks, all_pass).

    checks is an ordered list of {"name", "max_dev", "tol", "pass"} dicts.
    Entry-specific benchmark checks run only when their entry is in scope;
    the three pullback cases always run.
    """
    if names is None:
        names = list(CATALOG)
    checks = []

    def add(name, dev, tol):
        dev = float(dev)
        checks.append(
            {"name": name, "max_dev": dev, "tol": float(tol), "pass": bool(dev <= tol)}
        )

    for name in names:
        add(f"{name}:hessian_vs_gram", hessian_deviation(name), 1e-6)
        add(f"{name}:lambda_derivative_rule", lambda_rule_deviation(name), 1e-6)
        add(f"{name}:torsion_symmetry", torsion_deviation(name), 0.0)
        add(f"{name}:metric_compatibility", compatibility_deviation(name), 1e-6)
        add(f"{name}:parallel_kahler_class", parallel_kahler_deviation(name), 1e-12)
        add(f"{name}:primitive_field_covariant", primitive_field_deviation(name), 1e-8)
        add(
            f"{name}:curvature_formula_agreement",
            curvature_agreement_deviation(name),
            1e-10,
        )
        add(f"{name}:curvature_vs_fd", curvature_fd_deviation(name), 1e-5)
        add(f"{name}:riemann_symmetries", riemann_symmetry_deviation(name), 1e-12)
        add(
            f"{name}:algebra_curvature_symmetries",
            algebra_symmetry_deviation(name),
            1e-12,
        )
        add(f"{name}:curvature_sign_relation", sign_relation_deviation(name), 1e-10)
        if name == "LOR3":
            bench = lor3_benchmarks()
            add("LOR3:primitive_sectional", bench["primitive_sectional"], 1e-8)
            add("LOR3:primitive_ricci", bench["primitive_ricci"], 1e-8)
            add("LOR3:scalar_curvature", bench["scalar_curvature"], 1e-7)
            add(
                "LOR3:radial_plane_sectional",
                bench["radial_plane_sectional"],
                1e-10,
            )
        if CATALOG[name].rank_m == 1:
            add(f"{name}:flat_curvature", flat_curvature_deviation(name), 1e-14)
        radial_dev, drift_dev = geodesic_deviations(name)
        add(f"{name}:radial_geodesic", radial_dev, 1e-8)
        add(f"{name}:geodesic_speed_drift", drift_dev, 1e-8)
        add(f"{name}:length_lower_bound", length_bound_violation(name), 1e-9)
        add(f"{name}:radial_bound_tightness", radial_tightness_deviation(name), 1e-8)
        add(f"{name}:sqrt2_bound_violated", sqrt2_bound_violated(name), 0.0)
        if name == "P1XP1":
            add("P1XP1:boundary_divergent", probe_divergent_shortfall(), 0.0)
        if name == "BLP2":
            add("BLP2:boundary_convergent", probe_convergent_tail(), 1e-3)
        add(f"{name}:algebra_product_identities", algebra_identity_deviation(name), 1e-10)
        add(f"{name}:kn_reconstruction", kn_residual(name), 1e-10)
        add(
            f"{name}:derivation_conclusions",
            derivation_conclusion_deviation(name),
            1e-8,
        )
        if name in _DERIVATION_DIMS:
            add(f"{name}:derivation_dimension", derivation_dimension_error(name), 0.0)
    for tag, dev in pullback_case_deviations().items():
        add(f"pullback:{tag}", dev, 1e-10)
    all_pass = all(c["pass"] for c in checks)
    return checks, all_pass
