"""Full verification suite: every analytic formula against the
finite-difference oracle, plus the structural invariants, benchmark
values, geodesic diagnostics and boundary probes, at pinned tolerances.

Each catalog entry runs one fixed check sequence at its default point; a
check against a pinned value runs on the entries that pin one.  The same
checks back the `verify` CLI subcommand and the acceptance test module;
all sampling is seeded, so repeated runs are bit-identical.
"""

from __future__ import annotations

from itertools import product as iter_product
from math import log, sqrt

import numpy as np

from .algebra import algebra_at
from .catalog import CATALOG, ENTRIES, Probe, default_omega, default_point
from .curvature import (
    CurvatureTensor,
    christoffel_tensor,
    covariant_derivative,
    derived_curvatures,
    riemann,
    riemann_alt,
    riemann_tensor,
    tautological_field,
)
from .fdcheck import (
    check_connection,
    check_curvature,
    check_hessian_metric,
    check_lambda_derivative,
    check_primitive_field,
)
from .intersection import IntersectionForm
from .metric import ConePoint
from .paths import (
    LengthBound,
    admissible_perturbations,
    boundary_probe,
    draw_admissible,
    integrate_geodesics,
    length_bound_check,
    path_length,
    pullback_isometry_check,
)

__all__ = ["run_verification"]


# -- criterion helpers ------------------------------------------------------


def hessian_deviation(P: ConePoint) -> float:
    """Criterion 1: FD Hessian of -log Vol vs Gram at P and three seeded
    admissible perturbations."""
    others = admissible_perturbations(P.form, P.omega, 3, seed=1)
    points = [P] + [ConePoint(P.form, w) for w in others]
    return max(check_hessian_metric(Q).max_dev for Q in points)


def lambda_rule_deviation(P: ConePoint, per_k: int = 20) -> float:
    """Criterion 2: derivative rule for Lam^k, k in 1..n-1, random tuples."""
    m, n = P.rank_m, P.dim_n
    rng = np.random.default_rng(2)
    worst = 0.0
    for k in range(1, n):
        for _ in range(per_k):
            classes = [rng.uniform(-1.0, 1.0, m) for _ in range(k)]
            v = rng.uniform(-1.0, 1.0, m)
            worst = max(worst, check_lambda_derivative(P, classes, v).max_dev)
    return worst


def torsion_deviation(P: ConePoint) -> float:
    """Criterion 3a: Gamma(z, u) - Gamma(u, z) over basis pairs."""
    gamma = christoffel_tensor(P)
    return float(np.abs(gamma - gamma.transpose(1, 0, 2)).max())


def parallel_kahler_deviation(P: ConePoint) -> float:
    """Criterion 4a: nabla omega = 0 for the tautological field, computed
    through christoffel: z + christoffel(z, omega) over all basis z."""
    field = tautological_field()
    return max(
        float(np.abs(covariant_derivative(P, field, e)).max()) for e in np.eye(P.rank_m)
    )


def curvature_agreement_deviation(P: ConePoint) -> float:
    """Criterion 5a: the two closed forms of R over all basis quadruples."""
    return max(
        abs(riemann(P, *q) - riemann_alt(P, *q))
        for q in iter_product(np.eye(P.rank_m), repeat=4)
    )


def sign_relation_deviation(tensor: CurvatureTensor, ralg: CurvatureTensor) -> float:
    """Criterion 7: riemann = -R_alg on primitive parts, all quadruples."""
    pi = tensor.base_point.primitive_projector
    ralg_prim = np.einsum("abcd,ai,bj,ck,dl->ijkl", ralg.entries, pi, pi, pi, pi, optimize=True)
    return float(np.abs(tensor.entries + ralg_prim).max())


def geodesic_deviations(P: ConePoint, count: int = 10, steps: int = 1000):
    """Criteria 9a and 9b from one batched integration: the radial ray
    against its closed form e^{t/n} omega, and the worst speed drift over
    seeded random initial data."""
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


def length_bound_violation(P: ConePoint, count: int = 50) -> float:
    """Criterion 10a: worst violation of the (1/sqrt n) bound of
    length_bound_check over seeded random piecewise-linear paths, each
    measured segment by segment as it is sampled (negative slack means
    satisfied)."""
    form = P.form
    subdiv = 4096 if form.rank_m == 1 else 64
    rng = np.random.default_rng(5)
    worst = -np.inf
    for _ in range(count):
        lengths = []
        path = _random_piecewise_path(form, P.omega, rng, subdiv=subdiv, lengths=lengths)
        dlv = abs(log(form.volume(path[-1])) - log(form.volume(path[0])))
        worst = max(worst, dlv / sqrt(form.dim_n) - sum(lengths))
    return max(worst, 0.0)


def radial_bound(P: ConePoint, samples: int = 4096) -> LengthBound:
    """Criteria 10b and 10c: the length bound along the radial ray
    t |-> e^{t/n} omega, t in [0, 1]."""
    ts = np.linspace(0.0, 1.0, samples + 1)
    return length_bound_check(P.form, np.exp(ts[:, None] / P.dim_n) * P.omega[None, :])


def probe_deviation(P: ConePoint, probe: Probe) -> float:
    """Criterion 11: the pinned boundary probe from P.  A DIVERGENT probe
    scores the growth shortfall of its last five increments, a CONVERGENT
    one its final tail increment; inf when the classification differs."""
    schedule = [1.0 / 2**j for j in range(probe.halvings + 1)]
    rep = boundary_probe(P.form, np.array(probe.alpha), P.omega, schedule)
    if rep.classification != probe.expect:
        return float("inf")
    if probe.expect == "DIVERGENT":
        return max(0.0, float((rep.growth_threshold - rep.increments[-5:]).max()))
    return float(rep.increments[-1])


def algebra_identity_deviation(P: ConePoint) -> float:
    """Criterion 12a: x.omega and omega.omega structural identities."""
    alg = algebra_at(P)
    n, omega = P.dim_n, P.omega
    dev = float(np.abs(alg.product(omega, omega) - (n - 1.0) * omega).max())
    for e in np.eye(P.rank_m):
        expect = 0.5 * P.lambda_scalar([e]) * omega + 0.5 * (n - 2.0) * e
        dev = max(dev, float(np.abs(alg.product(e, omega) - expect).max()))
    return dev


def derivation_conclusion_deviation(P: ConePoint, derivations) -> float:
    """Criterion 12d: D omega = 0, primitivity of the image, antisymmetry."""
    devs = [0.0]
    for d in derivations:
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
    Each named entry (default: the whole catalog) runs the same sequence at
    its default point; the three pullback cases always run.
    """
    if names is None:
        names = list(CATALOG)
    checks = []

    def add(check, dev, tol):   # named after the entry in scope
        dev = float(dev)
        checks.append(
            {"name": f"{name}:{check}", "max_dev": dev, "tol": float(tol),
             "pass": bool(dev <= tol)}
        )

    for name in names:
        entry, P = ENTRIES[name], default_point(name)
        add("hessian_vs_gram", hessian_deviation(P), 1e-6)
        add("lambda_derivative_rule", lambda_rule_deviation(P), 1e-6)
        add("torsion_symmetry", torsion_deviation(P), 0.0)
        add("metric_compatibility", check_connection(P).max_dev, 1e-6)
        add("parallel_kahler_class", parallel_kahler_deviation(P), 1e-12)
        add("primitive_field_covariant", check_primitive_field(P).max_dev, 1e-8)
        add("curvature_formula_agreement", curvature_agreement_deviation(P), 1e-10)
        add("curvature_vs_fd", check_curvature(P).max_dev, 1e-5)
        tensor, alg = riemann_tensor(P), algebra_at(P)
        ralg = alg.curvature_tensor()
        riemann_dev = max(tensor.max_symmetry_deviation(), tensor.omega_slot_deviation())
        add("riemann_symmetries", riemann_dev, 1e-12)
        add("algebra_curvature_symmetries", ralg.max_symmetry_deviation(), 1e-12)
        add("curvature_sign_relation", sign_relation_deviation(tensor, ralg), 1e-10)
        pins = entry.curvature
        if pins is not None:   # Criterion 8
            dc = derived_curvatures(P)
            ricci_devs = [abs(u @ dc.ricci @ u - pins.ricci) for u in np.array(pins.units)]
            radial_devs = [abs(dc.sectional(P.omega, u)) for u in pins.radial]
            add("primitive_sectional", abs(dc.sectional(*pins.plane) - pins.sectional), 1e-8)
            add("primitive_ricci", max(ricci_devs), 1e-8)
            add("scalar_curvature", abs(dc.scalar - pins.scalar), 1e-7)
            add("radial_plane_sectional", max(radial_devs), 1e-10)
        if P.rank_m == 1:   # Criterion 8: a rank-one cone is a flat ray
            add("flat_curvature", np.abs(tensor.entries).max(), 1e-14)
        radial_dev, drift_dev = geodesic_deviations(P)
        add("radial_geodesic", radial_dev, 1e-8)
        add("geodesic_speed_drift", drift_dev, 1e-8)
        add("length_lower_bound", length_bound_violation(P), 1e-9)
        lb = radial_bound(P)
        add("radial_bound_tightness", abs(lb.length - lb.lower_bound), 1e-8)
        # 0.0 when the radial path strictly violates the sqrt(2/n) variant
        add("sqrt2_bound_violated", 0.0 if lb.length < lb.sqrt2_bound else 1.0, 0.0)
        if entry.probe is not None:
            probe = entry.probe
            add(f"boundary_{probe.expect.lower()}", probe_deviation(P, probe), probe.tol)
        add("algebra_product_identities", algebra_identity_deviation(P), 1e-10)
        add("kn_reconstruction", alg.kn_reconstruction_residual(), 1e-10)
        derivations = alg.derivations()
        add("derivation_conclusions", derivation_conclusion_deviation(P, derivations), 1e-8)
        if entry.derivation_dim is not None:   # Criterion 12c
            add("derivation_dimension", abs(len(derivations) - entry.derivation_dim), 0.0)
    name = "pullback"
    for tag, dev in pullback_case_deviations().items():
        add(tag, dev, 1e-10)
    all_pass = all(c["pass"] for c in checks)
    return checks, all_pass
