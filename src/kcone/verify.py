"""Full verification suite: every analytic formula against the
finite-difference oracle, plus the structural invariants, benchmark
values, geodesic diagnostics and boundary probes, at pinned tolerances.

Each catalog entry runs one fixed check sequence at its default point, the
entries in parallel worker processes; a check against a pinned value runs
on the entries that pin one.  The same checks back the `verify` CLI
subcommand and the acceptance test module; all sampling is seeded, so
repeated runs are bit-identical.
"""

from __future__ import annotations

import os
from itertools import product as iter_product
from math import log, sqrt

import numpy as np

from .algebra import algebra_at
from .catalog import CATALOG, ENTRIES, PULLBACKS, Probe, default_point
from .curvature import (
    christoffel_tensor,
    derived_curvatures,
    riemann,
    riemann_alt,
    riemann_tensor,
)
from .fdcheck import (
    FDReport,
    check_connection,
    check_curvature,
    check_hessian_metric,
    check_lambda_derivative,
    check_primitive_field,
)
from .metric import ConePoint
from .paths import (
    PROBE_CONV_TOL,
    PULLBACK_TOL,
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


def _worst(values) -> float:
    """The largest of the deviations in values, 0.0 if there are none, and
    NaN if any is NaN, so that a check scored on a NaN fails."""
    return float(np.max(np.fromiter(values, float), initial=0.0))


def hessian_deviation(P: ConePoint) -> FDReport:
    """Criterion 1: FD Hessian of -log Vol vs Gram at P and three seeded
    admissible perturbations; the worst report, a NaN one first."""
    reports = [check_hessian_metric(Q) for Q in [P] + admissible_perturbations(P, seed=1)]
    return reports[int(np.argmax([r.max_dev for r in reports]))]


def lambda_rule_deviation(P: ConePoint) -> FDReport:
    """Criterion 2: derivative rule for Lam^k, k in 1..n-1, 20 random tuples
    each; the worst report, a NaN one first."""
    m, n = P.rank_m, P.dim_n
    rng = np.random.default_rng(2)
    reports = [   # k classes, then v, drawn in turn from one stream
        check_lambda_derivative(P, rng.uniform(-1.0, 1.0, (k, m)), rng.uniform(-1.0, 1.0, m))
        for k in range(1, n) for _ in range(20)
    ]
    return reports[int(np.argmax([r.max_dev for r in reports]))]


def torsion_deviation(P: ConePoint) -> float:
    """Criterion 3a: Gamma(z, u) - Gamma(u, z) over basis pairs."""
    gamma = christoffel_tensor(P)
    return float(np.abs(gamma - gamma.transpose(1, 0, 2)).max())


def parallel_kahler_deviation(P: ConePoint) -> float:
    """Criterion 4a: nabla omega = 0 for the tautological field omega |-> omega,
    whose jacobian is the identity: z + Gamma(z, omega) over all basis z."""
    return float(np.abs(np.eye(P.rank_m) + P.omega @ christoffel_tensor(P)).max())


def curvature_agreement_deviation(P: ConePoint) -> float:
    """Criterion 5a: the two closed forms of R over all basis quadruples."""
    return _worst(abs(riemann(P, *q) - riemann_alt(P, *q))
                  for q in iter_product(np.eye(P.rank_m), repeat=4))


def symmetry_deviation(r: np.ndarray) -> float:
    """Criterion 6: max deviation of the rank-4 array r from antisymmetry in
    each pair, pair symmetry and the first Bianchi identity."""
    bianchi = r + np.einsum("jkil->ijkl", r) + np.einsum("kijl->ijkl", r)
    return _worst(np.abs(d).max() for d in (r + np.einsum("jikl->ijkl", r),
                                            r + np.einsum("ijlk->ijkl", r),
                                            r - np.einsum("klij->ijkl", r), bianchi))


def omega_slot_deviation(P: ConePoint, r: np.ndarray) -> float:
    """Criterion 6, metric tensor only (R_alg is -n/4 on planes through
    omega): max entry of r = riemann_tensor(P) with omega in any slot."""
    return _worst(np.abs(np.tensordot(r, P.omega, axes=([a], [0]))).max() for a in range(4))


def sign_relation_deviation(P: ConePoint, r: np.ndarray, ralg: np.ndarray) -> float:
    """Criterion 7: riemann = -R_alg on primitive parts, all quadruples."""
    pi = P.primitive_projector
    ralg_prim = np.einsum("abcd,ai,bj,ck,dl->ijkl", ralg, pi, pi, pi, pi, optimize=True)
    return float(np.abs(r + ralg_prim).max())


def geodesic_deviations(P: ConePoint):
    """Criteria 9a and 9b from one batched integration over t in [0, 1] at
    1000 steps: the radial ray against its closed form e^{t/n} omega, and
    the worst speed drift over ten seeded random initial velocities."""
    n = P.dim_n
    rng = np.random.default_rng(42)
    velocities = [P.omega / n]
    for _ in range(10):
        vr = rng.standard_normal(P.rank_m)
        velocities.append(0.25 * vr / sqrt(P.inner(vr, vr)))
    radial, *rest = integrate_geodesics(P, np.array(velocities), 1.0, 1000)
    closed = np.exp(radial.ts[:, None] / n) * P.omega[None, :]
    return float(np.abs(radial.points - closed).max()), _worst(p.speed_drift for p in rest)


def _random_piecewise_path(form, omega0, rng):
    """Seeded piecewise-linear admissible path: returns its five waypoints,
    shape (5, m), and the length of each of its four segments.

    Each waypoint steps 0.15 |previous| N(0, I) from the one before.  Each
    segment is measured once, by path_length over 64 intervals, which also
    admits it.  Rank-one cones only contain radial (bound-tight) paths, so
    they get 4096 intervals to keep the discretization error below the
    criterion slack.
    """
    pts = [np.asarray(omega0, float)]
    grid = np.linspace(0.0, 1.0, (4096 if form.rank_m == 1 else 64) + 1)
    lengths = []

    def draw():
        step = 0.15 * np.linalg.norm(pts[-1]) * rng.standard_normal(form.rank_m)
        return pts[-1] + step

    def check_segment(cand):
        seg = pts[-1][None, :] + grid[:, None] * (cand - pts[-1])[None, :]
        lengths.append(path_length(form, seg))
        return cand

    while len(pts) < 5:
        pts.append(draw_admissible(draw, check_segment, "waypoint"))
    return np.array(pts), lengths


def length_bound_violation(P: ConePoint) -> float:
    """Criterion 10a: worst violation of the (1/sqrt n) bound of
    length_bound_check over 50 seeded random piecewise-linear paths, each
    measured segment by segment as it is sampled (negative slack means
    satisfied)."""
    form, rng = P.form, np.random.default_rng(5)
    paths = (_random_piecewise_path(form, P.omega, rng) for _ in range(50))
    return _worst(abs(log(form.volume(pts[-1])) - log(form.volume(pts[0]))) / sqrt(form.dim_n)
                  - sum(lengths) for pts, lengths in paths)


def radial_bound(P: ConePoint) -> LengthBound:
    """Criteria 10b and 10c: the length bound along the radial ray
    t |-> e^{t/n} omega, t in [0, 1], over 4096 intervals."""
    ts = np.linspace(0.0, 1.0, 4097)
    return length_bound_check(P.form, np.exp(ts[:, None] / P.dim_n) * P.omega[None, :])


def probe_deviation(P: ConePoint, probe: Probe) -> float:
    """Criterion 11: the pinned boundary probe from P.  A DIVERGENT probe
    scores the growth shortfall of its last five increments, a CONVERGENT
    one its final tail increment; inf when the classification differs."""
    rep = boundary_probe(P.form, np.array(probe.alpha), P.omega, probe.halvings)
    if rep.classification != probe.expect:
        return float("inf")
    if probe.expect == "DIVERGENT":
        return _worst(rep.growth_threshold - rep.increments[-5:])
    return float(rep.increments[-1])


def algebra_identity_deviation(P: ConePoint) -> float:
    """Criterion 12a: x.omega and omega.omega structural identities; row i
    of omega @ structure is e_i.omega."""
    n, omega = P.dim_n, P.omega
    x_omega = omega @ algebra_at(P).structure
    expect = 0.5 * np.outer(P._lam, omega) + 0.5 * (n - 2.0) * np.eye(P.rank_m)
    return _worst(np.abs(d).max() for d in (omega @ x_omega - (n - 1.0) * omega, x_omega - expect))


def derivation_deviation(P: ConePoint, derivations) -> float:
    """Criterion 12d: the worst of D omega = 0, Lam(D x) = 0 for every x and
    g-antisymmetry over the derivations D at P; 0.0 when there are none.  They vanish to
    roundoff of order cond(G) eps: at LOR3 (1, 0.9999, 0), cond G = 4.0e8, this reads 2.4e-6."""
    return _worst(dev for d in derivations
                  for dev in (P.norm(d @ P.omega), np.abs(P._lam @ d).max(),
                              np.linalg.norm(P.gram_inv @ d.T @ P.gram + d)))


# -- assembled suite --------------------------------------------------------


def _entry_checks(name):
    """The check sequence of one catalog entry at its default point: an
    ordered list of {"name", "max_dev", "tol", "pass"} dicts."""
    entry, P = ENTRIES[name], default_point(name)
    checks = []

    def add(check, dev, tol):
        checks.append(FDReport(f"{name}:{check}", dev, tol).as_dict())

    def add_fd(report):   # under its own name, at the tolerance the FD oracle pins
        add(report.name, report.max_dev, report.tol)

    add_fd(hessian_deviation(P))
    add_fd(lambda_rule_deviation(P))
    add("torsion_symmetry", torsion_deviation(P), 0.0)
    add_fd(check_connection(P))
    add("parallel_kahler_class", parallel_kahler_deviation(P), 1e-12)
    add_fd(check_primitive_field(P))
    add("curvature_formula_agreement", curvature_agreement_deviation(P), 1e-10)
    add_fd(check_curvature(P))
    tensor, alg = riemann_tensor(P), algebra_at(P)
    ralg = alg.curvature_tensor()
    riemann_dev = _worst((symmetry_deviation(tensor), omega_slot_deviation(P, tensor)))
    add("riemann_symmetries", riemann_dev, 1e-12)
    add("algebra_curvature_symmetries", symmetry_deviation(ralg), 1e-12)
    add("curvature_sign_relation", sign_relation_deviation(P, tensor, ralg), 1e-10)
    pins = entry.curvature
    if pins is not None:   # Criterion 8
        dc = derived_curvatures(P)
        ricci_devs = [abs(u @ dc.ricci @ u - pins.ricci) for u in np.array(pins.units)]
        radial_devs = [abs(dc.sectional(P.omega, u)) for u in pins.radial]
        add("primitive_sectional", abs(dc.sectional(*pins.plane) - pins.sectional), 1e-8)
        add("primitive_ricci", _worst(ricci_devs), 1e-8)
        add("scalar_curvature", abs(dc.scalar - pins.scalar), 1e-7)
        add("radial_plane_sectional", _worst(radial_devs), 1e-10)
    if P.rank_m == 1:   # Criterion 8: a rank-one cone is a flat ray
        add("flat_curvature", np.abs(tensor).max(), 1e-14)
    radial_dev, drift_dev = geodesic_deviations(P)
    add("radial_geodesic", radial_dev, 1e-8)
    add("geodesic_speed_drift", drift_dev, 1e-8)
    add("length_lower_bound", length_bound_violation(P), 1e-9)
    lb = radial_bound(P)
    add("radial_bound_tightness", abs(lb.length - lb.lower_bound), 1e-8)
    # 0.0 when the radial path strictly violates the sqrt(2/n) variant
    add("sqrt2_bound_violated", 0.0 if lb.length < lb.sqrt2_bound else 1.0, 0.0)
    if entry.probe is not None:   # a matching DIVERGENT probe scores 0.0
        probe = entry.probe
        tol = 0.0 if probe.expect == "DIVERGENT" else PROBE_CONV_TOL
        add(f"boundary_{probe.expect.lower()}", probe_deviation(P, probe), tol)
    add("algebra_product_identities", algebra_identity_deviation(P), 1e-10)
    add("kn_reconstruction", alg.kn_reconstruction_residual(), 1e-10)
    derivations = alg.derivations()
    add("derivation_conclusions", derivation_deviation(P, derivations), 1e-8)
    if entry.derivation_dim is not None:   # Criterion 12c
        add("derivation_dimension", abs(len(derivations) - entry.derivation_dim), 0.0)
    return checks


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_entries(names):
    """_entry_checks over names, in order.  The entries run in forked worker
    processes, one per usable CPU, so that a worker inherits the imported
    package instead of importing it again; with one name or one CPU, or
    without fork, they run in this process.  The pool modules are imported
    on that path only, so importing the CLI does not pay for them."""
    workers = min(len(names), _usable_cpus())
    if workers > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
            try:
                return list(pool.map(_entry_checks, names))
            finally:   # after an error, drop the entries no worker has started
                pool.shutdown(cancel_futures=True)
    return list(map(_entry_checks, names))


def run_verification(names=None):
    """Run the verification suite; returns (checks, all_pass).

    checks is an ordered list of {"name", "max_dev", "tol", "pass"} dicts.
    Each named entry (default: the whole catalog) runs the same sequence at
    its default point, the entries in parallel worker processes; the
    catalog.PULLBACKS cases always run, last.
    """
    if names is None:
        names = list(CATALOG)
    checks = [c for entry_checks in _map_entries(names) for c in entry_checks]
    for case in PULLBACKS:   # Criterion 13
        rep = pullback_isometry_check(
            case.source.form, case.target, case.matrix, case.degree, case.source.omega
        )
        checks.append(FDReport(f"pullback:{case.tag}", rep.max_dev, PULLBACK_TOL).as_dict())
    all_pass = all(c["pass"] for c in checks)
    return checks, all_pass
