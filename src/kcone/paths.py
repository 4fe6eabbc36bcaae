"""Geodesics, path lengths, boundary probes, the splitting isometry and
pullback isometry checks.

The geodesic equation of the cone metric is gamma'' + Gamma(gamma', gamma') = 0
with Gamma from the connection module; radial rays t |-> e^{t/n} omega solve it
exactly.  Path lengths obey

    L(gamma) >= (1/sqrt n) |log Vol(end) - log Vol(start)|,

with equality on radial rays, because d_u log Vol = <u, omega> and
|omega| = sqrt n.  The stricter constant sqrt(2/n) sometimes quoted for this
bound fails on radial rays; length_bound_check reports both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import isfinite, log, sqrt
from typing import NamedTuple, Sequence

import numpy as np

from .errors import IndefiniteMetric, KConeError, LeftCone, NonPositiveVolume
from .intersection import CohClass, IntersectionForm
from .metric import ConePoint, _divisor, admit, lefschetz

__all__ = [
    "GeodesicPath",
    "integrate_geodesic",
    "integrate_geodesics",
    "path_length",
    "LengthBound",
    "length_bound_check",
    "ProbeReport",
    "boundary_probe",
    "split",
    "unsplit",
    "SplitReport",
    "split_report",
    "PullbackReport",
    "admissible_perturbations",
    "pullback_isometry_check",
]


# Rejection samplers give up after this many draws in a row are rejected.
SAMPLER_TRIES = 1000
PROBE_SUBSTEPS = 64    # chords per boundary-probe interval
PROBE_CONV_TOL = 1e-3  # a probe whose final increment is below this is CONVERGENT
PERTURBATIONS = 3      # points admissible_perturbations draws around its centre
PULLBACK_TOL = 1e-10   # the max_dev a pullback isometry check passes under


def _acceleration(data, x: np.ndarray, v: np.ndarray):
    """-Gamma_x(v, v) = Lam(v) v - 1/2 Lam(v cup v) for each row of (x, v),
    from the kernel result `data` at the rows x, where Lam(v cup v) =
    Lam2(v cup v) x - G^-1 Lam3(v cup v cup .) (see ConePoint.lambda_pairs).

    Hot path of the integrator: a stage point gets only the kernel's volume
    check, and for n >= 3 the solve's, which raises only on an exactly zero
    pivot; recorded samples get the full admission.
    """
    n, m = len(data.stages) - 1, v.shape[1]
    vc = v[:, :, None]
    acc = (data.lam[:, None, :] @ vc) * vc - 0.5 * (v[:, None, :] @ data.lam2 @ vc) * x[:, :, None]
    if n >= 3:
        t3vv = (data.stages[3].reshape(-1, m * m, m) @ vc).reshape(-1, m, m) @ vc
        acc += 0.5 * np.linalg.solve(data.gram, t3vv / _divisor(n, 3, data.vol)[:, None, None])
    return acc[:, :, 0]


@dataclass
class GeodesicPath:
    """Discretized geodesic with tangent data and per-step diagnostics."""

    ts: np.ndarray
    points: np.ndarray      # shape (steps+1, m)
    velocities: np.ndarray  # shape (steps+1, m)
    speeds: np.ndarray      # g(gamma', gamma') at each sample
    speed_drift: float      # max |speed - speed at t=0|


def integrate_geodesics(
    P0: ConePoint, V0: np.ndarray, T: float, steps: int
) -> list[GeodesicPath]:
    """Classic fixed-step RK4 on (gamma, gamma') from P0, one geodesic per
    row of the (B, m) initial velocities V0, all advanced together.

    Every recorded sample of every member passes the full cone admission
    checks; the Gram matrix of that check is reused for the next step and
    for the speed.  A stage point gets only the kernel's volume check (for
    n >= 3 also the solve's zero-pivot check; a surface cone makes no
    solve).  A member that fails a check raises LeftCone with the start t
    of the earliest step that failed in the batch, and the message names
    that t and the member.  Whatever the kernel rejects as an input error
    (a non-finite or overflowing point) is a ValueError naming the step.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not isfinite(T):
        raise ValueError(f"T must be finite, got {T!r}")
    V0 = np.asarray(V0, dtype=float)
    if V0.ndim != 2 or V0.shape[1] != P0.rank_m or not len(V0):
        raise ValueError(f"velocities have shape {V0.shape}, expected (B, {P0.rank_m})")
    if not np.all(np.any(V0, axis=1)):
        raise ValueError("initial velocity must be nonzero")
    form = P0.form
    h = float(T) / steps
    x = np.repeat(P0.omega[None, :], len(V0), axis=0)
    v = V0.copy()
    ts = np.linspace(0.0, float(T), steps + 1)
    points = np.empty((steps + 1,) + V0.shape)
    velocities = np.empty_like(points)
    speeds = np.empty((steps + 1, len(V0)))
    # a far-out point overflows the kernel: a ValueError below, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for i, t in enumerate(ts):
            try:
                data = admit(form, x, "geodesic member")
                points[i], velocities[i] = x, v
                speeds[i] = (v[:, None, :] @ data.gram @ v[:, :, None])[:, 0, 0]
                if i == steps:
                    break
                kx, kv = [v], [_acceleration(data, x, v)]
                for c in (0.5, 0.5, 1.0):   # the stage points of classic RK4
                    xs, vs = x + c * h * kx[-1], v + c * h * kv[-1]
                    kx.append(vs)
                    kv.append(_acceleration(lefschetz(form, xs, "geodesic member"), xs, vs))
            except (NonPositiveVolume, IndefiniteMetric, np.linalg.LinAlgError) as exc:
                raise LeftCone(t, f"step from t={float(t)!r} failed: {exc}") from exc
            except ValueError as exc:
                raise ValueError(f"step from t={float(t)!r}: {exc}") from exc
            x = x + (h / 6.0) * (kx[0] + 2.0 * kx[1] + 2.0 * kx[2] + kx[3])
            v = v + (h / 6.0) * (kv[0] + 2.0 * kv[1] + 2.0 * kv[2] + kv[3])
    drift = np.abs(speeds - speeds[0]).max(axis=0)
    return [
        GeodesicPath(ts, points[:, b], velocities[:, b], speeds[:, b], float(drift[b]))
        for b in range(len(V0))
    ]


def integrate_geodesic(
    P0: ConePoint, v0: CohClass, T: float, steps: int
) -> GeodesicPath:
    """integrate_geodesics for the single initial velocity v0."""
    return integrate_geodesics(P0, np.asarray(v0, dtype=float)[None, :], T, steps)[0]


def _polyline(form: IntersectionForm, pts: np.ndarray, what: str):
    """(volumes of the samples pts, sqrt(g_mid(delta, delta)) of each segment),
    g_mid the Gram matrix at the segment midpoint.  Samples and midpoints are
    admitted in one call, interleaved: row 2j is sample j, row 2j + 1 the
    midpoint after it."""
    rows = np.empty((2 * len(pts) - 1, pts.shape[1]))
    rows[0::2], rows[1::2] = pts, 0.5 * (pts[:-1] + pts[1:])
    data = admit(form, rows, what)
    deltas = pts[1:] - pts[:-1]
    sq = np.einsum("bi,bij,bj->b", deltas, data.gram[1::2], deltas)
    return data.vol[0::2], np.sqrt(np.maximum(sq, 0.0))


def path_length(form: IntersectionForm, samples: Sequence[CohClass]) -> float:
    """Trapezoidal length: sum of sqrt(g_mid(delta, delta)) over segments.

    Every sample and every segment midpoint must be admissible.  The sum
    converges to the true length at second order in the sample spacing and
    approaches it from below on smooth curves, so paths that are nearly
    tight against a bound need fine sampling.
    """
    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2 or len(pts) < 2:
        raise ValueError("need at least two samples")
    return float(_polyline(form, pts, "path point")[1].sum())


class LengthBound(NamedTuple):
    length: float
    lower_bound: float       # (1/sqrt n) |delta log Vol|, always satisfied
    sqrt2_bound: float       # (sqrt 2/sqrt n) |delta log Vol|, fails on radial rays
    delta_log_vol: float


def length_bound_check(
    form: IntersectionForm, samples: Sequence[CohClass]
) -> LengthBound:
    """Length of the sampled path against the log-volume lower bound.

    Reports the bound without judging it: verify checks the slack.  A
    length below lower_bound means an inconsistent metric computation, or
    sampling too coarse for a near-tight path.
    """
    length, n = path_length(form, samples), form.dim_n
    dlv = abs(log(form.volume(np.asarray(samples[-1], float)))
              - log(form.volume(np.asarray(samples[0], float))))
    return LengthBound(length=length, lower_bound=dlv / sqrt(n),
                       sqrt2_bound=sqrt(2.0) * dlv / sqrt(n), delta_log_vol=dlv)


@dataclass
class ProbeReport:
    """Lengths accumulated along gamma(t) = alpha + t omega as t decreases."""

    classification: str             # DIVERGENT | CONVERGENT | INCONCLUSIVE
    ts: np.ndarray
    vols: np.ndarray
    cumulative_lengths: np.ndarray  # length from t = 1 down to each t
    increments: np.ndarray          # length of each schedule interval
    growth_threshold: float
    conv_tol: float


def boundary_probe(
    form: IntersectionForm, alpha: CohClass, omega: CohClass, halvings: int
) -> ProbeReport:
    """Probe the path alpha + t omega at t = 2^-j, j = 0..halvings.

    Classification tracks the proved lower-bound mechanism: DIVERGENT when
    the last five increments each reach 0.9 (1/sqrt n) log 2 (the growth a
    vanishing volume forces per halving), CONVERGENT when the final
    increment (the successive tail difference) is below PROBE_CONV_TOL.
    Each interval is measured over PROBE_SUBSTEPS chords.  Fewer than one
    halving, or more than the 1074 after which t underflows to 0, is a
    ValueError.
    """
    if halvings < 1:
        raise ValueError("schedule needs at least two points")
    if halvings > 1074:
        raise ValueError(f"t = 1 halved {halvings} times underflows to 0; lower --halvings")
    ts = np.ldexp(1.0, -np.arange(halvings + 1))
    alpha, omega = form._check_class(alpha), form._check_class(omega)
    # each interval is cut into PROBE_SUBSTEPS chords; neighbours share their end sample
    sub = np.linspace(ts[:-1], ts[1:], PROBE_SUBSTEPS, endpoint=False, axis=1)
    with np.errstate(invalid="ignore"):   # -inf + inf is a nan row the kernel names
        pts = alpha[None, :] + np.append(sub, ts[-1])[:, None] * omega[None, :]
    admit(form, omega[None], "probe point")   # omega itself must be a cone point
    vols, chords = _polyline(form, pts, "probe point")
    vols, increments = vols[::PROBE_SUBSTEPS], chords.reshape(-1, PROBE_SUBSTEPS).sum(axis=1)
    cumulative = np.concatenate([[0.0], np.cumsum(increments)])
    threshold = 0.9 * log(2.0) / sqrt(form.dim_n)
    if len(increments) >= 5 and np.all(increments[-5:] >= threshold):
        classification = "DIVERGENT"
    elif increments[-1] < PROBE_CONV_TOL:
        classification = "CONVERGENT"
    else:
        classification = "INCONCLUSIVE"
    return ProbeReport(
        classification=classification,
        ts=ts,
        vols=vols,
        cumulative_lengths=cumulative,
        increments=increments,
        growth_threshold=threshold,
        conv_tol=PROBE_CONV_TOL,
    )


def split(P: ConePoint):
    """(t, omega_1) with t = log Vol(omega) and Vol(omega_1) = 1."""
    t = log(P.vol)
    omega1 = P.omega / P.vol ** (1.0 / P.dim_n)
    return t, omega1


def unsplit(form: IntersectionForm, t: float, omega1: CohClass) -> CohClass:
    """Inverse of split: e^{t/n} omega_1 for a unit-volume omega_1."""
    omega1 = np.asarray(omega1, dtype=float)
    vol1 = form.volume(omega1)
    if abs(vol1 - 1.0) > 1e-10:
        raise ValueError(f"normalization failure: Vol(omega1) = {vol1!r} != 1")
    return np.exp(float(t) / form.dim_n) * omega1


@dataclass
class SplitReport:
    """Measured block structure of the metric in (t, primitive) coordinates.

    The radial coordinate field pushes forward to omega/n, so the measured
    dt^2 coefficient is 1/n (not 1); the mixed entries vanish because
    primitive directions are g-orthogonal to omega.
    """

    t: float
    omega1: np.ndarray
    dt2_coefficient: float
    expected_dt2: float
    max_mixed_entry: float
    primitive_block: np.ndarray


def split_report(P: ConePoint) -> SplitReport:
    t, omega1 = split(P)
    n = P.dim_n
    radial = P.omega / n
    # primitive directions push forward with the homothety factor e^{t/n}
    scale = float(np.exp(t / n))
    # column i of the projector is the primitive part of e_i; its rank is
    # exactly m - 1, as Lam(omega) = n
    u, _, _ = np.linalg.svd(P.primitive_projector, full_matrices=False)
    basis = u[:, :P.rank_m - 1] * scale
    mixed = radial @ P.gram @ basis
    block = basis.T @ P.gram @ basis
    return SplitReport(
        t=t,
        omega1=omega1,
        dt2_coefficient=P.inner(radial, radial),
        expected_dt2=1.0 / n,
        max_mixed_entry=float(np.abs(mixed).max(initial=0.0)),
        primitive_block=block,
    )


def draw_admissible(draw, check, what: str):
    """check(draw()) for the first draw that check() accepts without
    NonPositiveVolume or IndefiniteMetric; KConeError after SAMPLER_TRIES
    rejected draws."""
    for _ in range(SAMPLER_TRIES):
        try:
            return check(draw())
        except (NonPositiveVolume, IndefiniteMetric):
            continue
    raise KConeError(f"no admissible {what} in {SAMPLER_TRIES} draws")


def admissible_perturbations(P: ConePoint, seed=0):
    """PERTURBATIONS ConePoints at seeded admissible omega + 0.1 |omega| N(0, I)
    around the cone point P."""
    rng = np.random.default_rng(seed)
    spread = 0.1 * np.linalg.norm(P.omega)

    def draw():
        return P.omega + spread * rng.standard_normal(P.rank_m)

    check = partial(ConePoint, P.form)
    return [draw_admissible(draw, check, "point") for _ in range(PERTURBATIONS)]


@dataclass
class PullbackReport:
    max_vol_deviation: float
    max_gram_deviation: float
    points_checked: int

    @property
    def max_dev(self) -> float:
        return float(np.max([self.max_vol_deviation, self.max_gram_deviation]))


def pullback_isometry_check(
    form_y: IntersectionForm,
    form_x: IntersectionForm,
    matrix,
    degree: float,
    base_point: CohClass,
) -> PullbackReport:
    """Check that M embeds the cone of form_y isometrically into form_x's.

    At base_point and three admissible points sampled around it (seed 7)
    this verifies Vol_X(M omega) = degree * Vol_Y(omega) and
    M^T Gram_X M = Gram_Y; both hold because the Lefschetz contractions are
    volume-normalized ratios.
    The source points are admitted once, as ConePoints; the image points
    are admitted as one batch.
    """
    if form_x.dim_n != form_y.dim_n:
        raise ValueError(f"source form has dimension {form_y.dim_n}, target {form_x.dim_n}")
    mat = np.asarray(matrix, dtype=float)
    if mat.shape != (form_x.rank_m, form_y.rank_m):
        raise ValueError(
            f"matrix shape {mat.shape} does not map rank {form_y.rank_m} "
            f"into rank {form_x.rank_m}"
        )
    if not (isfinite(degree) and degree != 0.0):
        raise ValueError(f"degree must be finite and nonzero, got {degree!r}")
    base = ConePoint(form_y, base_point)
    ys = [base] + admissible_perturbations(base, seed=7)
    xs = admit(form_x, np.array([P.omega for P in ys]) @ mat.T, "image point")
    y_vol = np.array([P.vol for P in ys])
    y_gram = np.array([P.gram for P in ys])
    vol_dev = np.abs(xs.vol - degree * y_vol) / np.abs(degree * y_vol)
    pulled = mat.T @ xs.gram @ mat
    gram_dev = np.abs(pulled - y_gram).max(axis=(1, 2)) / np.abs(y_gram).max(axis=(1, 2))
    return PullbackReport(
        max_vol_deviation=float(vol_dev.max()),
        max_gram_deviation=float(gram_dev.max()),
        points_checked=len(ys),
    )
