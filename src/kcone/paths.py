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

from contextlib import suppress
from functools import partial
from math import isfinite, log, sqrt
from typing import NamedTuple, Sequence

import numpy as np

from .errors import IndefiniteMetric, KConeError, LeftCone, NonPositiveVolume
from .intersection import CohClass, IntersectionForm
from .metric import ConePoint, _contract, _finite, admit

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
ADMIT_BLOCK = 2**16    # Gram entries in one batch of recorded geodesic samples admitted
_STEP_ERRORS = (NonPositiveVolume, IndefiniteMetric, ValueError)   # LinAlgError is a ValueError


def _flow(form: IntersectionForm, y: np.ndarray) -> np.ndarray:
    """f(y) = (v, Lam(v) v - 1/2 Lam2(v, v) x + 1/2 G^-1 Lam3(v, v, .)), the geodesic
    equation, at each (x, v) row of the (B, 2, m) state y; no solve for n < 3.  With
    s = kappa(x^n), Lam^k = n!/(n-k)! kappa(x^{n-k} ..) / s, each kappa from the kernel
    _contract, which judges and words x by its volume; the solve adds its zero-pivot check."""
    n, m, B = form.dim_n, form.rank_m, len(y)
    qs = _contract(form, y, "geodesic member")
    g = qs[-1].reshape(B, 2, -1).swapaxes(1, 2)   # kappa(x^(n-2) y_a y_b); row a = x alone if n = 1
    s = g[:, 0, 0]
    r = n / s   # Lam(u) = r kappa(x^(n-1) u)
    # (x, v) weighted by (-1/2 Lam2(v, v), Lam(v)); for n = 1, (0, 1) r kappa(v)
    w = g[:, ::-1, 1] * (r[:, None] * ((1 - n) / 2, 1.0))
    f = np.concatenate((y[:, 1:], w[:, None] @ y), axis=1)
    if n >= 3:   # qs[-2][:, b, a] = kappa(x^(n-3) y_a y_b .)
        lam = r[:, None] * qs[-2][:, 0, 0]
        lam2 = ((n - 1) * r)[:, None, None] * qs[-3][:, 0, 0].reshape(B, m, m)
        half_lam3 = ((n - 1) * (n - 2) // 2 * r)[:, None, None] * qs[-2][:, 1, 1, :, None]
        f[:, 1] += np.linalg.solve(lam[:, :, None] * lam[:, None, :] - lam2, half_lam3)[..., 0]
    return f


def _step_error(t, exc: Exception) -> Exception:
    """exc from the geodesic step from t: LeftCone outside the cone, else ValueError."""
    if isinstance(exc, (NonPositiveVolume, IndefiniteMetric, np.linalg.LinAlgError)):
        return LeftCone(t, f"step from t={float(t)!r} failed: {exc}")
    return ValueError(f"step from t={float(t)!r}: {exc}")


def _admit_samples(form: IntersectionForm, ts, ys, speeds) -> None:
    """Admit the samples x of ys, shape (K, B, 2, m), and write g(v, v) into speeds in one
    batch, else step by step: the first failing step raises (ValueError on an overflowing speed)."""
    xs, vs, m = ys[:, :, 0], ys[:, :, 1, None], ys.shape[-1]
    with suppress(*_STEP_ERRORS):
        grams = admit(form, xs.reshape(-1, m), "geodesic member").gram.reshape(*vs.shape[:2], m, m)
        speeds[:] = (vs @ grams @ vs.swapaxes(2, 3))[..., 0, 0]
        if np.isfinite(speeds).all():
            return
    for t, x, v, row in zip(ts, xs, vs, speeds):
        try:
            row[:] = (v @ admit(form, x, "geodesic member").gram @ v.swapaxes(1, 2))[:, 0, 0]
            b = int(np.argmin(np.isfinite(row)))   # the first member whose speed is not finite
            _finite(row, f"speed of geodesic member {b} at {x[b].tolist()} with velocity", v[b, 0])
        except _STEP_ERRORS as exc:
            raise _step_error(t, exc) from exc


class GeodesicPath(NamedTuple):
    """Discretized geodesic with tangent data and per-step diagnostics."""

    ts: np.ndarray
    points: np.ndarray      # shape (steps+1, m)
    velocities: np.ndarray  # shape (steps+1, m)
    speeds: np.ndarray      # g(gamma', gamma') at each sample
    speed_drift: float      # max |speed - speed at t=0|


def integrate_geodesics(
    P0: ConePoint, V0: np.ndarray, T: float, steps: int
) -> list[GeodesicPath]:
    """Classic fixed-step RK4 on y = (gamma, gamma') from P0, one geodesic per
    row of the (B, m) initial velocities V0, all advanced together.

    Every recorded sample passes the full cone admission checks, in batches of
    about ADMIT_BLOCK Gram entries that also give the speeds; a stage point gets
    only the kernel's volume check.  A member that fails a check raises LeftCone
    with the start t of the earliest failed step, named with the member in the
    message.  What the kernel rejects as an input error (a non-finite or
    overflowing point), and a sample whose speed overflows, is a ValueError
    naming the step.  A non-finite initial velocity is a ValueError up front.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not isfinite(T):
        raise ValueError(f"T must be finite, got {T!r}")
    V0 = np.asarray(V0, dtype=float)
    if V0.ndim != 2 or V0.shape[1] != P0.rank_m or not len(V0):
        raise ValueError(f"velocities have shape {V0.shape}, expected (B, {P0.rank_m})")
    finite = np.isfinite(V0).all(axis=1)
    if not finite.all():
        b = int(np.argmin(finite))
        raise ValueError(f"initial velocity {V0[b].tolist()} of geodesic member {b} "
                         "has non-finite entries")
    if not np.all(np.any(V0, axis=1)):
        raise ValueError("initial velocity must be nonzero")
    form, (B, m) = P0.form, V0.shape
    h = float(T) / steps
    ts = np.linspace(0.0, float(T), steps + 1)
    ys = np.empty((steps + 1, B, 2, m))
    ys[0, :, 0], ys[0, :, 1] = P0.omega, V0
    speeds = np.empty((steps + 1, B))
    block = max(1, ADMIT_BLOCK // (B * m * m))   # steps whose start samples are admitted together
    # a far-out point overflows the kernel: a ValueError below, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, steps, block):
            stop = min(start + block, steps)
            for i in range(start, stop):
                try:
                    ks = [_flow(form, ys[i])]
                    for c in (0.5, 0.5, 1.0):   # the stage points of classic RK4
                        ks.append(_flow(form, ys[i] + c * h * ks[-1]))
                except _STEP_ERRORS as exc:   # a failing sample up to step i has the earlier t
                    _admit_samples(form, ts[start:i + 1], ys[start:i + 1], speeds[start:i + 1])
                    raise _step_error(ts[i], exc) from exc
                ys[i + 1] = ys[i] + (h / 6.0) * (ks[0] + 2.0 * ks[1] + 2.0 * ks[2] + ks[3])
            end = stop + 1 if stop == steps else stop   # the last block also takes the end sample
            _admit_samples(form, ts[start:end], ys[start:end], speeds[start:end])
    drift = np.abs(speeds - speeds[0]).max(axis=0)
    return [GeodesicPath(ts, ys[:, b, 0], ys[:, b, 1], speeds[:, b], float(drift[b]))
            for b in range(B)]


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
    rows[0::2], rows[1::2] = pts, 0.5 * pts[:-1] + 0.5 * pts[1:]   # the sum may overflow
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
    dlv = abs(log(form.volume(samples[-1])) - log(form.volume(samples[0])))
    return LengthBound(length=length, lower_bound=dlv / sqrt(n),
                       sqrt2_bound=sqrt(2.0) * dlv / sqrt(n), delta_log_vol=dlv)


class ProbeReport(NamedTuple):
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
    with np.errstate(over="ignore", invalid="ignore"):   # the kernel names an inf or nan row
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
    omega1, t = np.asarray(omega1, dtype=float), float(t)
    vol1 = form.volume(omega1)
    if not (np.isfinite(t) and abs(vol1 - 1.0) <= 1e-10):   # a NaN volume fails too
        raise ValueError(f"normalization needs a finite t and Vol(omega1) = 1, got {t!r}, {vol1!r}")
    with np.errstate(over="ignore"):
        scale = np.exp(t / form.dim_n)
        if scale < np.finfo(float).tiny:   # subnormal or zero: no cone point
            raise ValueError(f"e^(t/n) at t = {t!r} underflows double precision")
        return _finite(scale * omega1, "e^(t/n) omega1 at t =", np.float64(t))


class SplitReport(NamedTuple):
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


class PullbackReport(NamedTuple):
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
