import numpy as np
import pytest

from kcone import paths
from kcone.catalog import CATALOG, ENTRIES, catalog_names, default_omega, default_point
from kcone.errors import KConeError, LeftCone, NonPositiveVolume
from kcone.intersection import IntersectionForm
from kcone.metric import ConePoint, admit, lefschetz
from kcone.paths import (
    admissible_perturbations,
    boundary_probe,
    integrate_geodesic,
    integrate_geodesics,
    length_bound_check,
    path_length,
    pullback_isometry_check,
    split,
    split_report,
    unsplit,
)
from kcone.verify import _random_piecewise_path


def test_radial_geodesic_matches_closed_form():
    for name in ("QUINTIC", "LOR3"):
        P = default_point(name)
        n = P.dim_n
        path = integrate_geodesic(P, P.omega / n, 1.0, 1000)
        closed = np.exp(path.ts[:, None] / n) * P.omega[None, :]
        assert np.abs(path.points - closed).max() <= 1e-8
        assert path.speed_drift <= 1e-8


def test_radial_curve_solves_geodesic_equation_pointwise():
    # gamma(t) = e^{t/n} omega has gamma'' = gamma/n^2 = -Gamma(gamma', gamma')
    from kcone.curvature import christoffel
    from kcone.metric import ConePoint

    P = default_point("CY3GEN")
    n = P.dim_n
    for t in (0.0, 0.3, 0.9):
        x = np.exp(t / n) * P.omega
        v = x / n
        Pt = ConePoint(P.form, x)
        residual = x / n**2 + christoffel(Pt, v, v)
        assert np.abs(residual).max() <= 1e-8


def test_geodesic_speed_conservation_random():
    P = default_point("BLP2")
    rng = np.random.default_rng(9)
    for _ in range(3):
        vr = rng.standard_normal(2)
        v0 = 0.25 * vr / np.sqrt(P.inner(vr, vr))
        path = integrate_geodesic(P, v0, 1.0, 1000)
        assert path.speed_drift <= 1e-8


def test_geodesic_rejects_zero_velocity():
    P = default_point("P1XP1")
    with pytest.raises(ValueError, match="nonzero"):
        integrate_geodesic(P, np.zeros(2), 1.0, 10)
    with pytest.raises(ValueError, match="steps"):
        integrate_geodesic(P, np.array([1.0, 0.0]), 1.0, 0)


def test_geodesic_left_cone():
    # aimed at the wall where the Gram matrix degenerates
    P = default_point("CY3GEN")
    with pytest.raises(LeftCone) as err:
        integrate_geodesic(P, np.array([0.0, -2.0]), 1.0, 400)
    assert 0.0 < err.value.t <= 1.0


@pytest.mark.parametrize("name", catalog_names())
def test_integrate_geodesics_matches_single_calls(name):
    P = default_point(name)
    rng = np.random.default_rng(3)
    V0 = [P.omega / P.dim_n]
    for _ in range(3):
        vr = rng.standard_normal(P.rank_m)
        V0.append(0.25 * vr / np.sqrt(P.inner(vr, vr)))
    V0 = np.array(V0)
    batch = integrate_geodesics(P, V0, 1.0, 200)
    assert len(batch) == len(V0)
    for v0, path in zip(V0, batch):
        single = integrate_geodesic(P, v0, 1.0, 200)
        assert np.array_equal(path.ts, single.ts)
        assert np.abs(path.points - single.points).max() <= 1e-14
        assert np.abs(path.velocities - single.velocities).max() <= 1e-14
        assert np.abs(path.speeds - single.speeds).max() <= 1e-14
        assert abs(path.speed_drift - single.speed_drift) <= 1e-14


def test_integrate_geodesics_mixed_batch_left_cone():
    # member 0 runs into the wall where the Gram matrix degenerates
    P = default_point("CY3GEN")
    V0 = np.array([[0.0, -2.0], [0.1, 0.05]])
    with pytest.raises(LeftCone, match="member 0") as err:
        integrate_geodesics(P, V0, 1.0, 400)
    assert 0.0 < err.value.t <= 1.0


def test_failed_stage_raises_left_cone_at_step_start():
    # the first RK4 stage point 1 - 10/2 of P3 has negative volume
    with pytest.raises(LeftCone, match="step from t=0.0 failed: geodesic member 0") as err:
        integrate_geodesic(default_point("P3"), np.array([-10.0]), 1.0, 1)
    assert err.value.t == 0.0


@pytest.mark.parametrize("T", [np.inf, np.nan])
def test_geodesic_rejects_non_finite_T(T):
    with pytest.raises(ValueError, match="T must be finite"):
        integrate_geodesic(default_point("P1XP1"), np.array([1.0, 0.0]), T, 10)


def test_geodesic_failures_need_no_second_volume(monkeypatch):
    # the kernel alone tells an overflow from a point outside the cone
    def no_volume(self, omega):
        raise AssertionError("IntersectionForm.volume called")

    P3, cy3gen = default_point("P3"), default_point("CY3GEN")
    monkeypatch.setattr(IntersectionForm, "volume", no_volume)
    # the radial ray of P3 stays in the cone until its volume overflows near t = 710
    with pytest.raises(ValueError, match="overflows double precision"):
        integrate_geodesic(P3, np.array([1.0 / 3.0]), 800.0, 400)
    with pytest.raises(LeftCone) as err:
        integrate_geodesic(cy3gen, np.array([0.0, -2.0]), 1.0, 400)
    assert err.value.t == 0.645


def test_acceleration_matches_the_single_solve_route(acceleration_by_solve, hyperbolic_point):
    # G x = Lam at every row x, so only the Lam3 term needs the solve; the flow
    # on the stacked state (x, v) is (v, that acceleration) for every n >= 1
    points = [default_point(name) for name in catalog_names()]
    points += [hyperbolic_point(3, m) for m in (6, 12)]
    points += [hyperbolic_point(1, 1), hyperbolic_point(4, 5), hyperbolic_point(5, 3)]
    rng = np.random.default_rng(11)
    for P in points:
        X = P.omega + 1e-2 * rng.standard_normal((5, P.rank_m))
        V = rng.standard_normal((5, P.rank_m))
        ref = acceleration_by_solve(lefschetz(P.form, X), V)
        f = paths._flow(P.form, np.stack((X, V), axis=1))
        assert np.array_equal(f[:, 0], V), P
        assert np.all(np.abs(f[:, 1] - ref).max(axis=1) <= 1e-13 * np.abs(ref).max(axis=1)), P


@pytest.mark.parametrize("name, row, error, words", [
    pytest.param("CY3GEN", [-1.0, 3.0], NonPositiveVolume, "is not positive", id="non_positive"),
    pytest.param("P1XP1", [np.inf, 1.0], ValueError, "has non-finite entries", id="non_finite"),
    pytest.param("P1XP1", [1e200, 1e200], ValueError, "overflows double precision", id="overflow"),
    # Vol = (x^2 - y^2)/2 overflows to -inf, a non-positive volume, not an overflow
    pytest.param("BLP2", [1.0, 1e200], NonPositiveVolume, "volume -inf is not positive",
                 id="minus_inf"),
    pytest.param("P1XP1", [1e-200, 1e-200], ValueError, "underflows double precision",
                 id="underflow"),
])
def test_flow_failure_is_worded_by_the_kernel(name, row, error, words):
    # a stage point the kernel rejects raises what lefschetz raises for it
    P = default_point(name)
    X = np.array([P.omega, row])
    y = np.stack((X, np.ones_like(X)), axis=1)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(error) as err:
        lefschetz(P.form, X, "geodesic member")
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(error) as flow_err:
        paths._flow(P.form, y)
    assert type(flow_err.value) is type(err.value)
    assert str(flow_err.value) == str(err.value)
    assert "geodesic member 1 at" in str(err.value) and words in str(err.value)


def _block_admissions(monkeypatch, steps_per_block, B, m):
    """Shrink the admission batches to steps_per_block steps of B members of
    rank m; returns the row counts of every later admit call in paths."""
    monkeypatch.setattr(paths, "ADMIT_BLOCK", steps_per_block * B * m * m)
    rows = []

    def counting_admit(form, X, what="point"):
        rows.append(len(X))
        return admit(form, X, what)

    monkeypatch.setattr(paths, "admit", counting_admit)
    return rows


def test_block_admission_keeps_the_failing_t(monkeypatch):
    # CY3GEN (0, -2) leaves the cone at the sample from t = 0.645 (step 258),
    # in the 37th block of 7 steps; the blocks before it pass
    rows = _block_admissions(monkeypatch, 7, 1, 2)
    P = default_point("CY3GEN")
    failure = "step from t=0.645 failed: Gram matrix of geodesic member 0 "
    with pytest.raises(LeftCone, match=failure) as err:
        integrate_geodesic(P, np.array([0.0, -2.0]), 1.0, 400)
    assert err.value.t == 0.645
    assert rows[:36] == [7] * 36 and rows[36] == 7   # the failing block
    assert rows[37:] == [1] * (258 % 7 + 1)            # then its steps one at a time


def test_block_admission_names_the_member_that_fails_first(monkeypatch):
    _block_admissions(monkeypatch, 5, 2, 2)
    P = default_point("CY3GEN")
    V0 = np.array([[0.1, 0.05], [0.0, -2.0]])
    failure = "step from t=0.645 failed: Gram matrix of geodesic member 1 "
    with pytest.raises(LeftCone, match=failure) as err:
        integrate_geodesics(P, V0, 1.0, 400)
    assert err.value.t == 0.645


def test_stage_failure_reports_an_earlier_inadmissible_sample(monkeypatch):
    # CY3GEN (1, -3): with the recorded samples left unchecked a stage point of
    # the step from t = 0.2525 has no positive volume; the sample from
    # t = 0.245 before it is already outside the cone, and its t is reported
    P, v0 = default_point("CY3GEN"), np.array([1.0, -3.0])
    with monkeypatch.context() as patch:
        patch.setattr(paths, "_admit_samples", lambda *args: None)
        stage_failure = "step from t=0.2525 failed: geodesic member 0 at "
        with pytest.raises(LeftCone, match=stage_failure) as err:
            integrate_geodesic(P, v0, 1.0, 400)
    assert isinstance(err.value.__cause__, NonPositiveVolume)
    failure = "step from t=0.245 failed: Gram matrix of geodesic member 0 "
    with pytest.raises(LeftCone, match=failure) as err:
        integrate_geodesic(P, v0, 1.0, 400)
    assert err.value.t == 0.245


@pytest.mark.parametrize("steps_per_block", [3, 1000])
def test_speeds_are_those_of_the_admitted_samples(monkeypatch, steps_per_block):
    P = default_point("LOR3")
    V0 = np.array([P.omega / 2, [0.1, -0.2, 0.05]])
    rows = _block_admissions(monkeypatch, steps_per_block, len(V0), P.rank_m)
    batch = integrate_geodesics(P, V0, 1.0, 20)
    assert sum(rows) == 21 * len(V0) and len(rows) == -(-21 // steps_per_block)
    for path in batch:
        grams = admit(P.form, path.points, "geodesic member").gram
        speeds = np.einsum("ti,tij,tj->t", path.velocities, grams, path.velocities)
        assert np.abs(path.speeds - speeds).max() <= 1e-15 * np.abs(speeds).max()


@pytest.mark.parametrize("name", ["P1XP1", "BLP2", "LOR3"])
def test_surface_cone_geodesic_makes_no_solve(monkeypatch, name):
    # n = 2 has no Lam3 term, so no RK4 stage solves
    def no_solve(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    P = default_point(name)
    V0 = np.array([P.omega / P.dim_n, np.eye(P.rank_m)[-1] - P.omega / P.dim_n])
    monkeypatch.setattr(np.linalg, "solve", no_solve)
    for path in integrate_geodesics(P, V0, 0.5, 50):
        assert path.speed_drift <= 1e-10


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_geodesic_rejects_non_finite_velocity(bad):
    # named by the velocity up front, not by the finite point whose speed fails
    P = default_point("P1XP1")
    with pytest.raises(ValueError, match=r"^initial velocity \[.*\] of geodesic member 0 has non-"):
        integrate_geodesic(P, [bad, 0.0], 1.0, 10)
    with pytest.raises(ValueError, match=r"velocity \[1.0, .*\] of geodesic member 1 has non-"):
        integrate_geodesics(P, np.array([[1.0, 0.0], [1.0, bad]]), 1.0, 10)


def test_integrate_geodesics_rejects_bad_batches():
    P = default_point("P1XP1")
    with pytest.raises(ValueError, match="nonzero"):
        integrate_geodesics(P, np.array([[1.0, 0.0], [0.0, 0.0]]), 1.0, 10)
    for V0 in (np.ones(2), np.ones((1, 3)), np.empty((0, 2))):
        with pytest.raises(ValueError, match="shape"):
            integrate_geodesics(P, V0, 1.0, 10)


def test_path_length_flat_log_metric():
    # on the product of lines g = diag(1/x^2, 1/y^2); the straight segment
    # (1,1) -> (2,2) has length sqrt(2) log 2
    form = CATALOG["P1XP1"]
    ts = np.linspace(0.0, 1.0, 1025)
    pts = (1.0 + ts)[:, None] * np.ones(2)[None, :]
    assert path_length(form, pts) == pytest.approx(np.sqrt(2.0) * np.log(2.0), abs=1e-6)


def test_path_length_list_and_array_agree():
    form = CATALOG["CY3GEN"]
    ts = np.linspace(0.0, 1.0, 33)
    pts = np.array([1.0, 1.0]) + ts[:, None] * np.array([0.5, -0.3])
    assert path_length(form, list(pts)) == path_length(form, pts)


def test_random_piecewise_path_is_linear_between_waypoints():
    # each segment length is path_length of the straight segment between
    # consecutive waypoints over 64 intervals (4096 on a rank-one cone)
    for name, subdiv in (("CY3GEN", 64), ("QUINTIC", 4096)):
        form, omega = CATALOG[name], default_omega(name)
        pts, lengths = _random_piecewise_path(form, omega, np.random.default_rng(5))
        assert pts.shape == (5, form.rank_m) and np.array_equal(pts[0], omega)
        grid = np.linspace(0.0, 1.0, subdiv + 1)
        for a, b, length in zip(pts[:-1], pts[1:], lengths, strict=True):
            assert path_length(form, a[None, :] + grid[:, None] * (b - a)[None, :]) == length


def test_random_path_segment_lengths_sum_to_path_length():
    form = CATALOG["CY3GEN"]
    pts, lengths = _random_piecewise_path(form, default_omega("CY3GEN"), np.random.default_rng(5))
    t = np.linspace(0.0, 1.0, 64, endpoint=False)
    fine = pts[:-1, None, :] + t[None, :, None] * (pts[1:] - pts[:-1])[:, None, :]
    path = np.concatenate([fine.reshape(-1, 2), pts[-1:]])
    assert len(lengths) == 4
    assert sum(lengths) == pytest.approx(path_length(form, path), rel=1e-14)


def test_samplers_give_up_after_bounded_draws(monkeypatch):
    monkeypatch.setattr(paths, "SAMPLER_TRIES", 0)
    form = CATALOG["P1XP1"]
    omega = default_omega("P1XP1")
    with pytest.raises(KConeError, match="0 draws"):
        admissible_perturbations(ConePoint(form, omega), 1)
    with pytest.raises(KConeError, match="0 draws"):
        pullback_isometry_check(form, form, np.eye(2), 1.0, omega)
    with pytest.raises(KConeError, match="0 draws"):
        _random_piecewise_path(form, omega, np.random.default_rng(5))


def test_path_length_rejects_inadmissible_sample():
    # samples and midpoints are one batch: the midpoint (1, 0), of volume 0,
    # is row 1, before the sample (1, -1)
    form = CATALOG["P1XP1"]
    with pytest.raises(NonPositiveVolume, match=r"path point 1 at \[1\.0, 0\.0\]"):
        path_length(form, [np.array([1.0, 1.0]), np.array([1.0, -1.0])])
    with pytest.raises(ValueError, match="two samples"):
        path_length(form, [np.array([1.0, 1.0])])


def test_length_bound_radial_tight_and_sqrt2_violated():
    for name in catalog_names():
        P = default_point(name)
        n = P.dim_n
        ts = np.linspace(0.0, 1.0, 4097)
        pts = np.exp(ts[:, None] / n) * P.omega[None, :]
        lb = length_bound_check(P.form, pts)
        assert lb.delta_log_vol == pytest.approx(1.0, rel=1e-10)
        assert abs(lb.length - lb.lower_bound) <= 1e-8
        # the sqrt(2/n) constant is not a valid bound: radial rays beat it
        assert lb.length < lb.sqrt2_bound


def test_length_bound_guard_trips_on_coarse_tight_path():
    # with 64 samples the discrete length of the tight radial path falls
    # below lower_bound - 1e-9; the check reports it and verify judges it
    P = default_point("QUINTIC")
    ts = np.linspace(0.0, 1.0, 65)
    pts = np.exp(ts[:, None] / P.dim_n) * P.omega[None, :]
    lb = length_bound_check(P.form, pts)
    assert lb.length < lb.lower_bound - 1e-9


def test_length_bound_constant_path():
    P = default_point("BLP2")
    pts = np.repeat(P.omega[None, :], 3, axis=0)
    lb = length_bound_check(P.form, pts)
    assert lb.length == 0.0 and lb.delta_log_vol == 0.0


def test_boundary_probe_divergent():
    form = CATALOG["P1XP1"]
    rep = boundary_probe(form, np.array([1.0, 0.0]), np.array([1.0, 1.0]), 10)
    assert rep.classification == "DIVERGENT"
    # volume of (1+t, t) is t(1+t)
    expected = rep.ts * (1.0 + rep.ts)
    assert np.abs(rep.vols - expected).max() <= 1e-12
    assert np.all(rep.increments[-5:] >= rep.growth_threshold)


def test_boundary_probe_convergent():
    form = CATALOG["BLP2"]
    rep = boundary_probe(form, np.array([1.0, 0.0]), np.array([2.0, -1.0]), 14)
    assert rep.classification == "CONVERGENT"
    assert rep.increments[-1] < 1e-3
    # the boundary class keeps positive volume
    assert rep.vols[-1] == pytest.approx(0.5, abs=1e-3)


def test_boundary_probe_interior_trivial():
    form = CATALOG["P1XP1"]
    omega = np.array([1.0, 1.0])
    rep = boundary_probe(form, omega, omega, 11)
    assert rep.classification == "CONVERGENT"


def _probe_by_interval(form, alpha, omega, ts, substeps=64):
    """Reference for boundary_probe: volumes by form.volume and one
    path_length per schedule interval."""
    vols = np.array([form.volume(alpha + t * omega) for t in ts])
    increments = np.array([
        path_length(form, alpha + np.linspace(hi, lo, substeps + 1)[:, None] * omega)
        for hi, lo in zip(ts[:-1], ts[1:])
    ])
    return vols, increments


def test_boundary_probe_matches_per_interval_lengths(monkeypatch):
    calls = []

    def counting_admit(form, X, what):
        calls.append(what)
        return admit(form, X, what)

    monkeypatch.setattr(paths, "admit", counting_admit)
    for name in ("P1XP1", "BLP2"):
        probe, P = ENTRIES[name].probe, default_point(name)
        alpha = np.array(probe.alpha)
        for halvings in (1, probe.halvings):
            calls.clear()
            rep = boundary_probe(P.form, alpha, P.omega, halvings)
            assert calls == ["probe point", "probe point"]   # omega, then the whole path
            vols, increments = _probe_by_interval(P.form, alpha, P.omega, rep.ts)
            assert np.abs(rep.vols - vols).max() <= 1e-14 * vols.max()
            assert np.abs(rep.increments - increments).max() <= 1e-14 * increments.max()
            assert np.array_equal(rep.cumulative_lengths[1:], np.cumsum(rep.increments))


def test_boundary_probe_validates_omega():
    # the path (2 + t, 2 - t/2) stays in the cone, but omega = (1, -1/2) is not in it
    form = CATALOG["P1XP1"]
    alpha = np.array([2.0, 2.0])
    with pytest.raises(NonPositiveVolume, match="point 0"):
        boundary_probe(form, alpha, np.array([1.0, -0.5]), 1)
    with pytest.raises(ValueError, match="non-finite"):
        boundary_probe(form, alpha, np.array([np.inf, 1.0]), 1)
    with pytest.raises(ValueError, match="shape"):
        boundary_probe(form, alpha, np.ones(3), 1)


def _halving_schedule(t_max, halvings, t_min):
    """The schedule the CLI built from --t-max and --t-min."""
    schedule, t = [], t_max
    for _ in range(halvings + 1):
        if t < t_min:
            break
        schedule.append(t)
        t /= 2.0
    return schedule


@pytest.mark.parametrize(
    "t_max, halvings, t_min",
    [(1.0, 10, 0.0), (1.0, 14, 0.0), (3.0, 4, 0.0), (1.0, 12, 1e-3), (3.0, 4, 0.2),
     (0.7, 1, 0.0), (1e-3, 6, 0.0), (2.0, 1000, 2.0**-12)],
)
def test_boundary_probe_builds_halving_schedule(t_max, halvings, t_min):
    # the old points alpha + t_max 2^-j omega are alpha + 2^-j (t_max omega), and
    # stopping before t_min is a smaller halvings
    form, alpha, omega = CATALOG["P1XP1"], np.array([1.0, 0.0]), np.array([1.0, 1.0])
    expected = _halving_schedule(t_max, halvings, t_min)
    rep = boundary_probe(form, alpha, t_max * omega, len(expected) - 1)
    assert rep.ts.tolist() == [2.0**-j for j in range(len(expected))]
    assert (t_max * rep.ts).tolist() == expected
    vols = [form.volume(alpha + t * omega) for t in expected]
    assert rep.vols == pytest.approx(vols, rel=1e-14)


def test_boundary_probe_bad_schedule():
    form, alpha, omega = CATALOG["P1XP1"], np.array([1.0, 0.0]), np.ones(2)
    # 2^-1075 rounds to 0; 2^-1074 is the smallest subnormal
    for halvings in (1075, 2000, 10**18):
        with pytest.raises(ValueError, match=f"halved {halvings} times underflows to 0"):
            boundary_probe(form, alpha, omega, halvings)
    for halvings in (0, -3):
        with pytest.raises(ValueError, match="at least two points"):
            boundary_probe(form, alpha, omega, halvings)


def test_split_quintic_example():
    P = default_point("QUINTIC")
    t, omega1 = split(P)
    assert t == pytest.approx(np.log(5.0 / 6.0), rel=1e-12)
    assert omega1[0] == pytest.approx((6.0 / 5.0) ** (1.0 / 3.0), rel=1e-12)
    assert P.form.volume(omega1) == pytest.approx(1.0, abs=1e-12)


def test_split_roundtrip():
    for name in catalog_names():
        P = default_point(name)
        t, omega1 = split(P)
        assert np.abs(unsplit(P.form, t, omega1) - P.omega).max() <= 1e-12


def test_unsplit_rejects_unnormalized():
    form = CATALOG["QUINTIC"]
    with pytest.raises(ValueError, match="normalization"):
        unsplit(form, 0.0, np.array([2.0]))


def test_unsplit_rejects_a_non_finite_t():
    form = CATALOG["P1XP1"]
    with pytest.raises(ValueError, match=r"got nan, 1.0$"):
        unsplit(form, float("nan"), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match=r"got inf, 1.0$"):
        unsplit(form, float("inf"), np.array([1.0, 1.0]))


def test_unsplit_rejects_a_nan_volume():
    # abs(nan - 1) > 1e-10 is false: a NaN volume must fail the check, not pass it
    with pytest.raises(ValueError, match=r"got 0.0, nan$"):
        unsplit(CATALOG["P1XP1"], 0.0, np.array([np.nan, 1.0]))


def test_split_report_block_structure():
    for name in catalog_names():
        rep = split_report(default_point(name))
        n = CATALOG[name].dim_n
        assert abs(rep.dt2_coefficient - 1.0 / n) <= 1e-8
        assert rep.max_mixed_entry <= 1e-10


def test_pullback_isometry_identity():
    form = CATALOG["P1XP1"]
    rep = pullback_isometry_check(form, form, np.eye(2), 1.0, default_omega("P1XP1"))
    assert max(rep.max_vol_deviation, rep.max_gram_deviation) <= 1e-10


def test_pullback_isometry_degree_two():
    quintic = CATALOG["QUINTIC"]
    doubled = IntersectionForm(
        name="Q2", dim_n=3, rank_m=1, coeffs={(1, 1, 1): 10.0}
    )
    rep = pullback_isometry_check(quintic, doubled, np.eye(1), 2.0, np.ones(1))
    assert max(rep.max_vol_deviation, rep.max_gram_deviation) <= 1e-10


def test_pullback_isometry_basis_swap():
    form = CATALOG["P1XP1"]
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    rep = pullback_isometry_check(form, form, swap, 1.0, default_omega("P1XP1"))
    assert max(rep.max_vol_deviation, rep.max_gram_deviation) <= 1e-10


def test_pullback_admits_each_point_once(monkeypatch):
    admits, points = [], []

    def counting_admit(form, X, what):
        admits.append(what)
        return admit(form, X, what)

    def counting_point(form, omega):
        points.append(np.array(omega, dtype=float))
        return ConePoint(form, omega)

    monkeypatch.setattr(paths, "admit", counting_admit)
    monkeypatch.setattr(paths, "ConePoint", counting_point)
    form = CATALOG["P1XP1"]
    rep = pullback_isometry_check(form, form, np.eye(2), 1.0, default_omega("P1XP1"))
    # the source points are the ConePoints already built; only the images are batched
    assert admits == ["image point"]
    assert np.array_equal(points[0], default_omega("P1XP1"))
    assert rep.points_checked == 4
    points.clear()
    P = default_point("CY3GEN")
    others = admissible_perturbations(P, seed=1)
    # one ConePoint per draw, none for the already admitted centre
    assert len(points) >= 3 and not any(np.array_equal(x, P.omega) for x in points)
    assert [Q.omega.tolist() for Q in others] == [x.tolist() for x in points[-3:]]


def test_pullback_isometry_shape_mismatch():
    form = CATALOG["P1XP1"]
    with pytest.raises(ValueError, match="matrix shape"):
        pullback_isometry_check(form, form, np.eye(3), 1.0, default_omega("P1XP1"))


def test_pullback_rejects_inadmissible_base():
    form = CATALOG["P1XP1"]
    with pytest.raises(NonPositiveVolume):
        pullback_isometry_check(form, form, np.eye(2), 1.0, np.array([1.0, -1.0]))


@pytest.mark.parametrize("degree", [0.0, float("inf"), float("nan")])
def test_pullback_rejects_bad_degree(degree):
    form = CATALOG["P1XP1"]
    with pytest.raises(ValueError, match="degree"):
        pullback_isometry_check(form, form, np.eye(2), degree, default_omega("P1XP1"))


def test_pullback_rejects_dimension_mismatch():
    # P1XP1 (n = 2) into P3 (n = 3): the matrix shape fits, the forms do not
    with pytest.raises(ValueError, match="dimension 2, target 3"):
        pullback_isometry_check(
            CATALOG["P1XP1"], CATALOG["P3"], np.array([[1.0, 0.0]]), 1.0, default_omega("P1XP1")
        )


_NAN = np.array([np.nan, 1.0])


@pytest.mark.parametrize(
    "call",
    [
        lambda: ConePoint(CATALOG["P1XP1"], _NAN),
        lambda: path_length(CATALOG["P1XP1"], [[1.0, 1.0], _NAN]),
        lambda: path_length(CATALOG["P1XP1"], [[1.0, 1.0], [np.inf, 1.0]]),
        lambda: boundary_probe(CATALOG["P1XP1"], _NAN, np.ones(2), 1),
        lambda: boundary_probe(CATALOG["P1XP1"], -np.ones(2) * np.inf, np.ones(2) * np.inf, 1),
        lambda: pullback_isometry_check(
            CATALOG["P1XP1"], CATALOG["P1XP1"], np.array([[np.nan, 0.0], [0.0, 1.0]]), 1.0,
            default_omega("P1XP1"),
        ),
        lambda: integrate_geodesic(default_point("P1XP1"), np.array([np.inf, 0.0]), 1.0, 10),
    ],
    ids=["cone-point", "path-length-nan", "path-length-inf", "probe-alpha", "probe-inf-minus-inf",
         "pullback-matrix", "geodesic-velocity"],
)
def test_kernel_reports_non_finite_points(call):
    # a ValueError, neither NonPositiveVolume nor LeftCone
    with pytest.raises(ValueError, match="non-finite"):
        call()
