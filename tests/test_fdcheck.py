import itertools

import numpy as np
import pytest

from kcone import fdcheck
from kcone.catalog import CATALOG, catalog_names, default_point
from kcone.curvature import christoffel, christoffel_tensor, riemann_tensor
from kcone.errors import NonPositiveVolume
from kcone.fdcheck import (
    _central_difference,
    check_connection,
    check_curvature,
    check_hessian_metric,
    check_lambda_derivative,
    check_primitive_field,
    fd_directional,
    fd_hessian,
)
from kcone.metric import ConePoint


def test_fd_linear_function_exact_to_roundoff():
    f = lambda w: 3.0 * w[0] - 2.0 * w[1]
    d = fd_directional(f, np.array([1.0, 1.0]), np.array([0.5, 1.0]))
    assert d == pytest.approx(-0.5, abs=1e-10)


def test_fd_volume_derivative_is_lambda_times_vol():
    # d_z Vol = Lam(z) Vol (the sign and normalization the oracle pins down)
    for name in ("P1XP1", "QUINTIC", "LOR3"):
        P = default_point(name)
        rng = np.random.default_rng(0)
        z = rng.uniform(-1.0, 1.0, P.rank_m)
        fd = fd_directional(P.form.volume, P.omega, z)
        assert fd == pytest.approx(P.lambda_scalar([z]) * P.vol, rel=1e-7)


def test_fd_log_volume_radial_derivative_is_n():
    for name in ("P3", "CY3GEN"):
        P = default_point(name)
        fd = fd_directional(lambda w: np.log(P.form.volume(w)), P.omega, P.omega)
        assert fd == pytest.approx(P.dim_n, rel=1e-9)


def test_richardson_order_two_witness():
    # plain central differences converge at second order: halving the step
    # cuts the error by a factor of about four
    P = default_point("QUINTIC")
    z = np.ones(1)
    analytic = P.lambda_scalar([z]) * P.vol
    e = []
    for h in (1e-2, 5e-3):
        e.append(abs(_central_difference(P.form.volume, P.omega, z, h) - analytic))
    ratio = e[0] / e[1]
    assert 3.5 <= ratio <= 4.5


def test_fd_hessian_matches_gram_and_is_scale_invariant():
    form = CATALOG["QUINTIC"]
    for omega in (np.array([1.0]), np.array([2.0])):
        P = ConePoint(form, omega)
        hess = fd_hessian(lambda w: -np.log(form.volume(w)), omega)
        dev = np.abs(hess - P.gram).max() / np.abs(P.gram).max()
        assert dev <= 1e-6
    assert check_hessian_metric(default_point("LOR3")).max_dev <= 1e-6


def test_fd_jacobian_matches_analytic(projector_derivative):
    # the primitive fields omega |-> Pi(omega) e_i, differentiated whole
    P = default_point("CY3GEN")
    fd = np.array([
        fd_directional(lambda w: ConePoint(P.form, w).primitive_projector, P.omega, e)
        for e in np.eye(2)
    ])
    assert np.abs(fd - projector_derivative(P)).max() <= 1e-9


def test_report_serialization():
    rep = check_hessian_metric(default_point("P3"))
    d = rep.as_dict()
    assert set(d) == {"name", "max_dev", "tol", "pass"}
    assert d["pass"] is True


def test_fd_checks_pass_on_quartics(quartic_points):
    for P in quartic_points.values():
        assert check_hessian_metric(P).passed
        assert check_connection(P).passed
        assert check_curvature(P).passed


def _connection_per_triple(P):
    """Reference for check_connection: one FD probe per triple (z, u <= v)."""
    form, eye = P.form, np.eye(P.rank_m)
    max_dev = 0.0
    for iz, iu, iv in itertools.product(range(P.rank_m), repeat=3):
        if iu > iv:
            continue
        z, u, v = eye[iz], eye[iu], eye[iv]
        fd = fd_directional(lambda w: ConePoint(form, w).inner(u, v), P.omega, z)
        analytic = P.inner(christoffel(P, z, u), v) + P.inner(u, christoffel(P, z, v))
        max_dev = max(max_dev, abs(fd - analytic) / max(1.0, abs(analytic)))
    return max_dev


def _curvature_per_triple(P):
    """Reference for check_curvature: FD probes per triple (u < v, z)."""
    form, m, eye = P.form, P.rank_m, np.eye(P.rank_m)
    tensor = riemann_tensor(P)
    scale = max(1.0, float(np.abs(tensor).max()))
    max_dev = 0.0
    for iu, iv, iz in itertools.product(range(m), repeat=3):
        if iu >= iv:
            continue
        u, v, z = eye[iu], eye[iv], eye[iz]
        d_u = fd_directional(lambda w: christoffel(ConePoint(form, w), v, z), P.omega, u)
        d_v = fd_directional(lambda w: christoffel(ConePoint(form, w), u, z), P.omega, v)
        vec = (
            d_u
            - d_v
            + christoffel(P, u, christoffel(P, v, z))
            - christoffel(P, v, christoffel(P, u, z))
        )
        dev = float(np.abs(P.gram @ vec - tensor[iu, iv, iz, :]).max())
        max_dev = max(max_dev, dev / scale)
    return max_dev


def _primitive_field_per_pair(P):
    """Reference for check_primitive_field: the primitive part of each basis
    class as a field, FD-differentiated along each basis direction and
    corrected by Gamma."""
    eye = np.eye(P.rank_m)
    max_dev = 0.0
    for u0, z in itertools.product(eye, eye):
        d_z = fd_directional(lambda w: ConePoint(P.form, w).primitive_part(u0), P.omega, z)
        nabla = d_z + christoffel(P, z, P.primitive_part(u0))
        max_dev = max(max_dev, abs(P.lambda_scalar([nabla])))
    return max_dev


@pytest.mark.parametrize("name", ["CY3GEN", "LOR3", "P1^4"])
def test_whole_tensor_fd_checks_match_per_triple_loops(name, quartic_points):
    P = quartic_points[name] if name in quartic_points else default_point(name)
    assert abs(check_connection(P).max_dev - _connection_per_triple(P)) <= 1e-9
    assert abs(check_curvature(P).max_dev - _curvature_per_triple(P)) <= 1e-9
    assert abs(check_primitive_field(P).max_dev - _primitive_field_per_pair(P)) <= 1e-9


def _stencil_points(quartic_points, cubic_point):
    points = [default_point(name) for name in catalog_names()] + list(quartic_points.values())
    return points + [cubic_point(m) for m in (6, 12)]


def _basis_reports(P):
    return [check_connection(P), check_curvature(P), check_primitive_field(P)]


def test_batched_stencils_equal_per_point_stencils(monkeypatch, quartic_points, cubic_point,
                                                   fd_per_point):
    # the stencil of every basis direction admitted in one batch, each point made
    # from its row: on these points (omega = e_1, or a form of few integer terms)
    # each stencil row's slot sums round alike in one batch and alone, so every FD
    # quantity and report is bitwise that of one ConePoint per point
    points = _stencil_points(quartic_points, cubic_point)
    for P in points:
        eye = np.eye(P.rank_m)
        for quantity in (lambda Q: Q.gram, christoffel_tensor, lambda Q: Q.primitive_projector):
            got = fdcheck._fd_stencils(P, quantity, eye)
            assert np.array_equal(got, fd_per_point(P, quantity, eye)), P
    got = [_basis_reports(P) for P in points]
    monkeypatch.setattr(fdcheck, "_fd_stencils", fd_per_point)
    assert [_basis_reports(P) for P in points] == got


def test_batched_stencils_along_dense_directions_agree_to_roundoff(
    monkeypatch, quartic_points, cubic_point, gl_symmetric_point, fd_per_point
):
    # along a dense direction, or at a dense point, the batch's one matmul and a
    # single point's one-row matmul may sum a slot in different orders: the FD
    # quotients then differ at roundoff over h, far below every FD tolerance
    rng = np.random.default_rng(32)
    points = _stencil_points(quartic_points, cubic_point) + [gl_symmetric_point(6)]
    args = [(P, list(rng.uniform(-1.0, 1.0, (2, P.rank_m))), rng.uniform(-1.0, 1.0, (3, P.rank_m)))
            for P in points]
    for P, classes, z in args:
        for quantity, dirs in ((lambda Q: Q.lambda_scalar(classes), z), (christoffel_tensor, z),
                               (lambda Q: Q.gram, np.eye(P.rank_m))):
            got, ref = fdcheck._fd_stencils(P, quantity, dirs), fd_per_point(P, quantity, dirs)
            assert np.all(np.abs(got - ref) <= 1e-9 * np.maximum(1.0, np.abs(ref))), P

    def reports():
        return [check_lambda_derivative(P, classes, z[0]) for P, classes, z in args] + \
            _basis_reports(points[-1])

    got = reports()
    monkeypatch.setattr(fdcheck, "_fd_stencils", fd_per_point)
    for a, b in zip(got, reports(), strict=True):
        assert a.name == b.name and abs(a.max_dev - b.max_dev) <= 1e-9, (a, b)


def test_inadmissible_stencil_point_names_its_row():
    # P1XP1 at (1, 1e-5) with h = 1e-4 |omega|: rows 4..7 of the stencil step along
    # e_2 by +h, -h, +h/2, -h/2, and row 5 is the first of negative volume
    P = ConePoint(CATALOG["P1XP1"], np.array([1.0, 1e-5]))
    h = fdcheck.STEP_SCALE * np.linalg.norm(P.omega)
    row = (P.omega - h * np.eye(2)[1]).tolist()
    with pytest.raises(NonPositiveVolume) as err:
        check_connection(P)
    assert str(err.value).startswith(f"stencil point 5 at {row}: volume -")
