"""Command-line front end.

Every subcommand prints a single JSON object on stdout:

    { "command": str, "form": str, "inputs": {...}, "outputs": {...},
      "checks": [ {"name": str, "max_dev": num, "tol": num, "pass": bool} ] }

Floats are rendered with the shortest round-trip representation (at most 17
significant digits), so identical inputs produce byte-identical reports.
Exit codes: 0 success, 1 usage or input error, 2 inadmissible point (the
JSON "error" field carries the error name), 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from math import isfinite

import numpy as np

from .algebra import algebra_at
from .catalog import CATALOG, default_omega
from .curvature import christoffel, derived_curvatures, riemann_tensor
from .errors import (
    DegeneratePlane,
    IndefiniteMetric,
    KConeError,
    LeftCone,
    ManifoldFormatError,
    NonPositiveVolume,
)
from .intersection import IntersectionForm, load_manifold, serialize_manifold
from .metric import ConePoint
from .paths import (
    boundary_probe,
    integrate_geodesic,
    pullback_isometry_check,
    split_report,
)
from .verify import run_verification

_FILE_SCHEMA = (
    'UTF-8 JSON: {"name": str, "dim": n, "h11": m, "intersection": '
    '[{"index": [i1..in] (1-based), "value": number or "p/q"}, ...], '
    '"labels": optional [m names]}; unlisted indices are zero'
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_scalar(text: str) -> float:
    try:
        value = float(Fraction(text)) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise _UsageError(f"bad number {text!r}")
    if not isfinite(value):
        raise _UsageError(f"non-finite number {text!r}")
    return value


def _parse_class(text: str) -> np.ndarray:
    return np.array([_parse_scalar(p) for p in text.split(",")], dtype=float)


def _parse_matrix(text: str) -> np.ndarray:
    rows = [[_parse_scalar(p) for p in row.split(",")] for row in text.split(";")]
    if len({len(r) for r in rows}) != 1:
        raise _UsageError("matrix rows have unequal lengths")
    return np.array(rows, dtype=float)


def _resolve_form(token: str) -> IntersectionForm:
    if token.upper() in CATALOG:
        return CATALOG[token.upper()]
    if os.path.exists(token):
        return load_manifold(token)
    raise _UsageError(
        f"unknown form {token!r}: not a catalog name ({', '.join(CATALOG)}) "
        "and not a file"
    )


def _default_omega(form: IntersectionForm):
    """The default point of a catalog form, else None: a manifold file
    that reuses a catalog name is another form and has none."""
    return default_omega(form.name) if CATALOG.get(form.name) is form else None


def _point(args) -> ConePoint:
    form = _resolve_form(args.form)
    omega = _parse_class(args.at) if args.at is not None else _default_omega(form)
    if omega is None:
        raise _UsageError("--at is required for forms outside the catalog")
    return ConePoint(form, omega)


def _jsonable(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _report(command, form_name, inputs, outputs, checks=()):
    return {
        "command": command,
        "form": form_name,
        "inputs": _jsonable(inputs),
        "outputs": _jsonable(outputs),
        "checks": _jsonable(list(checks)),
    }


# -- subcommand handlers ----------------------------------------------------


def _cmd_info(args):
    if args.form is None:
        entries = [
            {
                "name": name,
                "dim": f.dim_n,
                "h11": f.rank_m,
                "default_omega": _default_omega(f),
                "labels": list(f.labels),
            }
            for name, f in CATALOG.items()
        ]
        return _report(
            "info", "*", {}, {"catalog": entries, "file_schema": _FILE_SCHEMA}
        ), 0
    form = _resolve_form(args.form)
    outputs = json.loads(serialize_manifold(form))
    omega = _default_omega(form)
    if omega is not None:
        outputs["default_omega"] = omega
    return _report("info", form.name, {}, outputs), 0


def _cmd_metric(args):
    P = _point(args)
    outputs = {
        "vol": P.vol,
        "gram": P.gram,
        "gram_inv": P.gram_inv,
        "lambda_basis": P._lam,
    }
    return _report("metric", P.form.name, {"at": P.omega}, outputs), 0


def _cmd_curvature(args):
    P = _point(args)
    tensor = riemann_tensor(P)
    outputs = {"tensor": tensor.entries}
    inputs = {"at": P.omega}
    if args.sectional or args.ricci or args.scalar:
        dc = derived_curvatures(P)
        if args.sectional:
            u, v = (_parse_class(t) for t in args.sectional)
            inputs["sectional_plane"] = [u, v]
            outputs["sectional"] = dc.sectional(u, v)
        if args.ricci:
            outputs["ricci"] = dc.ricci
        if args.scalar:
            outputs["scalar"] = dc.scalar
    return _report("curvature", P.form.name, inputs, outputs), 0


def _cmd_connection(args):
    P = _point(args)
    z = _parse_class(args.z)
    u = _parse_class(args.u)
    outputs = {"christoffel": christoffel(P, z, u)}
    return _report("connection", P.form.name, {"at": P.omega, "z": z, "u": u}, outputs), 0


def _cmd_geodesic(args):
    P = _point(args)
    v0 = _parse_class(args.v)
    path = integrate_geodesic(P, v0, args.T, args.steps)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            m = P.rank_m
            fh.write("t," + ",".join(f"x{i+1}" for i in range(m)) + ",speed\n")
            for t, x, s in zip(path.ts, path.points, path.speeds):
                coords = ",".join(repr(float(c)) for c in x)
                fh.write(f"{float(t)!r},{coords},{float(s)!r}\n")
    outputs = {
        "T": float(args.T),
        "steps": int(args.steps),
        "initial_speed": float(path.speeds[0]),
        "speed_drift": path.speed_drift,
        "final_point": path.points[-1],
        "final_velocity": path.velocities[-1],
        "csv_written": args.csv,
    }
    inputs = {"at": P.omega, "v": v0, "T": float(args.T), "steps": int(args.steps)}
    return _report("geodesic", P.form.name, inputs, outputs), 0


def _cmd_probe(args):
    form = _resolve_form(args.form)
    alpha = _parse_class(args.alpha)
    omega = _parse_class(args.omega)
    schedule = []
    t = float(args.t_max)
    for _ in range(args.halvings + 1):
        if t < args.t_min:
            break
        if t == 0.0 < args.t_max:
            raise _UsageError(
                f"--t-max {args.t_max!r} halved {args.halvings} times underflows "
                "to 0; lower --halvings or raise --t-min"
            )
        schedule.append(t)
        t /= 2.0
    rep = boundary_probe(form, alpha, omega, schedule)
    inputs = {
        "alpha": alpha,
        "omega": omega,
        "t_max": float(args.t_max),
        "t_min": float(args.t_min),
        "halvings": int(args.halvings),
    }
    outputs = {
        "classification": rep.classification,
        "ts": rep.ts,
        "vols": rep.vols,
        "cumulative_lengths": rep.cumulative_lengths,
        "increments": rep.increments,
        "growth_threshold": rep.growth_threshold,
        "conv_tol": rep.conv_tol,
    }
    return _report("probe", form.name, inputs, outputs), 0


def _cmd_algebra(args):
    P = _point(args)
    alg = algebra_at(P)
    outputs = {"structure_constants": alg.structure}
    if args.derivations:
        ders = alg.derivations()
        outputs["derivations"] = {"dimension": len(ders), "basis": ders}
    if args.kn:
        fs = alg.bilinear_forms()
        outputs["kulkarni_nomizu"] = {
            "forms": fs.forms,
            "orthonormal_basis": fs.basis,
            "reconstruction_residual": alg.kn_reconstruction_residual(),
        }
    if args.constant_curvature:
        fit = alg.constant_curvature_test()
        outputs["constant_curvature"] = {
            "lambda": fit.lam,
            "residual": fit.residual,
            "tol": fit.tol,
            "is_constant": fit.is_constant,
        }
    return _report("algebra", P.form.name, {"at": P.omega}, outputs), 0


def _cmd_split(args):
    P = _point(args)
    rep = split_report(P)
    outputs = {
        "t": rep.t,
        "omega1": rep.omega1,
        "dt2_coefficient": rep.dt2_coefficient,
        "expected_dt2": rep.expected_dt2,
        "max_mixed_entry": rep.max_mixed_entry,
        "primitive_block": rep.primitive_block,
    }
    return _report("split", P.form.name, {"at": P.omega}, outputs), 0


def _cmd_pullback(args):
    form_y = _resolve_form(args.form_y)
    form_x = _resolve_form(args.form_x)
    matrix = _parse_matrix(args.matrix)
    base = _parse_class(args.at) if args.at is not None else _default_omega(form_y)
    if base is None:
        raise _UsageError("--at is required for source forms outside the catalog")
    rep = pullback_isometry_check(form_y, form_x, matrix, args.degree, base)
    dev = max(rep.max_vol_deviation, rep.max_gram_deviation)
    checks = [
        {
            "name": "pullback_isometry",
            "max_dev": float(dev),
            "tol": 1e-10,
            "pass": bool(dev <= 1e-10),
        }
    ]
    inputs = {
        "target_form": form_x.name,
        "matrix": matrix,
        "degree": float(args.degree),
        "at": base,
    }
    outputs = {
        "max_vol_deviation": rep.max_vol_deviation,
        "max_gram_deviation": rep.max_gram_deviation,
        "points_checked": rep.points_checked,
    }
    code = 0 if checks[0]["pass"] else 3
    return _report("pullback", form_y.name, inputs, outputs, checks), code


def _cmd_verify(args):
    tokens = args.forms or []
    for token in tokens:
        if token.upper() not in CATALOG:
            raise _UsageError(f"verify only runs on catalog forms, not {token!r}")
    names = [token.upper() for token in tokens] or list(CATALOG)
    checks, all_pass = run_verification(names)
    outputs = {"all_pass": all_pass, "checks_run": len(checks)}
    code = 0 if all_pass else 3
    return _report("verify", ",".join(names), {"forms": names}, outputs, checks), code


# -- parser -----------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="kcone",
        description=(
            "Riemannian geometry of a Kahler cone computed from an "
            "intersection form. FORM is a catalog name or a manifold "
            "file path; class arguments are comma-separated coordinates "
            "(rationals like 3/2 allowed); matrices use ';' between rows."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("info", help="describe the catalog or one form")
    p.add_argument("form", nargs="?", default=None)
    p.set_defaults(handler=_cmd_info)

    p = sub.add_parser("metric", help="volume and Gram matrix at a point")
    p.add_argument("form")
    p.add_argument("--at", default=None, help="cone point coordinates")
    p.set_defaults(handler=_cmd_metric)

    p = sub.add_parser("curvature", help="curvature tensor and contractions")
    p.add_argument("form")
    p.add_argument("--at", default=None)
    p.add_argument("--sectional", nargs=2, metavar=("U", "V"), default=None)
    p.add_argument("--ricci", action="store_true")
    p.add_argument("--scalar", action="store_true")
    p.set_defaults(handler=_cmd_curvature)

    p = sub.add_parser("connection", help="Christoffel value for constant u")
    p.add_argument("form")
    p.add_argument("--at", default=None)
    p.add_argument("--z", required=True)
    p.add_argument("--u", required=True)
    p.set_defaults(handler=_cmd_connection)

    p = sub.add_parser("geodesic", help="fixed-step RK4 geodesic")
    p.add_argument("form")
    p.add_argument("--at", default=None)
    p.add_argument("--v", required=True, help="initial velocity")
    p.add_argument("--T", type=_parse_scalar, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--csv", default=None, help="write t,coords..,speed rows")
    p.set_defaults(handler=_cmd_geodesic)

    p = sub.add_parser("probe", help="boundary probe along alpha + t omega")
    p.add_argument("form")
    p.add_argument("--alpha", required=True)
    p.add_argument("--omega", required=True)
    p.add_argument("--t-max", type=_parse_scalar, default=1.0, dest="t_max")
    p.add_argument("--t-min", type=_parse_scalar, default=0.0, dest="t_min")
    p.add_argument("--halvings", type=int, default=12)
    p.set_defaults(handler=_cmd_probe)

    p = sub.add_parser("algebra", help="product structure at a point")
    p.add_argument("form")
    p.add_argument("--at", default=None)
    p.add_argument("--derivations", action="store_true")
    p.add_argument("--kn", action="store_true")
    p.add_argument("--constant-curvature", action="store_true", dest="constant_curvature")
    p.set_defaults(handler=_cmd_algebra)

    p = sub.add_parser("split", help="radial/unit-volume splitting data")
    p.add_argument("form")
    p.add_argument("--at", default=None)
    p.set_defaults(handler=_cmd_split)

    p = sub.add_parser("pullback", help="pullback isometry check Y -> X")
    p.add_argument("form_y")
    p.add_argument("form_x")
    p.add_argument("--matrix", required=True)
    p.add_argument("--degree", type=_parse_scalar, required=True)
    p.add_argument("--at", default=None, help="source cone point")
    p.set_defaults(handler=_cmd_pullback)

    p = sub.add_parser("verify", help="run the full verification suite")
    p.add_argument("forms", nargs="*", default=None)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        report, code = args.handler(args)
    except (NonPositiveVolume, IndefiniteMetric, LeftCone, DegeneratePlane) as exc:
        report = {
            "command": args.command,
            "error": type(exc).__name__,
            "message": str(exc),
        }
        print(json.dumps(report, indent=2))
        return 2
    except (_UsageError, ManifoldFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KConeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(report, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
