"""Command-line front end.

Every subcommand prints a single JSON object on stdout:

    { "command": str, "form": str, "inputs": {...}, "outputs": {...},
      "checks": [ {"name": str, "max_dev": num, "tol": num, "pass": bool} ] }

Floats are rendered with the shortest round-trip representation (at most 17
significant digits), so identical inputs produce byte-identical reports.
Exit codes: 0 success, 1 usage or input error, 2 inadmissible point or
degenerate sectional plane (the JSON "error" field carries the error name),
3 a check in the report failed, or the library raised another KConeError
(for example a sampler gave up).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import signal
import sys
import threading
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
from .fdcheck import FDReport
from .intersection import IntersectionForm, load_manifold, manifold_object
from .metric import ConePoint
from .paths import (
    PULLBACK_TOL,
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


def _at(args, form: IntersectionForm) -> np.ndarray:
    """--at, else the default point of a catalog form."""
    omega = args.at if args.at is not None else _default_omega(form)
    if omega is None:
        raise _UsageError("--at is required for forms outside the catalog")
    return omega


def _point(args) -> ConePoint:
    form = _resolve_form(args.form)
    return ConePoint(form, _at(args, form))


# -- subcommand handlers ----------------------------------------------------
# Each returns (form name, inputs, outputs) and, if it runs checks, their
# records; main builds the report and the exit code from them.


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
        return "*", {}, {"catalog": entries, "file_schema": _FILE_SCHEMA}
    form = _resolve_form(args.form)
    outputs = manifold_object(form)
    omega = _default_omega(form)
    if omega is not None:
        outputs["default_omega"] = omega
    return form.name, {}, outputs


def _cmd_metric(args):
    P = _point(args)
    outputs = {
        "vol": P.vol,
        "gram": P.gram,
        "gram_inv": P.gram_inv,
        "lambda_basis": P._lam,
    }
    return P.form.name, {"at": P.omega}, outputs


def _cmd_curvature(args):
    P = _point(args)
    outputs = {"tensor": riemann_tensor(P)}
    inputs = {"at": P.omega}
    if args.sectional or args.ricci or args.scalar:
        dc = derived_curvatures(P)
        if args.sectional:
            inputs["sectional_plane"] = args.sectional
            outputs["sectional"] = dc.sectional(*args.sectional)
        if args.ricci:
            outputs["ricci"] = dc.ricci
        if args.scalar:
            outputs["scalar"] = dc.scalar
    return P.form.name, inputs, outputs


def _cmd_connection(args):
    P = _point(args)
    outputs = {"christoffel": christoffel(P, args.z, args.u)}
    return P.form.name, {"at": P.omega, "z": args.z, "u": args.u}, outputs


def _cmd_geodesic(args):
    P = _point(args)
    path = integrate_geodesic(P, args.v, args.T, args.steps)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            m = P.rank_m
            fh.write("t," + ",".join(f"x{i+1}" for i in range(m)) + ",speed\n")
            for t, x, s in zip(path.ts, path.points, path.speeds):
                coords = ",".join(repr(float(c)) for c in x)
                fh.write(f"{float(t)!r},{coords},{float(s)!r}\n")
    outputs = {
        "T": args.T,
        "steps": args.steps,
        "initial_speed": float(path.speeds[0]),
        "speed_drift": path.speed_drift,
        "final_point": path.points[-1],
        "final_velocity": path.velocities[-1],
        "csv_written": args.csv,
    }
    inputs = {"at": P.omega, "v": args.v, "T": args.T, "steps": args.steps}
    return P.form.name, inputs, outputs


def _cmd_probe(args):
    form = _resolve_form(args.form)
    rep = boundary_probe(form, args.alpha, args.omega, args.halvings)
    inputs = {key: getattr(args, key) for key in ("alpha", "omega", "halvings")}
    return form.name, inputs, rep._asdict()


def _cmd_algebra(args):
    P = _point(args)
    alg = algebra_at(P)
    outputs = {"structure_constants": alg.structure}
    if args.derivations:
        ders = alg.derivations()
        outputs["derivations"] = {"dimension": len(ders), "basis": ders}
    if args.kn:
        outputs["kulkarni_nomizu"] = {
            "forms": alg.bilinear_forms(),
            "orthonormal_basis": P.frame,
            "reconstruction_residual": alg.kn_reconstruction_residual(),
        }
    if args.constant_curvature:
        fit = alg.constant_curvature_test()
        outputs["constant_curvature"] = {"lambda": fit.lam, "residual": fit.residual,
                                         "tol": fit.tol, "is_constant": fit.is_constant}
    return P.form.name, {"at": P.omega}, outputs


def _cmd_split(args):
    P = _point(args)
    return P.form.name, {"at": P.omega}, split_report(P)._asdict()


def _cmd_pullback(args):
    form_y = _resolve_form(args.form_y)
    form_x = _resolve_form(args.form_x)
    base = _at(args, form_y)
    rep = pullback_isometry_check(form_y, form_x, args.matrix, args.degree, base)
    check = FDReport("pullback_isometry", rep.max_dev, PULLBACK_TOL)
    inputs = {
        "target_form": form_x.name,
        "matrix": args.matrix,
        "degree": args.degree,
        "at": base,
    }
    return form_y.name, inputs, rep._asdict(), [check.as_dict()]


def _cmd_verify(args):
    for token in args.forms:   # nargs="*" gives [] when no form is named
        if token.upper() not in CATALOG:
            raise _UsageError(f"verify only runs on catalog forms, not {token!r}")
    names = list(dict.fromkeys(token.upper() for token in args.forms)) or list(CATALOG)
    # SIGTERM exits 143 through the pool's `with`; its workers, forked under it, exit silently
    on_main = threading.current_thread() is threading.main_thread()   # only it may set one
    if on_main:
        previous = signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        checks, all_pass = run_verification(names)
    finally:
        if on_main:
            signal.signal(signal.SIGTERM, previous)
    outputs = {"all_pass": all_pass, "checks_run": len(checks)}
    return ",".join(names), {"forms": names}, outputs, checks


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
    # FORM and --at of the subcommands that work at one cone point
    at_point = argparse.ArgumentParser(add_help=False)
    at_point.add_argument("form")
    at_point.add_argument("--at", type=_parse_class, default=None, help="cone point coordinates")

    p = sub.add_parser("info", help="describe the catalog or one form")
    p.add_argument("form", nargs="?", default=None)
    p.set_defaults(handler=_cmd_info)

    p = sub.add_parser("metric", parents=[at_point], help="volume and Gram matrix at a point")
    p.set_defaults(handler=_cmd_metric)

    p = sub.add_parser("curvature", parents=[at_point], help="curvature tensor and contractions")
    p.add_argument("--sectional", type=_parse_class, nargs=2, metavar=("U", "V"), default=None)
    p.add_argument("--ricci", action="store_true")
    p.add_argument("--scalar", action="store_true")
    p.set_defaults(handler=_cmd_curvature)

    p = sub.add_parser("connection", parents=[at_point], help="Christoffel value for constant u")
    p.add_argument("--z", type=_parse_class, required=True)
    p.add_argument("--u", type=_parse_class, required=True)
    p.set_defaults(handler=_cmd_connection)

    p = sub.add_parser("geodesic", parents=[at_point], help="fixed-step RK4 geodesic")
    p.add_argument("--v", type=_parse_class, required=True, help="initial velocity")
    p.add_argument("--T", type=_parse_scalar, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--csv", default=None, help="write t,coords..,speed rows")
    p.set_defaults(handler=_cmd_geodesic)

    p = sub.add_parser("probe", help="boundary probe along alpha + t omega")
    p.add_argument("form")
    p.add_argument("--alpha", type=_parse_class, required=True)
    p.add_argument("--omega", type=_parse_class, required=True)
    p.add_argument("--halvings", type=int, default=12)
    p.set_defaults(handler=_cmd_probe)

    p = sub.add_parser("algebra", parents=[at_point], help="product structure at a point")
    p.add_argument("--derivations", action="store_true")
    p.add_argument("--kn", action="store_true")
    p.add_argument("--constant-curvature", action="store_true", dest="constant_curvature")
    p.set_defaults(handler=_cmd_algebra)

    p = sub.add_parser("split", parents=[at_point], help="radial/unit-volume splitting data")
    p.set_defaults(handler=_cmd_split)

    p = sub.add_parser("pullback", help="pullback isometry check Y -> X")
    p.add_argument("form_y")
    p.add_argument("form_x")
    p.add_argument("--matrix", type=_parse_matrix, required=True)
    p.add_argument("--degree", type=_parse_scalar, required=True)
    p.add_argument("--at", type=_parse_class, default=None, help="source cone point")
    p.set_defaults(handler=_cmd_pullback)

    p = sub.add_parser("verify", help="run the full verification suite")
    p.add_argument("forms", nargs="*")
    p.set_defaults(handler=_cmd_verify)

    return parser


def _write_report(report, out) -> None:
    """Write json.dumps(report, indent=2, default=tolist) to out about a thousand parts at a time:
    with an indent, json.dumps is "".join(iterencode()), so the bytes are the same.  Arrays of
    3+ dimensions go out one matrix at a time (each split costs the encoder a generator level
    per part); numpy scalars, vectors and matrices go through tolist()."""
    encoder = json.JSONEncoder(indent=2, default=lambda x: list(x) if x.ndim > 2 else x.tolist())
    parts = encoder.iterencode(report)
    while block := "".join(itertools.islice(parts, 1024)):
        out.write(block)
    out.write("\n")   # as print: unbuffered, a write the reader cut short does not raise


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
        form, inputs, outputs, *rest = args.handler(args)
    except (NonPositiveVolume, IndefiniteMetric, LeftCone, DegeneratePlane) as exc:
        report = {
            "command": args.command,
            "error": type(exc).__name__,
            "message": str(exc),
        }
        code = 2
    # MemoryError: an input that asks for an array no machine can hold
    except (_UsageError, ManifoldFormatError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KConeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    else:
        checks = rest[0] if rest else []
        report = {"command": args.command, "form": form, "inputs": inputs,
                  "outputs": outputs, "checks": checks}
        code = 3 if any(not c["pass"] for c in checks) else 0
    try:
        _write_report(report, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout before or while the report was written (`| head`):
        # point it at devnull so the interpreter's flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
