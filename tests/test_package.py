"""The package's module exports."""

import importlib
import os
import pkgutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path
from types import ModuleType

import pytest

import kcone

SRC = Path(__file__).resolve().parent.parent / "src"

# every name `import kcone` bound before the package re-exported the modules' __all__
EARLIER_EXPORTS = {
    "AlgebraAtPoint", "CATALOG", "CohClass", "ConePoint", "ConstantCurvatureFit",
    "DegeneratePlane", "DerivedCurvatures", "FDReport", "GeodesicPath", "IndefiniteMetric",
    "IntersectionForm", "KConeError", "Lefschetz", "LeftCone", "LengthBound",
    "ManifoldFormatError", "NonPositiveVolume", "POSDEF_TOL", "ProbeReport",
    "PullbackReport", "SplitReport", "algebra_at", "boundary_probe", "catalog_names",
    "check_connection", "check_curvature", "check_hessian_metric",
    "check_lambda_derivative", "check_primitive_field", "christoffel", "default_omega",
    "default_point", "derived_curvatures", "fd_directional", "fd_hessian", "get_form",
    "inner22", "integrate_geodesic", "integrate_geodesics", "kn_product", "lefschetz",
    "length_bound_check", "load_manifold", "parse_manifold", "path_length",
    "pullback_isometry_check", "riemann", "riemann_alt", "riemann_tensor",
    "run_verification", "serialize_manifold", "split", "split_report", "unsplit",
}

# every result and catalog record the package declares
RECORDS = (
    "CatalogEntry", "ConstantCurvatureFit", "CurvatureValues", "DerivedCurvatures", "FDReport",
    "GeodesicPath", "Lefschetz", "LengthBound", "Probe", "ProbeReport", "Pullback",
    "PullbackReport", "SplitReport",
)


def _exporting_modules():
    """{module name: its __all__} for every submodule that declares one."""
    modules = [importlib.import_module(f"kcone.{info.name}")
               for info in pkgutil.iter_modules(kcone.__path__) if info.name != "__main__"]
    return {m.__name__: m.__all__ for m in modules if hasattr(m, "__all__")}


def test_every_name_in_all_resolves():
    # a name removed from a module but left in its __all__ breaks
    # `from kcone.<module> import *`
    exporting = _exporting_modules()
    assert {"kcone.algebra", "kcone.curvature", "kcone.metric", "kcone.verify"} <= set(exporting)
    missing = [(module, name) for module, names in exporting.items() for name in names
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_package_exports_exactly_the_modules_all():
    exporting = _exporting_modules()
    assert set(exporting) == {f"kcone.{name}" for name in (
        "algebra", "catalog", "curvature", "errors", "fdcheck", "intersection", "metric",
        "paths", "verify")}
    # pairwise disjoint, so no star import in kcone shadows another module's name
    for (a, names_a), (b, names_b) in combinations(exporting.items(), 2):
        assert not set(names_a) & set(names_b), (a, b)
    union = {name for names in exporting.values() for name in names}
    public = {name for name in vars(kcone) if not name.startswith("_")}
    submodules = {name for name in public if isinstance(getattr(kcone, name), ModuleType)}
    assert all(getattr(kcone, name).__name__ == f"kcone.{name}" for name in submodules)
    assert public - submodules == union
    assert isinstance(kcone.__version__, str)
    assert EARLIER_EXPORTS <= union


def test_import_leaves_out_the_cli():
    # kcone does not star-import cli, so a library import loads no argparse
    code = "import sys, kcone; print('argparse' in sys.modules, 'kcone.cli' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["False", "False"]


def test_every_record_is_an_immutable_named_tuple():
    for name in RECORDS:
        cls = getattr(kcone, name)
        assert issubclass(cls, tuple) and cls._fields, name
        record = cls._make(range(len(cls._fields)))
        for field in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
