"""Riemannian geometry of Kahler cones from intersection forms.

Given the symmetric n-linear intersection form of a compact complex
n-fold on a basis of real (1,1)-classes, this package computes the
natural metric of the cone of admissible classes (the Hessian metric of
-log Vol), its Levi-Civita connection, curvature tensor and derived
curvatures, geodesics and completeness probes, and the commutative
algebra the Lefschetz contraction induces at each point.  Every closed
formula is cross-checked by an independent finite-difference oracle.
"""

from .algebra import (
    AlgebraAtPoint,
    BilinearFormSet,
    ConstantCurvatureFit,
    algebra_at,
    kn_product,
)
from .catalog import CATALOG, catalog_names, default_omega, default_point, get_form
from .curvature import (
    CurvatureTensor,
    DerivedCurvatures,
    christoffel,
    derived_curvatures,
    inner22,
    riemann,
    riemann_alt,
    riemann_tensor,
)
from .errors import (
    DegeneratePlane,
    IndefiniteMetric,
    KConeError,
    LeftCone,
    ManifoldFormatError,
    NonPositiveVolume,
)
from .fdcheck import (
    FDReport,
    check_connection,
    check_curvature,
    check_hessian_metric,
    check_lambda_derivative,
    check_primitive_field,
    fd_directional,
    fd_hessian,
)
from .intersection import (
    CohClass,
    IntersectionForm,
    load_manifold,
    parse_manifold,
    serialize_manifold,
)
from .metric import POSDEF_TOL, ConePoint, Lefschetz, lefschetz
from .paths import (
    GeodesicPath,
    LengthBound,
    ProbeReport,
    PullbackReport,
    SplitReport,
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
from .verify import run_verification

__version__ = "0.1.0"
