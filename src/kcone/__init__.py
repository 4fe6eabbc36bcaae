"""Riemannian geometry of Kahler cones from intersection forms.

Given the symmetric n-linear intersection form of a compact complex
n-fold on a basis of real (1,1)-classes, this package computes the
natural metric of the cone of admissible classes (the Hessian metric of
-log Vol), its Levi-Civita connection, curvature tensor and derived
curvatures, geodesics and completeness probes, and the commutative
algebra the Lefschetz contraction induces at each point.  Every closed
formula is cross-checked by an independent finite-difference oracle.
"""

from .algebra import *
from .catalog import *
from .curvature import *
from .errors import *
from .fdcheck import *
from .intersection import *
from .metric import *
from .paths import *
from .verify import *

__version__ = "0.1.0"
