import sys
from pathlib import Path

# allow running the suite from a fresh checkout without installing
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from kcone.intersection import IntersectionForm  # noqa: E402
from kcone.metric import ConePoint  # noqa: E402


@pytest.fixture(scope="session")
def quartic_points():
    """Two n = 4 cone points, where Lam3 comes from a contraction with omega
    and inner22 has a Lam4 term: P1^4 and a rank-3 quartic."""
    p1_4 = IntersectionForm(name="P1^4", dim_n=4, rank_m=4, coeffs={(1, 2, 3, 4): 1.0})
    quartic = IntersectionForm(
        name="QUARTIC3",
        dim_n=4,
        rank_m=3,
        coeffs={(1, 1, 1, 1): 6.0, (1, 1, 2, 2): -1.0, (1, 1, 3, 3): -1.0, (1, 2, 2, 3): 0.3},
    )
    return {
        "P1^4": ConePoint(p1_4, np.array([1.0, 1.0, 1.0, 1.3])),
        "QUARTIC3": ConePoint(quartic, np.array([1.0, 0.1, 0.05])),
    }
