"""Built-in intersection forms used by the command line and the test suite.

The catalog is a test corpus: entries are small, hand-checkable forms
(products of lines, projective space, a quintic-type cubic, a blown-up
surface, a Lorentzian rank-3 surface and a synthetic two-parameter
threefold).  Each entry carries its form, a documented admissible default
point and the values the verification suite pins at that point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Optional

import numpy as np

from .intersection import IntersectionForm
from .metric import ConePoint

__all__ = ["CATALOG", "ENTRIES", "CatalogEntry", "CurvatureValues", "Probe",
           "catalog_names", "get_form", "default_omega", "default_point"]


@dataclass(frozen=True)
class CurvatureValues:
    """Curvature values pinned at an entry's default point.

    `plane` spans a primitive plane of sectional curvature `sectional`;
    every class in `units` is a unit primitive vector u with
    Ric(u, u) = `ricci`; the scalar curvature is `scalar`; and every plane
    spanned by omega and a class in `radial` is flat.
    """

    plane: tuple
    sectional: float
    units: tuple
    ricci: float
    scalar: float
    radial: tuple


@dataclass(frozen=True)
class Probe:
    """A boundary probe along alpha + t omega from the default point omega,
    at t = 2^-j for j = 0..halvings, with its expected classification and
    the tolerance on its score."""

    alpha: tuple
    halvings: int
    expect: str   # "DIVERGENT" or "CONVERGENT"
    tol: float


@dataclass(frozen=True)
class CatalogEntry:
    """A catalog form, its admissible default point and the values pinned
    there; None pins nothing."""

    form: IntersectionForm
    omega: tuple
    curvature: Optional[CurvatureValues] = None
    probe: Optional[Probe] = None
    derivation_dim: Optional[int] = None


_E2, _E3 = (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)

ENTRIES = {
    entry.form.name: entry
    for entry in (
        CatalogEntry(
            IntersectionForm(
                name="P1XP1", dim_n=2, rank_m=2, coeffs={(1, 2): 1.0}, labels=("h1", "h2")
            ),
            omega=(1.0, 1.0),
            probe=Probe(alpha=(1.0, 0.0), halvings=10, expect="DIVERGENT", tol=0.0),
            derivation_dim=0,
        ),
        CatalogEntry(
            IntersectionForm(name="P3", dim_n=3, rank_m=1, coeffs={(1, 1, 1): 1.0}),
            omega=(1.0,),
            derivation_dim=0,
        ),
        CatalogEntry(
            IntersectionForm(name="QUINTIC", dim_n=3, rank_m=1, coeffs={(1, 1, 1): 5.0}),
            omega=(1.0,),
            derivation_dim=0,
        ),
        CatalogEntry(
            IntersectionForm(
                name="BLP2",
                dim_n=2,
                rank_m=2,
                coeffs={(1, 1): 1.0, (2, 2): -1.0},
                labels=("H", "E"),
            ),
            omega=(2.0, -1.0),
            probe=Probe(alpha=(1.0, 0.0), halvings=14, expect="CONVERGENT", tol=1e-3),
        ),
        CatalogEntry(
            IntersectionForm(
                name="LOR3",
                dim_n=2,
                rank_m=3,
                coeffs={(1, 1): 1.0, (2, 2): -1.0, (3, 3): -1.0},
            ),
            omega=(1.0, 0.0, 0.0),
            curvature=CurvatureValues(
                plane=(_E2, _E3),
                sectional=-0.5,
                units=((0.0, 1 / sqrt(2.0), 0.0), (0.0, 0.0, 1 / sqrt(2.0)), (0.0, 0.5, 0.5)),
                ricci=-0.5,
                scalar=-1.0,
                radial=(_E2, _E3, (0.0, 1.0, 1.0), (0.0, 1.0, -2.0)),
            ),
            derivation_dim=1,
        ),
        CatalogEntry(
            IntersectionForm(
                name="CY3GEN",
                dim_n=3,
                rank_m=2,
                coeffs={(1, 1, 1): 8.0, (1, 1, 2): 4.0, (1, 2, 2): 2.0},
            ),
            omega=(1.0, 1.0),
        ),
    )
}

CATALOG = {name: entry.form for name, entry in ENTRIES.items()}


def catalog_names():
    return list(CATALOG)


def get_form(name: str) -> IntersectionForm:
    try:
        return CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown catalog form {name!r}; known: {', '.join(CATALOG)}")


def default_omega(name: str) -> np.ndarray:
    return np.array(ENTRIES[name].omega, dtype=float)


def default_point(name: str) -> ConePoint:
    return ConePoint(get_form(name), default_omega(name))
