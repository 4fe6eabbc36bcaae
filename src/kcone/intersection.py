"""Symmetric multilinear intersection forms and the manifold file format.

An intersection form encodes the top cup-product pairing of a compact
complex n-fold on a chosen basis of real (1,1)-classes: a fully symmetric
n-linear map on R^m given by its coefficients on sorted multi-indices.
Cohomology classes themselves are plain 1-d float arrays of length m.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement
from math import factorial, isfinite

import numpy as np

from .errors import ManifoldFormatError

__all__ = [
    "CohClass",
    "IntersectionForm",
    "parse_manifold",
    "load_manifold",
    "serialize_manifold",
]

# Cohomology classes are coordinate vectors over the basis the form declares.
CohClass = np.ndarray


def _normalize_coeffs(coeffs, dim_n, rank_m):
    """Sort indices, merge duplicates, drop zeros; reject inconsistencies.
    coeffs is a mapping or (index, value) pairs, as a file lists them."""
    out = {}
    for idx, val in coeffs.items() if isinstance(coeffs, dict) else coeffs:
        idx = tuple(sorted(int(i) for i in idx))
        if len(idx) != dim_n:
            raise ManifoldFormatError(
                f"index length mismatch: {list(idx)} has {len(idx)} entries, expected {dim_n}"
            )
        if idx[0] < 1 or idx[-1] > rank_m:
            raise ManifoldFormatError(f"index {list(idx)} out of range 1..{rank_m}")
        val = float(val)
        if not isfinite(val):
            raise ManifoldFormatError(f"non-finite value {val!r} for index {list(idx)}")
        if idx in out and out[idx] != val:
            raise ManifoldFormatError(
                f"conflicting values for index {list(idx)}: {out[idx]} vs {val}"
            )
        out[idx] = val
    out = {k: v for k, v in sorted(out.items()) if v != 0.0}
    if not out:
        raise ManifoldFormatError("all-zero form")
    return out


@dataclass(frozen=True)
class IntersectionForm:
    """Sparse symmetric n-linear form over sorted multi-indices.

    Only sorted index tuples are stored; evaluation densifies once to a
    fully symmetric array, so symmetry holds by construction.
    """

    name: str
    dim_n: int
    rank_m: int
    coeffs: dict
    labels: tuple = field(default=())

    def __post_init__(self):
        if self.dim_n < 1 or self.rank_m < 1:
            raise ManifoldFormatError("dim and h11 must be positive integers")
        object.__setattr__(
            self, "coeffs", _normalize_coeffs(self.coeffs, self.dim_n, self.rank_m)
        )
        if self.labels:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != self.rank_m:
                raise ManifoldFormatError("labels length must equal h11")
            object.__setattr__(self, "labels", labels)

    @cached_property
    def _dense(self) -> np.ndarray:
        """Dense fully symmetric coefficient array of shape (m,)*n.

        Set at the sorted indices, then filled across the n(n - 1)/2
        adjacent-axis swaps of a bubble-sort network, whose subsequences
        reach every arrangement of an index; a zero only takes the value of
        an arrangement of its own index.  O(n^2 m^n) work, where a loop over
        the n! permutations hangs from n = 13.
        """
        n = self.dim_n
        t = np.zeros((self.rank_m,) * n)
        t[tuple(np.array(list(self.coeffs)).T - 1)] = list(self.coeffs.values())
        for end in range(n - 1, 0, -1):
            for k in range(end):
                t = np.where(t == 0.0, t.swapaxes(k, k + 1), t)
        return t

    def _check_class(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        if a.shape != (self.rank_m,):
            raise ValueError(f"class has shape {a.shape}, expected ({self.rank_m},)")
        return a

    def evaluate(self, *classes: CohClass) -> float:
        """Full multilinear evaluation; symmetric and linear in each slot."""
        if len(classes) != self.dim_n:
            raise ValueError(f"expected {self.dim_n} classes, got {len(classes)}")
        t = self._dense
        for a in classes:
            t = np.tensordot(t, self._check_class(a), axes=([t.ndim - 1], [0]))
        return float(t)

    def volume(self, omega: CohClass) -> float:
        """evaluate(omega, ..., omega) / n!; homogeneous of degree n."""
        return self.evaluate(*([omega] * self.dim_n)) / factorial(self.dim_n)

    def pullback(self, matrix) -> "IntersectionForm":
        """Induced form c'(a_1,..,a_n) = c(M a_1,..,M a_n) of rank m'.

        `matrix` has rank_m rows; the result lives on R^{m'} for m' columns.
        """
        mat = np.asarray(matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != self.rank_m:
            raise ValueError(
                f"matrix must have {self.rank_m} rows, got shape {mat.shape}"
            )
        m_new = mat.shape[1]
        t = self._dense
        for _ in range(self.dim_n):
            # contract the leading axis with M; axes cycle back into place
            t = np.tensordot(t, mat, axes=([0], [0]))
        coeffs = [
            (tuple(i + 1 for i in idx), t[idx])
            for idx in combinations_with_replacement(range(m_new), self.dim_n)
        ]
        return IntersectionForm(
            name=f"{self.name}_pullback", dim_n=self.dim_n, rank_m=m_new, coeffs=coeffs
        )


def _parse_value(v):
    if type(v) not in (str, float, int):  # bool is an int subclass but not a number
        raise ManifoldFormatError(f"bad value {v!r}")
    try:
        return float(Fraction(v)) if isinstance(v, str) else float(v)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ManifoldFormatError(f"bad value {v!r}") from exc


def parse_manifold(text: str) -> IntersectionForm:
    """Parse a manifold file (UTF-8 JSON) into a validated form.

    Schema::

        { "name": str, "dim": int, "h11": int,
          "intersection": [ {"index": [i1,..,in], "value": number-or-"p/q"}, .. ],
          "labels": optional list of h11 names }

    Indices are 1-based; unlisted indices are zero; rational strings are
    parsed exactly and converted to double.
    """
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:   # the latter: nested too deeply
        raise ManifoldFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ManifoldFormatError("top level must be a JSON object")
    for key in ("name", "dim", "h11", "intersection"):
        if key not in obj:
            raise ManifoldFormatError(f"missing field {key!r}")
    name = obj["name"]
    if not isinstance(name, str) or not name:
        raise ManifoldFormatError("name must be a nonempty string")
    dim, h11 = obj["dim"], obj["h11"]
    if type(dim) is not int or type(h11) is not int:
        raise ManifoldFormatError("dim and h11 must be integers")
    entries = obj["intersection"]
    if not isinstance(entries, list):
        raise ManifoldFormatError("intersection must be a list")
    coeffs = []
    for entry in entries:
        if not isinstance(entry, dict) or "index" not in entry or "value" not in entry:
            raise ManifoldFormatError(f"bad intersection entry {entry!r}")
        idx = entry["index"]
        if not isinstance(idx, list) or not all(type(i) is int for i in idx):
            raise ManifoldFormatError(f"bad index {idx!r}")
        coeffs.append((idx, _parse_value(entry["value"])))
    labels = obj.get("labels", [])
    if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
        raise ManifoldFormatError(f"labels must be a list of strings, got {labels!r}")
    return IntersectionForm(
        name=name, dim_n=dim, rank_m=h11, coeffs=coeffs, labels=tuple(labels)
    )


def load_manifold(path) -> IntersectionForm:
    with open(path, encoding="utf-8") as fh:
        return parse_manifold(fh.read())


def serialize_manifold(form: IntersectionForm) -> str:
    """Canonical JSON for a form; parse(serialize(f)) reproduces f."""
    obj = {
        "name": form.name,
        "dim": form.dim_n,
        "h11": form.rank_m,
        "intersection": [
            {"index": list(idx), "value": val} for idx, val in sorted(form.coeffs.items())
        ],
    }
    if form.labels:
        obj["labels"] = list(form.labels)
    return json.dumps(obj, indent=2)
