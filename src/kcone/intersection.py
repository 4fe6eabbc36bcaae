"""Symmetric multilinear intersection forms and the manifold file format.

An intersection form encodes the top cup-product pairing of a compact
complex n-fold on a chosen basis of real (1,1)-classes: a fully symmetric
n-linear map on R^m given by its coefficients on sorted multi-indices.
Cohomology classes themselves are plain 1-d float arrays of length m.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations_with_replacement
from math import factorial
from operator import itemgetter

import numpy as np

from .errors import ManifoldFormatError

__all__ = [
    "CohClass",
    "IntersectionForm",
    "parse_manifold",
    "load_manifold",
    "manifold_object",
    "serialize_manifold",
]

# Cohomology classes are coordinate vectors over the basis the form declares.
CohClass = np.ndarray


def _normalize_coeffs(rows, values, dim_n, rank_m):
    """Sorted unique index rows (K, n) in lexicographic order and their nonzero
    values, from 1-based rows in any order; agreeing duplicates merge.  The first
    bad row in input order raises, checked for length, range, finiteness, conflict."""
    values = np.asarray(values, dtype=float)
    lengths = np.fromiter(map(len, rows), int, len(rows))
    k = np.append(np.flatnonzero(lengths != dim_n), len(rows))[0]
    try:
        idx = np.fromiter(chain.from_iterable(rows[:k]), np.int64, k * dim_n).reshape(k, dim_n)
    except OverflowError:   # an index beyond int64, in range only for an h11 as large
        idx = np.array(rows[:k], dtype=object).reshape(k, dim_n)
    idx.sort(axis=1)
    order = np.lexsort(idx.T[::-1])   # stable: duplicates keep input order
    srt, val, pos = idx[order], values[order], np.argsort(order)
    same = np.all(srt[1:] == srt[:-1], axis=1)
    checks = ((idx[:, 0] < 1) | (idx[:, -1] > rank_m), ~np.isfinite(values[:k]),
              np.r_[False, same & (val[1:] != val[:-1])][pos])
    j = np.append(np.flatnonzero(np.logical_or.reduce(checks)), k)[0]
    if j < len(rows):
        key, v = sorted(int(i) for i in rows[j]), float(values[j])
        raise ManifoldFormatError(
            f"index length mismatch: {key} has {len(key)} entries, expected {dim_n}" if j == k
            else f"index {key} out of range 1..{rank_m}" if checks[0][j]
            else f"non-finite value {v!r} for index {key}" if checks[1][j]
            else f"conflicting values for index {key}: {float(val[pos[j] - 1])} vs {v}"
        )
    keep = np.r_[True, ~same] & (val != 0.0)
    if not keep.any():
        raise ManifoldFormatError("all-zero form")
    return srt[keep], val[keep]


class IntersectionForm:
    """Sparse symmetric n-linear form, stored as sorted 1-based index rows
    `index` (K, n) in lexicographic order and their nonzero `values` (K,),
    from `coeffs`: a mapping, (index, value) pairs or (index rows, values array).
    Evaluation densifies once to a fully symmetric array, so symmetry holds.
    """

    def __init__(self, name: str, dim_n: int, rank_m: int, coeffs, labels: tuple = ()):
        if dim_n < 1 or rank_m < 1:
            raise ManifoldFormatError("dim and h11 must be positive integers")
        pairs = coeffs.items() if isinstance(coeffs, dict) else coeffs
        arrays = isinstance(pairs, tuple) and len(pairs) == 2 and isinstance(pairs[1], np.ndarray)
        rows, values = pairs if arrays else tuple(zip(*pairs)) or ((), ())
        self.name, self.dim_n, self.rank_m = name, dim_n, rank_m
        self.index, self.values = _normalize_coeffs(rows, values, dim_n, rank_m)
        self.labels = tuple(str(s) for s in labels)
        if self.labels and len(self.labels) != rank_m:
            raise ManifoldFormatError("labels length must equal h11")

    @cached_property
    def coeffs(self) -> dict:
        """{sorted 1-based index tuple: value}, in lexicographic order."""
        return dict(zip(map(tuple, self.index.tolist()), self.values.tolist()))

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
        t[tuple(self.index.T - 1)] = self.values
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
            t = t @ self._check_class(a)
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
        t = self._dense
        for _ in range(self.dim_n):
            # contract the leading axis with M; axes cycle back into place
            t = np.tensordot(t, mat, axes=([0], [0]))
        idx = np.array(list(combinations_with_replacement(range(mat.shape[1]), self.dim_n)))
        return IntersectionForm(name=f"{self.name}_pullback", dim_n=self.dim_n,
                                rank_m=mat.shape[1], coeffs=(idx + 1, t[tuple(idx.T)]))


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
    try:   # structure over whole lists; the loop below names the first bad entry
        rows, values = (list(map(itemgetter(key), entries)) for key in ("index", "value"))
        if not (set(map(type, rows)) <= {list} and set(map(type, values)) <= {int, float, str}
                and set(map(type, chain.from_iterable(rows))) <= {int}):
            raise TypeError
        values = np.array([_parse_value(v) if type(v) is str else v for v in values], dtype=float)
    except (TypeError, KeyError, OverflowError, ManifoldFormatError):
        for entry in entries:
            if not isinstance(entry, dict) or "index" not in entry or "value" not in entry:
                raise ManifoldFormatError(f"bad intersection entry {entry!r}") from None
            idx = entry["index"]
            if not isinstance(idx, list) or not all(type(i) is int for i in idx):
                raise ManifoldFormatError(f"bad index {idx!r}") from None
            _parse_value(entry["value"])
        raise
    labels = obj.get("labels", [])
    if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
        raise ManifoldFormatError(f"labels must be a list of strings, got {labels!r}")
    return IntersectionForm(
        name=name, dim_n=dim, rank_m=h11, coeffs=(rows, values), labels=tuple(labels)
    )


def load_manifold(path) -> IntersectionForm:
    with open(path, encoding="utf-8") as fh:
        return parse_manifold(fh.read())


def manifold_object(form: IntersectionForm) -> dict:
    """The manifold file of a form as the object serialize_manifold encodes."""
    entries = [{"index": i, "value": v} for i, v in zip(form.index.tolist(), form.values.tolist())]
    obj = {"name": form.name, "dim": form.dim_n, "h11": form.rank_m, "intersection": entries}
    if form.labels:
        obj["labels"] = list(form.labels)
    return obj


def serialize_manifold(form: IntersectionForm) -> str:
    """Canonical JSON for a form; parse(serialize(f)) reproduces f."""
    return json.dumps(manifold_object(form), indent=2)
