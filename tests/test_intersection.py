import json

import numpy as np
import pytest

from kcone.catalog import CATALOG, get_form
from kcone.errors import ManifoldFormatError
from kcone.intersection import IntersectionForm, parse_manifold, serialize_manifold

P1XP1_FILE = json.dumps(
    {
        "name": "P1XP1",
        "dim": 2,
        "h11": 2,
        "intersection": [{"index": [1, 2], "value": 1}],
        "labels": ["h1", "h2"],
    }
)


def test_parse_catalog_file():
    form = parse_manifold(P1XP1_FILE)
    assert form.dim_n == 2 and form.rank_m == 2
    assert form.coeffs == {(1, 2): 1.0}
    assert form.labels == ("h1", "h2")


def test_unknown_catalog_name():
    with pytest.raises(KeyError, match="unknown catalog form 'NOPE'"):
        get_form("NOPE")


def test_parse_rational_values():
    text = json.dumps(
        {"name": "X", "dim": 2, "h11": 1, "intersection": [{"index": [1, 1], "value": "5/2"}]}
    )
    assert parse_manifold(text).coeffs[(1, 1)] == 2.5


def test_parse_index_length_mismatch():
    text = json.dumps(
        {"name": "X", "dim": 2, "h11": 3, "intersection": [{"index": [1, 2, 3], "value": 1}]}
    )
    with pytest.raises(ManifoldFormatError, match="index length"):
        parse_manifold(text)


def test_parse_symmetric_duplicates_merge():
    text = json.dumps(
        {
            "name": "X",
            "dim": 2,
            "h11": 2,
            "intersection": [
                {"index": [2, 1], "value": 1},
                {"index": [1, 2], "value": 1},
            ],
        }
    )
    assert parse_manifold(text).coeffs == {(1, 2): 1.0}


def test_parse_conflicting_duplicates():
    # the same index given twice, in another order and then verbatim
    for first in ([2, 1], [1, 2]):
        text = json.dumps(
            {
                "name": "X",
                "dim": 2,
                "h11": 2,
                "intersection": [
                    {"index": first, "value": 1},
                    {"index": [1, 2], "value": 2},
                ],
            }
        )
        with pytest.raises(ManifoldFormatError, match="conflicting"):
            parse_manifold(text)


def test_parse_index_out_of_range():
    text = json.dumps(
        {"name": "X", "dim": 2, "h11": 2, "intersection": [{"index": [1, 3], "value": 1}]}
    )
    with pytest.raises(ManifoldFormatError, match="out of range"):
        parse_manifold(text)


def test_parse_all_zero_form():
    text = json.dumps(
        {"name": "X", "dim": 2, "h11": 2, "intersection": [{"index": [1, 1], "value": 0}]}
    )
    with pytest.raises(ManifoldFormatError, match="all-zero"):
        parse_manifold(text)


def test_parse_not_json():
    with pytest.raises(ManifoldFormatError, match="JSON"):
        parse_manifold("{nope")


def test_parse_missing_field():
    with pytest.raises(ManifoldFormatError, match="missing"):
        parse_manifold(json.dumps({"name": "X", "dim": 2, "h11": 2}))


@pytest.mark.parametrize("labels", [5, "ab", [None, {"a": 1}]])
def test_parse_rejects_labels_that_are_not_a_list_of_strings(labels):
    obj = json.loads(P1XP1_FILE)
    obj["labels"] = labels
    with pytest.raises(ManifoldFormatError, match="labels must be a list of strings"):
        parse_manifold(json.dumps(obj))


def test_serialize_roundtrip():
    form = parse_manifold(P1XP1_FILE)
    again = parse_manifold(serialize_manifold(form))
    assert again.coeffs == form.coeffs
    assert (again.name, again.dim_n, again.rank_m, again.labels) == (
        form.name,
        form.dim_n,
        form.rank_m,
        form.labels,
    )
    # serialization is canonical, so a second pass is byte-identical
    assert serialize_manifold(again) == serialize_manifold(form)


def test_evaluate_examples():
    p1 = CATALOG["P1XP1"]
    h1, h2 = np.eye(2)
    assert p1.evaluate(h1, h2) == 1.0
    # bilinear expansion: (h1+h2, h1+h2) = 0 + 1 + 1 + 0
    assert p1.evaluate(h1 + h2, h1 + h2) == pytest.approx(2.0, abs=1e-15)
    quintic = CATALOG["QUINTIC"]
    e = np.ones(1)
    assert quintic.evaluate(e, e, e) == 5.0


def test_evaluate_argument_count():
    with pytest.raises(ValueError, match="expected 2"):
        CATALOG["P1XP1"].evaluate(np.ones(2))


def test_evaluate_permutation_invariance():
    form = CATALOG["CY3GEN"]
    rng = np.random.default_rng(0)
    args = [rng.uniform(-1, 1, 2) for _ in range(3)]
    base = form.evaluate(*args)
    for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
        assert form.evaluate(*(args[i] for i in perm)) == pytest.approx(base, abs=1e-12)


def test_evaluate_multilinearity():
    form = CATALOG["LOR3"]
    rng = np.random.default_rng(1)
    a, b, c = (rng.uniform(-1, 1, 3) for _ in range(3))
    lam = 0.7
    lhs = form.evaluate(a + lam * b, c)
    assert lhs == pytest.approx(form.evaluate(a, c) + lam * form.evaluate(b, c), abs=1e-12)


def test_volume_examples():
    assert CATALOG["P1XP1"].volume(np.array([1.0, 1.0])) == pytest.approx(1.0)
    assert CATALOG["QUINTIC"].volume(np.ones(1)) == pytest.approx(5.0 / 6.0)


def test_volume_homogeneity():
    for name, form in CATALOG.items():
        rng = np.random.default_rng(2)
        omega = rng.uniform(0.5, 1.5, form.rank_m)
        base = form.volume(omega)
        for t in (0.5, 2.0, 3.0):
            assert form.volume(t * omega) == pytest.approx(
                t**form.dim_n * base, rel=1e-12
            )


def test_pullback_identity():
    form = CATALOG["P1XP1"]
    assert form.pullback(np.eye(2)).coeffs == form.coeffs


def test_pullback_swap_fixes_form():
    form = CATALOG["P1XP1"]
    swapped = form.pullback(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert swapped.coeffs == form.coeffs


def test_pullback_rank_change():
    # pull the product form back along the diagonal line: c'(1,1) = c(w, w) = 2
    form = CATALOG["P1XP1"]
    line = form.pullback(np.array([[1.0], [1.0]]))
    assert line.rank_m == 1
    assert line.coeffs == {(1, 1): 2.0}


def test_pullback_dimension_mismatch():
    with pytest.raises(ValueError, match="rows"):
        CATALOG["P1XP1"].pullback(np.eye(3))


def test_direct_construction_normalizes_indices():
    form = IntersectionForm(name="X", dim_n=2, rank_m=2, coeffs={(2, 1): 3.0})
    assert form.coeffs == {(1, 2): 3.0}


def test_parse_rejects_boolean_integers():
    for field in ("dim", "h11"):
        obj = json.loads(P1XP1_FILE)
        obj[field] = True
        with pytest.raises(ManifoldFormatError, match="integers"):
            parse_manifold(json.dumps(obj))
    obj = json.loads(P1XP1_FILE)
    obj["intersection"][0]["index"] = [True, 2]
    with pytest.raises(ManifoldFormatError, match="bad index"):
        parse_manifold(json.dumps(obj))


@pytest.mark.parametrize("value", [float("inf"), float("nan"), "1e999", 10**400])
def test_non_finite_coefficients_rejected(value):
    obj = json.loads(P1XP1_FILE)
    obj["intersection"][0]["value"] = value
    with pytest.raises(ManifoldFormatError):
        parse_manifold(json.dumps(obj))
    if isinstance(value, float):
        with pytest.raises(ManifoldFormatError, match="non-finite"):
            IntersectionForm(name="X", dim_n=2, rank_m=2, coeffs={(1, 2): value})


def test_dense_matches_permutation_loop(dense_by_permutations):
    for form in CATALOG.values():
        assert np.array_equal(form._dense, dense_by_permutations(form))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda obj: [obj], "top level must be a JSON object"),
        (lambda obj: {**obj, "name": ""}, "name must be a nonempty string"),
        (lambda obj: {**obj, "dim": 0}, "dim and h11 must be positive integers"),
        (lambda obj: {**obj, "intersection": [{"index": [1, 2], "value": True}]},
         "bad value True"),
        (lambda obj: {**obj, "labels": ["h1"]}, "labels length must equal h11"),
        (lambda obj: {**obj, "intersection": {"index": [1, 2], "value": 1}},
         "intersection must be a list"),
        (lambda obj: {**obj, "intersection": [[1, 2]]}, "bad intersection entry"),
    ],
    ids=["top-level", "empty-name", "dim-zero", "boolean-value", "labels-length",
         "intersection-not-list", "entry-not-dict"],
)
def test_parse_rejects_malformed_files(edit, message):
    with pytest.raises(ManifoldFormatError, match=message):
        parse_manifold(json.dumps(edit(json.loads(P1XP1_FILE))))
