import itertools
import json
from collections import Counter
from fractions import Fraction
from math import factorial, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcone import cli
from kcone.catalog import CATALOG, catalog_names, default_omega, get_form
from kcone.errors import ManifoldFormatError
from kcone.intersection import (
    IntersectionForm,
    _normalize_coeffs,
    _parse_value,
    parse_manifold,
    serialize_manifold,
)

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


def _expand(form, classes):
    """evaluate by the multinomial sum over the stored sorted rows, without
    _dense: each row idx with value v adds v prod_s classes[s][p_s] for every
    distinct arrangement p of idx.  Returns the sum and the sum of |terms|."""
    terms = [v * prod(a[i - 1] for a, i in zip(classes, p))
             for idx, v in zip(form.index.tolist(), form.values.tolist())
             for p in set(itertools.permutations(idx))]
    return sum(terms), sum(map(abs, terms))


def _expand_volume(form, omega, number=float):
    """volume by the multinomial count: each row idx with value v adds
    v prod omega[idx] / prod_j mult_j!, its n!/prod mult_j! arrangements over n!."""
    terms = [number(v) * prod(number(float(omega[i - 1])) for i in idx)
             / prod(factorial(c) for c in Counter(idx).values())
             for idx, v in zip(form.index.tolist(), form.values.tolist())]
    return sum(terms), sum(map(abs, terms))


def _assert_matches_expansion(form, classes):
    got, (ref, scale) = form.evaluate(*classes), _expand(form, classes)
    assert abs(got - ref) <= 1e-13 * scale, (form, classes)
    got, (ref, scale) = form.volume(classes[0]), _expand_volume(form, classes[0])
    assert abs(got - ref) <= 1e-13 * scale, (form, classes[0])


def test_evaluate_matches_multinomial_expansion_on_catalog():
    rng = np.random.default_rng(6)
    for name in catalog_names():
        form, omega = get_form(name), default_omega(name)
        _assert_matches_expansion(form, [omega] * form.dim_n)
        for _ in range(5):
            _assert_matches_expansion(form, list(rng.uniform(-2, 2, (form.dim_n, form.rank_m))))
        # the FD Hessian oracle differentiates volume: at every default point it
        # is the correctly rounded exact sum
        exact = _expand_volume(form, omega, Fraction)[0]
        assert form.volume(omega) == float(exact), name


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_evaluate_matches_multinomial_expansion_on_random_forms(n, m, seed):
    rng = np.random.default_rng(seed)
    indices = list(itertools.combinations_with_replacement(range(1, m + 1), n))
    keep = rng.random(len(indices)) < 0.6
    keep[rng.integers(len(indices))] = True
    form = IntersectionForm("RANDOM", n, m, {idx: rng.standard_normal()
                                             for idx, k in zip(indices, keep) if k})
    _assert_matches_expansion(form, list(rng.standard_normal((n, m))))


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


def _file(h11, entries, dim=2):
    """Manifold file text with (index, value) entries."""
    return json.dumps({"name": "X", "dim": dim, "h11": h11,
                       "intersection": [{"index": i, "value": v} for i, v in entries]})


@st.composite
def entry_lists(draw):
    """(dim, h11, entries): unsorted indices, zeros, rational strings, and
    duplicates that repeat an earlier entry's value under another order;
    unless agreement is drawn, independent draws of one index may conflict."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    value = st.one_of(
        st.integers(-3, 3),
        st.floats(-4.0, 4.0),
        st.builds(lambda p, q: f"{p}/{q}", st.integers(-9, 9), st.integers(1, 9)),
    )
    entries = draw(st.lists(st.tuples(st.lists(st.integers(1, m), min_size=n, max_size=n),
                                       value), min_size=1, max_size=12))
    if draw(st.booleans()):   # agree: every index keeps its first value
        first = {}
        entries = [(idx, first.setdefault(tuple(sorted(idx)), val)) for idx, val in entries]
    for k in draw(st.lists(st.integers(0, len(entries) - 1), max_size=6)):
        idx, val = entries[k]
        entries.append((draw(st.permutations(idx)), val))
    return n, m, draw(st.permutations(entries))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(entry_lists())
def test_parse_matches_the_per_entry_normalizer(
    normalize_coeffs_reference, dense_by_permutations, case
):
    n, m, entries = case
    text = _file(m, entries, dim=n)
    pairs = [(idx, _parse_value(val)) for idx, val in entries]
    try:
        expected = normalize_coeffs_reference(pairs, n, m)
    except ManifoldFormatError as exc:
        with pytest.raises(ManifoldFormatError) as got:
            parse_manifold(text)
        assert str(got.value) == str(exc)
        return
    form = parse_manifold(text)
    # keys, order, values and their types
    assert repr(list(form.coeffs.items())) == repr(list(expected.items()))
    assert form._dense.tobytes() == dense_by_permutations(form).tobytes()


LONG = [([1, 3], 1)] + [([1 + k % 2, 2 - k % 2], 1) for k in range(2000)]


@pytest.mark.parametrize(
    "h11, dim, entries, message",
    [
        (2, 2, [([1, 3], 1), ([1, 1], "x")], "bad value 'x'"),
        (2, 2, [([1, 1], 1), ([1, 2**70], 1), ([1, 3], 1)],
         "index [1, 1180591620717411303424] out of range 1..2"),
        (2, 2, [([1, 2], 1), ([1, -2**70], 1), ([3, 1], 1)],
         "index [-1180591620717411303424, 1] out of range 1..2"),
        (2**70, 2, [([1, 2], 1), ([0, 2**71], 1), ([2**72, 1], 1)],
         "index [0, 2361183241434822606848] out of range 1..1180591620717411303424"),
        (2**70, 2, [([1, 2**70], 1), ([2**70, 1], 2), ([0, 1], 1)],
         "conflicting values for index [1, 1180591620717411303424]: 1.0 vs 2.0"),
        (2, 2, LONG + [([1, True], 1), ([1, 2], "x")], "bad index [1, True]"),
        (2, 2, [([2, 1], 1), ([1, 2, 2], 1), ([1, 3], 1)],
         "index length mismatch: [1, 2, 2] has 3 entries, expected 2"),
        (2, 2, [([2, 1], 1), ([1, 3], 1), ([1], 1)], "index [1, 3] out of range 1..2"),
        (3, 3, [([3, 2, 1], 1), ([], 1), ([1, 2, 4], 1)],
         "index length mismatch: [] has 0 entries, expected 3"),
        (2, 2, [([1, 2], 1), ([2, 1], 1), ([1, 2], 2), ([1, 3], 1)],
         "conflicting values for index [1, 2]: 1.0 vs 2.0"),
        (2, 2, [([1, 2], 0), ([2, 1], -0.0), ([1, 2], 1)],
         "conflicting values for index [1, 2]: -0.0 vs 1.0"),
        (2, 2, [([1, 2], 1), ([1, 1], float("inf")), ([2, 1], 2)],
         "non-finite value inf for index [1, 1]"),
        (2, 2, [([1, 2], 1), ([3, 1], float("nan")), ([2, 1], 2)],
         "index [1, 3] out of range 1..2"),
        (2, 2, [([1, 3], 1), ([1, 2], 10**400)], f"bad value {10**400}"),
        (2, 2, [([1, 1], 0), ([2, 2], "0/5")], "all-zero form"),
    ],
    ids=["structure-before-range", "int64-overflow", "int64-overflow-negative",
         "h11-beyond-int64", "conflict-beyond-int64", "bool-deep-in-long-file", "ragged",
         "range-before-ragged", "ragged-empty", "conflict-after-agreeing-duplicate",
         "conflict-after-signed-zeros", "non-finite-before-conflict", "range-before-non-finite",
         "huge-int-value",
         "all-zero"],
)
def test_parse_reports_the_first_bad_entry(h11, dim, entries, message):
    with pytest.raises(ManifoldFormatError) as exc:
        parse_manifold(_file(h11, entries, dim))
    assert str(exc.value) == message


def test_info_matches_reference_serializer(
    tmp_path, capsys, monkeypatch, normalize_coeffs_reference, serialize_manifold_reference
):
    # 6,000 unsorted n = 3 entries over h11 = 40: repeats agree (the value is
    # a function of the sorted index) and about a tenth of the values are zero
    m, rng = 40, np.random.default_rng(19)
    table = np.where(rng.random(m**3) < 0.1, 0.0, rng.standard_normal(m**3))
    rows = rng.integers(1, m + 1, size=(6000, 3))
    srt = np.sort(rows, axis=1) - 1
    values = table[(srt[:, 0] * m + srt[:, 1]) * m + srt[:, 2]]
    entries = list(zip(rows.tolist(), values.tolist()))
    path = tmp_path / "big.json"
    path.write_text(json.dumps({**json.loads(_file(m, entries, dim=3)),
                                "labels": [f"D{i}" for i in range(m)]}))
    assert cli.main(["info", str(path)]) == 0
    got = capsys.readouterr().out
    coeffs = normalize_coeffs_reference(entries, 3, m)
    monkeypatch.setattr(cli, "manifold_object",
                        lambda form: json.loads(serialize_manifold_reference(form, coeffs)))
    assert cli.main(["info", str(path)]) == 0
    assert got == capsys.readouterr().out


def test_sorted_and_shuffled_rows_normalize_alike(normalize_coeffs_reference):
    # SYN-like rows in order, as serialize_manifold writes them, with agreeing
    # duplicates written in another index order next to their row
    m, rng = 12, np.random.default_rng(19)
    pairs = [(list(t), float(rng.standard_normal()))
             for t in itertools.combinations_with_replacement(range(1, m + 1), 3)
             if rng.random() < 0.3]
    for i in (len(pairs) - 1, 40, 7, 0):
        pairs.insert(i + 1, (pairs[i][0][::-1], pairs[i][1]))
    shuffled = [pairs[i] for i in rng.permutation(len(pairs))]
    # a conflicting duplicate of row 7, after it in both orders
    j = next(i for i, p in enumerate(shuffled) if p[0] == pairs[7][0])
    conflict = (pairs[7][0][::-1], pairs[7][1] + 1.0)
    cases = {"sorted": pairs, "shuffled": shuffled,
             "sorted-conflict": pairs[:8] + [conflict] + pairs[8:],
             "shuffled-conflict": shuffled[:j + 1] + [conflict] + shuffled[j + 1:]}
    results = {}
    for name, case in cases.items():
        try:
            rows, values = map(list, zip(*case))
            results[name] = _normalize_coeffs(rows, values, 3, m)
        except ManifoldFormatError as exc:
            results[name] = str(exc)
        try:
            expected = normalize_coeffs_reference(case, 3, m)
        except ManifoldFormatError as exc:
            assert results[name] == str(exc)
        else:
            assert list(map(tuple, results[name][0].tolist())) == list(expected)
            assert results[name][1].tolist() == list(expected.values())
    (idx, val), (idx2, val2) = results["sorted"], results["shuffled"]
    assert idx.dtype == idx2.dtype and np.array_equal(idx, idx2) and np.array_equal(val, val2)
    assert results["sorted-conflict"] == results["shuffled-conflict"]
    assert results["sorted-conflict"].startswith("conflicting values for index")
