"""Checks on the benchmark's own inputs and metric lists.

Run with `python -m pytest -q bench/test_synm.py` from a checkout root.
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import synm  # noqa: E402
from kcone import ConePoint, algebra_at, derived_curvatures, parse_manifold  # noqa: E402

ALL_RANKS = sorted(set(run.RANKS) | set(run.CLI_RANKS))
SEEDS = (0, 1, 17)
RTOL = run.load_reference()["rtol"]


def test_same_seed_gives_identical_files(tmp_path):
    first = synm.write_synm(str(tmp_path / "a"), ALL_RANKS, seed=5)
    second = synm.write_synm(str(tmp_path / "b"), ALL_RANKS, seed=5)
    for m in ALL_RANKS:
        with open(first[m], "rb") as fa, open(second[m], "rb") as fb:
            assert fa.read() == fb.read()


def test_seeds_give_different_files():
    assert synm.synm_text(12, 1) != synm.synm_text(12, 2)
    assert synm.synm_text(12, 1) != synm.synm_text(12, None)


@pytest.mark.parametrize("seed", SEEDS)
def test_every_synm_admissible_at_e1(seed):
    for m in ALL_RANKS:
        form = parse_manifold(synm.synm_text(m, seed))
        P = ConePoint(form, np.eye(m)[0])
        assert P.vol > 0.0
    assert ConePoint(parse_manifold(synm.synm_text(12, seed, perturbed=False)), np.eye(12)[0])


def test_sym12_derivation_dimension_is_so11():
    assert run.load_reference()["symm"]["12"]["derivation_dim"] == 11 * 10 // 2
    P = ConePoint(parse_manifold(synm.synm_text(12, 17, perturbed=False)), np.eye(12)[0])
    assert len(algebra_at(P).derivations()) == 55


def test_cubic_terms_give_the_library_volume(tmp_path):
    m = 12
    path = synm.write_synm(str(tmp_path), [m], seed=3)[m]
    idx, coef = run.cubic_terms(path)
    omega = np.eye(m)[0] + 0.1 * np.random.default_rng(0).standard_normal(m)
    P = ConePoint(parse_manifold(synm.synm_text(m, 3)), omega)
    assert np.isclose(coef @ np.prod(omega[idx], axis=1) / 6.0, P.vol, rtol=1e-12)


def test_cli_mix_has_equal_calls_per_cell():
    ctx = run.Context("cli_calls", 4)
    counts = {}
    for call in ctx.cli_mix:
        if call["expect"] != 0:
            continue
        token = call["argv"][1]
        cls = os.path.basename(token)[:-5] if token.endswith(".json") else "catalog"
        counts[(call["sub"], cls)] = counts.get((call["sub"], cls), 0) + 1
    cells = {(sub, cls) for sub in run.CLI_ANY_FORM for cls in run.CLI_CLASSES}
    cells -= set(run.CLI_SKIPPED)
    cells |= {("probe", "catalog"), ("pullback", "catalog")}
    assert counts == {cell: run.CALLS_PER_CELL for cell in cells}


@pytest.mark.parametrize("seed", SEEDS)
def test_relabelling_maps_reference_values(seed):
    m = 12
    ref = run.load_reference()["synm"][str(m)]
    perm, signs = synm.relabelling(m, seed)
    dc = derived_curvatures(ConePoint(parse_manifold(synm.synm_text(m, seed)), np.eye(m)[0]))
    assert run.close(dc.scalar, ref["scalar"], RTOL)
    assert run.close(np.diag(dc.ricci), np.asarray(ref["ricci_diag"])[perm], RTOL)
    base = derived_curvatures(ConePoint(parse_manifold(synm.synm_text(m, None)), np.eye(m)[0]))
    expected = base.ricci[np.ix_(perm, perm)] * np.outer(signs, signs)
    assert run.close(dc.ricci, expected, RTOL)


def test_benchmark_json_matches_emitted_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
