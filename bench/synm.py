"""Seeded generator for the synthetic SYNm manifold files.

SYNm is an admissible n = 3 intersection form of rank m:

    kappa_111 = 6,  kappa_1jj = -1 for j >= 2,

plus 0.05 * N(0, 1) on about 30% of the sorted index triples, drawn from
``numpy.random.default_rng(0)`` so the perturbation is the one the
ROADMAP baseline used.  The workload seed then relabels the basis: it
permutes e_2 .. e_m and flips their signs, keeping e_1 fixed.  Every
seed therefore gives a different file (different index order, signs and
summation order inside the library) describing the same geometry at
omega = e_1, so reference values stored once in ``reference.json`` check
the outputs for any seed:

    scalar and lambda are invariant,
    Ric'[a, b] = s_a s_b Ric[p(a), p(b)],
    K'(e_a, e_b) = K(e_p(a), e_p(b)),

where e'_a = s_a e_p(a) is the relabelled basis.

SYMm is SYNm without the perturbation.  Its O(m - 1) symmetry fixing e_1
gives it a derivation algebra of known dimension (m - 1)(m - 2) / 2, where
the perturbed SYNm has none.
"""

from __future__ import annotations

import json
import os
from itertools import combinations_with_replacement

import numpy as np

NOISE_SCALE = 0.05
NOISE_SHARE = 0.3


def base_coeffs(m: int, perturbed: bool = True) -> dict:
    """Sorted 1-based triple -> value of the unrelabelled SYNm (SYMm when
    not perturbed)."""
    triples = list(combinations_with_replacement(range(1, m + 1), 3))
    rng = np.random.default_rng(0)
    mask = rng.random(len(triples)) < NOISE_SHARE
    noise = NOISE_SCALE * rng.standard_normal(len(triples))
    coeffs = {}
    for t, hit, eps in zip(triples, mask, noise):
        base = 6.0 if t == (1, 1, 1) else (-1.0 if t[0] == 1 and t[1] == t[2] else 0.0)
        val = base + (float(eps) if hit and perturbed else 0.0)
        if val != 0.0:
            coeffs[t] = val
    return coeffs


def relabelling(m: int, seed: int):
    """(perm, signs): new basis vector a (0-based) is signs[a] * e_perm[a]."""
    rng = np.random.default_rng([seed, m])
    perm = np.concatenate([[0], 1 + rng.permutation(m - 1)])
    signs = np.concatenate([[1.0], rng.choice([-1.0, 1.0], size=m - 1)])
    return perm, signs


def synm_text(m: int, seed, perturbed: bool = True) -> str:
    """Manifold file text of SYNm (SYMm when not perturbed) relabelled by
    ``seed`` (None: unrelabelled)."""
    if seed is None:
        perm, signs = np.arange(m), np.ones(m)
    else:
        perm, signs = relabelling(m, seed)
    inverse = np.argsort(perm)
    coeffs = {}
    for old, val in base_coeffs(m, perturbed).items():
        new = tuple(sorted(int(inverse[i - 1]) + 1 for i in old))
        coeffs[new] = val * float(np.prod([signs[i - 1] for i in new]))
    entries = [{"index": list(k), "value": v} for k, v in sorted(coeffs.items())]
    name = f"SYN{m}" if perturbed else f"SYM{m}"
    obj = {"name": name, "dim": 3, "h11": m, "intersection": entries}
    return json.dumps(obj, separators=(",", ":")) + "\n"


def write_synm(out_dir: str, ms, seed: int, perturbed: bool = True) -> dict:
    """Write SYN<m>.json (SYM<m>.json) for each m into out_dir; return {m: path}."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for m in ms:
        path = os.path.join(out_dir, f"{'SYN' if perturbed else 'SYM'}{m}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(synm_text(m, seed, perturbed))
        paths[m] = path
    return paths
