"""Write bench/reference.json: the values the benchmark checks outputs against.

Run once from a checkout root on the commit that defines the benchmark:

    python3 bench/make_reference.py

The SYNm and SYM12 values are computed on the unrelabelled forms
(synm.synm_text with seed None); run.py maps them to any seed's relabelled
basis.  The verify check names are the ordered list `kcone verify` reports.
"""

import json
import os
import sys

import numpy as np

import synm

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from kcone import ConePoint, algebra_at, derived_curvatures, parse_manifold  # noqa: E402
from kcone.verify import run_verification  # noqa: E402

# relative tolerance for reference comparisons: roundoff from a changed
# summation order is about 1e-15 relative; any change of formula is far larger
RTOL = 1e-9


def synm_reference(m):
    P = ConePoint(parse_manifold(synm.synm_text(m, None)), np.eye(m)[0])
    dc = derived_curvatures(P)
    eye = np.eye(m)
    pairs = [(0, 1), (1, 2), (2, 3), (1, m - 1), (m - 2, m - 1), (3, m - 2),
             (m // 2, m - 1), (0, m - 1)]
    out = {
        "scalar": dc.scalar,
        "ricci_diag": np.diag(dc.ricci).tolist(),
        "ricci_fro": float(np.linalg.norm(dc.ricci)),
        "sectional": [[a, b, dc.sectional(eye[a], eye[b])] for a, b in pairs],
    }
    if m <= 48:
        out["lambda"] = algebra_at(P).constant_curvature_test().lam
    if m <= 24:
        out["derivation_dim"] = len(algebra_at(P).derivations())
    return out


def main():
    checks, all_pass = run_verification()
    if not all_pass:
        raise SystemExit("verify does not pass; refusing to write a reference")
    ref = {
        "rtol": RTOL,
        "verify_check_names": [c["name"] for c in checks],
        "synm": {str(m): synm_reference(m) for m in (6, 12, 24, 48, 96)},
        "symm": {"12": {"derivation_dim": len(algebra_at(ConePoint(
            parse_manifold(synm.synm_text(12, None, perturbed=False)), np.eye(12)[0]
        )).derivations())}},
    }
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
