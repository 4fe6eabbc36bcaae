"""The verification suite runs its catalog entries in forked worker
processes; these tests pin that the parallel run is the serial one, and
how its checks score a failure."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

from kcone import verify
from kcone.catalog import ENTRIES, catalog_names, default_point
from kcone.cli import main
from kcone.errors import LeftCone
from kcone.verify import run_verification


def test_parallel_records_equal_single_entry_runs(monkeypatch):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    checks, all_pass = run_verification()
    singles = [run_verification([name])[0] for name in catalog_names()]
    expected = [c for single in singles for c in single if not c["name"].startswith("pullback:")]
    expected += [c for c in singles[0] if c["name"].startswith("pullback:")]
    assert checks == expected
    assert all_pass == all(c["pass"] for c in expected)


def test_parallel_cli_output_equals_serial(capsys, monkeypatch):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    code_parallel = main(["verify"])
    out_parallel = capsys.readouterr().out
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
    code_serial = main(["verify"])
    out_serial = capsys.readouterr().out
    assert code_parallel == code_serial == 0
    assert out_parallel == out_serial


def test_left_cone_in_a_worker_exits_2(capsys, monkeypatch):
    def leave_cone(P):
        raise LeftCone(0.25)

    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(verify, "hessian_deviation", leave_cone)
    code_all = main(["verify"])
    out_all = capsys.readouterr().out
    code_one = main(["verify", "P3"])   # one entry: no pool
    out_one = capsys.readouterr().out
    assert code_all == code_one == 2
    assert out_all == out_one
    report = json.loads(out_all)
    assert report["error"] == "LeftCone" and report["message"].endswith("t=0.25")


def test_probe_with_the_wrong_classification_scores_inf():
    probe = dataclasses.replace(ENTRIES["BLP2"].probe, expect="DIVERGENT")
    assert verify.probe_deviation(default_point("BLP2"), probe) == float("inf")


def test_importing_the_cli_loads_no_process_pool():
    # nor scipy or sympy: the package itself imports numpy only
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = ("import sys, kcone.cli; print(sorted(m for m in "
             "('concurrent.futures', 'multiprocessing', 'scipy', 'sympy') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"
