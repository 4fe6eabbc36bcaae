import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
         str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.strip()


def test_readme_python_examples_run(capsys):
    """Both python blocks of the README, run in one namespace, give the
    values their comments promise."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = [part.split("```", 1)[0] for part in text.split("```python\n")[1:]]
    assert len(blocks) == 2
    ns = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), ns)
    assert ns["dc"].sectional(ns["e2"], ns["e3"]) == pytest.approx(-0.5, abs=1e-12)
    assert ns["dc"].scalar == pytest.approx(-1.0, abs=1e-12)
    assert ns["R"][1, 2, 2, 1] == pytest.approx(-2.0, abs=1e-12)
    assert ns["path"].speed_drift < 1e-12
    assert ns["rep"].classification == "DIVERGENT"
    assert ns["rep"].ts[-1] == 2**-10
