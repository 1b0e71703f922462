"""Every demo script, and the package run as a module, exits cleanly; the
README's Python quick start holds what its comments claim."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from zenofloquet import Classification

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo, tmp_path):
    """Each demo exits 0 with empty stderr, so that a numpy warning from the
    Fock or Gaussian engines (which the zeno_threshold and gaussian_vs_fock
    demos drive end to end) fails here."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


@pytest.mark.parametrize("module", ["zenofloquet", "zenofloquet.cli"])
def test_module_run_is_quiet(module, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", module, "--help"], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "simulate" in proc.stdout


def test_readme_quick_start_claims():
    """Runs the ``## Quick start`` block and checks its three commented
    claims: the verdict is stable, the photon total stays below 0.03, and the
    Fock and Gaussian photon numbers agree far below 1e-12."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Quick start\n")[1].split("```python\n")[1].split("```")[0]
    printed = []
    exec(block, {"print": lambda *args: printed.append(args)})
    (report,), (max_total,), (difference,) = printed
    assert report.classification is Classification.STABLE
    assert round(report.half_trace, 3) == 0.543
    assert 0.0 < max_total < 0.03
    assert difference < 1e-12
