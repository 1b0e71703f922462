"""numpy is the one runtime dependency: no command imports scipy, and only
the commands that use the Fock engine import it.

scipy stays a test dependency, an independent reference for the tests, so
each check runs in a fresh interpreter.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCHEDULE = ["--gamma", "0.001", "--tau1", "1", "--omega", "0.9", "--tau2", "1",
            "--periods", "5"]


@pytest.mark.parametrize("statement", [
    'assert cli.main(["sweep", "--cross-check", "--gamma-tau1", "0", "1", "3",'
    ' "--omega-tau2", "0", "3", "3"]) == 0',
    f'assert cli.main(["simulate", "--backend", "both", "--cutoff", "4", *{SCHEDULE!r}]) == 0',
    # 5000 periods of JSON: blocks of thousands of distinct floats, the kernel's shortest mode
    'assert cli.main(["simulate", "--gamma", "0.05", "--tau1", "1", "--omega", "0.3",'
    ' "--tau2", "1", "--periods", "5000", "--format", "json"]) == 0'
    ' and "zenofloquet._g17" in sys.modules',
    'assert cli.main(["estimate", "--eta", "377", "--chi2", "1e-22", "--omega-a", "3e15",'
    ' "--omega-b", "3e15", "--pump-intensity", "1e10", "--length", "0.01"]) == 0',
    'assert len(fock.zeno_threshold_scan(0.2, [0.5, 2.0], periods=2)) == 2',
], ids=["sweep-cross-check", "simulate-both", "simulate-json", "estimate", "zeno-scan"])
def test_runs_without_scipy(statement):
    script = textwrap.dedent(f"""
        import contextlib, io, sys
        from zenofloquet import cli, fock
        with contextlib.redirect_stdout(io.StringIO()):
            {statement}
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [dep.split(">")[0] for dep in project["dependencies"]] == ["numpy"]


@pytest.mark.parametrize("argv", [
    ["sweep", "--cross-check", "--gamma-tau1", "0", "1", "3", "--omega-tau2", "0", "3", "3"],
    ["estimate", "--eta", "377", "--chi2", "1e-22", "--omega-a", "3e15", "--omega-b", "3e15",
     "--pump-intensity", "1e10", "--length", "0.01"],
], ids=["sweep", "estimate"])
def test_fock_is_imported_only_where_used(argv):
    """A sweep and an estimate never load the Fock engine; the package still
    serves it, both as ``from zenofloquet import fock`` and as an attribute."""
    script = textwrap.dedent(f"""
        import contextlib, io, sys
        import zenofloquet
        from zenofloquet import cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main({argv!r}) == 0
        assert "zenofloquet.fock" not in sys.modules
        from zenofloquet import fock
        assert zenofloquet.fock is fock is sys.modules["zenofloquet.fock"]
        assert fock.MAX_CUTOFF
        print("ok")
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
