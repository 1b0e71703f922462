"""The CLI's output, case by case: each case of ``cli_manifest.json`` reruns
one command line and compares its exit code and stdout with the record.

A case whose output holds no Fock-backend numbers (``"pin": "sha256"``)
pins the sha256 of stdout.  A case that prints Fock numbers
(``"pin": "table"``) pins the table instead, since BLAS rounding moves their
last digits from one machine to the next: the meta lines (``status``
included), the header and every text cell exactly, and every number to
1e-12 relative.  A change that alters the output on purpose rerecords the
manifest with

    PYTHONPATH=src python tests/test_cli_manifest.py

and names the changed cases in its change notes.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from zenofloquet import cli

MANIFEST = Path(__file__).with_name("cli_manifest.json")
CASES = json.loads(MANIFEST.read_text(encoding="utf-8"))
#: Relative tolerance of a pinned Fock number; the absolute floor covers
#: the rounding-noise columns (``norm_drift``, ``leakage``, ``delta_*``).
REL_TOL, ABS_TOL = 1e-12, 1e-13


def run_case(case, workdir):
    """``(exit code, stdout)`` of the case's command line, its config (if
    any) written to ``workdir`` and passed with ``--config``."""
    argv = list(case["argv"])
    if "config" in case:
        path = Path(workdir) / "config.json"
        path.write_text(json.dumps(case["config"]), encoding="utf-8")
        argv += ["--config", str(path)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, stdout.getvalue()


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def parse_table(stdout):
    """``{"meta", "header", "rows"}`` of a CSV or JSON table, each CSV cell
    that reads as a number as a float."""
    if stdout.startswith("{"):
        payload = json.loads(stdout)
        rows = payload["rows"]
        return {"meta": payload["meta"], "header": list(rows[0]) if rows else [],
                "rows": [list(row.values()) for row in rows]}
    lines = stdout.splitlines()
    meta = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
    header, *rows = csv.reader(line for line in lines if not line.startswith("# "))
    return {"meta": meta, "header": header,
            "rows": [[_cell(text) for text in row] for row in rows]}


def record(case, code, stdout):
    """What the manifest pins of one run of ``case``."""
    if case["pin"] == "sha256":
        return {"exit": code,
                "stdout_sha256": hashlib.sha256(stdout.encode("utf-8")).hexdigest()}
    return {"exit": code, **parse_table(stdout)}


def _same_cell(got, want):
    if isinstance(want, str) or isinstance(got, str):
        return got == want
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)


@pytest.mark.parametrize("case", CASES, ids=[case["id"] for case in CASES])
def test_cli_output_matches_manifest(case, tmp_path):
    got = record(case, *run_case(case, tmp_path))
    want = {key: case[key] for key in got}
    if case["pin"] == "sha256":
        assert got == want
        return
    for key in ("exit", "meta", "header"):
        assert got[key] == want[key], key
    assert len(got["rows"]) == len(want["rows"])
    for k, (row, expected) in enumerate(zip(got["rows"], want["rows"])):
        assert len(row) == len(expected)
        bad = [(name, g, w) for name, g, w in zip(got["header"], row, expected)
               if not _same_cell(g, w)]
        assert not bad, (k, bad)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        cases = [{key: value for key, value in case.items()
                  if key in ("id", "argv", "config", "pin")} for case in CASES]
        for case in cases:
            case.update(record(case, *run_case(case, workdir)))
    MANIFEST.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    sys.exit(0)
