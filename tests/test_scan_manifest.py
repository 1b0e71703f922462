"""The Zeno scan's output, scan by scan: each scan of ``scan_manifest.json``
reruns one ``fock.zeno_threshold_scan`` call and compares its points with
the record.

Every point's ``omega_tau2``, outcome and ``periods_run`` are pinned exactly,
and its ``n_final`` to 1e-12 relative, with the 1e-13 absolute floor of
``test_cli_manifest.py``: BLAS rounding moves the last digits of Fock numbers
from one machine, or one summation order, to the next.  A change that alters
the scan on purpose rerecords the manifest with

    PYTHONPATH=src python tests/test_scan_manifest.py

and names the changed scans in its change notes.
"""

import json
import math
import sys
from pathlib import Path

import pytest

from zenofloquet import fock

MANIFEST = Path(__file__).with_name("scan_manifest.json")
SCANS = json.loads(MANIFEST.read_text(encoding="utf-8"))
REL_TOL, ABS_TOL = 1e-12, 1e-13
#: The keys of a scan that are the scan's arguments.
ARGUMENTS = ("gamma_tau1", "grid", "cutoff", "periods", "growth_factor")


def run_scan(scan):
    """The points of ``scan`` as ``[omega_tau2, outcome, n_final, periods_run]``."""
    kwargs = {key: scan[key] for key in ARGUMENTS[2:] if key in scan}
    return [[p.omega_tau2, p.outcome, p.n_final, p.periods_run]
            for p in fock.zeno_threshold_scan(scan["gamma_tau1"], scan["grid"], **kwargs)]


def test_manifest_covers_every_outcome():
    """The records hold both pinned cutoffs and every outcome a scan gives."""
    assert {scan["cutoff"] for scan in SCANS} == {20, 60}
    assert all(4 <= len(scan["grid"]) <= 8 for scan in SCANS)
    outcomes = {point[1] for scan in SCANS for point in scan["points"]}
    assert outcomes == {"growth", "bounded", "indeterminate"}


@pytest.mark.parametrize("scan", SCANS, ids=[scan["id"] for scan in SCANS])
def test_scan_matches_manifest(scan):
    got = run_scan(scan)
    assert len(got) == len(scan["points"])
    for point, expected in zip(got, scan["points"]):
        omega, outcome, n_final, periods_run = point
        assert (omega, outcome, periods_run) == \
            (expected[0], expected[1], expected[3]), expected
        assert math.isclose(n_final, expected[2], rel_tol=REL_TOL, abs_tol=ABS_TOL), \
            (expected, n_final)


if __name__ == "__main__":
    scans = [{key: value for key, value in scan.items() if key in ("id",) + ARGUMENTS}
             for scan in SCANS]
    for scan in scans:
        scan["points"] = run_scan(scan)
    MANIFEST.write_text(json.dumps(scans, indent=1) + "\n", encoding="utf-8")
    sys.exit(0)
