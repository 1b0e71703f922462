"""The Zeno scan's output, scan by scan: each scan of ``scan_manifest.json``
reruns one ``fock.zeno_threshold_scan`` call and compares its points with
the record.

Every point's ``omega_tau2``, outcome and ``periods_run`` are pinned exactly,
and its ``n_final`` to 1e-12 relative, with the 1e-13 absolute floor of
``test_cli_manifest.py``: BLAS rounding moves the last digits of Fock numbers
from one machine, or one summation order, to the next.  A change that alters
a scan on purpose, or adds one (its id and arguments, with no points yet),
records the scans it names with

    PYTHONPATH=src python tests/test_scan_manifest.py ID [ID ...]

and names them in its change notes; every other scan keeps its record, so
the Fock numbers of the others are not rewritten with one machine's last
digits.  With no id every scan is recorded; an unknown id exits 2 and
writes nothing.
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
    """The records hold every pinned cutoff and every outcome a scan gives.
    At cutoff 100 the scan's generators take several buckets each (7
    amplifying, 13 exchange), so the records also pin the grouped layout."""
    assert {scan["cutoff"] for scan in SCANS} == {20, 60, 100}
    assert all(4 <= len(scan["grid"]) <= 8 for scan in SCANS)
    outcomes = {point[1] for scan in SCANS for point in scan["points"]}
    assert outcomes == {"growth", "bounded", "indeterminate"}


def assert_points_match(got, points):
    """``got`` holds the pinned points: every ``omega_tau2``, outcome and
    ``periods_run`` exactly, every ``n_final`` within the tolerance."""
    assert len(got) == len(points)
    for point, expected in zip(got, points):
        omega, outcome, n_final, periods_run = point
        assert (omega, outcome, periods_run) == \
            (expected[0], expected[1], expected[3]), expected
        assert math.isclose(n_final, expected[2], rel_tol=REL_TOL, abs_tol=ABS_TOL), \
            (expected, n_final)


@pytest.mark.parametrize("scan", SCANS, ids=[scan["id"] for scan in SCANS])
def test_scan_matches_manifest(scan):
    assert_points_match(run_scan(scan), scan["points"])


def rerecord(ids):
    """Every scan of the manifest: those named in ``ids`` recorded afresh,
    and every other one as it was recorded."""
    scans = []
    for scan in SCANS:
        if scan["id"] in ids:
            scan = {key: value for key, value in scan.items() if key in ("id",) + ARGUMENTS}
            scan["points"] = run_scan(scan)
        scans.append(scan)
    return scans


def test_rerecord_rewrites_only_named_scans():
    """Recording one scan reruns that scan alone, to the same record (its
    points within the tolerance: the BLAS that reruns it may round
    differently from the one that recorded it), and hands every other record
    back as it is."""
    scans = rerecord({SCANS[0]["id"]})
    assert len(scans) == len(SCANS) and scans[0] is not SCANS[0]
    assert scans[0].keys() == SCANS[0].keys()
    assert {key: scans[0][key] for key in scans[0] if key != "points"} == \
        {key: SCANS[0][key] for key in SCANS[0] if key != "points"}
    assert_points_match(scans[0]["points"], SCANS[0]["points"])
    assert all(got is scan for got, scan in zip(scans[1:], SCANS[1:]))


if __name__ == "__main__":
    ids = set(sys.argv[1:]) or {scan["id"] for scan in SCANS}
    unknown = sorted(ids - {scan["id"] for scan in SCANS})
    if unknown:
        print(f"unknown scan id: {', '.join(unknown)}", file=sys.stderr)
        sys.exit(2)
    MANIFEST.write_text(json.dumps(rerecord(ids), indent=1) + "\n", encoding="utf-8")
    sys.exit(0)
