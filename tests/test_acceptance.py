"""Acceptance gate: one test per headline criterion, at fixed tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import math
import time

import numpy as np
import pytest

from zenofloquet import cli, fock, gaussian
from zenofloquet.floquet import (
    Classification,
    DriveSchedule,
    classify,
    classify_schedule,
    minus_mode_monodromy,
    monodromy,
)


def report(number, ok, detail):
    print(f"\n[criterion {number:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_01_trace_criterion_on_default_grid():
    """Classification equals the sign of |cos cosh| - 1 on the 151x151 grid."""
    gammas = np.linspace(0.0, 1.5, 151)
    thetas = np.linspace(0.0, math.pi, 151)
    epsilon = 1e-9
    start = time.perf_counter()
    mismatches = 0
    for g in gammas:
        for w in thetas:
            schedule = DriveSchedule.from_products(g, w, periods=1)
            verdict = classify(monodromy(schedule), schedule.period,
                               epsilon).classification
            diff = abs(math.cos(w) * math.cosh(g)) - 1.0
            if diff > epsilon:
                expected = Classification.UNSTABLE
            elif diff < -epsilon:
                expected = Classification.STABLE
            else:
                expected = Classification.MARGINAL
            mismatches += verdict is not expected
    elapsed = time.perf_counter() - start
    report(1, mismatches == 0 and elapsed < 1.0,
           f"22801 grid points, {mismatches} mismatches, {elapsed:.2f}s (< 1s)")


def test_02_stability_iff_boundedness():
    """Gaussian vacuum evolution over 1e4 periods diverges iff unstable."""
    rng = np.random.default_rng(2024)
    points = []
    while len(points) < 200:
        g = rng.uniform(0.0, 1.5)
        w = rng.uniform(0.0, math.pi)
        report_ = classify_schedule(DriveSchedule.from_products(g, w, periods=1))
        if abs(report_.half_trace - 1.0) > 1e-3:
            points.append((g, w, report_.classification))
    start = time.perf_counter()
    failures = 0
    for g, w, verdict in points:
        schedule = DriveSchedule.from_products(g, w, periods=10_000)
        traj = gaussian.evolve(gaussian.vacuum_state(2), schedule,
                               photon_cap=1e12)
        bounded = not traj.diverged
        failures += bounded != (verdict is Classification.STABLE)
    elapsed = time.perf_counter() - start
    report(2, failures == 0 and elapsed < 30.0,
           f"200 non-marginal points, {failures} mismatches, "
           f"{elapsed:.1f}s (< 30s)")


def test_03_gaussian_fock_equivalence():
    """|<n_a>_fock - <n_a>_gaussian| < 1e-6 per truncation-safe period."""
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    worst = 0.0
    compared = 0
    for _ in range(20):
        g = rng.uniform(0.02, 0.2)
        w = rng.uniform(0.0, math.pi)
        n = int(rng.integers(5, 51))
        schedule = DriveSchedule.from_products(g, w, periods=n)
        cutoff = min(60, fock.default_cutoff(g, n))
        ftraj = fock.propagate(fock.vacuum_state(cutoff, 2), schedule)
        gtraj = gaussian.evolve(gaussian.vacuum_state(2), schedule)
        last_safe = ftraj.first_unsafe_period
        steps = min(len(ftraj), gtraj.photon_totals.size)
        for k in range(steps):
            if last_safe is not None and k >= last_safe:
                break
            worst = max(worst, abs(ftraj.n_per_mode[k, 0]
                                   - gtraj.photons_per_mode[k, 0]))
            compared += 1
    elapsed = time.perf_counter() - start
    report(3, worst < 1e-6 and compared > 300 and elapsed < 120.0,
           f"20 schedules, {compared} safe periods compared, worst "
           f"|delta n_a| = {worst:.2e} (< 1e-6), {elapsed:.1f}s (< 120s)")


def test_04_two_mode_squeezing_closed_form():
    """From vacuum with no exchange, <n_a(nT)> = sinh^2(n gamma tau1)."""
    g, n = 0.05, 10
    schedule = DriveSchedule.from_products(g, 0.0, periods=n)
    gtraj = gaussian.evolve(gaussian.vacuum_state(2), schedule)
    ftraj = fock.propagate(fock.vacuum_state(40, 2), schedule)
    worst_g = worst_f = 0.0
    for k in range(1, n + 1):
        exact = math.sinh(k * g) ** 2
        worst_g = max(worst_g, abs(gtraj.photons_per_mode[k, 0] - exact) / exact)
        worst_f = max(worst_f, abs(ftraj.n_per_mode[k, 0] - exact) / exact)
    ok = worst_g < 1e-9 and worst_f < 1e-7 and ftraj.truncation_safe
    report(4, ok, f"gaussian rel err {worst_g:.2e} (< 1e-9), fock rel err "
                  f"{worst_f:.2e} (< 1e-7), leakage-safe={ftraj.truncation_safe}")


def test_05_pi_pulse_swap():
    """|<0,1|U_s|1,0>| = 1 within 1e-9 at omega tau2 = pi/2."""
    h = fock.build_hamiltonian(fock.HamiltonianLabel.TWO_MODE_STABLE, 2.0, 5)
    u = fock.segment_unitary(h, math.pi / 4)
    amp = abs(u[fock.basis_index(5, 0, 1), fock.basis_index(5, 1, 0)])
    report(5, abs(amp - 1.0) < 1e-9, f"|amplitude| = {amp:.12f} (1 +- 1e-9)")


def test_06_photon_sum_conserved_under_exchange():
    """<n_a + n_b> constant within 1e-10 when only the exchange runs."""
    schedule = DriveSchedule.from_products(0.0, 0.9, periods=100)
    gtraj = gaussian.evolve(gaussian.coherent_state([1.0, 0.5j]), schedule)
    spread_g = float(np.ptp(gtraj.photon_totals))
    ftraj = fock.propagate(fock.coherent_state(25, [1.0, 0.5j]), schedule)
    spread_f = float(np.ptp(ftraj.n_total))
    ok = spread_g < 1e-10 and spread_f < 1e-10
    report(6, ok, f"total-photon spread: gaussian {spread_g:.2e}, "
                  f"fock {spread_f:.2e} (both < 1e-10)")


def test_07_small_tau_expansion_fourth_order():
    """Halving the products from 1e-2 shrinks the quadratic remainder 16x."""
    results = []
    for direction in ((1.0, 1.0), (1.0, 0.7)):
        def remainder(scale):
            g, w = direction[0] * scale, direction[1] * scale
            half_trace = classify_schedule(
                DriveSchedule.from_products(g, w, periods=1)).half_trace
            return abs(half_trace - (1.0 - (w * w - g * g) / 2.0))

        ratio = remainder(1e-2) / remainder(5e-3)
        results.append(ratio)
    ok = all(abs(r / 16.0 - 1.0) < 0.05 for r in results)
    report(7, ok, "remainder ratios on halving: "
                  + ", ".join(f"{r:.3f}" for r in results) + " (16 +- 5%)")


def test_08_minus_mode_trace_identity():
    """tr(A_minus) = tr(A) within 1e-12 over 1000 random draws."""
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        g, w = rng.uniform(0.0, 3.0, size=2)
        schedule = DriveSchedule.from_products(g, w, periods=1)
        worst = max(worst, abs(np.trace(minus_mode_monodromy(schedule))
                               - np.trace(monodromy(schedule))))
    report(8, worst < 1e-12, f"worst |trace difference| = {worst:.2e} (< 1e-12)")


def test_09_coupling_estimate_orders():
    """Reference MKS inputs reproduce the quoted orders within a factor 3.

    Independent hand evaluation: 220^3/2 * (2e-23)^2 * (3e15)^2 * 1e5
    = 1.91664e-3 m^-2, so gamma_c = 4.3779e-2 1/m.
    """
    gamma_c = cli.coupling_rate(eta=220.0, chi2=2e-23, omega_a=3e15,
                                omega_b=3e15, pump_intensity=1e5)
    gamma_tau1 = gamma_c * 1e-2
    ok = (abs(gamma_c / math.sqrt(1.91664e-3) - 1.0) < 1e-12
          and 0.1 / 3 <= gamma_c <= 0.1 * 3
          and 0.001 / 3 <= gamma_tau1 <= 0.001 * 3)
    report(9, ok, f"gamma_c = {gamma_c:.4e} /m (~0.1 within 3x), "
                  f"gamma tau1 = {gamma_tau1:.4e} (~0.001 within 3x)")


def test_10_symplectic_and_unitary_hygiene():
    """det = 1 (1e-12), symplectic form (1e-10), unitarity (1e-10),
    uncertainty preservation (1e-10) across randomized suites."""
    rng = np.random.default_rng(5)
    worst_det = worst_symp = worst_unit = 0.0
    min_nu = math.inf
    form = gaussian.symplectic_form(2)
    for _ in range(300):
        g, w = rng.uniform(0.0, 3.0, size=2)
        schedule = DriveSchedule.from_products(g, w, periods=1)
        for m in (monodromy(schedule), minus_mode_monodromy(schedule)):
            worst_det = max(worst_det, abs(np.linalg.det(m) - 1.0))
        s = gaussian.two_mode_period_symplectic(schedule)
        worst_symp = max(worst_symp, np.abs(s @ form @ s.T - form).max())
    for label in fock.HamiltonianLabel:
        for coupling, duration in ((0.5, 0.7), (1.5, 2.0), (2.5, 0.2)):
            u = fock.segment_unitary(fock.build_hamiltonian(label, coupling, 8),
                                     duration)
            worst_unit = max(worst_unit,
                             np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())
    checked = 0
    while checked < 25:
        g, w = rng.uniform(0.0, 1.0, size=2)
        schedule = DriveSchedule.from_products(g, w, periods=20)
        # the 1e-10 uncertainty bound is certifiable in float64 only while
        # the covariance stays moderate, i.e. along bounded trajectories
        if classify_schedule(schedule).classification is not Classification.STABLE:
            continue
        # the states of every period, through the engine's stepping loop
        states = [gaussian.squeezed_vacuum_state([0.3, 0.1])]
        gaussian._step_periods(states[0], schedule, gaussian.PHOTON_CAP,
                               lambda means, covs, per_mode: states.extend(
                                   map(gaussian.GaussianState, means, covs)))
        for state in states:
            min_nu = min(min_nu,
                         gaussian.symplectic_eigenvalues(state.covariance).min())
        checked += 1
    ok = (worst_det < 1e-12 and worst_symp < 1e-10 and worst_unit < 1e-10
          and min_nu >= 0.5 - 1e-10)
    report(10, ok, f"max |det-1| = {worst_det:.1e}, symplectic defect "
                   f"{worst_symp:.1e}, unitarity defect {worst_unit:.1e}, "
                   f"min symplectic eigenvalue {min_nu:.12f}")
