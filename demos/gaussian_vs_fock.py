"""Cross-validate the symplectic simulator against the number-basis oracle.

The Gaussian simulator evolves means and covariances with exact per-period
symplectic maps; the Fock oracle propagates the full truncated state vector.
From vacuum they must agree on photon numbers to truncation accuracy, with
the leakage monitor marking where the truncated basis stops being faithful.
"""

import math

import numpy as np

from zenofloquet import fock, gaussian
from zenofloquet.floquet import DriveSchedule, classify_schedule


def compare(gamma_tau1, omega_tau2, periods, cutoff):
    schedule = DriveSchedule.from_products(gamma_tau1, omega_tau2,
                                           periods=periods)
    verdict = classify_schedule(schedule)
    print(f"gamma*tau1 = {gamma_tau1}, omega*tau2 = {omega_tau2}: "
          f"{verdict.classification.value} (|trA|/2 = {verdict.half_trace:.4f}), "
          f"cutoff {cutoff}")
    ftraj = fock.propagate(fock.vacuum_state(cutoff, 2), schedule)
    gtraj = gaussian.evolve(gaussian.vacuum_state(2), schedule)
    print(f"{'period':>7} {'<n_a> gaussian':>15} {'<n_a> fock':>12} "
          f"{'|delta|':>9} {'leakage':>9}")
    for k in range(periods + 1):
        delta = abs(ftraj.n_per_mode[k, 0] - gtraj.photons_per_mode[k, 0])
        mark = "" if (ftraj.first_unsafe_period is None
                      or k < ftraj.first_unsafe_period) else "  <- unsafe"
        print(f"{k:7d} {gtraj.photons_per_mode[k, 0]:15.9f} "
              f"{ftraj.n_per_mode[k, 0]:12.9f} {delta:9.2e} "
              f"{ftraj.leakage[k]:9.2e}{mark}")
    print()


def closed_form_check():
    g, n = 0.05, 10
    schedule = DriveSchedule.from_products(g, 0.0, periods=n)
    traj = fock.propagate(fock.vacuum_state(40, 2), schedule)
    worst = max(abs(traj.n_per_mode[k, 0] - math.sinh(k * g) ** 2)
                for k in range(n + 1))
    print("amplification-only run matches <n_a(nT)> = sinh^2(n gamma tau1): "
          f"worst absolute error {worst:.2e}\n")


def main():
    closed_form_check()
    compare(0.12, 1.0, 12, cutoff=30)    # stable: bounded oscillation
    compare(0.12, 0.05, 12, cutoff=45)   # unstable: exponential growth
    schedule = DriveSchedule.from_products(0.1, 1.0, periods=10_000)
    traj = gaussian.evolve(gaussian.vacuum_state(2), schedule)
    print("stable point over 10^4 periods: max total photons = "
          f"{traj.photon_totals.max():.4f} (no growth)")


if __name__ == "__main__":
    main()
