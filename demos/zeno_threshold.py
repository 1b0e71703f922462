"""Photon growth suppression by strong enough mode exchange.

With only the amplifying segment running, photon pairs are produced at an
exponential rate from vacuum.  Interleaving exchange passes lets one mode
"watch" the other; past a threshold strength the production shuts off.  The
brute-force number-basis propagation shows the transition and brackets the
analytic curve cos(omega*tau2) cosh(gamma*tau1) = 1.

Also demonstrated: the pi-pulse condition omega*tau2 = pi/2 (a single photon
hops between the modes with unit probability, the "ideal measurement") and
photon-sum conservation during exchange passes.
"""

import math

import numpy as np

from zenofloquet import fock
from zenofloquet.floquet import DriveSchedule


def scan(gamma_tau1=0.2):
    boundary = math.acos(1.0 / math.cosh(gamma_tau1))
    grid = np.sort(np.concatenate([
        boundary + np.array([-0.25, -0.1, 0.1, 0.25]),
        [0.5, 1.0, math.pi / 2, 2.0],
        math.pi - boundary + np.array([-0.25, -0.1, 0.1, 0.25]),
    ]))
    grid = grid[(grid >= 0) & (grid <= math.pi)]
    print(f"zeno scan at gamma*tau1 = {gamma_tau1} "
          f"(analytic thresholds {boundary:.4f} and {math.pi - boundary:.4f})")
    print(f"{'omega*tau2':>11} {'|trA|/2':>9} {'outcome':>14} "
          f"{'n_total':>9} {'periods':>8}")
    for p in fock.zeno_threshold_scan(gamma_tau1, grid):
        half_trace = abs(math.cos(p.omega_tau2) * math.cosh(gamma_tau1))
        print(f"{p.omega_tau2:11.4f} {half_trace:9.5f} {p.outcome:>14} "
              f"{p.n_final:9.4f} {p.periods_run:8d}")
    print()


def pi_pulse():
    h = fock.build_hamiltonian(fock.HamiltonianLabel.TWO_MODE_STABLE, 1.0, 4)
    u = fock.segment_unitary(h, math.pi / 2)
    amp = u[fock.basis_index(4, 0, 1), fock.basis_index(4, 1, 0)]
    print(f"pi pulse: |<0,1|U_s|1,0>| = {abs(amp):.12f} at omega*tau2 = pi/2")


def photon_sum_conservation():
    schedule = DriveSchedule.from_products(0.0, 0.85, periods=50)
    traj = fock.propagate(fock.number_state(12, 2, 1), schedule)
    print("exchange-only run from |2,1>: n_a + n_b spread over 50 periods ="
          f" {np.ptp(traj.n_total):.2e} (conserved)")
    print(f"  n_a oscillates between {traj.n_per_mode[:, 0].min():.3f} "
          f"and {traj.n_per_mode[:, 0].max():.3f}")


def main():
    scan()
    pi_pulse()
    photon_sum_conservation()


if __name__ == "__main__":
    main()
