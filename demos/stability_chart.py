"""Map the stability region of the switched drive.

The drive alternates an amplifying pass (product gamma*tau1) with a linear
exchange pass (product omega*tau2).  One period is advanced by the monodromy
A = A_s @ A_u, and the motion is bounded exactly when |tr A|/2 =
|cos(omega*tau2) cosh(gamma*tau1)| < 1.  This script prints a coarse text
chart of that region and writes the fine-grid table to stability_chart.csv
(same data the ``zenofloquet sweep`` subcommand emits).
"""

import math

import numpy as np

from zenofloquet import cli
from zenofloquet.floquet import Classification, DriveSchedule, classify_schedule


def text_chart(rows=18, cols=64):
    gammas = np.linspace(1.5, 0.0, rows)  # top row = strongest pump
    thetas = np.linspace(0.0, math.pi, cols)
    print("stability chart: '.' bounded (Zeno region), 'X' unstable")
    print(f"rows: gamma*tau1 from {gammas[0]:.2f} (top) to 0; "
          f"cols: omega*tau2 from 0 to pi")
    for g in gammas:
        line = ""
        for w in thetas:
            verdict = classify_schedule(
                DriveSchedule.from_products(g, w, periods=1)).classification
            line += "X" if verdict is Classification.UNSTABLE else "."
        print(f"{g:5.2f} |{line}|")
    print()


def boundary_examples():
    print("the boundary satisfies cos(omega*tau2) cosh(gamma*tau1) = 1:")
    for w in (0.5, 1.0, 1.4):
        g_star = math.acosh(1.0 / math.cos(w))
        below = classify_schedule(
            DriveSchedule.from_products(g_star - 0.01, w, periods=1))
        above = classify_schedule(
            DriveSchedule.from_products(g_star + 0.01, w, periods=1))
        print(f"  omega*tau2 = {w:.1f}: crossing at gamma*tau1 = {g_star:.4f} "
              f"({below.classification.value} below, "
              f"{above.classification.value} above)")
    print()


def main():
    text_chart()
    boundary_examples()
    header, rows, _ = cli.run_sweep({
        "gamma_tau1": {"min": 0.0, "max": 1.5, "steps": 151},
        "omega_tau2": {"min": 0.0, "max": math.pi, "steps": 151},
        "epsilon": 1e-9,
        "cross_check": {"enabled": False, "periods": 10000, "photon_cap": 1e12},
    })
    with open("stability_chart.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(cli._format_cell(v) for v in row) + "\n")
    print(f"wrote stability_chart.csv ({len(rows)} grid points)")


if __name__ == "__main__":
    main()
