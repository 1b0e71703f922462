"""Map the stability region of the switched drive.

The drive alternates an amplifying pass (product gamma*tau1) with a linear
exchange pass (product omega*tau2).  One period is advanced by the monodromy
A = A_s @ A_u, and the motion is bounded exactly when |tr A|/2 =
|cos(omega*tau2) cosh(gamma*tau1)| < 1.  This script prints a coarse text
chart of that region and writes the fine-grid table to stability_chart.csv
with the ``zenofloquet sweep`` subcommand, so the file starts with the
sweep's ``# key=value`` meta lines.
"""

import math
import sys

import numpy as np

from zenofloquet import cli, floquet
from zenofloquet.floquet import DriveSchedule, classify_schedule


def text_chart(rows=18, cols=64):
    gammas = np.linspace(1.5, 0.0, rows)  # top row = strongest pump
    thetas = np.linspace(0.0, math.pi, cols)
    print("stability chart: '.' bounded (Zeno region), 'X' unstable")
    print(f"rows: gamma*tau1 from {gammas[0]:.2f} (top) to 0; "
          f"cols: omega*tau2 from 0 to pi")
    # the whole grid at once; unit segment durations give period 2
    _, classes, _ = floquet.classify_stack(floquet.pair_map(gammas, thetas), 2.0)
    for g, verdicts in zip(gammas, classes):
        line = "".join("X" if v == floquet.Classification.UNSTABLE else "."
                       for v in verdicts)
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
    code = cli.main(["sweep", "--out", "stability_chart.csv"])
    if code != 0:
        sys.exit(code)
    print("wrote stability_chart.csv (the default 151x151 sweep)")


if __name__ == "__main__":
    main()
