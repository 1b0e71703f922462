"""Stability analysis and simulation of a periodically switched two-mode drive.

The package has three computational layers plus a command-line front end:

* :mod:`zenofloquet.floquet` -- exact 2x2 segment transfer matrices, the
  one-period monodromy, and trace-based stability classification;
* :mod:`zenofloquet.gaussian` -- symplectic evolution of Gaussian states
  (means and covariances) through the switched schedule;
* :mod:`zenofloquet.fock` -- brute-force truncated number-basis propagation,
  used as the exact oracle for the Gaussian simulator;
* :mod:`zenofloquet.cli` -- ``sweep`` / ``simulate`` / ``estimate``
  subcommands with deterministic CSV/JSON output.
"""

import importlib

from . import floquet, gaussian
from ._version import __version__
from .floquet import (
    Classification,
    ClassicalPendulumParams,
    DriveSchedule,
    StabilityReport,
    classical_pendulum_monodromy,
    classify,
    classify_schedule,
    minus_mode_monodromy,
    monodromy,
)
from .gaussian import GaussianState, evolve

__all__ = [
    "Classification",
    "ClassicalPendulumParams",
    "DriveSchedule",
    "GaussianState",
    "StabilityReport",
    "classical_pendulum_monodromy",
    "classify",
    "classify_schedule",
    "cli",
    "evolve",
    "floquet",
    "fock",
    "gaussian",
    "minus_mode_monodromy",
    "monodromy",
    "__version__",
]


def __getattr__(name):
    # cli is imported on first use: imported here, it would already sit in
    # sys.modules when ``python -m zenofloquet.cli`` runs it as a script.
    # fock is too: the sweep, a Gaussian simulate and estimate never use it
    if name in ("cli", "fock"):
        return importlib.import_module("." + name, __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
