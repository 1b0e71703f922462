"""Symplectic simulator for Gaussian states of one or two bosonic modes.

Conventions (hbar = 1):

* quadratures ``x = (a + a†)/sqrt(2)``, ``p = -i (a - a†)/sqrt(2)``, so the
  vacuum covariance is ``I/2``;
* quadrature ordering ``(x1, p1)`` for one mode and ``(x1, p1, x2, p2)`` for
  two, with the antisymmetric form of :func:`symplectic_form`;
* the two-mode drive decouples in the difference/sum quadrature pairs
  ``(x_a -+ x_b)/sqrt(2)`` (the "plus"/"minus" pairs); the change of basis is
  orthogonal and symplectic.

Heisenberg evolution under the switched drive maps each decoupled pair with
:func:`zenofloquet.floquet.pair_map`: one full period advances the plus
(difference) pair by ``pair_map(gamma*tau1, -omega*tau2)`` and the minus (sum)
pair by ``pair_map(-gamma*tau1, omega*tau2)``.  Both blocks share the
half-trace ``|cos(omega*tau2) cosh(gamma*tau1)|``, so either one decides
stability.  With ``X`` the x<->p swap, the plus block is
``X @ floquet.monodromy @ X`` and the minus block is
``X @ floquet.minus_mode_monodromy @ X``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .floquet import DriveSchedule, pair_map

#: Default photon-number guard: evolution aborts with status "diverged"
#: once the total expected photon number exceeds this value.
PHOTON_CAP = 1e12


class InvalidStateError(ValueError):
    """Raised when a covariance/mean pair violates a Gaussian-state invariant."""


def symplectic_form(mode_count: int) -> np.ndarray:
    """Antisymmetric form for the (x1, p1, x2, p2, ...) quadrature ordering."""
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * mode_count, 2 * mode_count))
    for i in range(mode_count):
        out[2 * i:2 * i + 2, 2 * i:2 * i + 2] = block
    return out


def symplectic_eigenvalues(covariance: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix (>= 1/2 for physical states)."""
    cov = np.asarray(covariance, dtype=float)
    form = symplectic_form(cov.shape[0] // 2)
    eigs = np.linalg.eigvals(form @ cov)
    # eigenvalues come in +-i*nu pairs; report each nu once
    nus = np.sort(np.abs(eigs))
    return nus[::2]


@dataclass(frozen=True)
class GaussianState:
    """Mean vector and covariance matrix of a 1- or 2-mode Gaussian state.

    The constructor symmetrizes the covariance (rejecting asymmetry beyond
    1e-12 relative to its scale) and verifies the uncertainty relation via
    the symplectic spectrum.  Arrays are copied and frozen, so states are
    immutable values.
    """

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float).reshape(-1)
        cov = np.array(self.covariance, dtype=float)
        if mean.size not in (2, 4):
            raise InvalidStateError(f"mean must have length 2 or 4, got {mean.size}")
        if cov.shape != (mean.size, mean.size):
            raise InvalidStateError(
                f"covariance shape {cov.shape} does not match mean length {mean.size}")
        scale = max(1.0, float(np.abs(cov).max()))
        if np.abs(cov - cov.T).max() > 1e-12 * scale:
            raise InvalidStateError("covariance is not symmetric")
        cov = (cov + cov.T) / 2.0
        nu_min = symplectic_eigenvalues(cov).min()
        # the eigensolve behind nu carries an error growing like
        # eps * |cov| * cond(eigenvectors) ~ eps * |cov|^2 for squeezed states,
        # so the certifiable tolerance must widen quadratically with scale
        if nu_min < 0.5 - max(1e-10, 4e-15 * scale**2):
            raise InvalidStateError(
                f"uncertainty relation violated: min symplectic eigenvalue {nu_min}")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @property
    def mode_count(self) -> int:
        return self.mean.size // 2


@dataclass(frozen=True)
class PhotonNumbers:
    """Expected photon number per mode and in total."""

    per_mode: np.ndarray
    total: float


def vacuum_state(mode_count: int = 2) -> GaussianState:
    """Vacuum: zero mean, covariance I/2."""
    return GaussianState(np.zeros(2 * mode_count), np.eye(2 * mode_count) / 2.0)


def coherent_state(alphas) -> GaussianState:
    """Coherent state(s) with complex amplitude alpha per mode.

    The mean quadratures are ``(sqrt(2) Re alpha, sqrt(2) Im alpha)`` and the
    covariance stays at the vacuum value.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=complex))
    mean = np.empty(2 * alphas.size)
    mean[0::2] = np.sqrt(2.0) * alphas.real
    mean[1::2] = np.sqrt(2.0) * alphas.imag
    return GaussianState(mean, np.eye(2 * alphas.size) / 2.0)


def squeezed_vacuum_state(rs, phis=None) -> GaussianState:
    """Product of single-mode squeezed vacua.

    Parameters
    ----------
    rs : float or sequence of float
        Squeeze parameter per mode; ``r = 0`` is vacuum.
    phis : float or sequence of float, optional
        Squeeze orientation per mode; with ``phi = 0`` the x variance is
        reduced to ``exp(-2 r)/2``.
    """
    rs = np.atleast_1d(np.asarray(rs, dtype=float))
    if phis is None:
        phis = np.zeros_like(rs)
    phis = np.broadcast_to(np.atleast_1d(np.asarray(phis, dtype=float)), rs.shape)
    cov = np.zeros((2 * rs.size, 2 * rs.size))
    for i, (r, phi) in enumerate(zip(rs, phis)):
        c, s = np.cos(phi / 2.0), np.sin(phi / 2.0)
        rot = np.array([[c, -s], [s, c]])
        cov[2 * i:2 * i + 2, 2 * i:2 * i + 2] = \
            rot @ np.diag([np.exp(-2.0 * r), np.exp(2.0 * r)]) @ rot.T / 2.0
    return GaussianState(np.zeros(2 * rs.size), cov)


def _photons_per_mode(mean, cov):
    # n_i = (<x_i^2> + <p_i^2> - 1)/2, means included
    diag = np.diag(cov) + mean**2
    return (diag[0::2] + diag[1::2] - 1.0) / 2.0


def photon_numbers(state: GaussianState) -> PhotonNumbers:
    """Expected photon numbers, means included: n_i = (<x_i^2> + <p_i^2> - 1)/2."""
    per_mode = _photons_per_mode(state.mean, state.covariance)
    return PhotonNumbers(per_mode=per_mode, total=float(per_mode.sum()))


# --- difference/sum ("plus/minus") basis -----------------------------------

_SQRT_HALF = 1.0 / np.sqrt(2.0)

#: Rows map (x_a, p_a, x_b, p_b) to (x_plus, p_plus, x_minus, p_minus) with
#: plus = (a - b)/sqrt(2) and minus = (a + b)/sqrt(2).
PM_BASIS = _SQRT_HALF * np.array([
    [1.0, 0.0, -1.0, 0.0],
    [0.0, 1.0, 0.0, -1.0],
    [1.0, 0.0, 1.0, 0.0],
    [0.0, 1.0, 0.0, 1.0],
])
PM_BASIS.setflags(write=False)


def quadratures_to_pm(vector) -> np.ndarray:
    """Mode-basis 4-vector to the (plus, minus) quadrature pairs."""
    return PM_BASIS @ np.asarray(vector, dtype=float)


def pm_to_quadratures(vector) -> np.ndarray:
    """Inverse of :func:`quadratures_to_pm` (the basis is orthogonal)."""
    return PM_BASIS.T @ np.asarray(vector, dtype=float)


def pm_pair_maps(gamma_tau1, omega_tau2):
    """One-period 2x2 maps ``(plus, minus)`` of the decoupled pairs.

    Takes the products as two scalars, or as two 1-D grid axes for the
    ``(len(gamma_tau1), len(omega_tau2), 2, 2)`` stacks of
    :func:`zenofloquet.floquet.pair_map`.
    """
    return pair_map(gamma_tau1, -omega_tau2), pair_map(-gamma_tau1, omega_tau2)


def pm_period_blocks(schedule: DriveSchedule):
    """One-period 2x2 maps of the decoupled plus and minus pairs."""
    return pm_pair_maps(schedule.gamma_tau1, schedule.omega_tau2)


def _mode_basis(plus, minus) -> np.ndarray:
    """block-diag(plus, minus) conjugated back to the (x_a, p_a, x_b, p_b) basis."""
    blocks = np.zeros((4, 4))
    blocks[:2, :2] = plus
    blocks[2:, 2:] = minus
    return PM_BASIS.T @ blocks @ PM_BASIS


def two_mode_period_symplectic(schedule: DriveSchedule) -> np.ndarray:
    """One-period 4x4 symplectic map in the mode (x_a, p_a, x_b, p_b) basis.

    Built as block-diag of the plus/minus pair maps conjugated back with the
    orthogonal basis change; equal to composing the two segment maps of
    :func:`segment_symplectics`.
    """
    return _mode_basis(*pm_period_blocks(schedule))


def single_mode_period_symplectic(schedule: DriveSchedule) -> np.ndarray:
    """One-period 2x2 map of the degenerate (single-mode) drive.

    The sub-harmonic segment flows with the opposite hyperbolic sense, so the
    map is the minus block ``pair_map(-gamma*tau1, omega*tau2)``; its
    half-trace still equals ``|cos(omega*tau2) cosh(gamma*tau1)|``.
    """
    return pair_map(-schedule.gamma_tau1, schedule.omega_tau2)


def segment_symplectics(schedule: DriveSchedule, mode_count: int = 2):
    """Per-segment symplectic maps (S_unstable, S_stable) in the mode basis."""
    g, w = schedule.gamma_tau1, schedule.omega_tau2
    if mode_count == 1:
        return pair_map(-g, 0.0), pair_map(0.0, w)
    if mode_count != 2:
        raise ValueError(f"mode_count must be 1 or 2, got {mode_count}")
    return (_mode_basis(pair_map(g, 0.0), pair_map(-g, 0.0)),
            _mode_basis(pair_map(0.0, -w), pair_map(0.0, w)))


@dataclass(frozen=True)
class GaussianTrajectory:
    """Recorded Gaussian evolution at period (or segment) boundaries.

    Behaves as a sequence of :class:`GaussianState` when states were
    recorded.  ``status`` is ``"ok"`` or ``"diverged"``; a diverged
    trajectory ends at the first period whose total photon number exceeded
    the cap or was not finite.
    """

    photons_per_mode: np.ndarray
    photon_totals: np.ndarray
    status: str
    periods_completed: int
    per_segment: bool
    states: tuple | None = field(default=None)

    def __len__(self):
        if self.states is None:
            return self.photon_totals.size
        return len(self.states)

    def __getitem__(self, index):
        if self.states is None:
            raise TypeError("trajectory was recorded without states")
        return self.states[index]

    @property
    def diverged(self) -> bool:
        return self.status == "diverged"


def evolve(state: GaussianState, schedule: DriveSchedule, *,
           record_states: bool = True, per_segment: bool = False,
           photon_cap: float = PHOTON_CAP) -> GaussianTrajectory:
    """Evolve a Gaussian state through N full periods of the switched drive.

    The mean advances as ``S^n @ mean`` and the covariance as
    ``S^n @ cov @ (S^n)^T`` with S the per-period symplectic map matching the
    state's mode count.  With ``per_segment=True`` the trajectory is sampled
    after every segment (2N + 1 entries) instead of every period (N + 1).

    Parameters
    ----------
    state : GaussianState
        Initial state; must satisfy the uncertainty invariant.
    schedule : DriveSchedule
        Drive parameters, including the period count N.
    record_states : bool
        Keep the full state at every sample (set False for long runs where
        only photon records are needed).
    per_segment : bool
        Sample after each segment rather than each full period.
    photon_cap : float
        Divergence guard, > 0 (``inf`` for no cap); evolution stops with
        status "diverged" once the total photon number exceeds it or stops
        being finite.

    Returns
    -------
    GaussianTrajectory
    """
    if not isinstance(state, GaussianState):
        raise InvalidStateError("initial state must be a GaussianState")
    if not photon_cap > 0:
        raise ValueError(f"photon_cap must be > 0 (inf for no cap), got {photon_cap!r}")
    modes = state.mode_count
    if per_segment:
        s_u, s_s = segment_symplectics(schedule, modes)
        step_maps = [s_u, s_s]
    elif modes == 2:
        step_maps = [two_mode_period_symplectic(schedule)]
    else:
        step_maps = [single_mode_period_symplectic(schedule)]

    mean = state.mean.copy()
    cov = state.covariance.copy()
    states = [state] if record_states else None
    per_mode = _photons_per_mode(mean, cov)
    per_mode_rec = [per_mode]
    totals = [float(per_mode.sum())]
    status = "ok"
    periods_completed = 0

    for n in range(1, schedule.periods + 1):
        for s in step_maps:
            mean = s @ mean
            cov = s @ cov @ s.T
            cov = (cov + cov.T) / 2.0
            if per_segment or s is step_maps[-1]:
                per_mode = _photons_per_mode(mean, cov)
                per_mode_rec.append(per_mode)
                totals.append(float(per_mode.sum()))
                if record_states:
                    states.append(GaussianState(mean, cov))
        periods_completed = n
        # an overflowed total is inf, which an infinite cap does not exceed
        if not (totals[-1] <= photon_cap and math.isfinite(totals[-1])):
            status = "diverged"
            break

    return GaussianTrajectory(
        photons_per_mode=np.array(per_mode_rec),
        photon_totals=np.array(totals),
        status=status,
        periods_completed=periods_completed,
        per_segment=per_segment,
        states=tuple(states) if record_states else None,
    )
