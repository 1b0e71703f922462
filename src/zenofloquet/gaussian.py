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

:func:`evolve` returns the photon numbers of every period, the bounded or
growing second moments from which stability is read; the evolved means and
covariances pass through its stepping loop and are not kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .floquet import (DriveSchedule, _past_cap, _require_amplitudes, _require_cap,
                      _require_finite, _require_int, _require_schedule, pair_map, powers)

#: Default photon cap of the Gaussian engine and of the CLI: evolution aborts
#: with status "diverged" once the total expected photon number is past it.
PHOTON_CAP = 1e12


class InvalidStateError(ValueError):
    """Raised when a covariance/mean pair violates a Gaussian-state invariant."""


def symplectic_form(mode_count: int) -> np.ndarray:
    """Antisymmetric form for the (x1, p1, x2, p2) quadrature ordering of one
    or two modes."""
    mode_count = _require_int("mode_count", mode_count, 1, 2)
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * mode_count, 2 * mode_count))
    for i in range(mode_count):
        out[2 * i:2 * i + 2, 2 * i:2 * i + 2] = block
    return out


def symplectic_eigenvalues(covariance: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a finite one- or two-mode covariance matrix
    (>= 1/2 for physical states)."""
    cov = np.asarray(_require_finite("covariance", covariance), dtype=float)
    form = symplectic_form(cov.shape[0] // 2)
    eigs = np.linalg.eigvals(form @ cov)
    # eigenvalues come in +-i*nu pairs; report each nu once
    nus = np.sort(np.abs(eigs))
    return nus[::2]


@dataclass(frozen=True)
class GaussianState:
    """Mean vector and covariance matrix of a 1- or 2-mode Gaussian state.

    The constructor rejects non-finite and bool entries, symmetrizes the
    covariance (rejecting asymmetry beyond 1e-12 relative to its scale) and
    verifies the uncertainty relation via the symplectic spectrum, raising
    ``InvalidStateError``.  Arrays are copied and frozen, so states are
    immutable values.
    """

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        try:
            mean = np.array(_require_finite("mean", self.mean), dtype=float).reshape(-1)
            cov = np.array(_require_finite("covariance", self.covariance), dtype=float)
        except ValueError as exc:  # a NaN, an inf, a bool or not a number
            raise InvalidStateError(str(exc)) from exc
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
        # (scale * scale overflows to inf, where scale**2 would raise)
        if nu_min < 0.5 - max(1e-10, 4e-15 * scale * scale):
            raise InvalidStateError(
                f"uncertainty relation violated: min symplectic eigenvalue {nu_min}")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @property
    def mode_count(self) -> int:
        return self.mean.size // 2


def vacuum_state(mode_count: int = 2) -> GaussianState:
    """Vacuum of one or two modes: zero mean, covariance I/2."""
    mode_count = _require_int("mode_count", mode_count, 1, 2)
    return GaussianState(np.zeros(2 * mode_count), np.eye(2 * mode_count) / 2.0)


def coherent_state(alphas) -> GaussianState:
    """Coherent state(s) with complex amplitude alpha per mode.

    The mean quadratures are ``(sqrt(2) Re alpha, sqrt(2) Im alpha)`` and the
    covariance stays at the vacuum value.  Each alpha is a finite number,
    never a bool, and ``2 sum |alpha|^2`` is finite.
    """
    alphas, _ = _require_amplitudes(alphas)
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

    Every ``r`` and ``phi`` is finite and real, never a bool, of any sign.
    """
    rs = np.atleast_1d(np.asarray(_require_finite("rs", rs), dtype=float))
    if phis is None:
        phis = np.zeros_like(rs)
    phis = np.broadcast_to(np.atleast_1d(np.asarray(_require_finite("phis", phis),
                                                    dtype=float)), rs.shape)
    cov = np.zeros((2 * rs.size, 2 * rs.size))
    for i, (r, phi) in enumerate(zip(rs, phis)):
        c, s = np.cos(phi / 2.0), np.sin(phi / 2.0)
        rot = np.array([[c, -s], [s, c]])
        cov[2 * i:2 * i + 2, 2 * i:2 * i + 2] = \
            rot @ np.diag([np.exp(-2.0 * r), np.exp(2.0 * r)]) @ rot.T / 2.0
    return GaussianState(np.zeros(2 * rs.size), cov)


def _photons_per_mode(mean, cov):
    # n_i = (<x_i^2> + <p_i^2> - 1)/2, means included; stacks of states too
    diag = np.diagonal(cov, axis1=-2, axis2=-1) + mean**2
    return (diag[..., 0::2] + diag[..., 1::2] - 1.0) / 2.0


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


def pm_pair_maps(gamma_tau1, omega_tau2):
    """One-period 2x2 maps ``(plus, minus)`` of the decoupled pairs.

    Takes the products as two scalars, or as two 1-D grid axes for the
    ``(len(gamma_tau1), len(omega_tau2), 2, 2)`` stacks of
    :func:`zenofloquet.floquet.pair_map`.  The minus block is also the map of
    the degenerate (single-mode) drive: its sub-harmonic segment flows with
    the opposite hyperbolic sense, and the half-trace still equals
    ``|cos(omega*tau2) cosh(gamma*tau1)|``.  The products are checked as
    :func:`zenofloquet.floquet.pair_map` checks them, before any is negated.
    """
    g = _require_finite("gamma_tau1", gamma_tau1)
    w = _require_finite("omega_tau2", omega_tau2)
    return pair_map(g, -w), pair_map(-g, w)


def _mul(x, y):
    """2x2 products of two stacks held as their entry arrays ``(a, b, c, d)``."""
    xa, xb, xc, xd = x
    ya, yb, yc, yd = y
    return (xa * ya + xb * yc, xa * yb + xb * yd,
            xc * ya + xd * yc, xc * yb + xd * yd)


# a diverged point's entries keep growing to inf, then nan (inf - inf), and a
# cap near float64's range lets entries below it square to inf; the flag is
# sticky and an inf or nan total is past every cap, so the overflow is
# expected and must not reach stderr
@np.errstate(over="ignore", invalid="ignore")
def vacuum_diverges(gamma_tau1, omega_tau2, periods, photon_cap):
    """Vectorized Gaussian boundedness check from vacuum on a product grid.

    Takes the 1-D grid axes, as :func:`zenofloquet.floquet.pair_map` does, and
    returns a ``(len(gamma_tau1), len(omega_tau2))`` boolean array marking the
    drives whose photon number from vacuum is past ``photon_cap`` at a
    checkpoint: after ``1, 2, 4, ...`` periods (powers of two up to
    ``periods``) and after ``periods``.  A total is past the cap when it
    exceeds the cap or is not finite (``floquet._past_cap``, the test of
    every engine), so with ``photon_cap = inf`` a drive is marked once its
    photon number overflows.  Photon growth of an unstable map is eventually
    monotone, so the checkpoints catch its divergence; a stable drive whose
    bounded excursion passes the cap only between checkpoints is reported
    bounded, where :func:`evolve`, which tests every period, reports it
    diverged.  A point stays marked once past the cap; its entries may then
    overflow to ``inf`` or ``nan``, silently.

    Only ``P = pair_map(gamma_tau1, omega_tau2)`` is evolved, with its
    inputs checked as given.  With ``X`` the x<->p swap and ``D = diag(1,
    -1)``, the plus map of :func:`pm_pair_maps` is ``X @ P @ X`` and the
    minus map is ``D @ plus @ D``; both conjugations are orthogonal, so
    every power of either map has the Frobenius norm of the same power of
    ``P``.  The powers are multiplied as four entry arrays, because batched
    ``@`` on 2x2 stacks is slow.
    """
    periods = _require_int("periods", periods)
    _require_cap(photon_cap)
    pair = pair_map(gamma_tau1, omega_tau2)
    diverged = np.zeros(pair.shape[:-2], dtype=bool)
    if not periods:
        return diverged  # only the vacuum, which no cap > 0 trips

    def check(mats):
        # photons from vacuum after n periods: the pm basis is orthogonal, so
        # |S^n|_F^2 / 4 - 1 = (|plus^n|_F^2 + |minus^n|_F^2) / 4 - 1 = |P^n|_F^2 / 2 - 1;
        # the squares are summed in the plus map's entry order (d, c, b, a), so
        # the total is the two-pair sum's bit for bit, rounding near 0 included
        diverged[_past_cap(sum(e * e for e in reversed(mats)) / 2.0 - 1.0, photon_cap)] = True

    # step holds P^n for n = 1, 2, 4, ...; power collects P^periods from them
    step = tuple(pair[..., i, j] for i in (0, 1) for j in (0, 1))
    power = None
    n = 1
    while True:
        check(step)
        if periods & n:
            power = step if power is None else _mul(step, power)
        if 2 * n > periods:
            break
        step = _mul(step, step)
        n *= 2
    check(power)
    return diverged


def _mode_basis(plus, minus) -> np.ndarray:
    """block-diag(plus, minus) conjugated back to the (x_a, p_a, x_b, p_b) basis.

    ``plus`` and ``minus`` are 2x2 maps or equal-shaped stacks of them.
    """
    blocks = np.zeros(np.shape(plus)[:-2] + (4, 4))
    blocks[..., :2, :2] = plus
    blocks[..., 2:, 2:] = minus
    return PM_BASIS.T @ blocks @ PM_BASIS


def two_mode_period_symplectic(schedule: DriveSchedule) -> np.ndarray:
    """One-period 4x4 symplectic map in the mode (x_a, p_a, x_b, p_b) basis.

    Built as block-diag of the plus/minus pair maps conjugated back with the
    orthogonal basis change.
    """
    return _mode_basis(*pm_pair_maps(schedule.gamma_tau1, schedule.omega_tau2))


#: Periods per power table in :func:`_step_periods`: bounds a long run's
#: memory and the work that a run stopped by the photon cap does past the trip.
_CHUNK = 4096


@dataclass(frozen=True)
class GaussianTrajectory:
    """Per-period photon records of a Gaussian evolution.

    ``status`` is ``"ok"`` or ``"diverged"``; a diverged trajectory ends at
    the first period whose total photon number exceeded the cap or was not
    finite.
    """

    photons_per_mode: np.ndarray
    photon_totals: np.ndarray
    status: str
    periods_completed: int

    def __len__(self):
        return self.photon_totals.size

    @property
    def diverged(self) -> bool:
        return self.status == "diverged"


def _unit_determinant(maps):
    """2x2 maps moved onto ``det = 1`` by one least-norm Newton step.

    A product of two large 2x2 powers misses ``det = 1`` by about
    ``eps |A| |B| |AB|``, which near the stability edge breaks the uncertainty
    check of the evolved states.  The step subtracts ``(det - 1) / |A|_F^2``
    times the cofactor matrix, the gradient of the determinant.
    """
    a, b, c, d = maps[..., 0, 0], maps[..., 0, 1], maps[..., 1, 0], maps[..., 1, 1]
    step = (a * d - b * c - 1.0) / (a * a + b * b + c * c + d * d)
    cofactor = np.flip(maps, (-2, -1)) * [[1.0, -1.0], [-1.0, 1.0]]
    return maps - np.where(np.isfinite(step), step, 0.0)[..., None, None] * cofactor


# table entries past a tripped cap may overflow; the cap test reports them
@np.errstate(over="ignore", invalid="ignore")
def _step_periods(state: GaussianState, schedule: DriveSchedule, photon_cap, settle):
    """The per-period stepping loop of every Gaussian evolution.

    The mean advances as ``S^n @ mean`` and the covariance as
    ``S^n @ cov @ (S^n)^T`` with S the per-period symplectic map matching the
    state's mode count, taken from one :func:`zenofloquet.floquet.powers`
    table of the 2x2 plus/minus blocks (the minus block alone for one mode)
    and applied to the last state of each run of up to ``_CHUNK`` periods.
    ``settle(means, covs, per_mode)`` receives each run's samples, one per
    period, with their photons per mode; a run that the photon cap stops ends
    at the first period whose total photon number is past ``photon_cap``
    (``floquet._past_cap``: above it or not finite), and no run follows it.
    Returns the status, ``"ok"`` or ``"diverged"``.
    """
    periods, two_mode = schedule.periods, state.mode_count == 2
    plus, minus = pm_pair_maps(schedule.gamma_tau1, schedule.omega_tau2)
    # powers of the 2x2 blocks keep far smaller symplectic defects than powers
    # of the 4x4 mode-basis map, which can break the uncertainty check
    table = powers(np.stack([plus, minus]) if two_mode else minus, min(periods, _CHUNK))
    table = _unit_determinant(table[1:])
    table = _mode_basis(table[:, 0], table[:, 1]) if two_mode else table

    mean, cov = state.mean, state.covariance
    status = "ok"
    done = 0
    while done < periods and status == "ok":
        maps = table[:periods - done]
        # near float64's range maps @ cov can overflow before the total does;
        # a power-of-two scale is exact, so runs far from it keep their bits
        big = np.abs(cov).max()
        shift = np.frexp(big)[1] if big > 2.0**512 else 0
        covs = np.ldexp(maps @ np.ldexp(cov, -shift) @ np.swapaxes(maps, 1, 2), shift)
        means, covs = maps @ mean, (covs + np.swapaxes(covs, 1, 2)) / 2.0
        per_mode = _photons_per_mode(means, covs)
        tripped = np.flatnonzero(_past_cap(per_mode.sum(axis=-1), photon_cap))
        if tripped.size:
            status = "diverged"
            kept = tripped[0] + 1
            means, covs, per_mode = means[:kept], covs[:kept], per_mode[:kept]
        settle(means, covs, per_mode)
        done += per_mode.shape[0]
        mean, cov = means[-1], covs[-1]
    return status


# the total of a tripped sample may overflow; the status reports it
@np.errstate(over="ignore", invalid="ignore")
def evolve(state: GaussianState, schedule: DriveSchedule, *,
           photon_cap: float = PHOTON_CAP) -> GaussianTrajectory:
    """Evolve a Gaussian state through N full periods of the switched drive.

    The photon numbers are sampled after every period (N + 1 entries), from
    the exact per-period symplectic map applied to the mean and covariance.

    Parameters
    ----------
    state : GaussianState
        Initial state; must satisfy the uncertainty invariant.
    schedule : DriveSchedule
        Drive parameters, including the period count N; anything else is a
        ``ValueError``.
    photon_cap : float
        Divergence guard, > 0 and never a bool (``inf`` for no cap);
        evolution stops with status "diverged" at the first period whose
        total photon number is past it: above it or not finite, the one
        cap test of every engine (``floquet._past_cap``).

    Returns
    -------
    GaussianTrajectory
    """
    if not isinstance(state, GaussianState):
        raise InvalidStateError("initial state must be a GaussianState")
    _require_schedule(schedule)
    _require_cap(photon_cap)
    photons = [_photons_per_mode(state.mean, state.covariance)[None]]
    status = _step_periods(state, schedule, photon_cap,
                           lambda means, covs, per_mode: photons.append(per_mode))
    per_mode = np.concatenate(photons)
    return GaussianTrajectory(
        photons_per_mode=per_mode,
        photon_totals=per_mode.sum(axis=1),
        status=status,
        periods_completed=per_mode.shape[0] - 1,
    )
