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
growing second moments from which stability is read.  Its stepping loop
works in the pair basis: each run of periods moves its starting state there
once, each pair's half of the mean and each block of the covariance
(plus-plus, minus-minus, plus-minus) moves by the powers of the 2x2 pair
maps, and the samples are assembled back in the mode basis to read their
photons.  The evolved means and covariances are not kept.
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
#: The square of PM_BASIS's entry: the factor of one pass into and one out of
#: the pair basis, ``PM_BASIS.T @ ... @ PM_BASIS``.
_HALF = _SQRT_HALF * _SQRT_HALF


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
    """2x2 products of two stacks held as their entry arrays ``(a, b, c, d)``,
    as fresh arrays: the products that :func:`_pair_stack_diverges` forms in
    place, bit for bit."""
    xa, xb, xc, xd = x
    ya, yb, yc, yd = y
    return (xa * ya + xb * yc, xa * yb + xb * yd,
            xc * ya + xd * yc, xc * yb + xd * yd)


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
    diverged.  A point stays marked once past the cap, and is multiplied on
    with the rest of the grid; its entries may then overflow to ``inf`` or
    ``nan``, silently.

    Only ``P = pair_map(gamma_tau1, omega_tau2)`` is evolved, with its
    inputs checked as given.  With ``X`` the x<->p swap and ``D = diag(1,
    -1)``, the plus map of :func:`pm_pair_maps` is ``X @ P @ X`` and the
    minus map is ``D @ plus @ D``; both conjugations are orthogonal, so
    every power of either map has the Frobenius norm of the same power of
    ``P``.  The grid's pair stack is built once (``sweep --cross-check``
    classifies that same stack), and its powers are evolved as entry arrays
    in place, in three buffers allocated once per call, because batched
    ``@`` on 2x2 stacks is slow and a fresh array per product costs more
    than the product.
    """
    periods = _require_int("periods", periods)
    _require_cap(photon_cap)
    return _pair_stack_diverges(pair_map(gamma_tau1, omega_tau2), periods, photon_cap)


# a point's entries can grow to inf, then nan (inf - inf), once it is past
# the cap, and a cap near float64's range lets entries below it square to
# inf; an inf or nan total is past every cap, so the overflow is expected and
# must not reach stderr
@np.errstate(over="ignore", invalid="ignore")
def _pair_stack_diverges(pair, periods, photon_cap):
    """:func:`vacuum_diverges` of a ``(..., 2, 2)`` stack of pair maps, for a
    valid period count and cap; ``pair`` is left as it is.

    The entries of the maps are the rows of three ``(2, 2, points)`` buffers:
    ``step`` holds ``P^n`` for ``n = 1, 2, 4, ...``, ``power`` collects
    ``P^periods`` from them, and ``work`` holds the second terms of a product,
    then the photon totals.  Each product entry is ``x[i, 0] * y[0, j] +
    x[i, 1] * y[1, j]``, as in :func:`_mul`, and each total is summed in the
    order of the two-pair sum, so every verdict is that of fresh products,
    bit for bit.  Every point is multiplied through every checkpoint: a
    point past the cap stays marked, whatever its later entries.
    """
    if not periods:
        return np.zeros(pair.shape[:-2], dtype=bool)  # only the vacuum, which no cap > 0 trips
    step = np.moveaxis(pair.reshape(-1, 2, 2), 0, -1).copy()
    work = np.empty_like(step)
    power = None
    diverged = np.zeros(step.shape[-1], dtype=bool)

    def past(mats):
        # photons from vacuum after n periods: the pm basis is orthogonal, so
        # |S^n|_F^2 / 4 - 1 = (|plus^n|_F^2 + |minus^n|_F^2) / 4 - 1 = |P^n|_F^2 / 2 - 1;
        # the squares are summed in the plus map's entry order (d, c, b, a), so
        # the total is the two-pair sum's bit for bit, rounding near 0 included
        (a, b), (c, d) = mats
        total, square = work[0]
        np.multiply(d, d, out=total)
        for e in (c, b, a):
            total += np.multiply(e, e, out=square)
        total /= 2.0
        total -= 1.0
        return _past_cap(total, photon_cap)

    n = 1
    while True:
        diverged |= past(step)
        if periods & n and power is None:
            power = step.copy()
        elif periods & n:
            # power = step @ power: row 1 first, as both rows read row 0
            np.multiply(step[:, 1:], power[1:], out=work)
            np.multiply(step[1, 0], power[0], out=power[1])
            np.multiply(step[0, 0], power[0], out=power[0])
            power += work
        if 2 * n > periods:
            diverged |= past(power)
            break
        # step = step @ step: each first term overwrites an entry that no
        # later first term reads
        np.multiply(step[:, 1:], step[1:], out=work)
        np.multiply(step[1, 0], step[0, 1], out=step[1, 1])
        np.multiply(step[1, 0], step[0, 0], out=step[1, 0])
        np.multiply(step[0, 0], step[0, 1], out=step[0, 1])
        np.multiply(step[0, 0], step[0, 0], out=step[0, 0])
        step += work
        n *= 2
    return diverged.reshape(pair.shape[:-2])


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
    _require_schedule(schedule)
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
    """2x2 maps, held as ``(2, 2, ...)`` entry arrays, moved onto ``det = 1``
    by one least-norm Newton step.

    A product of two large 2x2 powers misses ``det = 1`` by about
    ``eps |A| |B| |AB|``, which near the stability edge breaks the uncertainty
    check of the evolved states.  The step subtracts ``(det - 1) / |A|_F^2``
    times the cofactor matrix, the gradient of the determinant.
    """
    (a, b), (c, d) = maps
    step = (a * d - b * c - 1.0) / (a * a + b * b + c * c + d * d)
    step = np.where(np.isfinite(step), step, 0.0)
    return np.array([[a - step * d, b + step * c], [c + step * b, d - step * a]])


def _pair_basis(mean, cov):
    """A one- or two-mode state in the plus/minus basis, with both of
    :data:`PM_BASIS`'s factors applied on the way in.

    With ``PM_BASIS = s H``, ``s`` its rounded ``1/sqrt2`` entry, returns
    ``s^2 H @ mean`` as ``(2, pairs)`` entries ``[i, p]`` and ``s^4 H @ cov @
    H^T`` as ``(2, 2, pairs, pairs)`` entries ``[i, j, p, q]``, entry ``(i, j)``
    of block ``(p, q)``, pair 0 plus and pair 1 minus: evolved by the pair
    maps and taken back with ``H^T`` alone (:func:`_mode_basis_samples`),
    they are ``PM_BASIS.T @ blocks @ PM_BASIS`` applied to the state.  One
    mode is the minus pair alone, with ``H = I`` and no factor.  A state
    equal to its own a<->b swap gets a plus mean and plus/minus cross blocks
    of exact zeros.
    """
    if mean.size == 2:
        return mean[:, None], cov[:, :, None, None]
    (aa, ab), (ba, bb) = cov.reshape(2, 2, 2, 2).swapaxes(1, 2)
    same, swap, diff, turn = aa + bb, ab + ba, aa - bb, ab - ba
    blocks = np.array([[same - swap, diff + turn], [diff - turn, same + swap]]) * _HALF**2
    return (np.array([mean[:2] - mean[2:], mean[:2] + mean[2:]]).T * _HALF,
            blocks.transpose(2, 3, 0, 1))


def _evolved(maps, mean, cov):
    """A :func:`_pair_basis` state after each of a run of pair-map powers.

    ``maps`` holds the powers' entries ``[i, j, p, n]``; returns the means as
    ``(2, pairs, n)`` entries ``[i, p, n]`` and the covariances as ``(2, 2,
    pairs, pairs, n)`` entries ``[i, j, p, q, n]``: ``B_p^n @ m_p`` and
    ``B_p^n @ c_pq @ (B_q^n)^T``.  Each row ``i`` of the covariances holds
    row ``i`` of ``B_p^n @ c_pq`` first, then the product, so that no more
    than half of the covariances is held twice.
    """
    covs = np.empty((2, 2) + cov.shape[2:] + maps.shape[-1:])
    for row, (first, second) in zip(covs, maps):
        np.multiply(first[:, None], cov[0, ..., None], out=row)
        row += second[:, None] * cov[1, ..., None]
        product = row[0] * maps[:, 0, None]
        product += row[1] * maps[:, 1, None]
        row[...] = product
    return maps[:, 0] * mean[0, :, None] + maps[:, 1] * mean[1, :, None], covs


def _mode_basis_samples(means, covs):
    """:func:`_evolved` samples back in the mode basis, as ``(n, 2 pairs)``
    means and ``(n, 2 pairs, 2 pairs)`` covariances; ``covs`` is overwritten.

    Mode a is minus + plus and mode b is minus - plus, of the mean and on
    each side of the covariance.  The covariance is then symmetrised as the
    per-period loop does it, ``(c + c^T) / 2``, so it equals its transpose
    bit for bit and a diagonal entry overflows where ``c + c`` does, as the
    loop's does.  A swap-symmetric sample, exact zeros in its plus mean and
    cross blocks, gets the two modes' entries equal bit for bit.
    """
    means = means.swapaxes(0, 1)  # entries [a, i, n]
    if means.shape[0] == 2:
        means = np.array([means[1] + means[0], means[1] - means[0]])
        for plus, minus in (covs.transpose(2, 0, 1, 3, 4), covs.transpose(3, 0, 1, 2, 4)):
            plus[...], minus[...] = minus + plus, minus - plus
    blocks = covs.transpose(2, 0, 3, 1, 4)  # entries [a, i, b, j, n]
    cov = np.add(blocks, blocks.transpose(2, 3, 0, 1, 4), order="C")
    cov /= 2.0
    size = 2 * means.shape[0]
    return means.reshape(size, -1).T, cov.reshape(size, size, -1).transpose(2, 0, 1)


# table entries past a tripped cap may overflow; the cap test reports them
@np.errstate(over="ignore", invalid="ignore")
def _step_periods(state: GaussianState, schedule: DriveSchedule, photon_cap, settle):
    """The per-period stepping loop of every Gaussian evolution.

    The drive never mixes the plus and minus pairs, so the loop works in
    their basis.  One :func:`zenofloquet.floquet.powers` table of the 2x2
    plus/minus blocks (the minus block alone for one mode) covers a run of
    up to ``_CHUNK`` periods.  Each run moves its starting state into the
    pair basis once (:func:`_pair_basis`); the n-th sample's mean halves are
    ``B_p^n @ m_p`` and its covariance blocks ``B_p^n @ c_pq @ (B_q^n)^T``,
    formed on the table's entry arrays (:func:`_evolved`), then assembled in
    the mode basis (:func:`_mode_basis_samples`).  ``settle(means, covs,
    per_mode)`` receives each run's mode-basis samples, one per period, with
    their photons per mode; a run that the photon cap stops ends at the first
    period whose total photon number is past ``photon_cap``
    (``floquet._past_cap``: above it or not finite), and no run follows it.
    Returns the status, ``"ok"`` or ``"diverged"``.
    """
    periods, two_mode = schedule.periods, state.mode_count == 2
    plus, minus = pm_pair_maps(schedule.gamma_tau1, schedule.omega_tau2)
    # powers of the 2x2 blocks keep far smaller symplectic defects than powers
    # of the 4x4 mode-basis map, which can break the uncertainty check
    table = powers(np.stack([plus, minus] if two_mode else [minus]), min(periods, _CHUNK))
    # entries [i, j, pair, n - 1] of the n-th power of each pair block
    table = _unit_determinant(table[1:].transpose(2, 3, 1, 0))

    mean, cov = state.mean, state.covariance
    status = "ok"
    done = 0
    while done < periods and status == "ok":
        maps = table[..., :periods - done]
        m, c = _pair_basis(mean, cov)
        # near float64's range a block times c can overflow before the total
        # does; a power-of-two scale is exact, so runs far from it keep their bits
        big = np.abs(cov).max()
        shift = np.frexp(big)[1] if big > 2.0**512 else 0
        means, covs = _evolved(maps, m, np.ldexp(c, -shift))
        if shift:
            np.ldexp(covs, shift, out=covs)
        means, covs = _mode_basis_samples(means, covs)
        per_mode = _photons_per_mode(means, covs)
        tripped = np.flatnonzero(_past_cap(per_mode.sum(axis=-1), photon_cap))
        if tripped.size:
            status = "diverged"
            kept = tripped[0] + 1
            means, covs, per_mode = means[:kept], covs[:kept], per_mode[:kept]
        settle(means, covs, per_mode)
        done += per_mode.shape[0]
        # copies, so that a run holds no earlier run's samples
        mean, cov = means[-1].copy(), covs[-1].copy()
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
