"""Exact truncated number-basis oracle for the switched drive.

States live in a per-mode photon-number basis truncated at a cutoff D
(inclusive), ordered lexicographically: two-mode basis index
``n_a * (D + 1) + n_b``, single-mode index ``n``.  Segment propagation is
exact unitary evolution ``exp(-i H t)`` obtained from a real-eigenvalue
decomposition of the (real symmetric) Hamiltonian.

Only the dimensionless angles ``gamma * tau1`` and ``omega * tau2`` enter a
segment unitary, so the eigendecompositions are computed once, on the
coupling-free generators, and reused for every schedule.  Both segment
generators conserve a number-like quantity (``n_a - n_b`` during
amplification, ``n_a + n_b`` during exchange), which splits them into small
tridiagonal blocks (chains).  The blocks are packed by length into a few
padded basis tensors, and a segment acts on a matrix of amplitude
columns, so one propagation can carry many states (one per exchange angle in
:func:`zeno_threshold_scan`).

A propagation carries the rows of one sector, chosen from its initial
columns by :func:`_sector_key`.  One cached :class:`_Sector` per (cutoff,
mode count, sector) holds all that the stepping loop reads: the basis rows,
the factor that maps amplitudes on them to the loop's coordinates, the
observables, both packed generators and the permutation between them.

- Parity.  Every segment generator conserves the parity of the total photon
  number, even under hard truncation, and every chain lies in one parity
  sector.  Columns whose nonzero amplitudes all share one parity (the
  vacuum, any number state) carry only that parity's rows, half the basis;
  mixed-parity columns such as coherent states carry every row.
- Swap.  Both two-mode generators, and the hard cutoff, are symmetric under
  the mode swap ``a <-> b``.  Columns of even parity that all equal their
  own swap exactly (``psi[n_a, n_b] == psi[n_b, n_a]``: the vacuum, ``|n,
  n>``) carry only the rows with ``n_a >= n_b``, in the orthonormal
  symmetric basis, where an amplitude off the diagonal ``n_a == n_b`` is
  multiplied by sqrt2.  The amplifying chains with ``n_a >= n_b`` are
  unchanged there; each exchange chain ``|k, s - k>``, of even ``s``, folds
  onto its half ``k >= s/2``, with its first off-diagonal multiplied by
  sqrt2.
- Gauge.  Every chain on a sector has a zero diagonal, and each of its
  links changes ``s = n_a mod 2`` (two modes; ``n_a`` is the larger
  occupation on a swap sector's row) or ``s = (n // 2) mod 2`` (one mode):
  the sectors are bipartite.  In the gauge ``D = diag(i^s)`` a segment ``D^-1
  exp(-i angle H) D = exp(angle K)`` is real orthogonal, with ``K = D^-1 H D
  / i`` real antisymmetric.  Its real Schur basis ``Q`` (Golub and Van Loan,
  *Matrix Computations*) comes from the chain eigenvectors: each eigenpair
  ``(w > 0, v)`` spans the plane of ``sqrt2 (1 - s) v`` and ``sqrt2 s v``,
  which the segment turns by ``angle * w``, and an odd chain's zero mode
  stays fixed.  The diagonal single-mode rotation commutes with ``D``.

The stepping loop carries gauge coordinates: ``D^-1`` times the swap fold
of the amplitudes, float64 when they start real and every segment is a real
map (the vacuum of two modes: every scan and the default simulation),
complex otherwise.  A segment is the rotation ``R(angle)`` of the planes in
``Q``, applied in one of two ways:

- one angle shared by the columns gets one float64 map per bucket, ``Q @
  (R(angle) Q^T)``, built once per propagation, which acts on any number of
  columns by one real matmul per bucket (on the float64 view of complex
  columns);
- one angle per column (the exchange segment of a scan) projects with
  ``Q^T``, rotates each plane by its column's angle, and restores with
  ``Q``: two real matmuls per bucket around one ``take`` of each
  coordinate's partner and three elementwise products and sums, on the
  float64 view of complex columns.

Each period gathers the columns into the amplifying packing, moves them into
the exchange packing by one composite permutation and scatters them back to
the sector basis.  A propagation holds one workspace: the sector columns,
each segment's packed input and output, and the real plane coordinates of
a per-column segment.  Each segment is bound to its buffers once, with
every bucket's operand views and rotation tables built then, and bound
again only when columns leave, so a period fills existing buffers, builds
no view, and allocates only the per-column norms and observables that it
reports; the norms come from the observables' row of ones.

Truncation is monitored, not assumed: any population above 90% of the cutoff
beyond 1e-8 marks the run truncation-unsafe rather than silently wrong.
:func:`propagate` returns the photon numbers, norm drift and leakage of every
period, the initial one included, all read on the sector; the propagated
amplitudes stay on the sector basis inside its stepping loop and are not
kept.  A cutoff is at most ``MAX_CUTOFF`` for its mode count, checked before
anything of its size is allocated.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .floquet import (DriveSchedule, _past_cap, _require_amplitudes, _require_cap,
                      _require_finite, _require_int, _require_real, _require_schedule)

#: Population fraction allowed in levels above HIGH_LEVEL_FRACTION * cutoff:
#: the one definition of a truncation-safe state.
LEAKAGE_THRESHOLD = 1e-8
HIGH_LEVEL_FRACTION = 0.9

#: Largest cutoff the automatic policy will pick (the leakage monitor, not
#: the policy, is what certifies a run).
MAX_DEFAULT_CUTOFF = 60

#: Largest cutoff of any state or scan, by mode count.  At the ceiling the
#: first period, which eigendecomposes the segment blocks, takes 0.2 s for one
#: mode and 0.3-0.6 s for two on a 2-vCPU host, in under 100 MB; that cost
#: grows like cutoff^3 for one mode and cutoff^4 for two.
MAX_CUTOFF = {1: 2000, 2: 200}

#: Largest dimension ``(cutoff + 1) ** modes`` of the dense reference
#: :func:`build_hamiltonian`: two-mode cutoff 31.  Building both two-mode
#: generators there peaked at 37 MB of new RSS (93 MB at cutoff 40); the peak
#: grows like the dimension squared.
MAX_DENSE_DIM = 1024


class HamiltonianLabel(enum.Enum):
    """The four segment Hamiltonians of the switched drive."""

    TWO_MODE_UNSTABLE = "two_mode_unstable"      # G (a+ b+ + a b)
    TWO_MODE_STABLE = "two_mode_stable"          # W (a+ b + a b+)
    SINGLE_MODE_UNSTABLE = "single_mode_unstable"  # G/2 (a+^2 + a^2)
    SINGLE_MODE_STABLE = "single_mode_stable"      # W/2 (a+ a + a a+)

    @property
    def mode_count(self) -> int:
        return 2 if self.value.startswith("two") else 1


def _require_cutoff(cutoff, mode_count) -> int:
    """``cutoff`` as an ``int`` in [1, ``MAX_CUTOFF[mode_count]``]."""
    modes = _require_int("mode_count", mode_count, 1, 2)
    return _require_int("cutoff", cutoff, 1, MAX_CUTOFF[modes])


def _destroy(cutoff: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), k=1)


def _generator_dense(label: HamiltonianLabel, cutoff: int) -> np.ndarray:
    """Coupling-free generator; real symmetric by construction."""
    a = _destroy(cutoff)
    if label.mode_count == 2:
        eye = np.eye(cutoff + 1)
        mode_a = np.kron(a, eye)
        mode_b = np.kron(eye, a)
        if label is HamiltonianLabel.TWO_MODE_UNSTABLE:
            x = mode_a @ mode_b
        else:
            x = mode_a.T @ mode_b
        return x + x.T
    if label is HamiltonianLabel.SINGLE_MODE_UNSTABLE:
        x = a @ a / 2.0
        return x + x.T
    # number operator plus the vacuum term: (a+ a + a a+)/2 = n + 1/2
    return np.diag(np.arange(cutoff + 1) + 0.5)


def build_hamiltonian(label: HamiltonianLabel, coupling: float,
                      cutoff: int) -> np.ndarray:
    """Segment Hamiltonian from standard ladder-operator actions.

    Creation out of the top level D maps to zero (hard truncation).  The
    returned read-only matrix is real symmetric, hence Hermitian.  Its
    dimension ``(D + 1) ** modes`` is at most ``MAX_DENSE_DIM``.
    """
    cutoff = _require_cutoff(cutoff, label.mode_count)
    dim = (cutoff + 1) ** label.mode_count
    if dim > MAX_DENSE_DIM:
        raise ValueError(f"dense dimension {dim} (cutoff {cutoff}) exceeds "
                         f"the dense reference's ceiling {MAX_DENSE_DIM}")
    _require_real("coupling", coupling)
    matrix = coupling * _generator_dense(label, cutoff)
    matrix.setflags(write=False)
    return matrix


def segment_unitary(h: np.ndarray, duration: float) -> np.ndarray:
    """U = exp(-i H t) of a Hamiltonian matrix via Hermitian eigendecomposition.

    ``h`` is a nonempty square 2-D array of finite real or complex
    entries, never bools; the duration is one finite real of any sign,
    never a bool.  Raises a numeric error naming the matrix size and
    largest entry if the eigendecomposition fails, or if the result misses
    ``max |U+ U - I| <= 1e-10``.
    """
    h = _require_finite("h", h, "iufc")
    if h.ndim != 2 or h.shape[0] != h.shape[1] or not h.size:
        raise ValueError(f"h must be a nonempty square matrix, got shape {h.shape}")
    if np.ndim(_require_finite("duration", duration)):
        raise ValueError(f"duration must be a scalar, got shape {np.shape(duration)}")
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ArithmeticError(
            f"eigendecomposition failed for a {h.shape[0]}x{h.shape[1]} "
            f"Hamiltonian (|H|_max {np.abs(h).max():.3e}): {exc}") from exc
    u = (v * np.exp(-1j * w * duration)) @ v.conj().T
    err = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
    if not err <= 1e-10:
        raise ArithmeticError(f"unitarity defect {err:.3e} exceeds 1e-10")
    return u


# --- states -----------------------------------------------------------------

@dataclass(frozen=True)
class FockState:
    """Normalized amplitude vector over the truncated number basis."""

    mode_count: int
    cutoff: int
    amplitudes: np.ndarray

    def __post_init__(self):
        modes = _require_int("mode_count", self.mode_count, 1, 2)
        object.__setattr__(self, "mode_count", modes)
        object.__setattr__(self, "cutoff", _require_cutoff(self.cutoff, modes))
        dim = (self.cutoff + 1) ** self.mode_count
        amps = np.array(_require_finite("amplitudes", self.amplitudes, "iufc"),
                        dtype=complex).reshape(-1)
        if amps.size != dim:
            raise ValueError(f"expected {dim} amplitudes, got {amps.size}")
        norm = np.linalg.norm(amps)
        if norm == 0 or not math.isfinite(norm):
            raise ValueError("amplitudes must have finite nonzero norm")
        amps = amps / norm
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return (self.cutoff + 1) ** self.mode_count


def basis_index(cutoff: int, *occupations: int) -> int:
    """Lexicographic basis index of |n_a, n_b> (or |n> for one mode)."""
    if len(occupations) not in (1, 2):
        raise ValueError(f"expected one or two occupations, got {len(occupations)}")
    cutoff = _require_cutoff(cutoff, len(occupations))
    index = 0
    for n in occupations:
        index = index * (cutoff + 1) + _require_int("occupation", n, 0, cutoff)
    return index


def number_state(cutoff: int, *occupations: int) -> FockState:
    """|n> or |n_a, n_b>; the cutoff must host every requested occupation."""
    index = basis_index(cutoff, *occupations)
    amps = np.zeros((int(cutoff) + 1) ** len(occupations), dtype=complex)
    amps[index] = 1.0
    return FockState(mode_count=len(occupations), cutoff=cutoff, amplitudes=amps)


def vacuum_state(cutoff: int, mode_count: int = 2) -> FockState:
    """|0> or |0, 0>."""
    return number_state(cutoff, *([0] * _require_int("mode_count", mode_count, 1, 2)))


def coherent_state(cutoff: int, alphas) -> FockState:
    """Product coherent state; rejects cutoffs that truncate > 1e-10 of norm.

    Each alpha is a finite number, never a bool; ``2 sum |alpha|^2`` is finite.
    """
    alphas, photons = _require_amplitudes(alphas)
    cutoff = _require_cutoff(cutoff, alphas.size)
    n = np.arange(cutoff + 1)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1.0, cutoff + 1)))))
    amps = None
    for alpha, photon in zip(alphas, photons):
        if alpha == 0:
            single = np.zeros(cutoff + 1, dtype=complex)
            single[0] = 1.0
        else:
            single = np.exp(-photon / 2.0 + n * np.log(alpha) - log_fact / 2.0)
        lost = 1.0 - np.linalg.norm(single) ** 2
        if lost > 1e-10:
            raise ValueError(
                f"cutoff {cutoff} too small for |alpha|^2 = {photon:.3g} "
                f"(truncated weight {lost:.2e})")
        amps = single if amps is None else np.kron(amps, single)
    return FockState(mode_count=alphas.size, cutoff=cutoff, amplitudes=amps)


@lru_cache(maxsize=None)
def _number_diagonals(cutoff: int, mode_count: int):
    n = np.arange(cutoff + 1.0)
    if mode_count == 1:
        n.setflags(write=False)
        return (n,)
    n_a = np.repeat(n, cutoff + 1)
    n_b = np.tile(n, cutoff + 1)
    n_a.setflags(write=False)
    n_b.setflags(write=False)
    return n_a, n_b


# --- packed propagation engine -------------------------------------------------

#: Blocks per length bucket of the packed engine.
BUCKET_BLOCKS = 8


def _chains(label: HamiltonianLabel, cutoff: int, swap: bool):
    """(basis indices, off-diagonal) of each conserved-quantity block.

    Every block of a non-diagonal unit-coupling generator is a tridiagonal
    chain with a zero diagonal.  With ``swap`` (two-mode, even parity only)
    the blocks act on the orthonormal swap-symmetric basis ``|n, n>`` and
    ``(|n_a, n_b> + |n_b, n_a>) / sqrt2`` for ``n_a > n_b``, each vector
    indexed by its row ``|n_a, n_b>``: the amplifying chains with ``n_a >=
    n_b`` keep their entries, and each exchange chain of even ``n_a + n_b``
    folds onto its half with ``n_a >= n_b``.
    """
    d = cutoff
    if label is HamiltonianLabel.TWO_MODE_UNSTABLE:
        # amplification conserves n_a - n_b; chains |n, n - delta>
        for delta in range(0 if swap else -d, d + 1):
            ns = np.arange(max(delta, 0), min(d, d + delta) + 1)
            yield (ns * (d + 1) + (ns - delta),
                   np.sqrt((ns[:-1] + 1.0) * (ns[:-1] - delta + 1.0)))
    elif label is HamiltonianLabel.TWO_MODE_STABLE:
        # exchange conserves n_a + n_b; chains |k, s - k>, folded onto k >= s/2
        for s in range(0, 2 * d + 1, 2 if swap else 1):
            ks = np.arange(s // 2 if swap else max(0, s - d), min(d, s) + 1)
            off = np.sqrt((ks[:-1] + 1.0) * (s - ks[:-1]))
            if swap and off.size:
                # |k0, k0> meets both mirror halves of its neighbour
                off[0] *= math.sqrt(2.0)
            yield ks * (d + 1) + (s - ks), off
    elif label is HamiltonianLabel.SINGLE_MODE_UNSTABLE:
        # pair creation conserves photon parity; chains n, n+2, ...
        for parity in (0, 1):
            ns = np.arange(parity, d + 1, 2)
            yield ns, np.sqrt((ns[:-1] + 1.0) * (ns[:-1] + 2.0)) / 2.0


def _sector_key(columns: np.ndarray, mode_count: int, cutoff: int):
    """The smallest sector ``(parity, swap)`` that holds ``columns``.

    ``parity`` is the photon parity of every nonzero amplitude, or ``None``
    if they mix parities (a coherent state, say); ``swap`` is whether the
    parity is even and every column is two-mode and exactly equal to its own
    swap, ``psi[n_a, n_b] == psi[n_b, n_a]`` (the vacuum, ``|n, n>``).  Odd
    and mixed swap-symmetric columns run on their whole parity sector.
    """
    total = sum(_number_diagonals(cutoff, mode_count))
    parities = np.unique(total[(columns != 0).any(axis=1)] % 2)
    parity = int(parities[0]) if parities.size == 1 else None
    if mode_count == 1 or parity != 0:
        return parity, False
    grid = columns.reshape(cutoff + 1, cutoff + 1, -1)
    return parity, bool(np.array_equal(grid, grid.transpose(1, 0, 2)))


@dataclass(frozen=True)
class _Packing:
    """Conserved-quantity blocks of one generator, packed, in a basis where
    each segment is a rotation of planes.

    Only the blocks of one sector are kept, on the sector's basis, and rows
    are numbered within the sector, in the order of its ``rows`` (see
    :class:`_Sector`).  The blocks are sorted by length and packed
    ``BUCKET_BLOCKS`` at a time into buckets padded to their longest block;
    the packed rows are the buckets' rows one after another.  ``gather`` is
    the sector row of every packed row (padding repeats row 0) and
    ``unpack`` the packed row of every sector row.  Each bucket is ``(start,
    stop, basis)``: its packed row range and the ``(nblocks, L, L)`` real
    orthogonal basis ``Q`` of each block, zero on padding so that padding
    neither reads nor writes an amplitude.  The columns of ``Q`` are the
    block's packed coordinates: ``weights`` is the signed rate ``r`` of
    every coordinate and ``partner`` the coordinate it turns with, so that a
    segment of angle ``t`` maps coordinate ``c`` to ``cos(t r_c) c + sin(t
    r_c) partner(c)``.

    In the gauge a chain's segment is ``exp(angle K)``, ``K = D^-1 H D / i``
    real antisymmetric.  Each eigenpair ``(w > 0, v)`` of the chain gives
    the plane ``u0 = sqrt2 (1 - s) v``, ``u1 = sqrt2 s v``, with ``K u0 = -w
    u1`` and ``K u1 = w u0``; the pair ``(-w, (1 - 2s) v)`` gives the same
    plane.  A chain of length ``m`` has ``h = m // 2`` coordinates ``c`` on
    the ``u0`` (rate ``w``, partner ``c + h``), then ``h`` on the ``u1``
    (rate ``-w``, partner ``c - h``), then, if ``m`` is odd, its zero mode,
    which stays fixed; a fixed coordinate (a zero mode, padding) has rate 0
    and is its own partner.  A diagonal generator has no buckets:
    ``weights`` is its eigenvalue on every row and ``partner`` is unread.
    """

    gather: np.ndarray
    unpack: np.ndarray
    weights: np.ndarray
    partner: np.ndarray
    buckets: tuple


def _packed_blocks(label: HamiltonianLabel, cutoff: int, swap: bool,
                   rows: np.ndarray, s: np.ndarray) -> _Packing:
    """The packed rotation planes of a unit-coupling generator on the sector
    basis ``rows`` (folded by the mode swap if ``swap``), whose gauge
    indicators are ``s`` (1 where ``D`` is i)."""
    if label is HamiltonianLabel.SINGLE_MODE_STABLE:
        # (a+ a + a a+)/2 = n + 1/2 is already diagonal
        index = np.arange(rows.size)
        packing = _Packing(index, index, rows + 0.5, index, ())
    else:
        # each chain conserves photon parity and, folded in a swap sector,
        # keeps n_a >= n_b, so it lies wholly in or out of the sector;
        # position is -1 outside it
        position = np.full((cutoff + 1) ** label.mode_count, -1, dtype=np.intp)
        position[rows] = np.arange(rows.size)
        chains = sorted(((position[idx], off)
                         for idx, off in _chains(label, cutoff, swap)
                         if position[idx[0]] >= 0),
                        key=lambda chain: chain[0].size)
        gather, real, weights, partner, buckets = [], [], [], [], []
        start = 0
        for first in range(0, len(chains), BUCKET_BLOCKS):
            group = chains[first:first + BUCKET_BLOCKS]
            shape = (len(group), group[-1][0].size)
            index = np.zeros(shape, dtype=np.intp)
            used = np.zeros(shape, dtype=bool)
            rates = np.zeros(shape)
            basis = np.zeros(shape + shape[1:])
            for k, (idx, off) in enumerate(group):
                m, h = idx.size, idx.size // 2
                index[k, :m], used[k, :m] = idx, True
                chain = np.zeros((m, m))
                chain.flat[1::m + 1] = chain.flat[m::m + 1] = off
                w, v = np.linalg.eigh(chain)
                # eigh's order is ascending: the last h eigenpairs are
                # positive, the middle one of an odd chain is its zero mode;
                # s alternates along the chain, so the rows with s = 0 (the
                # u0's) are every other row from row s[idx[0]]
                positive, lead = v[:, m - h:] * math.sqrt(2.0), s[idx[0]]
                basis[k, lead:m:2, :h] = positive[lead::2]
                basis[k, 1 - lead:m:2, h:2 * h] = positive[1 - lead::2]
                basis[k, :m, 2 * h:m] = v[:, h:m - h]
                rates[k, :h] = rates[k, h:2 * h] = w[m - h:]
            basis.setflags(write=False)
            half = used.sum(axis=1, keepdims=True) // 2
            c = np.arange(shape[1])
            u0, u1 = c < half, (c >= half) & (c < 2 * half)
            buckets.append((start, start + index.size, basis))
            gather.append(index.ravel())
            real.append(used.ravel())
            weights.append((rates * (u0 * 1.0 - u1)).ravel())
            partner.append((c + half * (u0 * 1 - u1) + start
                            + shape[1] * np.arange(shape[0])[:, None]).ravel())
            start += index.size
        gather, real = np.concatenate(gather), np.concatenate(real)
        unpack = np.empty(rows.size, dtype=np.intp)
        unpack[gather[real]] = np.flatnonzero(real)
        packing = _Packing(gather, unpack, np.concatenate(weights), np.concatenate(partner),
                           tuple(buckets))
    for arr in (packing.gather, packing.unpack, packing.weights, packing.partner):
        arr.setflags(write=False)
    return packing


@dataclass(frozen=True)
class _Sector:
    """Everything a propagation reads on the sector ``key = (parity, swap)``.

    ``rows`` are the sector's basis rows: those whose total photon number
    has ``parity`` (``None``: any), and with ``swap`` only those with ``n_a
    >= n_b``.  ``to_gauge`` is the factor that maps amplitudes on ``rows`` to
    the loop's gauge coordinates: ``D^-1``, and with ``swap`` sqrt2 off the
    diagonal ``n_a == n_b`` (the coordinate of a symmetric vector on the
    orthonormal symmetric basis).  ``observables`` maps the probabilities of
    gauge coordinates to (photons per mode..., leakage, norm squared).
    ``amplify`` and ``exchange`` are the two segment generators packed on
    the sector, and ``between`` the composite index from the amplifying
    packing to the exchange packing: unpack, then gather.
    """

    rows: np.ndarray
    to_gauge: np.ndarray
    observables: np.ndarray
    amplify: _Packing
    exchange: _Packing
    between: np.ndarray


@lru_cache(maxsize=None)
def _sector(cutoff: int, mode_count: int, key) -> _Sector:
    """The :class:`_Sector` of ``key = (parity, swap)``, built once."""
    parity, swap = key
    diags = _number_diagonals(cutoff, mode_count)
    keep = np.full(diags[0].size, True) if parity is None else sum(diags) % 2 == parity
    if swap:
        keep &= diags[0] >= diags[1]
    rows = np.flatnonzero(keep)
    # D = diag(i^s): s = n_a mod 2 for two modes, (n // 2) mod 2 for one
    s = (rows // (cutoff + 1) if mode_count == 2 else rows // 2) % 2
    to_gauge = np.where(s == 1, -1j, 1.0)
    leak = np.maximum.reduce(diags)[rows] > HIGH_LEVEL_FRACTION * cutoff
    if swap:
        to_gauge *= np.where(diags[0] == diags[1], 1.0, math.sqrt(2.0))[rows]
        # the symmetric vector of row |n_a, n_b> has <n_a> = <n_b> = (n_a + n_b) / 2
        diags = ((diags[0] + diags[1]) / 2.0,) * 2
    observables = np.vstack([d[rows] for d in diags] + [leak, np.ones(rows.size)])
    # HamiltonianLabel lists each mode count's amplifying generator first
    amplify, exchange = (_packed_blocks(label, cutoff, swap, rows, s)
                         for label in HamiltonianLabel if label.mode_count == mode_count)
    between = amplify.unpack[exchange.gather]
    for arr in (rows, to_gauge, observables, between):
        arr.setflags(write=False)
    return _Sector(rows, to_gauge, observables, amplify, exchange, between)


def _coordinates(columns: np.ndarray, mode_count: int, cutoff: int):
    """The sector of the amplitude columns ``(dim, k)`` (see
    :func:`_sector_key`) and their gauge coordinates on it: a fresh complex
    ``(sector rows, k)`` array.  Every propagation enters the stepping loop
    through here."""
    sector = _sector(cutoff, mode_count, _sector_key(columns, mode_count, cutoff))
    return sector, columns[sector.rows] * sector.to_gauge[:, None]


class _Segment:
    """``exp(-i * angle * generator)`` of one segment on amplitude columns.

    The columns hold the gauge coordinates of a sector (see :class:`_Sector`)
    in the order of ``packing``.  ``angles`` is one angle shared by every
    column or one angle per column.  A generator with buckets is applied in
    each bucket's basis ``Q`` (see :class:`_Packing`), where the segment is
    the rotation ``R(angle)`` of :func:`_rotate`, and ``angles`` chooses
    how:

    - one angle: the bucket's map ``Q @ (R(angle) Q^T)`` is built here, once
      per propagation, and each application is one real matmul per bucket,
      on the float64 view of complex columns;
    - one angle per column: each application projects with ``Q^T``, rotates
      and restores with ``Q``, two real matmuls per bucket around one
      :func:`_rotate` (on the float64 view of complex columns).  A map per
      column would hold ``columns * sum(L^2)`` entries.

    Any path holds for any number of columns.  A zero angle is the identity
    and builds nothing.  A diagonal generator has no buckets and only
    multiplies by the phases ``exp(-i * angle * weights)``, which commute
    with ``D``.  :meth:`bind` ties the chosen path to an input and an output
    buffer once, builds its tables for the columns then active, and returns
    the step that applies it between them.  ``real`` is whether the segment
    maps real coordinates to real ones: the identity, or a generator with
    buckets, whose sector is bipartite.
    """

    def __init__(self, packing: _Packing, angles):
        self.packing = packing
        self.angles = np.atleast_1d(np.asarray(angles, dtype=float))
        self.identity = not self.angles.any()
        self.real = self.identity or bool(packing.buckets)
        self.maps = None
        if self.angles.size == 1 and not self.identity and packing.buckets:
            turn = packing.weights[:, None] * self.angles
            cos, sin = np.cos(turn), np.sin(turn)
            maps = []
            for start, stop, q in packing.buckets:
                # the rows of Q^T are the bucket's coordinates
                turned = q.transpose(0, 2, 1).copy()
                _rotate(turned.reshape(stop - start, -1), cos[start:stop], sin[start:stop],
                        packing.partner[start:stop] - start)
                maps.append((start, stop, q @ turned))
            self.maps = tuple(maps)

    def keep(self, columns):
        """Drop the angles of columns that left the active set; a step bound
        before keeps the tables it was bound with."""
        if self.angles.size > 1:
            self.angles = self.angles[columns]

    def bind(self, x: np.ndarray, y: np.ndarray):
        """A step that applies the segment to the gauge coordinates in ``x``
        and writes them to ``y``.  ``x`` and ``y`` are C-contiguous buffers
        of shape (packed rows, columns) and of one dtype, float64 only if the
        segment is ``real``.  Every table and every operand view of every
        bucket is built here once, so a step only fills existing buffers.
        Padding rows are read as zero and written zero, or copied for the
        identity."""
        if not (x.flags.c_contiguous and y.flags.c_contiguous):
            raise ValueError("a segment binds only C-contiguous buffers")
        if self.identity:
            return partial(np.copyto, y, x)
        packing = self.packing
        turn = packing.weights[:, None] * self.angles
        if not packing.buckets:
            return partial(np.multiply, x, np.exp(-1j * turn), out=y)
        # a real basis or map acts on the float64 view of complex columns:
        # (rows, k) complex is (rows, 2k) real
        x, y = x.view(np.float64), y.view(np.float64)
        if self.maps is not None:
            return partial(_matmuls, _bucket_views(self.maps, x, y))
        # one angle per column of x, or per float64 column of its view
        cos, sin = np.cos(turn), np.sin(turn)
        if x.shape[1] > self.angles.size:
            cos, sin = np.repeat(cos, 2, axis=1), np.repeat(sin, 2, axis=1)
        coords, spare = np.empty((2,) + x.shape)
        project = _bucket_views([(start, stop, q.transpose(0, 2, 1))
                                 for start, stop, q in packing.buckets], x, coords)
        restore = _bucket_views(packing.buckets, coords, y)

        def step():
            _matmuls(project)
            _rotate(coords, cos, sin, packing.partner, spare)
            _matmuls(restore)
        return step


def _rotate(coords, cos, sin, partner, spare=None):
    """Turn ``coords`` in place by ``R(angle)``: ``cos * coords + sin *
    coords[partner]`` row by row, with ``cos`` and ``sin`` the tables of
    ``angle * weights`` (see :class:`_Packing`) and ``partner`` the row each
    row turns with.  ``spare`` is a buffer of their shape, fresh if
    omitted."""
    spare = coords.take(partner, 0, spare, "clip")
    spare *= sin
    coords *= cos
    coords += spare


def _bucket_views(buckets, x, y):
    """``(operator, x rows, y rows)`` of each bucket ``(start, stop,
    operator)``: the bucket's packed rows of the C-contiguous ``x`` and ``y``
    as (blocks, L, columns) views."""
    views = []
    for start, stop, op in buckets:
        shape = op.shape[:2] + x.shape[1:]
        views.append((op, x[start:stop].reshape(shape), y[start:stop].reshape(shape)))
    return tuple(views)


def _matmuls(views):
    for op, a, b in views:
        np.matmul(op, a, out=b)


def _step_periods(sector: _Sector, psi: np.ndarray, gamma_tau1: float, omega_tau2,
                  periods: int, settle):
    """The per-period stepping loop of every Fock propagation.

    ``psi`` (sector rows, k) holds the gauge coordinates of k columns on
    ``sector``, as :func:`_coordinates` returns them; the loop overwrites
    it.  Each period applies the amplifying segment (angle ``gamma_tau1``,
    shared by every column) and then the exchange segment (``omega_tau2``,
    one angle or one per column) to the active columns, and renormalizes
    them; in between, the columns go from the amplifying packing to the
    exchange packing by ``sector.between``, and each of the three row
    permutations of a period is one ``take`` into a buffer.  The coordinates
    are carried as float64 if they start real and both segments are
    ``real`` (see :class:`_Segment`), complex otherwise.  Then ``settle(n,
    active, psi, norm, per_mode, leak)`` receives the period number, the
    original numbers of the m active columns, their gauge coordinates on the
    sector basis (rows, m), their norms before renormalization (m,), photons
    per mode (modes, m) and leakage (m,), and returns a boolean mask (m,) of
    the columns that stop.  Stopped columns leave the active set; the loop
    ends after ``periods`` periods or when no column is left.

    The loop holds one workspace per set of active columns: ``psi``, each
    segment's packed input and output, bound to the segments (see
    :meth:`_Segment.bind`) when the set starts and again when it shrinks.
    The ``psi`` that ``settle`` receives is that buffer, valid only during
    the call: the next period overwrites it, so a caller that keeps it
    copies it.  ``norm``, ``per_mode`` and ``leak`` are fresh each period.
    """
    amplify = _Segment(sector.amplify, gamma_tau1)
    exchange = _Segment(sector.exchange, omega_tau2)
    real = amplify.real and exchange.real and not psi.imag.any()
    if real:
        psi = np.ascontiguousarray(psi.real)
    gather, between, scatter = sector.amplify.gather, sector.between, sector.exchange.unpack
    n, active = 0, np.arange(psi.shape[1])
    while n < periods and active.size:
        # the workspace of the active columns, bound until a column leaves
        a_in, a_out = np.empty((2, gather.size, active.size), dtype=psi.dtype)
        e_in, e_out = np.empty((2, between.size, active.size), dtype=psi.dtype)
        probs, spare = np.empty((2,) + psi.shape)
        step_amplify, step_exchange = amplify.bind(a_in, a_out), exchange.bind(e_in, e_out)
        for n in range(n + 1, periods + 1):
            # every index is in range by construction, and mode "clip" lets
            # take write into out directly, where "raise" buffers it
            psi.take(gather, 0, a_in, "clip")
            step_amplify()
            a_out.take(between, 0, e_in, "clip")
            step_exchange()
            e_out.take(scatter, 0, psi, "clip")
            if real:
                np.multiply(psi, psi, out=probs)
            else:
                np.square(psi.real, out=probs)
                probs += np.square(psi.imag, out=spare)
            # (photons per mode..., leakage, norm squared)
            observed = sector.observables @ probs
            norm = np.sqrt(observed[-1])
            psi /= norm
            observed[:-1] /= observed[-1]
            stop = settle(n, active, psi, norm, observed[:-2], observed[-2])
            if stop.any():
                keep = ~stop
                # psi[:, keep] is not C-contiguous, and take writes into a
                # non-contiguous out through a temporary copy
                active, psi = active[keep], np.ascontiguousarray(psi[:, keep])
                exchange.keep(keep)
                break


@dataclass(frozen=True)
class FockTrajectory:
    """Per-period observables of a truncated propagation.

    ``status`` is ``"ok"``, ``"truncation-unsafe"`` (leakage monitor tripped
    at ``first_unsafe_period``; later numbers are not trustworthy) or
    ``"photon-cap"`` (early stop requested via ``photon_cap``).
    """

    n_per_mode: np.ndarray
    n_total: np.ndarray
    norm_drift: np.ndarray
    leakage: np.ndarray
    status: str
    first_unsafe_period: int | None
    periods_completed: int

    @property
    def truncation_safe(self) -> bool:
        return self.first_unsafe_period is None

    def __len__(self):
        return self.n_total.size


def propagate(state: FockState, schedule: DriveSchedule, *,
              photon_cap: float = math.inf) -> FockTrajectory:
    """Propagate through N periods, recording observables at each boundary.

    Each period applies the amplifying segment (angle ``gamma * tau1``) then
    the exchange segment (angle ``omega * tau2``).  The state is renormalized
    every period and the pre-renormalization drift logged.  Leakage past
    ``LEAKAGE_THRESHOLD`` marks the trajectory truncation-unsafe from that
    period on.  Propagation stops early at the first period whose total
    photon number is past ``photon_cap``: above it or not finite, the one
    cap test of every engine (``floquet._past_cap``); the status is then
    ``"photon-cap"`` unless the leakage monitor tripped first.  The cap is
    > 0 and never a bool; ``inf``, the default, is no cap.  An initial state
    whose leakage is already past the threshold is a ``ValueError``.
    """
    if not isinstance(state, FockState):
        raise ValueError("initial state must be a FockState")
    _require_schedule(schedule)
    _require_cap(photon_cap)
    sector, psi = _coordinates(state.amplitudes.reshape(-1, 1), state.mode_count,
                               state.cutoff)
    *per_mode, leak, _ = sector.observables @ (np.abs(psi[:, 0]) ** 2)
    if leak >= LEAKAGE_THRESHOLD:
        raise ValueError(f"initial state is not cutoff-safe "
                         f"(leakage {leak:.2e} at cutoff {state.cutoff})")

    n_rec = [np.array(per_mode)]
    drift_rec = [0.0]
    leak_rec = [float(leak)]
    status = "ok"
    first_unsafe = None
    completed = 0
    go_on, stop = np.zeros(1, dtype=bool), np.ones(1, dtype=bool)

    def settle(n, active, psi, norm, per_mode, leak):
        nonlocal status, first_unsafe, completed
        n_rec.append(per_mode[:, 0])
        drift_rec.append(float(norm[0] - 1.0))
        leak_rec.append(float(leak[0]))
        completed = n
        if leak[0] >= LEAKAGE_THRESHOLD and first_unsafe is None:
            first_unsafe = n
            status = "truncation-unsafe"
        capped = _past_cap(per_mode[:, 0].sum(), photon_cap)
        if capped and status == "ok":
            status = "photon-cap"
        return stop if capped else go_on

    _step_periods(sector, psi, schedule.gamma_tau1, schedule.omega_tau2,
                  schedule.periods, settle)
    n_per_mode = np.array(n_rec)
    return FockTrajectory(
        n_per_mode=n_per_mode,
        n_total=n_per_mode.sum(axis=1),
        norm_drift=np.array(drift_rec),
        leakage=np.array(leak_rec),
        status=status,
        first_unsafe_period=first_unsafe,
        periods_completed=completed,
    )


def default_cutoff(gamma_tau1: float, periods: int) -> int:
    """Heuristic cutoff for squeezing-dominated runs, capped at ``MAX_DEFAULT_CUTOFF``.

    Sized from the worst case of uninterrupted amplification over all
    periods; the leakage monitor, not this guess, certifies a run.
    """
    _require_real("gamma_tau1", gamma_tau1)
    squeeze = math.sinh(min(_require_int("periods", periods) * gamma_tau1, 20.0)) ** 2
    return int(min(MAX_DEFAULT_CUTOFF, max(20, math.ceil(10.0 * squeeze + 10.0))))


@dataclass(frozen=True)
class ZenoScanPoint:
    """Outcome of one grid point of :func:`zeno_threshold_scan`."""

    omega_tau2: float
    outcome: str  # "growth" | "bounded" | "indeterminate"
    n_final: float
    periods_run: int


def zeno_threshold_scan(gamma_tau1: float, omega_tau2_grid, *,
                        periods: int = 150, growth_factor: float = 25.0,
                        cutoff: int | None = None):
    """Classify photon growth from vacuum along a grid of exchange angles.

    A point is "growth" once the total photon number exceeds
    ``growth_factor`` times the yield of the first period (the natural scale
    of a single amplification pass from vacuum), "bounded" if it never does
    within ``periods``, and "indeterminate" if the leakage monitor trips
    before either verdict; indeterminate points are never classified.

    The stable/unstable transition along the grid brackets the curve
    ``cos(omega*tau2) cosh(gamma*tau1) = 1`` to within one grid step.  Just
    inside the stable side the photon envelope peaks near
    ``n_first / (2 * |half_trace - 1|)``, so resolving the boundary finer
    than the default grid-step scale needs a growth factor above that peak
    ratio and a cutoff that can hold the excursion.

    The whole grid is propagated at once, one amplitude column per point;
    a point leaves the active columns once it has its verdict.
    """
    grid = np.atleast_1d(np.asarray(_require_finite("omega_tau2 grid", omega_tau2_grid),
                                    dtype=float))
    if grid.ndim != 1:
        raise ValueError(f"omega_tau2 grid must be 1-D, got shape {grid.shape}")
    if grid.size and (grid.min() < -1e-12 or grid.max() > math.pi + 1e-12):
        raise ValueError("omega_tau2 grid must lie within [0, pi]")
    _require_real("gamma_tau1", gamma_tau1)
    _require_real("growth_factor", growth_factor, positive=True)
    periods = _require_int("periods", periods, 1, 200)
    if cutoff is None:
        cutoff = default_cutoff(gamma_tau1, periods)
    cutoff = _require_cutoff(cutoff, 2)
    if not grid.size:
        return ()

    outcome = np.full(grid.size, "bounded", dtype=object)
    n_final = np.zeros(grid.size)
    periods_run = np.zeros(grid.size, dtype=int)
    n_ref = np.zeros(grid.size)

    def settle(n, active, psi, norm, per_mode, leak):
        n_tot = per_mode.sum(axis=0)
        n_final[active] = n_tot
        periods_run[active] = n
        leaky = leak >= LEAKAGE_THRESHOLD
        if n == 1:
            n_ref[active] = n_tot
            grown = np.zeros_like(leaky)
        else:
            ref = n_ref[active]
            grown = ~leaky & (ref > 1e-12) & (n_tot > growth_factor * ref)
        outcome[active[leaky]] = "indeterminate"
        outcome[active[grown]] = "growth"
        return leaky | grown

    vacuum = vacuum_state(cutoff, 2).amplitudes[:, None]
    _step_periods(*_coordinates(np.broadcast_to(vacuum, (vacuum.size, grid.size)), 2, cutoff),
                  gamma_tau1, grid, periods, settle)
    return tuple(ZenoScanPoint(omega_tau2=float(theta), outcome=str(o),
                               n_final=float(nf), periods_run=int(pr))
                 for theta, o, nf, pr in zip(grid, outcome, n_final, periods_run))
