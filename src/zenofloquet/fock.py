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
tridiagonal blocks (chains).  The chains are packed into padded blocks,
grouped into buckets of one block length, each bucket one basis tensor.
:func:`_plan` chooses the layout from the chain lengths alone, by one cost:
padded entries plus ``CALL_ENTRIES`` per bucket.  Either the chains are
grouped, one per block and ``BUCKET_BLOCKS`` blocks per bucket, or they
fill one bucket, a long chain and short ones in each block, so that a
segment is one batched matmul.  The cost gives every generator one bucket
on every two-mode sector up to cutoff 43, and on the swap sector, the
vacuum's and every scan's, up to cutoff 61.  A segment acts on a matrix of
amplitude columns, so one propagation can carry many states (one per
exchange angle in :func:`zeno_threshold_scan`).

A propagation carries the rows of one sector, chosen from its initial
columns by :func:`_sector_key`.  One cached :class:`_Sector` per (cutoff,
mode count, sector) holds all that the stepping loop reads: the basis rows,
the factor that maps amplitudes on them to the loop's coordinates, the
observables, both packed generators and the permutations between them.

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
  stays fixed.  The rates ``w`` and both halves of each plane come from one
  singular value decomposition of the chain's links from its even to its
  odd rows.  The diagonal single-mode rotation commutes with ``D``.
- Sides.  Each padded block of length ``L = 2 H`` has two sides of ``H``
  rows; every chain puts its even rows on one side and its odd rows on the
  other.  ``Q`` is then two ``H x H`` halves per block, and a plane turns a
  coordinate on one side with its partner on the other.

The stepping loop carries gauge coordinates: ``D^-1`` times the swap fold
of the amplitudes, float64 when they start real and every segment is a real
map (the vacuum of two modes: every scan and the default simulation),
complex otherwise.  A segment is the rotation ``R(angle)`` of the planes in
``Q``, applied in one of two ways:

- one angle shared by the columns gets one float64 map per bucket, ``Q @
  (R(angle) Q^T)``, dense on each block and built once per propagation from
  the halves of ``Q`` at half the multiply-adds of a dense ``Q``, which acts
  on any number of columns by one real matmul per bucket (on the float64
  view of complex columns);
- one angle per column (the exchange segment of a scan) projects with the
  halves of ``Q^T``, rotates each plane by its column's angle, and restores
  with the halves of ``Q``: two real ``(2 nblocks, H, H)`` matmuls per
  bucket around one ``take`` of each coordinate's partner and three
  elementwise products and sums, on the float64 view of complex columns.

Between periods the columns stay in the exchange packing.  Each period
moves them into the amplifying packing and back by one composite
permutation each, the exchange segment writing straight into them, and
writes their observables, held in that packing with zeros on padding, into
one row of a small record.  The periods run in blocks of ``_BLOCK``: once
per block the norms are read from the record's row of ones, the columns are
renormalized and unpacked to the sector basis by one more permutation, and
the callers settle every period of the block at once; columns stop at the
end of a block.  A propagation holds one workspace: the carried columns,
each segment's packed input and output, the sector columns, the real plane
coordinates of a per-column segment and the block's record.  Each segment
is bound to its buffers once, with every bucket's operand views and
rotation tables built then, and bound again only when columns leave, so a
period fills existing buffers, builds no view and allocates nothing; a
block allocates only the norms and observables that it reports.

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
#: first period, which builds the sector's chain bases and each segment's
#: map, takes on a 2-vCPU host 0.3 s and 43 MB of new RSS for a one-mode
#: coherent state, and for two modes 0.18 s and 34 MB for the vacuum (the
#: swap sector) or 0.95 s and 159 MB for a coherent state (the full sector:
#: two bases of 2.8M entries and two maps of 5.5M each); the time grows like
#: cutoff^3 for one mode and cutoff^4 for two.
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

#: Blocks per bucket of the grouped layout of :func:`_plan`.  The cost of
#: :func:`_plan` does not give this grouping: the contiguous groups of least
#: cost hold 3 to 24 chains each (26 buckets in place of 13 on the two-mode
#: swap sector at cutoff 200), a layout not timed against this one.
BUCKET_BLOCKS = 8

#: Padded basis entries that one more bucket costs in :func:`_plan`: the
#: numpy calls a bucket adds to every segment, in entries of matmul work.  A
#: generator's break-even value is the entries that filling adds over the
#: buckets it saves.  On a 2-vCPU host, one segment (one or six columns,
#: shared or per-column angles) of a two-mode generator at cutoffs 30-100,
#: filled against grouped, was faster in 55 of 60 timings at break-evens up
#: to 2.1k (median -36%), in 16 of 24 from 3.0k to 4.5k (median -10%, -43%
#: to +52%) and in 1 of 36 from 7.2k (median +22%).  2560 lies between the
#: first two bands: it fills every generator up to 2.1k, the two-mode swap
#: sector's to cutoff 60 included, and none from 3.0k.
CALL_ENTRIES = 2560

#: Periods per block of :func:`_step_periods`: the loop settles once per
#: block, and a column that stops costs at most ``_BLOCK - 1`` more periods.
_BLOCK = 16


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

    Only the chains of one sector are kept, on the sector's basis, and rows
    are numbered within the sector, in the order of its ``rows`` (see
    :class:`_Sector`).  :func:`_plan` lays the chains out in padded blocks
    of one or several chains each, and groups the blocks into buckets of one
    length ``L = 2 H``; the packed rows are the buckets' rows one after
    another.  Every chain is bipartite: it links its even rows only to its
    odd rows.  So each block has two sides of ``H`` rows, and each chain
    puts its even rows on one side and its odd rows on the other, the even
    rows (the larger half) on the side with fewer rows so far, side 0 on a
    tie; the chains fill each side one after another from offset 0, and the
    sides never differ by more than one row.  ``gather`` is the sector row
    of every packed row (padding repeats row 0) and ``unpack`` the packed
    row of every sector row.  Each bucket is ``(start, stop, basis)``: its
    packed row range and the ``(2 nblocks, H, H)`` halves of the real
    orthogonal basis ``Q`` of each block, side 0 then side 1.  ``Q`` is
    block-diagonal by side and by chain and zero on padding, so that a chain
    reads and writes only its own rows and padding no amplitude.  The
    columns of ``Q`` are the block's packed coordinates: ``weights`` is the
    signed rate ``r`` of every coordinate and ``partner`` the coordinate it
    turns with, so that a segment of angle ``t`` maps coordinate ``c`` to
    ``cos(t r_c) c + sin(t r_c) partner(c)``.

    In the gauge a chain's segment is ``exp(angle K)``, ``K = D^-1 H D / i``
    real antisymmetric.  Each eigenpair ``(w > 0, v)`` of the chain gives
    the plane ``u0 = sqrt2 (1 - s) v``, ``u1 = sqrt2 s v``, with ``K u0 = -w
    u1`` and ``K u1 = w u0``; the pair ``(-w, (1 - 2s) v)`` gives the same
    plane.  ``u0`` lies on the chain's rows of ``s = 0`` and ``u1`` on those
    of ``s = 1``, one side each.  A chain of length ``m`` has ``h = m // 2``
    planes: coordinate ``j < h`` of its run on each side turns with
    coordinate ``j`` of its run on the other side, at rate ``w`` on the
    ``u0`` side and ``-w`` on the ``u1`` side; if ``m`` is odd, its zero
    mode, last on the even rows' side, stays fixed.  A fixed coordinate (a
    zero mode, padding) has rate 0 and is its own partner.  A diagonal
    generator has no buckets: ``weights`` is its eigenvalue on every row and
    ``partner`` is unread.
    """

    gather: np.ndarray
    unpack: np.ndarray
    weights: np.ndarray
    partner: np.ndarray
    buckets: tuple


def _plan(lengths):
    """The layout of chains of ``lengths`` in padded blocks: a tuple of
    buckets, each a tuple of blocks, each a tuple of chain positions in
    ``lengths``, laid out in that order (see :class:`_Packing`).

    Of two layouts it returns the one of lower :func:`_cost`, the grouped
    one on a tie:

    - grouped: one chain per block, sorted by length, ``BUCKET_BLOCKS``
      blocks per bucket, each bucket as long as its longest chain;
    - filled: one bucket as long as the longest chain, each block holding
      the longest chain left and then the shortest ones that still fit.

    Two-mode chain lengths rise to the longest, ``L``, and fall again, so
    they pair up (``j`` with ``L - j``) and a filled bucket holds little
    padding; but each of its blocks is ``L`` long, so it holds more entries
    than the grouped layout, the more so the larger the cutoff (see
    ``CALL_ENTRIES``).
    """
    order = sorted(range(len(lengths)), key=lengths.__getitem__)
    grouped = tuple(tuple((c,) for c in order[first:first + BUCKET_BLOCKS])
                    for first in range(0, len(order), BUCKET_BLOCKS))
    filled, low, high = [], 0, len(order) - 1
    while low <= high:
        block, room = [order[high]], lengths[order[-1]] - lengths[order[high]]
        high -= 1
        while low <= high and lengths[order[low]] <= room:
            room -= lengths[order[low]]
            block.append(order[low])
            low += 1
        filled.append(tuple(block))
    return min(grouped, (tuple(filled),), key=partial(_cost, lengths))


def _width(lengths, bucket) -> int:
    """The padded length ``2 H`` of ``bucket``'s blocks: its longest block,
    rounded up to even, so that each of a block's two sides holds ``H``
    rows."""
    total = max(sum(lengths[c] for c in block) for block in bucket)
    return total + total % 2


def _cost(lengths, plan) -> int:
    """Padded basis entries of ``plan`` plus ``CALL_ENTRIES`` per bucket."""
    return sum(len(bucket) * _width(lengths, bucket) ** 2 + CALL_ENTRIES for bucket in plan)


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
        chains = [(position[idx], off) for idx, off in _chains(label, cutoff, swap)
                  if position[idx[0]] >= 0]
        lengths = [idx.size for idx, _ in chains]
        gather, real, weights, partner, buckets = [], [], [], [], []
        start = 0
        for bucket in _plan(lengths):
            shape = (len(bucket), 2, _width(lengths, bucket) // 2)
            index = np.zeros(shape, dtype=np.intp)
            used = np.zeros(shape, dtype=bool)
            rates = np.zeros(shape)
            turns = np.arange(start, start + index.size).reshape(shape)
            basis = np.zeros(shape + shape[2:])
            for k, block in enumerate(bucket):
                filled = [0, 0]
                for idx, off in (chains[c] for c in block):
                    m, h = idx.size, idx.size // 2
                    # the chain links its even rows only to its odd rows, so
                    # links[i, j] = chain[2i, 2j + 1] holds all of it
                    links = np.zeros((m - h, h))
                    links.flat[::h + 1] = off[::2]
                    links.flat[h::h + 1] = off[1::2]
                    # each singular triple (w, u, v) is the eigenpair (w, (u,
                    # v) / sqrt2) of the chain, u on its even rows and v on
                    # its odd rows; an odd chain's zero mode is U's extra
                    # column.  The even rows, the larger half, go to the
                    # side with fewer rows so far and the odd rows to the
                    # other, so that neither side outgrows H; coordinate j <
                    # h of each side turns with coordinate j of the other
                    u, w, vt = np.linalg.svd(links)
                    even = int(filled[1] < filled[0])
                    # s alternates along the chain, and the u0's, which turn
                    # at rate w, lie on its s = 0 rows: the even rows if
                    # s[idx[0]] is 0
                    sign = 1 - 2 * s[idx[0]]
                    for side, part, q, rate in ((even, idx[0::2], u, sign * w),
                                                (1 - even, idx[1::2], vt.T, -sign * w)):
                        o, other = filled[side], filled[1 - side]
                        run = slice(o, o + part.size)
                        index[k, side, run], used[k, side, run] = part, True
                        basis[k, side, run, run] = q
                        rates[k, side, o:o + h] = rate
                        turns[k, side, o:o + h] += (1 - 2 * side) * shape[2] + other - o
                    filled[even] += m - h
                    filled[1 - even] += h
            basis = basis.reshape((-1,) + shape[2:] * 2)
            basis.setflags(write=False)
            buckets.append((start, start + index.size, basis))
            gather.append(index.ravel())
            real.append(used.ravel())
            weights.append(rates.ravel())
            partner.append(turns.ravel())
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
    orthonormal symmetric basis).  ``amplify`` and ``exchange`` are the two
    segment generators packed on the sector.  ``observables`` maps the
    probabilities of gauge coordinates in the exchange packing to (photons
    per mode..., leakage, norm squared), with zeros on padding rows.
    ``to_amplify`` is the composite index from the exchange packing to the
    amplifying packing, and ``between`` the one back: each unpacks, then
    gathers.
    """

    rows: np.ndarray
    to_gauge: np.ndarray
    observables: np.ndarray
    amplify: _Packing
    exchange: _Packing
    to_amplify: np.ndarray
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
    # HamiltonianLabel lists each mode count's amplifying generator first
    amplify, exchange = (_packed_blocks(label, cutoff, swap, rows, s)
                         for label in HamiltonianLabel if label.mode_count == mode_count)
    observables = np.zeros((len(diags) + 2, exchange.gather.size))
    observables[:, exchange.unpack] = np.vstack([d[rows] for d in diags]
                                                + [leak, np.ones(rows.size)])
    to_amplify, between = exchange.unpack[amplify.gather], amplify.unpack[exchange.gather]
    for arr in (rows, to_gauge, observables, to_amplify, between):
        arr.setflags(write=False)
    return _Sector(rows, to_gauge, observables, amplify, exchange, to_amplify, between)


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
      per propagation, one dense ``2H x 2H`` map per block.  ``R`` turns
      each coordinate with its partner on the other side, so each side's
      rows of the map are that side's ``H x H`` half of ``Q`` times its ``H``
      rows of ``R Q^T``: ``4 H^3`` multiply-adds per block, half of a dense
      ``L^3``.  Each application is one real matmul per bucket, on the
      float64 view of complex columns;
    - one angle per column: each application projects with the halves of
      ``Q^T``, rotates and restores with the halves of ``Q``, two real
      ``(2 nblocks, H, H)`` matmuls per bucket (half the multiply-adds of
      dense ``(nblocks, L, L)`` ones) around one :func:`_rotate`, on the
      float64 view of complex columns.  A map per column would hold
      ``columns * sum(L^2)`` entries.

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
                # the rows of Q^T are the bucket's coordinates, each block's
                # two halves on its diagonal; the map's buffer is the
                # rotation's spare until the product fills it.  The previous
                # bucket's Q^T is freed before the map is allocated, which
                # may then reuse its memory
                half = q.shape[1]
                turned = np.zeros((q.shape[0] // 2, 2, half, 2, half))
                for side in (0, 1):
                    turned[:, side, :, side] = q[side::2].transpose(0, 2, 1)
                turned = turned.reshape(-1, 2 * half, 2 * half)
                out = np.empty(turned.shape)
                _rotate(turned.reshape(stop - start, -1), cos[start:stop], sin[start:stop],
                        packing.partner[start:stop] - start, out.reshape(stop - start, -1))
                # each side's rows of Q (R Q^T) are that side's half of Q
                # times its rows of R Q^T
                np.matmul(q, turned.reshape(q.shape[0], half, -1),
                          out=out.reshape(q.shape[0], half, -1))
                maps.append((start, stop, out))
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


def _rotate(coords, cos, sin, partner, spare):
    """Turn ``coords`` in place by ``R(angle)``: ``cos * coords + sin *
    coords[partner]`` row by row, with ``cos`` and ``sin`` the tables of
    ``angle * weights`` (see :class:`_Packing`) and ``partner`` the row each
    row turns with.  ``spare`` is a buffer of their shape."""
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
    ``sector``, as :func:`_coordinates` returns them.  Between periods the
    loop carries the columns in the exchange packing, zero on padding.  Each
    period moves the active columns into the amplifying packing by
    ``sector.to_amplify``, applies the amplifying segment (angle
    ``gamma_tau1``, shared by every column), moves them back by
    ``sector.between`` and applies the exchange segment (``omega_tau2``, one
    angle or one per column), which writes straight into the carried
    columns; it then records their observables, which ``sector`` holds in
    the exchange packing with zeros on padding rows.  So a period takes two
    row permutations, each one ``take`` into a buffer, and a block one more,
    which unpacks the columns to the sector basis for ``settle``.  The
    coordinates are carried as float64 if they start real and both segments
    are ``real`` (see :class:`_Segment`), complex otherwise.

    The periods run in blocks of ``_BLOCK``, the last one possibly shorter.
    Within a block the columns are not renormalized; the segments are
    linear, so the norm drift of each period is the ratio of consecutive
    norms, and the columns are renormalized once per block.  After each
    block of p periods, ``settle(first, active, psi, norm, per_mode, leak)``
    receives the number of the block's first period, the original numbers
    of the m active columns, their renormalized gauge coordinates on the
    sector basis after the block's last period (rows, m), and per period of
    the block: their norms relative to the period before (p, m), photons per
    mode (p, modes, m) and leakage (p, m).  It returns a boolean mask (m,)
    of the columns that stop; a caller keeps a column's records only up to
    its first stopping period in the block.  Stopped columns leave the
    active set at the end of the block; the loop ends after ``periods``
    periods or when no column is left.

    The loop holds one workspace per set of active columns: the carried
    columns, each segment's packed input and output, the columns on the
    sector basis and the block's observables, bound to the segments (see
    :meth:`_Segment.bind`) when the set starts and again when it shrinks.
    The ``psi`` that ``settle`` receives is that buffer, valid only during
    the call: the next block overwrites it, so a caller that keeps it copies
    it.  ``norm``, ``per_mode`` and ``leak`` are fresh each block.
    """
    amplify = _Segment(sector.amplify, gamma_tau1)
    exchange = _Segment(sector.exchange, omega_tau2)
    real = amplify.real and exchange.real and not psi.imag.any()
    if real:
        psi = psi.real
    to_amplify, between, unpack = sector.to_amplify, sector.between, sector.exchange.unpack
    observables = sector.observables
    # the columns in the exchange packing, zero on padding
    carried = np.zeros((between.size, psi.shape[1]), dtype=psi.dtype)
    carried[unpack] = psi
    n, active = 0, np.arange(psi.shape[1])
    while n < periods and active.size:
        # the workspace of the active columns, bound until a column leaves
        a_in, a_out = np.empty((2, to_amplify.size, active.size), dtype=psi.dtype)
        e_in = np.empty(carried.shape, dtype=psi.dtype)
        psi = np.empty((unpack.size, active.size), dtype=psi.dtype)
        probs, spare = np.empty((2,) + carried.shape)
        # (photons per mode..., leakage, norm squared) after each period of a
        # block, from row 1; row 0 holds the squared norm at its start, 1
        record = np.empty((_BLOCK + 1, observables.shape[0], active.size))
        record[0, -1] = 1.0
        step_amplify, step_exchange = amplify.bind(a_in, a_out), exchange.bind(e_in, carried)
        while n < periods:
            size = min(_BLOCK, periods - n)
            for j in range(1, size + 1):
                # every index is in range by construction, and mode "clip"
                # lets take write into out directly, where "raise" buffers it
                carried.take(to_amplify, 0, a_in, "clip")
                step_amplify()
                a_out.take(between, 0, e_in, "clip")
                step_exchange()
                if real:
                    np.multiply(carried, carried, out=probs)
                else:
                    np.square(carried.real, out=probs)
                    probs += np.square(carried.imag, out=spare)
                np.matmul(observables, probs, out=record[j])
            norm_sq = record[:size + 1, -1]
            observed = record[1:size + 1, :-1] / norm_sq[1:, None]
            carried /= np.sqrt(norm_sq[-1])
            carried.take(unpack, 0, psi, "clip")
            stop = settle(n + 1, active, psi, np.sqrt(norm_sq[1:] / norm_sq[:-1]),
                          observed[:, :-1], observed[:, -1])
            n += size
            if stop.any():
                keep = ~stop
                # carried[:, keep] is not C-contiguous, and a segment binds
                # only C-contiguous buffers
                active, carried = active[keep], np.ascontiguousarray(carried[:, keep])
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
    the exchange segment (angle ``omega * tau2``).  The norm drift of each
    period is logged as the ratio of consecutive norms, minus 1; the state
    is renormalized once per block of periods.  Leakage past
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
    observables = sector.observables[:, sector.exchange.unpack]
    *per_mode, leak, _ = observables @ (np.abs(psi[:, 0]) ** 2)
    if leak >= LEAKAGE_THRESHOLD:
        raise ValueError(f"initial state is not cutoff-safe "
                         f"(leakage {leak:.2e} at cutoff {state.cutoff})")

    n_rec = [np.array(per_mode)[None]]
    drift_rec = [np.zeros(1)]
    leak_rec = [np.array([leak])]
    status = "ok"
    first_unsafe = None

    def settle(first, active, psi, norm, per_mode, leak):
        nonlocal status, first_unsafe
        capped = _past_cap(per_mode[:, :, 0].sum(axis=1), photon_cap)
        # the block's periods up to its first one past the cap
        size = int(capped.argmax()) + 1 if capped.any() else capped.size
        n_rec.append(per_mode[:size, :, 0])
        drift_rec.append(norm[:size, 0] - 1.0)
        leak_rec.append(leak[:size, 0])
        unsafe = np.flatnonzero(leak[:size, 0] >= LEAKAGE_THRESHOLD)
        if unsafe.size and first_unsafe is None:
            first_unsafe = first + int(unsafe[0])
            status = "truncation-unsafe"
        if capped.any() and status == "ok":
            status = "photon-cap"
        return capped.any(keepdims=True)

    _step_periods(sector, psi, schedule.gamma_tau1, schedule.omega_tau2,
                  schedule.periods, settle)
    n_per_mode = np.concatenate(n_rec)
    return FockTrajectory(
        n_per_mode=n_per_mode,
        n_total=n_per_mode.sum(axis=1),
        norm_drift=np.concatenate(drift_rec),
        leakage=np.concatenate(leak_rec),
        status=status,
        first_unsafe_period=first_unsafe,
        periods_completed=n_per_mode.shape[0] - 1,
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
    a point keeps the numbers of the period of its verdict and leaves the
    active columns at the end of that block of periods.
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

    def settle(first, active, psi, norm, per_mode, leak):
        n_tot = per_mode.sum(axis=1)
        if first == 1:
            n_ref[active] = n_tot[0]
        leaky = leak >= LEAKAGE_THRESHOLD
        ref = n_ref[active]
        grown = ~leaky & (ref > 1e-12) & (n_tot > growth_factor * ref)
        # period 1 sets the reference and is never growth
        grown[0] &= first > 1
        verdict = leaky | grown
        stop = verdict.any(axis=0)
        # each column's last period in the block: its first verdict, if any
        last = np.where(stop, verdict.argmax(axis=0), n_tot.shape[0] - 1)
        columns = np.arange(stop.size)
        n_final[active] = n_tot[last, columns]
        periods_run[active] = first + last
        outcome[active[leaky[last, columns]]] = "indeterminate"
        outcome[active[grown[last, columns]]] = "growth"
        return stop

    vacuum = vacuum_state(cutoff, 2).amplitudes[:, None]
    _step_periods(*_coordinates(np.broadcast_to(vacuum, (vacuum.size, grid.size)), 2, cutoff),
                  gamma_tau1, grid, periods, settle)
    return tuple(ZenoScanPoint(omega_tau2=float(theta), outcome=str(o),
                               n_final=float(nf), periods_run=int(pr))
                 for theta, o, nf, pr in zip(grid, outcome, n_final, periods_run))
