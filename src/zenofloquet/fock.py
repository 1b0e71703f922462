"""Exact truncated number-basis oracle for the switched drive.

States live in a per-mode photon-number basis truncated at a cutoff D
(inclusive), ordered lexicographically: two-mode basis index
``n_a * (D + 1) + n_b``, single-mode index ``n``.  Segment propagation is
exact unitary evolution ``exp(-i H t)`` obtained from a real-eigenvalue
decomposition of the (real symmetric) Hamiltonian.

Only the dimensionless angles ``gamma * tau1`` and ``omega * tau2`` enter a
segment unitary, so the eigendecompositions are computed once per
(Hamiltonian kind, cutoff) on the coupling-free generator and reused for
every schedule.  Both segment generators conserve a number-like quantity
(``n_a - n_b`` during amplification, ``n_a + n_b`` during exchange), which
splits them into small tridiagonal blocks.  The blocks are packed by length
into a few padded eigenvector tensors, and a segment acts on a matrix of
amplitude columns, so one propagation can carry many states (one per
exchange angle in :func:`zeno_threshold_scan`).  A segment is applied in
one of two ways.  One angle on one column (both segments of
:func:`propagate`) gets one complex unitary per bucket, built once per
propagation.  Several columns keep the real eigenvector products around a
phase multiply, whether they share one angle (the amplifying segment of a
scan) or take one each (its exchange segment).  Each period gathers the
columns into the amplifying packing, moves them into the exchange packing by
one composite permutation and scatters them back to the sector basis.

Every segment generator also conserves the parity of the total photon
number, even under hard truncation, and every block lies in one parity
sector.  A propagation whose initial amplitudes all share one parity (the
vacuum, any number state) carries only that sector's rows, half the basis;
mixed-parity states such as coherent states carry every row.

Both two-mode generators, and the hard cutoff, are also symmetric under the
mode swap ``a <-> b``.  A propagation whose initial columns all equal their
own swap exactly (``psi[n_a, n_b] == psi[n_b, n_a]``: the vacuum, ``|n, n>``,
a coherent state with equal amplitudes) carries only the sector's rows
with ``n_a >= n_b``, in the orthonormal symmetric basis, where an amplitude
off the diagonal ``n_a == n_b`` is multiplied by sqrt2.  The amplifying
chains with ``n_a >= n_b`` are unchanged there; each exchange chain ``|k,
s - k>`` folds onto its half ``k >= s/2``, with its first off-diagonal
multiplied by sqrt2 for even ``s`` and, for odd ``s``, the diagonal entry
``sqrt(k0 (s - k0 + 1))`` at its first position ``k0 = (s + 1)/2``.

Truncation is monitored, not assumed: any population above 90% of the cutoff
beyond 1e-8 marks the run truncation-unsafe rather than silently wrong.
:func:`propagate` returns the photon numbers, norm drift and leakage of every
period; the propagated amplitudes stay on the sector basis inside its
stepping loop and are not kept.  A cutoff is at most ``MAX_CUTOFF`` for its
mode count, checked before anything of its size is allocated.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .floquet import DriveSchedule, _require_cap, _require_int, _require_real

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

    Raises a numeric error naming the matrix size and largest entry if the
    eigendecomposition fails; the returned matrix satisfies
    ``max |U+ U - I| < 1e-10``.
    """
    if not math.isfinite(duration):
        raise ValueError(f"duration must be finite, got {duration!r}")
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ArithmeticError(
            f"eigendecomposition failed for a {h.shape[0]}x{h.shape[1]} "
            f"Hamiltonian (|H|_max {np.abs(h).max():.3e}): {exc}") from exc
    u = (v * np.exp(-1j * w * duration)) @ v.conj().T
    err = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
    if err > 1e-10:
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
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
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
    return number_state(cutoff, *([0] * mode_count))


def coherent_state(cutoff: int, alphas) -> FockState:
    """Product coherent state; rejects cutoffs that truncate > 1e-10 of norm."""
    alphas = np.atleast_1d(np.asarray(alphas, dtype=complex))
    cutoff = _require_cutoff(cutoff, alphas.size)
    n = np.arange(cutoff + 1)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1.0, cutoff + 1)))))
    amps = None
    for alpha in alphas:
        if alpha == 0:
            single = np.zeros(cutoff + 1, dtype=complex)
            single[0] = 1.0
        else:
            single = np.exp(-abs(alpha) ** 2 / 2.0 + n * np.log(alpha) - log_fact / 2.0)
        lost = 1.0 - np.linalg.norm(single) ** 2
        if lost > 1e-10:
            raise ValueError(
                f"cutoff {cutoff} too small for |alpha|^2 = {abs(alpha)**2:.3g} "
                f"(truncated weight {lost:.2e})")
        amps = single if amps is None else np.kron(amps, single)
    if alphas.size == 2 and alphas[0] == alphas[1]:
        # complex products x[i]*x[j] and x[j]*x[i] can round apart; keep the
        # state exactly swap-symmetric, so that it takes the swap sector
        grid = amps.reshape(cutoff + 1, cutoff + 1)
        amps = (np.triu(grid) + np.triu(grid, 1).T).ravel()
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


@lru_cache(maxsize=None)
def _high_level_mask(cutoff: int, mode_count: int) -> np.ndarray:
    level = HIGH_LEVEL_FRACTION * cutoff
    diags = _number_diagonals(cutoff, mode_count)
    mask = diags[0] > level
    for d in diags[1:]:
        mask = mask | (d > level)
    mask.setflags(write=False)
    return mask


# --- packed propagation engine -------------------------------------------------

#: Blocks per length bucket of the packed engine.
BUCKET_BLOCKS = 8


def _chains(label: HamiltonianLabel, cutoff: int, swap: bool):
    """(basis indices, diagonal, off-diagonal) of each conserved-quantity block.

    Every block of a non-diagonal unit-coupling generator is a tridiagonal
    chain with a zero diagonal.  With ``swap`` (two-mode only) the blocks act
    on the orthonormal swap-symmetric basis ``|n, n>`` and ``(|n_a, n_b> +
    |n_b, n_a>) / sqrt2`` for ``n_a > n_b``, each vector indexed by its row
    ``|n_a, n_b>``: the amplifying chains with ``n_a >= n_b`` keep their
    entries, and each exchange chain folds onto its half with ``n_a >= n_b``.
    """
    d = cutoff
    if label is HamiltonianLabel.TWO_MODE_UNSTABLE:
        # amplification conserves n_a - n_b; chains |n, n - delta>
        for delta in range(0 if swap else -d, d + 1):
            ns = np.arange(max(delta, 0), min(d, d + delta) + 1)
            yield (ns * (d + 1) + (ns - delta), np.zeros(ns.size),
                   np.sqrt((ns[:-1] + 1.0) * (ns[:-1] - delta + 1.0)))
    elif label is HamiltonianLabel.TWO_MODE_STABLE:
        # exchange conserves n_a + n_b; chains |k, s - k>, folded onto k >= s/2
        for s in range(0, 2 * d + 1):
            ks = np.arange((s + 1) // 2 if swap else max(0, s - d), min(d, s) + 1)
            diag = np.zeros(ks.size)
            off = np.sqrt((ks[:-1] + 1.0) * (s - ks[:-1]))
            if swap and s % 2:
                # the mirror pair |k0, k0 - 1>, |k0 - 1, k0> is one vector,
                # and the entry that joined them becomes its diagonal
                diag[0] = math.sqrt(ks[0] * (s - ks[0] + 1.0))
            elif swap and off.size:
                # |k0, k0> meets both mirror halves of its neighbour
                off[0] *= math.sqrt(2.0)
            yield ks * (d + 1) + (s - ks), diag, off
    elif label is HamiltonianLabel.SINGLE_MODE_UNSTABLE:
        # pair creation conserves photon parity; chains n, n+2, ...
        for parity in (0, 1):
            ns = np.arange(parity, d + 1, 2)
            yield ns, np.zeros(ns.size), np.sqrt((ns[:-1] + 1.0) * (ns[:-1] + 2.0)) / 2.0


@lru_cache(maxsize=None)
def _sector_rows(cutoff: int, mode_count: int, key) -> np.ndarray:
    """Basis rows of the sector ``key = (parity, swap)``: the rows whose total
    photon number has ``parity`` (``None``: any), and with ``swap`` only
    those with ``n_a >= n_b``."""
    parity, swap = key
    diags = _number_diagonals(cutoff, mode_count)
    keep = np.full(diags[0].size, True) if parity is None else sum(diags) % 2 == parity
    if swap:
        keep &= diags[0] >= diags[1]
    rows = np.flatnonzero(keep)
    rows.setflags(write=False)
    return rows


def _sector_key(columns: np.ndarray, mode_count: int, cutoff: int):
    """The smallest sector ``(parity, swap)`` that holds ``columns``.

    ``parity`` is the photon parity of every nonzero amplitude, or ``None``
    if they mix parities (a coherent state, say); ``swap`` is whether every
    column is two-mode and exactly equal to its own swap, ``psi[n_a, n_b] ==
    psi[n_b, n_a]`` (the vacuum, ``|n, n>``, equal coherent amplitudes).
    """
    total = sum(_number_diagonals(cutoff, mode_count))
    parities = np.unique(total[(columns != 0).any(axis=1)] % 2)
    parity = int(parities[0]) if parities.size == 1 else None
    if mode_count == 1:
        return parity, False
    grid = columns.reshape(cutoff + 1, cutoff + 1, -1)
    return parity, bool(np.array_equal(grid, grid.transpose(1, 0, 2)))


@dataclass(frozen=True)
class _Packing:
    """Eigendecomposed conserved-quantity blocks of one generator, packed.

    Only the blocks of one sector (see :func:`_sector_rows`) are kept, on the
    sector's basis, and rows are numbered within the sector, in the order of
    :func:`_sector_rows`.  The blocks are sorted by length and packed
    ``BUCKET_BLOCKS`` at a time into buckets padded to their longest block;
    the packed rows are the buckets' rows one after another.  ``gather`` is
    the sector row of every packed row (padding repeats row 0), ``unpack``
    the packed row of every sector row and ``weights`` the eigenvalue of
    every packed row (0 on padding).  Each bucket is ``(start, stop,
    vectors)``: its packed row range and its ``(nblocks, L, L)`` real
    eigenvectors, zero on padding so that padding neither reads nor writes
    an amplitude.  A diagonal generator has no buckets.
    """

    gather: np.ndarray
    unpack: np.ndarray
    weights: np.ndarray
    buckets: tuple


@lru_cache(maxsize=None)
def _packed_blocks(label: HamiltonianLabel, cutoff: int, key) -> _Packing:
    """The packed eigendecomposition of a unit-coupling generator on the rows
    of the sector ``key = (parity, swap)``."""
    rows = _sector_rows(cutoff, label.mode_count, key)
    if label is HamiltonianLabel.SINGLE_MODE_STABLE:
        # (a+ a + a a+)/2 = n + 1/2 is already diagonal
        index = np.arange(rows.size)
        packing = _Packing(index, index, rows + 0.5, ())
    else:
        # each chain conserves photon parity and, folded in a swap sector,
        # keeps n_a >= n_b, so it lies wholly in or out of the sector;
        # position is -1 outside it
        position = np.full((cutoff + 1) ** label.mode_count, -1, dtype=np.intp)
        position[rows] = np.arange(rows.size)
        chains = sorted(((position[idx], diag, off)
                         for idx, diag, off in _chains(label, cutoff, key[1])
                         if position[idx[0]] >= 0),
                        key=lambda chain: chain[0].size)
        gather, real, weights, buckets = [], [], [], []
        start = 0
        for first in range(0, len(chains), BUCKET_BLOCKS):
            group = chains[first:first + BUCKET_BLOCKS]
            shape = (len(group), group[-1][0].size)
            index = np.zeros(shape, dtype=np.intp)
            used = np.zeros(shape, dtype=bool)
            w = np.zeros(shape)
            vectors = np.zeros(shape + shape[1:])
            for k, (idx, diag, off) in enumerate(group):
                m = idx.size
                index[k, :m], used[k, :m] = idx, True
                chain = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
                w[k, :m], vectors[k, :m, :m] = np.linalg.eigh(chain)
            vectors.setflags(write=False)
            buckets.append((start, start + index.size, vectors))
            start += index.size
            gather.append(index.ravel())
            real.append(used.ravel())
            weights.append(w.ravel())
        gather, real = np.concatenate(gather), np.concatenate(real)
        unpack = np.empty(rows.size, dtype=np.intp)
        unpack[gather[real]] = np.flatnonzero(real)
        packing = _Packing(gather, unpack, np.concatenate(weights), tuple(buckets))
    for arr in (packing.gather, packing.unpack, packing.weights):
        arr.setflags(write=False)
    return packing


class _Segment:
    """``exp(-i * angle * generator)`` of one segment on amplitude columns.

    The columns hold the rows of the sector ``key = (parity, swap)`` on its
    basis (see :func:`_sector_rows`).  ``angles`` is one angle shared by
    every column or one angle per column, and ``columns`` the number of
    columns the segment is built for.  Together they choose how each bucket
    of eigenvectors ``V`` (see :class:`_Packing`) is applied:

    - one angle on one column: the bucket's unitary ``(V * phase) @ V.T`` is
      built here, once per propagation, and each application is one complex
      matrix-vector product per bucket;
    - otherwise only the phases ``exp(-i * w * angle)`` (packed rows, one
      column or one per column) are built here, and each application
      projects onto ``V``, multiplies by the phases and projects back, two
      real matmuls per bucket.  A unitary per column would hold ``columns *
      sum(L^2)`` entries, and on several columns a complex product of these
      small blocks runs slower than the two real ones.  This path is also
      the reference the first is tested against.

    Either way the result holds for any number of columns.  A diagonal
    generator has no buckets and only multiplies by the phases.
    """

    def __init__(self, label: HamiltonianLabel, cutoff: int, angles, key,
                 columns: int = 1):
        self.packing = packing = _packed_blocks(label, cutoff, key)
        angles = np.atleast_1d(np.asarray(angles, dtype=float))
        self.identity = not angles.any()
        self.phases = np.exp(-1j * packing.weights[:, None] * angles)
        self.unitaries = None
        if angles.size == 1 and columns == 1 and packing.buckets:
            self.unitaries = tuple(
                (start, stop,
                 (v * self.phases[start:stop, 0].reshape(v.shape[0], 1, -1))
                 @ v.transpose(0, 2, 1))
                for start, stop, v in packing.buckets)

    def keep(self, columns):
        """Drop the phases of columns that left the active set."""
        if self.phases.shape[1] > 1:
            self.phases = self.phases[:, columns]

    def packed(self, x: np.ndarray) -> np.ndarray:
        """The segment applied to ``x`` of shape (packed rows, columns), a
        fresh array that it may overwrite.  Padding rows are read as zero and
        come back zero, or as they were for the identity."""
        if self.identity:
            return x
        if not self.packing.buckets:
            return x * self.phases
        y = np.empty_like(x)
        if self.unitaries is not None:
            for start, stop, u in self.unitaries:
                shape = u.shape[:2] + x.shape[1:]
                np.matmul(u, x[start:stop].reshape(shape),
                          out=y[start:stop].reshape(shape))
            return y
        # the eigenvectors are real, so both products run on the float64
        # view of the complex columns: (rows, k) complex is (rows, 2k) real
        x, y = x.view(np.float64), y.view(np.float64)
        for start, stop, v in self.packing.buckets:
            shape = v.shape[:2] + x.shape[1:]
            np.matmul(v.transpose(0, 2, 1), x[start:stop].reshape(shape),
                      out=y[start:stop].reshape(shape))
        phased = y.view(np.complex128)
        phased *= self.phases
        for start, stop, v in self.packing.buckets:
            shape = v.shape[:2] + x.shape[1:]
            np.matmul(v, y[start:stop].reshape(shape),
                      out=x[start:stop].reshape(shape))
        return x.view(np.complex128)

    def __call__(self, psi: np.ndarray) -> np.ndarray:
        """The segment applied to ``psi`` of shape (sector rows, columns)."""
        return self.packed(psi[self.packing.gather])[self.packing.unpack]


def _segment_labels(mode_count: int):
    if mode_count == 2:
        return HamiltonianLabel.TWO_MODE_UNSTABLE, HamiltonianLabel.TWO_MODE_STABLE
    return HamiltonianLabel.SINGLE_MODE_UNSTABLE, HamiltonianLabel.SINGLE_MODE_STABLE


@lru_cache(maxsize=None)
def _observable_rows(cutoff: int, mode_count: int, key) -> np.ndarray:
    """Rows mapping the probabilities on the basis of the sector ``key =
    (parity, swap)`` to (n per mode..., leakage)."""
    sector = _sector_rows(cutoff, mode_count, key)
    diags = _number_diagonals(cutoff, mode_count)
    if key[1]:
        # the symmetric basis vector of row |n_a, n_b> has
        # <n_a> = <n_b> = (n_a + n_b) / 2
        diags = ((diags[0] + diags[1]) / 2.0,) * 2
    rows = np.vstack([d[sector] for d in diags
                      + (_high_level_mask(cutoff, mode_count),)]).astype(float)
    rows.setflags(write=False)
    return rows


def _step_periods(columns: np.ndarray, mode_count: int, cutoff: int,
                  gamma_tau1: float, omega_tau2, periods: int, settle):
    """The per-period stepping loop of every Fock propagation.

    ``columns`` (dim, k) holds k initial amplitude vectors.  Only the rows of
    their sector (see :func:`_sector_key`) are propagated, on its basis; the
    rest stay exactly zero, or in a swap sector the mirror of a propagated
    row.  If all their nonzero amplitudes share one photon parity, the
    sector holds that parity's rows; if every column equals its own swap,
    it holds only the rows with ``n_a >= n_b``.  Each period applies the
    amplifying segment (angle ``gamma_tau1``, shared by every column) and
    then the exchange segment (``omega_tau2``, one angle or one per column)
    to the active columns, and renormalizes them; in between, the columns go
    from the amplifying packing to the exchange packing by one composite
    permutation.  Then ``settle(n, active, psi, norm, per_mode, leak)``
    receives the period number, the original numbers of the m active
    columns, their coordinates on the sector basis (rows, m), their norms
    before renormalization (m,), photons per mode (modes, m) and leakage
    (m,), and returns a boolean mask (m,) of the columns that stop.
    Stopped columns leave the active set; the loop ends after ``periods``
    periods or when no column is left.
    """
    key = _sector_key(columns, mode_count, cutoff)
    sector = _sector_rows(cutoff, mode_count, key)
    label_u, label_s = _segment_labels(mode_count)
    amplify = _Segment(label_u, cutoff, gamma_tau1, key, columns.shape[1])
    exchange = _Segment(label_s, cutoff, omega_tau2, key, columns.shape[1])
    rows = _observable_rows(cutoff, mode_count, key)
    # a copy (fancy indexing), renormalized in place
    psi = np.asarray(columns[sector], dtype=complex)
    if key[1]:
        # a symmetric vector's coordinate on the orthonormal symmetric basis
        # is its amplitude times sqrt2 off the diagonal n_a == n_b
        n_a, n_b = divmod(sector, cutoff + 1)
        psi[n_a != n_b] *= math.sqrt(2.0)
    active = np.arange(columns.shape[1])
    gather, scatter = amplify.packing.gather, exchange.packing.unpack
    # unpack from the amplifying packing, then gather into the exchange one
    between = amplify.packing.unpack[exchange.packing.gather]
    for n in range(1, periods + 1):
        psi = exchange.packed(amplify.packed(psi[gather])[between])[scatter]
        probs = psi.real ** 2 + psi.imag ** 2
        norm_sq = probs.sum(axis=0)
        psi /= np.sqrt(norm_sq)
        observed = (rows @ probs) / norm_sq
        stop = settle(n, active, psi, np.sqrt(norm_sq), observed[:-1], observed[-1])
        if stop.any():
            keep = ~stop
            active, psi = active[keep], psi[:, keep]
            exchange.keep(keep)
            if not active.size:
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
    period on.  Propagation stops early once the total photon number exceeds
    ``photon_cap`` (> 0; ``inf``, the default, for no cap).  An initial state
    whose leakage is already past the threshold is a ``ValueError``.
    """
    if not isinstance(state, FockState):
        raise ValueError("initial state must be a FockState")
    _require_cap(photon_cap)
    cutoff, modes = state.cutoff, state.mode_count
    psi = state.amplitudes.reshape(-1, 1)
    observed = _observable_rows(cutoff, modes, (None, False)) @ (np.abs(psi[:, 0]) ** 2)
    if observed[-1] >= LEAKAGE_THRESHOLD:
        raise ValueError(f"initial state is not cutoff-safe "
                         f"(leakage {observed[-1]:.2e} at cutoff {cutoff})")

    n_rec = [observed[:-1]]
    drift_rec = [0.0]
    leak_rec = [float(observed[-1])]
    status = "ok"
    first_unsafe = None
    completed = 0

    def settle(n, active, psi, norm, per_mode, leak):
        nonlocal status, first_unsafe, completed
        n_rec.append(per_mode[:, 0])
        drift_rec.append(float(norm[0] - 1.0))
        leak_rec.append(float(leak[0]))
        completed = n
        if leak[0] >= LEAKAGE_THRESHOLD and first_unsafe is None:
            first_unsafe = n
            status = "truncation-unsafe"
        capped = per_mode[:, 0].sum() > photon_cap
        if capped and status == "ok":
            status = "photon-cap"
        return np.array([capped])

    _step_periods(psi, modes, cutoff, schedule.gamma_tau1, schedule.omega_tau2,
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
    squeeze = math.sinh(min(periods * gamma_tau1, 20.0)) ** 2
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
    grid = np.atleast_1d(np.asarray(omega_tau2_grid, dtype=float))
    if not np.isfinite(grid).all():
        raise ValueError("omega_tau2 grid must be finite")
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
    _step_periods(np.broadcast_to(vacuum, (vacuum.size, grid.size)), 2, cutoff,
                  gamma_tau1, grid, periods, settle)
    return tuple(ZenoScanPoint(omega_tau2=float(theta), outcome=str(o),
                               n_final=float(nf), periods_run=int(pr))
                 for theta, o, nf, pr in zip(grid, outcome, n_final, periods_run))
