"""Truncated number-basis oracle: Hamiltonians, unitaries, propagation."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from zenofloquet import fock, gaussian
from zenofloquet.floquet import Classification, DriveSchedule, classify_schedule
from zenofloquet.fock import (
    HamiltonianLabel,
    basis_index,
    build_hamiltonian,
    coherent_state,
    default_cutoff,
    number_state,
    propagate,
    segment_unitary,
    vacuum_state,
    zeno_threshold_scan,
)


#: The sector key of the full basis: neither reduction applied.
FULL_SPACE = (None, False)

#: Every sector key ``(parity, swap)`` that ``fock._sector_key`` returns: the
#: swap reduction applies to even parity only.
SECTORS = (FULL_SPACE, (0, False), (1, False), (0, True))


def sectors(mode_count):
    """The sector keys of ``mode_count`` modes: no swap sector for one."""
    return [key for key in SECTORS if mode_count == 2 or not key[1]]


def basis_parity(cutoff, mode_count):
    """Parity of the total photon number of every basis row."""
    index = np.arange((cutoff + 1) ** mode_count)
    if mode_count == 1:
        return index % 2
    return (index // (cutoff + 1) + index % (cutoff + 1)) % 2


def dense_period(mode_count, cutoff, gamma_tau1, omega_tau2):
    """One drive period as a product of dense segment unitaries."""
    if mode_count == 2:
        label_u, label_s = HamiltonianLabel.TWO_MODE_UNSTABLE, HamiltonianLabel.TWO_MODE_STABLE
    else:
        label_u, label_s = (HamiltonianLabel.SINGLE_MODE_UNSTABLE,
                            HamiltonianLabel.SINGLE_MODE_STABLE)
    return (segment_unitary(build_hamiltonian(label_s, 1.0, cutoff), omega_tau2)
            @ segment_unitary(build_hamiltonian(label_u, 1.0, cutoff), gamma_tau1))


#: Scan inputs of the full-space comparisons.
SCAN_CASES = given(gamma_tau1=st.floats(0.02, 0.4),
                   grid=st.lists(st.floats(0.0, math.pi), min_size=1, max_size=6),
                   periods=st.integers(1, 60),
                   cutoff=st.integers(8, 24))


def assert_scans_agree(points, reference, rel=1e-12):
    """Same verdicts and periods, and photon numbers within ``rel * max(1,
    n)``.  The bound is absolute below one photon: paths that sum in
    different orders leave a point that ends near vacuum with the rounding
    of amplitudes of order 1."""
    for point, expected in zip(points, reference, strict=True):
        assert (point.omega_tau2, point.outcome, point.periods_run) == \
            (expected.omega_tau2, expected.outcome, expected.periods_run)
        assert abs(point.n_final - expected.n_final) <= rel * max(1.0, expected.n_final)


def assert_scan_matches_full_space(gamma_tau1, grid, periods, cutoff, sector_key):
    """The scan with ``sector_key`` choosing the sector agrees (see
    :func:`assert_scans_agree`) with the kept slow reference, the same scan
    with parity and swap both switched off so that every basis row is
    propagated."""
    kwargs = {"periods": periods, "cutoff": cutoff}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fock, "_sector_key", sector_key)
        sector = zeno_threshold_scan(gamma_tau1, grid, **kwargs)
        patch.setattr(fock, "_sector_key", lambda *args: FULL_SPACE)
        full = zeno_threshold_scan(gamma_tau1, grid, **kwargs)
    assert_scans_agree(sector, full)


def generator_packing(label, cutoff, key):
    """The packed generator ``label`` on the sector ``key``."""
    sector = fock._sector(cutoff, label.mode_count, key)
    return sector.amplify if label.value.endswith("unstable") else sector.exchange


def segment(label, cutoff, angles, key):
    """The segment of generator ``label`` with ``angles`` on the sector ``key``."""
    return fock._Segment(generator_packing(label, cutoff, key), angles)


def gauge_diagonal(rows, cutoff, mode_count):
    """The diagonal ``i^s`` of the gauge ``D`` on basis ``rows``: ``s = n_a
    mod 2`` for two modes, ``(n // 2) mod 2`` for one."""
    level = rows // (cutoff + 1) if mode_count == 2 else rows // 2
    return np.where(level % 2 == 1, 1j, 1.0)


def one_period_blocks(call, *args, **kwargs):
    """``call`` with the stepping loop settling after every period."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fock, "_BLOCK", 1)
        return call(*args, **kwargs)


def recorded_amplitudes(state, schedule):
    """The amplitudes of ``state`` after each period, ``(periods + 1, dim)``.

    They are recorded through the engine's stepping loop in one-period
    blocks, so that it hands over the state of every period.  The loop holds
    them as gauge coordinates ``D^-1 psi`` on the sector basis; they are
    unfolded onto the full basis: multiplied by ``D``, zero outside the
    sector, and in a swap sector divided by the sqrt2 of the symmetric basis
    off the diagonal and copied onto both mirror rows.
    """
    cutoff, modes = state.cutoff, state.mode_count
    columns = state.amplitudes[:, None]
    key = fock._sector_key(columns, modes, cutoff)
    sector, coords = fock._coordinates(columns, modes, cutoff)
    rows = mirror = sector.rows
    scale = 1.0
    if key[1]:
        n_a, n_b = np.divmod(rows, cutoff + 1)
        mirror = n_b * (cutoff + 1) + n_a
        scale = np.where(n_a == n_b, 1.0, math.sqrt(2.0))
    gauge = gauge_diagonal(rows, cutoff, modes)
    amplitudes = [state.amplitudes]

    def settle(first, active, psi, norm, per_mode, leak):
        full = np.zeros(state.dim, dtype=complex)
        full[mirror] = full[rows] = psi[:, 0] * gauge / scale
        amplitudes.append(full)
        return np.zeros(1, dtype=bool)

    one_period_blocks(fock._step_periods, sector, coords, schedule.gamma_tau1,
                      schedule.omega_tau2, schedule.periods, settle)
    assert len(amplitudes) == schedule.periods + 1
    return np.array(amplitudes)


def assert_matches_dense_products(state, schedule):
    """Every state recorded by the stepping loop equals U^n psi_0 to 1e-12,
    and ``propagate`` reports the photons per mode, leakage and norm drift
    of the dense-product states at every period to ``1e-12 * max(1, n)``.
    Returns the trajectory and the recorded amplitudes."""
    amplitudes = recorded_amplitudes(state, schedule)
    u = dense_period(state.mode_count, state.cutoff, schedule.gamma_tau1,
                     schedule.omega_tau2)
    dense = [state.amplitudes]
    for _ in range(schedule.periods):
        dense.append(u @ dense[-1])
    dense = np.array(dense)
    assert amplitudes.shape == dense.shape == (schedule.periods + 1, state.dim)
    np.testing.assert_allclose(amplitudes, dense, rtol=0, atol=1e-12)

    traj = propagate(state, schedule)
    assert traj.periods_completed == schedule.periods
    probs = np.abs(dense) ** 2
    norm_sq = probs.sum(axis=1)
    index = np.arange(state.dim)
    occupations = [index] if state.mode_count == 1 else list(np.divmod(index, state.cutoff + 1))
    n_per_mode = np.stack([probs @ n for n in occupations], axis=1) / norm_sq[:, None]
    high = np.any([n > fock.HIGH_LEVEL_FRACTION * state.cutoff for n in occupations], axis=0)
    drift = np.concatenate(([0.0], np.sqrt(norm_sq[1:] / norm_sq[:-1]) - 1.0))
    tol = 1e-12 * np.maximum(1.0, n_per_mode)
    assert (np.abs(traj.n_per_mode - n_per_mode) <= tol).all()
    np.testing.assert_allclose(traj.leakage, probs[:, high].sum(axis=1) / norm_sq,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(traj.norm_drift, drift, rtol=0, atol=1e-12)
    return traj, amplitudes


def dense_ladder(cutoff, mode_count=2):
    """Test-side ladder operators for independent oracle computations."""
    a = np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), k=1)
    if mode_count == 1:
        return (a,)
    eye = np.eye(cutoff + 1)
    return np.kron(a, eye), np.kron(eye, a)


class TestBuildHamiltonian:
    def test_exchange_element_by_hand(self):
        # a+ b |1,0> = |0,1>, so <0,1|H_s|1,0> = omega  (wait: a b+ acts)
        omega = 0.7
        h = build_hamiltonian(HamiltonianLabel.TWO_MODE_STABLE, omega, 1)
        i = basis_index(1, 0, 1)
        j = basis_index(1, 1, 0)
        assert h[i, j] == pytest.approx(omega)

    def test_pair_creation_element_by_hand(self):
        gamma = 0.35
        h = build_hamiltonian(HamiltonianLabel.TWO_MODE_UNSTABLE, gamma, 2)
        assert h[basis_index(2, 1, 1), basis_index(2, 0, 0)] == \
            pytest.approx(gamma)

    def test_single_mode_exchange_is_diagonal_number_plus_half(self):
        omega = 1.1
        h = build_hamiltonian(HamiltonianLabel.SINGLE_MODE_STABLE, omega, 6)
        np.testing.assert_allclose(h,
                                   np.diag(omega * (np.arange(7) + 0.5)))

    def test_single_mode_pair_creation_elements(self):
        gamma = 0.5
        h = build_hamiltonian(HamiltonianLabel.SINGLE_MODE_UNSTABLE, gamma, 5)
        # <n+2| (G/2) a+^2 |n> = G/2 sqrt((n+1)(n+2))
        for n in range(4):
            assert h[n + 2, n] == pytest.approx(
                gamma / 2 * math.sqrt((n + 1) * (n + 2)))

    @pytest.mark.parametrize("label", list(HamiltonianLabel))
    def test_hermitian(self, label):
        h = build_hamiltonian(label, 0.8, 7)
        np.testing.assert_allclose(h, h.conj().T, atol=1e-12)

    def test_exchange_commutes_with_total_number(self):
        h = build_hamiltonian(HamiltonianLabel.TWO_MODE_STABLE, 1.3, 8)
        n_a, n_b = dense_ladder(8)
        total = n_a.T @ n_a + n_b.T @ n_b
        assert np.abs(h @ total - total @ h).max() < 1e-12

    def test_matches_ladder_construction(self):
        """Independent route: explicit ladder products at small cutoff."""
        mode_a, mode_b = dense_ladder(4)
        h_u = 0.6 * (mode_a.T @ mode_b.T + mode_a @ mode_b)
        np.testing.assert_allclose(
            build_hamiltonian(HamiltonianLabel.TWO_MODE_UNSTABLE, 0.6, 4),
            h_u, atol=1e-14)
        h_s = 0.9 * (mode_a.T @ mode_b + mode_a @ mode_b.T)
        np.testing.assert_allclose(
            build_hamiltonian(HamiltonianLabel.TWO_MODE_STABLE, 0.9, 4),
            h_s, atol=1e-14)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            build_hamiltonian(HamiltonianLabel.TWO_MODE_STABLE, -1.0, 4)
        with pytest.raises(ValueError):
            build_hamiltonian(HamiltonianLabel.TWO_MODE_STABLE, 1.0, 0)

    def test_dense_dimension_ceiling(self):
        """The dense reference takes the dimension ``MAX_DENSE_DIM`` and
        refuses one level more, naming the dimension and the ceiling."""
        ceiling = fock.MAX_DENSE_DIM
        side = math.isqrt(ceiling)
        assert side * side == ceiling
        assert build_hamiltonian(HamiltonianLabel.TWO_MODE_STABLE, 1.0,
                                 side - 1).shape == (ceiling, ceiling)
        assert build_hamiltonian(HamiltonianLabel.SINGLE_MODE_UNSTABLE, 1.0,
                                 ceiling - 1).shape == (ceiling, ceiling)
        for label, cutoff, dim in ((HamiltonianLabel.TWO_MODE_UNSTABLE, side, (side + 1) ** 2),
                                   (HamiltonianLabel.SINGLE_MODE_STABLE, ceiling, ceiling + 1)):
            with pytest.raises(ValueError,
                               match=rf"dense dimension {dim} .*ceiling {ceiling}"):
                build_hamiltonian(label, 1.0, cutoff)


class TestSegmentUnitary:
    def test_zero_duration_is_identity(self):
        h = build_hamiltonian(HamiltonianLabel.TWO_MODE_UNSTABLE, 0.5, 4)
        np.testing.assert_allclose(segment_unitary(h, 0.0), np.eye(25), atol=1e-14)

    def test_semigroup_property(self):
        h = build_hamiltonian(HamiltonianLabel.TWO_MODE_STABLE, 0.8, 5)
        u1 = segment_unitary(h, 0.3)
        u2 = segment_unitary(h, 1.1)
        np.testing.assert_allclose(u1 @ u2, segment_unitary(h, 1.4), atol=1e-10)

    @pytest.mark.parametrize("label", list(HamiltonianLabel))
    def test_unitarity(self, label):
        h = build_hamiltonian(label, 1.2, 8)
        u = segment_unitary(h, 0.7)
        assert np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() < 1e-10

    def test_pi_pulse_swaps_single_photon(self):
        """At omega*tau2 = pi/2, |1,0> and |0,1> exchange with unit weight."""
        omega, tau2 = 2.0, math.pi / 4  # omega * tau2 = pi/2
        h = build_hamiltonian(HamiltonianLabel.TWO_MODE_STABLE, omega, 3)
        u = segment_unitary(h, tau2)
        amp = u[basis_index(3, 0, 1), basis_index(3, 1, 0)]
        assert abs(amp) == pytest.approx(1.0, abs=1e-9)

    def test_blockwise_engine_matches_dense_unitary(self):
        """The packed block engine equals exp(-iHt) column by column, with
        one angle shared by the columns or one angle each, on every row
        (parity None) or on the rows of one photon-parity sector, and for
        the two-mode labels also on the swap-symmetric basis of the even
        sector, fed random symmetric columns."""
        rng = np.random.default_rng(6)
        cutoff = 7
        angles = np.array([0.4, 1.7, 2.3, math.pi])
        for label in HamiltonianLabel:
            h = build_hamiltonian(label, 1.0, cutoff)
            dim = h.shape[0]
            parity = basis_parity(cutoff, label.mode_count)
            n_a, n_b = np.divmod(np.arange(dim), cutoff + 1)
            for key in sectors(label.mode_count):
                sector, swap = key
                rows = np.arange(dim) if sector is None else np.flatnonzero(parity == sector)
                psi = np.zeros((dim, 4), dtype=complex)
                psi[rows] = rng.standard_normal((rows.size, 4)) \
                    + 1j * rng.standard_normal((rows.size, 4))
                kept, scale = rows, np.ones(dim)
                if swap:
                    grid = psi.reshape(cutoff + 1, cutoff + 1, 4)
                    psi = (grid + grid.transpose(1, 0, 2)).reshape(dim, 4)
                    kept = rows[n_a[rows] >= n_b[rows]]
                    scale = np.where(n_a == n_b, 1.0, math.sqrt(2.0))
                psi /= np.linalg.norm(psi, axis=0)
                np.testing.assert_array_equal(
                    fock._sector(cutoff, label.mode_count, key).rows, kept)
                # coordinates on the orthonormal sector basis keep the norm
                coords = psi[kept] * scale[kept, None]
                np.testing.assert_allclose(np.linalg.norm(coords, axis=0), 1.0, rtol=1e-14)
                one = on_sector(label, cutoff, key, 0.6, coords[:, :1])
                full = segment_unitary(h, 0.6) @ psi[:, :1]
                np.testing.assert_allclose(one, full[kept] * scale[kept, None], atol=1e-12)
                assert np.abs(np.delete(full, rows, axis=0)).max(initial=0.0) < 1e-12
                many = on_sector(label, cutoff, key, angles, coords)
                for j, angle in enumerate(angles):
                    np.testing.assert_allclose(
                        many[:, j],
                        (segment_unitary(h, angle) @ psi[:, j])[kept] * scale[kept],
                        atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(label=st.sampled_from(list(HamiltonianLabel)),
           cutoff=st.integers(2, 12),
           angle=st.floats(0.0, 2.0 * math.pi),
           seed=st.integers(0, 2**32 - 1))
    def test_blockwise_engine_property(self, label, cutoff, angle, seed):
        h = build_hamiltonian(label, 1.0, cutoff)
        rng = np.random.default_rng(seed)
        psi = rng.standard_normal(h.shape[0]) \
            + 1j * rng.standard_normal(h.shape[0])
        psi /= np.linalg.norm(psi)
        via_blocks = on_sector(label, cutoff, FULL_SPACE, angle, psi[:, None])[:, 0]
        np.testing.assert_allclose(via_blocks, segment_unitary(h, angle) @ psi,
                                   atol=1e-12)


class TestPacking:
    """Each chain's rotation planes in the packing: an orthogonal basis in
    which the chain's gauge generator ``K`` turns each plane at a rate that
    scipy's tridiagonal solver, the routine the packing once used, gives as
    an eigenvalue."""

    @pytest.mark.parametrize("cutoff", [1, 2, 30, 60])
    @pytest.mark.parametrize("label, swap", [
        (HamiltonianLabel.TWO_MODE_UNSTABLE, False),
        (HamiltonianLabel.TWO_MODE_UNSTABLE, True),
        (HamiltonianLabel.TWO_MODE_STABLE, False),
        (HamiltonianLabel.TWO_MODE_STABLE, True),
        (HamiltonianLabel.SINGLE_MODE_UNSTABLE, False),
    ], ids=["amplify", "amplify-swap", "exchange", "exchange-swap", "single-amplify"])
    def test_chains_match_tridiagonal_reference(self, label, swap, cutoff):
        """Each block has two sides of ``H`` rows, each a run of chain halves
        from offset 0 and padding after them.  A chain's even rows go to the
        side with fewer rows so far (side 0 on a tie) and its odd rows to the
        other, so the sides differ by at most one row.  The bucket's basis
        is one ``H x H`` half per side, so ``Q`` is block-diagonal by side.
        On each chain's rows ``Q`` is orthogonal to 1e-13, zero outside the
        chain's square and on padding, and ``Q^T K Q`` is the generator of
        :func:`fock._rotate`: the rate ``r_c`` at ``(c, partner(c))``.  Every
        turning coordinate's partner lies on the other side of its block."""
        chains = {idx[0]: (tuple(idx), off) for idx, off in fock._chains(label, cutoff, swap)}
        for key in [key for key in SECTORS if key[1] == swap]:
            sector = fock._sector(cutoff, label.mode_count, key).rows
            packing = generator_packing(label, cutoff, key)
            used = np.zeros(packing.gather.size, dtype=bool)
            used[packing.unpack] = True
            seen = []
            for start, stop, basis in packing.buckets:
                half = basis.shape[1]
                assert basis.shape[2] == half and basis.shape[0] % 2 == 0
                shape = (-1, 2 * half)
                rows = sector[packing.gather[start:stop]].reshape(shape)
                rates = packing.weights[start:stop].reshape(shape)
                # each partner within its own block, numbered from its start
                partner = (packing.partner[start:stop] - start).reshape(shape) \
                    - 2 * half * np.arange(rows.shape[0])[:, None]
                real = used[start:stop].reshape(shape)
                for k in range(rows.shape[0]):
                    q = np.zeros((2 * half, 2 * half))
                    q[:half, :half], q[half:, half:] = basis[2 * k], basis[2 * k + 1]
                    widths = real[k].reshape(2, half).sum(axis=1)
                    assert abs(widths[0] - widths[1]) <= 1
                    fixed = np.ones(2 * half, dtype=bool)
                    filled = [0, 0]
                    while filled != widths.tolist():
                        even = int(filled[1] < filled[0])
                        idx, off = chains[rows[k, even * half + filled[even]]]
                        m, h = len(idx), len(idx) // 2
                        # the chain's rows on the block: even rows, then odd
                        run = np.concatenate((even * half + filled[even] + np.arange(m - h),
                                              (1 - even) * half + filled[1 - even]
                                              + np.arange(h)))
                        order = np.concatenate((np.arange(0, m, 2), np.arange(1, m, 2)))
                        assert tuple(rows[k, run]) == tuple(np.array(idx)[order])
                        seen.append(idx)
                        assert real[k, run].all()
                        fixed[run] = False
                        filled[even] += m - h
                        filled[1 - even] += h
                        chain = (np.diag(off, 1) + np.diag(off, -1))[np.ix_(order, order)]
                        scale = max(np.abs(chain).max(initial=0.0), 1.0)
                        eigenvalues = eigh_tridiagonal(np.zeros(m), off)[0]
                        np.testing.assert_allclose(np.sort(np.abs(rates[k, run])),
                                                   np.sort(np.abs(eigenvalues)),
                                                   rtol=1e-12, atol=1e-12 * scale)
                        local = np.full(2 * half, -1)
                        local[run] = np.arange(m)
                        assert (local[partner[k, run]] >= 0).all()
                        turning = run[rates[k, run] != 0]
                        assert ((partner[k, turning] >= half) != (turning >= half)).all()
                        still = run[rates[k, run] == 0]
                        np.testing.assert_array_equal(partner[k, still], still)
                        outside = np.ones(2 * half, dtype=bool)
                        outside[run] = False
                        assert not q[run][:, outside].any() and not q[outside][:, run].any()
                        block = q[np.ix_(run, run)]
                        np.testing.assert_allclose(block.T @ block, np.eye(m), rtol=0, atol=1e-13)
                        # K = D^-1 H D / i: sigma_jk = s_k - s_j with s = 1 where D is i
                        s = gauge_diagonal(rows[k, run], cutoff, label.mode_count).imag
                        # the chain links only rows on opposite sides
                        assert not chain[:m - h, :m - h].any() and not chain[m - h:, m - h:].any()
                        generator = np.zeros((m, m))
                        generator[np.arange(m), local[partner[k, run]]] = rates[k, run]
                        np.testing.assert_allclose(block.T @ (chain * (s - s[:, None])) @ block,
                                                   generator, rtol=0, atol=1e-12 * scale)
                    # padding: no row, rate 0, its own partner, zero in Q
                    assert not real[k, fixed].any() and not rates[k, fixed].any()
                    np.testing.assert_array_equal(partner[k, fixed], np.flatnonzero(fixed))
                    assert not q[fixed].any() and not q[:, fixed].any()
            # every chain of the sector, each once
            in_sector = set(sector.tolist())
            assert sorted(seen) == sorted(idx for idx, _ in chains.values() if idx[0] in in_sector)
            assert used.sum() == sector.size


def chain_lengths(label, cutoff, key):
    """The length of every chain of ``label`` on the sector ``key``, from
    ``fock._chains`` alone: no sector and no basis is built."""
    parity, swap = key
    total = basis_parity(cutoff, label.mode_count)
    return [idx.size for idx, _ in fock._chains(label, cutoff, swap)
            if parity is None or total[idx[0]] == parity]


def planned_entries(lengths, plan):
    """Padded map entries of ``plan``: ``L^2`` per block of a bucket of
    blocks of length ``L``, twice the entries of the block's two basis
    halves."""
    return sum(len(bucket) * fock._width(lengths, bucket) ** 2 for bucket in plan)


class TestPlan:
    """The layout of chains in padded blocks, from their lengths alone."""

    TWO_MODE = (HamiltonianLabel.TWO_MODE_UNSTABLE, HamiltonianLabel.TWO_MODE_STABLE)

    @pytest.mark.parametrize("cutoff", [1, 2, 7, 30, 60, 100])
    def test_plan_places_every_chain_once_within_its_width(self, cutoff):
        """Each chain lies in one block of one bucket, and every block of a
        bucket fits its width, the bucket's longest chain rounded up to even
        (two sides of ``H`` rows); a plan of several buckets holds one chain
        per block.  One-mode sectors, whose two chains never share a block,
        cost the same in both layouts and get the grouped one: one bucket,
        one chain per block, sorted by length."""
        for label in HamiltonianLabel:
            if label is HamiltonianLabel.SINGLE_MODE_STABLE:
                continue
            for key in sectors(label.mode_count):
                lengths = chain_lengths(label, cutoff, key)
                plan = fock._plan(lengths)
                placed = [c for bucket in plan for block in bucket for c in block]
                assert sorted(placed) == list(range(len(lengths)))
                for bucket in plan:
                    width = fock._width(lengths, bucket)
                    longest = max(lengths[c] for block in bucket for c in block)
                    assert width == longest + longest % 2
                    assert all(sum(lengths[c] for c in block) <= width for block in bucket)
                assert len(plan) == 1 or all(len(block) == 1 for bucket in plan
                                             for block in bucket)
                if label.mode_count == 1:
                    order = sorted(range(len(lengths)), key=lengths.__getitem__)
                    assert plan == (tuple((c,) for c in order),)

    @pytest.mark.parametrize("cutoff", [30, 60])
    def test_swap_sector_generators_take_one_bucket(self, cutoff):
        """The two-mode vacuum's sector, that of every scan, gets one filled
        bucket per generator, so a shared-angle segment is one matmul.  At
        cutoff 60, 31 amplifying chains fill 16 blocks of 62 rows (two sides
        of 31; the longest chain has 61), and 61 exchange chains fill 31
        blocks of 32 (two sides of 16), each pair ``(j, 31 - j)`` on 31
        rows."""
        shapes = []
        for label in self.TWO_MODE:
            lengths = chain_lengths(label, cutoff, (0, True))
            (bucket,) = fock._plan(lengths)
            shapes.append((len(lengths), len(bucket), fock._width(lengths, bucket)))
        if cutoff == 60:
            assert shapes == [(31, 16, 62), (61, 31, 32)]

    def test_ceiling_entries_stay_grouped(self):
        """At the two-mode ceiling, on the full sector of a coherent state,
        no generator plans more padded entries than the grouped layout of
        ``BUCKET_BLOCKS`` chains per bucket, 5535204 each."""
        cutoff = fock.MAX_CUTOFF[2]
        for label in self.TWO_MODE:
            lengths = chain_lengths(label, cutoff, FULL_SPACE)
            assert planned_entries(lengths, fock._plan(lengths)) <= 5535204


@functools.lru_cache(maxsize=None)
def reference_blocks(label, cutoff, key):
    """``(sector positions, eigenvalues, eigenvectors)`` of every chain of
    ``label`` on the sector ``key``, from ``np.linalg.eigh`` of
    ``fock._chains``; the diagonal generator is one block of the whole
    sector, with eigenvalues ``n + 1/2`` and no eigenvectors."""
    rows = fock._sector(cutoff, label.mode_count, key).rows
    if label is HamiltonianLabel.SINGLE_MODE_STABLE:
        return ((np.arange(rows.size), rows + 0.5, None),)
    position = np.full((cutoff + 1) ** label.mode_count, -1)
    position[rows] = np.arange(rows.size)
    return tuple((position[idx], *np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1)))
                 for idx, off in fock._chains(label, cutoff, key[1])
                 if position[idx[0]] >= 0)


def reference_segment(label, cutoff, key, angles, psi):
    """``exp(-i angle H)`` of generator ``label`` on ``psi`` (sector rows,
    columns), amplitudes on the sector ``key`` outside the gauge, with one
    angle shared by the columns or one each: ``V exp(-i angle w) V^T`` chain
    by chain.  This eigenvector path is the one the engine's rotation planes
    replaced, kept here as the reference of both fast paths."""
    out = np.empty(psi.shape, dtype=complex)
    for idx, w, v in reference_blocks(label, cutoff, key):
        phase = np.exp(-1j * w[:, None] * np.atleast_1d(angles))
        out[idx] = phase * psi[idx] if v is None else v @ (phase * (v.T @ psi[idx]))
    return out


def reference_step_periods(cutoff, mode_count):
    """A stand-in for ``fock._step_periods`` on the sectors of ``cutoff``
    and ``mode_count``: complex coordinates outside the gauge, with both
    segments on :func:`reference_segment`, chain by chain on the sector
    basis, renormalized every period and settled in one-period blocks.  Its
    ``calls`` attribute counts the calls."""
    amplifying, exchanging = [label for label in HamiltonianLabel
                              if label.mode_count == mode_count]

    def step_periods(sector, coords, gamma_tau1, omega_tau2, periods, settle):
        step_periods.calls += 1
        key = next(key for key in sectors(mode_count)
                   if fock._sector(cutoff, mode_count, key) is sector)
        angles = np.broadcast_to(omega_tau2, (coords.shape[1],))
        # out of the gauge: D on the sector basis
        psi = coords * gauge_diagonal(sector.rows, cutoff, mode_count)[:, None]
        active = np.arange(coords.shape[1])
        for n in range(1, periods + 1):
            psi = reference_segment(amplifying, cutoff, key, gamma_tau1, psi)
            psi = reference_segment(exchanging, cutoff, key, angles[active], psi)
            probs = np.abs(psi) ** 2
            norm_sq = probs.sum(axis=0)
            psi /= np.sqrt(norm_sq)
            observed = (sector.observables[:-1, sector.exchange.unpack] @ probs) / norm_sq
            stop = settle(n, active, psi, np.sqrt(norm_sq)[None], observed[None, :-1],
                          observed[None, -1])
            active, psi = active[~stop], psi[:, ~stop]
            if not active.size:
                break
    step_periods.calls = 0
    return step_periods


def sector_unitary(label, cutoff, key, angle):
    """The dense ``exp(-i angle H)`` on the orthonormal basis of the sector
    ``key``, and the sector's basis rows."""
    rows = fock._sector(cutoff, label.mode_count, key).rows
    u = segment_unitary(build_hamiltonian(label, 1.0, cutoff), angle)
    basis = np.zeros((rows.size, u.shape[0]))
    basis[np.arange(rows.size), rows] = 1.0
    if key[1]:
        # the symmetric vector of row |n_a, n_b>, n_a > n_b, also holds |n_b, n_a>
        n_a, n_b = np.divmod(rows, cutoff + 1)
        off = n_a != n_b
        basis[off] /= math.sqrt(2.0)
        basis[np.flatnonzero(off), (n_b * (cutoff + 1) + n_a)[off]] = 1.0 / math.sqrt(2.0)
    return basis @ u @ basis.T, rows


class TestGauge:
    """The gauge ``D = diag(i^s)``: every bucket map of a one-angle segment
    against the dense reference, and the dtype of the coordinates that the
    stepping loop carries."""

    @pytest.mark.parametrize("cutoff", [1, 2, 7])
    def test_bucket_maps_equal_gauged_dense_unitary(self, cutoff):
        """Each bucket map of a one-angle segment equals ``D^-1 U D`` of the
        dense reference on the rows of each block, both sides and the chains
        that share it included (zero between them), and is zero on padding
        and float64: every sector is bipartite."""
        for label in HamiltonianLabel:
            for key in sectors(label.mode_count):
                packing = generator_packing(label, cutoff, key)
                for angle in (0.6, 2.3):
                    u, rows = sector_unitary(label, cutoff, key, angle)
                    gauge = gauge_diagonal(rows, cutoff, label.mode_count)
                    reference = gauge.conj()[:, None] * u * gauge
                    maps = fock._Segment(packing, angle).maps
                    if not packing.buckets:
                        assert maps is None
                        continue
                    used = np.zeros(packing.gather.size, dtype=bool)
                    used[packing.unpack] = True
                    for start, stop, m in maps:
                        assert m.dtype == np.float64
                        length = m.shape[1]
                        index = packing.gather[start:stop].reshape(-1, length)
                        real = used[start:stop].reshape(-1, length)
                        for k, rows in enumerate(real):
                            block = index[k, rows]
                            np.testing.assert_allclose(m[k][np.ix_(rows, rows)],
                                                       reference[np.ix_(block, block)],
                                                       rtol=0, atol=1e-12)
                            assert not m[k, ~rows].any() and not m[k][:, ~rows].any()

    @pytest.mark.parametrize("state, real", [
        (vacuum_state(8, 2), True),
        (number_state(8, 2, 1), True),
        (number_state(8, 2, 2), True),
        (number_state(8, 4, 3), True),
        (number_state(8, 1, 2), False),
        (coherent_state(10, [0.3, 0.2]), False),
        (coherent_state(10, [0.4, 0.4]), False),
        (fock.FockState(2, 8, np.eye(81)[basis_index(8, 1, 0)]
                        + np.eye(81)[basis_index(8, 0, 1)]), False),
        (vacuum_state(8, 1), False),
    ], ids=["vacuum", "2,1", "2,2", "4,3", "1,2", "coherent", "coherent-equal",
            "odd-swap", "single-vacuum"])
    @pytest.mark.parametrize("omega_tau2", [1.1, [0.4, 1.1, 2.9]], ids=["shared", "per-column"])
    def test_settle_receives_real_coordinates_exactly_when_real(self, state, real, omega_tau2):
        """Two-mode vacuum and number states with even ``n_a`` start real and
        stay real, under one exchange angle or one per column as in a scan;
        an odd ``n_a`` (the odd swap-symmetric state too), a coherent state
        and the one-mode rotation make them complex."""
        columns = np.repeat(state.amplitudes[:, None], np.size(omega_tau2), axis=1)
        dtypes = []

        def settle(first, active, psi, norm, per_mode, leak):
            dtypes.append(psi.dtype)
            return np.zeros(active.size, dtype=bool)

        fock._step_periods(*fock._coordinates(columns, state.mode_count, state.cutoff),
                           0.2, omega_tau2, 2 * fock._BLOCK + 1, settle)
        assert dtypes == [np.float64 if real else np.complex128] * 3


    @settings(max_examples=25, deadline=None)
    @given(gamma_tau1=st.floats(0.02, 0.4),
           grid=st.lists(st.floats(0.0, math.pi), min_size=1, max_size=6),
           periods=st.integers(1, 40),
           cutoff=st.integers(8, 60))
    def test_scan_equals_complex_per_column_loop(self, gamma_tau1, grid, periods, cutoff):
        """The scan, on real gauge coordinates with a real map per bucket for
        its amplifying segment and rotation planes per column for its
        exchange, agrees with the same scan stepped by
        :func:`reference_step_periods` (see :func:`assert_scans_agree`)."""
        kwargs = {"periods": periods, "cutoff": cutoff}
        points = zeno_threshold_scan(gamma_tau1, grid, **kwargs)
        stand_in = reference_step_periods(cutoff, 2)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fock, "_step_periods", stand_in)
            reference = zeno_threshold_scan(gamma_tau1, grid, **kwargs)
        assert stand_in.calls > 0
        assert_scans_agree(points, reference)


class TestSegmentPaths:
    """Both fast paths of a segment, a map per bucket for one angle and the
    rotation planes for one angle per column, and the stepping loop's
    composite permutation, against the reference path."""

    @pytest.mark.parametrize("cutoff", [1, 2, 7, 30, 60])
    def test_one_angle_equals_per_column_path(self, cutoff):
        """Each fast path equals :func:`reference_segment` to 1e-12 on the
        gauge coordinates of every sector of every label, for real and for
        complex columns, with one angle per column and with one angle: three
        columns at once, each alone, and the per-column path fed that angle
        in every column.  Real columns stay float64."""
        rng = np.random.default_rng(cutoff)
        for label in HamiltonianLabel:
            for key in sectors(label.mode_count):
                rows = fock._sector(cutoff, label.mode_count, key).rows
                gauge = gauge_diagonal(rows, cutoff, label.mode_count)[:, None]
                real = rng.standard_normal((rows.size, 3))
                complex_ = real + 1j * rng.standard_normal((rows.size, 3))
                for coords in (real / np.linalg.norm(real, axis=0),
                               complex_ / np.linalg.norm(complex_, axis=0)):
                    for angles in (0.6, 2.3, [0.6, 2.3, 1.1]):
                        one = segment(label, cutoff, angles, key)
                        assert (one.maps is None) == (np.size(angles) > 1
                                                      or not one.packing.buckets)
                        if not one.real and np.isrealobj(coords):
                            continue
                        expected = gauge.conj() * reference_segment(label, cutoff, key,
                                                                    angles, gauge * coords)
                        packed = coords[one.packing.gather]
                        got = applied(one, packed)[one.packing.unpack]
                        assert got.dtype == coords.dtype
                        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
                        if np.size(angles) > 1:
                            continue
                        per_column = segment(label, cutoff, np.full(3, angles), key)
                        assert per_column.maps is None
                        np.testing.assert_allclose(applied(per_column, packed)[one.packing.unpack],
                                                   expected, rtol=0, atol=1e-12)
                        for j in range(3):
                            alone = applied(one, np.ascontiguousarray(packed[:, j:j + 1]))
                            np.testing.assert_allclose(alone[one.packing.unpack, 0],
                                                       expected[:, j], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("state, omega_tau2", [
        (vacuum_state(9, 1), 1.1),
        (coherent_state(9, [0.3 + 0.2j]), 1.1),
        (vacuum_state(9, 2), 1.1),
        (number_state(9, 2, 1), 1.1),
        (coherent_state(9, [0.3, 0.2j]), 1.1),
        (vacuum_state(9, 2), [0.4, 1.1, 2.9]),
        (number_state(9, 2, 1), [0.4, 1.1]),
    ], ids=["single-vacuum", "single-coherent", "vacuum", "2,1", "coherent",
            "vacuum-per-column", "2,1-per-column"])
    def test_period_equals_unpack_then_gather(self, state, omega_tau2):
        """One period of the stepping loop, which carries the columns in the
        exchange packing and moves them to the amplifying packing and back by
        one composite permutation each, equals the two segments applied one
        after the other, each unpacking to and gathering from the sector
        basis.  The loop runs in one-period blocks, so the one call to
        ``settle`` holds period 1."""
        cutoff, modes = state.cutoff, state.mode_count
        k = np.size(omega_tau2)
        columns = np.repeat(state.amplitudes[:, None], k, axis=1)
        key = fock._sector_key(columns, modes, cutoff)
        sector = fock._sector(cutoff, modes, key)
        amplifying, exchanging = [label for label in HamiltonianLabel if label.mode_count == modes]
        # the composite indices on packed input, padding rows included
        packed = np.arange(sector.amplify.gather.size)
        np.testing.assert_array_equal(
            packed[sector.between],
            packed[sector.amplify.unpack][sector.exchange.gather])
        packed = np.arange(sector.exchange.gather.size)
        np.testing.assert_array_equal(
            packed[sector.to_amplify],
            packed[sector.exchange.unpack][sector.amplify.gather])

        recorded = []

        def settle(first, active, psi, norm, per_mode, leak):
            recorded.append(psi * norm[-1])
            return np.ones(active.size, dtype=bool)

        one_period_blocks(fock._step_periods, *fock._coordinates(columns, modes, cutoff), 0.3,
                          omega_tau2, 5, settle)
        rows = sector.rows
        # the loop's gauge coordinates, unfolded with D
        recorded[0] = recorded[0] * gauge_diagonal(rows, cutoff, modes)[:, None]
        psi = columns[rows]
        if key[1]:
            n_a, n_b = np.divmod(rows, cutoff + 1)
            psi[n_a != n_b] *= math.sqrt(2.0)
        assert len(recorded) == 1
        amplified = on_sector(amplifying, cutoff, key, 0.3, psi)
        np.testing.assert_allclose(recorded[0],
                                   on_sector(exchanging, cutoff, key, omega_tau2, amplified),
                                   rtol=0, atol=1e-14)


def applied(segment, x):
    """``segment`` applied to the packed ``x`` by a step bound to a fresh output."""
    y = np.empty_like(x)
    segment.bind(x, y)()
    return y


def on_sector(label, cutoff, key, angles, psi):
    """The engine's segment of generator ``label`` with ``angles`` on the
    sector ``key``, applied to ``psi`` of shape (sector rows, columns) on the
    sector basis, outside the gauge: moved into the gauge and gathered into
    the packing, :func:`applied`, then unpacked and moved out of the
    gauge."""
    one = segment(label, cutoff, angles, key)
    rows = fock._sector(cutoff, label.mode_count, key).rows
    gauge = gauge_diagonal(rows, cutoff, label.mode_count)[:, None]
    x = (psi * gauge.conj())[one.packing.gather]
    return applied(one, x)[one.packing.unpack] * gauge


def fresh_step_periods(sector, psi, gamma_tau1, omega_tau2, periods, settle):
    """A stand-in for ``fock._step_periods`` that binds no workspace: each
    segment is :func:`applied` and each permutation a fresh ``np.take``,
    every period, each block's observables are stacked from fresh arrays,
    and a column that leaves is dropped by ``carried[:, keep]``.  Sector,
    gauge, dtype, paths, blocks and the packing that carries the columns
    between periods are the engine's."""
    amplify = fock._Segment(sector.amplify, gamma_tau1)
    exchange = fock._Segment(sector.exchange, omega_tau2)
    if amplify.real and exchange.real and not psi.imag.any():
        psi = np.ascontiguousarray(psi.real)
    carried = np.zeros((sector.between.size, psi.shape[1]), dtype=psi.dtype)
    carried[sector.exchange.unpack] = psi
    active = np.arange(psi.shape[1])
    for first in range(1, periods + 1, fock._BLOCK):
        observed = []
        for _ in range(min(fock._BLOCK, periods + 1 - first)):
            carried = applied(amplify, np.take(carried, sector.to_amplify, axis=0))
            carried = applied(exchange, np.take(carried, sector.between, axis=0))
            probs = carried * carried if np.isrealobj(carried) \
                else carried.real ** 2 + carried.imag ** 2
            observed.append(sector.observables @ probs)
        observed = np.array(observed)
        # squared norms from the observables' row of ones, from 1 at the
        # block's start, as the engine reads them
        norm_sq = np.concatenate((np.ones((1, active.size)), observed[:, -1]))
        carried /= np.sqrt(norm_sq[-1])
        stop = settle(first, active, np.take(carried, sector.exchange.unpack, axis=0),
                      np.sqrt(norm_sq[1:] / norm_sq[:-1]),
                      observed[:, :-2] / norm_sq[1:, None], observed[:, -2] / norm_sq[1:])
        if stop.any():
            keep = ~stop
            active, carried = active[keep], carried[:, keep]
            exchange.keep(keep)
            if not active.size:
                break


def recording(step_periods, records):
    """``step_periods`` with every ``settle`` call also appending ``(first,
    active, psi, norm, per_mode, leak)`` to ``records``, as copies: the
    ``psi`` that ``settle`` receives is valid only during the call.  Its
    ``calls`` attribute counts the calls."""
    def step(sector, psi, gamma_tau1, omega_tau2, periods, settle):
        step.calls += 1

        def record(first, active, psi, norm, per_mode, leak):
            records.append((first, *(a.copy() for a in (active, psi, norm, per_mode, leak))))
            return settle(first, active, psi, norm, per_mode, leak)
        step_periods(sector, psi, gamma_tau1, omega_tau2, periods, record)
    step.calls = 0
    return step


def assert_records_identical(records, reference):
    """Same periods, columns and dtypes, and every array equal bit for bit."""
    assert records and len(records) == len(reference)
    for got, expected in zip(records, reference):
        assert got[0] == expected[0]
        for a, b in zip(got[1:], expected[1:]):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


class TestWorkspace:
    """The stepping loop binds each segment to one workspace per set of
    active columns; it gives the bits of a loop on fresh arrays."""

    def test_scan_equals_fresh_array_loop(self):
        """A scan whose points leave at different periods, on real gauge
        coordinates and the per-column exchange path: every record and
        every point (``n_final``, ``periods_run``) as with fresh arrays."""
        g = 0.05
        grid = [*np.linspace(0.0, math.acos(1.0 / math.cosh(g)), 6), 1.6, math.pi]
        records, reference = [], []
        engine = recording(fock._step_periods, records)
        fresh = recording(fresh_step_periods, reference)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fock, "_step_periods", engine)
            points = zeno_threshold_scan(g, grid, growth_factor=400.0)
            patch.setattr(fock, "_step_periods", fresh)
            expected = zeno_threshold_scan(g, grid, growth_factor=400.0)
        assert engine.calls > 0 and fresh.calls > 0
        assert len({p.periods_run for p in points}) >= 4
        assert len({first for first, *_ in records}) >= 4
        assert records[0][2].dtype == np.float64
        assert_records_identical(records, reference)
        assert points == expected

    @pytest.mark.parametrize("state", [
        coherent_state(10, [0.3 + 0.1j, 0.2]),
        fock.FockState(2, 10, np.eye(121)[basis_index(10, 1, 0)]
                       + np.eye(121)[basis_index(10, 0, 1)]),
        coherent_state(40, [0.5 - 0.2j]),
    ], ids=["coherent", "odd-swap", "single-mode"])
    def test_complex_columns_equal_fresh_array_loop(self, state):
        """Complex gauge coordinates: one column through :func:`propagate`
        (a real map per bucket on the float64 view; the odd swap-symmetric
        state on its full parity sector; the one-mode rotation is diagonal),
        stopped by its photon cap, and three columns with one exchange angle
        each (the per-column path) that stop at periods 3, 6 and 9, in blocks
        of four periods, so that they leave after the blocks of periods 1, 5
        and 9."""
        schedule = DriveSchedule.from_products(0.3, 0.1, periods=40)
        records, reference = [], []
        engine = recording(fock._step_periods, records)
        fresh = recording(fresh_step_periods, reference)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fock, "_step_periods", engine)
            traj = propagate(state, schedule, photon_cap=3.0)
            patch.setattr(fock, "_step_periods", fresh)
            expected = propagate(state, schedule, photon_cap=3.0)
        assert engine.calls > 0 and fresh.calls > 0
        assert traj.periods_completed < schedule.periods
        assert records[0][2].dtype == np.complex128
        assert_records_identical(records, reference)
        for field in ("n_per_mode", "n_total", "norm_drift", "leakage"):
            assert getattr(traj, field).tobytes() == getattr(expected, field).tobytes()
        assert (traj.status, traj.first_unsafe_period, traj.periods_completed) == \
            (expected.status, expected.first_unsafe_period, expected.periods_completed)

        def settle(first, active, psi, norm, per_mode, leak):
            return (first <= 3 * (active + 1)) & (3 * (active + 1) < first + norm.shape[0])

        columns = np.repeat(state.amplitudes[:, None], 3, axis=1)
        runs = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fock, "_BLOCK", 4)
            for step_periods in (fock._step_periods, fresh_step_periods):
                runs.append([])
                recording(step_periods, runs[-1])(
                    *fock._coordinates(columns, state.mode_count, state.cutoff), 0.3,
                    [0.4, 1.1, 2.9], 20, settle)
        assert [(first, active.tolist(), norm.shape[0]) for first, active, _, norm, *_
                in runs[0]] == [(1, [0, 1, 2], 4), (5, [1, 2], 4), (9, [2], 4)]
        assert_records_identical(*runs)

    @pytest.mark.parametrize("cutoff", [1, 2, 7, 60])
    def test_permutation_indices_in_range(self, cutoff):
        """Every index of the two row permutations of a period, and of the
        one of a block, lies in range, for every sector: the loop takes them
        with mode "clip", which would silently clip an index that did
        not."""
        for modes in (1, 2):
            for key in sectors(modes):
                sector = fock._sector(cutoff, modes, key)
                rows = sector.rows.size
                amplify, exchange, between = sector.amplify, sector.exchange, sector.between
                for index, size in ((amplify.gather, rows), (exchange.gather, rows),
                                     (amplify.unpack, amplify.gather.size),
                                     (exchange.unpack, exchange.gather.size),
                                     (between, amplify.gather.size),
                                     (sector.to_amplify, exchange.gather.size)):
                    assert 0 <= index.min() and index.max() < size
                assert amplify.unpack.size == exchange.unpack.size == rows


def assert_trajectories_agree(traj, reference, rel=1e-12):
    """Same status, guard period and length; photons within ``rel * max(1,
    n)``, norm drift and leakage within 1e-13."""
    assert (traj.status, traj.first_unsafe_period, traj.periods_completed) == \
        (reference.status, reference.first_unsafe_period, reference.periods_completed)
    assert traj.n_per_mode.shape == reference.n_per_mode.shape
    assert (np.abs(traj.n_per_mode - reference.n_per_mode)
            <= rel * np.maximum(1.0, reference.n_per_mode)).all()
    np.testing.assert_allclose(traj.norm_drift, reference.norm_drift, rtol=0, atol=1e-13)
    np.testing.assert_allclose(traj.leakage, reference.leakage, rtol=0, atol=1e-13)


def under_call_entries(value, call, *args, **kwargs):
    """``call`` with ``fock.CALL_ENTRIES`` set to ``value``, on sectors built
    for it: the sector cache is emptied before and after."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fock, "CALL_ENTRIES", value)
        fock._sector.cache_clear()
        try:
            return call(*args, **kwargs)
        finally:
            fock._sector.cache_clear()


#: ``fock.CALL_ENTRIES`` at both ends of the cost rule: 0 plans the fewest
#: padded entries, mostly grouped, and a huge value the fewest buckets, one
#: filled bucket wherever the grouped layout has several.
LAYOUTS = (0, 10 ** 12)


class TestLayouts:
    """Both layouts of :func:`fock._plan` give one answer, on every sector
    key: same statuses, outcomes and periods, photons within ``1e-13 *
    max(1, n)``, norm drift and leakage within 1e-13."""

    @pytest.mark.parametrize("cutoff", [30, 60])
    def test_layouts_differ(self, cutoff):
        """The two values do force two layouts: the swap sector's exchange
        generator gets several buckets under one and one under the other."""
        counts = [under_call_entries(value, lambda: len(fock._sector(cutoff, 2, (0, True))
                                                        .exchange.buckets))
                  for value in LAYOUTS]
        assert counts[0] > 1 and counts[1] == 1

    @pytest.mark.parametrize("cutoff", [1, 2, 30, 60])
    def test_every_sector_steps_alike(self, cutoff):
        """The stepping loop on every sector key of both mode counts, three
        random columns: real-valued with one exchange angle per column (the
        map and the rotation planes) and complex with one shared angle (a map
        per segment on the float64 view), settled after each block."""
        rng = np.random.default_rng(cutoff)
        for modes in (1, 2):
            for key in sectors(modes):
                rows = fock._sector(cutoff, modes, key).rows.size
                real = rng.standard_normal((rows, 3))
                complex_ = real + 1j * rng.standard_normal((rows, 3))
                for coords, omega_tau2 in ((real, [0.4, 1.1, 2.9]), (complex_, 1.1)):
                    # complex, as fock._coordinates returns them
                    coords = (coords / np.linalg.norm(coords, axis=0)).astype(complex)
                    runs = []
                    for value in LAYOUTS:
                        runs.append([])
                        step = recording(fock._step_periods, runs[-1])
                        under_call_entries(
                            value, lambda: step(fock._sector(cutoff, modes, key), coords.copy(),
                                                0.3, omega_tau2, fock._BLOCK + 3,
                                                lambda *args: np.zeros(3, dtype=bool)))
                    assert len(runs[0]) == len(runs[1]) == 2
                    for got, expected in zip(*runs):
                        first, active, psi, norm, per_mode, leak = got
                        assert first == expected[0]
                        np.testing.assert_array_equal(active, expected[1])
                        np.testing.assert_allclose(psi, expected[2], rtol=0, atol=1e-13)
                        np.testing.assert_allclose(norm, expected[3], rtol=0, atol=1e-13)
                        assert (np.abs(per_mode - expected[4])
                                <= 1e-13 * np.maximum(1.0, expected[4])).all()
                        np.testing.assert_allclose(leak, expected[5], rtol=0, atol=1e-13)

    @pytest.mark.parametrize("cutoff", [1, 2, 30, 60])
    def test_propagate_and_scan_agree(self, cutoff):
        """``propagate`` of the vacuum of both mode counts and, where the
        cutoff holds them, ``|2,1>`` and coherent states of both mode counts;
        and a scan across the stability boundary."""
        states = [vacuum_state(cutoff, 2), vacuum_state(cutoff, 1)]
        if cutoff >= 30:
            states += [number_state(cutoff, 2, 1), coherent_state(cutoff, [0.5, 0.3j]),
                       coherent_state(cutoff, [0.6 - 0.2j])]
        schedule = DriveSchedule.from_products(0.1, 0.9, periods=40)
        for state in states:
            assert_trajectories_agree(*(under_call_entries(value, propagate, state, schedule)
                                        for value in LAYOUTS), rel=1e-13)
        boundary = math.acos(1.0 / math.cosh(0.1))
        grid = [0.0, boundary - 0.05, boundary + 0.05, 1.6, math.pi]
        assert_scans_agree(*(under_call_entries(value, zeno_threshold_scan, 0.1, grid,
                                                periods=60, cutoff=cutoff)
                             for value in LAYOUTS), rel=1e-13)


def growth_ratio(gamma_tau1, period):
    """Total photons of the vacuum after ``period`` periods of amplification
    alone, over those after one: ``sinh^2(period g) / sinh^2(g)``."""
    return (math.sinh(period * gamma_tau1) / math.sinh(gamma_tau1)) ** 2


class TestBlocks:
    """The stepping loop settles once per block of ``fock._BLOCK`` periods,
    the last one possibly shorter, and each caller keeps a column's records
    up to its first stopping period in the block: one-period blocks give the
    same statuses, outcomes and periods, and photons within ``1e-12 * max(1,
    n)`` (:func:`assert_trajectories_agree`, :func:`assert_scans_agree`),
    wherever in a block a run or a column stops."""

    BLOCK = fock._BLOCK

    def test_block_spans_several_periods(self):
        """The positions below (first, middle, last and next block's first
        period) are distinct."""
        assert self.BLOCK >= 4

    @pytest.mark.parametrize("periods", [1, BLOCK - 1, BLOCK + 3, 2 * BLOCK + 5])
    @pytest.mark.parametrize("state", [vacuum_state(12, 2), coherent_state(12, [0.3, 0.2j]),
                                       coherent_state(30, [0.4 - 0.1j])],
                             ids=["vacuum", "coherent", "single-mode"])
    def test_periods_not_a_multiple_of_block(self, state, periods):
        """A short last block: every period is recorded, the states equal
        the dense products, and one-period blocks agree."""
        schedule = DriveSchedule.from_products(0.1, 1.1, periods=periods)
        traj, _ = assert_matches_dense_products(state, schedule)
        assert len(traj) == periods + 1
        assert_trajectories_agree(traj, one_period_blocks(propagate, state, schedule))

    @pytest.mark.parametrize("trip", [1, BLOCK // 2, BLOCK, BLOCK + 1, BLOCK + BLOCK // 2,
                                      2 * BLOCK],
                             ids=["first", "middle", "last", "next-first", "next-middle",
                                  "next-last"])
    def test_cap_trip_anywhere_in_a_block(self, trip):
        """A cap between the totals of periods ``trip - 1`` and ``trip`` of a
        growing run stops it at ``trip``, wherever that lies in a block: the
        records are the uncapped run's up to ``trip``, bit for bit."""
        state = vacuum_state(30, 2)
        schedule = DriveSchedule.from_products(0.02, 0.0, periods=2 * self.BLOCK + 2)
        free = propagate(state, schedule)
        assert free.status == "ok" and (np.diff(free.n_total) > 0).all()
        cap = (free.n_total[trip - 1] + free.n_total[trip]) / 2.0
        traj = propagate(state, schedule, photon_cap=cap)
        assert (traj.status, traj.periods_completed, len(traj)) == ("photon-cap", trip, trip + 1)
        for field in ("n_per_mode", "n_total", "norm_drift", "leakage"):
            assert getattr(traj, field).tobytes() == getattr(free, field)[:trip + 1].tobytes()
        assert_trajectories_agree(traj, one_period_blocks(propagate, state, schedule,
                                                          photon_cap=cap))

    def test_leakage_trip_wins_over_cap_trip_in_one_period(self):
        """A cap tripped in the period where the leakage monitor first trips,
        inside a block, leaves the status truncation-unsafe."""
        state = vacuum_state(12, 2)
        schedule = DriveSchedule.from_products(0.1, 0.0, periods=3 * self.BLOCK)
        free = propagate(state, schedule)
        unsafe = free.first_unsafe_period
        assert unsafe is not None and unsafe % self.BLOCK not in (0, 1)
        cap = (free.n_total[unsafe - 1] + free.n_total[unsafe]) / 2.0
        traj = propagate(state, schedule, photon_cap=cap)
        assert (traj.status, traj.first_unsafe_period, traj.periods_completed) == \
            ("truncation-unsafe", unsafe, unsafe)
        assert_trajectories_agree(traj, one_period_blocks(propagate, state, schedule,
                                                          photon_cap=cap))

    @pytest.mark.parametrize("stop", [1, 2, BLOCK, BLOCK + 1])
    def test_scan_column_stops_anywhere_in_a_block(self, stop):
        """Scan columns that stop at period ``stop`` while a bounded column
        (``omega_tau2 = pi/2`` undoes each amplification) runs on: at period
        1 a beam splitter (``pi/4``) leaks, at a cutoff that holds the
        bounded column with a margin of 2; later, amplification alone (``0``
        and ``pi``) passes a growth factor set between its ratios at ``stop
        - 1`` and ``stop``."""
        periods = 2 * self.BLOCK + 3
        if stop == 1:
            gamma_tau1, grid, kwargs = 0.32, [math.pi / 4, math.pi / 2], {"cutoff": 14}
            expected = ["indeterminate", "bounded"]
        else:
            gamma_tau1, grid = 0.02, [0.0, math.pi / 2, math.pi]
            factor = math.sqrt(growth_ratio(gamma_tau1, stop - 1) * growth_ratio(gamma_tau1, stop))
            kwargs = {"cutoff": 30, "growth_factor": factor}
            expected = ["growth", "bounded", "growth"]
        points = zeno_threshold_scan(gamma_tau1, grid, periods=periods, **kwargs)
        assert [p.outcome for p in points] == expected
        assert [p.periods_run for p in points] == \
            [periods if outcome == "bounded" else stop for outcome in expected]
        assert_scans_agree(points, one_period_blocks(zeno_threshold_scan, gamma_tau1, grid,
                                                     periods=periods, **kwargs))


def initial_photons(state):
    """Photons per mode of ``state``: the period-0 record of a propagation."""
    idle = DriveSchedule.from_products(0.0, 0.0, periods=1)
    return propagate(state, idle).n_per_mode[0]


class TestStatesAndExpectations:
    def test_vacuum_expectations(self):
        assert initial_photons(vacuum_state(5, 2)).tolist() == [0.0, 0.0]
        assert initial_photons(vacuum_state(5, 1)).tolist() == [0.0]

    def test_number_state_total(self):
        assert initial_photons(number_state(4, 1, 1)).sum() == pytest.approx(2.0)
        assert initial_photons(number_state(4, 3, 1)).tolist() == [3.0, 1.0]
        assert initial_photons(number_state(4, 3)).tolist() == [3.0]

    def test_equal_superposition(self):
        amps = np.zeros(25, dtype=complex)
        amps[basis_index(4, 0, 0)] = 1.0
        amps[basis_index(4, 1, 1)] = 1.0
        state = fock.FockState(2, 4, amps)
        np.testing.assert_allclose(initial_photons(state), [0.5, 0.5])

    def test_projection_probability(self):
        probs = np.abs(number_state(3, 2, 1).amplitudes) ** 2
        assert basis_index(3, 2, 1) == 2 * 4 + 1
        assert probs[basis_index(3, 2, 1)] == 1.0
        assert probs.sum() == 1.0

    def test_number_state_occupation_beyond_cutoff(self):
        with pytest.raises(ValueError):
            number_state(3, 4, 0)

    @pytest.mark.parametrize("call", [
        lambda: basis_index(4, 1.5, 0),
        lambda: basis_index(4, 1, True),
        lambda: number_state(4, 1.5, 0),
        lambda: number_state(3, 1, 1, 1),
        lambda: number_state(3),
        lambda: basis_index(3),
    ], ids=["index-float", "index-bool", "state-float", "state-three", "state-none",
            "index-none"])
    def test_occupations_must_be_one_or_two_integers(self, call):
        with pytest.raises(ValueError, match="occupation"):
            call()

    def test_integral_occupations_accepted(self):
        assert basis_index(4, np.int64(1), 2.0) == 7
        assert type(basis_index(4, np.int64(1), 2.0)) is int
        assert basis_index(4, 3.0) == 3
        np.testing.assert_array_equal(number_state(4, 1.0, np.int64(2)).amplitudes,
                                      number_state(4, 1, 2).amplitudes)

    @pytest.mark.parametrize("index", [True, False, np.bool_(True)])
    def test_bool_basis_index_rejected(self, index):
        # the rule of floquet._require_int: a bool is never a count or index
        with pytest.raises(ValueError, match="occupation"):
            basis_index(3, 0, index)
        with pytest.raises(ValueError, match="occupation"):
            number_state(3, index, 0)

    def test_coherent_state_photon_number(self):
        alpha = 0.8 - 0.4j
        n_a, n_b = initial_photons(coherent_state(25, [alpha, 0.0]))
        assert n_a == pytest.approx(abs(alpha) ** 2, rel=1e-10)
        assert n_b == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("modes", [1, 2])
    def test_cutoff_ceiling(self, modes):
        """Every entry point takes the ceiling of its mode count and refuses
        one level more, before it allocates anything of that size."""
        ceiling = fock.MAX_CUTOFF[modes]
        assert vacuum_state(ceiling, modes).cutoff == ceiling
        zeros = [0] * modes
        label = HamiltonianLabel.TWO_MODE_STABLE if modes == 2 \
            else HamiltonianLabel.SINGLE_MODE_STABLE
        message = rf"cutoff {ceiling + 1} outside \[1, {ceiling}\]"
        for build in (lambda c: vacuum_state(c, modes),
                      lambda c: number_state(c, *zeros),
                      lambda c: coherent_state(c, [0.5] * modes),
                      lambda c: basis_index(c, *zeros),
                      lambda c: fock.FockState(modes, c, np.ones(1)),
                      lambda c: build_hamiltonian(label, 1.0, c)):
            with pytest.raises(ValueError, match=message):
                build(ceiling + 1)
        if modes == 2:
            with pytest.raises(ValueError, match="cutoff"):
                zeno_threshold_scan(0.1, [0.5], cutoff=ceiling + 1)

    def test_coherent_state_cutoff_guard(self):
        with pytest.raises(ValueError):
            coherent_state(3, [2.5])

    def test_leakage_monitor(self):
        """Leakage is the population with an occupation above 0.9 * cutoff."""
        schedule = DriveSchedule.from_products(0.0, 0.0, periods=1)
        assert propagate(vacuum_state(10, 2), schedule).leakage[0] == 0.0
        amps = np.zeros(121, dtype=complex)
        amps[basis_index(10, 0, 0)] = math.sqrt(0.75 - 4e-9)
        amps[basis_index(10, 9, 9)] = 0.5  # level 9 is not above 0.9 * 10
        amps[basis_index(10, 10, 0)] = amps[basis_index(10, 3, 10)] = math.sqrt(2e-9)
        traj = propagate(fock.FockState(2, 10, amps), schedule)
        np.testing.assert_allclose(traj.leakage, 4e-9, rtol=1e-12)
        assert traj.truncation_safe
        for top in (number_state(10, 10, 0), number_state(10, 0, 10), number_state(10, 10)):
            with pytest.raises(ValueError, match="initial state is not cutoff-safe"):
                propagate(top, schedule)


class TestPropagate:
    def test_vacuum_fixed_under_exchange_only(self):
        s = DriveSchedule.from_products(0.0, 1.2, periods=10)
        traj = propagate(vacuum_state(8, 2), s)
        np.testing.assert_allclose(traj.n_total, 0.0, atol=1e-12)
        assert traj.status == "ok"
        assert traj.truncation_safe
        assert abs(recorded_amplitudes(vacuum_state(8, 2), s)[10, 0]) == pytest.approx(1.0)

    def test_two_mode_squeezing_closed_form(self):
        g, n = 0.05, 5
        s = DriveSchedule.from_products(g, 0.0, periods=n)
        traj = propagate(vacuum_state(30, 2), s)
        for k in range(n + 1):
            assert traj.n_per_mode[k, 0] == pytest.approx(
                math.sinh(k * g) ** 2, abs=1e-8)
            assert traj.n_per_mode[k, 1] == pytest.approx(
                math.sinh(k * g) ** 2, abs=1e-8)

    def test_single_photon_partial_swap(self):
        """One-photon sector reduces to a two-level rotation by omega*tau2."""
        s = DriveSchedule.from_products(0.0, math.pi / 4, periods=1)
        amplitudes = recorded_amplitudes(number_state(6, 1, 0), s)
        survival = abs(amplitudes[1, basis_index(6, 1, 0)]) ** 2
        assert survival == pytest.approx(0.5, abs=1e-12)

    def test_photon_sum_conserved_during_exchange(self):
        s = DriveSchedule.from_products(0.0, 0.9, periods=40)
        state = number_state(12, 2, 1)
        traj = propagate(state, s)
        np.testing.assert_allclose(traj.n_total, 3.0, atol=1e-10)

    def test_norm_drift_is_logged_and_tiny(self):
        s = DriveSchedule.from_products(0.15, 0.8, periods=25)
        traj = propagate(vacuum_state(25, 2), s)
        assert traj.norm_drift.shape == (26,)
        assert np.abs(traj.norm_drift).max() < 1e-12

    @pytest.mark.parametrize("cap", [math.nan, -1.0, 0.0])
    def test_invalid_photon_cap_rejected(self, cap):
        s = DriveSchedule.from_products(0.0, 0.5, periods=3)
        with pytest.raises(ValueError):
            propagate(vacuum_state(8, 2), s, photon_cap=cap)

    def test_unsafe_initial_state_rejected(self):
        s = DriveSchedule.from_products(0.1, 0.1, periods=1)
        with pytest.raises(ValueError):
            propagate(number_state(8, 8, 0), s)

    def test_leakage_marks_run_unsafe(self):
        s = DriveSchedule.from_products(0.4, 0.0, periods=40)
        traj = propagate(vacuum_state(12, 2), s)
        assert traj.status == "truncation-unsafe"
        assert traj.first_unsafe_period is not None
        assert not traj.truncation_safe

    def test_photon_cap_short_circuits(self):
        s = DriveSchedule.from_products(0.3, 0.0, periods=60)
        traj = propagate(vacuum_state(40, 2), s, photon_cap=1.0)
        assert traj.status in ("photon-cap", "truncation-unsafe")
        assert traj.n_total[-1] > 1.0
        assert traj.periods_completed < 60

    def test_idle_drive_keeps_the_state(self):
        """With both angles zero each segment is the identity."""
        state = number_state(6, 2, 1)
        s = DriveSchedule.from_products(0.0, 0.0, periods=3)
        np.testing.assert_array_equal(recorded_amplitudes(state, s)[3], state.amplitudes)
        np.testing.assert_array_equal(propagate(state, s).n_total, 3.0)

    def test_integral_float_periods(self):
        s = DriveSchedule.from_products(0.05, 1.0, periods=3.0)
        assert s.periods == 3 and isinstance(s.periods, int)
        traj = propagate(vacuum_state(20, 2), s)
        assert traj.periods_completed == 3
        assert len(traj) == 4

    def test_single_mode_squeezing_closed_form(self):
        g, n = 0.06, 5
        s = DriveSchedule.from_products(g, 0.0, periods=n)
        traj = propagate(vacuum_state(30, 1), s)
        for k in range(n + 1):
            assert traj.n_per_mode[k, 0] == pytest.approx(
                math.sinh(k * g) ** 2, abs=1e-8)


class TestParitySector:
    """Number states are propagated on the rows of their photon-parity
    sector only; mixed-parity states on every row."""

    @settings(max_examples=40, deadline=None)
    @given(mode_count=st.sampled_from([1, 2]),
           cutoff=st.integers(2, 12),
           gamma_tau1=st.floats(0.0, 1.0),
           omega_tau2=st.floats(0.0, math.pi),
           periods=st.integers(1, 8),
           data=st.data())
    def test_number_state_matches_dense_products(self, mode_count, cutoff, gamma_tau1,
                                                 omega_tau2, periods, data):
        # levels above 0.9 * cutoff count as leakage, which the start may not have
        occupation = st.integers(0, int(fock.HIGH_LEVEL_FRACTION * cutoff))
        occupations = data.draw(st.tuples(*[occupation] * mode_count))
        state = number_state(cutoff, *occupations)
        schedule = DriveSchedule.from_products(gamma_tau1, omega_tau2, periods=periods)
        _, amplitudes = assert_matches_dense_products(state, schedule)
        outside = basis_parity(cutoff, mode_count) != sum(occupations) % 2
        assert not amplitudes[:, outside].any()

    @settings(max_examples=20, deadline=None)
    @given(mode_count=st.sampled_from([1, 2]),
           cutoff=st.integers(8, 12),
           alpha=st.complex_numbers(min_magnitude=0.05, max_magnitude=0.5),
           gamma_tau1=st.floats(0.0, 1.0),
           omega_tau2=st.floats(0.0, math.pi),
           periods=st.integers(1, 8))
    def test_coherent_state_matches_dense_products(self, mode_count, cutoff, alpha,
                                                   gamma_tau1, omega_tau2, periods):
        state = coherent_state(cutoff, [alpha] * mode_count)
        parity = basis_parity(cutoff, mode_count)
        assert state.amplitudes[parity == 0].any() and state.amplitudes[parity == 1].any()
        schedule = DriveSchedule.from_products(gamma_tau1, omega_tau2, periods=periods)
        assert_matches_dense_products(state, schedule)

    @settings(max_examples=25, deadline=None)
    @SCAN_CASES
    @example(gamma_tau1=1 / 3, grid=[0.0, 0.0, 0.0, 1.0, 2.0382759550002842, 0.5],
             periods=38, cutoff=20)
    def test_scan_equals_full_space_scan(self, gamma_tau1, grid, periods, cutoff):
        """The parity sector alone (the swap sector switched off) against the
        full space.  In the example the point at 2.038 ends near vacuum, at
        n = 9.6e-7, where the two paths differ by 1.2e-12 relative."""
        sector_key = fock._sector_key
        assert_scan_matches_full_space(gamma_tau1, grid, periods, cutoff,
                                       lambda *args: (sector_key(*args)[0], False))


class TestSwapSector:
    """Two-mode inputs of even photon parity equal to their own swap
    (psi[n_a, n_b] == psi[n_b, n_a]) are propagated on the n_a >= n_b half of
    their sector, in the orthonormal swap-symmetric basis; every other input,
    swap-symmetric ones of odd or mixed parity included, on the full
    sector."""

    @pytest.mark.parametrize("state", [
        vacuum_state(8, 2), number_state(8, 2, 2), number_state(8, 3, 3)],
        ids=["vacuum", "2,2", "3,3"])
    def test_symmetric_input_takes_swap_sector(self, state):
        columns = state.amplitudes[:, None]
        assert fock._sector_key(columns, 2, state.cutoff)[1] is True
        schedule = DriveSchedule.from_products(0.2, 1.1, periods=6)
        traj, amplitudes = assert_matches_dense_products(state, schedule)
        np.testing.assert_array_equal(traj.n_per_mode[:, 0], traj.n_per_mode[:, 1])
        grids = amplitudes.reshape(-1, state.cutoff + 1, state.cutoff + 1)
        np.testing.assert_array_equal(grids, grids.transpose(0, 2, 1))

    @pytest.mark.parametrize("state", [
        number_state(8, 1, 0), number_state(8, 2, 3),
        coherent_state(10, [0.3, 0.2]), coherent_state(10, [0.3, 0.3j]),
        fock.FockState(2, 8, np.eye(81)[basis_index(8, 1, 0)]
                       + np.eye(81)[basis_index(8, 0, 1)]),
        coherent_state(10, [0.4, 0.4]), coherent_state(10, [0.3 + 0.1j] * 2)],
        ids=["1,0", "2,3", "coherent-0.3-0.2", "coherent-0.3-0.3j", "odd-swap",
             "coherent-equal", "coherent-equal-complex"])
    def test_asymmetric_input_keeps_full_sector(self, state):
        """Inputs that are not their own swap, and swap-symmetric inputs of
        odd or mixed parity, which run on their whole parity sector."""
        columns = state.amplitudes[:, None]
        parity = basis_parity(state.cutoff, 2)[state.amplitudes != 0]
        whole = int(parity[0]) if (parity == parity[0]).all() else None
        assert fock._sector_key(columns, 2, state.cutoff) == (whole, False)
        schedule = DriveSchedule.from_products(0.2, 1.1, periods=6)
        assert_matches_dense_products(state, schedule)

    def test_one_asymmetric_column_keeps_full_sector(self):
        vacuum = vacuum_state(6, 2).amplitudes
        columns = np.stack([vacuum, number_state(6, 1, 0).amplitudes], axis=1)
        assert fock._sector_key(columns, 2, 6) == (None, False)
        assert fock._sector_key(columns[:, :1], 2, 6) == (0, True)
        assert fock._sector_key(vacuum_state(6, 1).amplitudes[:, None], 1, 6) == (0, False)

    @settings(max_examples=25, deadline=None)
    @SCAN_CASES
    def test_scan_equals_full_space_scan(self, gamma_tau1, grid, periods, cutoff):
        """Both reductions on, as every scan runs, against the full space."""
        assert_scan_matches_full_space(gamma_tau1, grid, periods, cutoff,
                                       fock._sector_key)


class TestSector:
    """One cached sector per (cutoff, mode count, key) holds all that a
    propagation reads, the period-0 observables included."""

    def test_propagate_builds_only_its_own_sector(self):
        fock._sector.cache_clear()
        propagate(vacuum_state(8, 2), DriveSchedule.from_products(0.2, 1.1, periods=3))
        assert fock._sector.cache_info().currsize == 1
        assert fock._sector.cache_info().hits == 0

    @pytest.mark.parametrize("cutoff", [1, 7, 60])
    def test_cached_arrays_are_read_only(self, cutoff):
        """``lru_cache`` shares a sector across propagations, so every array
        reachable from it is read-only: rows, ``to_gauge``, observables, both
        packings, each bucket's basis ``Q`` and the partner index."""
        def arrays(obj, path):
            if isinstance(obj, np.ndarray):
                yield path, obj
            elif dataclasses.is_dataclass(obj):
                for field in dataclasses.fields(obj):
                    yield from arrays(getattr(obj, field.name), f"{path}.{field.name}")
            elif isinstance(obj, tuple):
                for k, item in enumerate(obj):
                    yield from arrays(item, f"{path}[{k}]")

        for modes in (1, 2):
            for key in sectors(modes):
                sector = fock._sector(cutoff, modes, key)
                found = dict(arrays(sector, "sector"))
                expected = {"sector.rows", "sector.to_gauge", "sector.observables",
                            "sector.to_amplify", "sector.between"}
                for packing in ("amplify", "exchange"):
                    expected |= {f"sector.{packing}.{name}"
                                 for name in ("gather", "unpack", "weights", "partner")}
                    expected |= {f"sector.{packing}.buckets[{k}][2]"
                                 for k in range(len(getattr(sector, packing).buckets))}
                assert found.keys() == expected
                writable = [path for path, arr in found.items() if arr.flags.writeable]
                assert not writable, (key, writable)

    def test_initial_record_of_swap_superposition_matches_full_space(self):
        """The period-0 photons and leakage of a swap-symmetric superposition,
        read on the folded coordinates of its swap sector, equal the
        full-space reference to 1e-15."""
        amps = np.zeros(81, dtype=complex)
        amps[basis_index(8, 2, 0)] = amps[basis_index(8, 0, 2)] = 1.0
        amps[basis_index(8, 1, 1)] = 0.3
        amps[basis_index(8, 8, 0)] = amps[basis_index(8, 0, 8)] = 3e-5  # above 0.9 * 8
        state = fock.FockState(2, 8, amps)
        assert fock._sector_key(state.amplitudes[:, None], 2, 8) == (0, True)
        idle = DriveSchedule.from_products(0.0, 0.0, periods=1)
        traj = propagate(state, idle)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fock, "_sector_key", lambda *args: FULL_SPACE)
            full = propagate(state, idle)
        assert full.leakage[0] > 0.0
        np.testing.assert_allclose(traj.n_per_mode[0], full.n_per_mode[0], rtol=0, atol=1e-15)
        np.testing.assert_allclose(traj.leakage[0], full.leakage[0], rtol=0, atol=1e-15)


class TestGaussianAgreement:
    def test_photon_numbers_match_on_random_schedules(self):
        """Fock oracle vs symplectic simulator, truncation-safe periods only."""
        rng = np.random.default_rng(42)
        compared = 0
        for _ in range(8):
            g = rng.uniform(0.02, 0.2)
            w = rng.uniform(0.0, math.pi)
            n = int(rng.integers(5, 25))
            s = DriveSchedule.from_products(g, w, periods=n)
            cutoff = min(45, default_cutoff(g, n))
            ftraj = propagate(vacuum_state(cutoff, 2), s)
            gtraj = gaussian.evolve(gaussian.vacuum_state(2), s)
            safe = (np.arange(len(ftraj)) < ftraj.first_unsafe_period) \
                if ftraj.first_unsafe_period is not None \
                else np.ones(len(ftraj), dtype=bool)
            steps = min(len(ftraj), gtraj.photon_totals.size)
            for k in range(steps):
                if not safe[k]:
                    continue
                assert abs(ftraj.n_per_mode[k, 0]
                           - gtraj.photons_per_mode[k, 0]) < 1e-6
                compared += 1
        assert compared > 40

    def test_two_mode_squeezed_vacuum_reference_point(self):
        # total squeeze gamma*t = 0.5 reached in 10 periods
        s = DriveSchedule.from_products(0.05, 0.0, periods=10)
        traj = propagate(vacuum_state(40, 2), s)
        assert traj.truncation_safe
        assert traj.n_per_mode[-1, 0] == pytest.approx(math.sinh(0.5) ** 2,
                                                       rel=1e-7)

    def test_quadrature_means_match_for_displaced_input(self):
        """Means of a displaced state evolve with the same symplectic map.

        Checks the sign conventions of the Gaussian simulator against the
        Hamiltonian dynamics directly, which photon numbers alone (being
        quadratic) could not pin down.
        """
        cutoff = 24
        alphas = [0.6, -0.3 + 0.2j]
        s = DriveSchedule.from_products(0.15, 0.7, periods=4)

        fstate = coherent_state(cutoff, alphas)
        assert propagate(fstate, s).truncation_safe
        amplitudes = recorded_amplitudes(fstate, s)

        mode_a, mode_b = dense_ladder(cutoff)
        quad_ops = []
        for m in (mode_a, mode_b):
            quad_ops.append((m + m.T) / math.sqrt(2))          # x
            quad_ops.append((m - m.T) / (1j * math.sqrt(2)))   # p = -i(a - a+)/sqrt2
        quad_ops = [quad_ops[0], quad_ops[1], quad_ops[2], quad_ops[3]]

        gstates = [gaussian.coherent_state(alphas)]
        gaussian._step_periods(gstates[0], s, gaussian.PHOTON_CAP,
                               lambda means, covs, per_mode: gstates.extend(
                                   map(gaussian.GaussianState, means, covs)))
        assert len(gstates) == len(amplitudes) == 5
        for psi, gstate in zip(amplitudes, gstates):
            means_fock = [np.real(psi.conj() @ (op @ psi)) for op in quad_ops]
            np.testing.assert_allclose(means_fock, gstate.mean, atol=1e-7)

    def test_single_mode_grows_iff_two_mode_criterion_unstable(self):
        for w, expect_growth in [(0.05, True), (0.8, False)]:
            s = DriveSchedule.from_products(0.15, w, periods=60)
            report = classify_schedule(s)
            assert abs(report.half_trace - 1.0) > 1e-3
            assert (report.classification is Classification.UNSTABLE) == expect_growth
            traj = propagate(vacuum_state(40, 1), s, photon_cap=2.0)
            if expect_growth:
                assert traj.n_total[-1] > 2.0
                assert traj.periods_completed < 60
            else:
                assert traj.status == "ok"
                assert traj.n_total.max() < 2.0


class TestZenoScan:
    def test_reference_points(self):
        points = zeno_threshold_scan(0.2, [0.05, 1.0], periods=60)
        assert points[0].outcome == "growth"
        assert points[1].outcome == "bounded"

    def test_no_pump_is_bounded_everywhere(self):
        points = zeno_threshold_scan(0.0, np.linspace(0.0, math.pi, 7), periods=30)
        assert all(p.outcome == "bounded" for p in points)
        assert all(p.n_final < 1e-12 for p in points)

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_transition_brackets_analytic_boundary(self, side):
        g = 0.2
        boundary = math.acos(1.0 / math.cosh(g))
        if side == "upper":
            boundary = math.pi - boundary
        grid = np.sort(boundary + np.array([-0.5, -0.3, -0.1, 0.1, 0.3, 0.5]))
        grid = grid[(grid >= 0.0) & (grid <= math.pi)]
        points = zeno_threshold_scan(g, grid)
        outcomes = [p.outcome for p in points]
        assert "indeterminate" not in outcomes
        growth = [p.omega_tau2 for p in points if p.outcome == "growth"]
        bounded = [p.omega_tau2 for p in points if p.outcome == "bounded"]
        # instability on the outer side of each boundary
        if side == "lower":
            low, high = max(growth), min(bounded)
        else:
            low, high = max(bounded), min(growth)
        assert low < boundary < high
        assert high - low == pytest.approx(0.2, abs=1e-9)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            zeno_threshold_scan(0.1, [4.0])
        with pytest.raises(ValueError):
            zeno_threshold_scan(0.1, [0.5], periods=500)

    @pytest.mark.parametrize("kwargs", [
        {"gamma_tau1": math.nan},
        {"gamma_tau1": math.inf},
        {"gamma_tau1": -0.1},
        {"grid": [0.5, math.nan]},
        {"grid": [math.inf]},
        {"growth_factor": 0.0},
        {"growth_factor": -2.0},
        {"growth_factor": math.nan},
        {"periods": 150.5},
        {"periods": True},
    ])
    def test_rejects_invalid_input(self, kwargs):
        args = {"gamma_tau1": 0.2, "grid": [0.5], "periods": 5, "cutoff": 20}
        args.update(kwargs)
        with pytest.raises(ValueError):
            zeno_threshold_scan(args.pop("gamma_tau1"), args.pop("grid"), **args)

    def test_integral_float_periods(self):
        assert zeno_threshold_scan(0.2, [0.5], periods=3.0, cutoff=20) == \
            zeno_threshold_scan(0.2, [0.5], periods=3, cutoff=20)

    def test_empty_grid(self):
        assert zeno_threshold_scan(0.2, [], periods=5, cutoff=20) == ()

    def test_batched_scan_equals_pointwise_scans(self):
        """One call over the grid equals one call per point, on a grid that
        mixes growth, indeterminate and bounded outcomes."""
        g = 0.1
        b = math.acos(1.0 / math.cosh(g))
        grid = [0.0, b - 0.05, b + 0.02, 1.0, math.pi - b - 0.02, math.pi - b + 0.05]
        kwargs = {"periods": 60, "cutoff": 20}
        together = zeno_threshold_scan(g, grid, **kwargs)
        assert {p.outcome for p in together} == {"growth", "indeterminate", "bounded"}
        for point, theta in zip(together, grid):
            (alone,) = zeno_threshold_scan(g, [theta], **kwargs)
            assert (point.omega_tau2, point.outcome, point.periods_run) == \
                (alone.omega_tau2, alone.outcome, alone.periods_run)
            assert point.n_final == pytest.approx(alone.n_final, rel=1e-12, abs=0)
