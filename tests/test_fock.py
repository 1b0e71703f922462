"""Truncated number-basis oracle: Hamiltonians, unitaries, propagation."""

import itertools
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


def assert_scan_matches_full_space(gamma_tau1, grid, periods, cutoff, sector_key):
    """The scan with ``sector_key`` choosing the sector equals the kept slow
    reference, the same scan with parity and swap both switched off so that
    every basis row is propagated: same verdicts and periods, and photon
    numbers within 1e-12 * max(1, n).  The bound is absolute below one
    photon: the paths sum in different orders, and a point that ends near
    vacuum carries the rounding of amplitudes of order 1."""
    kwargs = {"periods": periods, "cutoff": cutoff}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fock, "_sector_key", sector_key)
        sector = zeno_threshold_scan(gamma_tau1, grid, **kwargs)
        patch.setattr(fock, "_sector_key", lambda *args: FULL_SPACE)
        full = zeno_threshold_scan(gamma_tau1, grid, **kwargs)
    for point, reference in zip(sector, full, strict=True):
        assert (point.omega_tau2, point.outcome, point.periods_run) == \
            (reference.omega_tau2, reference.outcome, reference.periods_run)
        assert abs(point.n_final - reference.n_final) <= 1e-12 * max(1.0, reference.n_final)


def recorded_amplitudes(state, schedule):
    """The amplitudes of ``state`` after each period, ``(periods + 1, dim)``.

    They are recorded through the engine's stepping loop, which holds them as
    coordinates on the sector basis, and unfolded onto the full basis: zero
    outside the sector, and in a swap sector divided by the sqrt2 of the
    symmetric basis off the diagonal and copied onto both mirror rows.
    """
    cutoff, modes = state.cutoff, state.mode_count
    columns = state.amplitudes[:, None]
    key = fock._sector_key(columns, modes, cutoff)
    rows = mirror = fock._sector_rows(cutoff, modes, key)
    scale = 1.0
    if key[1]:
        n_a, n_b = np.divmod(rows, cutoff + 1)
        mirror = n_b * (cutoff + 1) + n_a
        scale = np.where(n_a == n_b, 1.0, math.sqrt(2.0))
    amplitudes = [state.amplitudes]

    def settle(n, active, psi, norm, per_mode, leak):
        full = np.zeros(state.dim, dtype=complex)
        full[mirror] = full[rows] = psi[:, 0] / scale
        amplitudes.append(full)
        return np.zeros(1, dtype=bool)

    fock._step_periods(columns, modes, cutoff, schedule.gamma_tau1,
                       schedule.omega_tau2, schedule.periods, settle)
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
        the two-mode labels also on the swap-symmetric basis of each sector,
        fed random symmetric columns."""
        rng = np.random.default_rng(6)
        cutoff = 7
        angles = np.array([0.4, 1.7, 2.3, math.pi])
        for label in HamiltonianLabel:
            h = build_hamiltonian(label, 1.0, cutoff)
            dim = h.shape[0]
            parity = basis_parity(cutoff, label.mode_count)
            n_a, n_b = np.divmod(np.arange(dim), cutoff + 1)
            for sector, swap in itertools.product((None, 0, 1),
                                                  (False, True)[:label.mode_count]):
                key = (sector, swap)
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
                    fock._sector_rows(cutoff, label.mode_count, key), kept)
                # coordinates on the orthonormal sector basis keep the norm
                coords = psi[kept] * scale[kept, None]
                np.testing.assert_allclose(np.linalg.norm(coords, axis=0), 1.0, rtol=1e-14)
                one = fock._Segment(label, cutoff, 0.6, key)(coords[:, :1])
                full = segment_unitary(h, 0.6) @ psi[:, :1]
                np.testing.assert_allclose(one, full[kept] * scale[kept, None], atol=1e-12)
                assert np.abs(np.delete(full, rows, axis=0)).max(initial=0.0) < 1e-12
                many = fock._Segment(label, cutoff, angles, key)(coords)
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
        via_blocks = fock._Segment(label, cutoff, angle, (None, False))(psi[:, None])[:, 0]
        np.testing.assert_allclose(via_blocks, segment_unitary(h, angle) @ psi,
                                   atol=1e-12)


class TestPacking:
    """Each chain's dense eigendecomposition in the packing, checked against
    scipy's tridiagonal solver, the routine it replaced."""

    @pytest.mark.parametrize("cutoff", [1, 2, 30, 60])
    @pytest.mark.parametrize("label, swap", [
        (HamiltonianLabel.TWO_MODE_UNSTABLE, False),
        (HamiltonianLabel.TWO_MODE_UNSTABLE, True),
        (HamiltonianLabel.TWO_MODE_STABLE, False),
        (HamiltonianLabel.TWO_MODE_STABLE, True),
        (HamiltonianLabel.SINGLE_MODE_UNSTABLE, False),
    ], ids=["amplify", "amplify-swap", "exchange", "exchange-swap", "single-amplify"])
    def test_chains_match_tridiagonal_reference(self, label, swap, cutoff):
        chains = {tuple(idx): (diag, off) for idx, diag, off in fock._chains(label, cutoff, swap)}
        for parity in (None, 0, 1):
            key = (parity, swap)
            sector = fock._sector_rows(cutoff, label.mode_count, key)
            packing = fock._packed_blocks(label, cutoff, key)
            used = np.zeros(packing.gather.size, dtype=bool)
            used[packing.unpack] = True
            seen = []
            for start, stop, vectors in packing.buckets:
                length = vectors.shape[1]
                rows = sector[packing.gather[start:stop]].reshape(-1, length)
                weights = packing.weights[start:stop].reshape(-1, length)
                for k, m in enumerate(used[start:stop].reshape(-1, length).sum(axis=1)):
                    seen.append(tuple(rows[k, :m]))
                    diag, off = chains[seen[-1]]
                    chain = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
                    scale = max(np.abs(chain).max(), 1.0)
                    np.testing.assert_allclose(weights[k, :m], eigh_tridiagonal(diag, off)[0],
                                               rtol=1e-12, atol=1e-12 * scale)
                    assert not weights[k, m:].any()
                    v = vectors[k]
                    assert not v[m:].any() and not v[:, m:].any()
                    np.testing.assert_allclose(v[:m, :m].T @ v[:m, :m], np.eye(m), atol=1e-12)
                    np.testing.assert_allclose((v[:m, :m] * weights[k, :m]) @ v[:m, :m].T,
                                               chain, rtol=0, atol=1e-12 * scale)
            # every chain of the sector, each once
            in_sector = set(sector.tolist())
            assert sorted(seen) == sorted(idx for idx in chains if idx[0] in in_sector)
            assert used.sum() == sector.size


class TestSegmentPaths:
    """The unitary per bucket of one angle on one column, and the stepping
    loop's composite permutation, against the kept per-column path."""

    @pytest.mark.parametrize("cutoff", [1, 2, 7, 30, 60])
    def test_one_angle_equals_per_column_path(self, cutoff):
        """A one-angle segment built for one column (a unitary per bucket)
        equals the per-column path fed that angle in every column, on every
        sector of every label."""
        rng = np.random.default_rng(cutoff)
        for label in HamiltonianLabel:
            for key in itertools.product((None, 0, 1), (False, True)[:label.mode_count]):
                rows = fock._sector_rows(cutoff, label.mode_count, key).size
                coords = rng.standard_normal((rows, 3)) + 1j * rng.standard_normal((rows, 3))
                coords /= np.linalg.norm(coords, axis=0)
                for angle in (0.6, 2.3):
                    one = fock._Segment(label, cutoff, angle, key)
                    assert (one.unitaries is None) == (not one.packing.buckets)
                    per_column = fock._Segment(label, cutoff, np.full(3, angle), key, 3)
                    assert per_column.unitaries is None
                    expected = per_column(coords)
                    for j in range(3):
                        np.testing.assert_allclose(one(coords[:, j:j + 1])[:, 0],
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
        """One period of the stepping loop, which carries the columns from
        the amplifying packing to the exchange packing by one composite
        permutation, equals the two segments applied one after the other,
        each unpacking to and gathering from the sector basis."""
        cutoff, modes = state.cutoff, state.mode_count
        k = np.size(omega_tau2)
        columns = np.repeat(state.amplitudes[:, None], k, axis=1)
        key = fock._sector_key(columns, modes, cutoff)
        label_u, label_s = fock._segment_labels(modes)
        amplify = fock._Segment(label_u, cutoff, 0.3, key, k)
        exchange = fock._Segment(label_s, cutoff, omega_tau2, key, k)
        # the composite index on packed input, padding rows included
        packed = np.arange(amplify.packing.gather.size)
        np.testing.assert_array_equal(
            packed[amplify.packing.unpack[exchange.packing.gather]],
            packed[amplify.packing.unpack][exchange.packing.gather])

        recorded = []

        def settle(n, active, psi, norm, per_mode, leak):
            recorded.append(psi * norm)
            return np.ones(active.size, dtype=bool)

        fock._step_periods(columns, modes, cutoff, 0.3, omega_tau2, 5, settle)
        sector = fock._sector_rows(cutoff, modes, key)
        psi = columns[sector]
        if key[1]:
            n_a, n_b = np.divmod(sector, cutoff + 1)
            psi[n_a != n_b] *= math.sqrt(2.0)
        assert len(recorded) == 1
        np.testing.assert_allclose(recorded[0], exchange(amplify(psi)), rtol=0, atol=1e-14)


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
    """Two-mode inputs equal to their own swap (psi[n_a, n_b] == psi[n_b, n_a])
    are propagated on the n_a >= n_b half of their sector, in the orthonormal
    swap-symmetric basis; every other input on the full sector."""

    @pytest.mark.parametrize("state", [
        vacuum_state(8, 2), number_state(8, 2, 2), number_state(8, 3, 3),
        coherent_state(10, [0.4, 0.4]), coherent_state(10, [0.3 + 0.1j] * 2)],
        ids=["vacuum", "2,2", "3,3", "coherent-equal", "coherent-equal-complex"])
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
        coherent_state(10, [0.3, 0.2]), coherent_state(10, [0.3, 0.3j])],
        ids=["1,0", "2,3", "coherent-0.3-0.2", "coherent-0.3-0.3j"])
    def test_asymmetric_input_keeps_full_sector(self, state):
        columns = state.amplitudes[:, None]
        assert fock._sector_key(columns, 2, state.cutoff)[1] is False
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
