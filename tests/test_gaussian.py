"""Gaussian-state simulator: basis change, symplectic maps, evolution."""

import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from zenofloquet import floquet, gaussian
from zenofloquet.floquet import (
    Classification,
    DriveSchedule,
    classify_schedule,
    classify_stack,
    minus_mode_monodromy,
    monodromy,
    pair_map,
)
from zenofloquet.gaussian import (
    GaussianState,
    InvalidStateError,
    PM_BASIS,
    coherent_state,
    evolve,
    pm_pair_maps,
    squeezed_vacuum_state,
    symplectic_eigenvalues,
    symplectic_form,
    two_mode_period_symplectic,
    vacuum_state,
)


def random_schedules(count, seed, max_product=3.0, periods=1):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        g, w = rng.uniform(0.0, max_product, size=2)
        yield DriveSchedule.from_products(g, w, periods=periods)


def pm_blocks(schedule):
    return pm_pair_maps(schedule.gamma_tau1, schedule.omega_tau2)


def single_mode_map(schedule):
    """One-period map of the single-mode drive: the minus block."""
    return pm_blocks(schedule)[1]


def segment_symplectics(schedule, mode_count=2):
    """Per-segment symplectic maps ``(S_unstable, S_stable)`` in the mode basis."""
    g, w = schedule.gamma_tau1, schedule.omega_tau2
    if mode_count == 1:
        return pair_map(-g, 0.0), pair_map(0.0, w)
    return (gaussian._mode_basis(pair_map(g, 0.0), pair_map(-g, 0.0)),
            gaussian._mode_basis(pair_map(0.0, -w), pair_map(0.0, w)))


def loop_evolve(state, schedule, *, photon_cap=gaussian.PHOTON_CAP):
    """Reference: the per-period stepping loop that :func:`evolve` replaced.

    Steps the state through the 4x4 period map (the minus block for one mode)
    one period at a time and returns ``(photons_per_mode, photon_totals,
    status, periods_completed, means, covariances)``.
    """
    if state.mode_count == 2:
        period_map = two_mode_period_symplectic(schedule)
    else:
        period_map = single_mode_map(schedule)
    mean = state.mean.copy()
    cov = state.covariance.copy()
    means, covs = [mean], [cov]
    per_mode = gaussian._photons_per_mode(mean, cov)
    per_mode_rec = [per_mode]
    totals = [float(per_mode.sum())]
    status = "ok"
    periods_completed = 0
    for n in range(1, schedule.periods + 1):
        mean = period_map @ mean
        cov = period_map @ cov @ period_map.T
        cov = (cov + cov.T) / 2.0
        per_mode = gaussian._photons_per_mode(mean, cov)
        per_mode_rec.append(per_mode)
        totals.append(float(per_mode.sum()))
        means.append(mean)
        covs.append(cov)
        periods_completed = n
        if not (totals[-1] <= photon_cap and math.isfinite(totals[-1])):
            status = "diverged"
            break
    return (np.array(per_mode_rec), np.array(totals), status,
            periods_completed, np.array(means), np.array(covs))


def evolve_with_states(state, schedule, *, photon_cap=gaussian.PHOTON_CAP):
    """``(trajectory, means, covariances)``: :func:`evolve`'s trajectory and
    the mean and covariance of each of its samples.

    The samples are recorded through the engine's stepping loop; each
    covariance must equal its transpose, and the trajectory's photon numbers
    must equal the samples', bit for bit.
    """
    means, covs = [state.mean[None]], [state.covariance[None]]

    def settle(period_means, period_covs, per_mode):
        bits = period_covs.view(np.int64)
        assert (bits == bits.swapaxes(1, 2)).all()
        means.append(period_means)
        covs.append(period_covs)

    status = gaussian._step_periods(state, schedule, photon_cap, settle)
    means, covs = np.concatenate(means), np.concatenate(covs)
    traj = evolve(state, schedule, photon_cap=photon_cap)
    assert (traj.status, traj.periods_completed) == (status, len(means) - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        photons = gaussian._photons_per_mode(means, covs)
    np.testing.assert_array_equal(traj.photons_per_mode, photons)
    return traj, means, covs


def valid_state_margins(means, covs):
    """Assert that every ``(means[i], covs[i])`` passes the checks of the
    :class:`GaussianState` constructor, and return each state's smallest
    symplectic eigenvalue.

    The checks are the constructor's, at its tolerances: finite entries, a
    covariance symmetric to 1e-12 of its scale ``max(1, |cov|_max)``, and a
    smallest symplectic eigenvalue of at least ``0.5 - max(1e-10, 4e-15 *
    scale^2)``.  The spectra of the whole stack come from one stacked
    eigensolve of ``J @ cov``, as :func:`symplectic_eigenvalues` takes each.
    """
    assert means.ndim == 2 and means.shape[1] in (2, 4)
    assert covs.shape == means.shape + means.shape[1:]
    assert np.isfinite(means).all() and np.isfinite(covs).all()
    transposed = covs.transpose(0, 2, 1)
    scale = np.maximum(1.0, np.abs(covs).max(axis=(1, 2)))
    assert (np.abs(covs - transposed).max(axis=(1, 2)) <= 1e-12 * scale).all()
    form = symplectic_form(means.shape[1] // 2)
    nu_min = np.abs(np.linalg.eigvals(form @ ((covs + transposed) / 2.0))).min(axis=1)
    assert (nu_min >= 0.5 - np.maximum(1e-10, 4e-15 * scale * scale)).all()
    return nu_min


# the overflow to inf or nan of a diverged point is expected, as in the library
@np.errstate(over="ignore", invalid="ignore")
def two_pair_vacuum_diverges(gamma_tau1, omega_tau2, periods, photon_cap):
    """Reference: :func:`gaussian.vacuum_diverges` as it evolved both pairs.

    The plus and minus powers of every grid point are multiplied together,
    and the photon number is ``(|P^n|_F^2 + |M^n|_F^2) / 4 - 1``, tested
    against the cap by the one cap test of every engine.
    """
    plus, minus = pm_pair_maps(gamma_tau1, omega_tau2)
    diverged = np.zeros(plus.shape[:-2], dtype=bool)
    if not periods:
        return diverged

    def check(mats):
        fro2 = sum(e * e for e in mats).sum(axis=0)
        diverged[floquet._past_cap(fro2 / 4.0 - 1.0, photon_cap)] = True

    step = tuple(np.stack([plus[..., i, j], minus[..., i, j]])
                 for i in (0, 1) for j in (0, 1))
    power = None
    n = 1
    while True:
        check(step)
        if periods & n:
            power = step if power is None else gaussian._mul(step, power)
        if 2 * n > periods:
            break
        step = gaussian._mul(step, step)
        n *= 2
    check(power)
    return diverged


def reference_segment_flows(schedule):
    """Independent oracle: exponentiate the canonical flow Omega_sym @ G.

    The quadratic Hamiltonians in quadrature form are
    ``H_u = gamma (x_a x_b - p_a p_b)`` and ``H_s = omega (x_a x_b + p_a p_b)``
    (ladder algebra done by hand), and a quadratic ``H = xi^T G xi / 2``
    generates ``d xi/dt = Omega_sym @ G @ xi``.
    """
    g_u = np.zeros((4, 4))
    g_u[0, 2] = g_u[2, 0] = schedule.gamma
    g_u[1, 3] = g_u[3, 1] = -schedule.gamma
    g_s = np.zeros((4, 4))
    g_s[0, 2] = g_s[2, 0] = schedule.omega
    g_s[1, 3] = g_s[3, 1] = schedule.omega
    form = symplectic_form(2)
    s_u = expm(schedule.tau1 * form @ g_u)
    s_s = expm(schedule.tau2 * form @ g_s)
    return s_u, s_s


class TestStateConstruction:
    def test_vacuum(self):
        state = vacuum_state(2)
        np.testing.assert_array_equal(state.mean, np.zeros(4))
        np.testing.assert_array_equal(state.covariance, np.eye(4) / 2)
        assert state.mode_count == 2

    def test_asymmetric_covariance_rejected(self):
        cov = np.eye(2) / 2
        cov[0, 1] = 1e-6
        with pytest.raises(InvalidStateError):
            GaussianState(np.zeros(2), cov)

    def test_uncertainty_violation_rejected(self):
        with pytest.raises(InvalidStateError):
            GaussianState(np.zeros(2), 0.2 * np.eye(2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidStateError):
            GaussianState(np.zeros(2), np.eye(4) / 2)

    def test_states_are_immutable(self):
        state = vacuum_state(1)
        with pytest.raises(ValueError):
            state.covariance[0, 0] = 3.0

    def test_covariance_beyond_squared_float_range_constructs(self):
        """The uncertainty tolerance grows like scale^2 and overflows to inf
        past scale ~ 1.3e154, without raising."""
        state = GaussianState(np.zeros(2), np.eye(2) * 1e155)
        assert state.covariance[0, 0] == 1e155
        s = DriveSchedule.from_products(0.5, 0.1, periods=3000)
        traj, means, covs = evolve_with_states(vacuum_state(2), s, photon_cap=1e200)
        assert traj.diverged and traj.periods_completed == 472
        assert GaussianState(means[-1], covs[-1]).covariance.max() > 1e154

    def test_non_finite_state_rejected(self):
        """Checked before the eigensolve, which raised numpy's LinAlgError."""
        with pytest.raises(InvalidStateError, match="finite"):
            GaussianState(np.zeros(2), np.full((2, 2), np.nan))
        with pytest.raises(InvalidStateError, match="finite"):
            GaussianState([0.0, math.inf], np.eye(2) / 2)
        s = DriveSchedule.from_products(0.5, 0.1, periods=3000)
        traj, means, covs = evolve_with_states(vacuum_state(2), s, photon_cap=math.inf)
        assert traj.periods_completed == 727 and traj.photon_totals[-1] == math.inf
        with pytest.raises(InvalidStateError, match="finite"):
            GaussianState(means[-1], covs[-1])
        assert np.isfinite(GaussianState(means[-2], covs[-2]).covariance).all()

    def test_squeezed_vacuum_variances(self):
        r = 0.8
        state = squeezed_vacuum_state(r)
        assert state.covariance[0, 0] == pytest.approx(math.exp(-2 * r) / 2)
        assert state.covariance[1, 1] == pytest.approx(math.exp(2 * r) / 2)
        assert symplectic_eigenvalues(state.covariance).min() == pytest.approx(0.5)

    def test_squeezed_vacuum_rotated(self):
        state = squeezed_vacuum_state(0.5, math.pi)
        # phi = pi swaps the squeezed and stretched quadratures
        assert state.covariance[0, 0] == pytest.approx(math.exp(1.0) / 2)
        assert state.covariance[1, 1] == pytest.approx(math.exp(-1.0) / 2)


def photons(state):
    """Photon number per mode of one state, means included."""
    return gaussian._photons_per_mode(state.mean, state.covariance)


class TestPhotonNumbers:
    def test_vacuum_is_zero(self):
        per_mode = photons(vacuum_state(2))
        np.testing.assert_allclose(per_mode, 0.0, atol=1e-12)
        assert per_mode.sum() == pytest.approx(0.0, abs=1e-12)

    def test_unit_coherent_amplitude(self):
        # mean (sqrt(2), 0) is |alpha| = 1, hence one photon
        assert photons(coherent_state([1.0]))[0] == pytest.approx(1.0)

    def test_two_mode_coherent(self):
        per_mode = photons(coherent_state([1.0 + 1.0j, 2.0j]))
        np.testing.assert_allclose(per_mode, [2.0, 4.0])
        assert per_mode.sum() == pytest.approx(6.0)

    def test_squeezed_vacuum_photons(self):
        r = 0.65
        assert photons(squeezed_vacuum_state(r))[0] == pytest.approx(math.sinh(r) ** 2)


class TestPmBasis:
    def test_orthogonal_and_symplectic(self):
        np.testing.assert_allclose(PM_BASIS @ PM_BASIS.T, np.eye(4), atol=1e-15)
        form = symplectic_form(2)
        np.testing.assert_allclose(PM_BASIS @ form @ PM_BASIS.T, form, atol=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = rng.standard_normal(4)
            np.testing.assert_allclose(PM_BASIS.T @ (PM_BASIS @ v), v, atol=1e-14)

    def test_zero_maps_to_zero(self):
        np.testing.assert_array_equal(PM_BASIS @ np.zeros(4), np.zeros(4))

    def test_vacuum_covariance_invariant(self):
        cov = np.eye(4) / 2
        np.testing.assert_allclose(PM_BASIS @ cov @ PM_BASIS.T, cov, atol=1e-15)

    def test_plus_is_difference_combination(self):
        v = PM_BASIS @ np.array([1.0, 0.0, 0.0, 0.0])  # x_a displacement only
        assert v[0] == pytest.approx(1 / math.sqrt(2))
        assert v[2] == pytest.approx(1 / math.sqrt(2))


class TestVacuumDiverges:
    def test_zero_periods_keeps_only_the_vacuum(self):
        """Zero periods check nothing past the vacuum, as ``evolve`` keeps
        only the initial state; the period-one maps here all trip the cap."""
        gammas, thetas = np.array([3.0, 5.0]), np.array([0.0, 0.1])
        assert gaussian.vacuum_diverges(gammas, thetas, 1, 10.0).all()
        assert not gaussian.vacuum_diverges(gammas, thetas, 0, 10.0).any()
        s = DriveSchedule.from_products(3.0, 0.0, periods=0)
        assert not evolve(vacuum_state(2), s, photon_cap=10.0).diverged

    @pytest.mark.parametrize("periods", [True, False, -1, 2.5, math.inf])
    def test_invalid_period_count_rejected(self, periods):
        with pytest.raises(ValueError, match="periods"):
            gaussian.vacuum_diverges(np.array([0.2]), np.array([0.5]), periods, 1e12)

    def test_integral_float_period_count(self):
        gammas, thetas = np.linspace(0.0, 1.5, 7), np.linspace(0.0, 3.0, 5)
        expected = gaussian.vacuum_diverges(gammas, thetas, 300, 1e6)
        assert expected.shape == (7, 5) and expected.any() and not expected.all()
        for periods in (300.0, np.int64(300)):
            np.testing.assert_array_equal(
                gaussian.vacuum_diverges(gammas, thetas, periods, 1e6), expected)


    @settings(max_examples=60, deadline=None)
    @given(gammas=st.lists(st.floats(0.0, 1.5), min_size=1, max_size=3),
           thetas=st.lists(st.floats(0.0, math.pi), min_size=1, max_size=3),
           periods=st.integers(1, 2000), cap=st.floats(1e4, 1e12))
    def test_matches_evolve_outside_band(self, gammas, thetas, periods, cap):
        """Checkpoints against every period: the verdicts agree at every grid
        point with ``|half_trace - 1| > 1e-3``.  Stable excursions from vacuum
        stay far below the smallest cap drawn here."""
        diverged = gaussian.vacuum_diverges(np.array(gammas), np.array(thetas),
                                            periods, cap)
        assert diverged.shape == (len(gammas), len(thetas))
        for i, g in enumerate(gammas):
            for j, w in enumerate(thetas):
                s = DriveSchedule.from_products(g, w, periods=periods)
                if abs(classify_schedule(s).half_trace - 1.0) <= 1e-3:
                    continue
                traj = evolve(vacuum_state(2), s, photon_cap=cap)
                assert diverged[i, j] == traj.diverged, (g, w)

    @settings(max_examples=200, deadline=None)
    @given(gammas=st.lists(st.floats(0.0, 300.0), min_size=1, max_size=4),
           thetas=st.lists(st.floats(0.0, 2 * math.pi), min_size=1, max_size=4),
           periods=st.integers(1, 10_000),
           cap=st.sampled_from([1e-3, 1.0, 1e4, 1e12, 1e300, 4.49e307])
           | st.floats(1e-300, 4.49e307))
    # periods with one, two, all (8191) and only the top (8192) of their bits
    # set; with cap 1e4 at omega*tau2 = 0 the photon number cosh(2 g n) - 1
    # passes the cap at n = 2 for g = 3, between checkpoints 4096 and 8191 for
    # g = 1e-3 and between 8192 and 10000 for g = 6e-4, so the last power
    # decides those verdicts
    @example(gammas=[0.0, 6e-4, 1e-3, 3.0], thetas=[0.0, 0.5], periods=1, cap=1e4)
    @example(gammas=[0.0, 6e-4, 1e-3, 3.0], thetas=[0.0, 0.5], periods=2, cap=1e4)
    @example(gammas=[0.0, 6e-4, 1e-3, 3.0], thetas=[0.0, 0.5], periods=3, cap=1e4)
    @example(gammas=[0.0, 6e-4, 1e-3, 3.0], thetas=[0.0, 0.5], periods=8191, cap=1e4)
    @example(gammas=[0.0, 6e-4, 1e-3, 3.0], thetas=[0.0, 0.5], periods=8192, cap=1e4)
    @example(gammas=[0.0, 6e-4, 1e-3, 3.0], thetas=[0.0, 0.5], periods=10000, cap=1e4)
    # cosh(2 g n) - 1 passes 1e4 at 2 g n = 9.90: for g = 5 at checkpoint 1,
    # g = 0.015 at 512 and g = 0.007 only at the last power, P^1000
    @example(gammas=[0.0, 0.007, 0.015, 5.0], thetas=[0.0], periods=1000, cap=1e4)
    # long runs: the points marked early (g = 3 at checkpoint 8, g = 6e-4
    # and 1e-3 at omega*tau2 = 0 by 32768) are multiplied on until their
    # entries overflow to inf, and at omega*tau2 = 2, whose powers mix signs,
    # on to nan: silent, and every one stays marked
    @example(gammas=[0.0, 6e-4, 1e-3, 3.0], thetas=[0.0, 0.5, 2.0], periods=2**20 + 3,
             cap=1e12)
    @example(gammas=[0.0, 6e-4, 1e-3, 3.0], thetas=[0.0, 0.5, 2.0], periods=10**9, cap=1e12)
    # a stable drive past the cap at a checkpoint and back below it at P^300:
    # the mark must stick
    @example(gammas=[0.6], thetas=[2.0], periods=300, cap=1.0)
    def test_plus_pair_alone_equals_two_pair_reference(self, gammas, thetas,
                                                       periods, cap):
        """Evolving the plus pair alone gives the verdicts of evolving both.

        The minus powers equal the plus powers with b and c negated, bit for
        bit up to the sign of a zero, so the two-pair sum is exactly twice
        the plus norm, and
        ``(2 s) / 4 == s / 2``, until ``2 s`` overflows: for caps below
        ``max_float / 4`` the verdicts are identical.  An infinite cap trips
        on an overflowed total, so it is among the caps that may differ.
        """
        gammas, thetas = np.array(gammas), np.array(thetas)
        np.testing.assert_array_equal(
            gaussian.vacuum_diverges(gammas, thetas, periods, cap),
            two_pair_vacuum_diverges(gammas, thetas, periods, cap))

    def test_cap_above_a_quarter_of_float_max_may_differ(self):
        """Where ``2 |P^n|_F^2`` overflows but ``|P^n|_F^2 / 2`` does not,
        the two-pair sum read inf photons and the plus pair reads a finite
        count, so a cap between the two no longer trips, nor does an
        infinite one: two periods of ``gamma*tau1 = 177.3`` give about
        5.02e307 photons."""
        gammas, thetas = np.array([177.3]), np.array([0.0])
        for cap in (1e307, 5e307):
            assert gaussian.vacuum_diverges(gammas, thetas, 2, cap)[0, 0]
            assert two_pair_vacuum_diverges(gammas, thetas, 2, cap)[0, 0]
        for cap in (1e308, math.inf):
            assert not gaussian.vacuum_diverges(gammas, thetas, 2, cap)[0, 0]
            assert two_pair_vacuum_diverges(gammas, thetas, 2, cap)[0, 0]

    def test_infinite_cap_agrees_with_trace_rule(self):
        """With no cap a drive diverges once its photon number overflows, the
        test of every engine: over the default chart and 10000 periods the
        verdict is the trace rule's at every point with ``|half_trace - 1| >
        1e-3``, and ``evolve`` agrees on one unstable drive."""
        gammas = np.linspace(0.0, 1.5, 151)
        thetas = np.linspace(0.0, math.pi, 151)
        diverged = gaussian.vacuum_diverges(gammas, thetas, 10000, math.inf)
        half_trace, classes, _ = classify_stack(pair_map(gammas, thetas), 2.0)
        clear = np.abs(half_trace - 1.0) > 1e-3
        assert clear.sum() == 22701
        np.testing.assert_array_equal(diverged[clear], (classes == "unstable")[clear])
        assert diverged[clear].any()
        s = DriveSchedule.from_products(1.0, 0.1, periods=10000)
        traj = evolve(vacuum_state(2), s, photon_cap=math.inf)
        assert traj.diverged and traj.periods_completed == 358

    def test_stable_excursion_between_checkpoints_is_bounded(self):
        """A stable drive whose excursion passes a small cap only between
        checkpoints is bounded here and diverged for ``evolve``."""
        g, w = 1.2735667827889081, 1.1394457816130437
        s = DriveSchedule.from_products(g, w, periods=599)
        assert classify_schedule(s).classification is Classification.STABLE
        traj = evolve(vacuum_state(2), s, photon_cap=15.32)
        assert traj.diverged and traj.periods_completed == 42
        assert not gaussian.vacuum_diverges(np.array([g]), np.array([w]), 599, 15.32)[0, 0]


class TestPeriodMaps:
    @settings(max_examples=200, deadline=None)
    @given(gammas=st.lists(st.floats(0.0, 354.0), min_size=1, max_size=4),
           thetas=st.lists(st.floats(0.0, 2 * math.pi), min_size=1, max_size=4))
    def test_minus_is_plus_conjugated_by_parity(self, gammas, thetas):
        """``minus == D @ plus @ D`` with ``D = diag(1, -1)``: the minus map is
        the plus map with its off-diagonal entries negated, bit for bit but
        for the sign of a zero, because sin and sinh are odd."""
        parity = np.diag([1.0, -1.0])
        plus, minus = pm_pair_maps(np.array(gammas), np.array(thetas))
        np.testing.assert_array_equal(minus, parity @ plus @ parity)
        flipped = plus * [[1.0, -1.0], [-1.0, 1.0]]
        # adding +0.0 maps -0.0 to 0.0 and leaves every other value's bits
        np.testing.assert_array_equal((minus + 0.0).view(np.int64),
                                      (flipped + 0.0).view(np.int64))

    def test_identity_without_couplings(self):
        s = DriveSchedule.from_products(0.0, 0.0, periods=1)
        np.testing.assert_allclose(two_mode_period_symplectic(s), np.eye(4), atol=1e-15)

    def test_symplectic_form_preserved(self):
        form = symplectic_form(2)
        for s in random_schedules(200, seed=12):
            m = two_mode_period_symplectic(s)
            np.testing.assert_allclose(m @ form @ m.T, form, atol=1e-10)

    def test_matches_segment_composition(self):
        for s in random_schedules(100, seed=31):
            s_u, s_s = segment_symplectics(s, 2)
            np.testing.assert_allclose(two_mode_period_symplectic(s), s_s @ s_u,
                                       atol=1e-12)

    def test_matches_canonical_flow_oracle(self):
        for s in random_schedules(60, seed=44, max_product=2.0):
            s_u_ref, s_s_ref = reference_segment_flows(s)
            s_u, s_s = segment_symplectics(s, 2)
            np.testing.assert_allclose(s_u, s_u_ref, atol=1e-12)
            np.testing.assert_allclose(s_s, s_s_ref, atol=1e-12)
            np.testing.assert_allclose(two_mode_period_symplectic(s),
                                       s_s_ref @ s_u_ref, atol=1e-11)

    def test_pm_blocks_share_the_monodromy_trace(self):
        for s in random_schedules(200, seed=8):
            plus, minus = pm_blocks(s)
            expected = 2 * math.cos(s.omega_tau2) * math.cosh(s.gamma_tau1)
            assert np.trace(plus) == pytest.approx(expected, abs=1e-12)
            assert np.trace(minus) == pytest.approx(expected, abs=1e-12)

    def test_pm_blocks_are_relabelled_floquet_maps(self):
        """One pair map: gaussian's pairs are floquet's with x and p swapped.

        The swap reorders the two products of each matrix element, which a
        fused multiply-add in matmul may round differently, so the maps agree
        to a rounding step of their largest entry.
        """
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        for s in random_schedules(200, seed=23):
            plus, minus = pm_blocks(s)
            for block, floquet_map in ((plus, monodromy(s)),
                                       (minus, minus_mode_monodromy(s))):
                np.testing.assert_allclose(
                    block, swap @ floquet_map @ swap, rtol=0,
                    atol=2 * np.finfo(float).eps * np.abs(block).max())
            s_u, s_s = segment_symplectics(s, 1)
            np.testing.assert_array_equal(s_s @ s_u, minus)

    def test_quarter_turn_exchanges_modes(self):
        s = DriveSchedule.from_products(0.0, math.pi / 2, periods=1)
        m = two_mode_period_symplectic(s)
        # each quadrature maps onto the other mode's, up to sign
        expected_abs = np.zeros((4, 4))
        expected_abs[0, 3] = expected_abs[1, 2] = 1.0
        expected_abs[2, 1] = expected_abs[3, 0] = 1.0
        np.testing.assert_allclose(np.abs(m), expected_abs, atol=1e-12)

    def test_single_mode_pure_rotation_without_pump(self):
        s = DriveSchedule.from_products(0.0, 0.8, periods=1)
        m = single_mode_map(s)
        np.testing.assert_allclose(m, [[math.cos(0.8), math.sin(0.8)],
                                       [-math.sin(0.8), math.cos(0.8)]], atol=1e-15)

    def test_single_mode_half_trace_matches_two_mode_criterion(self):
        for s in random_schedules(200, seed=17):
            half_trace = abs(np.trace(single_mode_map(s))) / 2
            expected = abs(math.cos(s.omega_tau2) * math.cosh(s.gamma_tau1))
            assert half_trace == pytest.approx(expected, abs=1e-12)

    def test_single_mode_pi_rotation_is_unstable(self):
        s = DriveSchedule.from_products(0.5, math.pi, periods=1)
        half_trace = abs(np.trace(single_mode_map(s))) / 2
        assert half_trace == pytest.approx(math.cosh(0.5), abs=1e-12)
        assert half_trace > 1

    def test_single_mode_symplectic(self):
        form = symplectic_form(1)
        for s in random_schedules(100, seed=91):
            m = single_mode_map(s)
            np.testing.assert_allclose(m @ form @ m.T, form, atol=1e-10)


class TestEvolve:
    def test_vacuum_fixed_without_couplings(self):
        s = DriveSchedule.from_products(0.0, 0.0, periods=5)
        traj, means, covs = evolve_with_states(vacuum_state(2), s)
        assert len(traj) == 6
        for state in map(GaussianState, means, covs):
            np.testing.assert_allclose(state.mean, np.zeros(4), atol=1e-15)
            np.testing.assert_allclose(state.covariance, np.eye(4) / 2, atol=1e-15)

    def test_two_mode_squeezing_closed_form(self):
        n = 8
        g = 0.12
        s = DriveSchedule.from_products(g, 0.0, periods=n)
        traj = evolve(vacuum_state(2), s)
        for k in range(n + 1):
            expected = math.sinh(k * g) ** 2
            for mode in (0, 1):
                value = traj.photons_per_mode[k, mode]
                assert value == pytest.approx(expected, rel=1e-9, abs=1e-15)

    def test_stable_run_stays_bounded(self):
        s = DriveSchedule.from_products(0.1, 1.0, periods=10_000)
        traj = evolve(vacuum_state(2), s)
        assert traj.status == "ok"
        assert traj.photon_totals.max() < 1.0

    def test_stable_bound_from_block_condition_numbers(self):
        for s in random_schedules(40, seed=57, periods=2000):
            report = classify_schedule(s)
            if report.classification is not Classification.STABLE:
                continue
            if abs(report.half_trace - 1.0) <= 1e-3:
                continue
            plus, minus = pm_blocks(s)
            kappas = [np.linalg.cond(np.linalg.eig(b)[1]) for b in (plus, minus)]
            bound = (kappas[0] ** 2 + kappas[1] ** 2 - 2.0) / 2.0
            traj = evolve(vacuum_state(2), s)
            assert traj.photon_totals.max() <= bound * (1 + 1e-9)

    def test_unstable_run_exceeds_megaphoton_deadline(self):
        """Non-marginal unstable runs pass 1e6 photons well before the
        deadline set by the per-period growth rate."""
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 20:
            g, w = rng.uniform(0.0, 1.5), rng.uniform(0.0, math.pi)
            report = classify_schedule(DriveSchedule.from_products(g, w, 1))
            if report.classification is not Classification.UNSTABLE:
                continue
            if report.half_trace - 1.0 <= 1e-3:
                continue
            deadline = int(10_000 * min(
                1.0, 1.0 / (report.floquet_exponent * report.period)))
            s = DriveSchedule.from_products(g, w, periods=10_000)
            traj = evolve(vacuum_state(2), s, photon_cap=1e6)
            assert traj.diverged
            assert traj.periods_completed <= deadline
            checked += 1

    def test_unstable_run_trips_divergence_guard(self):
        s = DriveSchedule.from_products(0.5, 0.1, periods=10_000)
        traj = evolve(vacuum_state(2), s)
        assert traj.diverged
        assert traj.photon_totals[-1] > 1e12
        assert traj.periods_completed < 10_000
        assert traj.photon_totals.size == traj.periods_completed + 1

    def test_overflow_without_cap_is_divergence(self):
        s = DriveSchedule.from_products(1.0, 0.1, periods=2000)
        with np.errstate(over="ignore", invalid="ignore"):
            traj = evolve(vacuum_state(2), s, photon_cap=math.inf)
        assert traj.diverged
        assert traj.periods_completed < 2000
        assert np.isfinite(traj.photon_totals[:-1]).all()
        assert not np.isfinite(traj.photon_totals[-1])

    def test_uncapped_run_stops_where_the_loop_does(self):
        """Near float64's range only the photon total may overflow, not the
        ``maps @ cov`` product of a later table."""
        s = DriveSchedule.from_products(0.759765625, 2.44921875, periods=6000)
        with np.errstate(over="ignore", invalid="ignore"):
            _, totals, status, completed, *_ = loop_evolve(
                vacuum_state(1), s, photon_cap=math.inf)
        traj = evolve(vacuum_state(1), s, photon_cap=math.inf)
        assert status == traj.status == "diverged"
        assert traj.periods_completed == completed == 4722
        np.testing.assert_allclose(traj.photon_totals[:-1], totals[:-1], rtol=1e-7)

    @pytest.mark.parametrize("cap", [math.nan, -1.0, 0.0])
    def test_invalid_photon_cap_rejected(self, cap):
        s = DriveSchedule.from_products(0.1, 0.5, periods=3)
        with pytest.raises(ValueError):
            evolve(vacuum_state(2), s, photon_cap=cap)

    def test_uncertainty_and_purity_preserved(self):
        s = DriveSchedule.from_products(0.3, 0.9, periods=50)
        state = squeezed_vacuum_state([0.4, 0.2], [0.0, 1.0])
        _, means, covs = evolve_with_states(state, s)
        det0 = np.linalg.det(state.covariance)
        for st in map(GaussianState, means, covs):
            assert symplectic_eigenvalues(st.covariance).min() >= 0.5 - 1e-10
            assert np.linalg.det(st.covariance) == pytest.approx(det0, abs=1e-10)

    def test_photon_sum_conserved_during_exchange_only(self):
        s = DriveSchedule.from_products(0.0, 0.7, periods=200)
        state = coherent_state([1.2, 0.4 - 0.3j])
        traj = evolve(state, s)
        total0 = traj.photon_totals[0]
        np.testing.assert_allclose(traj.photon_totals, total0, atol=1e-12)

    def test_mode_basis_equals_block_evolution(self):
        s = DriveSchedule.from_products(0.4, 1.1, periods=30)
        state = coherent_state([0.7 + 0.2j, -0.5j])
        _, means, covs = evolve_with_states(state, s)
        last = GaussianState(means[-1], covs[-1])
        plus, minus = pm_blocks(s)
        blocks = np.zeros((4, 4))
        blocks[:2, :2], blocks[2:, 2:] = plus, minus
        mean_pm = PM_BASIS @ state.mean
        cov_pm = PM_BASIS @ state.covariance @ PM_BASIS.T
        for _ in range(30):
            mean_pm = blocks @ mean_pm
            cov_pm = blocks @ cov_pm @ blocks.T
        np.testing.assert_allclose(last.mean, PM_BASIS.T @ mean_pm, atol=1e-10)
        np.testing.assert_allclose(last.covariance,
                                   PM_BASIS.T @ cov_pm @ PM_BASIS, atol=1e-10)

    def test_single_mode_evolution_photons(self):
        n = 10
        g = 0.08
        s = DriveSchedule.from_products(g, 0.0, periods=n)
        traj = evolve(vacuum_state(1), s)
        assert traj.photons_per_mode[-1, 0] == pytest.approx(
            math.sinh(n * g) ** 2, rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["vacuum", "coherent", "squeezed"]),
           modes=st.sampled_from([1, 2]),
           cap=st.sampled_from([1e3, 1e6, 1e12, math.inf]),
           periods=st.integers(0, 10_000), g=st.floats(0.0, 1.5),
           w=st.floats(0.0, math.pi), amplitude=st.floats(-2.0, 2.0))
    # the engine's total overflows one period after the loop's
    @example(kind="squeezed", modes=1, cap=math.inf, periods=10_000, g=1.4640807871144361,
             w=2.0440062496902383, amplitude=-0.9439115185774116)
    @example(kind="vacuum", modes=2, cap=math.inf, periods=3000, g=1.4248373247810155,
             w=2.0563971907865213, amplitude=0.0)
    @example(kind="vacuum", modes=1, cap=math.inf, periods=377, g=1.5, w=2.25, amplitude=0.0)
    # unequal squeezing: plus/minus cross blocks that are not zero, past a table's end
    @example(kind="squeezed", modes=2, cap=1e12, periods=5000, g=0.3, w=1.0, amplitude=1.3)
    def test_matches_per_period_loop(self, kind, modes, cap, periods, g, w,
                                     amplitude):
        """The power-table engine against the loop it replaced.

        Totals agree within ``1e-7 |t| + 1e-10``, widened by
        ``eps * k * max(t_0 .. t_k)`` at sample k: a stable run that comes
        back near vacuum after an excursion carries the loop's rounding of
        that excursion (at ``g = 0.7578125, w = 2.4453125``, one mode, the
        loop is 1.6e-10 off a 60-digit reference at period 4396, the table
        8.5e-14).  With no cap a run stops where its total overflows; totals
        that differ in their last digits can overflow a period apart, so past
        1e300 photons the two stop periods may differ by one, and the totals
        are compared on the samples that both runs hold.
        """
        if kind == "vacuum":
            state = vacuum_state(modes)
        elif kind == "coherent":
            state = coherent_state([amplitude + 0.5j, -0.3][:modes])
        else:
            state = squeezed_vacuum_state([abs(amplitude) / 2, 0.3][:modes], [1.0, 0.0][:modes])
        s = DriveSchedule.from_products(g, w, periods=periods)
        with np.errstate(over="ignore", invalid="ignore"):
            _, totals, status, completed, *_ = loop_evolve(
                state, s, photon_cap=cap)
        traj = evolve(state, s, photon_cap=cap)
        got = traj.photon_totals
        assert traj.photons_per_mode.shape == (got.size, modes)
        if (totals < 1e300).all():
            assert traj.status == status
            assert traj.periods_completed == completed
            assert got.shape == totals.shape
        else:
            assert cap == math.inf and not (got < 1e300).all()
            assert abs(traj.periods_completed - completed) <= 1
            size = min(got.size, totals.size)
            got, totals = got[:size], totals[:size]
        below = totals < 1e300
        k = np.flatnonzero(below)
        atol = 1e-10 + np.finfo(float).eps * k * np.maximum.accumulate(totals[below])
        assert (np.abs(got[below] - totals[below]) <= 1e-7 * totals[below] + atol).all()

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["vacuum", "coherent", "squeezed"]),
           value=st.floats(-2.0, 2.0), phase=st.floats(-math.pi, math.pi),
           cap=st.sampled_from([1e6, 1e12, math.inf]), periods=st.integers(0, 6000),
           g=st.floats(0.0, 1.5), w=st.floats(0.0, math.pi))
    # stable, past the 4096-period seam
    @example(kind="vacuum", value=0.0, phase=0.0, cap=1e12, periods=5000, g=0.05, w=0.3)
    @example(kind="coherent", value=1.25, phase=-0.5, cap=1e12, periods=5000, g=0.05, w=0.3)
    @example(kind="squeezed", value=0.8, phase=1.0, cap=1e12, periods=5000, g=0.3, w=1.0)
    # stopped by the cap, and by an overflow
    @example(kind="squeezed", value=-0.4, phase=2.0, cap=1e12, periods=5000, g=0.5, w=0.1)
    @example(kind="coherent", value=0.7, phase=0.3, cap=math.inf, periods=3000, g=0.5, w=0.1)
    def test_swap_symmetric_states_give_equal_modes(self, kind, value, phase, cap,
                                                    periods, g, w):
        """A two-mode state equal to its own a<->b swap stays so under the
        drive, which is swap symmetric: ``n_a == n_b`` bit for bit at every
        period, across the seam between two power tables and up to the
        period where a cap or an overflow stops the run."""
        if kind == "vacuum":
            state = vacuum_state(2)
        elif kind == "coherent":
            state = coherent_state([value * np.exp(1j * phase)] * 2)
        else:
            state = squeezed_vacuum_state([value / 2] * 2, [phase] * 2)
        s = DriveSchedule.from_products(g, w, periods=periods)
        traj = evolve(state, s, photon_cap=cap)
        n_a, n_b = traj.photons_per_mode.view(np.int64).T
        assert (n_a == n_b).all()

    def test_near_marginal_states_construct(self):
        """Stable drives close to the stability edge give valid states.

        The per-period loop raised InvalidStateError on many of these: its
        rounding broke the uncertainty relation of the recorded states.
        Every recorded state passes :class:`GaussianState`'s checks, made
        for all of a drive's states at once by :func:`valid_state_margins`;
        every 97th state goes through the constructor itself.
        """
        drives = [(0.44615674286790835, 0.43230246653417354, 1810)]
        rng = np.random.default_rng(606)
        for _ in range(60):
            g, half_trace = rng.uniform(0.0, 1.5), rng.uniform(0.999, 0.99999)
            drives.append((g, math.acos(half_trace / math.cosh(g)), 3000))
        for g, w, periods in drives:
            s = DriveSchedule.from_products(g, w, periods=periods)
            assert classify_schedule(s).classification is Classification.STABLE
            traj, means, covs = evolve_with_states(vacuum_state(2), s)
            assert traj.status == "ok" and len(traj) == periods + 1
            nu_min = valid_state_margins(means, covs)
            for i in range(0, periods + 1, 97):
                state = GaussianState(means[i], covs[i])
                np.testing.assert_allclose(
                    symplectic_eigenvalues(state.covariance).min(), nu_min[i], rtol=1e-12)

    @pytest.mark.parametrize("cov", [
        np.eye(4) * 0.4,
        np.eye(4) / 2.0 + np.diag([1e-9, 0.0, 0.0], k=1),
        np.diag([0.5, 0.5, 0.5, np.inf]),
        np.diag([0.5, 0.5, 2.0, 0.1]),
    ], ids=["below-vacuum", "asymmetric", "non-finite", "uncertainty"])
    def test_stacked_state_check_rejects_what_constructor_rejects(self, cov):
        """The stacked check of the near-marginal test fails where the
        constructor does, and passes the vacuum stacked beside it."""
        vacuum = vacuum_state(2)
        means, covs = np.zeros((2, 4)), np.stack([vacuum.covariance, cov])
        with pytest.raises(InvalidStateError):
            GaussianState(means[1], covs[1])
        with pytest.raises(AssertionError):
            valid_state_margins(means, covs)
        np.testing.assert_allclose(valid_state_margins(means[:1], covs[:1]), [0.5], rtol=1e-15)

    def test_long_unstable_run_stops_in_first_table(self):
        s = DriveSchedule.from_products(0.1, 0.01, periods=10**6)
        start = time.perf_counter()
        traj = evolve(vacuum_state(2), s)
        elapsed = time.perf_counter() - start
        assert traj.diverged
        assert traj.periods_completed == 143
        assert elapsed < 0.5

    def test_states_recorded_as_arrays(self):
        """The stepping loop's samples against the per-period loop's states."""
        s = DriveSchedule.from_products(0.2, 0.9, periods=7)
        state = coherent_state([0.3 - 0.1j, 0.5j])
        traj, means, covs = evolve_with_states(state, s)
        *_, ref_means, ref_covs = loop_evolve(state, s)
        assert means.shape == (8, 4) and covs.shape == (8, 4, 4)
        assert len(traj) == len(ref_means)
        for got, ref in zip(map(GaussianState, means, covs),
                            map(GaussianState, ref_means, ref_covs)):
            np.testing.assert_allclose(got.mean, ref.mean, atol=1e-12)
            np.testing.assert_allclose(got.covariance, ref.covariance, atol=1e-12)

    def test_rejects_non_state_input(self):
        s = DriveSchedule.from_products(0.1, 0.1, periods=1)
        with pytest.raises(InvalidStateError):
            evolve(np.zeros(4), s)
