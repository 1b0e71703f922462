"""Segment matrices, monodromy composition and stability classification."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zenofloquet import floquet
from zenofloquet.floquet import (
    Classification,
    ClassicalPendulumParams,
    DriveSchedule,
    InconsistentMatrixError,
    classical_pendulum_monodromy,
    classify,
    classify_schedule,
    minus_mode_monodromy,
    monodromy,
    propagate_plus_mode,
    small_tau_predicate,
    stable_segment_matrix,
    unstable_segment_matrix,
)


def random_schedules(count, seed, max_product=3.0):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        g, w = rng.uniform(0.0, max_product, size=2)
        yield DriveSchedule.from_products(g, w, periods=1)


class TestDriveSchedule:
    def test_products_and_period(self):
        s = DriveSchedule(gamma=2.0, tau1=0.25, omega=3.0, tau2=0.5, periods=4)
        assert s.gamma_tau1 == 0.5
        assert s.omega_tau2 == 1.5
        assert s.period == 0.75

    def test_from_products(self):
        s = DriveSchedule.from_products(0.3, 0.7, periods=2)
        assert s.gamma_tau1 == pytest.approx(0.3)
        assert s.omega_tau2 == pytest.approx(0.7)
        assert s.period == 2.0

    @pytest.mark.parametrize("kwargs", [
        dict(gamma=-1.0, tau1=1.0, omega=0.0, tau2=1.0, periods=1),
        dict(gamma=math.inf, tau1=1.0, omega=0.0, tau2=1.0, periods=1),
        dict(gamma=1.0, tau1=math.nan, omega=0.0, tau2=1.0, periods=1),
        dict(gamma=1.0, tau1=1.0, omega=0.0, tau2=1.0, periods=-1),
        dict(gamma=1.0, tau1=0.0, omega=1.0, tau2=0.0, periods=1),  # T = 0
        dict(gamma=1.0, tau1=1.0, omega=0.0, tau2=1.0, periods=2.5),
        dict(gamma=1.0, tau1=1.0, omega=0.0, tau2=1.0, periods=math.inf),
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            DriveSchedule(**kwargs)

    def test_zero_period_count_allows_zero_durations(self):
        s = DriveSchedule(gamma=1.0, tau1=0.0, omega=1.0, tau2=0.0, periods=0)
        assert s.period == 0.0


class TestSegmentMatrices:
    def test_zero_coupling_gives_identity(self):
        np.testing.assert_array_equal(unstable_segment_matrix(0.0, 5.0), np.eye(2))
        np.testing.assert_array_equal(stable_segment_matrix(0.0, 5.0), np.eye(2))

    def test_unstable_entries_at_experimental_product(self):
        # crystal-scale product gamma*tau1 ~ 1e-3
        m = unstable_segment_matrix(1e-3, 1.0)
        assert m[0, 0] == pytest.approx(math.cosh(1e-3), rel=1e-15)
        assert m[0, 1] == pytest.approx(math.sinh(1e-3), rel=1e-15)
        np.testing.assert_allclose(m, m.T, atol=0)

    def test_unstable_determinant_hyperbolic_identity(self):
        m = unstable_segment_matrix(1.0, 1.0)
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-12)

    def test_stable_quarter_turn(self):
        m = stable_segment_matrix(math.pi / 2, 1.0)
        np.testing.assert_allclose(m, [[0, 1], [-1, 0]], atol=1e-15)

    def test_stable_full_turn_is_identity(self):
        m = stable_segment_matrix(2 * math.pi, 1.0)
        np.testing.assert_allclose(m, np.eye(2), atol=1e-12)

    def test_nonfinite_inputs_rejected(self):
        with pytest.raises(ValueError):
            unstable_segment_matrix(math.nan, 1.0)
        with pytest.raises(ValueError):
            stable_segment_matrix(1.0, math.inf)

    def test_determinants_one_over_random_parameters(self):
        for s in random_schedules(200, seed=11):
            for m in (unstable_segment_matrix(s.gamma, s.tau1),
                      stable_segment_matrix(s.omega, s.tau2),
                      monodromy(s),
                      minus_mode_monodromy(s)):
                assert abs(np.linalg.det(m) - 1.0) < 1e-12


class TestMonodromy:
    def test_pure_rotation_when_gamma_zero(self):
        s = DriveSchedule.from_products(0.0, 1.3, periods=1)
        a = monodromy(s)
        np.testing.assert_allclose(a, stable_segment_matrix(1.3, 1.0), atol=0)
        assert abs(np.trace(a)) / 2 <= 1.0

    def test_pure_squeezing_when_omega_zero(self):
        s = DriveSchedule.from_products(0.8, 0.0, periods=1)
        assert abs(np.trace(monodromy(s))) / 2 == pytest.approx(math.cosh(0.8))
        assert classify_schedule(s).classification is Classification.UNSTABLE

    def test_trace_vanishes_at_quarter_turn(self):
        # by hand: tr(A_s A_u) = 2 cos(w) cosh(g); w = pi/2 kills it
        s = DriveSchedule.from_products(1.0, math.pi / 2, periods=1)
        assert abs(np.trace(monodromy(s))) < 1e-15
        assert classify_schedule(s).classification is Classification.STABLE

    def test_trace_identity_over_random_parameters(self):
        for s in random_schedules(500, seed=23):
            expected = 2.0 * math.cos(s.omega_tau2) * math.cosh(s.gamma_tau1)
            assert np.trace(monodromy(s)) == pytest.approx(expected, abs=1e-12)

    def test_minus_mode_trace_matches(self):
        for s in random_schedules(500, seed=37):
            assert np.trace(minus_mode_monodromy(s)) == pytest.approx(
                np.trace(monodromy(s)), abs=1e-12)

    def test_minus_mode_special_cases(self):
        rot_only = DriveSchedule.from_products(0.0, 0.9, periods=1)
        np.testing.assert_allclose(minus_mode_monodromy(rot_only),
                                   stable_segment_matrix(0.9, 1.0).T, atol=1e-15)
        squeeze_only = DriveSchedule.from_products(0.6, 0.0, periods=1)
        np.testing.assert_allclose(
            minus_mode_monodromy(squeeze_only),
            np.linalg.inv(unstable_segment_matrix(0.6, 1.0)), atol=1e-12)


class TestClassify:
    def test_identity_is_marginal(self):
        report = classify(np.eye(2), period=1.0)
        assert report.half_trace == 1.0
        assert report.classification is Classification.MARGINAL
        assert report.floquet_exponent == 0.0

    def test_unstable_point(self):
        s = DriveSchedule.from_products(0.5, 0.1, periods=1)
        report = classify_schedule(s)
        expected = math.cos(0.1) * math.cosh(0.5)  # = 1.12199... > 1
        assert expected > 1
        assert report.half_trace == pytest.approx(expected, abs=1e-12)
        assert report.classification is Classification.UNSTABLE
        assert report.floquet_exponent > 0

    def test_stable_point(self):
        s = DriveSchedule.from_products(0.1, 1.0, periods=1)
        report = classify_schedule(s)
        expected = math.cos(1.0) * math.cosh(0.1)  # = 0.54300... < 1
        assert expected < 1
        assert report.half_trace == pytest.approx(expected, abs=1e-12)
        assert report.classification is Classification.STABLE
        assert report.floquet_exponent == 0.0

    def test_half_trace_matches_closed_form_everywhere(self):
        for s in random_schedules(300, seed=5):
            report = classify_schedule(s)
            closed = abs(math.cos(s.omega_tau2) * math.cosh(s.gamma_tau1))
            assert report.half_trace == pytest.approx(closed, abs=1e-12)

    def test_determinant_violation_rejected(self):
        with pytest.raises(InconsistentMatrixError):
            classify(np.diag([2.0, 1.0]), period=1.0)

    @pytest.mark.parametrize("matrix", [
        [[1.0, 0.0], [0.0, 0.0]],
        [[math.nan, 0.0], [0.0, 1.0]],
        [[math.inf, 0.0], [0.0, 1.0]],
    ], ids=["singular", "nan", "inf"])
    def test_singular_and_nonfinite_maps_rejected(self, matrix):
        with pytest.raises(InconsistentMatrixError):
            classify(np.array(matrix), period=1.0)
        with pytest.raises(InconsistentMatrixError):
            floquet.classify_stack(np.array([np.eye(2), matrix]), period=1.0)

    @settings(max_examples=200, deadline=None)
    @given(g=st.floats(0.0, floquet.MAX_GAMMA_TAU1), w=st.floats(-10.0, 10.0))
    @example(g=20.0, w=0.0)  # a*d - b*c evaluates to 0.0 here
    @example(g=14.239350012693112, w=-3.926961646672531)  # |ad| + |bc| << |A|_F^2
    def test_pair_maps_pass_the_determinant_rule(self, g, w):
        """Up to the float64 limit, rounding in a*d - b*c of a correct map
        grows like eps * cosh(g)^2, far past the 1e-9 floor."""
        for m in (floquet.pair_map(g, w), floquet.pair_map(-g, w)):
            report = classify(m, period=2.0)
            assert math.isfinite(report.floquet_exponent)
            assert floquet.classify_stack(m[None], period=2.0)[0] == report.half_trace

    def test_bad_period_rejected(self):
        with pytest.raises(ValueError):
            classify(np.eye(2), period=0.0)

    def test_eigenvalue_structure(self):
        """Unstable: real pair (l, 1/l) with l = exp(mu T); stable: unit circle."""
        for s in random_schedules(300, seed=71):
            report = classify_schedule(s)
            eigs = np.linalg.eigvals(monodromy(s))
            if report.classification is Classification.UNSTABLE:
                assert np.abs(eigs.imag).max() < 1e-10
                lam = np.abs(eigs).max()
                assert lam == pytest.approx(
                    math.exp(report.floquet_exponent * report.period), abs=1e-10)
                assert np.abs(eigs).min() == pytest.approx(1 / lam, rel=1e-9)
            elif report.classification is Classification.STABLE:
                np.testing.assert_allclose(np.abs(eigs), 1.0, atol=1e-10)


class TestSmallTau:
    def test_direct_comparisons(self):
        assert small_tau_predicate(DriveSchedule.from_products(0.001, 0.01, 1))
        assert not small_tau_predicate(DriveSchedule.from_products(0.01, 0.001, 1))

    def test_predicate_matches_exact_criterion_at_small_scale(self):
        values = np.linspace(1e-4, 1e-3, 7)
        for g in values:
            for w in values:
                if abs(w**2 - g**2) / 2 < 1e-8:
                    continue  # too close to the quadratic boundary to resolve
                s = DriveSchedule.from_products(g, w, periods=1)
                verdict = classify_schedule(s).classification
                if small_tau_predicate(s):
                    assert verdict is Classification.STABLE
                else:
                    assert verdict is Classification.UNSTABLE

    def test_quadratic_expansion_remainder_is_fourth_order(self):
        """Fit the remainder constant at one scale, check it at halved scales."""
        direction = (1.0, 0.7)

        def remainder(scale):
            g, w = direction[0] * scale, direction[1] * scale
            half_trace = classify_schedule(
                DriveSchedule.from_products(g, w, periods=1)).half_trace
            return abs(half_trace - (1.0 - (w**2 - g**2) / 2.0))

        s0 = 1e-2
        c_fit = remainder(s0) / s0**4
        for scale in (s0 / 2, s0 / 4):
            assert remainder(scale) <= 1.05 * c_fit * scale**4
            assert remainder(scale) >= 0.95 * c_fit * scale**4


class TestPropagatePlusMode:
    def test_fixed_point_at_origin(self):
        s = DriveSchedule.from_products(0.4, 0.9, periods=20)
        traj = propagate_plus_mode(s, 0.0, 0.0)
        assert traj.shape == (21, 2)
        np.testing.assert_array_equal(traj, 0.0)

    def test_pure_squeezing_closed_form(self):
        n = 12
        s = DriveSchedule.from_products(0.05, 0.0, periods=n)
        traj = propagate_plus_mode(s, 1.0, 0.0)
        # A_u^n = A_u(n g): x grows as cosh(n g) from (1, 0)
        assert traj[-1, 0] == pytest.approx(math.cosh(n * 0.05), rel=1e-12)
        assert traj[-1, 1] == pytest.approx(math.sinh(n * 0.05), rel=1e-12)

    def test_first_entry_is_input(self):
        s = DriveSchedule.from_products(0.2, 0.4, periods=3)
        traj = propagate_plus_mode(s, 0.3, -0.7)
        np.testing.assert_array_equal(traj[0], [0.3, -0.7])

    def test_stable_trajectory_bounded_by_eigenvector_condition(self):
        s = DriveSchedule.from_products(0.1, 1.0, periods=100_000)
        assert classify_schedule(s).classification is Classification.STABLE
        _, vecs = np.linalg.eig(monodromy(s))
        bound = np.linalg.cond(vecs) * math.hypot(1.0, 0.5)
        traj = propagate_plus_mode(s, 1.0, 0.5)
        radii = np.hypot(traj[:, 0], traj[:, 1])
        assert radii.max() <= bound * (1 + 1e-9)


class TestClassicalPendulum:
    def test_rate_ordering_enforced(self):
        with pytest.raises(ValueError):
            ClassicalPendulumParams(k1=1.0, k2=1.0, tau=0.1)
        with pytest.raises(ValueError):
            ClassicalPendulumParams(k1=1.0, k2=2.0, tau=0.1)

    def test_determinant_one(self):
        params = ClassicalPendulumParams(k1=2.0, k2=1.0, tau=0.05)
        a_cl, _ = classical_pendulum_monodromy(params)
        assert abs(np.linalg.det(a_cl) - 1.0) < 1e-12

    def test_trace_against_closed_form_and_sign(self):
        # tr(A2 A1) = 2 cos(k2 t) cosh(k1 t) + sin(k2 t) sinh(k1 t) (k1/k2 - k2/k1)
        for k1, k2, tau in [(2.0, 1.0, 2.0), (3.0, 0.5, 0.3), (1.5, 1.0, 1.0)]:
            a_cl, report = classical_pendulum_monodromy(
                ClassicalPendulumParams(k1=k1, k2=k2, tau=tau))
            u1, u2 = k1 * tau, k2 * tau
            expected = (2 * math.cos(u2) * math.cosh(u1)
                        + math.sin(u2) * math.sinh(u1) * (k1 / k2 - k2 / k1))
            assert np.trace(a_cl) == pytest.approx(expected, rel=1e-12)
            if abs(expected) > 2:
                assert report.classification is Classification.UNSTABLE
            elif abs(expected) < 2:
                assert report.classification is Classification.STABLE

    def test_determinants_over_random_parameters(self):
        # k1*tau capped near 3 so cosh^2 stays small enough for the 1e-12 claim
        rng = np.random.default_rng(9)
        for _ in range(200):
            k2 = rng.uniform(0.1, 2.0)
            k1 = k2 + rng.uniform(0.01, 2.0)
            tau = rng.uniform(0.01, 3.0 / k1)
            a_cl, _ = classical_pendulum_monodromy(
                ClassicalPendulumParams(k1=k1, k2=k2, tau=tau))
            assert abs(np.linalg.det(a_cl) - 1.0) < 1e-12
