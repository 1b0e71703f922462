"""Segment matrices, monodromy composition and stability classification."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zenofloquet import floquet, gaussian
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
    pair_map,
    powers,
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
    """The segment matrices as pair maps with the other product zero:
    ``pair_map(g, 0.0)`` is the hyperbolic map, ``pair_map(0.0, w)`` the
    rotation."""

    def test_zero_coupling_gives_identity(self):
        np.testing.assert_array_equal(pair_map(0.0, 0.0), np.eye(2))

    def test_unstable_entries_at_experimental_product(self):
        # crystal-scale product gamma*tau1 ~ 1e-3
        m = pair_map(1e-3, 0.0)
        assert m[0, 0] == pytest.approx(math.cosh(1e-3), rel=1e-15)
        assert m[0, 1] == pytest.approx(math.sinh(1e-3), rel=1e-15)
        np.testing.assert_allclose(m, m.T, atol=0)

    def test_unstable_determinant_hyperbolic_identity(self):
        m = pair_map(1.0, 0.0)
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-12)

    def test_stable_quarter_turn(self):
        m = pair_map(0.0, math.pi / 2)
        np.testing.assert_allclose(m, [[0, 1], [-1, 0]], atol=1e-15)

    def test_stable_full_turn_is_identity(self):
        m = pair_map(0.0, 2 * math.pi)
        np.testing.assert_allclose(m, np.eye(2), atol=1e-12)

    def test_determinants_one_over_random_parameters(self):
        for s in random_schedules(200, seed=11):
            for m in (pair_map(s.gamma_tau1, 0.0),
                      pair_map(0.0, s.omega_tau2),
                      monodromy(s),
                      minus_mode_monodromy(s)):
                assert abs(np.linalg.det(m) - 1.0) < 1e-12


class TestMonodromy:
    def test_pure_rotation_when_gamma_zero(self):
        s = DriveSchedule.from_products(0.0, 1.3, periods=1)
        a = monodromy(s)
        np.testing.assert_allclose(a, pair_map(0.0, 1.3), atol=0)
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
                                   pair_map(0.0, 0.9).T, atol=1e-15)
        squeeze_only = DriveSchedule.from_products(0.6, 0.0, periods=1)
        np.testing.assert_allclose(
            minus_mode_monodromy(squeeze_only),
            np.linalg.inv(pair_map(0.6, 0.0)), atol=1e-12)


#: Signed gamma*tau1 values: any in the float64 limit, the signed zeros, and
#: values within 1 of the limit, where cosh is largest.
SIGNED_GAMMA_TAU1 = (st.floats(-floquet.MAX_GAMMA_TAU1, floquet.MAX_GAMMA_TAU1)
                     | st.sampled_from([0.0, -0.0])
                     | st.floats(floquet.MAX_GAMMA_TAU1 - 1.0, floquet.MAX_GAMMA_TAU1)
                     .flatmap(lambda g: st.sampled_from([g, -g])))
SIGNED_OMEGA_TAU2 = (st.floats(allow_nan=False, allow_infinity=False)
                     | st.sampled_from([0.0, -0.0]))


class TestGridPairMap:
    @settings(max_examples=200, deadline=None)
    @given(gammas=st.lists(SIGNED_GAMMA_TAU1, min_size=1, max_size=5),
           thetas=st.lists(SIGNED_OMEGA_TAU2, min_size=1, max_size=5))
    @example(gammas=[-0.0, 0.0, floquet.MAX_GAMMA_TAU1, -floquet.MAX_GAMMA_TAU1],
             thetas=[-0.0, 0.0, -math.pi, 1e300])
    def test_grid_equals_scalar_maps(self, gammas, thetas):
        """The grid stack holds the scalar map of every grid point, bit for
        bit, signed zeros included."""
        grid = pair_map(np.array(gammas), np.array(thetas))
        assert grid.shape == (len(gammas), len(thetas), 2, 2)
        for i, g in enumerate(gammas):
            for j, w in enumerate(thetas):
                assert grid[i, j].tobytes() == pair_map(g, w).tobytes(), (g, w)


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

    def test_stack_exponents_equal_per_value_formula(self):
        """A stack's exponents, computed without a loop over its maps, equal
        ``_floquet_exponent`` of each half-trace bit for bit: on the default
        sweep chart, and on 1e5 random half-traces ``h`` in (1, 100] of the
        maps ``[[h, 1], [h^2 - 1, h]]``."""
        chart = floquet.pair_map(np.linspace(0.0, 1.5, 151), np.linspace(0.0, math.pi, 151))
        h = 100.0 - np.random.default_rng(17).uniform(0.0, 99.0, 10**5)
        drawn = np.stack([np.stack([h, np.ones_like(h)], axis=-1),
                          np.stack([h * h - 1.0, h], axis=-1)], axis=-2)
        for maps, period in ((chart, 2.0), (drawn, 0.7)):
            half_trace, classes, exponent = floquet.classify_stack(maps, period)
            unstable = classes == Classification.UNSTABLE.value
            assert unstable.sum() > 9000
            expected = [floquet._floquet_exponent(x, period)
                        for x in half_trace[unstable].tolist()]
            assert exponent[unstable].tobytes() == np.array(expected).tobytes()
            assert not exponent[~unstable].any()

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
    """To second order in the segment products the half-trace is
    ``1 - ((omega*tau2)^2 - (gamma*tau1)^2) / 2``, so for short segments the
    drive is stable exactly when ``omega*tau2 > gamma*tau1``."""

    def test_direct_comparisons(self):
        for g, w, expected in ((0.001, 0.01, Classification.STABLE),
                               (0.01, 0.001, Classification.UNSTABLE)):
            s = DriveSchedule.from_products(g, w, 1)
            assert classify_schedule(s).classification is expected

    def test_predicate_matches_exact_criterion_at_small_scale(self):
        values = np.linspace(1e-4, 1e-3, 7)
        for g in values:
            for w in values:
                if abs(w**2 - g**2) / 2 < 1e-8:
                    continue  # too close to the quadratic boundary to resolve
                s = DriveSchedule.from_products(g, w, periods=1)
                verdict = classify_schedule(s).classification
                if w > g:
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


def plus_mode_trajectory(s, x0, p0):
    """The amplified pair at period boundaries: row n is ``A^n @ (x0, p0)``
    with ``A = monodromy(s)``, row 0 the initial condition."""
    return powers(monodromy(s), s.periods) @ np.array([x0, p0])


class TestPropagatePlusMode:
    def test_fixed_point_at_origin(self):
        s = DriveSchedule.from_products(0.4, 0.9, periods=20)
        traj = plus_mode_trajectory(s, 0.0, 0.0)
        assert traj.shape == (21, 2)
        np.testing.assert_array_equal(traj, 0.0)

    def test_pure_squeezing_closed_form(self):
        n = 12
        s = DriveSchedule.from_products(0.05, 0.0, periods=n)
        traj = plus_mode_trajectory(s, 1.0, 0.0)
        # A_u^n = A_u(n g): x grows as cosh(n g) from (1, 0)
        assert traj[-1, 0] == pytest.approx(math.cosh(n * 0.05), rel=1e-12)
        assert traj[-1, 1] == pytest.approx(math.sinh(n * 0.05), rel=1e-12)

    def test_first_entry_is_input(self):
        s = DriveSchedule.from_products(0.2, 0.4, periods=3)
        traj = plus_mode_trajectory(s, 0.3, -0.7)
        np.testing.assert_array_equal(traj[0], [0.3, -0.7])

    def test_stable_trajectory_bounded_by_eigenvector_condition(self):
        s = DriveSchedule.from_products(0.1, 1.0, periods=100_000)
        assert classify_schedule(s).classification is Classification.STABLE
        _, vecs = np.linalg.eig(monodromy(s))
        bound = np.linalg.cond(vecs) * math.hypot(1.0, 0.5)
        traj = plus_mode_trajectory(s, 1.0, 0.5)
        radii = np.hypot(traj[:, 0], traj[:, 1])
        assert radii.max() <= bound * (1 + 1e-9)


    def test_matches_per_period_loop(self):
        """Against the loop it replaced: ``v <- A @ v`` once per period."""
        for i, s in enumerate(random_schedules(40, seed=71, max_product=1.5)):
            s = DriveSchedule.from_products(s.gamma_tau1, s.omega_tau2, periods=25 * i)
            a = monodromy(s)
            v = np.array([0.4, -1.1])
            expected = [v]
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in range(s.periods):
                    v = a @ v
                    expected.append(v)
                traj = plus_mode_trajectory(s, 0.4, -1.1)
            expected = np.array(expected)
            assert traj.shape == expected.shape
            # unstable runs overflow; compare the rows far below float64's range
            rows = np.abs(expected).max(axis=1) < 1e300
            assert np.isfinite(traj[rows]).all()
            # errors grow with |A^n|, so compare against the largest entry so far
            scale = np.maximum.accumulate(np.abs(expected).max(axis=1))
            assert (np.abs(traj - expected).max(axis=1)[rows] <= 1e-10 * scale[rows]).all()


class TestPowers:
    def test_equals_matrix_power(self):
        # a (2, 2) grid of stable pair maps, whose powers stay bounded
        maps = floquet.pair_map(np.array([0.1, 0.5]), np.array([1.0, 2.5]))
        for n in (0, 1, 2, 3, 7, 8, 9, 100, 1023, 1025):
            table = powers(maps, n)
            assert table.shape == (n + 1, 2, 2, 2, 2)
            np.testing.assert_array_equal(table[0], np.broadcast_to(np.eye(2), maps.shape))
            for k in sorted({0, min(1, n), n // 2, n}):
                ref = np.linalg.matrix_power(maps, k)
                np.testing.assert_allclose(table[k], ref, rtol=1e-9,
                                           atol=1e-12 * np.abs(ref).max())

    def test_single_map(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0]])  # shear: a^n = [[1, n], [0, 1]]
        table = powers(a, 6)
        assert table.shape == (7, 2, 2)
        np.testing.assert_array_equal(table[:, 0, 1], np.arange(7.0))
        assert powers(a, 0).shape == (1, 2, 2)


@pytest.mark.parametrize("cap, expected", [
    (1.5, [False, True, True, True, True]),
    (math.inf, [False, False, False, True, True]),
    (10**400, [False, False, False, True, True]),
], ids=["finite", "inf", "int-beyond-float"])
def test_past_cap_is_above_cap_or_not_finite(cap, expected):
    """The one cap test of every engine: a total is past the cap when it
    exceeds it or is not finite, for any valid cap, ``inf`` included."""
    totals = np.array([1.0, 2.0, sys.float_info.max, math.inf, math.nan])
    np.testing.assert_array_equal(floquet._past_cap(totals, cap), expected)
    for total, past in zip(totals, expected):
        assert floquet._past_cap(total, cap) == past


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


def _beyond_range(product):
    return (f"gamma*tau1 = {product!r} exceeds {floquet.MAX_GAMMA_TAU1!r} in magnitude, "
            "the largest whose squared pair-map entries float64 can hold")


@pytest.mark.parametrize("call, message", [
    (lambda: classify_schedule(DriveSchedule.from_products(800.0, 0.0)),
     _beyond_range(800.0)),
    (lambda: floquet.pair_map(np.array([800.0]), np.array([0.0])), _beyond_range(800.0)),
    (lambda: floquet.pair_map(np.array([0.5, 800.0, 900.0]), np.array([0.0])),
     _beyond_range(800.0)),
    (lambda: gaussian.evolve(gaussian.vacuum_state(2),
                             DriveSchedule.from_products(800.0, 0.1, periods=2)),
     _beyond_range(800.0)),
    (lambda: classify_schedule(DriveSchedule.from_products(355.0, 0.5)),
     _beyond_range(355.0)),
    (lambda: classify_schedule(DriveSchedule.from_products(400.0, 0.5)),
     _beyond_range(400.0)),
    (lambda: gaussian.evolve(gaussian.vacuum_state(2),
                             DriveSchedule.from_products(400.0, 0.1, periods=2)),
     _beyond_range(400.0)),
    (lambda: gaussian.vacuum_diverges(np.array([0.5, 709.0]), np.array([0.0]), 4, 1e12),
     _beyond_range(709.0)),
    (lambda: floquet.pair_map(-355.0, 0.5), _beyond_range(-355.0)),
    (lambda: floquet.pair_map(np.array([1.0, -400.0]), np.array([0.5])),
     _beyond_range(-400.0)),
    (lambda: classical_pendulum_monodromy(ClassicalPendulumParams(800.0, 1.0, 1.0)),
     "cosh(k1*tau = 800.0) exceeds float64's range"),
], ids=["classify_schedule", "pair_map", "pair_map-later-value", "gaussian.evolve",
        "classify_schedule-355", "classify_schedule-400", "gaussian.evolve-400",
        "vacuum_diverges-709", "pair_map-negative", "pair_map-negative-axis",
        "classical_pendulum_monodromy"])
def test_product_beyond_float64_range_is_value_error(call, message):
    """A ``gamma*tau1`` beyond ``MAX_GAMMA_TAU1`` in magnitude, where squared
    pair-map entries overflow float64, is a ValueError naming the product
    and the limit, the first one beyond it on an axis; ``k1*tau`` is
    rejected where cosh overflows float64, past 710.47."""
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError
    assert str(info.value) == message
