"""One rule per input kind at the library boundary.

Every period count, cutoff and mode count is an integer or an integral float,
never a bool, within its range; it is stored as an ``int``.  Every rate,
duration, coupling and product is a finite real, never a bool.  Each rejected
call below raises ``ValueError``, and each accepted count keeps a plain ``int``.
"""

import math

import numpy as np
import pytest

from zenofloquet import cli, floquet, fock, gaussian
from zenofloquet.floquet import ClassicalPendulumParams, DriveSchedule
from zenofloquet.fock import FockState, HamiltonianLabel

AMPS = np.eye(25)[0]  # |0, 0> at cutoff 4


@pytest.mark.parametrize("call", [
    lambda: DriveSchedule.from_products(0.1, 0.5, periods=True),
    lambda: DriveSchedule.from_products(0.1, 0.5, periods=False),
    lambda: DriveSchedule.from_products(0.1, 0.5, periods=np.bool_(True)),
    lambda: DriveSchedule.from_products(0.1, 0.5, periods=2.5),
    lambda: DriveSchedule.from_products(0.1, 0.5, periods=math.nan),
    lambda: DriveSchedule.from_products(0.1, 0.5, periods="3"),
    lambda: FockState(True, 4, AMPS[:5]),
    lambda: FockState(2, True, AMPS[:4]),
    lambda: FockState(2, 4.5, AMPS),
    lambda: FockState(3, 4, AMPS),
    lambda: fock.build_hamiltonian(HamiltonianLabel.TWO_MODE_STABLE, 1.0, math.inf),
    lambda: fock.build_hamiltonian(HamiltonianLabel.TWO_MODE_STABLE, 1.0, True),
    lambda: fock.zeno_threshold_scan(0.1, [0.5], cutoff=True, periods=3),
    lambda: fock.zeno_threshold_scan(0.1, [0.5], cutoff=2.5, periods=3),
    lambda: fock.zeno_threshold_scan(0.1, [], cutoff=2.5, periods=3),
    lambda: fock.zeno_threshold_scan(0.1, [0.5], cutoff=0, periods=3),
    lambda: fock.zeno_threshold_scan(0.1, [0.5], cutoff=10, periods=0),
    lambda: fock.zeno_threshold_scan(0.1, [0.5], cutoff=10, periods=math.inf),
    lambda: floquet.powers(np.eye(2), -1),
    lambda: floquet.powers(np.eye(2), 2.5),
    lambda: floquet.powers(np.eye(2), True),
    lambda: fock.default_cutoff(0.1, True),
    lambda: fock.default_cutoff(0.1, 2.5),
    lambda: fock.default_cutoff(0.1, math.nan),
], ids=["schedule-true", "schedule-false", "schedule-np-bool", "schedule-2.5",
        "schedule-nan", "schedule-str", "fock-state-modes-true", "fock-state-cutoff-true",
        "fock-state-cutoff-4.5", "fock-state-modes-3", "hamiltonian-cutoff-inf",
        "hamiltonian-cutoff-true", "scan-cutoff-true", "scan-cutoff-2.5", "empty-scan-cutoff-2.5",
        "scan-cutoff-0", "scan-periods-0", "scan-periods-inf", "powers-negative",
        "powers-2.5", "powers-true", "default-cutoff-periods-true", "default-cutoff-periods-2.5",
        "default-cutoff-periods-nan"])
def test_invalid_count_rejected(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("call", [
    lambda: DriveSchedule(gamma=True, tau1=1, omega=False, tau2=1, periods=1),
    lambda: DriveSchedule(gamma=0.1, tau1=1.0, omega=0.5, tau2=np.bool_(True), periods=1),
    lambda: DriveSchedule.from_products(True, 0.5),
    lambda: floquet.classify(np.eye(2), True),
    lambda: ClassicalPendulumParams(2.0, True, 1.0),
    lambda: fock.build_hamiltonian(HamiltonianLabel.TWO_MODE_STABLE, True, 4),
    lambda: fock.zeno_threshold_scan(False, [0.5], cutoff=4, periods=3),
    lambda: cli.coupling_rate(220.0, 2e-23, 3e15, 3e15, True),
    lambda: floquet.pair_map(True, 0.5),
    lambda: floquet.pair_map(0.5, np.bool_(True)),
    lambda: floquet.pair_map(np.array([True, False]), [0.5]),
    lambda: floquet.classify(np.eye(2), 1.0, epsilon=True),
    lambda: floquet.classify_stack(np.eye(2)[None], 1.0, epsilon=np.bool_(True)),
    lambda: fock.default_cutoff(True, 10),
], ids=["schedule-rates", "schedule-np-bool", "products-true", "classify-period-true",
        "pendulum-k2-true", "hamiltonian-coupling-true", "scan-gamma-false",
        "coupling-pump-true", "pair-map-true", "pair-map-np-bool", "pair-map-bool-axis",
        "classify-epsilon-true", "classify-stack-epsilon-np-bool", "default-cutoff-gamma-true"])
def test_bool_real_rejected(call):
    with pytest.raises(ValueError, match="must be finite"):
        call()


@pytest.mark.parametrize("call", [
    lambda: floquet.pair_map(math.nan, 0.0),
    lambda: floquet.pair_map(0.5, math.nan),
    lambda: floquet.pair_map(math.inf, 0.0),
    lambda: floquet.pair_map(0.5, -math.inf),
    lambda: floquet.pair_map(np.array([0.1, math.nan]), np.array([0.5])),
    lambda: floquet.pair_map(np.array([0.1]), [0.5, math.inf]),
    lambda: gaussian.pm_pair_maps(math.nan, 0.0),
    lambda: gaussian.vacuum_diverges(np.array([math.nan]), np.array([0.1]), 10, 1e4),
    lambda: floquet.classify(np.eye(2), 1.0, epsilon=math.nan),
    lambda: floquet.classify(np.eye(2), 1.0, epsilon=-1.0),
    lambda: floquet.classify_stack(np.stack([np.eye(2)] * 2), 1.0, epsilon=math.inf),
    lambda: fock.default_cutoff(math.nan, 10),
    lambda: fock.default_cutoff(-0.1, 10),
], ids=["pair-map-gamma-nan", "pair-map-omega-nan", "pair-map-gamma-inf",
        "pair-map-omega-minus-inf", "pair-map-gamma-axis-nan", "pair-map-omega-axis-inf",
        "pm-pair-maps-nan", "vacuum-diverges-nan", "classify-epsilon-nan",
        "classify-epsilon-negative", "classify-stack-epsilon-inf", "default-cutoff-gamma-nan",
        "default-cutoff-gamma-negative"])
def test_non_finite_or_negative_real_rejected(call):
    with pytest.raises(ValueError, match="must be finite"):
        call()


@pytest.mark.parametrize("call", [
    lambda: floquet.pair_map(np.zeros((2, 2)), np.array([0.5])),
    lambda: floquet.pair_map(np.array([0.1]), np.zeros((1, 1))),
    lambda: floquet.pair_map(0.1, np.array([0.5])),
    lambda: fock.zeno_threshold_scan(0.1, [[0.5], [1.0]], cutoff=10, periods=3),
], ids=["pair-map-2d-gamma", "pair-map-2d-omega", "pair-map-scalar-and-axis", "scan-2d-grid"])
def test_axis_shape_rejected(call):
    """``pair_map`` takes two scalars or two 1-D axes; a scan takes one 1-D grid."""
    with pytest.raises(ValueError, match="1-D"):
        call()


def test_signed_products_accepted():
    """The minus map is ``pair_map(-g, -w)``: a negative product is valid."""
    np.testing.assert_array_equal(floquet.pair_map(-0.5, -0.2),
                                  floquet.pair_map(np.array([-0.5]), np.array([-0.2]))[0, 0])


@pytest.mark.parametrize("cap", [math.nan, 0.0, -1.0], ids=["nan", "zero", "negative"])
@pytest.mark.parametrize("call", [
    lambda cap: gaussian.evolve(gaussian.vacuum_state(2),
                                DriveSchedule.from_products(0.1, 0.5, periods=3),
                                photon_cap=cap),
    lambda cap: fock.propagate(fock.vacuum_state(4), DriveSchedule.from_products(
        0.1, 0.5, periods=3), photon_cap=cap),
    lambda cap: gaussian.vacuum_diverges([1.0], [2.0], 100, cap),
], ids=["evolve", "propagate", "vacuum-diverges"])
def test_invalid_cap_rejected(call, cap):
    """A NaN cap would never trip and a cap <= 0 trips on the vacuum."""
    with pytest.raises(ValueError, match="photon_cap must be > 0"):
        call(cap)


# floats first: the Fock engine caches its tables per cutoff, and 17 == 17.0
@pytest.mark.parametrize("count", [3.0, np.float64(3.0), 3, np.int64(3)],
                         ids=["float", "np.float64", "int", "np.int64"])
def test_integral_counts_stored_as_int(count):
    schedule = DriveSchedule.from_products(0.1, 0.5, periods=count)
    assert type(schedule.periods) is int and schedule.periods == 3

    cutoff = count + 1  # 4 of the same type
    state = FockState(count - 1, cutoff, AMPS)
    assert (type(state.mode_count), type(state.cutoff)) == (int, int)
    assert (state.mode_count, state.cutoff, state.dim) == (2, 4, 25)
    traj = fock.propagate(state, schedule)
    assert traj.periods_completed == 3

    h = fock.build_hamiltonian(HamiltonianLabel.TWO_MODE_STABLE, 1.0, cutoff)
    assert h.shape == (25, 25)

    scan = fock.zeno_threshold_scan(0.1, [0.5], cutoff=4 * cutoff + 1, periods=count)
    assert scan == fock.zeno_threshold_scan(0.1, [0.5], cutoff=17, periods=3)
