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
], ids=["schedule-true", "schedule-false", "schedule-np-bool", "schedule-2.5",
        "schedule-nan", "schedule-str", "fock-state-modes-true", "fock-state-cutoff-true",
        "fock-state-cutoff-4.5", "fock-state-modes-3", "hamiltonian-cutoff-inf",
        "hamiltonian-cutoff-true", "scan-cutoff-true", "scan-cutoff-2.5", "empty-scan-cutoff-2.5",
        "scan-cutoff-0", "scan-periods-0", "scan-periods-inf"])
def test_invalid_count_rejected(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("call", [
    lambda: DriveSchedule(gamma=True, tau1=1, omega=False, tau2=1, periods=1),
    lambda: DriveSchedule(gamma=0.1, tau1=1.0, omega=0.5, tau2=np.bool_(True), periods=1),
    lambda: DriveSchedule.from_products(True, 0.5),
    lambda: floquet.unstable_segment_matrix(0.1, True),
    lambda: floquet.classify(np.eye(2), True),
    lambda: ClassicalPendulumParams(2.0, True, 1.0),
    lambda: fock.build_hamiltonian(HamiltonianLabel.TWO_MODE_STABLE, True, 4),
    lambda: fock.zeno_threshold_scan(False, [0.5], cutoff=4, periods=3),
    lambda: cli.coupling_rate(220.0, 2e-23, 3e15, 3e15, True),
], ids=["schedule-rates", "schedule-np-bool", "products-true", "segment-tau1-true",
        "classify-period-true", "pendulum-k2-true", "hamiltonian-coupling-true",
        "scan-gamma-false", "coupling-pump-true"])
def test_bool_real_rejected(call):
    with pytest.raises(ValueError, match="must be finite"):
        call()


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
