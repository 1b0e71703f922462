"""One rule per input kind at the library boundary.

Every period count, cutoff and mode count is an integer or an integral float,
never a bool, within its range; it is stored as an ``int``.  Every rate,
duration, coupling and product is a finite real, never a bool.  Each rejected
call below raises ``ValueError``, and each accepted count keeps a plain ``int``.
A standing check requires a row here for every public callable, unless it is
exempt.
"""

import ast
import functools
import math
from pathlib import Path

import numpy as np
import pytest

import zenofloquet
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
    lambda: DriveSchedule.from_products(0.1, 0.5, periods=math.inf),
    lambda: DriveSchedule.from_products(0.1, 0.5, periods=-1),
    lambda: fock.coherent_state(True, [0.5]),
    lambda: fock.coherent_state(math.nan, [0.5]),
    lambda: fock.coherent_state(math.inf, [0.5]),
    lambda: fock.coherent_state(0, [0.5]),
    lambda: fock.coherent_state(fock.MAX_CUTOFF[2] + 1, [0.5, 0.5]),
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
    lambda: gaussian.vacuum_state(True),
    lambda: gaussian.vacuum_state(1.5),
    lambda: gaussian.symplectic_form(True),
    lambda: fock.vacuum_state(5, True),
    lambda: fock.basis_index(3, True, 0),
    lambda: fock.number_state(3, 4),
], ids=["schedule-true", "schedule-false", "schedule-np-bool", "schedule-2.5",
        "schedule-nan", "schedule-str", "schedule-inf", "schedule-negative",
        "fock-coherent-cutoff-true", "fock-coherent-cutoff-nan", "fock-coherent-cutoff-inf",
        "fock-coherent-cutoff-0", "fock-coherent-cutoff-above-ceiling", "fock-state-modes-true",
        "fock-state-cutoff-true",
        "fock-state-cutoff-4.5", "fock-state-modes-3", "hamiltonian-cutoff-inf",
        "hamiltonian-cutoff-true", "scan-cutoff-true", "scan-cutoff-2.5", "empty-scan-cutoff-2.5",
        "scan-cutoff-0", "scan-periods-0", "scan-periods-inf", "powers-negative",
        "powers-2.5", "powers-true", "default-cutoff-periods-true", "default-cutoff-periods-2.5",
        "default-cutoff-periods-nan", "gaussian-vacuum-modes-true", "gaussian-vacuum-modes-1.5",
        "symplectic-form-modes-true", "fock-vacuum-modes-true", "basis-index-true",
        "number-state-occupation-4"])
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
    lambda: gaussian.vacuum_diverges(np.array([True]), [0.5], 10, 1e4),
    lambda: gaussian.pm_pair_maps([0.5], np.array([True])),
    lambda: fock.segment_unitary(np.eye(2), True),
    lambda: fock.coherent_state(40, True),
    lambda: fock.coherent_state(40, [0.5, True]),
    lambda: gaussian.coherent_state([True]),
    lambda: gaussian.squeezed_vacuum_state(True),
    lambda: gaussian.squeezed_vacuum_state([0.1], [True]),
    lambda: fock.zeno_threshold_scan(0.1, [0.5, True], cutoff=10, periods=3),
    lambda: gaussian.GaussianState([True, False], np.eye(2) / 2),
    lambda: FockState(1, 2, [True, False, False]),
    lambda: fock.segment_unitary(np.eye(2, dtype=bool), 1.0),
], ids=["schedule-rates", "schedule-np-bool", "products-true", "classify-period-true",
        "pendulum-k2-true", "hamiltonian-coupling-true", "scan-gamma-false",
        "coupling-pump-true", "pair-map-true", "pair-map-np-bool", "pair-map-bool-axis",
        "classify-epsilon-true", "classify-stack-epsilon-np-bool", "default-cutoff-gamma-true",
        "vacuum-diverges-bool-axis", "pm-pair-maps-bool-axis", "segment-unitary-duration-true",
        "fock-coherent-true", "fock-coherent-list-true", "gaussian-coherent-true",
        "squeezed-r-true", "squeezed-phi-true", "scan-grid-true", "gaussian-state-bool-mean",
        "fock-state-bool-amplitudes", "segment-unitary-bool-matrix"])
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
    lambda: floquet.powers(np.full((2, 2), math.nan), 3),
    lambda: floquet.powers(np.diag([math.inf, 1.0]), 3),
    lambda: gaussian.symplectic_eigenvalues(np.full((4, 4), math.nan)),
    lambda: gaussian.GaussianState([math.nan, 0.0], np.eye(2) / 2.0),
    lambda: DriveSchedule(gamma=math.nan, tau1=1.0, omega=0.5, tau2=1.0, periods=1),
    lambda: DriveSchedule(gamma=0.1, tau1=math.inf, omega=0.5, tau2=1.0, periods=1),
    lambda: DriveSchedule(gamma=0.1, tau1=1.0, omega=-math.inf, tau2=1.0, periods=1),
    lambda: DriveSchedule(gamma=0.1, tau1=1.0, omega=0.5, tau2=-1.0, periods=1),
    lambda: DriveSchedule.from_products("0.1", 1.0),
    lambda: DriveSchedule.from_products(0.1, None),
    lambda: DriveSchedule.from_products(10 ** 400, 1.0),
    lambda: gaussian.coherent_state([math.nan]),
    lambda: gaussian.coherent_state([0.5, math.inf]),
    lambda: gaussian.coherent_state([complex(0.0, -math.inf)]),
    lambda: fock.coherent_state(40, [math.nan]),
    lambda: fock.coherent_state(40, [0.5, math.inf]),
    lambda: fock.coherent_state(40, [complex(0.0, -math.inf)]),
    lambda: fock.segment_unitary(np.array([[math.nan, 0.0], [0.0, 1.0]]), 1.0),
    lambda: fock.segment_unitary(np.array([[1.0, math.inf], [math.inf, 1.0]]), 1.0),
], ids=["pair-map-gamma-nan", "pair-map-omega-nan", "pair-map-gamma-inf",
        "pair-map-omega-minus-inf", "pair-map-gamma-axis-nan", "pair-map-omega-axis-inf",
        "pm-pair-maps-nan", "vacuum-diverges-nan", "classify-epsilon-nan",
        "classify-epsilon-negative", "classify-stack-epsilon-inf", "default-cutoff-gamma-nan",
        "default-cutoff-gamma-negative", "powers-nan-map", "powers-inf-map",
        "symplectic-eigenvalues-nan", "gaussian-state-nan", "schedule-gamma-nan",
        "schedule-tau1-inf", "schedule-omega-minus-inf", "schedule-tau2-negative",
        "products-string", "products-none", "products-int-beyond-float64",
        "gaussian-coherent-nan", "gaussian-coherent-inf", "gaussian-coherent-minus-inf",
        "fock-coherent-nan", "fock-coherent-inf", "fock-coherent-minus-inf",
        "segment-unitary-nan-entry", "segment-unitary-inf-entry"])
def test_non_finite_or_negative_real_rejected(call):
    with pytest.raises(ValueError, match="must be finite"):
        call()


@pytest.mark.parametrize("alphas", [[1e200], [0.5, 1e155j], [complex(1.5e308, 1.5e308)],
                                    [1.2e154, 0.0], [9e153, 9e153]],
                         ids=["real", "imaginary", "complex", "quadrature-mean", "mode-sum"])
@pytest.mark.parametrize("call", [
    gaussian.coherent_state,
    functools.partial(fock.coherent_state, 10),
], ids=["gaussian-coherent", "fock-coherent"])
def test_amplitude_beyond_float64_rejected(call, alphas):
    """An amplitude is in range when float64 holds ``2 sum |alpha|^2``, the
    squared quadrature means of all modes; past that both engines raise one
    ``ValueError``, before any arithmetic that warns."""
    with pytest.raises(ValueError, match=r"2 sum \|alpha\|\^2 overflows float64"):
        call(alphas)


@pytest.mark.parametrize("mean", [[True, False], [math.nan, 0.0]], ids=["bool", "nan"])
def test_gaussian_state_entry_is_invalid_state(mean):
    """The shared finite-real rule, raised as the state's own error type."""
    with pytest.raises(gaussian.InvalidStateError, match="must be finite"):
        gaussian.GaussianState(mean, np.eye(2) / 2.0)


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


@pytest.mark.parametrize("h", [np.ones((2, 3)), np.ones(3), np.ones((2, 2, 2)), np.zeros((0, 0))],
                         ids=["2x3", "1-d", "3-d", "empty"])
def test_segment_unitary_takes_square_matrix(h):
    """A Hamiltonian is a nonempty square matrix, whatever its entries."""
    with pytest.raises(ValueError, match="h must be a nonempty square matrix"):
        fock.segment_unitary(h, 1.0)


@pytest.mark.parametrize("schedule", ["x", None, (0.1, 0.5, 3)], ids=["str", "none", "tuple"])
@pytest.mark.parametrize("call", [
    lambda schedule: gaussian.evolve(gaussian.vacuum_state(2), schedule),
    lambda schedule: fock.propagate(fock.vacuum_state(4), schedule),
    lambda schedule: floquet.monodromy(schedule),
    lambda schedule: floquet.minus_mode_monodromy(schedule),
    lambda schedule: floquet.classify_schedule(schedule),
    lambda schedule: gaussian.two_mode_period_symplectic(schedule),
], ids=["evolve", "propagate", "monodromy", "minus-mode-monodromy", "classify-schedule",
        "two-mode-period-symplectic"])
def test_schedule_must_be_drive_schedule(call, schedule):
    """Each engine and each one-period map names a wrong schedule as an
    engine names a wrong state."""
    with pytest.raises(ValueError, match="schedule must be a DriveSchedule"):
        call(schedule)


@pytest.mark.parametrize("params", ["x", None, (2.0, 1.0, 0.5)], ids=["str", "none", "tuple"])
@pytest.mark.parametrize("call", [
    lambda params: floquet.classical_pendulum_monodromy(params),
], ids=["pendulum-monodromy"])
def test_pendulum_params_must_be_params(call, params):
    """The pendulum map names wrong parameters as the drive maps name a
    wrong schedule."""
    with pytest.raises(ValueError, match="params must be a ClassicalPendulumParams"):
        call(params)


@pytest.mark.parametrize("call", [
    lambda g, w: gaussian.vacuum_diverges(g, w, 100, 1e4),
    lambda g, w: np.stack(gaussian.pm_pair_maps(g, w)),
], ids=["vacuum-diverges", "pm-pair-maps"])
def test_list_axes_accepted(call):
    """Axes are checked as ``pair_map`` checks them, before any is negated:
    a list is an axis, with the array axis's result."""
    np.testing.assert_array_equal(call([1.0, 0.1], [2.0]),
                                  call(np.array([1.0, 0.1]), np.array([2.0])))


def test_integral_mode_count_accepted():
    """A mode count is a count: the integral float 1.0 is the mode count 1."""
    state = fock.vacuum_state(5, 1.0)
    assert state.mode_count == 1
    np.testing.assert_array_equal(state.amplitudes, fock.vacuum_state(5, 1).amplitudes)
    np.testing.assert_array_equal(gaussian.vacuum_state(1.0).covariance, np.eye(2) / 2.0)
    np.testing.assert_array_equal(gaussian.symplectic_form(np.int64(1)), [[0, 1], [-1, 0]])


def test_signed_products_accepted():
    """The minus map is ``pair_map(-g, -w)``: a negative product is valid."""
    np.testing.assert_array_equal(floquet.pair_map(-0.5, -0.2),
                                  floquet.pair_map(np.array([-0.5]), np.array([-0.2]))[0, 0])


@pytest.mark.parametrize("cap", [math.nan, 0.0, -1.0, True, np.bool_(True)],
                         ids=["nan", "zero", "negative", "true", "np-bool"])
@pytest.mark.parametrize("call", [
    lambda cap: gaussian.evolve(gaussian.vacuum_state(2),
                                DriveSchedule.from_products(0.1, 0.5, periods=3),
                                photon_cap=cap),
    lambda cap: fock.propagate(fock.vacuum_state(4), DriveSchedule.from_products(
        0.1, 0.5, periods=3), photon_cap=cap),
    lambda cap: gaussian.vacuum_diverges([1.0], [2.0], 100, cap),
], ids=["evolve", "propagate", "vacuum-diverges"])
def test_invalid_cap_rejected(call, cap):
    """A NaN cap would never trip, a cap <= 0 trips on the vacuum, and a bool
    is never a number."""
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


#: The public callables with no row above, each with its reason: result, enum
#: and exception types.
EXEMPT = (
    (floquet.InconsistentMatrixError, "exception type"),
    (floquet.Classification, "enum"),
    (floquet.StabilityReport, "result type"),
    (gaussian.InvalidStateError, "exception type"),
    (gaussian.GaussianTrajectory, "result type"),
    (fock.HamiltonianLabel, "enum"),
    (fock.FockTrajectory, "result type"),
    (fock.ZenoScanPoint, "result type"),
)


def public_callables():
    """``{callable: qualified name}`` of every public callable that
    ``floquet``, ``gaussian`` or ``fock`` defines, and of every callable
    export of ``zenofloquet``."""
    found = {}
    for module in (floquet, gaussian, fock):
        for name, obj in vars(module).items():
            if (not name.startswith("_") and callable(obj)
                    and getattr(obj, "__module__", None) == module.__name__):
                found[obj] = f"{module.__name__}.{name}"
    for name in zenofloquet.__all__:
        obj = getattr(zenofloquet, name)
        if callable(obj):
            found.setdefault(obj, f"zenofloquet.{name}")
    return found


def row_subjects():
    """The callable that each row of this module calls: the function of the
    call that is the body of each lambda, resolved in this module."""
    tree = ast.parse(Path(__file__).read_text(encoding="utf-8"))
    subjects = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Lambda) and isinstance(node.body, ast.Call):
            first, *attrs = ast.unparse(node.body.func).split(".")
            subjects.add(functools.reduce(getattr, attrs, globals()[first]))
    return subjects


def test_every_public_callable_has_a_row():
    """The input rule is a standing check: a new public callable needs a row
    above or a reasoned place in ``EXEMPT``."""
    public, subjects = public_callables(), row_subjects()
    exempt = {obj for obj, reason in EXEMPT if reason}
    assert len(exempt) == len(EXEMPT)
    missing = sorted(name for obj, name in public.items()
                     if obj not in subjects and obj not in exempt)
    assert not missing, f"no input row and no exemption: {missing}"
    # an exemption names a public callable that has no row
    assert exempt <= public.keys()
    assert not exempt & subjects
