"""Transfer matrices and stability analysis of the switched two-segment drive.

The drive alternates between an amplifying segment (rate ``gamma`` for a
duration ``tau1``, hyperbolic quadrature flow) and a photon-conserving
exchange segment (rate ``omega`` for ``tau2``, rotational flow).  One full
period is advanced by the monodromy matrix ``A = A_s @ A_u``, and the global
motion is stable or unstable according to whether ``|tr A| / 2`` is below or
above one.  Only the dimensionless products ``gamma * tau1`` and
``omega * tau2`` enter any matrix element, so all trigonometric and
hyperbolic evaluations are done on the products directly.

Matrices act on a single quadrature pair ``(x, p)`` and are plain 2x2
float ndarrays with determinant 1.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from itertools import repeat

import numpy as np

#: Half-trace distance from 1 below which a monodromy is reported Marginal.
DEFAULT_EPSILON = 1e-9

#: Floor of the tolerated determinant deviation for matrices fed to
#: :func:`classify`; larger matrices are allowed their rounding bound (see
#: :func:`_check_determinant`).
DET_TOL = 1e-9

#: Largest ``gamma*tau1`` for which every quantity formed from a pair map
#: stays finite in float64.  The largest of them, the squared Frobenius norm
#: ``|P|_F^2`` of one period's pair map in the sweep cross-check
#: (``gaussian.vacuum_diverges``), is about ``4 cosh(gamma*tau1)^2``: a
#: quarter of float64's maximum at this limit, a factor 4 left for rounding.
MAX_GAMMA_TAU1 = math.acosh(math.sqrt(sys.float_info.max / 16.0))


class InconsistentMatrixError(ValueError):
    """Raised when a matrix violates the unit-determinant precondition."""


class Classification(str, enum.Enum):
    """Three-way stability verdict for a periodic drive."""

    STABLE = "stable"
    MARGINAL = "marginal"
    UNSTABLE = "unstable"


def _require_real(name, value, positive=False):
    """Reject a ``value`` that is a bool, or is not a finite real ``>= 0``
    (``> 0`` if ``positive``)."""
    try:
        valid = math.isfinite(value) and (value > 0 if positive else value >= 0)
    except (TypeError, OverflowError):  # not a real number, or an int beyond float64
        valid = False
    if not valid or isinstance(value, (bool, np.bool_)):
        bound = "> 0" if positive else ">= 0"
        raise ValueError(f"{name} must be finite and {bound}, got {value!r}")


def _require_int(name, value, lo=0, hi=None):
    """``value`` as an ``int``: an integer or integral float, not a bool, in [lo, hi]."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):  # not a number, NaN, inf
        n = None
    if isinstance(value, (bool, np.bool_)) or n is None or n != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if n < lo or (hi is not None and n > hi):
        raise ValueError(f"{name} {n} outside [{lo}, {'inf' if hi is None else hi}]")
    return n


def _require_finite(name, value, kinds="iuf"):
    """``value`` as an array whose entries are finite numbers of the numpy
    dtype ``kinds`` (real by default), of any sign, and never a bool."""
    array = np.asarray(value)
    # a list mixing bools with numbers converts to a numeric dtype
    cells = () if isinstance(value, np.ndarray) else np.asarray(value, dtype=object).flat
    if (array.dtype.kind not in kinds or not np.isfinite(array).all()
            or any(isinstance(cell, (bool, np.bool_)) for cell in cells)):
        kind = "complex" if "c" in kinds else "real"
        raise ValueError(f"{name} must be finite and {kind}, got {value!r}")
    return array


def _require_amplitudes(alphas):
    """``alphas`` as a 1-D complex array, and the photon number ``|alpha|^2`` of
    each: finite numbers, never bools, with ``2 sum |alpha|^2`` (the largest
    photon sum that the Gaussian engine forms) finite in float64."""
    alphas = np.atleast_1d(np.asarray(_require_finite("alphas", alphas, "iufc"), dtype=complex))
    with np.errstate(over="ignore"):  # scalar abs: an array np.abs can differ in the last bit
        photons = np.array([abs(alpha) ** 2 for alpha in alphas])
        if not np.isfinite(2.0 * photons.sum()):
            raise ValueError(f"2 sum |alpha|^2 overflows float64 for alphas {alphas.tolist()!r}")
    return alphas, photons


def _require_cap(photon_cap):
    """Reject a photon cap that is a bool or is not ``> 0``; ``inf`` means no cap."""
    # a NaN cap would never trip and a non-positive one trips on the vacuum
    if isinstance(photon_cap, (bool, np.bool_)) or not photon_cap > 0:
        raise ValueError(f"photon_cap must be > 0 (inf for no cap), got {photon_cap!r}")


def _past_cap(totals, photon_cap):
    """Where the numpy photon ``totals`` are past the valid ``photon_cap``:
    above it or not finite.  The one cap test of every engine.

    One comparison per total: no total passes ``<= inf``, so the cap is
    clipped to the largest float, and an inf or NaN total fails it.
    """
    return ~(totals <= min(photon_cap, sys.float_info.max))


@dataclass(frozen=True)
class DriveSchedule:
    """Parameters of one switched-drive run.

    Parameters
    ----------
    gamma : float
        Amplifying (down-conversion) coupling rate, 1/s, >= 0.
    tau1 : float
        Duration of the amplifying segment, s, >= 0.
    omega : float
        Linear mode-exchange coupling rate, 1/s, >= 0.
    tau2 : float
        Duration of the exchange segment, s, >= 0.
    periods : int
        Number of full periods N, >= 0.
    """

    gamma: float
    tau1: float
    omega: float
    tau2: float
    periods: int

    def __post_init__(self):
        for name in ("gamma", "tau1", "omega", "tau2"):
            _require_real(name, getattr(self, name))
        object.__setattr__(self, "periods", _require_int("periods", self.periods))
        if self.periods > 0 and self.period <= 0:
            raise ValueError("period tau1 + tau2 must be positive when periods > 0")

    @property
    def period(self) -> float:
        """Full modulation period T = tau1 + tau2 in seconds."""
        return self.tau1 + self.tau2

    @property
    def gamma_tau1(self) -> float:
        return self.gamma * self.tau1

    @property
    def omega_tau2(self) -> float:
        return self.omega * self.tau2

    @classmethod
    def from_products(cls, gamma_tau1, omega_tau2, periods=1) -> "DriveSchedule":
        """Build a schedule from the dimensionless products with unit durations."""
        return cls(gamma=gamma_tau1, tau1=1.0, omega=omega_tau2, tau2=1.0,
                   periods=periods)


def _require_schedule(schedule):
    """Reject a ``schedule`` that is not a :class:`DriveSchedule`."""
    if not isinstance(schedule, DriveSchedule):
        raise ValueError(f"schedule must be a DriveSchedule, got {schedule!r}")


@dataclass(frozen=True)
class StabilityReport:
    """Stability verdict derived from a monodromy matrix.

    ``floquet_exponent`` is the per-unit-time growth rate
    ``ln(lambda_max) / period`` of the dominant monodromy eigenvalue; it is
    exactly zero unless the classification is unstable.
    """

    half_trace: float
    classification: Classification
    floquet_exponent: float
    period: float


@dataclass(frozen=True)
class ClassicalPendulumParams:
    """Rates and segment duration of the classical inverted-pendulum map.

    The physical regime requires ``k1 > k2 > 0``; both segments share the
    single duration ``tau``.
    """

    k1: float
    k2: float
    tau: float

    def __post_init__(self):
        for name in ("k1", "k2", "tau"):
            _require_real(name, getattr(self, name), positive=True)
        if not self.k1 > self.k2:
            raise ValueError(f"require k1 > k2 > 0, got k1={self.k1}, k2={self.k2}")


def _cosh_sinh(name, product):
    """``cosh`` and ``sinh`` of a product, which must lie in float64's range."""
    try:
        return math.cosh(product), math.sinh(product)
    except OverflowError:
        raise ValueError(f"cosh({name} = {float(product)!r}) exceeds "
                         "float64's range") from None


def _hyperbolic_transfer(product: float) -> np.ndarray:
    c, s = _cosh_sinh("gamma*tau1", product)
    return np.array([[c, s], [s, c]])


def _rotation_transfer(product: float) -> np.ndarray:
    c, s = math.cos(product), math.sin(product)
    return np.array([[c, s], [-s, c]])


def pair_map(gamma_tau1, omega_tau2) -> np.ndarray:
    """One-period map ``A_s(omega_tau2) @ A_u(gamma_tau1)`` of one quadrature pair.

    Every pair map of the package is this function with signed products: the
    amplifying segment acts first with ``A_u = [[cosh g, sinh g], [sinh g,
    cosh g]]``, the exchange segment second with the rotation ``A_s = [[cos
    w, sin w], [-sin w, cos w]]``; ``pair_map(g, 0.0)`` and ``pair_map(0.0,
    w)`` are the two segment matrices alone.  Two scalars give one 2x2
    matrix; two 1-D arrays give the maps of their product grid as a
    ``(len(gamma_tau1), len(omega_tau2), 2, 2)`` stack, from one transfer
    matrix per axis value and one batched matmul, equal bit for bit to the
    scalar maps.  Each product or axis value is finite and real, never a
    bool, and may be negative.
    """
    _require_finite("gamma_tau1", gamma_tau1)
    _require_finite("omega_tau2", omega_tau2)
    if {np.ndim(gamma_tau1), np.ndim(omega_tau2)} not in ({0}, {1}):
        raise ValueError("pair_map takes two scalars or two 1-D axes, got shapes "
                         f"{np.shape(gamma_tau1)} and {np.shape(omega_tau2)}")
    if np.ndim(gamma_tau1) == 0:
        return _scalar_pair_map(gamma_tau1, omega_tau2)
    hyp = np.array([_hyperbolic_transfer(g) for g in gamma_tau1])[:, None]
    rot = np.array([_rotation_transfer(w) for w in omega_tau2])[None, :]
    return rot @ hyp


def _scalar_pair_map(gamma_tau1, omega_tau2) -> np.ndarray:
    """:func:`pair_map` of two scalars, without its shape test."""
    return _rotation_transfer(omega_tau2) @ _hyperbolic_transfer(gamma_tau1)


def monodromy(schedule: DriveSchedule) -> np.ndarray:
    """One-period map ``A = A_s @ A_u`` (amplifying segment acts first)."""
    return _scalar_pair_map(schedule.gamma_tau1, schedule.omega_tau2)


def minus_mode_monodromy(schedule: DriveSchedule) -> np.ndarray:
    """One-period map of the time-reversed quadrature pair.

    The second decoupled pair evolves under both segment generators with
    opposite sign, so its monodromy is ``A_s(-w) @ A_u(-g)``.  Its trace
    equals the trace of :func:`monodromy`, hence the stability condition is
    shared by both pairs.
    """
    return _scalar_pair_map(-schedule.gamma_tau1, -schedule.omega_tau2)


_BAND = (Classification.STABLE, Classification.MARGINAL, Classification.UNSTABLE)
_BAND_VALUES = np.array([c.value for c in _BAND])
_CLASSIFICATION = {c.value: c for c in _BAND}
_FOUR_EPS = 4.0 * np.finfo(float).eps


def _check_determinant(a, b, c, d):
    """Reject maps whose determinant ``a*d - b*c`` is not 1 within rounding.

    Works on the Python floats of one map and on arrays of entries.  An
    entry of a product of two 2x2 factors carries a rounding error of a few
    eps times the Frobenius norm ``|A|_F``, so the determinant, bilinear in
    the entries, moves by a few eps times ``|A|_F^2``; the largest deviation
    over 60000 random pair maps (``gamma*tau1`` up to 354) and 20000 pendulum
    maps was 1.1 eps ``|A|_F^2``, and the factor 4 leaves a margin above
    that.  ``DET_TOL`` is the floor for small maps.  A NaN determinant fails the test, and so does
    a map whose squared entries are not finite.
    """
    det = a * d - b * c
    norm_sq = a * a + b * b + c * c + d * d
    if isinstance(norm_sq, float):
        # max keeps a NaN first argument, as np.maximum keeps any NaN
        tol = max(_FOUR_EPS * norm_sq, DET_TOL)
        bad = [] if abs(det - 1.0) <= tol and norm_sq < math.inf else [0]
    else:
        tol = np.maximum(DET_TOL, _FOUR_EPS * norm_sq)
        bad = np.flatnonzero(~((abs(det - 1.0) <= tol) & (norm_sq < math.inf)))
    if len(bad):
        raise InconsistentMatrixError(
            f"determinant {float(np.ravel(det)[bad[0]])!r} deviates from 1 by "
            f"more than {float(np.ravel(tol)[bad[0]])!r}")


def _band_index(half_trace, epsilon):
    """0 stable, 1 marginal, 2 unstable: the index into ``_BAND``."""
    return 1 - (half_trace < 1.0 - epsilon) + (half_trace > 1.0 + epsilon)


def _floquet_exponent(half_trace, period):
    """Growth rate ``ln(lambda_max) / period`` of an unstable map.

    Computed with ``math`` per value: ``np.log`` differs from ``math.log`` in
    the last bit on some half-traces.
    """
    return math.log(half_trace + math.sqrt(half_trace**2 - 1.0)) / period


def classify(monodromy_matrix: np.ndarray, period: float,
             epsilon: float = DEFAULT_EPSILON) -> StabilityReport:
    """Classify a one-period map by its half-trace: the report of
    :func:`classify_stack` on the one map.

    Parameters
    ----------
    monodromy_matrix : (2, 2) array
        Area-preserving one-period map; its determinant must equal 1 within
        rounding (see :func:`_check_determinant`).
    period : float
        Duration T of one period, used to convert the per-period eigenvalue
        growth into a rate.
    epsilon : float
        Width of the marginal band around half-trace 1, finite and ``>= 0``.

    Returns
    -------
    StabilityReport
    """
    m = np.asarray(monodromy_matrix, dtype=float)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    half_trace, classification, exponent = classify_stack(m, period, epsilon)
    return StabilityReport(half_trace=float(half_trace),
                           classification=_CLASSIFICATION[classification],
                           floquet_exponent=float(exponent), period=period)


def classify_stack(maps: np.ndarray, period: float,
                   epsilon: float = DEFAULT_EPSILON):
    """:func:`classify` of a whole stack of one-period maps in one pass.

    Parameters
    ----------
    maps : (..., 2, 2) array
        One-period maps, such as the grid stack of :func:`pair_map`; every
        determinant must equal 1 within rounding.  A single (2, 2) map is a
        stack of shape ``()``, with scalar results.
    period, epsilon
        As for :func:`classify`.

    Returns
    -------
    (half_trace, classification, floquet_exponent)
        Arrays of the stack's shape: float half-traces, the
        :class:`Classification` values as strings, and float exponents.
        Every entry equals the field :func:`classify` gives for its map.
    """
    m = np.asarray(maps, dtype=float)
    if m.shape[-2:] != (2, 2):
        raise ValueError(f"expected a stack of 2x2 matrices, got shape {m.shape}")
    _require_real("period", period, positive=True)
    _require_real("epsilon", epsilon)
    if m.ndim == 2:
        # the entries of a single map as Python floats, whose arithmetic
        # gives numpy's bits at a fraction of the cost of numpy scalars
        a, b, c, d = m.ravel().tolist()
    else:
        a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    _check_determinant(a, b, c, d)
    half_trace = abs(a + d) / 2.0
    band = _band_index(half_trace, epsilon)
    if m.ndim == 2:
        exponent = _floquet_exponent(half_trace, period) if band == 2 else 0.0
    else:
        exponent = np.zeros(half_trace.shape)
        unstable = band == 2
        # _floquet_exponent without a Python loop: pow(h, 2.0) is h**2 (libm
        # pow, which h * h is not), np.sqrt is correctly rounded as
        # math.sqrt is, and np.log is not math.log
        h = half_trace[unstable]
        squares = np.fromiter(map(pow, h.tolist(), repeat(2.0)), float, h.size)
        arguments = (h + np.sqrt(squares - 1.0)).tolist()
        exponent[unstable] = np.fromiter(map(math.log, arguments), float, h.size) / period
    return half_trace, _BAND_VALUES[band], exponent


def classify_schedule(schedule: DriveSchedule) -> StabilityReport:
    """Monodromy construction and classification in one step."""
    return classify(monodromy(schedule), schedule.period)


def powers(maps, periods: int) -> np.ndarray:
    """``maps^0 .. maps^periods`` of one square map or a stack, stacked on axis 0.

    Prefix doubling: with ``maps^0 .. maps^k`` known, ``maps^(k+1) ..
    maps^(2k)`` are ``maps^1 .. maps^k`` times ``maps^k`` in one batched
    matmul, so the table takes ``log2(periods)`` Python steps.  The entries
    of ``maps`` are finite and real.
    """
    periods = _require_int("periods", periods)
    m = np.asarray(_require_finite("maps", maps), dtype=float)
    out = np.empty((periods + 1,) + m.shape)
    out[0] = np.eye(m.shape[-1])
    out[1:2] = m
    k = 1
    while k < periods:
        j = min(k, periods - k)
        out[k + 1:k + 1 + j] = out[1:1 + j] @ out[k]
        k += j
    return out


def classical_pendulum_monodromy(params: ClassicalPendulumParams):
    """One-period map and verdict of the classical inverted pendulum.

    The pivot-driven pendulum alternates between an inverted (rate ``k1``)
    and a hanging (rate ``k2``) configuration, each lasting ``tau``:

    ``A1 = [[cosh(k1 t), sinh(k1 t)/k1], [k1 sinh(k1 t), cosh(k1 t)]]``
    ``A2 = [[cos(k2 t),  sin(k2 t)/k2], [-k2 sin(k2 t), cos(k2 t)]]``

    and the map for a full period ``2 tau`` is ``A2 @ A1``.  Unlike the
    rescaled quadrature matrices, the off-diagonal entries carry the rate
    and its inverse; the determinant is still 1.

    Returns
    -------
    (ndarray, StabilityReport)
    """
    k1, k2, tau = params.k1, params.k2, params.tau
    u1, u2 = k1 * tau, k2 * tau
    ch, sh = _cosh_sinh("k1*tau", u1)
    a1 = np.array([[ch, sh / k1], [k1 * sh, ch]])
    a2 = np.array([[math.cos(u2), math.sin(u2) / k2],
                   [-k2 * math.sin(u2), math.cos(u2)]])
    a_cl = a2 @ a1
    return a_cl, classify(a_cl, 2.0 * tau)
