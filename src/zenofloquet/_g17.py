"""Exact vectorised float texts for the CSV and JSON writers: ``"%.17g" % v``
and the shortest round-trip ``repr(v)``.

A float64 array in, an object array of its texts out, the bytes of the ``%``
operator or of ``float.__repr__``.  The 17 significant digits of a value
``x`` with decimal exponent ``X`` are the exact product ``P = x * 10**(16 -
X)`` rounded to an integer, ties to even: Dekker's two-product (T. J.
Dekker, Numer. Math. 18, 1971) gives that product exactly as ``hi + lo``.
The shortest digits that read back as ``x`` are, of the multiples of the
largest power of ten that lie within half a float spacing of ``P``, the one
nearest ``P`` (Steele & White, PLDI 1990; Adams, PLDI 2018).  The digits are
laid out as text on one byte canvas, with fixed slices per run of one sign
and exponent.  numpy only, and no ``np.strings``, which numpy 1.24 lacks.

The CLI's one float-text path, ``cli._float_texts``, imports this module
on first use, for a block with ``cli._G17_FLOOR`` distinct floats or more.
"""

from __future__ import annotations

import numpy as np

#: ``10.0 ** k`` for k in 0..20, each exact in float64.
_POW10 = np.array([float(10**k) for k in range(21)])
#: The floats of ``1e-3, 1e-2, ..., 1e15``: the decades of ``[1e-4, 1e16)`` start there.
_DECADES = np.array([float(f"1e{k}") for k in range(-3, 16)])
#: Canvas width of one text: a sign, "0.000" and 17 digits, and a terminator.
_WIDTH = 24
#: Row ``n`` marks the first ``n + 1`` columns: a text of ``n`` bytes and its terminator.
_KEEP = np.arange(_WIDTH) <= np.arange(_WIDTH)[:, None]


def _digit_quads():
    """The four ASCII digits of each of 0000..9999, as one uint32 each,
    built from the 100 digit pairs with no temporary larger than the table:
    larger temporaries raised the chart process's peak RSS."""
    pairs = np.frombuffer("".join(map("{:02d}".format, range(100))).encode(), np.uint8)
    quads = np.empty((100, 100, 4), np.uint8)
    quads[..., :2] = pairs.reshape(100, 1, 2)
    quads[..., 2:] = pairs.reshape(100, 2)
    return quads.view(np.uint32).ravel()


_DIGIT_QUADS = _digit_quads()


def _split(a):
    """Veltkamp's split of float64 ``a`` into halves of at most 26 bits each."""
    c = a * 134217729.0  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


#: The Veltkamp halves of each ``_POW10`` entry.
_POW10_HIGH, _POW10_LOW = _split(_POW10)


def _decimal17(x):
    """``(D, X, r)`` of positive floats ``x`` in ``[1e-4, 1e16)``: the decimal
    exponent ``X = floor(log10(x))``, the 17 significant digits ``D``, the
    exact ``P = x * 10**(16 - X)`` rounded to an integer, ties to even, and
    the exact remainder ``r = P - D`` in ``[-1/2, 1/2]``.

    ``X`` counts the powers of ten at or below ``x``: each of ``1e-4`` to
    ``1e-1`` rounds up to its float, and the others are exact, so no float
    falls between a power and its float.  The product is Dekker's
    two-product ``hi + lo``, exact: with both factors split, each partial
    product is exact and so is every sum that takes ``hi`` apart; every
    product is its own ufunc call, so no step is fused into one rounding.
    ``hi`` is in ``[1e16, 1e17]`` and ``1e16 > 2**53``, so ``hi`` is an even
    integer and ``hi + rint(lo)`` is the rounding.  It never reaches
    ``10**17``: no float of ``[1e-4, 1e16)`` lies within half a unit of the
    17th digit below the next power of ten, so no rounding carries into the
    next decade.  ``r = lo - rint(lo)`` is exact: a multiple of the float
    spacing at ``lo`` and no larger than ``|lo|``.
    """
    exp = np.searchsorted(_DECADES, x, side="right") - 4
    scale = 16 - exp
    hi = x * _POW10[scale]
    x_high, x_low = _split(x)
    p_high, p_low = _POW10_HIGH[scale], _POW10_LOW[scale]
    lo = x_high * p_high
    lo -= hi
    lo += x_high * p_low
    lo += x_low * p_high
    lo += x_low * p_low
    rounded = np.rint(lo)
    digits = hi.astype(np.int64)
    digits += rounded.astype(np.int64)
    lo -= rounded
    return digits, exp, lo


def _shortest(x, digits17, exp, residual):
    """``(S, ok)`` for positive floats ``x`` in ``[1e-4, 1e16)`` and their
    :func:`_decimal17`: the shortest digits ``S`` that read back as ``x``,
    nearest ``x``, as ``repr`` writes them, scaled like ``D`` (so a 17-digit
    integer with trailing zeros), where ``ok``; elsewhere ``repr`` needs
    another rule.

    The reals that round to ``x`` fill the interval of half-width
    ``H = spacing(x) / 2 * 10**(16 - X)`` around ``P = D + r``.  ``H`` is a
    power of two times an exact power of ten, so exact; with ``x`` the
    integer significand ``M`` times the spacing, ``P = 2 M H``, so ``H`` lies
    in ``(0.55, 11.1)``.  The interval is narrower than 100, so it holds at
    most one multiple of 100, and a multiple of a higher power of ten inside
    is that one.  So ``S`` is the multiple of 100 nearest ``P`` if it lies
    inside, else the multiple of 10 nearest ``P`` if that does, else ``D``,
    since ``|r| <= 1/2 < H``.  Each test compares ``r`` with an exact
    difference of ``H`` and an integer, or compares integers, so none
    rounds.  The ends ``(2 M +- 1) H`` are odd multiples of ``H``: a multiple
    of ten only where ``H = 10`` (``x`` in ``[2**53, 1e16)``), and there
    ``P`` itself is one and no end is a multiple of 100.  So whether the
    ends belong to the interval never decides.  ``S`` never reaches
    ``10**17``: the power of ten above ``x`` would then read back as ``x``,
    but it rounds up to its own float or is one.

    Not ``ok``: powers of two, whose lower spacing is half the upper one,
    and a tie between two multiples of 10 inside, with none of 100.
    """
    bits = x.view(np.int64)
    # x = 1.f * 2**(b - 1023) for the biased exponent b, so spacing(x) / 2 =
    # 2**(b - 1076), the float of biased exponent b - 53 and significand 1
    half_gap = (((bits >> 52) - 53) << 52).view(np.float64) * _POW10[16 - exp]
    twice = 2 * residual
    shortest, tie = digits17, False
    for q in (10, 100):
        rem = digits17 % q
        gap = q - 2 * rem  # the distance from the midpoint of two multiples, doubled
        offset = (twice > gap) * q - rem  # to the nearer multiple
        inside = (offset - half_gap < residual) & (residual < offset + half_gap)
        shortest = np.where(inside, digits17 + offset, shortest)
        tie = np.where(inside, twice == gap, tie)
    return shortest, ((bits & (2**52 - 1)) != 0) & ~tie


def _digit_rows(digits17):
    """The 17 ASCII digits of each integer of ``[1e16, 1e17)``, one uint8 row
    each: four-digit groups from a table, and the ninth digit alone."""
    count = len(digits17)
    top, bottom = np.divmod(digits17, 10**9)  # the first 8 digits and the last 9
    middle, bottom = np.divmod(bottom, 10**8)
    halves = np.empty((count, 2), np.int32)  # the first 8 digits and the last 8
    halves[:, 0], halves[:, 1] = top, bottom
    groups = np.empty((count, 2, 2), np.int32)
    groups[..., 0], groups[..., 1] = np.divmod(halves, 10**4)
    quads = np.take(_DIGIT_QUADS, groups).view(np.uint8).reshape(count, 16)
    digits = np.empty((count, 17), np.uint8)
    digits[:, :8] = quads[:, :8]
    digits[:, 8] = middle
    digits[:, 8] += ord("0")
    digits[:, 9:] = quads[:, 8:]
    return digits


def _positional(digits, exp, negative, point):
    """The texts of 17-digit rows ``digits`` with decimal exponents ``exp`` in
    [-4, 15] and signs ``negative``, as ``%g`` writes them, or as ``repr``
    does if ``point``: it keeps ``.0`` on an integral value.  One str of
    texts each ended by a newline, in the order of the rows.

    Each run of consecutive rows of one ``(sign, exp)`` is laid out with
    fixed slices on one ``uint8`` canvas; trailing zeros (and a point with
    nothing after it) are cut by one compress.
    """
    count = len(digits)
    # significant digits: all but the trailing zeros; the first is never 0
    shown = 17 - np.argmax(digits[:, ::-1] != ord("0"), axis=1)
    length = np.where(exp < 0, shown + 1 - exp,
                      np.where(shown > exp + 1, shown + 1, exp + 1 + 2 * point)) + negative
    canvas = np.empty((count, _WIDTH), np.uint8)
    starts = np.flatnonzero((exp[1:] != exp[:-1]) | (negative[1:] != negative[:-1])) + 1
    for start, stop in zip([0, *starts.tolist()], [*starts.tolist(), count]):
        run, head, sign = canvas[start:stop], digits[start:stop], int(negative[start])
        e = int(exp[start])
        if sign:
            run[:, 0] = ord("-")
        if e >= 0:  # the integer digits, the point, the fraction digits
            run[:, sign:sign + e + 1] = head[:, :e + 1]
            run[:, sign + e + 1] = ord(".")
            run[:, sign + e + 2:sign + 18] = head[:, e + 1:]
        else:  # "0." and -1 - e zeros before the digits
            run[:, sign:sign + 1 - e] = np.frombuffer(b"0.000"[:1 - e], np.uint8)
            run[:, sign + 1 - e:sign + 18 - e] = head
    canvas.reshape(-1)[np.arange(0, count * _WIDTH, _WIDTH) + length] = ord("\n")
    return canvas[np.take(_KEEP, length, axis=0)].tobytes().decode("ascii")


def texts(values, fallback, shortest=False):
    """``"%.17g" % v`` of each value of a float64 array, or ``repr(v)`` if
    ``shortest``, byte for byte: an object array of str.

    Finite values with ``1e-4 <= |v| < 1e16``, which both write without an
    exponent, are formatted here (:func:`_decimal17`, :func:`_shortest`,
    :func:`_digit_rows`, :func:`_positional`); the rest (zeros, subnormals,
    NaN, infinities, values with an exponent, and those that
    :func:`_shortest` leaves) by ``fallback``, which takes a float64 array
    and returns the list of its texts.  Values in any order give the same
    texts.  Sorted by bit pattern, as the writer passes them, they come in
    at most 40 ``(sign, exponent)`` runs, the fast case; in another order,
    each change of sign or exponent starts a new run.
    """
    magnitude = np.abs(values)
    fast = np.flatnonzero((magnitude >= 1e-4) & (magnitude < 1e16))  # not NaN
    x = magnitude[fast]
    digits17, exp, residual = _decimal17(x)
    if shortest:
        digits17, ok = _shortest(x, digits17, exp, residual)
        if not ok.all():
            fast, digits17, exp = fast[ok], digits17[ok], exp[ok]
    cells = np.empty(len(values), dtype=object)
    slow = np.ones(len(values), dtype=bool)
    if fast.size:  # _positional lays out one run at least
        negative = np.signbit(values[fast])
        written = _positional(_digit_rows(digits17), exp, negative, shortest).split("\n")
        written.pop()  # after the last newline
        cells[fast] = written
        slow[fast] = False
    cells[slow] = fallback(values[slow])
    return cells
