"""The exact-arithmetic kernels, in plain Python.

The three series kernels take and return integers only: a truncated series
is an integer numerator vector, and the caller (``TruncatedSeries``) keeps
the one denominator they share and converts to and from ``Fraction``.
``cauchy_product`` is the primary route of every series product.

* ``cauchy_product(a, b, order)`` is a Kronecker substitution (Harvey 2009,
  "Faster polynomial multiplication via multipoint Kronecker substitution"):
  each integer vector is packed into one big int with a fixed-width slot per
  coefficient (the vector evaluated at ``2**w``), one big-int multiply gives
  every coefficient, and the product is unpacked.  Slot ``n`` of the product
  holds ``h_n = sum a_k b_(n-k)``, a sum of at most ``min(len a, len b)``
  terms, so ``|h_n| <= min(len a, len b) * max|a| * max|b|``.  The slot width
  ``w`` is that bound's bit length plus one sign bit, rounded up to whole
  bytes.  Adding ``2**(w-1)`` to every slot makes each one non-negative
  without a carry into its neighbour, so one ``to_bytes`` and byte slices
  read every coefficient (a shift-and-mask loop would be quadratic in the
  size of the product).  When both arguments are the same object (``a is
  b``, as in ``f * f`` and every step of ``f ** m``) the vector is packed
  once and the packed int squared: CPython squares a big int about 1.5 times
  as fast as it multiplies two different ones of the same size (0.035 s
  against 0.054 s for 465k-bit operands, CPython 3.11.7).
* ``invert_series(a)`` returns ``(b, e)`` with ``a * b / e = 1`` up to the
  length of ``a``, by the Newton iteration ``g <- g (2 - a g)``.  If ``g`` is
  right to ``k`` terms the result is right to ``2k``, and only the new terms
  ``k..2k-1`` need computing: they are ``-(g r)``, where ``r`` holds the
  terms ``k..2k-1`` of ``a g``.
* ``sqrt_series(a)`` returns ``(b, e)`` with ``(b / e)**2 = a / a[0]``: the
  series is ``f = a / a[0]``, because its head must be 1.  It runs Newton for
  the inverse square root, ``h <- h (3 - f h^2) / 2`` (new terms
  ``-(h r) / 2``, with ``r`` the terms ``k..2k-1`` of ``f h^2``), then
  returns ``f h``.

Each Newton step keeps its iterate as integers over one denominator, divided
by their gcd.  All arithmetic is exact, so every coefficient equals what the
schoolbook ``Fraction`` loops give.  The Newton steps call the private
convolution ``_convolve`` directly, never the public ``cauchy_product``; the
square ``h^2`` in ``sqrt_series`` takes the squaring path.  No generating
function calls the Newton kernels any more (``series.power_of_one_minus``
builds ``(1 - 4z)^(-1/2)`` directly); they stay, with
``TruncatedSeries.inverse`` and ``.sqrt``, because the benchmark harness
under ``perfbench/`` reads them by name, until that harness is revised
(ROADMAP item 1).

``harmonic_like_levels`` is only the cross-check route
``sequences.harmonic_like_convolution``: the primary
``sequences.harmonic_like`` table uses a first-order recurrence of its own.
``stirling1_rows`` tabulates the whole triangle; no route calls it, because
``sequences.stirling1`` grows only the columns it needs.  ``BACKEND`` is
likewise kept only for the benchmark's run metadata.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

BACKEND = "pure"

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _pack(a, size):
    """The integer vector ``a`` evaluated at ``2**(8*size)``."""
    zero = bytes(size)
    packed = int.from_bytes(
        b"".join(x.to_bytes(size, "little") if x > 0 else zero for x in a), "little"
    )
    if min(a) < 0:
        packed -= int.from_bytes(
            b"".join((-x).to_bytes(size, "little") if x < 0 else zero for x in a), "little"
        )
    return packed


def _convolve(a, b, lo, hi):
    """Coefficients lo..hi-1 of the product of the integer vectors a and b.

    When ``a is b`` the vector is packed once and the packed int is squared.
    """
    square = a is b
    a = a[:hi]
    b = a if square else b[:hi]
    bound = min(len(a), len(b)) * max(map(abs, a), default=0) * max(map(abs, b), default=0)
    if not bound:
        return [0] * (hi - lo)
    size = (bound.bit_length() + 8) // 8  # bound bits + sign bit, in whole bytes
    width = 8 * size
    half = 1 << (width - 1)
    packed = _pack(a, size)
    product = packed * packed if square else packed * _pack(b, size)
    # Bias slots 0..hi-1 by 2**(w-1); they then hold h_n + 2**(w-1) in [0, 2**w).
    biased = product + int.from_bytes((bytes(size - 1) + b"\x80") * hi, "little")
    window = (biased >> (width * lo)) & ((1 << (width * (hi - lo))) - 1)
    raw = window.to_bytes(size * (hi - lo), "little")
    return [int.from_bytes(raw[i : i + size], "little") - half for i in range(0, len(raw), size)]


def _reduce(b, e):
    """(b, e) with every entry divided by gcd(e, *b)."""
    g = gcd(e, *b)
    if g == 1:
        return b, e
    return [x // g for x in b], e // g


def cauchy_product(a, b, order):
    """Coefficients 0..order of the product of the integer vectors a and b."""
    if order < 0:
        return []
    return _convolve(a, b, 0, order + 1)


def invert_series(a):
    """(b, e) with a * b / e = 1 up to z**(len(a)-1).  Requires a[0] != 0."""
    if not a[0]:
        raise ZeroDivisionError("series with zero constant term has no inverse")
    length = len(a)
    b, e = [1], a[0]
    k = 1
    while k < length:
        nk = min(2 * k, length)
        r = _convolve(a, b, k, nk)  # terms k..nk-1 of a*b, over e
        b, e = _reduce([x * e for x in b] + [-h for h in _convolve(b, r, 0, nk - k)], e * e)
        k = nk
    return b, e


def sqrt_series(a):
    """(b, e) with (b / e)**2 = a / a[0] up to z**(len(a)-1).  Requires a[0] != 0."""
    d = a[0]
    if not d:
        raise ZeroDivisionError("series sqrt needs a nonzero constant term")
    length = len(a)
    c, e = [1], 1  # (a / d)**(-1/2) is c / e, right to k terms
    k = 1
    while k < length:
        nk = min(2 * k, length)
        square = _convolve(c, c, 0, nk)  # h**2, over e**2
        r = _convolve(a, square, k, nk)  # terms k..nk-1 of f*h**2, over d*e**2
        scale = 2 * d * e * e
        c, e = _reduce([x * scale for x in c] + [-h for h in _convolve(c, r, 0, nk - k)], scale * e)
        k = nk
    return _convolve(a, c, 0, length), d * e


def harmonic_like_levels(n_max, m_max):
    """Table t[m][n] of multiple harmonic-like numbers for 0<=m<=m_max, 0<=n<=n_max.

    Level 0 is all ones; each next level is t[m+1][n] = sum_{j=1..n} t[m][n-j]/j.
    """
    levels = [[_ONE] * (n_max + 1)]
    recip = [_ZERO] + [Fraction(1, j) for j in range(1, n_max + 1)]
    for _ in range(m_max):
        prev = levels[-1]
        cur = [_ZERO]
        for n in range(1, n_max + 1):
            acc = _ZERO
            for j in range(1, n + 1):
                acc += prev[n - j] * recip[j]
            cur.append(acc)
        levels.append(cur)
    return levels


def stirling1_rows(n_max):
    """Rows 0..n_max of the signed Stirling triangle of the first kind."""
    rows = [[1]]
    for n in range(n_max):
        prev = rows[-1]
        row = [0] * (n + 2)
        for k in range(1, n + 2):
            row[k] = prev[k - 1] - n * (prev[k] if k <= n else 0)
        rows.append(row)
    return rows
