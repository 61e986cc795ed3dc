"""The exact-arithmetic kernels, in plain Python.

The three series kernels take and return integers only: a truncated series
is an integer numerator vector, and the caller (``TruncatedSeries``) keeps
the one denominator they share and converts to and from ``Fraction``.
``cauchy_product`` is the primary route of every series product.

* ``cauchy_product(a, b, order)`` is a Kronecker substitution (Harvey 2009,
  "Faster polynomial multiplication via multipoint Kronecker substitution"):
  each integer vector is packed into one exact ``decimal.Decimal`` with a
  slot of ``d`` decimal digits per coefficient (the vector evaluated at
  ``10**d``), one ``Context.multiply`` gives every coefficient, and the
  product is unpacked.  libmpdec multiplies large operands by a
  number-theoretic transform (Schoenhage-Strassen 1971), where CPython's int
  multiply is Karatsuba: 0.015 s against 0.052 s for 470k-bit operands
  (CPython 3.11.7, libmpdec 2.5.1, 2 cores).  Slot ``n`` holds ``h_n = sum a_k
  b_(n-k)``, so ``|h_n| <= min(len a, len b) * max|a| * max|b|``, and ``d``
  is the digit count of twice that bound.  Adding ``5 * 10**(d-1)`` to every
  slot makes each one non-negative without a borrow from its neighbour, so
  one ``format(..., "f")`` string and slices of it read every coefficient.
  Ints go in and out by ``Context.create_decimal`` and ``int(Decimal)``,
  never ``str(int)`` or ``int(str)``, which refuse more than
  ``sys.get_int_max_str_digits()`` digits.  The module context ``_EXACT``
  traps ``Inexact`` and ``Rounded``, so a result is exact or raises; the
  thread's ``decimal.getcontext()`` is never modified.  When ``a is b`` (as in
  ``f * f`` and every step of ``f ** m``) the vector is packed once and
  squared, 1.4 times as fast as a general multiply of that size (0.0105 s).
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
square ``h^2`` in ``sqrt_series`` takes the squaring path.  Nothing in the
package calls the Newton kernels any more (``series.power_of_one_minus``
builds ``(1 - 4z)^(-1/2)`` directly); they stay only because the benchmark
harness under ``perfbench/`` reads them by name, until that harness is
revised (ROADMAP item 1).

``harmonic_like_levels`` is only the cross-check route
``sequences.harmonic_like_convolution``: the primary
``sequences.harmonic_like`` table uses a first-order recurrence of its own.
``stirling1_rows`` tabulates the whole triangle; no route calls it, because
``sequences.stirling1`` grows only the columns it needs.  ``BACKEND`` is
likewise kept only for the benchmark's run metadata.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Inexact, InvalidOperation, Overflow, Rounded
from fractions import Fraction
from math import gcd

BACKEND = "pure"

_ZERO = Fraction(0)
_ONE = Fraction(1)

#: Exact decimal arithmetic: a result that would need rounding raises instead.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                 traps=[Inexact, Rounded, InvalidOperation, Overflow])
_EXACT_ZERO = _EXACT.create_decimal(0)


def _at_power(values, size):
    """sum(values[i] * 10**(size*i)) for a list of Decimals, merged pairwise."""
    while len(values) > 1:
        if len(values) % 2:
            values.append(_EXACT_ZERO)
        values = [_EXACT.add(lo, _EXACT.scaleb(hi, size)) for lo, hi in zip(values[::2], values[1::2])]
        size *= 2
    return values[0]


def _pack(a, size):
    """The integer vector ``a`` evaluated at ``10**size``, as one exact ``Decimal``."""
    return _at_power(list(map(_EXACT.create_decimal, a)), size)


def _convolve(a, b, lo, hi):
    """Coefficients lo..hi-1 of the product of the integer vectors a and b.

    When ``a is b`` the vector is packed once and the packed value is squared.
    """
    square = a is b
    a = a[:hi]
    b = a if square else b[:hi]
    bound = min(len(a), len(b)) * max(map(abs, a), default=0) * max(map(abs, b), default=0)
    if not bound:
        return [0] * (hi - lo)
    size = _EXACT.create_decimal(2 * bound).adjusted() + 1  # digits of 2 * bound
    half = 5 * 10 ** (size - 1)
    packed = _pack(a, size)
    product = _EXACT.multiply(packed, packed if square else _pack(b, size))
    del packed
    # Bias every slot by half: slot n then holds h_n + half in [0, 10**size),
    # so no slot borrows from the next and the digit string is the slots'.
    slots = len(a) + len(b) - 1
    product = _EXACT.add(product, _at_power([_EXACT.create_decimal(half)] * slots, size))
    end = size * slots
    digits = format(product, "f").zfill(end)
    del product
    top = min(hi, slots)  # slots at or past len(a) + len(b) - 1 are 0
    return [
        int(_EXACT.create_decimal(digits[end - size * (n + 1) : end - size * n])) - half
        for n in range(lo, top)
    ] + [0] * (hi - max(lo, top))


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
