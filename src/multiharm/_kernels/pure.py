"""Pure-Python kernels for the exact-arithmetic inner loops.

The three series kernels work on integer vectors over one shared denominator
and multiply them by Kronecker substitution (Harvey 2009, "Faster polynomial
multiplication via multipoint Kronecker substitution"):

* ``cauchy_product`` scales each factor to integers over the lcm of its
  denominators, packs each integer vector into one big int with a
  fixed-width slot per coefficient (the vector evaluated at ``2**w``), does
  one big-int multiply and unpacks the product.  Slot ``n`` of the product
  holds ``h_n = sum a_k b_(n-k)``, a sum of at most ``min(len a, len b)``
  terms, so ``|h_n| <= min(len a, len b) * max|a| * max|b|``.  The slot width
  ``w`` is that bound's bit length plus one sign bit, rounded up to whole
  bytes.  Adding ``2**(w-1)`` to every slot makes each one non-negative
  without a carry into its neighbour, so one ``to_bytes`` and byte slices
  read every coefficient (a shift-and-mask loop would be quadratic in the
  size of the product).  Coefficient ``n`` is ``Fraction(h_n, da * db)``.
* ``invert_series`` runs the Newton iteration ``g <- g (2 - f g)``.  If ``g``
  is right to ``k`` terms the result is right to ``2k``, and only the new
  terms ``k..2k-1`` need computing: they are ``-(g r)``, where ``r`` holds
  the terms ``k..2k-1`` of ``f g``.
* ``sqrt_series`` runs Newton for the inverse square root,
  ``h <- h (3 - f h^2) / 2`` (new terms ``-(h r) / 2``, with ``r`` the terms
  ``k..2k-1`` of ``f h^2``), then returns ``f h``.

All arithmetic is exact, so every coefficient equals what the schoolbook
``Fraction`` loops give.  The Newton steps call the private integer
convolution ``_convolve`` directly, never the public ``cauchy_product``.

``harmonic_like_levels`` and ``stirling1_rows`` are plain tabulations.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

BACKEND = "pure"

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _to_integers(f):
    """(a, d) with f[i] == a[i] / d, where d is the lcm of the denominators."""
    d = lcm(*[c.denominator for c in f])
    return [c.numerator * (d // c.denominator) for c in f], d


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
    """Coefficients lo..hi-1 of the product of the integer vectors a and b."""
    a = a[:hi]
    b = b[:hi]
    bound = min(len(a), len(b)) * max(map(abs, a), default=0) * max(map(abs, b), default=0)
    if not bound:
        return [0] * (hi - lo)
    size = (bound.bit_length() + 8) // 8  # bound bits + sign bit, in whole bytes
    width = 8 * size
    half = 1 << (width - 1)
    product = _pack(a, size) * _pack(b, size)
    # Bias slots 0..hi-1 by 2**(w-1); they then hold h_n + 2**(w-1) in [0, 2**w).
    biased = product + int.from_bytes((bytes(size - 1) + b"\x80") * hi, "little")
    window = (biased >> (width * lo)) & ((1 << (width * (hi - lo))) - 1)
    raw = window.to_bytes(size * (hi - lo), "little")
    return [int.from_bytes(raw[i : i + size], "little") - half for i in range(0, len(raw), size)]


def cauchy_product(f, g, order):
    """Coefficients 0..order of f*g; inputs indexable sequences of Fraction."""
    if order < 0:
        return []
    a, da = _to_integers(f[: order + 1])
    b, db = _to_integers(g[: order + 1])
    den = da * db
    return [Fraction(h, den) for h in _convolve(a, b, 0, order + 1)]


def invert_series(f):
    """Coefficients of g with f*g = 1 up to len(f)-1.  Requires f[0] != 0."""
    length = len(f)
    a, d = _to_integers(f)
    out = [_ONE / f[0]]
    k = 1
    while k < length:
        nk = min(2 * k, length)
        b, e = _to_integers(out)
        r = _convolve(a, b, k, nk)  # terms k..nk-1 of f*g, times d*e
        den = d * e * e
        out.extend(Fraction(-h, den) for h in _convolve(b, r, 0, nk - k))
        k = nk
    return out


def sqrt_series(f):
    """Coefficients of g with g*g = f up to len(f)-1.  Requires f[0] == 1."""
    length = len(f)
    a, d = _to_integers(f)
    inv = [_ONE]  # f**(-1/2), right to k terms
    k = 1
    while k < length:
        nk = min(2 * k, length)
        b, e = _to_integers(inv)
        square = _convolve(b, b, 0, nk)  # inv**2, times e**2
        r = _convolve(a, square, k, nk)  # terms k..nk-1 of f*inv**2, times d*e**2
        den = 2 * d * e**3
        inv.extend(Fraction(-h, den) for h in _convolve(b, r, 0, nk - k))
        k = nk
    b, e = _to_integers(inv)
    den = d * e
    return [Fraction(h, den) for h in _convolve(a, b, 0, length)]


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
