"""Exact scalar arithmetic: arbitrary-precision rationals and binomial machinery.

The universal scalar type is the stdlib :class:`fractions.Fraction`.  It
guarantees the invariants everything else relies on: the denominator is
always positive, numerator and denominator are always coprime, zero is
``0/1``, and all arithmetic is exact.  Values are immutable, so they are
safe to share across threads.  ``str()`` of a value is already the wire
format used by the CLI: ``"p/q"`` with the sign on the numerator, bare
``"p"`` when the denominator is 1; :func:`parse_rational` reads it back.

Division by zero raises :class:`ZeroDivisionError`; there is no silent
sentinel value anywhere in this package.
"""

from __future__ import annotations

import math
from fractions import Fraction

#: Accepted wherever a rational scalar is expected.
RationalLike = Fraction | int


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) for non-negative integer n.

    Returns 0 when k > n or k < 0, which matches the summation conventions
    used by every identity in this package (out-of-range terms vanish).
    """
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def factorial(n: int) -> int:
    """n! for non-negative integer n."""
    if n < 0:
        raise ValueError(f"factorial requires n >= 0, got n={n}")
    return math.factorial(n)


def gen_binomial(x: RationalLike, k: int) -> Fraction:
    """Generalized binomial coefficient C(x, k) = x(x-1)...(x-k+1) / k!.

    ``x`` may be any rational (negative, fractional, ...); ``k`` must be a
    non-negative integer.  Agrees with :func:`binomial` whenever x is a
    non-negative integer.
    """
    if k < 0:
        raise ValueError(f"gen_binomial requires k >= 0, got k={k}")
    x = Fraction(x)
    num = 1
    den = x.denominator**k * math.factorial(k)
    for i in range(k):
        num *= x.numerator - i * x.denominator
    return Fraction(num, den)


def gen_binomial_column(x: RationalLike, n: int) -> list[Fraction]:
    """C(x, k) for k = 0..n, each equal to :func:`gen_binomial` ``(x, k)``.

    One pass of C(x, k+1) = C(x, k) (x - k)/(k + 1) on the integer numerator
    and denominator, so the column costs one step per k where the values one
    by one would cost k steps each.  Past a non-negative integer x every
    value is 0.
    """
    if n < 0:
        raise ValueError(f"gen_binomial_column requires n >= 0, got n={n}")
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    num = den = 1
    column = [Fraction(1)]
    for k in range(n):
        num *= p - k * q
        den *= q * (k + 1)
        column.append(Fraction(num, den))
    return column


def parse_rational(text: str) -> Fraction:
    """Parse the exact wire format ("p/q" or bare "p") back into a Fraction."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc
