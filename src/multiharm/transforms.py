"""Binomial sums over harmonic-like numbers and generic binomial transforms.

The central object is S(a, b, m, n) = sum_{k=0..n} C(n,k) a^k b^(n-k) t(k, m)
where t(k, m) is the multiple harmonic-like number.  ``binomial_sum_direct``
is the literal sum; ``binomial_sum_closed`` is the independent closed form in
terms of Stirling numbers of the first kind; ``binomial_sum_m1/m2/m3`` are the
short specializations.  All routes must agree exactly on every input.

Conventions: 0^0 = 1 (so the m = 0 case collapses to (a+b)^n even at a = -b),
and any sum over an empty range is 0; n < 0 raises ``ValueError``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from multiharm.rational import RationalLike, binomial, factorial
from multiharm.sequences import _check_index, harmonic, harmonic_like, harmonic_order, stirling1

_ZERO = Fraction(0)
_ONE = Fraction(1)

#: A sequence supplied as an evaluation callback on indices 0..n.
SeqFn = Callable[[int], RationalLike]

#: (a, b) pairs exercising the degenerate and generic regimes of the binomial
#: sums: equal, opposite, zero on either side, integer and fractional mixes.
AB_FIXTURES: tuple[tuple[Fraction, Fraction], ...] = (
    (Fraction(1), Fraction(1)),
    (Fraction(-1), Fraction(1)),
    (Fraction(2), Fraction(1)),
    (Fraction(1), Fraction(2)),
    (Fraction(1, 2), Fraction(-1, 3)),
    (Fraction(3), Fraction(-2)),
    (Fraction(0), Fraction(1)),
    (Fraction(1), Fraction(0)),
)


def _powers(x: Fraction, n: int) -> list[Fraction]:
    _check_index(n)  # every binomial-sum route starts here
    out = [_ONE]
    for _ in range(n):
        out.append(out[-1] * x)
    return out


def binomial_sum_direct(a: RationalLike, b: RationalLike, m: int, n: int) -> Fraction:
    """The literal sum: sum_{k=0..n} C(n,k) a^k b^(n-k) t(k, m)."""
    a = Fraction(a)
    b = Fraction(b)
    a_pow = _powers(a, n)
    b_pow = _powers(b, n)
    total = _ZERO
    for k in range(n + 1):
        total += binomial(n, k) * a_pow[k] * b_pow[n - k] * harmonic_like(k, m)
    return total


def binomial_sum_closed(a: RationalLike, b: RationalLike, m: int, n: int) -> Fraction:
    """Closed form of the binomial sum via Stirling numbers of the first kind:

    sum_{j=0..m} C(m,j) sum_{k=0..n} t(k,j) (a+b)^k (m-j)!/(n-k)! (-1)^(n-k)
        b^(n-k) s(n-k, m-j)
    """
    a = Fraction(a)
    b = Fraction(b)
    ab_pow = _powers(a + b, n)
    b_pow = _powers(b, n)
    total = _ZERO
    for j in range(m + 1):
        outer = binomial(m, j) * factorial(m - j)
        for k in range(n + 1):
            st = stirling1(n - k, m - j)
            if st == 0:
                continue
            sign = -1 if (n - k) % 2 else 1
            total += (
                outer
                * harmonic_like(k, j)
                * ab_pow[k]
                * Fraction(sign * st, factorial(n - k))
                * b_pow[n - k]
            )
    return total


def binomial_sum_m1(a: RationalLike, b: RationalLike, n: int) -> Fraction:
    """m = 1 specialization: H_n (a+b)^n - sum_{k=0..n-1} (a+b)^k b^(n-k) / (n-k)."""
    a = Fraction(a)
    b = Fraction(b)
    ab_pow = _powers(a + b, n)
    b_pow = _powers(b, n)
    correction = _ZERO
    for k in range(n):
        correction += ab_pow[k] * b_pow[n - k] / (n - k)
    return harmonic(n) * ab_pow[n] - correction


def binomial_sum_m2(a: RationalLike, b: RationalLike, n: int) -> Fraction:
    """m = 2 specialization:
    t(n,2) (a+b)^n + 2 sum_{k=1..n} (a+b)^(n-k) b^k (H_{k-1} - H_{n-k}) / k.
    """
    a = Fraction(a)
    b = Fraction(b)
    ab_pow = _powers(a + b, n)
    b_pow = _powers(b, n)
    correction = _ZERO
    for k in range(1, n + 1):
        correction += ab_pow[n - k] * b_pow[k] * (harmonic(k - 1) - harmonic(n - k)) / k
    return harmonic_like(n, 2) * ab_pow[n] + 2 * correction


def binomial_sum_m3(a: RationalLike, b: RationalLike, n: int) -> Fraction:
    """m = 3 specialization: t(n,3) (a+b)^n minus three times the correction sum
    with weights H_{k-1}^2 - H_{k-1}^(2) - 2 H_{k-1} H_{n-k} + H_{n-k}^2 - H_{n-k}^(2).
    """
    a = Fraction(a)
    b = Fraction(b)
    ab_pow = _powers(a + b, n)
    b_pow = _powers(b, n)
    correction = _ZERO
    for k in range(1, n + 1):
        hk = harmonic(k - 1)
        hn = harmonic(n - k)
        weight = (
            hk * hk
            - harmonic_order(k - 1, 2)
            - 2 * hk * hn
            + hn * hn
            - harmonic_order(n - k, 2)
        )
        correction += ab_pow[n - k] * b_pow[k] * weight / k
    return harmonic_like(n, 3) * ab_pow[n] - 3 * correction


def binomial_transform(seq: SeqFn, n: int, signed: bool = True) -> Fraction:
    """Binomial transform at index n of a sequence callback defined on 0..n.

    Signed: sum_{k=0..n} C(n,k) (-1)^k seq(k).  Unsigned drops the sign.  The
    signed transform is an involution: applying it twice returns the original
    sequence.
    """
    _check_index(n)
    total = _ZERO
    for k in range(n + 1):
        term = binomial(n, k) * Fraction(seq(k))
        if signed and k % 2:
            total -= term
        else:
            total += term
    return total
