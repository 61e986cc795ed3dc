"""Binomial sums over harmonic-like numbers and generic binomial transforms.

The central object is S(a, b, m, n) = sum_{k=0..n} C(n,k) a^k b^(n-k) t(k, m)
where t(k, m) is the multiple harmonic-like number.  ``binomial_sum_direct``
is the literal sum at one n; ``binomial_sum_closed`` is the independent closed
form in terms of Stirling numbers of the first kind; ``binomial_sum_m1/m2/m3``
are the short specializations.  All routes must agree exactly on every input.
The closed routes return a column, the values at n = 0..n_max in order, each a
sum of Cauchy products along n taken as schoolbook convolutions of integers.

Each route adds integer numerators over one common denominator and reduces
each value once, at the end: with a = p/q and b = r/s it scales its terms by
a power of q s (or of v s, for a + b = u/v), by the lcm of the denominators
of the harmonic-like numbers it reads, and, where it weights by H_j or
H_j^(2), by a power of lcm(1..n).

The literal route shares nothing with the closed routes but the sequences
layer and the stdlib, so a fault in the closed routes' integer form cannot
scale both sides of a check alike.  The closed routes share ``_pair_powers``,
the integer form of (a + b, b), and the specializations share ``_short_form``,
the corollary shape; none of them is checked against another.

Conventions: 0^0 = 1 (so the m = 0 case collapses to (a+b)^n even at a = -b),
and any sum over an empty range is 0; n < 0 raises ``ValueError``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul
from typing import Callable, Iterator

from multiharm.rational import RationalLike, binomial, exact_sum, factorial
from multiharm.sequences import (
    _check_index, harmonic, harmonic_like, harmonic_like_column, harmonic_order, stirling1_column,
)

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


def _binomial_row(n: int) -> Iterator[int]:
    """C(n, 0), ..., C(n, n), each from the one before by one multiply and one exact division."""
    c = 1
    for k in range(n + 1):
        yield c
        c = c * (n - k) // (k + 1)


def binomial_sum_direct(a: RationalLike, b: RationalLike, m: int, n: int) -> Fraction:
    """The literal sum: sum_{k=0..n} C(n,k) a^k b^(n-k) t(k, m).

    With a = p/q and b = r/s, the sum is over L (q s)^n, L = lcm of the
    denominators of t(k, m); term k is C(n,k) (p s)^k (r q)^(n-k) t.num (L // t.den).
    """
    _check_index(n)
    a = Fraction(a)
    b = Fraction(b)
    p, q, r, s = a.numerator, a.denominator, b.numerator, b.denominator
    ps_pow = list(accumulate(repeat(p * s, n), mul, initial=1))
    rq_pow = list(accumulate(repeat(r * q, n), mul, initial=1))
    hl = [harmonic_like(k, m) for k in range(n + 1)]
    common = math.lcm(*[t.denominator for t in hl])
    total = sum(
        c * ps_pow[k] * rq_pow[n - k] * t.numerator * (common // t.denominator)
        for k, (c, t) in enumerate(zip(_binomial_row(n), hl))
    )
    return Fraction(total, common * (q * s) ** n)


def _pair_powers(x: RationalLike, y: RationalLike, n: int) -> tuple[list[int], ...]:
    """The closed routes' integer form of x = u/v and y = r/s: the powers 0..n
    of u s, of r v and of v s, so x^k y^(i-k) = (u s)^k (r v)^(i-k) / (v s)^i.
    """
    _check_index(n)
    x = Fraction(x)
    y = Fraction(y)
    u, v, r, s = x.numerator, x.denominator, y.numerator, y.denominator
    return tuple(list(accumulate(repeat(base, n), mul, initial=1)) for base in (u * s, r * v, v * s))


def binomial_sum_closed(a: RationalLike, b: RationalLike, m: int, n: int) -> list[Fraction]:
    """Closed form of the binomial sum via Stirling numbers of the first kind,
    at every index i = 0..n:

    sum_{j=0..m} C(m,j) sum_{k=0..i} t(k,j) (a+b)^k (m-j)!/(i-k)! (-1)^(i-k)
        b^(i-k) s(i-k, m-j)

    Level j is the Cauchy product of t(k,j) (a+b)^k and (-b)^l s(l,m-j)/l!.
    With a + b = u/v, b = r/s and L the lcm of the denominators of the t(k, j)
    read, output i is an integer over L (v s)^i n!: the schoolbook
    convolution of the integers t.num (L // t.den) (u s)^k and
    C(m,j) (m-j)! (-1)^l s(l, m-j) (n!/l!) (r v)^l, summed over the levels
    and reduced once.  Level j reads one Stirling column and one
    harmonic-like column, the latter up to k = n - (m - j) only: s(l, m-j)
    is 0 for l < m - j, so the levels j < m - n add nothing.
    """
    us_pow, rv_pow, vs_pow = _pair_powers(Fraction(a) + Fraction(b), b, n)
    levels = range(max(m - n, 0), m + 1)
    hl = {j: harmonic_like_column(n - (m - j), j) for j in levels}
    common = math.lcm(*[t.denominator for column in hl.values() for t in column])
    falling = list(accumulate(range(n, 0, -1), mul, initial=1))[::-1]  # n!/l! at index l
    totals = [0] * (n + 1)
    for j in levels:
        low = m - j
        outer = binomial(m, j) * factorial(low)
        left = [t.numerator * (common // t.denominator) * us_pow[k] for k, t in enumerate(hl[j])]
        st = stirling1_column(n, low)
        right = [(-outer if l % 2 else outer) * st[l] * falling[l] * rv_pow[l] for l in range(n + 1)]
        for i in range(low, n + 1):
            totals[i] += sum(map(mul, left, reversed(right[low : i + 1])))
    return [Fraction(total, common * scale * falling[0]) for total, scale in zip(totals, vs_pow)]


def _short_form(a: RationalLike, b: RationalLike, m: int, lead: list[Fraction], c: int, pairs: list) -> list[Fraction]:
    """The m-th specialization at every index i = 0..n, n = len(lead) - 1:
    lead[i] (a+b)^i + c sum_{k=1..i} (a+b)^(i-k) b^k w(i,k) / k, where the
    weight w(i,k) is the sum over ``pairs`` (x, y) of x[i-k] y[k-1].

    With a + b = u/v, b = r/s and Λ = lcm(1..n), each lead[i]'s denominator
    divides Λ^m and the x[i-k] y[k-1] summed are the integer Λ^(m-1) w(i,k),
    so both parts of output i are integers over Λ^m (v s)^i.  The correction
    sum is, for each pair, the schoolbook convolution of the integers
    (u s)^j x[j] and (r v)^k (Λ/k) y[k-1].
    """
    n = len(lead) - 1
    us_pow, rv_pow, vs_pow = _pair_powers(Fraction(a) + Fraction(b), b, n)
    lam = math.lcm(*range(1, n + 1))
    corrections = [0] * (n + 1)
    for x, y in pairs:
        left = list(map(mul, us_pow, x))
        right = [p * w * (lam // k) for k, (p, w) in enumerate(zip(rv_pow[1:], y), 1)]
        for i in range(1, n + 1):
            corrections[i] += sum(map(mul, left, reversed(right[:i])))
    lam_m = lam**m
    return [
        Fraction(t.numerator * (lam_m // t.denominator) * power + c * correction, lam_m * scale)
        for t, power, correction, scale in zip(lead, us_pow, corrections, vs_pow)
    ]


def binomial_sum_m1(a: RationalLike, b: RationalLike, n: int) -> list[Fraction]:
    """m = 1 specialization at every index i = 0..n:
    H_i (a+b)^i - sum_{k=1..i} (a+b)^(i-k) b^k / k.

    Λ = lcm(1..n) is a multiple of H_i's denominator, and every weight is 1.
    """
    return _short_form(a, b, 1, [harmonic(i) for i in range(n + 1)], -1, [([1] * n, [1] * n)])


def binomial_sum_m2(a: RationalLike, b: RationalLike, n: int) -> list[Fraction]:
    """m = 2 specialization at every index i = 0..n:
    t(i,2) (a+b)^i + 2 sum_{k=1..i} (a+b)^(i-k) b^k (H_{k-1} - H_{i-k}) / k.

    With Λ = lcm(1..n), Λ H_j is an integer for j <= n and t(i,2) =
    H_i^2 - H_i^(2) has a denominator dividing Λ^2.
    """
    lam = math.lcm(*range(1, n + 1))
    lam_h = [h.numerator * (lam // h.denominator) for h in map(harmonic, range(n))]
    ones = [1] * n
    return _short_form(a, b, 2, harmonic_like_column(n, 2), 2, [(ones, lam_h), ([-h for h in lam_h], ones)])


def binomial_sum_m3(a: RationalLike, b: RationalLike, n: int) -> list[Fraction]:
    """m = 3 specialization at every index i = 0..n: t(i,3) (a+b)^i minus three
    times the correction sum with weights (H_{k-1} - H_{i-k})^2 - H_{k-1}^(2) -
    H_{i-k}^(2) = A_{k-1} - 2 H_{k-1} H_{i-k} + A_{i-k}, where A_j = H_j^2 - H_j^(2).

    With Λ = lcm(1..n), Λ H_j and Λ^2 H_j^(2) are integers for j <= n, so a
    weight times Λ^2 is an integer; t(i,3) = 3! e_3(1, 1/2, ..., 1/i) has a
    denominator dividing Λ^3.
    """
    lam = math.lcm(*range(1, n + 1))
    lam_h = [h.numerator * (lam // h.denominator) for h in map(harmonic, range(n))]
    lam2_h2 = [h.numerator * (lam**2 // h.denominator) for h in (harmonic_order(j, 2) for j in range(n))]
    lam2_a = [h * h - h2 for h, h2 in zip(lam_h, lam2_h2)]
    ones = [1] * n
    pairs = [(ones, lam2_a), (lam_h, [-2 * h for h in lam_h]), (lam2_a, ones)]
    return _short_form(a, b, 3, harmonic_like_column(n, 3), -3, pairs)


def binomial_transform(seq: Callable[[int], RationalLike], n: int, signed: bool = True) -> Fraction:
    """Binomial transform at index n of a sequence callback defined on 0..n.

    Signed: sum_{k=0..n} C(n,k) (-1)^k seq(k).  Unsigned drops the sign.  The
    signed transform is an involution: applying it twice returns the original
    sequence.
    """
    _check_index(n)
    return exact_sum((-c if signed and k % 2 else c) * Fraction(seq(k)) for k, c in enumerate(_binomial_row(n)))
