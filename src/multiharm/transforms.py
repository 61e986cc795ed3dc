"""Binomial sums over harmonic-like numbers and generic binomial transforms.

The central object is S(a, b, m, n) = sum_{k=0..n} C(n,k) a^k b^(n-k) t(k, m)
where t(k, m) is the multiple harmonic-like number.  ``binomial_sum_direct``
is the literal sum; ``binomial_sum_closed`` is the independent closed form in
terms of Stirling numbers of the first kind; ``binomial_sum_m1/m2/m3`` are the
short specializations.  All routes must agree exactly on every input.

Each route adds integer numerators over one common denominator and reduces
once, at the end: with a = p/q and b = r/s it scales its terms by a power of
q s (or of v s, for a + b = u/v), by the lcm of the denominators of the
harmonic-like numbers it reads, and, where it weights by H_j or H_j^(2), by
a power of lcm(1..n).

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


def _pair_powers(x: RationalLike, y: RationalLike, n: int) -> tuple[list[int], list[int], int]:
    """The closed routes' integer form of x = u/v and y = r/s: the powers 0..n
    of u s and of r v, and (v s)^n, so x^k y^(n-k) = (u s)^k (r v)^(n-k) / (v s)^n.
    """
    _check_index(n)
    x = Fraction(x)
    y = Fraction(y)
    u, v, r, s = x.numerator, x.denominator, y.numerator, y.denominator
    us_pow = list(accumulate(repeat(u * s, n), mul, initial=1))
    rv_pow = list(accumulate(repeat(r * v, n), mul, initial=1))
    return us_pow, rv_pow, (v * s) ** n


def binomial_sum_closed(a: RationalLike, b: RationalLike, m: int, n: int) -> Fraction:
    """Closed form of the binomial sum via Stirling numbers of the first kind:

    sum_{j=0..m} C(m,j) sum_{k=0..n} t(k,j) (a+b)^k (m-j)!/(n-k)! (-1)^(n-k)
        b^(n-k) s(n-k, m-j)

    With a + b = u/v and b = r/s, the sum is over L (v s)^n n!, L = lcm of
    the denominators of the t(k, j) read; term (j, k) is the integer weight
    C(m,j) (m-j)! (n!/(n-k)!) (-1)^(n-k) s(n-k, m-j) (u s)^k (r v)^(n-k)
    times t.num (L // t.den).  Level j reads one Stirling column and one
    harmonic-like column, the latter up to k = n - (m - j) only: s(n-k, m-j)
    is 0 past it, so the levels j < m - n add nothing.
    """
    us_pow, rv_pow, scale = _pair_powers(Fraction(a) + Fraction(b), b, n)
    terms = []  # (integer weight, t(k, j))
    for j in range(max(m - n, 0), m + 1):
        outer = binomial(m, j) * factorial(m - j)
        st = stirling1_column(n, m - j)
        hl = harmonic_like_column(n - (m - j), j)
        fall = 1  # n!/(n-k)!
        for k, t in enumerate(hl):
            if st[n - k]:
                sign = -1 if (n - k) % 2 else 1
                terms.append((outer * sign * st[n - k] * fall * us_pow[k] * rv_pow[n - k], t))
            fall *= n - k
    common = math.lcm(*[t.denominator for _, t in terms])
    total = sum(w * t.numerator * (common // t.denominator) for w, t in terms)
    return Fraction(total, common * scale * factorial(n))


def _short_form(a: RationalLike, b: RationalLike, m: int, lead: Fraction, c: int, weights: list[int]) -> Fraction:
    """The m-th specialization, lead (a+b)^n + c sum_{k=1..n} (a+b)^(n-k) b^k w_k / k.

    With n = len(weights), a + b = u/v, b = r/s and Λ = lcm(1..n), ``lead``'s
    denominator divides Λ^m and ``weights[k-1]`` is the integer Λ^(m-1) w_k,
    so both parts are integers over Λ^m (v s)^n.
    """
    n = len(weights)
    us_pow, rv_pow, scale = _pair_powers(Fraction(a) + Fraction(b), b, n)
    lam = math.lcm(*range(1, n + 1))
    lead_part = lead.numerator * (lam**m // lead.denominator) * us_pow[n]
    correction = sum(us_pow[n - k] * rv_pow[k] * w * (lam // k) for k, w in enumerate(weights, 1))
    return Fraction(lead_part + c * correction, lam**m * scale)


def binomial_sum_m1(a: RationalLike, b: RationalLike, n: int) -> Fraction:
    """m = 1 specialization: H_n (a+b)^n - sum_{k=1..n} (a+b)^(n-k) b^k / k.

    Λ = lcm(1..n) is a multiple of H_n's denominator, and every weight is 1.
    """
    return _short_form(a, b, 1, harmonic(n), -1, [1] * n)


def binomial_sum_m2(a: RationalLike, b: RationalLike, n: int) -> Fraction:
    """m = 2 specialization:
    t(n,2) (a+b)^n + 2 sum_{k=1..n} (a+b)^(n-k) b^k (H_{k-1} - H_{n-k}) / k.

    With Λ = lcm(1..n), Λ H_j is an integer for j <= n and t(n,2) =
    H_n^2 - H_n^(2) has a denominator dividing Λ^2.
    """
    lam = math.lcm(*range(1, n + 1))
    lam_h = [h.numerator * (lam // h.denominator) for h in map(harmonic, range(n))]
    weights = [lam_h[k - 1] - lam_h[n - k] for k in range(1, n + 1)]
    return _short_form(a, b, 2, harmonic_like(n, 2), 2, weights)


def binomial_sum_m3(a: RationalLike, b: RationalLike, n: int) -> Fraction:
    """m = 3 specialization: t(n,3) (a+b)^n minus three times the correction sum
    with weights (H_{k-1} - H_{n-k})^2 - H_{k-1}^(2) - H_{n-k}^(2).

    With Λ = lcm(1..n), Λ H_j and Λ^2 H_j^(2) are integers for j <= n, so a
    weight times Λ^2 is an integer; t(n,3) = 3! e_3(1, 1/2, ..., 1/n) has a
    denominator dividing Λ^3.
    """
    lam = math.lcm(*range(1, n + 1))
    lam_h = [h.numerator * (lam // h.denominator) for h in map(harmonic, range(n))]
    lam2_h2 = [h.numerator * (lam**2 // h.denominator) for h in (harmonic_order(j, 2) for j in range(n))]
    weights = [(lam_h[k - 1] - lam_h[n - k]) ** 2 - lam2_h2[k - 1] - lam2_h2[n - k] for k in range(1, n + 1)]
    return _short_form(a, b, 3, harmonic_like(n, 3), -3, weights)


def binomial_transform(seq: Callable[[int], RationalLike], n: int, signed: bool = True) -> Fraction:
    """Binomial transform at index n of a sequence callback defined on 0..n.

    Signed: sum_{k=0..n} C(n,k) (-1)^k seq(k).  Unsigned drops the sign.  The
    signed transform is an involution: applying it twice returns the original
    sequence.
    """
    _check_index(n)
    return exact_sum((-c if signed and k % 2 else c) * Fraction(seq(k)) for k, c in enumerate(_binomial_row(n)))
