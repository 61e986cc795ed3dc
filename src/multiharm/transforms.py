"""Binomial sums over harmonic-like numbers and generic binomial transforms.

The central object is S(a, b, m, n) = sum_{k=0..n} C(n,k) a^k b^(n-k) t(k, m)
where t(k, m) is the multiple harmonic-like number.  ``binomial_sums`` is the
literal sum of any list x in place of t(., m) at every index 0..n, built by
Pascal's rule on the integer numerators of x over their lcm, with no binomial
coefficient and no power list.  The binomial transform sum_k C(n,k) (-1)^k x_k
is its column at a = -1, b = 1, and the unsigned one its column at a = b = 1.
``binomial_sum_direct`` is the literal sum of t(., m) at one n, its own loop
over the O(n) terms.  ``binomial_sum_closed`` is the
independent closed form in terms of Stirling numbers of the first kind;
``binomial_sum_m1/m2/m3`` are the short specializations, and ``weighted_m2``
is the m = 2 one with a list of integer weights in place of the powers of
a + b.  All routes must agree exactly on every input.  The closed routes
return a column, the values at n = 0..n_max in order, each a sum of Cauchy
products along n taken by :func:`cauchy_column`, whose docstring states the
one integer form of those products; the identity registry takes its right
sides' products there too.

The literal route, in both forms, adds its own integers over one common
denominator and reduces each value once.  It shares nothing with the closed
routes but the sequences layer and the stdlib, so a fault in ``cauchy_column``
cannot scale both sides of a check alike.  The registry checks each closed
route against the column form of the literal route only.

Conventions: 0^0 = 1 (so the m = 0 case collapses to (a+b)^n even at a = -b),
and any sum over an empty range is 0; n < 0 raises ``ValueError``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul

from multiharm.rational import RationalLike, binomial, factorial
# harmonic_like is not called here; it stays importable as transforms.harmonic_like, which the
# benchmark's tracer self-test (perfbench/test_perfbench.py) reads
from multiharm.sequences import (  # noqa: F401
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


def binomial_sums(a: RationalLike, b: RationalLike, x: list[RationalLike]) -> list[Fraction]:
    """The literal sum sum_{k=0..i} C(i,k) a^k b^(i-k) x[k] at every index i of the list x, of ints and
    ``Fraction`` values.  At a = -1, b = 1 it is the signed binomial transform of x, which is an involution.

    By Pascal's rule, with a = p/q and b = r/s: row 0 is the integer
    numerators of x over L, the lcm of their denominators, and each next row
    is d_(i+1)[k] = (r q) d_i[k] + (p s) d_i[k+1] over L (q s)^(i+1), one entry
    shorter.  Value i is d_i[0], reduced once.
    """
    a = Fraction(a)
    b = Fraction(b)
    left, right, scale = b.numerator * a.denominator, a.numerator * b.denominator, a.denominator * b.denominator
    common = math.lcm(*[t.denominator for t in x])
    row = [t.numerator * (common // t.denominator) for t in x]
    firsts = []
    while row:
        firsts.append(row[0])
        row = [left * u + right * v for u, v in zip(row, row[1:])]
    return [Fraction(d, common * den) for d, den in zip(firsts, accumulate(repeat(scale), mul, initial=1))]


def binomial_sum_direct(a: RationalLike, b: RationalLike, m: int, n: int) -> Fraction:
    """The literal sum: sum_{k=0..n} C(n,k) a^k b^(n-k) t(k, m), in O(n) terms.

    With a = p/q and b = r/s, term k is C(n,k) (p s)^k (r q)^(n-k) times the
    numerator of t(k, m) over L, the lcm of the column's denominators; the
    terms are added over L (q s)^n and the value is reduced once.
    """
    _check_index(n)
    a = Fraction(a)
    b = Fraction(b)
    p, q, r, s = a.numerator, a.denominator, b.numerator, b.denominator
    x = harmonic_like_column(n, m)
    common = math.lcm(*[t.denominator for t in x])
    rq_pow = list(accumulate(repeat(r * q, n), mul, initial=1))
    total, c = 0, 1
    for k, (t, ps, rq) in enumerate(zip(x, accumulate(repeat(p * s, n), mul, initial=1), reversed(rq_pow))):
        total += c * ps * rq * t.numerator * (common // t.denominator)
        c = c * (n - k) // (k + 1)  # C(n, k + 1)
    return Fraction(total, common * (q * s) ** n)


def integer_form(values: list[RationalLike]) -> tuple[list[int], int]:
    """``values`` as a factor of :func:`cauchy_column`: their numerators over their least common denominator,
    and that denominator."""
    common = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (common // v.denominator) for v in values], common


def cauchy_column(x: RationalLike, y: RationalLike, *pairs: tuple[tuple[list[int], int], ...]) -> list[Fraction]:
    """The sum over ``pairs`` (f, g) of sum_{k=0..i} f[k] x^k g[i-k] y^(i-k), at every index i = 0..n.

    This is the one integer form of the Cauchy products along n that the
    closed routes and the identity registry take.  Each factor is integers
    over one denominator, as :func:`integer_form` gives it: f has n + 1
    entries, and g at most that many, the missing ones being 0.  With x = u/v
    and y = r/s, x^k y^l = (u s)^k (r v)^l / (v s)^i for k + l = i, so at
    index i a pair (f, f_den), (g, g_den) is the schoolbook dot product of the
    integers f[k] (u s)^k and g[l] (r v)^l over f_den g_den (v s)^i.  Output i
    adds the pairs' dot products over L (v s)^i, L the lcm of their
    f_den g_den, and is reduced once.
    """
    x = Fraction(x)
    y = Fraction(y)
    n = len(pairs[0][0][0]) - 1
    us_pow, rv_pow, vs_pow = (
        list(accumulate(repeat(base, n), mul, initial=1))
        for base in (x.numerator * y.denominator, y.numerator * x.denominator, x.denominator * y.denominator)
    )
    common = math.lcm(*[f_den * g_den for (_, f_den), (_, g_den) in pairs])
    totals = [0] * (n + 1)
    for (f, f_den), (g, g_den) in pairs:
        scale = common // (f_den * g_den)
        left = list(map(mul, f, us_pow))
        right = list(map(mul, g, rv_pow))
        for i in range(n + 1):
            totals[i] += scale * sum(map(mul, reversed(left[: i + 1]), right))
    return [Fraction(total, common * vs) for total, vs in zip(totals, vs_pow)]


def binomial_sum_closed(a: RationalLike, b: RationalLike, m: int, n: int) -> list[Fraction]:
    """Closed form of the binomial sum via Stirling numbers of the first kind,
    at every index i = 0..n:

    sum_{j=0..m} C(m,j) sum_{k=0..i} t(k,j) (a+b)^k (m-j)!/(i-k)! (-1)^(i-k)
        b^(i-k) s(i-k, m-j)

    Level j is the Cauchy product of t(k,j) (a+b)^k and
    C(m,j) (m-j)! s(l, m-j) (-b)^l / l!, the latter as integers over n!.
    Level j reads one Stirling column and one harmonic-like column; s(l, m-j)
    is 0 for l < m - j, so the levels j < m - n add nothing.
    """
    _check_index(n)
    falling = list(accumulate(range(n, 0, -1), mul, initial=1))[::-1]  # n!/l! at index l
    pairs = []
    for j in range(max(m - n, 0), m + 1):
        outer = binomial(m, j) * factorial(m - j)
        stirling = [outer * s * f for s, f in zip(stirling1_column(n, m - j), falling)]
        pairs.append((integer_form(harmonic_like_column(n, j)), (stirling, falling[0])))
    return cauchy_column(Fraction(a) + Fraction(b), -Fraction(b), *pairs)


def _divided(nums: list[int], den: int) -> tuple[list[int], int]:
    # 0, w[0]/1, w[1]/2, ..., w[n-1]/n for w[l] = nums[l]/den, over den lcm(1..n):
    # the b^l / l factor of a specialization's correction sum
    lam = math.lcm(*range(1, len(nums) + 1))
    return [0, *(w * (lam // l) for l, w in enumerate(nums, 1))], den * lam


def binomial_sum_m1(a: RationalLike, b: RationalLike, n: int) -> list[Fraction]:
    """m = 1 specialization at every index i = 0..n:
    H_i (a+b)^i - sum_{k=1..i} (a+b)^(i-k) b^k / k.
    """
    _check_index(n)
    return cauchy_column(
        Fraction(a) + Fraction(b),
        b,
        # the lead term: a product with g = 1, 0, 0, ...
        (integer_form([harmonic(i) for i in range(n + 1)]), ([1], 1)),
        (([1] * (n + 1), 1), _divided([-1] * n, 1)),
    )


def binomial_sum_m2(a: RationalLike, b: RationalLike, n: int) -> list[Fraction]:
    """m = 2 specialization at every index i = 0..n:
    t(i,2) (a+b)^i + 2 sum_{k=1..i} (a+b)^(i-k) b^k (H_{k-1} - H_{i-k}) / k.
    """
    _check_index(n)
    return weighted_m2(Fraction(a) + Fraction(b), b, [1] * (n + 1))


def weighted_m2(x: RationalLike, y: RationalLike, w: list[int]) -> list[Fraction]:
    """t(i,2) w[i] x^i + 2 sum_{k=1..i} w[i-k] x^(i-k) y^k (H_{k-1} - H_{i-k}) / k at every index i = 0..n,
    for n + 1 integer weights w: :func:`binomial_sum_m2` at w = 1, 1, ..., and the right sides of the
    identity registry's Fibonacci- and Lucas-weighted transforms at x = y = 1.
    """
    n = len(w) - 1
    h, h_den = integer_form([harmonic(i) for i in range(n + 1)])
    return cauchy_column(
        x,
        y,
        # the lead term: a product with g = 1, 0, 0, ...
        (integer_form([v * t for v, t in zip(w, harmonic_like_column(n, 2))]), ([1], 1)),
        ((w, 1), _divided([2 * v for v in h[:n]], h_den)),
        (([-2 * u * v for u, v in zip(w, h)], h_den), _divided([1] * n, 1)),
    )


def binomial_sum_m3(a: RationalLike, b: RationalLike, n: int) -> list[Fraction]:
    """m = 3 specialization at every index i = 0..n: t(i,3) (a+b)^i minus three
    times the correction sum with weights (H_{k-1} - H_{i-k})^2 - H_{k-1}^(2) -
    H_{i-k}^(2) = A_{k-1} - 2 H_{k-1} H_{i-k} + A_{i-k}, where A_j = H_j^2 - H_j^(2).
    """
    _check_index(n)
    h = [harmonic(i) for i in range(n + 1)]
    sq, sq_den = integer_form([v * v - harmonic_order(i, 2) for i, v in enumerate(h)])  # A_i
    h, h_den = integer_form(h)
    return cauchy_column(
        Fraction(a) + Fraction(b),
        b,
        (integer_form(harmonic_like_column(n, 3)), ([1], 1)),
        (([1] * (n + 1), 1), _divided([-3 * v for v in sq[:n]], sq_den)),
        ((h, h_den), _divided([6 * v for v in h[:n]], h_den)),
        ((sq, sq_den), _divided([-3] * n, 1)),
    )
