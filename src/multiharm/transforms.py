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
a power of lcm(1..n).  Each route builds its own terms; none calls another
route or shares a term builder with one, so a mistake in one cannot hide in
the route it is checked against.  They share only the sequences layer, the
stdlib, and the power table ``_powers``.

Conventions: 0^0 = 1 (so the m = 0 case collapses to (a+b)^n even at a = -b),
and any sum over an empty range is 0; n < 0 raises ``ValueError``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

from multiharm.rational import RationalLike, binomial, factorial
from multiharm.sequences import _check_index, harmonic, harmonic_like, harmonic_order, stirling1

_ZERO = Fraction(0)

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


def _powers(x: int, n: int) -> list[int]:
    _check_index(n)  # every binomial-sum route starts here
    out = [1]
    for _ in range(n):
        out.append(out[-1] * x)
    return out


def binomial_sum_direct(a: RationalLike, b: RationalLike, m: int, n: int) -> Fraction:
    """The literal sum: sum_{k=0..n} C(n,k) a^k b^(n-k) t(k, m).

    With a = p/q and b = r/s, the sum is over L (q s)^n, L = lcm of the
    denominators of t(k, m); term k is C(n,k) (p s)^k (r q)^(n-k) t.num (L // t.den).
    """
    a = Fraction(a)
    b = Fraction(b)
    p, q, r, s = a.numerator, a.denominator, b.numerator, b.denominator
    ps_pow = _powers(p * s, n)
    rq_pow = _powers(r * q, n)
    hl = [harmonic_like(k, m) for k in range(n + 1)]
    common = math.lcm(*[t.denominator for t in hl])
    total = sum(
        binomial(n, k) * ps_pow[k] * rq_pow[n - k] * t.numerator * (common // t.denominator)
        for k, t in enumerate(hl)
    )
    return Fraction(total, common * (q * s) ** n)


def binomial_sum_closed(a: RationalLike, b: RationalLike, m: int, n: int) -> Fraction:
    """Closed form of the binomial sum via Stirling numbers of the first kind:

    sum_{j=0..m} C(m,j) sum_{k=0..n} t(k,j) (a+b)^k (m-j)!/(n-k)! (-1)^(n-k)
        b^(n-k) s(n-k, m-j)

    With a + b = u/v and b = r/s, the sum is over L (v s)^n n!, L = lcm of
    the denominators of the t(k, j) read; term (j, k) is the integer weight
    C(m,j) (m-j)! (n!/(n-k)!) (-1)^(n-k) s(n-k, m-j) (u s)^k (r v)^(n-k)
    times t.num (L // t.den).
    """
    a = Fraction(a)
    b = Fraction(b)
    ab = a + b
    u, v, r, s = ab.numerator, ab.denominator, b.numerator, b.denominator
    us_pow = _powers(u * s, n)
    rv_pow = _powers(r * v, n)
    n_fact = factorial(n)
    terms = []  # (integer weight, t(k, j))
    for j in range(m + 1):
        outer = binomial(m, j) * factorial(m - j)
        for k in range(n + 1):
            st = stirling1(n - k, m - j)
            if st == 0:
                continue
            sign = -1 if (n - k) % 2 else 1
            weight = outer * sign * st * (n_fact // factorial(n - k)) * us_pow[k] * rv_pow[n - k]
            terms.append((weight, harmonic_like(k, j)))
    common = math.lcm(*[t.denominator for _, t in terms])
    total = sum(w * t.numerator * (common // t.denominator) for w, t in terms)
    return Fraction(total, common * (v * s) ** n * n_fact)


def binomial_sum_m1(a: RationalLike, b: RationalLike, n: int) -> Fraction:
    """m = 1 specialization: H_n (a+b)^n - sum_{k=0..n-1} (a+b)^k b^(n-k) / (n-k).

    With a + b = u/v, b = r/s and Λ = lcm(1..n), which H_n's denominator
    divides, both parts are integers over Λ (v s)^n.
    """
    a = Fraction(a)
    b = Fraction(b)
    ab = a + b
    u, v, r, s = ab.numerator, ab.denominator, b.numerator, b.denominator
    us_pow = _powers(u * s, n)
    rv_pow = _powers(r * v, n)
    lam = math.lcm(*range(1, n + 1))
    h = harmonic(n)
    lead = h.numerator * (lam // h.denominator) * us_pow[n]
    correction = sum(us_pow[k] * rv_pow[n - k] * (lam // (n - k)) for k in range(n))
    return Fraction(lead - correction, lam * (v * s) ** n)


def binomial_sum_m2(a: RationalLike, b: RationalLike, n: int) -> Fraction:
    """m = 2 specialization:
    t(n,2) (a+b)^n + 2 sum_{k=1..n} (a+b)^(n-k) b^k (H_{k-1} - H_{n-k}) / k.

    With a + b = u/v, b = r/s and Λ = lcm(1..n), Λ H_j is an integer for
    j <= n and t(n,2) = H_n^2 - H_n^(2) has a denominator dividing Λ^2, so
    both parts are integers over Λ^2 (v s)^n.
    """
    a = Fraction(a)
    b = Fraction(b)
    ab = a + b
    u, v, r, s = ab.numerator, ab.denominator, b.numerator, b.denominator
    us_pow = _powers(u * s, n)
    rv_pow = _powers(r * v, n)
    lam = math.lcm(*range(1, n + 1))
    lam_h = [h.numerator * (lam // h.denominator) for h in map(harmonic, range(n))]
    t = harmonic_like(n, 2)
    lead = t.numerator * (lam**2 // t.denominator) * us_pow[n]
    correction = sum(
        us_pow[n - k] * rv_pow[k] * (lam_h[k - 1] - lam_h[n - k]) * (lam // k)
        for k in range(1, n + 1)
    )
    return Fraction(lead + 2 * correction, lam**2 * (v * s) ** n)


def binomial_sum_m3(a: RationalLike, b: RationalLike, n: int) -> Fraction:
    """m = 3 specialization: t(n,3) (a+b)^n minus three times the correction sum
    with weights H_{k-1}^2 - H_{k-1}^(2) - 2 H_{k-1} H_{n-k} + H_{n-k}^2 - H_{n-k}^(2).

    With a + b = u/v, b = r/s and Λ = lcm(1..n), Λ H_j and Λ^2 H_j^(2) are
    integers for j <= n, so a weight times Λ^2 is an integer; t(n,3) =
    3! e_3(1, 1/2, ..., 1/n) has a denominator dividing Λ^3, so both parts
    are integers over Λ^3 (v s)^n.
    """
    a = Fraction(a)
    b = Fraction(b)
    ab = a + b
    u, v, r, s = ab.numerator, ab.denominator, b.numerator, b.denominator
    us_pow = _powers(u * s, n)
    rv_pow = _powers(r * v, n)
    lam = math.lcm(*range(1, n + 1))
    lam_h = [h.numerator * (lam // h.denominator) for h in map(harmonic, range(n))]
    lam2_h2 = [h.numerator * (lam**2 // h.denominator) for h in (harmonic_order(j, 2) for j in range(n))]
    t = harmonic_like(n, 3)
    lead = t.numerator * (lam**3 // t.denominator) * us_pow[n]
    correction = 0
    for k in range(1, n + 1):
        hk, hn = lam_h[k - 1], lam_h[n - k]
        weight = hk * hk - lam2_h2[k - 1] - 2 * hk * hn + hn * hn - lam2_h2[n - k]
        correction += us_pow[n - k] * rv_pow[k] * weight * (lam // k)
    return Fraction(lead - 3 * correction, lam**3 * (v * s) ** n)


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
