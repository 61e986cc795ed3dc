"""Truncated formal power series over exact rationals.

A :class:`TruncatedSeries` is an immutable coefficient vector c[0..N] standing
for a power series modulo z^(N+1).  The truncation order is explicit per
series, never global state; arithmetic between series of different orders
truncates to the smaller order.  These series are the generating-function
oracle for the sequence families: the ``gf_*`` constructors build each
family's generating function from scratch so its coefficients can be compared
against the recurrence routes in :mod:`multiharm.sequences`.

A series stores integer numerators over one positive denominator, always in
lowest terms, so equal series store equal data and a product is one call into
the integer kernel ``cauchy_product`` of :mod:`multiharm._kernels`.
A square (``f * f``, and so every step of ``f ** m``) hands the kernel the
same numerator tuple twice, which it packs once and squares.
``Fraction`` values appear only at the boundary: the public constructor takes
them in, and indexing, iteration and ``coeffs`` hand them out.  Every other
constructor builds integer numerators and reduces once, in
``_from_integers``.

The generating functions are built from two blocks, each one integer
constructor: ``-ln(1 - a z)`` (``neg_log_one_minus``) and ``(1 - a z)^alpha``
for rational alpha (``power_of_one_minus``), whose alpha = -1 is
``geometric``, ``1/(1 - a z)``.  ``gf_hyperharmonic`` and ``gf_odd_central``
take their ``(1 - z)^(-p)`` and ``(1 - w)^(-1/2)`` from the second, so no
series is ever inverted or square-rooted; ``gf_odd_central`` builds its
product at ``w = 4z`` and scales numerator n by 4^n afterwards.
``gf_harmonic_like`` divides by ``1 - z`` with a running sum instead of a
product.
This module reads only :mod:`multiharm.rational` and the kernels, never
:mod:`multiharm.sequences`, so the series stay independent of the recurrences
they are compared with.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from typing import Iterable, Iterator

from multiharm import _kernels
from multiharm.rational import RationalLike, factorial


def _check_order(order: int) -> None:
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")


class TruncatedSeries:
    """Formal power series truncated at an inclusive order.

    Coefficient n is ``_nums[n] / _den`` with ``_den > 0`` and
    ``gcd(_den, *_nums) == 1``.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, coeffs: Iterable[RationalLike]):
        fracs = [Fraction(c) for c in coeffs]
        if not fracs:
            raise ValueError("a series needs at least its constant coefficient")
        # Each Fraction is in lowest terms, so over the lcm of the
        # denominators the gcd of the numerators and the lcm is already 1.
        den = lcm(*[c.denominator for c in fracs])
        self._nums = tuple(c.numerator * (den // c.denominator) for c in fracs)
        self._den = den

    @classmethod
    def _from_integers(cls, nums: Iterable[int], den: int) -> TruncatedSeries:
        """The series with coefficients nums[n] / den, for den > 0, stored in lowest terms."""
        nums = tuple(nums)
        g = gcd(den, *nums)
        series = object.__new__(cls)
        series._nums = nums if g == 1 else tuple(x // g for x in nums)
        series._den = den // g
        return series

    # -- construction helpers ------------------------------------------------

    @classmethod
    def one(cls, order: int) -> TruncatedSeries:
        _check_order(order)
        return cls._from_integers((1,) + (0,) * order, 1)

    # -- basic protocol ------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._nums) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(self)

    def __getitem__(self, n: int) -> Fraction:
        return Fraction(self._nums[n], self._den)

    def __iter__(self) -> Iterator[Fraction]:
        den = self._den
        return (Fraction(x, den) for x in self._nums)

    def __len__(self) -> int:
        return len(self._nums)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        return hash((self._nums, self._den))

    def __repr__(self) -> str:
        shown = ", ".join(str(self[n]) for n in range(min(len(self), 8)))
        if len(self) > 8:
            shown += ", ..."
        return f"TruncatedSeries([{shown}], order={self.order})"

    # -- arithmetic ----------------------------------------------------------

    def _add(self, other: TruncatedSeries, sign: int) -> TruncatedSeries:
        """self + sign*other over the lcm of the two denominators."""
        den = lcm(self._den, other._den)
        p = den // self._den
        q = sign * (den // other._den)
        return self._from_integers(
            (x * p + y * q for x, y in zip(self._nums, other._nums)), den
        )

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._add(other, 1)

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._add(other, -1)

    def __neg__(self) -> TruncatedSeries:
        return self._from_integers((-x for x in self._nums), self._den)

    def __mul__(self, other: TruncatedSeries | RationalLike) -> TruncatedSeries:
        if isinstance(other, TruncatedSeries):
            order = min(self.order, other.order)
            product = _kernels.cauchy_product(self._nums, other._nums, order)
            return self._from_integers(product, self._den * other._den)
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return self._from_integers(
                (x * c.numerator for x in self._nums), self._den * c.denominator
            )
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, m: int) -> TruncatedSeries:
        if not isinstance(m, int) or m < 0:
            raise ValueError(f"series power requires an integer m >= 0, got {m!r}")
        if m == 0:
            return TruncatedSeries.one(self.order)
        result = self
        for bit in bin(m)[3:]:  # binary powering from the leading bit down
            result = result * result
            if bit == "1":
                result = result * self
        return result


# ---------------------------------------------------------------------------
# building blocks


def neg_log_one_minus(a: RationalLike, order: int) -> TruncatedSeries:
    """-ln(1 - a*z) = sum_{k>=1} a^k z^k / k, truncated at ``order``.

    With a = p/q and L = lcm(1..order), numerator k is p^k q^(order-k) L/k
    over L q^order.
    """
    _check_order(order)
    p, q = Fraction(a).as_integer_ratio()
    big_l = lcm(*range(1, order + 1))
    nums = [0, *(p**k * q ** (order - k) * (big_l // k) for k in range(1, order + 1))]
    return TruncatedSeries._from_integers(nums, big_l * q**order)


def geometric(a: RationalLike, order: int) -> TruncatedSeries:
    """1/(1 - a*z) = sum a^n z^n, the alpha = -1 case of :func:`power_of_one_minus`.

    With a = p/q, numerator n is p^n q^(order-n) over q^order, in lowest terms.
    """
    return power_of_one_minus(a, -1, order)


def power_of_one_minus(a: RationalLike, alpha: RationalLike, order: int) -> TruncatedSeries:
    """(1 - a*z)^alpha = sum C(alpha, n) (-a)^n z^n for rational a and alpha.

    With alpha = u/v and a = p/q, C(alpha, n) (-a)^n is
    prod_{i<n} (u - i v) (-p)^n / (n! (v q)^n), so over N! (v q)^N, N the
    order, numerator n is prod_{i<n} (u - i v) (-p)^n (N!/n!) (v q)^(N-n).
    """
    _check_order(order)
    a, alpha = Fraction(a), Fraction(alpha)
    u, v = alpha.numerator, alpha.denominator
    step = v * a.denominator
    nums = [factorial(order) * step**order]
    for n in range(order):  # n+1 from n: (N!/n!) (v q)^(N-n) is divisible by (n+1) v q
        nums.append(nums[-1] * ((u - n * v) * -a.numerator) // ((n + 1) * step))
    return TruncatedSeries._from_integers(nums, nums[0])


# ---------------------------------------------------------------------------
# generating functions of the sequence families


def gf_harmonic_like(m: int, order: int) -> TruncatedSeries:
    """(-ln(1-z))^m / (1-z); coefficient n is the harmonic-like number t(n, m).

    Dividing by 1 - z is a running sum of the numerators of (-ln(1-z))^m, so
    the series costs only the products of the power.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    power = neg_log_one_minus(1, order) ** m
    return TruncatedSeries._from_integers(accumulate(power._nums), power._den)


def gf_stirling_column(k: int, order: int) -> TruncatedSeries:
    """ln(1+z)^k / k!; n! times coefficient n is the Stirling number s(n, k)."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    _check_order(order)
    if k > order:  # ln(1+z)^k starts at z^k: every coefficient is 0
        return TruncatedSeries._from_integers((0,) * (order + 1), 1)
    # ln(1+z) = -(-ln(1 - (-1) z)), negated before the power is taken
    return ((-neg_log_one_minus(-1, order)) ** k) * Fraction(1, factorial(k))


def gf_hyperharmonic(p: int, order: int) -> TruncatedSeries:
    """(-ln(1-z)) (1-z)^(-p); coefficient n is the hyperharmonic number of level p >= 1.

    (1-z)^(-p) comes from ``power_of_one_minus`` in one pass, so the series
    costs one product for every p.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return neg_log_one_minus(1, order) * power_of_one_minus(1, -p, order)


def gf_odd_central(order: int) -> TruncatedSeries:
    """Series whose coefficient n is C(2n, n) * O_n.

    Built as (1/2) (-ln(1-w)) (1-w)^(-1/2) at w = 4z: the second factor, from
    ``power_of_one_minus``, generates the central binomial coefficients over
    4^n, so the series costs one product, and numerator n is then multiplied
    by 4^n.  Neither factor carries the 4^n growth into the kernel's slots.
    """
    w = neg_log_one_minus(1, order) * power_of_one_minus(1, Fraction(-1, 2), order)
    return TruncatedSeries._from_integers((x << 2 * n for n, x in enumerate(w._nums)), 2 * w._den)
