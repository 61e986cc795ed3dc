"""Truncated formal power series over exact rationals.

A :class:`TruncatedSeries` is an immutable coefficient vector c[0..N] standing
for a power series modulo z^(N+1).  The truncation order is explicit per
series, never global state; arithmetic between series of different orders
truncates to the smaller order.  These series are the generating-function
oracle for the sequence families: the ``gf_*`` constructors build each
family's generating function from scratch so its coefficients can be compared
against the recurrence routes in :mod:`multiharm.sequences`.

Argument substitution is restricted to two inner forms with zero constant
term: the scaling z -> c*z and the Moebius substitution z -> a*z/(1 - b*z).
No identity in the catalog uses either yet; the tests check
``compose_mobius`` against the binomial sums of :mod:`multiharm.transforms`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

from multiharm import _kernels
from multiharm.rational import RationalLike, binomial, factorial

_ZERO = Fraction(0)
_ONE = Fraction(1)


class TruncatedSeries:
    """Formal power series truncated at an inclusive order."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike]):
        tup = tuple(Fraction(c) for c in coeffs)
        if not tup:
            raise ValueError("a series needs at least its constant coefficient")
        self._coeffs = tup

    # -- construction helpers ------------------------------------------------

    @classmethod
    def constant(cls, value: RationalLike, order: int) -> TruncatedSeries:
        return cls((Fraction(value),) + (_ZERO,) * order)

    @classmethod
    def one(cls, order: int) -> TruncatedSeries:
        return cls.constant(1, order)

    @classmethod
    def zero(cls, order: int) -> TruncatedSeries:
        return cls.constant(0, order)

    @classmethod
    def monomial(cls, coeff: RationalLike, degree: int, order: int) -> TruncatedSeries:
        if degree > order:
            return cls.zero(order)
        c = [_ZERO] * (order + 1)
        c[degree] = Fraction(coeff)
        return cls(c)

    # -- basic protocol ------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def __getitem__(self, n: int) -> Fraction:
        return self._coeffs[n]

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self._coeffs)

    def __len__(self) -> int:
        return len(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self._coeffs[:8])
        if len(self._coeffs) > 8:
            shown += ", ..."
        return f"TruncatedSeries([{shown}], order={self.order})"

    def truncate(self, order: int) -> TruncatedSeries:
        if order >= self.order:
            return self
        return TruncatedSeries(self._coeffs[: order + 1])

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return TruncatedSeries(a + b for a, b in zip(self._coeffs[: n + 1], other._coeffs))

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return TruncatedSeries(a - b for a, b in zip(self._coeffs[: n + 1], other._coeffs))

    def __neg__(self) -> TruncatedSeries:
        return TruncatedSeries(-c for c in self._coeffs)

    def __mul__(self, other: TruncatedSeries | RationalLike) -> TruncatedSeries:
        if isinstance(other, TruncatedSeries):
            order = min(self.order, other.order)
            return TruncatedSeries(_kernels.cauchy_product(self._coeffs, other._coeffs, order))
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries(c * other for c in self._coeffs)
        return NotImplemented

    def __rmul__(self, other: RationalLike) -> TruncatedSeries:
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries(other * c for c in self._coeffs)
        return NotImplemented

    def __pow__(self, m: int) -> TruncatedSeries:
        if not isinstance(m, int) or m < 0:
            raise ValueError(f"series power requires an integer m >= 0, got {m!r}")
        result = TruncatedSeries.one(self.order)
        for _ in range(m):
            result = result * self
        return result

    def inverse(self) -> TruncatedSeries:
        """The series g with self*g = 1 up to the truncation order."""
        if self._coeffs[0] == 0:
            raise ValueError("series with zero constant term has no inverse")
        return TruncatedSeries(_kernels.invert_series(self._coeffs))

    def sqrt(self) -> TruncatedSeries:
        """The series g with g*g = self and g(0) = 1; requires self(0) = 1."""
        if self._coeffs[0] != 1:
            raise ValueError("series sqrt requires constant term 1")
        return TruncatedSeries(_kernels.sqrt_series(self._coeffs))

    # -- argument substitution ----------------------------------------------

    def scale_argument(self, c: RationalLike) -> TruncatedSeries:
        """Substitute z -> c*z (coefficient n picks up a factor c^n)."""
        c = Fraction(c)
        out = []
        power = _ONE
        for coeff in self._coeffs:
            out.append(coeff * power)
            power *= c
        return TruncatedSeries(out)

    def compose_mobius(
        self, a: RationalLike, b: RationalLike, order: int | None = None
    ) -> TruncatedSeries:
        """Substitute z -> a*z/(1 - b*z), truncated at ``order``.

        Uses [z^n] (a*z)^k / (1-b*z)^k = a^k * C(n-1, n-k) * b^(n-k).
        Coefficients of ``self`` beyond its own order are taken as zero, so a
        polynomial composes exactly.
        """
        a = Fraction(a)
        b = Fraction(b)
        if order is None:
            order = self.order
        f = self._coeffs
        a_pow = [_ONE]
        b_pow = [_ONE]
        for _ in range(order):
            a_pow.append(a_pow[-1] * a)
            b_pow.append(b_pow[-1] * b)
        out = [f[0]]
        for n in range(1, order + 1):
            acc = _ZERO
            for k in range(1, min(n, len(f) - 1) + 1):
                acc += f[k] * a_pow[k] * binomial(n - 1, n - k) * b_pow[n - k]
            out.append(acc)
        return TruncatedSeries(out)


# ---------------------------------------------------------------------------
# building blocks


def neg_log_one_minus(a: RationalLike, order: int) -> TruncatedSeries:
    """-ln(1 - a*z) = sum_{k>=1} a^k z^k / k, truncated at ``order``."""
    a = Fraction(a)
    out = [_ZERO]
    power = _ONE
    for k in range(1, order + 1):
        power *= a
        out.append(power / k)
    return TruncatedSeries(out)


def log_one_plus(order: int) -> TruncatedSeries:
    """ln(1 + z), obtained from the single log kernel by a = -1 and negation."""
    return -neg_log_one_minus(-1, order)


def geometric(a: RationalLike, order: int) -> TruncatedSeries:
    """1/(1 - a*z) = sum a^n z^n."""
    a = Fraction(a)
    out = [_ONE]
    for _ in range(order):
        out.append(out[-1] * a)
    return TruncatedSeries(out)


# ---------------------------------------------------------------------------
# generating functions of the sequence families


def gf_harmonic_like(m: int, order: int) -> TruncatedSeries:
    """(-ln(1-z))^m / (1-z); coefficient n is the harmonic-like number t(n, m)."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    return (neg_log_one_minus(1, order) ** m) * geometric(1, order)


def gf_stirling_column(k: int, order: int) -> TruncatedSeries:
    """ln(1+z)^k / k!; n! times coefficient n is the Stirling number s(n, k)."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return (log_one_plus(order) ** k) * Fraction(1, factorial(k))


def gf_hyperharmonic(p: int, order: int) -> TruncatedSeries:
    """(-ln(1-z)) / (1-z)^p; coefficient n is the hyperharmonic number of level p >= 1."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return neg_log_one_minus(1, order) * (geometric(1, order) ** p)


def gf_odd_central(order: int) -> TruncatedSeries:
    """Series whose coefficient n is C(2n, n) * O_n.

    Built as (1/2) * (-ln(1-4z)) / sqrt(1-4z), using that 1/sqrt(1-4z)
    generates the central binomial coefficients.
    """
    one_minus_4z = TruncatedSeries([1, -4] + [0] * max(0, order - 1)).truncate(order)
    return Fraction(1, 2) * neg_log_one_minus(4, order) * one_minus_4z.sqrt().inverse()
