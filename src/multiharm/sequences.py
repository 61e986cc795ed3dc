"""Exact evaluation of every sequence family used by the identity catalog.

Each family has a primary (fast, memoized) route; where an independent route
exists it is exposed as a separate function so the two can be cross-checked:

* ``harmonic_like`` (first-order recurrence in n) vs the cross-check route
  ``harmonic_like_convolution`` (convolution recurrence in m, tabulated by
  :mod:`multiharm._kernels`) vs ``harmonic_like_bruteforce`` (literal sum over
  integer compositions) vs the generating-function route in
  :mod:`multiharm.series`.
* ``stirling1`` (triangle recurrence, only the columns asked for) vs the
  log-power generating function in :mod:`multiharm.series`.
* ``hyperharmonic`` (iterated partial sums) vs ``hyperharmonic_closed``
  (binomial times harmonic difference).
* ``hyperharmonic_half`` (central-binomial form) vs
  ``hyperharmonic_half_via_binomial`` (generalized-binomial form).

Every cached family has its own ``_LevelTable`` (``harmonic_order`` one per
order r, in a ``_KeyedTables``).  The one-index partial sums and the
Fibonacci numbers, a two-term recurrence, are one-level tables that read
their own prefix, and Lucas numbers are read off the Fibonacci table;
``hyperharmonic_half`` reads C(2i, i) off another such table.
The tables grow in place, one index at a time; none of them reads another
family's table, the kernels or the series layer, so each cross-check
compares independent computations.

A table holds its entries over one integer scale per index, shared by all
its levels.  ``hyperharmonic`` keeps integer numerators over lcm(1..n), so
a step is one integer multiplication and addition, where a reduced
``Fraction`` addition pays two large gcds, and a value is reduced to a
``Fraction`` only when it is read: growing to order p fills the p - 1
levels below it too, and most of their cells are never read.  Every other
table is at scale 1.  ``stirling1``, ``fibonacci`` and the central binomials
are integers.  The one-index sums (harmonic, order-r harmonic, odd
harmonic, half-integer offset) hold reduced ``Fraction``s: their terms have
small denominators, so each addition is cheap, while reading a sum over
integers would pay one large gcd per row.  ``harmonic_like`` holds
``Fraction``s too: over n! its dense rows at small m read about 50% slower,
and over lcm(1..n)^m its single large-m values fill many times slower.

Queries that would take too much memory or time are refused with
:class:`FeasibilityError` before any table grows.  A table keeps n + 1
entries of size about linear in n, so one size rule bounds them all: a query
is refused when (n+1)^2 * w exceeds :data:`SIZE_CEILING`, the weight w being::

    1                    harmonic, odd_harmonic, half_harmonic_offset, fibonacci, lucas
    r                    harmonic_order
    p                    hyperharmonic
    (k+1)*bit_length(n)  stirling1, for k <= n (k > n is 0 at once)

At small n, where the rule admits any order, ``hyperharmonic`` refuses
(n+1)*p and ``harmonic_order`` (n+1)*r^2 over :data:`TABLE_CEILING`.
Two ceilings bound time: ``harmonic_like`` refuses (n+1)^2 * max(m, 1) over
:data:`HARMONIC_LIKE_CEILING` for m <= n, and ``hyperharmonic_half`` r + p
over :data:`HALF_CEILING`.

Every cache is a table listed once in ``_MEMOS``, shared between threads by
the one locking rule of ``_LevelTable``, and transparent: a warm cache
returns exactly what a cold recomputation would.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from itertools import combinations, pairwise
from math import gcd, prod
from typing import Callable, Hashable, Mapping, NamedTuple, NoReturn

from multiharm import _kernels
from multiharm.rational import binomial, gen_binomial

_ZERO = Fraction(0)
_ONE = Fraction(1)

_lock = threading.RLock()


class FeasibilityError(ValueError):
    """Raised when a query would exceed a ceiling on the work it may do."""


def _check_index(n: int, name: str = "n") -> None:
    if n < 0:
        raise ValueError(f"{name} must be >= 0, got {n}")


# ---------------------------------------------------------------------------
# the memo-table type


class _LevelTable:
    """Memo table for a two-index recurrence, grown in place level by level.

    ``levels[j][i]`` is the exact value at index i on level j times
    ``scales[i]``, an integer scale shared by every level at index i.  A
    table built without ``ratio`` has scale 1 everywhere, so its entries are
    the values themselves; with ``ratio``, ``scales[i] = scales[i-1] *
    ratios[i]``, where ``ratios[i] = ratio(i, scales[i-1])``, its entries
    are integer numerators, and every read reduces one to a ``Fraction``.
    Level 0 is ``base(i, scales[i], row)``, ``row`` being level 0 up to
    index i - 1, so a table of one level, with no ``step``, holds a
    one-index recurrence.  Every level j >= 1 starts at index 0 with
    ``start`` and continues by ``step(j, i, left, below, ratios[i])``, where
    ``left`` is the entry at index i - 1 of level j and ``below`` is level
    j - 1, already grown at least to index i.  A partial sum is a one-level
    scale-1 table (see :func:`_partial_sums`).

    Levels may differ in length, but each one is always a correct prefix:
    a value is appended only once it is fully computed, and the scales and
    lower levels grow first.  A fill interrupted part-way (for example by
    MemoryError) therefore leaves the table consistent, and growing by one
    index costs one ``step`` per level instead of a recomputation.

    One locking rule: a table grows, is sliced by :meth:`column` and is
    emptied by :meth:`cache_clear` (through :func:`clear_caches`) only under
    the module lock, while :meth:`value` reads an entry and its scale without
    it.  A stored entry or scale is exact and never changed, and a clear
    only unlinks the upper levels and empties level 0 and the scales in
    place, so a read racing it either gets exact values or an
    ``IndexError``, and then grows the table under the lock and reads again.
    """

    def __init__(
        self,
        base: Callable[[int, int, list], Fraction | int],
        start: Fraction | int,
        step: Callable[[int, int, Fraction | int, list, int], Fraction | int] | None,
        ratio: Callable[[int, int], int] | None = None,
    ) -> None:
        self.base = base
        self.start = start
        self.step = step
        self.ratio = ratio
        self.scales = [1]
        self.ratios = [1]
        self.levels: list[list] = [[base(0, 1, [])]]

    def cache_clear(self) -> None:
        del self.levels[1:]
        del self.levels[0][1:]
        del self.scales[1:]
        del self.ratios[1:]

    def value(self, i: int, j: int) -> Fraction | int:
        try:
            if self.ratio is None:
                return self.levels[j][i]
            return Fraction(self.levels[j][i], self.scales[i])
        except IndexError:
            pass
        with _lock:
            self._grow(i + 1, j)
            return self.value(i, j)

    def column(self, n: int, j: int) -> list:
        """The values at indices 0..n of level j of a scale-1 table, as a new list."""
        with _lock:
            self._grow(n + 1, j)
            return self.levels[j][: n + 1]

    def _grow(self, size: int, top: int) -> None:
        levels, scales, ratios, ratio, step = self.levels, self.scales, self.ratios, self.ratio, self.step
        for i in range(len(scales), size):
            r = ratio(i, scales[-1]) if ratio else 1
            ratios[i:] = [r]  # replaces a ratio left by a fill interrupted here
            scales.append(scales[-1] * r)
        base = levels[0]
        for i in range(len(base), size):
            base.append(self.base(i, scales[i], base))
        for j in range(1, top + 1):
            if j == len(levels):
                levels.append([self.start])
            level, below = levels[j], levels[j - 1]
            left = level[-1]
            for i in range(len(level), size):
                left = step(j, i, left, below, ratios[i])
                level.append(left)


def _partial_sums(term: Callable[[int], Fraction]) -> _LevelTable:
    # S_k = S_(k-1) + term(k), read off level 0's own prefix; one level, so no step
    return _LevelTable(lambda k, scale, row: row[-1] + term(k) if k else _ZERO, _ZERO, None)


class _KeyedTables(dict):
    """Memo tables by key, each one made by ``make(key)`` when its key is first read."""

    def __init__(self, make: Callable[[Hashable], _LevelTable]) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key: Hashable) -> _LevelTable:
        # of two threads that make the same table, both keep the one stored first
        return self.setdefault(key, self.make(key))

    # only unlinks the tables, so a read racing it finishes on its old table, which is exact, or makes a new one
    cache_clear = dict.clear


# ---------------------------------------------------------------------------
# harmonic numbers and relatives


_harmonic = _partial_sums(lambda k: Fraction(1, k))
_harmonic_order = _KeyedTables(lambda r: _partial_sums(lambda k: Fraction(1, k**r)))
_odd_harmonic = _partial_sums(lambda k: Fraction(1, 2 * k - 1))
_half_offset = _partial_sums(lambda k: Fraction(2, 2 * k - 1))


def harmonic(n: int) -> Fraction:
    """H_n = 1 + 1/2 + ... + 1/n, with H_0 = 0, refused over the size rule (see the module docstring)."""
    _check_index(n)
    _check_size(n)
    return _harmonic.value(n, 0)


def harmonic_order(n: int, r: int) -> Fraction:
    """Order-r harmonic number: sum of 1/k^r for k = 1..n.

    Refused over the size rule or :data:`TABLE_CEILING`; at r = 1 it reads :func:`harmonic`.
    """
    _check_index(n)
    if r < 1:
        raise ValueError(f"order r must be >= 1, got {r}")
    _check_harmonic_order(n, r)
    if r == 1:
        return harmonic(n)
    return _harmonic_order[r].value(n, 0)


def odd_harmonic(n: int) -> Fraction:
    """O_n = sum of 1/(2k-1) for k = 1..n, with O_0 = 0."""
    _check_index(n)
    _check_size(n)
    return _odd_harmonic.value(n, 0)


def half_harmonic_offset(n: int) -> Fraction:
    """Half-integer harmonic offset: sum of 1/(k - 1/2) for k = 1..n.

    This is the difference of harmonic values at n - 1/2 and at -1/2; only
    such differences are rational, and they are all this package ever needs.
    Each step adds the exact term 1/(k - 1/2) = 2/(2k - 1).
    """
    _check_index(n)
    _check_size(n)
    return _half_offset.value(n, 0)


# ---------------------------------------------------------------------------
# multiple harmonic-like numbers


def _harmonic_like_step(m: int, n: int, left: Fraction, below: list, r: int) -> Fraction:
    # t(n, m) = t(n-1, m) + m/n * t(n-1, m-1): the coefficient of z^n in
    # L^m, L = -ln(1-z), is m/n times that of z^(n-1) in L^(m-1)/(1-z).
    return left + Fraction(m, n) * below[n - 1]


_hlike = _LevelTable(lambda n, scale, row: _ONE, _ZERO, _harmonic_like_step)


def harmonic_like(n: int, m: int) -> Fraction:
    """Multiple harmonic-like number: sum of 1/(k_1 ... k_m) over positive
    integer m-tuples with k_1 + ... + k_m <= n.

    Primary route: the first-order recurrence
    ``t(n+1, m) = t(n, m) + m/(n+1) * t(n, m-1)`` with t(n, 0) = 1 and
    t(0, m) = 0 for m >= 1, which follows from
    ``[z^(n+1)] L^m = m/(n+1) * [z^n] L^(m-1)/(1-z)`` for L = -ln(1-z).
    The memo table grows in place: a new index costs O(m) operations.
    It reads neither :func:`stirling1` nor the series layer; the cross-check
    routes are :func:`harmonic_like_convolution`,
    :func:`harmonic_like_bruteforce` and ``series.gf_harmonic_like``.
    Refused over :data:`HARMONIC_LIKE_CEILING` (see the module docstring);
    m > n is 0 at once.
    """
    _check_index(n)
    _check_index(m, "m")
    if m > n:
        return _ZERO
    _check_harmonic_like_work(n, m)
    return _hlike.value(n, m)


def harmonic_like_column(n: int, m: int) -> list[Fraction]:
    """``[harmonic_like(i, m) for i in range(n + 1)]``, refused only as ``harmonic_like(n, m)`` is:
    its check bounds every smaller index too, and its read grows the table for one slice."""
    harmonic_like(n, m)
    return _hlike.column(n, m) if m <= n else [_ZERO] * (n + 1)


def harmonic_like_convolution(n: int, m: int) -> Fraction:
    """Cross-check route for :func:`harmonic_like`: the convolution recurrence
    ``t(n, m+1) = sum_{j=1..n} t(n-j, m)/j``, tabulated from scratch by
    ``_kernels.harmonic_like_levels`` on every call (O(m n^2), no memo).
    """
    _check_index(n)
    _check_index(m, "m")
    return _kernels.harmonic_like_levels(n, m)[m][n]


#: Default ceiling on how many tuples the brute-force oracle will enumerate.
BRUTE_FORCE_CEILING = 2_000_000

#: Ceiling on (n + 1)^2 * w, the size rule of the module docstring, read at
#: call time.  ``harmonic`` fills 21, 36 and 93 MB at n = 5000, 10000 and
#: 20000, so n = 10^5 would take about 2.3 GB; the ceiling admits n up to
#: 31621, at 206 MB.  At the ceiling ``harmonic_order(22359, 2)`` takes 1.0 s
#: and 205 MB, and ``hyperharmonic(18256, 3)`` 0.39 s and 173 MB.  A
#: ``stirling1`` table is cheap to fill but keeps every entry (one column of
#: 8000 rows holds about 45 MB), so a bare cap on n would admit any k: the
#: 5001 rows of ``seq --family stirling1 --k 2 --n 5000`` fill in 0.2 s, at
#: 49 MB, and print in about 10 s; ``--k 100 --n 950`` takes 0.7 s and 63 MB.
SIZE_CEILING = 1_000_000_000

#: The size rule's weight w by its parameter, and its families, as refusals and ``--help`` print them.
_SIZE_WEIGHTS = {
    "": ("1", "harmonic, odd_harmonic, half_harmonic_offset, fibonacci and lucas"),
    "r": ("r", "harmonic_order"),
    "p": ("p", "hyperharmonic"),
    "k": ("(k+1)*bit_length(n)", "stirling1 with k <= n"),
}

#: Ceiling on (n + 1) p for a ``hyperharmonic`` query and (n + 1) r^2 for a
#: ``harmonic_order`` one, read at call time, for small n, where the size
#: rule admits any order: ``hyperharmonic(2, 10**8)`` would grow 10^8 table
#: levels, and a term 1/k^r of ``harmonic_order`` has r times the digits of
#: k, so each addition's gcd costs about r^2: ``harmonic_order(250, r)`` fills
#: in 0.53 s at r = 500 and 1.85 s at r = 1000.  Of the largest orders
#: admitted at n = 250, 1000, 5000, 10000 and 22359, the slowest to fill is
#: ``harmonic_order(10000, 9)``, at 1.6 s.
TABLE_CEILING = 1_000_000

#: Ceiling on (n + 1)^2 * max(m, 1) for a ``harmonic_like`` query with m <= n,
#: read at call time: the (n + 1) * max(m, 1) cells to fill (level 0 grows at
#: m = 0), times n + 1 for the bit length of their entries.  Cells alone are
#: no measure of the work: 250 000 of them take 8 s at (n, m) = (700, 350) and
#: over 60 s at (2500, 100).  The ceiling admits (700, 350); the heaviest
#: queries it admits, with m from 10 to 200, take 10 to 13 s on one core.
HARMONIC_LIKE_CEILING = 175_000_000

#: Ceiling on r + p for a ``hyperharmonic_half`` query, read at call time.
#: Filling the odd harmonic table up to r + p, and each row's central
#: binomials C(2(r+p), r+p) and C(2p, p), cost time that grows faster than
#: linearly in r + p; at the ceiling, the 2001 rows of
#: ``seq --family hyperharmonic_half --p 2000 --n 2000`` take about 7 s.
HALF_CEILING = 4_000

#: What each ceiling above bounds, as refusals and ``--help`` print it; ``_ORDER_WORK`` by the order's name.
_ORDER_WORK = {"p": "(n+1)*p", "r": "(n+1)*r^2"}
_HARMONIC_LIKE_WORK = "(n+1)^2*max(m,1)"
_HALF_WORK = "r+p"


def _refuse(formula: str, ceiling: int, **at: int) -> NoReturn:
    """Raise the refusal of a query whose ``formula`` exceeds ``ceiling`` at the values ``at``."""
    where = ", ".join(f"{name}={value}" for name, value in at.items())
    raise FeasibilityError(f"{formula} exceeds the ceiling of {ceiling} at {where}")


# Each check is one comparison: the checks run about 200 000 times in one
# ``verify``, so a refusal's text is built only when it is raised.
def _check_size(n: int, weight: int = 1, param: str = "", value: int = 0) -> None:
    if (n + 1) ** 2 * weight > SIZE_CEILING:
        if not param:
            _refuse("(n+1)^2", SIZE_CEILING, n=n)
        _refuse(f"(n+1)^2*{_SIZE_WEIGHTS[param][0]}", SIZE_CEILING, n=n, **{param: value})


def _check_harmonic_order(n: int, r: int) -> None:
    if (n + 1) * r * r > TABLE_CEILING:
        _refuse(_ORDER_WORK["r"], TABLE_CEILING, n=n, r=r)
    _check_size(n, r, "r", r)


def _check_hyperharmonic(n: int, p: int) -> None:
    if (n + 1) * p > TABLE_CEILING:
        _refuse(_ORDER_WORK["p"], TABLE_CEILING, n=n, p=p)
    _check_size(n, p, "p", p)


def _check_stirling(n: int, k: int) -> None:
    if k <= n:  # k > n is 0 at once
        _check_size(n, (k + 1) * n.bit_length(), "k", k)


def _check_harmonic_like_work(n: int, m: int) -> None:
    if m <= n and (n + 1) ** 2 * (m or 1) > HARMONIC_LIKE_CEILING:
        _refuse(_HARMONIC_LIKE_WORK, HARMONIC_LIKE_CEILING, n=n, m=m)


def _check_half_index(r: int, p: int) -> None:
    if r + p > HALF_CEILING:
        _refuse(_HALF_WORK, HALF_CEILING, r=r, p=p)


def harmonic_like_bruteforce(n: int, m: int) -> Fraction:
    """Independent oracle for :func:`harmonic_like`: the literal composition sum.

    Enumerates every m-tuple of positive integers with component sum <= n
    (there are C(n, m) of them) and adds the exact reciprocal products.
    Refuses with :class:`FeasibilityError` when the tuple count exceeds
    :data:`BRUTE_FORCE_CEILING`, read at call time.
    """
    _check_index(n)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    count = binomial(n, m)
    if count > BRUTE_FORCE_CEILING:
        raise FeasibilityError(
            f"{count} tuples for (n={n}, m={m}) exceeds the ceiling of {BRUTE_FORCE_CEILING}"
        )
    total = _ZERO
    for s in range(m, n + 1):
        # compositions of s into m positive parts: the gaps between the cut positions 0 < c_1 < ... < s
        for cuts in combinations(range(1, s), m - 1):
            total += Fraction(1, prod(b - a for a, b in pairwise((0, *cuts, s))))
    return total


# ---------------------------------------------------------------------------
# Stirling numbers of the first kind


def _stirling_step(k: int, n: int, left: int, below: list, r: int) -> int:
    # s(n, k) = s(n-1, k-1) - (n-1) * s(n-1, k)
    return below[n - 1] - (n - 1) * left


_stirling = _LevelTable(lambda n, scale, row: int(n == 0), 0, _stirling_step)


def stirling1(n: int, k: int) -> int:
    """Signed Stirling number of the first kind s(n, k).

    Primary route: the triangle recurrence s(n+1, k) = s(n, k-1) - n*s(n, k)
    with s(0, 0) = 1; s(n, k) = 0 for n < k.  Only the columns 0..k asked
    for so far are kept, each grown in place, so a new index costs O(k)
    integer operations and memory is O(n k), not the whole triangle.  The
    cross-check route is ``series.gf_stirling_column``.  Refused over the
    size rule, which bounds the bits of the columns kept, as |s(i, j)| <= i!
    < 2^(n * bit_length(n)); k > n is 0 at once.
    """
    _check_index(n)
    _check_index(k, "k")
    if k > n:
        return 0
    _check_stirling(n, k)
    return _stirling.value(n, k)


def stirling1_column(n: int, k: int) -> list[int]:
    """``[stirling1(i, k) for i in range(n + 1)]``, refused only as ``stirling1(n, k)`` is:
    its check bounds every smaller index too, and its read grows the table for one slice."""
    stirling1(n, k)
    return _stirling.column(n, k) if k <= n else [0] * (n + 1)


# ---------------------------------------------------------------------------
# hyperharmonic numbers


def _lcm_ratio(n: int, scale: int) -> int:
    # lcm(1..n) / lcm(1..n-1): the prime p when n is a power of p, else 1
    return n // gcd(n, scale)


def _scaled_sum_step(p: int, n: int, left: int, below: list, r: int) -> int:
    # value(n, p) = value(n-1, p) + value(n, p-1), with value(n-1, p) brought
    # from scale lcm(1..n-1) up to lcm(1..n)
    return left * r + below[n]


# scale lcm(1..n), so level 0 holds the integers lcm(1..n)/n
_hyper = _LevelTable(lambda n, scale, row: scale // n if n else 0, 0, _scaled_sum_step, _lcm_ratio)


def hyperharmonic(n: int, p: int) -> Fraction:
    """Hyperharmonic number: p-fold iterated partial sum of 1/n.

    Defined by the recurrence ``value(n, p) = sum_{i=1..n} value(i, p-1)``
    with base level value(n, 0) = 1/n and value(0, p) = 0 for p >= 1.
    value(0, 0) is undefined and raises ValueError.  Levels are filled in a
    loop, lowest first, so no order p needs deep recursion.  Refused over
    the size rule or :data:`TABLE_CEILING` (see the module docstring).
    """
    _check_index(n)
    _check_index(p, "p")
    _check_hyperharmonic(n, p)
    if p == 0:
        if n == 0:
            raise ValueError("hyperharmonic(0, 0) is undefined (base level is 1/n)")
        return Fraction(1, n)
    return _hyper.value(n, p)


def hyperharmonic_closed(n: int, p: int) -> Fraction:
    """Cross-check route for :func:`hyperharmonic`:
    value(n, p) = C(n+p-1, n) * (H_{n+p-1} - H_{p-1}) for p >= 1.
    Refused as :func:`hyperharmonic` is, before the binomial.
    """
    _check_index(n)
    _check_index(p, "p")
    _check_hyperharmonic(n, p)
    if p == 0:
        if n == 0:
            raise ValueError("hyperharmonic(0, 0) is undefined (base level is 1/n)")
        return Fraction(1, n)
    return binomial(n + p - 1, n) * (harmonic(n + p - 1) - harmonic(p - 1))


# C(2i, i) = C(2i-2, i-1) * 2(2i-1)/i, an exact division; one level, so no step
_central = _LevelTable(lambda i, scale, row: row[-1] * 2 * (2 * i - 1) // i if i else 1, 0, None)


def hyperharmonic_half(r: int, p: int) -> Fraction:
    """Hyperharmonic number of half-integer order p + 1/2, index r.

    Central-binomial form:
    2^(1-2r) * C(2p, p)^-1 * C(2(r+p), r+p) * C(r+p, r) * (O_{r+p} - O_p).
    Refused over :data:`HALF_CEILING` (see the module docstring).
    """
    _check_index(r, "r")
    _check_index(p, "p")
    _check_half_index(r, p)
    return (
        Fraction(2, 4**r)
        * Fraction(_central.value(r + p, 0), _central.value(p, 0))
        * binomial(r + p, r)
        * (odd_harmonic(r + p) - odd_harmonic(p))
    )


def hyperharmonic_half_via_binomial(r: int, p: int) -> Fraction:
    """Independent route for :func:`hyperharmonic_half`:
    C(r+p-1/2, r) * 2 * (O_{r+p} - O_p), via the generalized binomial.
    Refused as :func:`hyperharmonic_half` is, before the O(r) binomial.
    """
    _check_index(r, "r")
    _check_index(p, "p")
    _check_half_index(r, p)
    return gen_binomial(Fraction(2 * (r + p) - 1, 2), r) * 2 * (odd_harmonic(r + p) - odd_harmonic(p))


# ---------------------------------------------------------------------------
# Fibonacci / Lucas


# F_n = F_(n-1) + F_(n-2), read off level 0's own prefix; one level, so no step
_fibonacci = _LevelTable(lambda n, scale, row: row[-1] + row[-2] if n > 1 else n, 0, None)


def fibonacci(n: int) -> int:
    """F_n with F_0 = 0, F_1 = 1, refused over the size rule (see the module docstring)."""
    _check_index(n)
    _check_size(n)
    return _fibonacci.value(n, 0)


def lucas(n: int) -> int:
    """L_n with L_0 = 2, L_1 = 1, as L_n = F_(n-1) + F_(n+1) = 2 F_(n+1) - F_n.

    It has the size rule of :func:`fibonacci` at its own n, though it reads
    F_(n+1) too.
    """
    _check_index(n)
    _check_size(n)
    return 2 * _fibonacci.value(n + 1, 0) - _fibonacci.value(n, 0)


# ---------------------------------------------------------------------------
# named families


class _Family(NamedTuple):
    evaluate: Callable[..., Fraction | int]
    #: The family's parameters, each with the smallest value it accepts.
    minimum: Mapping[str, int] = {}
    #: ``limit(n, **params)`` raises FeasibilityError for a query over the
    #: family's ceiling; it grows with n, so checking the last index suffices.
    limit: Callable[..., None] = lambda n, **params: None


_FAMILIES: dict[str, _Family] = {
    "harmonic": _Family(harmonic, limit=_check_size),
    "harmonic_order": _Family(harmonic_order, {"r": 1}, _check_harmonic_order),
    "odd_harmonic": _Family(odd_harmonic, limit=_check_size),
    "harmonic_like": _Family(harmonic_like, {"m": 0}, _check_harmonic_like_work),
    "stirling1": _Family(stirling1, {"k": 0}, _check_stirling),
    "hyperharmonic": _Family(hyperharmonic, {"p": 0}, _check_hyperharmonic),
    "hyperharmonic_half": _Family(hyperharmonic_half, {"p": 0}, _check_half_index),
    "fibonacci": _Family(fibonacci, limit=_check_size),
    "lucas": _Family(lucas, limit=_check_size),
    "half_harmonic_offset": _Family(half_harmonic_offset, limit=_check_size),
}

#: Stable public vocabulary of sequence family names.
FAMILY_NAMES: tuple[str, ...] = tuple(_FAMILIES)


class SeqSpec:
    """A named, parameterized sequence family with an evaluation contract.

    ``family`` must be one of :data:`FAMILY_NAMES`; ``params`` must supply
    exactly the parameters that family requires (e.g. ``m`` for
    ``harmonic_like``).  Evaluation at an index is deterministic and
    independent of call order.  A spec is a read-only value: it keeps its own
    copy of ``params``, equals a spec of the same family and parameters, and
    refuses assignment to any attribute with ``AttributeError``.
    """

    family: str
    params: Mapping[str, int]

    def __init__(self, family: str, params: Mapping[str, int] | None = None) -> None:
        fam = _FAMILIES.get(family)
        if fam is None:
            raise ValueError(
                f"unknown sequence family {family!r}; known: {', '.join(FAMILY_NAMES)}"
            )
        params = dict(params or {})
        missing = [p for p in fam.minimum if p not in params]
        extra = [p for p in params if p not in fam.minimum]
        if missing:
            raise ValueError(f"family {family!r} requires parameter(s): {', '.join(missing)}")
        if extra:
            raise ValueError(f"family {family!r} does not take: {', '.join(extra)}")
        for key, low in fam.minimum.items():
            if params[key] < low:
                raise ValueError(f"family {family!r}: parameter {key} must be >= {low}")
        self.__dict__.update(family=family, params=params)

    def __setattr__(self, name: str, value: object = None) -> NoReturn:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.family, self.params) == (other.family, other.params)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(family={self.family!r}, params={self.params!r})"

    def evaluate(self, n: int) -> Fraction | int:
        return _FAMILIES[self.family].evaluate(n, **self.params)

    def check(self, n: int) -> None:
        """Refuse n < 0 or a query over the family's ceiling, evaluating nothing."""
        _check_index(n)
        _FAMILIES[self.family].limit(n, **self.params)


#: Every memo of this module, each of them emptied by its ``cache_clear()``.
_MEMOS: tuple = (_harmonic, _harmonic_order, _odd_harmonic, _half_offset, _hlike, _stirling, _hyper, _central,
                  _fibonacci)


def clear_caches() -> None:
    """Empty every memo in ``_MEMOS`` (cold-start state, mainly for tests); no other module keeps one."""
    with _lock:
        for memo in _MEMOS:
            memo.cache_clear()
