"""Differential tests: the series kernels against schoolbook Fraction loops.

The kernels multiply by Kronecker substitution, and invert / take square
roots by coefficient recurrences over one common denominator, on integer
vectors.  The references below are the plain ``Fraction`` coefficient loops;
every output must equal theirs exactly.  The kernels are driven through a
small Fraction <-> integer adapter (``product``, ``inverse``, ``sqrt``), so
the references and the strategies stay in ``Fraction`` terms.
"""

import dataclasses
import decimal
import inspect
import operator
import sys
from fractions import Fraction
from functools import reduce
from math import comb, lcm

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from multiharm import _kernels
from multiharm.identities import IdentityDescriptor
from multiharm.sequences import SeqSpec, stirling1
from multiharm.series import TruncatedSeries

F = Fraction
_ZERO = F(0)


def to_integers(f):
    """(a, d) with f[i] == a[i] / d."""
    d = lcm(*[F(c).denominator for c in f])
    return [F(c).numerator * (d // F(c).denominator) for c in f], d


def over(nums, den):
    assert all(type(x) is int for x in nums) and type(den) is int and den != 0
    return [F(x, den) for x in nums]


def product(f, g, order):
    (a, da), (b, db) = to_integers(f), to_integers(g)
    return over(_kernels.cauchy_product(a, b, order), da * db)


def inverse(f):
    a, d = to_integers(f)
    b, e = _kernels.invert_series(a)
    return over([x * d for x in b], e)


def sqrt(f):
    a, _ = to_integers(f)  # f[0] == 1, so a[0] is the denominator
    return over(*_kernels.sqrt_series(a))


def schoolbook_product(f, g, order):
    out = []
    for n in range(order + 1):
        acc = _ZERO
        for k in range(max(0, n - len(g) + 1), min(n, len(f) - 1) + 1):
            acc += f[k] * g[n - k]
        out.append(acc)
    return out


def schoolbook_inverse(f):
    inv0 = 1 / F(f[0])
    out = [inv0]
    for n in range(1, len(f)):
        acc = _ZERO
        for i in range(1, n + 1):
            acc += f[i] * out[n - i]
        out.append(-acc * inv0)
    return out


def schoolbook_sqrt(f):
    out = [F(1)]
    for n in range(1, len(f)):
        acc = _ZERO
        for i in range(1, n):
            acc += out[i] * out[n - i]
        out.append((f[n] - acc) / 2)
    return out


small = st.fractions(min_value=-50, max_value=50, max_denominator=30)
# numerators and denominators far beyond one machine word
huge = st.builds(
    F,
    st.integers(min_value=-(10**60), max_value=10**60),
    st.integers(min_value=1, max_value=10**45),
)
coeff = st.one_of(small, huge)


def series(min_size=0, max_size=40, elements=coeff):
    return st.lists(elements, min_size=min_size, max_size=max_size)


def test_benchmark_reads_backend_and_five_kernels():
    # the names and call shapes the benchmark harness wraps and times
    assert _kernels.BACKEND == "pure"
    arities = {"cauchy_product": 3, "invert_series": 1, "sqrt_series": 1,
               "harmonic_like_levels": 2, "stirling1_rows": 1}
    for name, arity in arities.items():
        assert len(inspect.signature(getattr(_kernels, name)).parameters) == arity
    assert _kernels.cauchy_product([1, 1], [1, -1], 2) == [1, 0, -1]
    assert _kernels.invert_series([1, -1]) == ([1, 1], 1)
    b, e = _kernels.sqrt_series([4, 8, 4])  # sqrt(1 + 2z + z^2) = 1 + z
    assert over(b, e) == [1, 1, 0]
    assert _kernels.harmonic_like_levels(1, 1) == [[1, 1], [0, 1]]
    assert _kernels.stirling1_rows(1) == [[1], [0, 1]]
    # one module, integer-only series kernels
    assert not hasattr(_kernels, "__path__")
    assert not hasattr(_kernels, "pure") and not hasattr(_kernels, "_to_integers")


def test_benchmark_tracer_hooks_are_in_place():
    # perfbench/tracer.py wraps SeqSpec.__dict__["evaluate"] and passes each
    # descriptor through dataclasses.replace with its sides wrapped
    assert inspect.isfunction(vars(SeqSpec)["evaluate"])
    assert dataclasses.is_dataclass(IdentityDescriptor)


@settings(max_examples=150)
@given(series(), series(), st.integers(min_value=-1, max_value=90))
@example([F(-(10**60)), F(-3, 7), F(-1)], [F(-2), F(-(10**45), 11)], 9)  # all negative
@example([F(-5), F(-(2**70)), F(-1, 3)], [F(4), F(10**60)], 6)  # a negative product
def test_cauchy_product_matches_schoolbook(f, g, order):
    # unequal lengths, orders past len(f) + len(g) - 2, empty factors, mixed signs
    assert product(f, g, order) == schoolbook_product(f, g, order)


@given(series(min_size=1), st.integers(min_value=1, max_value=40), st.integers(0, 60))
def test_cauchy_product_with_an_all_zero_factor(f, zeros, order):
    expected = [_ZERO] * (order + 1)
    assert product(f, [_ZERO] * zeros, order) == expected
    assert product([_ZERO] * zeros, f, order) == expected


@settings(max_examples=100)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=48),
    st.sampled_from([1, -1]),
    st.sampled_from([1, -1]),
    st.integers(min_value=1, max_value=10**20),
)
def test_cauchy_product_at_the_slot_bound(n, bits, sign_f, sign_g, den):
    # The slot bound n * a * 1 has exactly ``bits`` bits, and the top
    # coefficient of the product reaches it.  bits = 8k - 1 and 8k are the
    # edges of byte-wide slots; the decimal slot edges are tested below.
    a = (2**bits - 1) // n
    assume(a > 0 and (n * a).bit_length() == bits)
    f = [F(sign_f * a, den)] * n
    g = [F(sign_g)] * n
    result = product(f, g, 2 * n)
    assert result == schoolbook_product(f, g, 2 * n)
    assert result[n - 1] == F(sign_f * sign_g * n * a, den)
    # the same vectors as integers put the bound on the slot exactly
    ints = _kernels.cauchy_product([sign_f * a] * n, [sign_g] * n, 2 * n)
    assert ints[n - 1] == sign_f * sign_g * n * a
    assert ints == [h * den for h in result]


signed = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.just(0),
    st.integers(min_value=-(10**200), max_value=10**200),
)


@settings(max_examples=150)
@given(st.lists(signed, min_size=1, max_size=40), st.integers(min_value=-1, max_value=90))
@example([0], 5)  # length 1, all zero
@example([-3], 0)  # length 1
@example([0] * 12, 30)  # all zero, order past the length
@example([0, 0, 5, 0, -7, 0], 14)  # zeros around signed entries
@example([-(2**63 - 1), 2**63 - 1] * 10, 45)
@example([-(10**200), -(2**70), -1, -5], 10)  # all negative, order past the last slot
@example([-1] * 30, 65)
def test_cauchy_square_matches_the_general_path(a, order):
    # ``a is a`` takes the squaring path; the copy makes the general one
    general = _kernels.cauchy_product(a, list(a), order)
    assert _kernels.cauchy_product(a, a, order) == general
    t = tuple(a)  # as TruncatedSeries passes it
    assert _kernels.cauchy_product(t, t, order) == general


def reference(a, b, order):
    """Coefficients 0..order of a * b by the schoolbook loop, as integers."""
    return [int(h) for h in schoolbook_product(a, b, order)]


#: Sign patterns of the slot-edge vectors, by index.
SIGNS = {"positive": lambda i: 1, "negative": lambda i: -1, "alternating": lambda i: (-1) ** i}


@settings(max_examples=200)
@given(
    st.integers(min_value=0, max_value=70),
    st.sampled_from([(1, -1), (1, 0), (5, -1), (5, 0)]),
    st.integers(min_value=1, max_value=30),
    st.sampled_from(list(SIGNS)),
    st.sampled_from(list(SIGNS)),
    st.integers(min_value=0, max_value=125),
)
@example(3, (1, -1), 9, "negative", "negative", 19)  # order past the last slot
@example(3, (1, 0), 8, "negative", "positive", 7)
@example(2, (5, -1), 1, "positive", "negative", 0)
@example(2, (5, 0), 5, "alternating", "alternating", 11)
def test_cauchy_product_at_the_decimal_slot_edges(k, edge, n, sign_a, sign_b, order):
    # The bound n * x * 1 is exactly m * 10**k + c.  A slot has the digits of
    # twice the bound, so 5*10**k - 1 fills a (k+1)-digit slot to its last
    # value and 5*10**k needs a (k+2)-th digit; 10**k - 1 and 10**k step the
    # bound's own digit count.  Unless one vector alternates and the other
    # does not, the coefficient n - 1 reaches the bound.
    m, c = edge
    bound = m * 10**k + c
    assume(bound % n == 0)
    a = [SIGNS[sign_a](i) * (bound // n) for i in range(n)]
    b = [SIGNS[sign_b](i) for i in range(n)]
    assert _kernels.cauchy_product(a, b, order) == reference(a, b, order)
    if (sign_a == "alternating") == (sign_b == "alternating"):
        assert abs(_kernels.cauchy_product(a, b, n - 1)[n - 1]) == bound


#: Entries of 301 to 1501 digits: their products' slots run from about 600 to 3000 digits.
wide = st.integers(min_value=300, max_value=1500).flatmap(
    lambda e: st.integers(min_value=10**e, max_value=10 ** (e + 1))
)
#: 5 * 10**700 - 1 is the largest bound a 701-digit slot holds: the carry edge.
EDGE = 5 * 10**700 - 1


@settings(max_examples=80, deadline=None)
@given(
    st.lists(wide, min_size=1, max_size=8),
    st.lists(wide, min_size=1, max_size=8),
    st.sampled_from(list(SIGNS)),
    st.sampled_from(list(SIGNS)),
    st.booleans(),
    st.integers(min_value=0, max_value=33),
)
@example([EDGE, EDGE], [1], "alternating", "positive", False, 2)  # top coefficient -bound
@example([EDGE, EDGE], [1], "negative", "alternating", False, 2)  # top coefficient +bound
@example([EDGE, EDGE], [1], "positive", "positive", False, 2)  # every coefficient +bound
@example([10**700, 3 * 10**900, 10**1200], [10**800, 10**300], "negative", "positive", False, 5)
@example([10**1500 - 1] * 3, [1], "alternating", "positive", True, 5)  # squared
def test_cauchy_product_splits_slots_past_the_int_string_digit_limit(
    mags_a, mags_b, sign_a, sign_b, square, order
):
    # At the lowest limit CPython allows, most slots are longer than int(str)
    # may read at once, so they are read in pieces.
    a = [SIGNS[sign_a](i) * x for i, x in enumerate(mags_a)]
    b = a if square else [SIGNS[sign_b](i) * x for i, x in enumerate(mags_b)]
    expected = reference(a, b, order)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        got = _kernels.cauchy_product(a, b, order)
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == expected


def test_cauchy_product_past_the_int_string_digit_limit():
    # Entries with more digits than int <-> str conversion allows by default;
    # the packing must never call str(int), nor int(str) on more digits than
    # the limit.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        a = [7**6000, -(3**9000), 11]
        b = [-(5**7000), 2, 13**4000]
        with pytest.raises(ValueError):
            str(7**6000)  # 5072 digits
        for f, g in ((a, a), (a, b), (b, a)):
            assert _kernels.cauchy_product(f, g, 6) == reference(f, g, 6)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("a", [
    [1] * 10,  # the packed vector fits in 25 digits, the product does not
    [10**30 + 7, -3, 5],  # one entry alone does not fit
])
def test_a_product_past_the_exact_context_raises(monkeypatch, a):
    monkeypatch.setattr(_kernels._EXACT, "prec", 25)
    for b in (a, list(a)):
        with pytest.raises((decimal.Inexact, decimal.Rounded)):
            _kernels.cauchy_product(a, b, 2 * len(a))


def test_cauchy_product_leaves_the_thread_context_alone():
    a, b = [3**80, -(2**90), 7], [-5, 11**40, 0, 1]
    expected = reference(a, b, 8)
    before = decimal.getcontext()
    snapshot = repr(before)  # every setting, flag and trap
    assert _kernels.cauchy_product(a, b, 8) == expected
    assert decimal.getcontext() is before and repr(decimal.getcontext()) == snapshot
    # a thread context that would round or trap changes nothing either
    with decimal.localcontext() as ctx:
        ctx.prec = 3
        ctx.traps[decimal.Inexact] = ctx.traps[decimal.Rounded] = True
        inner = repr(ctx)
        assert _kernels.cauchy_product(a, b, 8) == expected
        assert _kernels.cauchy_product(a, a, 4) == reference(a, a, 4)
        assert repr(decimal.getcontext()) == inner


def test_cauchy_square_packs_its_vector_once(monkeypatch):
    packs = []
    pack = _kernels._pack
    monkeypatch.setattr(_kernels, "_pack", lambda a, size: packs.append(size) or pack(a, size))
    a = (3, -1, 4, 0, -5)
    square = _kernels.cauchy_product(a, a, 8)
    assert len(packs) == 1
    assert square == _kernels.cauchy_product(a, list(a), 8) == [
        int(x) for x in schoolbook_product(a, a, 8)
    ]
    assert len(packs) == 3


@settings(max_examples=60)
@given(
    st.integers(min_value=0, max_value=25).flatmap(
        lambda order: st.lists(coeff, min_size=order + 1, max_size=order + 1)
    ),
    st.integers(min_value=1, max_value=5),
)
@example([F(0)], 5)
@example([F(7, 3)], 4)
@example([F(0), F(-1, 2), F(3)], 5)
def test_series_power_matches_products_of_copies(c, m):
    # f ** m squares through one tuple; each factor below is a fresh copy of
    # f, so every product of the reference takes the general path
    f = TruncatedSeries(c)
    copies = [TruncatedSeries(c) for _ in range(m)]
    assert f**m == reduce(operator.mul, copies)


def test_cauchy_product_with_alternating_extremes():
    bound = 2**63 - 1
    f = [F(bound if i % 2 else -bound) for i in range(30)]
    g = [F(-bound if i % 3 else bound, 7) for i in range(25)]
    assert product(f, g, 60) == schoolbook_product(f, g, 60)


@settings(max_examples=100)
@given(series(min_size=1), st.one_of(small, huge).filter(lambda c: c != 0))
def test_invert_series_matches_schoolbook(tail, head):
    # heads other than 1 give denominators that grow like head**n
    f = [head] + tail[1:]
    assert inverse(f) == schoolbook_inverse(f)


@settings(max_examples=100)
@given(series(min_size=1))
def test_sqrt_series_matches_schoolbook(tail):
    f = [F(1)] + tail[1:]
    assert sqrt(f) == schoolbook_sqrt(f)


@given(
    st.integers(min_value=-(10**6), max_value=-1),
    st.lists(st.integers(min_value=-(10**6), max_value=10**6), max_size=20),
)
@example(-4, [8, 0, 0])
@example(-3, [1, 5])
@example(-1, [2, 3, 4, 5])
def test_sqrt_and_invert_series_with_a_negative_head(head, tail):
    # the root is taken of a / a[0], so a negative head is a valid input
    a = [head, *tail]
    assert over(*_kernels.sqrt_series(a)) == schoolbook_sqrt([F(x, head) for x in a])
    assert over(*_kernels.invert_series(a)) == schoolbook_inverse(a)


def test_newton_kernels_at_deep_orders():
    one_minus_4z = [F(1), F(-4)] + [_ZERO] * 299
    root = sqrt(one_minus_4z)
    assert root == schoolbook_sqrt(one_minus_4z)
    central = inverse(root)
    assert central == schoolbook_inverse(root)
    assert central[300] == comb(600, 300)


@pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 8, 9, 17, 33])
def test_newton_kernels_across_precision_doublings(length):
    f = [F(3, 2)] + [F((-1) ** i * i, i + 1) for i in range(1, length)]
    assert inverse(f) == schoolbook_inverse(f)
    f[0] = F(1)
    assert sqrt(f) == schoolbook_sqrt(f)


def test_invert_round_trip_at_kernel_level():
    f = [F(2, 3)] + [F(i * i - 7, i + 2) for i in range(1, 25)]
    g = inverse(f)
    assert product(f, g, 24) == [F(1)] + [_ZERO] * 24


def test_invert_series_rejects_a_zero_head():
    with pytest.raises(ZeroDivisionError):
        inverse([_ZERO, F(1)])
    with pytest.raises(ZeroDivisionError):
        _kernels.invert_series([0])
    with pytest.raises(ZeroDivisionError):
        _kernels.sqrt_series([0, 1])


def test_tabulation_kernels():
    assert _kernels.harmonic_like_levels(0, 0) == [[F(1)]]
    assert _kernels.harmonic_like_levels(4, 2)[2] == [0, 0, 1, 2, F(35, 12)]
    rows = _kernels.stirling1_rows(40)
    assert _kernels.stirling1_rows(0) == [[1]]
    assert all(rows[n][k] == stirling1(n, k) for n in range(41) for k in range(n + 1))
