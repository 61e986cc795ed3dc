"""Differential tests: the series kernels against schoolbook Fraction loops.

The kernels multiply by Kronecker substitution and invert / take square roots
by Newton iteration, on integer vectors.  The references below are the plain
coefficient loops those kernels replaced; every output must equal theirs
exactly.  The kernels are driven through a small Fraction <-> integer adapter
(``product``, ``inverse``, ``sqrt``), so the references and the strategies
stay in ``Fraction`` terms.
"""

import inspect
from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from multiharm import _kernels
from multiharm.sequences import stirling1

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


@settings(max_examples=150)
@given(series(), series(), st.integers(min_value=-1, max_value=90))
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
    # coefficient of the product reaches it.  bits = 8k - 1 fills a k-byte
    # slot up to its sign bit; bits = 8k needs a (k+1)-th byte for the sign.
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
