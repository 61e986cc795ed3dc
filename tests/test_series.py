import operator
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from multiharm.rational import binomial, factorial, gen_binomial
from multiharm.sequences import harmonic_like, hyperharmonic, odd_harmonic, stirling1
from multiharm.series import (
    TruncatedSeries,
    geometric,
    gf_harmonic_like,
    gf_hyperharmonic,
    gf_odd_central,
    gf_stirling_column,
    neg_log_one_minus,
    power_of_one_minus,
)
from multiharm.transforms import AB_FIXTURES, binomial_sum_closed

F = Fraction

coeff = st.fractions(min_value=-20, max_value=20, max_denominator=20)


def unit_head_series(order):
    return st.lists(coeff, min_size=order + 1, max_size=order + 1).map(
        lambda c: TruncatedSeries([F(1)] + c[1:])
    )


def test_construction_and_order():
    f = TruncatedSeries([1, F(1, 2), 3])
    assert f.order == 2
    assert f[1] == F(1, 2)
    assert len(f) == 3
    with pytest.raises(ValueError):
        TruncatedSeries([])


def test_add_mul_examples():
    one_plus = TruncatedSeries([1, 1, 0])
    one_minus = TruncatedSeries([1, -1, 0])
    assert (one_plus * one_minus).coeffs == (F(1), F(0), F(-1))
    f = TruncatedSeries([F(1, 3), 2, F(-5, 7)])
    assert f + TruncatedSeries([0, 0, 0]) == f
    assert (geometric(1, 5) * TruncatedSeries([1, -1, 0, 0, 0, 0])).coeffs == (
        F(1),
        F(0),
        F(0),
        F(0),
        F(0),
        F(0),
    )


def test_arithmetic_truncates_to_smaller_order():
    f = TruncatedSeries([1, 2, 3, 4, 5])
    g = TruncatedSeries([1, 1])
    assert (f + g).order == 1
    assert (f * g).order == 1
    assert (f - g).coeffs == (F(0), F(1))


def test_scalar_multiplication():
    f = TruncatedSeries([1, 2, 3])
    assert (2 * f).coeffs == (F(2), F(4), F(6))
    assert (f * F(1, 2)).coeffs == (F(1, 2), F(1), F(3, 2))
    assert (-f).coeffs == (F(-1), F(-2), F(-3))


@settings(max_examples=60)
@given(
    st.integers(min_value=0, max_value=12).flatmap(
        lambda order: st.lists(coeff, min_size=order + 1, max_size=order + 1)
    ),
    st.integers(min_value=0, max_value=9),
)
@example([F(0)], 9)  # order 0, zero head
@example([F(7, 3)], 9)  # order 0
@example([F(0), F(1, 2), F(-3), F(5, 7)], 9)  # zero head
@example([F(-2, 3), F(1), F(0), F(4, 9), F(-1, 6)], 5)
def test_pow_equals_repeated_left_product(c, m):
    f = TruncatedSeries(c)
    expected = reduce(operator.mul, [f] * m) if m else TruncatedSeries.one(f.order)
    assert f**m == expected


def assert_canonical(results):
    # a series built from a result's Fraction coefficients is stored in
    # lowest terms, so it is equal (and hashes equal) only if the result is too
    for s in results:
        rebuilt = TruncatedSeries(s.coeffs)
        assert rebuilt == s
        assert hash(rebuilt) == hash(s)


def canonical_results(f, g, c):
    return [f + g, f - g, -g, g * c, c * g, f * g, g**3]


def test_results_are_stored_in_lowest_terms():
    # each operation below gives integers with a common factor before reduction
    f = TruncatedSeries([1, F(1, 2)])
    g = TruncatedSeries([0, F(1, 2)])
    assert_canonical(canonical_results(f, g, 2))
    assert f + g == TruncatedSeries([1, 1])
    assert f * f == TruncatedSeries([1, 1])
    # the integer constructors reduce their common factors too
    assert_canonical([neg_log_one_minus(F(-2, 3), 4), geometric(F(3, 2), 3)])
    assert neg_log_one_minus(0, 2) == TruncatedSeries([0, 0, 0])
    # numerators over N! (v q)^N share factors of N! and of v q
    assert_canonical([power_of_one_minus(a, alpha, 6)
                      for a, alpha in [(1, -3), (F(-2, 3), F(-1, 2)), (F(5, 4), F(7, 3)), (0, F(1, 2)), (4, 0)]])
    assert power_of_one_minus(1, -1, 3) == TruncatedSeries([1, 1, 1, 1])
    assert power_of_one_minus(F(1, 2), 2, 3) == TruncatedSeries([1, -1, F(1, 4), 0])


@settings(max_examples=40)
@given(unit_head_series(10), st.lists(coeff, min_size=11, max_size=11), coeff)
def test_random_results_are_stored_in_lowest_terms(f, g, c):
    assert_canonical(canonical_results(f, TruncatedSeries(g), c))


# Schoolbook Fraction references for the integer routes of neg_log_one_minus
# and geometric.


def neg_log_one_minus_reference(a, order):
    a = F(a)
    out = [F(0)]
    power = F(1)
    for k in range(1, order + 1):
        power *= a
        out.append(power / k)
    return TruncatedSeries(out)


def geometric_reference(a, order):
    out = [F(1)]
    for _ in range(order):
        out.append(out[-1] * F(a))
    return TruncatedSeries(out)


rational = st.fractions(min_value=-6, max_value=6, max_denominator=9)


@settings(max_examples=60)
@given(rational, st.integers(min_value=0, max_value=30))
@example(F(0), 5)
@example(F(-7, 3), 0)
def test_neg_log_one_minus_matches_fraction_reference(a, order):
    assert neg_log_one_minus(a, order) == neg_log_one_minus_reference(a, order)


@settings(max_examples=60)
@given(rational, st.integers(min_value=0, max_value=30))
@example(F(0), 5)
@example(F(-7, 3), 0)
def test_geometric_matches_fraction_reference(a, order):
    assert geometric(a, order) == geometric_reference(a, order)


def power_of_one_minus_reference(a, alpha, order):
    return TruncatedSeries([gen_binomial(alpha, n) * (-F(a)) ** n for n in range(order + 1)])


exponent = st.one_of(
    st.integers(min_value=-12, max_value=-1),  # negative integers
    st.integers(min_value=-9, max_value=9).map(lambda k: F(2 * k + 1, 2)),  # half-integers
    st.just(F(0)),
    st.integers(min_value=1, max_value=12),  # positive integers: a polynomial
    st.fractions(min_value=-7, max_value=7, max_denominator=11),  # other rationals
)


@settings(max_examples=150)
@given(rational, exponent, st.integers(min_value=0, max_value=15))
@example(F(0), F(-1, 2), 9)  # a = 0
@example(F(-5, 3), F(2, 7), 15)  # negative a with a non-unit denominator
@example(F(1), F(0), 4)  # alpha = 0
@example(F(3, 2), F(4), 7)  # a polynomial of degree 4
@example(F(-2, 3), F(-1), 11)  # alpha = -1
@example(F(4), F(-1, 2), 15)  # the central binomial coefficients
def test_power_of_one_minus_matches_generalized_binomials(a, alpha, order):
    series = power_of_one_minus(a, alpha, order)
    assert series == power_of_one_minus_reference(a, alpha, order)
    assert_canonical([series])
    if alpha == -1:
        assert series == geometric(a, order)
    if (a, alpha) == (4, F(-1, 2)):
        assert series.coeffs == tuple(F(binomial(2 * n, n)) for n in range(order + 1))


@settings(max_examples=60)
@given(rational, st.integers(min_value=0, max_value=30))
@example(F(0), 3)
@example(F(-7, 3), 0)
def test_geometric_is_power_of_one_minus_at_minus_one(a, order):
    # geometric keeps its own running product; both give 1/(1 - a z)
    assert geometric(a, order) == power_of_one_minus(a, -1, order)


def test_neg_log_one_minus_examples():
    assert neg_log_one_minus(1, 4).coeffs == (F(0), F(1), F(1, 2), F(1, 3), F(1, 4))
    assert neg_log_one_minus(0, 3) == TruncatedSeries([0, 0, 0, 0])
    assert neg_log_one_minus(4, 3).coeffs == (F(0), F(4), F(8), F(64, 3))


def test_pow_examples():
    f = TruncatedSeries([1, 2, 3])
    assert f**0 == TruncatedSeries.one(2)
    assert f**1 == f
    squared_log = (neg_log_one_minus(1, 4) ** 2) * geometric(1, 4)
    assert squared_log.coeffs == (F(0), F(0), F(1), F(2), F(35, 12))
    with pytest.raises(ValueError):
        f**-1


def test_the_product_form_of_the_main_theorem_equals_the_closed_form():
    # -ln(1 - z)^m / (1 - z) at z -> a z/(1 - b z), times 1/(1 - b z), is
    # (-ln(1 - (a+b) z) + ln(1 - b z))^m / (1 - (a+b) z): its coefficients are S(a, b, m, n)
    order = 30
    for a, b in AB_FIXTURES:
        for m in range(5):
            product = (neg_log_one_minus(a + b, order) - neg_log_one_minus(b, order)) ** m * geometric(a + b, order)
            assert list(product.coeffs) == binomial_sum_closed(a, b, m, order)


def test_gf_harmonic_like_matches_recurrence():
    for m in range(4):
        gf = gf_harmonic_like(m, 30)
        for n in range(31):
            assert gf[n] == harmonic_like(n, m)


def test_gf_harmonic_like_m0_is_geometric():
    assert gf_harmonic_like(0, 10) == geometric(1, 10)


def test_gf_stirling_column_matches_triangle():
    for k in range(5):
        gf = gf_stirling_column(k, 25)
        for n in range(26):
            assert factorial(n) * gf[n] == stirling1(n, k)
    assert gf_stirling_column(0, 6) == TruncatedSeries.one(6)
    # ln(1+z) itself, from the single log kernel at a = -1
    assert gf_stirling_column(1, 4).coeffs == (F(0), F(1), F(-1, 2), F(1, 3), F(-1, 4))


def test_gf_hyperharmonic_matches_recurrence():
    for p in range(1, 7):
        gf = gf_hyperharmonic(p, 40)
        for n in range(41):
            assert gf[n] == hyperharmonic(n, p)


def test_gf_odd_central_matches_central_binomial_products():
    gf = gf_odd_central(30)
    assert gf[0] == 0
    assert gf[2] == 8
    assert gf[3] == F(92, 3)
    for n in range(31):
        assert gf[n] == binomial(2 * n, n) * odd_harmonic(n)


@pytest.mark.parametrize("order", range(61))
def test_gf_constructors_equal_their_product_forms(order):
    # the running sum and the product at w = 4z against the plain products
    for m in range(6):
        assert gf_harmonic_like(m, order) == neg_log_one_minus(1, order) ** m * geometric(1, order)
    assert gf_odd_central(order) == (
        F(1, 2) * neg_log_one_minus(4, order) * power_of_one_minus(4, F(-1, 2), order)
    )


@pytest.mark.parametrize("route", [
    pytest.param(lambda: gf_harmonic_like(2, -1), id="gf_harmonic_like"),
    pytest.param(lambda: gf_stirling_column(1, -3), id="gf_stirling_column"),
    pytest.param(lambda: gf_hyperharmonic(2, -1), id="gf_hyperharmonic"),
    pytest.param(lambda: gf_odd_central(-1), id="gf_odd_central"),
    pytest.param(lambda: geometric(1, -2), id="geometric"),
    pytest.param(lambda: power_of_one_minus(4, F(-1, 2), -1), id="power_of_one_minus"),
    pytest.param(lambda: neg_log_one_minus(1, -2), id="neg_log_one_minus"),
    pytest.param(lambda: TruncatedSeries.one(-1), id="one"),
])
def test_every_constructor_refuses_a_negative_order(route):
    # an order-0 series is not what a negative order asks for
    with pytest.raises(ValueError, match="order must be >= 0, got -"):
        route()
