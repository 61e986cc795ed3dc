from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from multiharm.rational import (
    binomial,
    factorial,
    gen_binomial,
    gen_binomial_column,
    parse_rational,
)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=60)


def test_basic_arithmetic_examples():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert Fraction(3, 4) * Fraction(4, 3) == 1
    assert Fraction(-2, 6) == Fraction(-1, 3)
    assert Fraction(-2, 6).numerator == -1 and Fraction(-2, 6).denominator == 3


def test_division_by_zero_is_an_explicit_error():
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 2) / Fraction(0)
    with pytest.raises(ZeroDivisionError):
        Fraction(0) ** -1


@given(rationals, rationals)
def test_canonical_form_after_arithmetic(x, y):
    results = [x + y, x - y, x * y, -x, x**3]
    if y != 0:
        results.append(x / y)
    if x != 0:
        results.append(x**-2)
    import math

    for r in results:
        assert r.denominator > 0
        assert math.gcd(abs(r.numerator), r.denominator) == 1


def test_binomial_examples():
    assert binomial(5, 2) == 10
    for n in (0, 1, 7, 30):
        assert binomial(n, 0) == 1
    assert binomial(4, 7) == 0
    assert binomial(3, -1) == 0
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_factorial_examples():
    assert factorial(0) == 1
    assert factorial(5) == 120
    assert factorial(20) == 2432902008176640000
    with pytest.raises(ValueError):
        factorial(-3)


def test_gen_binomial_examples():
    assert gen_binomial(Fraction(1, 2), 1) == Fraction(1, 2)
    assert gen_binomial(Fraction(3, 2), 2) == Fraction(3, 8)
    assert gen_binomial(Fraction(7), 0) == 1
    # rational upper argument 3/2 at the (r, p) = (1, 1) product form
    rhs = Fraction(1, 4) * Fraction(binomial(4, 2), binomial(2, 1)) * binomial(2, 1)
    assert gen_binomial(Fraction(3, 2), 1) == rhs == Fraction(3, 2)


def test_gen_binomial_matches_binomial_on_integers():
    for n in range(31):
        for k in range(31):
            assert gen_binomial(n, k) == binomial(n, k)


@given(rationals, st.integers(min_value=1, max_value=20))
def test_gen_binomial_pascal_identity(x, k):
    assert gen_binomial(x, k) == gen_binomial(x - 1, k) + gen_binomial(x - 1, k - 1)


def _column_matches_gen_binomial(column):
    """A check that ``column(x, n)`` is C(x, k) for k = 0..n by ``gen_binomial``, at negative, fractional and
    non-negative integer x, the last with a tail of zeros past k = x."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.one_of(rationals, st.integers(0, 40).map(Fraction), st.integers(-40, -1).map(Fraction)),
        st.integers(0, 60),
    )
    @example(Fraction(3), 60)  # the tail past k = 3 is 0
    @example(Fraction(-2, 3), 60)
    @example(Fraction(1, 2), 1)
    @example(Fraction(0), 0)
    def check(x, n):
        assert column(x, n) == [gen_binomial(x, k) for k in range(n + 1)]

    return check


def test_gen_binomial_column_is_gen_binomial_at_every_k():
    _column_matches_gen_binomial(gen_binomial_column)()


def test_a_column_whose_recurrence_steps_by_x_minus_k_minus_one_fails_the_check():
    def mutant(x, n):
        # C(x, k+1) = C(x, k) (x - k - 1)/(k + 1)
        column = [Fraction(1)]
        for k in range(n):
            column.append(column[-1] * (x - k - 1) / (k + 1))
        return column

    with pytest.raises(AssertionError):
        _column_matches_gen_binomial(mutant)()


def test_gen_binomial_column_examples():
    assert gen_binomial_column(Fraction(1, 2), 3) == [1, Fraction(1, 2), Fraction(-1, 8), Fraction(1, 16)]
    assert gen_binomial_column(4, 6) == [1, 4, 6, 4, 1, 0, 0]
    assert gen_binomial_column(-1, 4) == [1, -1, 1, -1, 1]
    assert all(isinstance(v, Fraction) for v in gen_binomial_column(3, 5))
    with pytest.raises(ValueError):
        gen_binomial_column(Fraction(1, 2), -1)


def test_half_integer_binomial_central_product_form():
    # C(r+p-1/2, r) = 4^-r * C(2p,p)^-1 * C(2(r+p), r+p) * C(r+p, r)
    for r in range(13):
        for p in range(13):
            lhs = gen_binomial(Fraction(2 * (r + p) - 1, 2), r)
            rhs = (
                Fraction(1, 4**r)
                * Fraction(binomial(2 * (r + p), r + p), binomial(2 * p, p))
                * binomial(r + p, r)
            )
            assert lhs == rhs


def test_wire_format():
    assert str(Fraction(5, 6)) == "5/6"
    assert str(Fraction(-1, 3)) == "-1/3"
    assert str(Fraction(7, 1)) == "7"
    assert parse_rational("25/12") == Fraction(25, 12)
    assert parse_rational("-3") == -3
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("pi")


@given(rationals)
def test_wire_format_round_trip(x):
    assert parse_rational(str(x)) == x
