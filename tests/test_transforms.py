import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from multiharm import transforms
from multiharm.identities import verify_identity
from multiharm.rational import binomial, exact_sum, factorial
from multiharm.sequences import harmonic, harmonic_like, harmonic_order, stirling1
from multiharm.transforms import (
    AB_FIXTURES,
    binomial_sum_closed,
    binomial_sum_direct,
    binomial_sum_m1,
    binomial_sum_m2,
    binomial_sum_m3,
    binomial_transform,
)

F = Fraction


def test_fixture_pairs_cover_the_degenerate_regimes():
    assert (F(1), F(1)) in AB_FIXTURES
    assert (F(-1), F(1)) in AB_FIXTURES  # a + b = 0
    assert (F(0), F(1)) in AB_FIXTURES and (F(1), F(0)) in AB_FIXTURES
    assert len(AB_FIXTURES) == 8


def test_direct_sum_m0_is_a_plus_b_power():
    assert binomial_sum_direct(2, 1, 0, 3) == 27
    assert binomial_sum_direct(1, 1, 0, 3000) == 2**3000
    for a, b in AB_FIXTURES:
        for n in range(6):
            assert binomial_sum_direct(a, b, 0, n) == (a + b) ** n


def test_direct_sum_spot_values():
    assert binomial_sum_direct(1, 1, 1, 2) == F(7, 2)
    assert binomial_sum_direct(1, 1, 2, 2) == 1


def test_closed_form_spot_values():
    assert binomial_sum_closed(-1, 1, 2, 3) == 1
    assert binomial_sum_closed(1, 1, 1, 2) == F(7, 2)
    for a, b in AB_FIXTURES:
        for n in range(6):
            assert binomial_sum_closed(a, b, 0, n) == (a + b) ** n


def test_closed_form_matches_direct_smoke_grid():
    for a, b in AB_FIXTURES:
        for m in range(4):
            for n in range(13):
                assert binomial_sum_closed(a, b, m, n) == binomial_sum_direct(a, b, m, n)


def test_m1_examples():
    assert binomial_sum_m1(1, 1, 2) == F(7, 2)
    assert binomial_sum_m1(1, -1, 3) == binomial_sum_direct(1, -1, 1, 3) == F(1, 3)
    for a in (F(2), F(1, 2), F(-3)):
        for n in range(8):
            assert binomial_sum_m1(a, 0, n) == harmonic(n) * a**n


def test_m2_examples():
    assert binomial_sum_m2(1, 1, 2) == 1
    # (2/n) H_{n-1} at n = 3
    assert binomial_sum_m2(-1, 1, 3) == F(2, 3) * harmonic(2) == 1
    for a in (F(2), F(1, 2), F(-3)):
        for n in range(8):
            assert binomial_sum_m2(a, 0, n) == harmonic_like(n, 2) * a**n


def test_m3_examples():
    for a in (F(2), F(1, 2), F(-3)):
        for n in range(8):
            assert binomial_sum_m3(a, 0, n) == harmonic_like(n, 3) * a**n
    assert binomial_sum_m3(1, 1, 4) == binomial_sum_direct(1, 1, 3, 4)
    # alternating case collapses to (-1)^n (3!/n!) s(n,3) at n = 4
    expected = F(6, 24) * stirling1(4, 3)
    assert binomial_sum_m3(-1, 1, 4) == binomial_sum_direct(-1, 1, 3, 4) == expected == F(-3, 2)


def test_specializations_match_closed_form_smoke_grid():
    for a, b in AB_FIXTURES:
        for n in range(13):
            assert binomial_sum_m1(a, b, n) == binomial_sum_closed(a, b, 1, n)
            assert binomial_sum_m2(a, b, n) == binomial_sum_closed(a, b, 2, n)
            assert binomial_sum_m3(a, b, n) == binomial_sum_closed(a, b, 3, n)


_SCALARS = st.fractions(min_value=-7, max_value=7, max_denominator=9)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(_SCALARS, _SCALARS).filter(lambda ab: ab not in AB_FIXTURES),
    st.integers(0, 4),
    st.integers(0, 12),
)
@example((F(1, 2), F(-1, 2)), 4, 12)  # a + b = 0
@example((F(0), F(-5, 3)), 3, 12)  # a = 0
@example((F(-7, 9), F(0)), 2, 12)  # b = 0
@example((F(7), F(7)), 4, 12)
def test_routes_agree_off_the_fixture_pairs(ab, m, n):
    a, b = ab
    direct = binomial_sum_direct(a, b, m, n)
    assert binomial_sum_closed(a, b, m, n) == direct
    specialization = {1: binomial_sum_m1, 2: binomial_sum_m2, 3: binomial_sum_m3}.get(m)
    if specialization is not None:
        assert specialization(a, b, n) == direct


def test_signed_transform_spot_values():
    assert binomial_transform(harmonic, 3) == F(-1, 3)
    assert binomial_transform(lambda k: harmonic_like(k, 2), 3) == 1
    assert binomial_transform(harmonic, 2, signed=False) == F(7, 2)
    assert binomial_transform(lambda k: 1, 3000, signed=False) == 2**3000


def test_inverse_recovers_preimage_of_signed_transform():
    for m in range(4):
        image = lambda k, m=m: binomial_transform(lambda j: harmonic_like(j, m), k)
        for n in range(15):
            assert binomial_transform(image, n) == harmonic_like(n, m)


def test_round_trip_example():
    seq = [F(1), F(1, 2), F(1, 3), F(1, 4)]
    transformed = [binomial_transform(lambda k: seq[k], n) for n in range(4)]
    recovered = [
        binomial_transform(lambda k: transformed[k], n) for n in range(4)
    ]
    assert recovered == seq


@settings(max_examples=30)
@given(
    st.lists(
        st.fractions(min_value=-30, max_value=30, max_denominator=40),
        min_size=21,
        max_size=21,
    )
)
def test_signed_transform_is_an_involution(seq):
    transformed = [binomial_transform(lambda k: seq[k], n) for n in range(21)]
    for n in range(21):
        assert binomial_transform(lambda k: transformed[k], n) == seq[n]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-30, max_value=30, max_denominator=40), min_size=1, max_size=80), st.booleans())
def test_transform_matches_its_per_term_comb_sum(seq, signed):
    n = len(seq) - 1
    expected = sum((math.comb(n, k) * (-1 if signed and k % 2 else 1) * seq[k] for k in range(n + 1)), F(0))
    assert binomial_transform(seq.__getitem__, n, signed) == expected


@pytest.mark.parametrize("route", [
    pytest.param(lambda: binomial_sum_direct(1, 1, 0, -1), id="direct"),
    pytest.param(lambda: binomial_sum_closed(1, 1, 2, -1), id="closed"),
    pytest.param(lambda: binomial_sum_m1(1, 1, -1), id="m1"),
    pytest.param(lambda: binomial_sum_m2(1, 1, -1), id="m2"),
    pytest.param(lambda: binomial_sum_m3(1, 1, -1), id="m3"),
    pytest.param(lambda: binomial_transform(lambda k: F(1), -1), id="transform"),
    pytest.param(lambda: binomial_transform(lambda k: F(1), -1, signed=False), id="unsigned-transform"),
])
def test_every_route_refuses_a_negative_index(route):
    # the cross-checked routes share one domain: none of them returns 0 for n < 0
    with pytest.raises(ValueError, match="n must be >= 0, got -1"):
        route()


# ---------------------------------------------------------------------------
# each route against its literal Fraction form
#
# The routes add integer numerators over one common denominator.  These are
# the same formulas as plain Fraction loops, one reduction per operation; each
# route is compared with its own loop, never with another route.


def _fraction_powers(x, n):
    out = [F(1)]
    for _ in range(n):
        out.append(out[-1] * x)
    return out


def direct_reference(a, b, m, n):
    a_pow, b_pow = _fraction_powers(F(a), n), _fraction_powers(F(b), n)
    total = F(0)
    for k in range(n + 1):
        total += binomial(n, k) * a_pow[k] * b_pow[n - k] * harmonic_like(k, m)
    return total


def closed_reference(a, b, m, n):
    ab_pow, b_pow = _fraction_powers(F(a) + F(b), n), _fraction_powers(F(b), n)
    total = F(0)
    for j in range(m + 1):
        outer = binomial(m, j) * factorial(m - j)
        for k in range(n + 1):
            sign = -1 if (n - k) % 2 else 1
            total += (
                outer
                * harmonic_like(k, j)
                * ab_pow[k]
                * F(sign * stirling1(n - k, m - j), factorial(n - k))
                * b_pow[n - k]
            )
    return total


def m1_reference(a, b, n):
    ab_pow, b_pow = _fraction_powers(F(a) + F(b), n), _fraction_powers(F(b), n)
    correction = F(0)
    for k in range(n):
        correction += ab_pow[k] * b_pow[n - k] / (n - k)
    return harmonic(n) * ab_pow[n] - correction


def m2_reference(a, b, n):
    ab_pow, b_pow = _fraction_powers(F(a) + F(b), n), _fraction_powers(F(b), n)
    correction = F(0)
    for k in range(1, n + 1):
        correction += ab_pow[n - k] * b_pow[k] * (harmonic(k - 1) - harmonic(n - k)) / k
    return harmonic_like(n, 2) * ab_pow[n] + 2 * correction


def m3_reference(a, b, n):
    ab_pow, b_pow = _fraction_powers(F(a) + F(b), n), _fraction_powers(F(b), n)
    correction = F(0)
    for k in range(1, n + 1):
        hk, hn = harmonic(k - 1), harmonic(n - k)
        weight = hk * hk - harmonic_order(k - 1, 2) - 2 * hk * hn + hn * hn - harmonic_order(n - k, 2)
        correction += ab_pow[n - k] * b_pow[k] * weight / k
    return harmonic_like(n, 3) * ab_pow[n] - 3 * correction


# a / b built from a numerator and a nonzero denominator of either sign
_RATIONALS = st.builds(F, st.integers(-9, 9), st.integers(-9, 9).filter(bool))


@pytest.mark.parametrize("route, reference", [
    pytest.param(binomial_sum_direct, direct_reference, id="direct"),
    pytest.param(binomial_sum_closed, closed_reference, id="closed"),
    # the specializations have a fixed m; the drawn m is not read
    pytest.param(lambda a, b, m, n: binomial_sum_m1(a, b, n), lambda a, b, m, n: m1_reference(a, b, n), id="m1"),
    pytest.param(lambda a, b, m, n: binomial_sum_m2(a, b, n), lambda a, b, m, n: m2_reference(a, b, n), id="m2"),
    pytest.param(lambda a, b, m, n: binomial_sum_m3(a, b, n), lambda a, b, m, n: m3_reference(a, b, n), id="m3"),
])
def test_route_matches_its_fraction_loop(route, reference):
    @settings(max_examples=40, deadline=None)
    @given(st.tuples(_RATIONALS, _RATIONALS), st.integers(0, 4), st.integers(0, 30))
    @example((F(2, 3), F(-2, 3)), 4, 30)  # a + b = 0
    @example((F(0), F(-5, 7)), 4, 30)  # a = 0
    @example((F(-9, 4), F(0)), 4, 30)  # b = 0
    @example((F(3, -5), F(7, 9)), 4, 0)  # n = 0
    def check(ab, m, n):
        assert route(*ab, m, n) == reference(*ab, m, n)

    check()


# ---------------------------------------------------------------------------
# the helpers the closed routes share
#
# A fault in a helper must show in every identity whose closed side reads it:
# the literal route reads neither helper, so the fault cannot scale both sides
# of a check alike.

_BINOMIAL_SUM_IDS = ("main_id1", "remark_m1", "cor_id4", "cor_id5")
_pair_powers = transforms._pair_powers
_short_form = transforms._short_form


def _denominator_times_y(x, y, n):
    us_pow, rv_pow, scale = _pair_powers(x, y, n)
    return us_pow, rv_pow, scale * F(y).denominator


def _denominator_times_x(x, y, n):
    us_pow, rv_pow, scale = _pair_powers(x, y, n)
    return us_pow, rv_pow, scale * F(x).denominator


def _swapped_powers(x, y, n):
    us_pow, rv_pow, scale = _pair_powers(x, y, n)
    return rv_pow, us_pow, scale


def _first_weight_doubled(a, b, m, lead, c, weights):
    return _short_form(a, b, m, lead, c, [2 * w if k == 0 else w for k, w in enumerate(weights)])


@pytest.mark.parametrize("identity_id", _BINOMIAL_SUM_IDS)
@pytest.mark.parametrize("mutant", [_denominator_times_y, _denominator_times_x, _swapped_powers])
def test_a_wrong_pair_powers_fails_every_binomial_sum_identity(monkeypatch, mutant, identity_id):
    assert verify_identity(identity_id).passed
    monkeypatch.setattr(transforms, "_pair_powers", mutant)
    assert not verify_identity(identity_id).passed


@pytest.mark.parametrize("identity_id", _BINOMIAL_SUM_IDS[1:])
def test_a_wrong_short_form_fails_every_specialization_identity(monkeypatch, identity_id):
    monkeypatch.setattr(transforms, "_short_form", _first_weight_doubled)
    assert not verify_identity(identity_id).passed


def test_the_literal_route_reads_no_closed_route_helper(monkeypatch):
    def forbidden(*args):
        raise AssertionError("binomial_sum_direct read a closed-route helper")

    monkeypatch.setattr(transforms, "_pair_powers", forbidden)
    monkeypatch.setattr(transforms, "_short_form", forbidden)
    assert binomial_sum_direct(F(1, 2), F(-1, 3), 3, 12) == direct_reference(F(1, 2), F(-1, 3), 3, 12)


# ---------------------------------------------------------------------------
# the shared summation primitive

_TERMS = st.lists(
    st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=10**4)),
    max_size=30,
)


def _matches_fraction_sum(sum_fn):
    @settings(max_examples=200, deadline=None)
    @given(_TERMS)
    @example([])
    @example([0, F(0), 0])
    @example([1, F(1, 2), F(-1, 3)])
    @example([F(5, 6), F(1, 6), -1])
    def check(terms):
        total = sum_fn(iter(terms))
        assert type(total) is Fraction
        assert total == sum(terms, F(0))

    return check


def test_exact_sum_matches_fraction_sum():
    _matches_fraction_sum(exact_sum)()


def test_exact_sum_without_the_scale_fails_the_fraction_sum_check():
    # mutant: every numerator added over L without the L // den scale
    def mutant(terms):
        pairs = [(t.numerator, t.denominator) for t in terms]
        common = math.lcm(*[den for _, den in pairs])
        return Fraction(sum(num for num, _ in pairs), common)

    with pytest.raises(AssertionError):
        _matches_fraction_sum(mutant)()
