from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from multiharm.sequences import harmonic, harmonic_like, stirling1
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
