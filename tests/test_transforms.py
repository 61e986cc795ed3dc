import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from multiharm import identities, transforms
from multiharm.identities import verify_identity
from multiharm.rational import binomial, factorial
from multiharm.sequences import harmonic, harmonic_like, harmonic_like_column, harmonic_order, stirling1
from multiharm.transforms import (
    AB_FIXTURES,
    binomial_sum_closed,
    binomial_sum_direct,
    binomial_sum_m1,
    binomial_sum_m2,
    binomial_sum_m3,
    binomial_sums,
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
    assert binomial_sum_closed(-1, 1, 2, 3)[3] == 1
    assert binomial_sum_closed(1, 1, 1, 2)[2] == F(7, 2)
    for a, b in AB_FIXTURES:
        assert binomial_sum_closed(a, b, 0, 5) == [(a + b) ** n for n in range(6)]


def test_closed_form_matches_direct_smoke_grid():
    for a, b in AB_FIXTURES:
        for m in range(4):
            assert binomial_sum_closed(a, b, m, 12) == [binomial_sum_direct(a, b, m, n) for n in range(13)]


def test_m1_examples():
    assert binomial_sum_m1(1, 1, 2)[2] == F(7, 2)
    assert binomial_sum_m1(1, -1, 3)[3] == binomial_sum_direct(1, -1, 1, 3) == F(1, 3)
    for a in (F(2), F(1, 2), F(-3)):
        assert binomial_sum_m1(a, 0, 7) == [harmonic(n) * a**n for n in range(8)]


def test_m2_examples():
    assert binomial_sum_m2(1, 1, 2)[2] == 1
    # (2/n) H_{n-1} at n = 3
    assert binomial_sum_m2(-1, 1, 3)[3] == F(2, 3) * harmonic(2) == 1
    for a in (F(2), F(1, 2), F(-3)):
        assert binomial_sum_m2(a, 0, 7) == [harmonic_like(n, 2) * a**n for n in range(8)]


def test_m3_examples():
    for a in (F(2), F(1, 2), F(-3)):
        assert binomial_sum_m3(a, 0, 7) == [harmonic_like(n, 3) * a**n for n in range(8)]
    assert binomial_sum_m3(1, 1, 4)[4] == binomial_sum_direct(1, 1, 3, 4)
    # alternating case collapses to (-1)^n (3!/n!) s(n,3) at n = 4
    expected = F(6, 24) * stirling1(4, 3)
    assert binomial_sum_m3(-1, 1, 4)[4] == binomial_sum_direct(-1, 1, 3, 4) == expected == F(-3, 2)


def test_specializations_match_closed_form_smoke_grid():
    for a, b in AB_FIXTURES:
        assert binomial_sum_m1(a, b, 12) == binomial_sum_closed(a, b, 1, 12)
        assert binomial_sum_m2(a, b, 12) == binomial_sum_closed(a, b, 2, 12)
        assert binomial_sum_m3(a, b, 12) == binomial_sum_closed(a, b, 3, 12)


_SCALARS = st.fractions(min_value=-7, max_value=7, max_denominator=9)

#: The closed routes by m: each returns the column of values at 0..n.
_COLUMNS = {
    None: binomial_sum_closed,
    1: lambda a, b, m, n: binomial_sum_m1(a, b, n),
    2: lambda a, b, m, n: binomial_sum_m2(a, b, n),
    3: lambda a, b, m, n: binomial_sum_m3(a, b, n),
}


def _columns_match_the_literal_sum(columns):
    """A check that each route of ``columns`` equals ``binomial_sum_direct`` at
    every index of its column, at (a, b) off the fixture pairs."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.tuples(_SCALARS, _SCALARS).filter(lambda ab: ab not in AB_FIXTURES),
        st.integers(0, 4),
        st.integers(0, 30),
    )
    @example((F(1, 2), F(-1, 2)), 4, 30)  # a + b = 0
    @example((F(0), F(-5, 3)), 3, 30)  # a = 0
    @example((F(-7, 9), F(0)), 2, 30)  # b = 0
    @example((F(-3, 2), F(0)), 3, 30)  # b = 0
    @example((F(7), F(7)), 4, 12)
    @example((F(2), F(-1, 3)), 1, 30)  # m = 1 off a = 0
    def check(ab, m, n):
        a, b = ab
        direct = [binomial_sum_direct(a, b, m, i) for i in range(n + 1)]
        assert columns[None](a, b, m, n) == direct
        if m in columns:
            assert columns[m](a, b, m, n) == direct

    return check


def test_routes_agree_off_the_fixture_pairs():
    _columns_match_the_literal_sum(_COLUMNS)()


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(_SCALARS, _SCALARS).filter(lambda ab: ab not in AB_FIXTURES),
    st.integers(0, 4),
    st.integers(0, 30),
)
@example((F(1, 2), F(-1, 2)), 4, 30)  # a + b = 0
@example((F(-7, 9), F(0)), 3, 30)  # b = 0
@example((F(0), F(0)), 2, 5)
def test_the_column_form_of_the_literal_sum_is_the_literal_sum_at_every_index(ab, m, n):
    a, b = ab
    assert binomial_sums(a, b, harmonic_like_column(n, m)) == [binomial_sum_direct(a, b, m, i) for i in range(n + 1)]


def test_the_point_route_reads_one_harmonic_like_column_and_no_column_sum(monkeypatch):
    # the point route stays O(n): one read of the n + 1 harmonic-like values, and no O(n^2) column
    reads, sums = [], []

    def column(n, m):
        reads.append((n, m))
        return harmonic_like_column(n, m)

    def column_sums(*args):
        sums.append(args)
        return binomial_sums(*args)

    monkeypatch.setattr(transforms, "harmonic_like_column", column)
    monkeypatch.setattr(transforms, "binomial_sums", column_sums)
    assert binomial_sum_direct(F(1, 2), F(-1, 3), 3, 40) == direct_reference(F(1, 2), F(-1, 3), 3, 40)
    assert reads == [(40, 3)] and sums == []


@pytest.mark.parametrize("m", [None, 1, 2, 3])
def test_a_column_offset_by_one_index_fails_the_literal_sum_check(m):
    # mutant: the value at n is the route's value at n + 1
    shifted = {**_COLUMNS, m: lambda a, b, m_, n: _COLUMNS[m](a, b, m_, n + 1)[1:]}
    with pytest.raises(AssertionError):
        _columns_match_the_literal_sum(shifted)()


# The binomial transform of a list x is the column of binomial_sums at a = -1, b = 1 (signed) or a = b = 1.


def test_signed_transform_spot_values():
    assert binomial_sums(-1, 1, [harmonic(k) for k in range(4)])[3] == F(-1, 3)
    assert binomial_sums(-1, 1, harmonic_like_column(3, 2))[3] == 1
    assert binomial_sums(1, 1, [harmonic(k) for k in range(3)])[2] == F(7, 2)
    assert binomial_sums(1, 1, [1] * 301) == [2**i for i in range(301)]


def test_inverse_recovers_preimage_of_signed_transform():
    for m in range(4):
        image = binomial_sums(-1, 1, harmonic_like_column(14, m))
        assert binomial_sums(-1, 1, image) == harmonic_like_column(14, m)


def test_round_trip_example():
    seq = [F(1), F(1, 2), F(1, 3), F(1, 4)]
    assert binomial_sums(-1, 1, binomial_sums(-1, 1, seq)) == seq


@settings(max_examples=30)
@given(
    st.lists(
        st.fractions(min_value=-30, max_value=30, max_denominator=40),
        min_size=21,
        max_size=21,
    )
)
def test_signed_transform_is_an_involution(seq):
    assert binomial_sums(-1, 1, binomial_sums(-1, 1, seq)) == seq


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-30, max_value=30, max_denominator=40), min_size=1, max_size=80), st.booleans())
def test_transform_matches_its_per_term_comb_sum(seq, signed):
    expected = [
        sum((math.comb(n, k) * (-1 if signed and k % 2 else 1) * seq[k] for k in range(n + 1)), F(0))
        for n in range(len(seq))
    ]
    assert binomial_sums(-1 if signed else 1, 1, seq) == expected


@pytest.mark.parametrize("route", [
    pytest.param(lambda: binomial_sum_direct(1, 1, 0, -1), id="direct"),
    pytest.param(lambda: binomial_sum_closed(1, 1, 2, -1), id="closed"),
    pytest.param(lambda: binomial_sum_m1(1, 1, -1), id="m1"),
    pytest.param(lambda: binomial_sum_m2(1, 1, -1), id="m2"),
    pytest.param(lambda: binomial_sum_m3(1, 1, -1), id="m3"),
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


def sums_reference(a, b, x):
    a_pow, b_pow = _fraction_powers(F(a), len(x)), _fraction_powers(F(b), len(x))
    return [sum((binomial(i, k) * a_pow[k] * b_pow[i - k] * x[k] for k in range(i + 1)), F(0)) for i in range(len(x))]


@settings(max_examples=60, deadline=None)
@given(_RATIONALS, _RATIONALS, st.lists(st.one_of(st.integers(-30, 30), _RATIONALS), max_size=40))
@example(F(2, 3), F(-2, 3), [F(1, 2), 3, F(-5, 7), 0, F(9, 4)])  # a + b = 0
@example(F(0), F(-5, 7), [4, F(1, 3), F(-2, 9), 7])  # a = 0
@example(F(-9, 4), F(0), [F(3, 8), -6, F(5, 2), 1])  # b = 0
@example(F(3, -5), F(7, 9), [F(-4, 9)])  # one element
def test_binomial_sums_match_their_fraction_loop(a, b, x):
    assert binomial_sums(a, b, x) == sums_reference(a, b, x)


@pytest.mark.parametrize("route, reference", [
    pytest.param(binomial_sum_direct, direct_reference, id="direct"),
    # the closed routes return the column 0..n; its last value is compared
    pytest.param(lambda a, b, m, n: binomial_sum_closed(a, b, m, n)[n], closed_reference, id="closed"),
    # the specializations have a fixed m; the drawn m is not read
    pytest.param(lambda a, b, m, n: binomial_sum_m1(a, b, n)[n], lambda a, b, m, n: m1_reference(a, b, n), id="m1"),
    pytest.param(lambda a, b, m, n: binomial_sum_m2(a, b, n)[n], lambda a, b, m, n: m2_reference(a, b, n), id="m2"),
    pytest.param(lambda a, b, m, n: binomial_sum_m3(a, b, n)[n], lambda a, b, m, n: m3_reference(a, b, n), id="m3"),
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
# the one Cauchy-product helper
#
# A fault in cauchy_column must show in every identity a side of which reads
# it: the literal route and the left sides do not read it, so the fault cannot
# scale both sides of a check alike.

_cauchy_column = transforms.cauchy_column

#: The readers whose running sums are products with 1, 1, ... over 1, at x = y = 1.
_RUNNING_READERS = (
    "warmup_fib_harmonic", "thm_o107dby", "thm_o107dby_m2", "thm_kollar", "thm_kollar_m1", "thm_kollar_m2",
)
#: The entries a side of which reads cauchy_column.
_HELPER_READERS = (
    "main_id1", "remark_m1", "cor_id3", "cor_id4", "cor_id5", "classical_Hk", "ex_Hk2_2n", "ex_2k_alt", "ex_3n",
    "hn3_double", "thm_hnp1_m2", "thm_kk1_m2", "thm_hyphar", "thm_hyphar_m0", "thm_hyphar_m1",
    "thm_odd_id1", "thm_odd_id1_m0", "thm_odd_id1_m1", "thm_general_p", "fib_Hk2", "lucas_Hk2", "fib_alt_Hk2",
    "lucas_alt_Hk2", *_RUNNING_READERS,
)
#: The readers that take the product of two plain sequences, x = y = 1.
_UNIT_READERS = _HELPER_READERS[9:]


def _use_helper(monkeypatch, helper):
    # under both names the routes and the registry read it by
    for module in (transforms, identities):
        monkeypatch.setattr(module, "cauchy_column", helper)


def _factor_pairs(n):
    # one to three pairs (f, g): f of n + 1 entries, g of 1 to n + 1, ints or fractions
    entry = st.one_of(st.integers(-9, 9), _RATIONALS)
    factor = st.lists(entry, min_size=n + 1, max_size=n + 1)
    return st.lists(st.tuples(factor, st.lists(entry, min_size=1, max_size=n + 1)), min_size=1, max_size=3)


@settings(max_examples=80, deadline=None)
@given(_RATIONALS, _RATIONALS, st.integers(0, 12).flatmap(_factor_pairs))
@example(F(0), F(0), [([1, 2, 3], [4, 5, 6])])  # 0^0 = 1
@example(F(-2, 3), F(5, 7), [([F(1, 2), 0, F(-3, 4)], [1]), ([0, 1, F(1, 3)], [0, F(2, 5), 7])])
def test_cauchy_column_matches_its_fraction_loop(x, y, pairs):
    n = len(pairs[0][0]) - 1
    expected = [
        sum((f[k] * x**k * g[i - k] * y ** (i - k) for f, g in pairs for k in range(i + 1) if i - k < len(g)), F(0))
        for i in range(n + 1)
    ]
    assert _cauchy_column(x, y, *((transforms.integer_form(f), transforms.integer_form(g)) for f, g in pairs)) == expected


def test_the_helper_readers_are_listed_and_pass(monkeypatch):
    readers = set()
    for ident in identities._REGISTRY:
        def recording(*args, ident=ident):
            readers.add(ident)
            return _cauchy_column(*args)

        _use_helper(monkeypatch, recording)
        assert verify_identity(ident).passed
    assert readers == set(_HELPER_READERS)


def _first_nonzero(nums, change):
    # nums with ``change`` applied to its first nonzero entry, if it has one
    k = next((k for k, v in enumerate(nums) if v), None)
    return nums if k is None else [*nums[:k], change(nums[k]), *nums[k + 1:]]


def _denominator_times_y(x, y, *pairs):
    # each pair's denominator times the denominator of its y side at l = 1, g_den s for y = r/s
    return _cauchy_column(x, y, *((f, (g, den * den * F(y).denominator)) for f, (g, den) in pairs))


def _denominator_times_x(x, y, *pairs):
    # each pair's denominator times the denominator of its x side at k = 1, f_den v for x = u/v
    return _cauchy_column(x, y, *(((f, den * den * F(x).denominator), g) for (f, den), g in pairs))


def _swapped_powers(x, y, *pairs):
    return _cauchy_column(y, x, *pairs)


def _one_term_short(x, y, *pairs):
    # the first nonzero term of each x factor left out
    return _cauchy_column(x, y, *(((_first_nonzero(f, lambda v: 0), den), g) for (f, den), g in pairs))


def _first_weight_doubled(x, y, *pairs):
    # the first nonzero weight of each y factor doubled
    return _cauchy_column(x, y, *((f, (_first_nonzero(g, lambda v: 2 * v), den)) for f, (g, den) in pairs))


@pytest.mark.parametrize("identity_id", _HELPER_READERS)
@pytest.mark.parametrize("mutant, unchanged", [
    pytest.param(_denominator_times_y, (), id="den_y"),
    # the x factor C(k+p, k) of the thm_hyphar family, and 1, 1, ... of the running sums, are integers and x = 1:
    # there is no denominator to multiply by
    pytest.param(_denominator_times_x, ("thm_hyphar", "thm_hyphar_m0", "thm_hyphar_m1", *_RUNNING_READERS), id="den_x"),
    # at x = y = 1 every power is 1
    pytest.param(_swapped_powers, _UNIT_READERS, id="swap"),
    pytest.param(_one_term_short, (), id="short"),
    pytest.param(_first_weight_doubled, (), id="double"),
])
def test_a_wrong_cauchy_column_fails_each_reader(monkeypatch, mutant, unchanged, identity_id):
    # each mutant fails every reader whose factors it changes, and the others pass under it
    _use_helper(monkeypatch, mutant)
    assert verify_identity(identity_id).passed is (identity_id in unchanged)


def test_the_literal_route_reads_no_closed_route_helper(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the literal route read a closed-route helper")

    monkeypatch.setattr(transforms, "cauchy_column", forbidden)
    monkeypatch.setattr(transforms, "integer_form", forbidden)
    assert binomial_sum_direct(F(1, 2), F(-1, 3), 3, 12) == direct_reference(F(1, 2), F(-1, 3), 3, 12)
    assert binomial_sums(F(1, 2), F(-1, 3), harmonic_like_column(12, 3)) == [
        direct_reference(F(1, 2), F(-1, 3), 3, i) for i in range(13)
    ]
