import copy
import pickle
import random
import re
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from multiharm import _kernels, identities, sequences, series, transforms
from multiharm.rational import factorial
from multiharm.sequences import (
    FAMILY_NAMES,
    FeasibilityError,
    SeqSpec,
    clear_caches,
    fibonacci,
    half_harmonic_offset,
    harmonic,
    harmonic_like,
    harmonic_like_bruteforce,
    harmonic_like_column,
    harmonic_like_convolution,
    harmonic_order,
    hyperharmonic,
    hyperharmonic_closed,
    hyperharmonic_half,
    hyperharmonic_half_via_binomial,
    lucas,
    odd_harmonic,
    stirling1,
    stirling1_column,
)
from multiharm.series import gf_harmonic_like, gf_stirling_column


def test_harmonic_values():
    assert harmonic(0) == 0
    assert harmonic(4) == Fraction(25, 12)
    assert harmonic(5) == Fraction(137, 60)
    with pytest.raises(ValueError):
        harmonic(-1)


def test_harmonic_order_values():
    for n in range(21):
        assert harmonic_order(n, 1) == harmonic(n)
    assert harmonic_order(3, 2) == Fraction(49, 36)
    assert harmonic_order(0, 5) == 0
    with pytest.raises(ValueError):
        harmonic_order(3, 0)


def test_harmonic_order_is_its_fraction_sum_at_orders_past_two():
    # no registry entry reads an order past 2, so only this test pins those tables
    for r in range(3, 9):
        for n in range(41):
            assert harmonic_order(n, r) == sum(Fraction(1, k**r) for k in range(1, n + 1))
    assert harmonic_order(300, 3) == sum(Fraction(1, k**3) for k in range(1, 301))


def test_odd_harmonic_values():
    assert odd_harmonic(0) == 0
    assert odd_harmonic(2) == Fraction(4, 3)
    assert odd_harmonic(3) == Fraction(23, 15)


def test_harmonic_like_base_cases():
    assert harmonic_like(7, 0) == 1
    assert harmonic_like(0, 3) == 0
    assert harmonic_like(3, 2) == 2
    assert harmonic_like(4, 3) == Fraction(5, 2)


def test_harmonic_like_order2_closed_form():
    for n in range(61):
        assert harmonic_like(n, 2) == harmonic(n) ** 2 - harmonic_order(n, 2)


def test_harmonic_like_order3_double_sum():
    for n in range(41):
        expected = sum(
            (
                Fraction(1, j)
                * sum((harmonic(n - j - l) / l for l in range(1, n - j + 1)), Fraction(0))
                for j in range(1, n + 1)
            ),
            Fraction(0),
        )
        assert harmonic_like(n, 3) == expected


def test_harmonic_like_recurrence_convolution_and_gf_agree():
    table = _kernels.harmonic_like_levels(120, 6)
    for m in range(7):
        gf = gf_harmonic_like(m, 120)
        for n in range(121):
            assert harmonic_like(n, m) == table[m][n] == gf[n], (n, m)
        for n in (0, 1, 2, 7, 120):
            assert harmonic_like_convolution(n, m) == harmonic_like(n, m), (n, m)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 60), st.integers(0, 10))
@example(60, 10)
@example(3, 7)
def test_harmonic_like_routes_agree_past_the_grid(n, m):
    # the convolution recomputes its O(m n^2) table on every call, which
    # keeps n small; the grid above compares it at n in {0, 1, 2, 7, 120}
    assert harmonic_like_convolution(n, m) == harmonic_like(n, m)


def test_harmonic_like_matches_stirling_column():
    # n! HL(n, m) = m! |s(n+1, m+1)|; both sides come from separate tables
    for m in range(6):
        for n in range(201):
            assert factorial(n) * harmonic_like(n, m) == factorial(m) * abs(stirling1(n + 1, m + 1)), (n, m)


def test_bruteforce_examples():
    assert harmonic_like_bruteforce(1, 2) == 0
    assert harmonic_like_bruteforce(3, 2) == 2
    for n in range(13):
        assert harmonic_like_bruteforce(n, 1) == harmonic(n)


def test_bruteforce_matches_recurrence_smoke():
    for m in range(1, 10):
        for n in range(0, 11 - m):
            assert harmonic_like_bruteforce(n, m) == harmonic_like(n, m)


def test_table_ceiling_refuses_before_any_table_grows(monkeypatch, memo_sizes):
    monkeypatch.setattr(sequences, "TABLE_CEILING", 100)
    clear_caches()
    assert hyperharmonic(9, 10) == hyperharmonic_closed(9, 10)  # (n+1)*p = 100
    assert harmonic_order(24, 2) == sum(Fraction(1, k * k) for k in range(1, 25))  # (n+1)*r^2 = 100
    sizes = memo_sizes()
    for route, n, order in [
        (hyperharmonic, 9, 11),
        (hyperharmonic, 2, 99999999999999999999),
        (harmonic_order, 25, 2),
        (harmonic_order, 2, 99999999999999999999),
    ]:
        with pytest.raises(FeasibilityError, match="exceeds the ceiling of 100"):
            route(n, order)
    assert memo_sizes() == sizes


def _refusal(call, n):
    try:
        call(n)
    except ValueError as exc:
        return type(exc)
    return None


def test_seqspec_check_refuses_exactly_what_evaluate_refuses(monkeypatch, memo_sizes):
    monkeypatch.setattr(sequences, "TABLE_CEILING", 100)
    monkeypatch.setattr(sequences, "HARMONIC_LIKE_CEILING", 1000)  # m = 10: refused from n = 10
    monkeypatch.setattr(sequences, "HALF_CEILING", 25)  # p = 10: refused from n = 16
    # (n+1)^2: refused from n = 26, over the odd harmonic index r + p <= 25 that hyperharmonic_half reads
    monkeypatch.setattr(sequences, "SIZE_CEILING", 676)
    clear_caches()
    for family in FAMILY_NAMES:
        params = {key: low + 10 for key, low in sequences._FAMILIES[family].minimum.items()}
        spec = SeqSpec(family, params)
        sizes = memo_sizes()
        checked = {n: _refusal(spec.check, n) for n in (-1, 0, 6, 7, 8, 9, 10, 15, 16, 20, 25, 26)}
        assert memo_sizes() == sizes  # check evaluates nothing
        assert checked == {n: _refusal(spec.evaluate, n) for n in checked}, family
        if family in ("hyperharmonic", "harmonic_order", "harmonic_like", "hyperharmonic_half"):
            assert checked[20] is FeasibilityError
        if family != "stirling1":
            assert checked[26] is FeasibilityError
    assert _refusal(SeqSpec("harmonic_like", {"m": 10}).check, 9) is None  # m > n: all zeros
    assert _refusal(SeqSpec("harmonic_like", {"m": 10}).check, 10) is FeasibilityError
    assert _refusal(SeqSpec("hyperharmonic_half", {"p": 10}).check, 15) is None
    assert _refusal(SeqSpec("hyperharmonic_half", {"p": 10}).check, 16) is FeasibilityError
    # the size rule refuses these before TABLE_CEILING would: (n+1)^2*p is 640 at n = 7 and 810 at
    # n = 8 for p = 10, (n+1)^2*r is 648 at n = 17 and 722 at n = 18 for r = 2, where (n+1)*r^2 is 76
    for spec, n in ((SeqSpec("hyperharmonic", {"p": 10}), 8), (SeqSpec("harmonic_order", {"r": 2}), 18)):
        spec.check(n - 1)
        with pytest.raises(FeasibilityError, match=rf"^\(n\+1\)\^2\*[pr] exceeds the ceiling of 676 at n={n}, "):
            spec.check(n)


def test_one_index_families_refuse_over_their_ceiling_before_any_table_grows(monkeypatch, memo_sizes):
    monkeypatch.setattr(sequences, "SIZE_CEILING", 400)  # (n+1)^2: n = 19 is admitted, n = 20 is not
    clear_caches()
    routes = [harmonic, odd_harmonic, half_harmonic_offset, fibonacci, lucas]
    sizes = memo_sizes()
    for route in routes:
        with pytest.raises(FeasibilityError, match=r"^\(n\+1\)\^2 exceeds the ceiling of 400 at n=20$"):
            route(20)
    # harmonic_order at r = 1 has the same bound, with w = r
    with pytest.raises(FeasibilityError, match=r"^\(n\+1\)\^2\*r exceeds the ceiling of 400 at n=20, r=1$"):
        harmonic_order(20, 1)
    with pytest.raises(FeasibilityError):
        SeqSpec("harmonic_order", {"r": 1}).check(20)
    assert memo_sizes() == sizes
    SeqSpec("harmonic_order", {"r": 1}).check(19)
    assert harmonic_order(19, 1) == harmonic(19) == sum(Fraction(1, k) for k in range(1, 20))
    # lucas reads F_20, which fibonacci itself refuses here, but has the ceiling at its own n
    assert lucas(19) == 9349


def test_harmonic_like_above_its_index_is_zero_past_any_ceiling(monkeypatch):
    monkeypatch.setattr(sequences, "HARMONIC_LIKE_CEILING", 0)
    assert harmonic_like(10**6, 10**6 + 1) == 0
    SeqSpec("harmonic_like", {"m": 10**6 + 1}).check(10**6)
    with pytest.raises(FeasibilityError, match=r"\(n\+1\)\^2\*max\(m,1\) exceeds the ceiling of 0 at n=1, m=1"):
        harmonic_like(1, 1)


def test_harmonic_like_level_zero_is_bounded_like_level_one():
    # level 0 still grows one entry per index, so m = 0 weighs as m = 1: n = 13227 is the last index admitted
    for m in (0, 1):
        spec = SeqSpec("harmonic_like", {"m": m})
        spec.check(13227)
        with pytest.raises(FeasibilityError, match=rf"^\(n\+1\)\^2\*max\(m,1\) exceeds .* at n=13228, m={m}$"):
            spec.check(13228)


def test_stirling1_refuses_its_table_bits_before_any_row(monkeypatch, memo_sizes):
    # k = 10: (n+1)^2*(k+1)*bit_length(n) is 9900 at n = 14 and 11264 at n = 15
    monkeypatch.setattr(sequences, "SIZE_CEILING", 10_000)
    clear_caches()
    sizes = memo_sizes()
    spec = SeqSpec("stirling1", {"k": 10})
    spec.check(14)
    with pytest.raises(FeasibilityError, match=r"exceeds the ceiling of 10000 at n=15, k=10"):
        spec.check(15)
    with pytest.raises(FeasibilityError):
        spec.evaluate(15)
    assert memo_sizes() == sizes  # neither refusal grew a table
    assert spec.evaluate(14) == factorial(14) * gf_stirling_column(10, 14)[14]
    # k > n is zero at once, and the check refuses none of it, as evaluate does not
    monkeypatch.setattr(sequences, "SIZE_CEILING", 0)
    assert stirling1(9, 10) == 0
    SeqSpec("stirling1", {"k": 10}).check(0)
    SeqSpec("stirling1", {"k": 10}).check(9)
    with pytest.raises(FeasibilityError, match=r"^\(n\+1\)\^2\*\(k\+1\)\*bit_length\(n\) exceeds"):
        stirling1(1, 1)


def test_bruteforce_guard(monkeypatch):
    monkeypatch.setattr(sequences, "BRUTE_FORCE_CEILING", 1000)
    with pytest.raises(FeasibilityError):
        harmonic_like_bruteforce(30, 10)
    with pytest.raises(ValueError):
        harmonic_like_bruteforce(5, 0)


#: For each m, the largest n (at most 80) whose C(n, m) tuples the brute-force
#: oracle enumerates in a few milliseconds, far inside its ceiling.
_BRUTE_N_MAX = {m: max(n for n in range(m, 81) if comb(n, m) <= 5_000) for m in range(1, 11)}


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 10).flatmap(lambda m: st.tuples(st.integers(0, _BRUTE_N_MAX[m]), st.just(m))))
@example((80, 1))
@example((_BRUTE_N_MAX[3], 3))
@example((_BRUTE_N_MAX[10], 10))
def test_harmonic_like_matches_bruteforce_past_the_grid(nm):
    n, m = nm
    assert harmonic_like_bruteforce(n, m) == harmonic_like(n, m)


def test_stirling_examples():
    assert stirling1(3, 5) == 0
    assert stirling1(3, 2) == -3
    assert stirling1(4, 2) == 11
    assert stirling1(0, 0) == 1


def test_stirling_special_values():
    fact = 1
    for n in range(31):
        # s(n,k) = 0 for n < k
        for k in range(n + 1, n + 4):
            assert stirling1(n, k) == 0
        # s(n,0) = [n == 0]
        assert stirling1(n, 0) == (1 if n == 0 else 0)
        if n >= 1:
            # s(n,1) = (-1)^(n-1) (n-1)!,  s(n,2) = (-1)^n (n-1)! H_{n-1}
            assert stirling1(n, 1) == (-1) ** (n - 1) * fact
            assert stirling1(n, 2) == (-1) ** n * fact * harmonic(n - 1)
            fact *= n


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 250), st.integers(0, 12))
@example(250, 12)
@example(3, 7)
def test_stirling_matches_generating_function(n, k):
    # s(n, k) = n! [z^n] ln(1+z)^k / k!: the series side never reads the table
    assert stirling1(n, k) == factorial(n) * gf_stirling_column(k, n)[n]


def test_hyperharmonic_values():
    for n in range(31):
        assert hyperharmonic(n, 1) == harmonic(n)
    assert hyperharmonic(3, 2) == Fraction(13, 3)
    assert hyperharmonic(2, 3) == Fraction(7, 2)
    assert hyperharmonic(5, 0) == Fraction(1, 5)
    assert hyperharmonic(0, 4) == 0


def test_hyperharmonic_zero_zero_is_a_domain_error():
    with pytest.raises(ValueError):
        hyperharmonic(0, 0)
    with pytest.raises(ValueError):
        hyperharmonic_closed(0, 0)


def test_hyperharmonic_recurrence_equals_closed_form():
    for p in range(9):
        for n in range(41):
            if p == 0 and n == 0:
                continue
            assert hyperharmonic(n, p) == hyperharmonic_closed(n, p)


@settings(max_examples=40, deadline=None)
@given(st.tuples(st.integers(0, 300), st.integers(0, 300)).filter(lambda case: case[0] > 40 or case[1] > 8))
@example((41, 0))
@example((0, 300))
@example((300, 300))
def test_hyperharmonic_routes_agree_past_the_grid(case):
    n, p = case
    assert hyperharmonic(n, p) == hyperharmonic_closed(n, p)


def test_hyperharmonic_high_order_does_not_recurse():
    clear_caches()
    assert hyperharmonic(2, 1500) == hyperharmonic_closed(2, 1500)


def test_stirling_column_memory_is_bounded():
    clear_caches()
    tracemalloc.start()
    try:
        value = stirling1(3000, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        clear_caches()
    assert value == factorial(2999) * harmonic(2999)
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"


def _check_interrupted_fill(monkeypatch, table, route, grid, warm, fail_at, fill="step"):
    clear_caches()
    expected = [route(*args) for args in grid]
    clear_caches()
    route(*warm)
    entry = getattr(table(), fill)
    calls = 0

    def failing_entry(*args):
        nonlocal calls
        calls += 1
        if calls == fail_at:
            raise MemoryError
        return entry(*args)

    monkeypatch.setattr(table(), fill, failing_entry)
    with pytest.raises(MemoryError):
        route(*grid[-1])
    monkeypatch.undo()
    assert [route(*args) for args in grid] == expected


@pytest.mark.parametrize(
    "table, route", [("_hlike", harmonic_like), ("_stirling", stirling1), ("_hyper", hyperharmonic)]
)
def test_interrupted_fill_leaves_table_consistent(monkeypatch, table, route):
    grid = [(n, m) for n in range(41) for m in range(1, 5)]
    # the 50th step is part-way through growing level 2 to index 40
    _check_interrupted_fill(monkeypatch, lambda: getattr(sequences, table), route, grid, (10, 2), 50)


def test_interrupted_scale_fill_leaves_table_consistent(monkeypatch):
    # a fill stopped after the ratio at index 20 is stored, before its scale
    expected = [hyperharmonic_closed(n, 3) for n in range(41)]
    table = sequences._hyper
    clear_caches()
    hyperharmonic(10, 3)

    class FailsAtTwenty(list):
        armed = True

        def append(self, item):
            if self.armed and len(self) == 20:
                self.armed = False
                raise MemoryError
            super().append(item)

    monkeypatch.setattr(table, "scales", FailsAtTwenty(table.scales))
    try:
        with pytest.raises(MemoryError):
            hyperharmonic(40, 3)
        assert (len(table.scales), len(table.ratios)) == (20, 21)
        assert [hyperharmonic(n, 3) for n in range(41)] == expected
    finally:
        monkeypatch.undo()
        clear_caches()


_PARTIAL_SUMS = {
    "harmonic": (lambda: sequences._harmonic_order[1], harmonic),
    "harmonic_order": (lambda: sequences._harmonic_order[3], lambda n: harmonic_order(n, 3)),
    "odd_harmonic": (lambda: sequences._odd_harmonic, odd_harmonic),
    "half_harmonic_offset": (lambda: sequences._half_offset, half_harmonic_offset),
}


@pytest.mark.parametrize("family", _PARTIAL_SUMS)
def test_interrupted_partial_sum_fill_leaves_table_consistent(monkeypatch, family):
    # a partial sum is a one-level table that reads its own prefix, as in the test below
    table, route = _PARTIAL_SUMS[family]
    grid = [(n,) for n in range(41)]
    # the 20th base entry is part-way through growing the sums from index 10 to 40
    _check_interrupted_fill(monkeypatch, table, route, grid, (10,), 20, "base")


@pytest.mark.parametrize(
    "table, route", [("_fibonacci", fibonacci), ("_central", lambda n: hyperharmonic_half(n, 0))]
)
def test_interrupted_one_level_fill_leaves_a_correct_prefix(monkeypatch, table, route):
    grid = [(n,) for n in range(41)]
    # the 20th base entry is part-way through growing level 0 from index 10 to 40
    _check_interrupted_fill(monkeypatch, lambda: getattr(sequences, table), route, grid, (10,), 20, "base")


def test_every_memo_is_listed_once():
    memos = sequences._MEMOS
    named = [
        value
        for value in vars(sequences).values()
        if isinstance(value, (sequences._LevelTable, sequences._KeyedTables))
    ]
    assert len({id(memo) for memo in memos}) == len(memos)
    assert {id(memo) for memo in named} == {id(memo) for memo in memos}
    # the sequence tables are the only memos: no module above them keeps a cache of its own
    for module in (identities, transforms, series):
        cached = [name for name, value in vars(module).items()
                  if hasattr(value, "cache_clear") and not isinstance(value, type)]
        assert not cached, (module.__name__, cached)


def test_clear_caches_resets_every_table(memo_sizes):
    clear_caches()
    cold = memo_sizes()
    assert cold == [{} if isinstance(memo, sequences._KeyedTables) else [1] for memo in sequences._MEMOS]
    for name, family in sequences._FAMILIES.items():
        SeqSpec(name, {key: low + 2 for key, low in family.minimum.items()}).evaluate(30)
    harmonic_order(30, 5)
    assert all(grown != size for grown, size in zip(memo_sizes(), cold))
    orders = list(sequences._harmonic_order.values())
    clear_caches()
    assert memo_sizes() == cold
    tables = [memo for memo in sequences._MEMOS if isinstance(memo, sequences._LevelTable)]
    assert [(table.scales, table.ratios) for table in tables] == [([1], [1])] * len(tables)
    # the order-r tables, harmonic's order 1 among them, are unlinked, not emptied, so a read racing
    # the clear finishes on its old table
    assert [[len(level) for level in table.levels] for table in orders] == [[31]] * 3


def test_harmonic_is_the_order_one_table(memo_sizes):
    clear_caches()
    cold = memo_sizes()
    harmonic(30)
    grown = [{1: [31]} if memo is sequences._harmonic_order else size for memo, size in zip(sequences._MEMOS, cold)]
    assert memo_sizes() == grown
    assert [harmonic_order(n, 1) for n in range(31)] == [harmonic(n) for n in range(31)]
    assert memo_sizes() == grown


def test_warm_reads_take_no_lock():
    clear_caches()
    warm = (fibonacci(50), lucas(50), hyperharmonic_half(5, 5), hyperharmonic(20, 3))
    held, release, read = threading.Event(), threading.Event(), []

    def hold():
        with sequences._lock:
            held.set()
            release.wait(60)

    holder = threading.Thread(target=hold)
    reader = threading.Thread(
        target=lambda: read.append((fibonacci(50), lucas(50), hyperharmonic_half(5, 5), hyperharmonic(20, 3)))
    )
    holder.start()
    try:
        assert held.wait(10)
        reader.start()
        reader.join(5)
        assert not reader.is_alive(), "a warm read waited for the lock"
    finally:
        release.set()
        holder.join(10)
    reader.join(10)
    assert not holder.is_alive() and not reader.is_alive()
    assert read == [warm]


# ---------------------------------------------------------------------------
# the hyperharmonic table on integer numerators over lcm(1..n)


def _hyperharmonic_schoolbook(n, p):
    """Schoolbook reference: level 0 is 1/k, every level the running sums of
    the one below, each one a reduced Fraction addition."""
    level = [Fraction(0)] + [Fraction(1, k) for k in range(1, n + 1)]
    for _ in range(p):
        total, sums = Fraction(0), []
        for value in level:
            total += value
            sums.append(total)
        level = sums
    return level[n]


def _hyperharmonic_mismatches(queries, shuffled):
    """Queries the table answers differently from the schoolbook recurrence:
    asked cold in order, again warm in shuffled order, then cold once more
    in the reverse of that order."""
    expected = {query: _hyperharmonic_schoolbook(*query) for query in queries}
    clear_caches()
    answers = [(query, hyperharmonic(*query)) for query in queries]
    answers += [(query, hyperharmonic(*query)) for query in shuffled]
    clear_caches()
    answers += [(query, hyperharmonic(*query)) for query in reversed(shuffled)]
    return sorted({query for query, value in answers if value != expected[query]})


_HYPER_QUERIES = st.lists(st.tuples(st.integers(0, 70), st.integers(1, 12)), min_size=1, max_size=12)


@settings(max_examples=40, deadline=None)
@given(_HYPER_QUERIES, st.randoms(use_true_random=False))
@example([(70, 12), (1, 1), (64, 1), (0, 5)], random.Random(0))
def test_hyperharmonic_table_matches_the_fraction_recurrence(queries, rng):
    shuffled = rng.sample(queries, len(queries))
    assert _hyperharmonic_mismatches(queries, shuffled) == []


def test_a_step_without_the_scale_ratio_fails_the_differential(monkeypatch):
    # the entry at index n - 1 is over lcm(1..n-1); added unscaled, every
    # value from n = 2 on is wrong
    monkeypatch.setattr(sequences._hyper, "step", lambda p, n, left, below, r: left + below[n])
    queries = [(1, 3), (2, 1), (10, 4)]
    assert _hyperharmonic_mismatches(queries, queries) == [(2, 1), (10, 4)]
    monkeypatch.undo()
    assert _hyperharmonic_mismatches(queries, queries) == []


def test_unlocked_reads_racing_clear_caches_stay_exact():
    reference = {(n, p): hyperharmonic_closed(n, p) for n in range(41) for p in range(1, 7)}
    keys = list(reference)

    def reader(seed):
        rng = random.Random(seed)
        return all(hyperharmonic(*key) == reference[key] for key in rng.choices(keys, k=400))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside reads, growth and clear
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            readers = [pool.submit(reader, seed) for seed in range(4)]
            while not all(future.done() for future in readers):
                clear_caches()
            assert all(future.result(timeout=120) for future in readers)
    finally:
        sys.setswitchinterval(interval)


def test_a_scaled_read_racing_clear_caches_returns_the_exact_value(monkeypatch):
    # A warm read reduces its entry over its scale without the lock, so a
    # clear_caches() started during the reduction finishes at once; the read
    # still returns the exact value, and the cleared table holds nothing.
    expected = hyperharmonic_closed(20, 3)
    clear_caches()
    hyperharmonic(30, 3)
    clearer = threading.Thread(target=clear_caches)
    waited = []

    def reduce(numerator, denominator):
        clearer.start()
        clearer.join(10)
        waited.append(clearer.is_alive())
        return Fraction(numerator, denominator)

    monkeypatch.setattr(sequences, "Fraction", reduce)
    assert hyperharmonic(20, 3) == expected
    assert waited == [False]
    assert sequences._hyper.levels == [[0]]


# ---------------------------------------------------------------------------
# column reads: one check, at the top index, and one slice of a table level

_COLUMNS = [
    pytest.param(harmonic_like_column, harmonic_like, id="harmonic_like"),
    pytest.param(stirling1_column, stirling1, id="stirling1"),
]


@pytest.mark.parametrize("column, value", _COLUMNS)
def test_a_column_equals_the_per_index_reads_on_cold_and_warm_tables(column, value):
    for n, j in [(0, 0), (6, 0), (6, 2), (0, 3), (4, 6), (12, 12), (30, 1), (40, 4)]:
        expected = [value(i, j) for i in range(n + 1)]
        clear_caches()
        assert column(n, j) == expected  # cold: grown under the lock
        assert column(n, j) == expected  # warm: one slice of the grown level
        assert column(n // 2, j) == expected[: n // 2 + 1]  # a prefix of a grown level
        assert [value(i, j) for i in range(n + 1)] == expected  # the per-index reads of what the column grew


@pytest.mark.parametrize("column, value", _COLUMNS)
def test_a_column_is_a_new_list_that_changes_no_later_read(column, value):
    clear_caches()
    expected = [value(i, 3) for i in range(21)]
    clear_caches()
    for _ in ("cold", "warm"):
        values = column(20, 3)
        assert values == expected
        values[5] = values[20] = 999
        values.append(999)
        del values[:3]
    assert column(20, 3) == expected
    assert [value(i, 3) for i in range(21)] == expected


def test_a_column_over_its_ceiling_is_refused_as_its_top_index_is_before_any_table_grows(monkeypatch, memo_sizes):
    monkeypatch.setattr(sequences, "HARMONIC_LIKE_CEILING", 1000)  # m = 10: refused from n = 10; m = 0 from n = 31
    monkeypatch.setattr(sequences, "SIZE_CEILING", 10_000)  # k = 10: refused from n = 15
    clear_caches()
    sizes = memo_sizes()
    refused = [
        (harmonic_like_column, harmonic_like, 10, 10),
        (harmonic_like_column, harmonic_like, 31, 0),
        (stirling1_column, stirling1, 15, 10),
        (harmonic_like_column, harmonic_like, -1, 2),
        (harmonic_like_column, harmonic_like, 2, -1),
        (stirling1_column, stirling1, -1, 2),
        (stirling1_column, stirling1, 2, -1),
    ]
    for column, value, n, j in refused:
        with pytest.raises(ValueError) as per_index:
            value(n, j)
        with pytest.raises(type(per_index.value), match=f"^{re.escape(str(per_index.value))}$"):
            column(n, j)
    assert memo_sizes() == sizes
    # one index lower, or above the index (all zeros), each column is admitted
    assert harmonic_like_column(9, 10) == [0] * 10
    assert stirling1_column(9, 10) == [0] * 10
    assert harmonic_like_column(30, 0) == [1] * 31
    assert stirling1_column(14, 10)[14] == stirling1(14, 10)


def test_column_reads_racing_clear_caches_stay_exact():
    reference = {
        (column, n, j): [value(i, j) for i in range(n + 1)]
        for column, value in [(harmonic_like_column, harmonic_like), (stirling1_column, stirling1)]
        for n in range(0, 41, 4)
        for j in range(6)
    }
    keys = list(reference)

    def reader(seed):
        rng = random.Random(seed)
        return all(column(n, j) == reference[column, n, j] for column, n, j in rng.choices(keys, k=400))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside reads, growth and clear
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            readers = [pool.submit(reader, seed) for seed in range(4)]
            while not all(future.done() for future in readers):
                clear_caches()
            assert all(future.result(timeout=120) for future in readers)
    finally:
        sys.setswitchinterval(interval)


def test_hyperharmonic_half_examples():
    for p in range(11):
        assert hyperharmonic_half(0, p) == 0
    assert hyperharmonic_half(1, 0) == 1
    assert hyperharmonic_half(3, 0) == Fraction(23, 24)


def test_central_binomials_are_read_off_one_table():
    clear_caches()
    assert sequences._central.levels == [[1]]
    # asked from the top down, then below what the table holds
    for i in (*range(300, 250, -1), 0, 7, 299):
        assert sequences._central.value(i, 0) == comb(2 * i, i)
    assert sequences._central.levels == [[comb(2 * i, i) for i in range(301)]]
    clear_caches()
    assert sequences._central.levels == [[1]]


def test_hyperharmonic_half_two_routes_agree():
    for r in range(16):
        for p in range(16):
            assert hyperharmonic_half(r, p) == hyperharmonic_half_via_binomial(r, p)


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(st.integers(0, 200), st.integers(0, 200)).filter(lambda rp: max(rp) > 15)
)
@example((16, 16))
@example((200, 0))
@example((1, 200))
@example((200, 200))
def test_hyperharmonic_half_routes_agree_past_the_registry_grid(rp):
    r, p = rp
    assert hyperharmonic_half(r, p) == hyperharmonic_half_via_binomial(r, p)


def test_the_binomial_route_of_hyperharmonic_half_is_refused_as_the_primary_is(memo_sizes):
    # without its own check, the O(r) generalized binomial at r = 200000 ran
    # for longer than 20 s before the odd harmonic table refused the query
    clear_caches()
    sizes = memo_sizes()
    for r, p in [(sequences.HALF_CEILING + 1, 0), (200_000, 0)]:
        with pytest.raises(FeasibilityError) as primary:
            hyperharmonic_half(r, p)
        start = time.perf_counter()
        with pytest.raises(FeasibilityError, match=f"^{re.escape(str(primary.value))}$"):
            hyperharmonic_half_via_binomial(r, p)
        assert time.perf_counter() - start < 1.0
    assert memo_sizes() == sizes


def test_the_closed_route_of_hyperharmonic_is_refused_as_the_primary_is(memo_sizes):
    # without its own check, (300000, 300000) spent seconds on the binomial before
    # the harmonic table refused the query, and (10**6, 10**6) ran past 30 s
    clear_caches()
    sizes = memo_sizes()
    for n, p in [(300_000, 300_000), (10**6, 10**6)]:
        with pytest.raises(FeasibilityError) as primary:
            hyperharmonic(n, p)
        start = time.perf_counter()
        with pytest.raises(FeasibilityError, match=f"^{re.escape(str(primary.value))}$"):
            hyperharmonic_closed(n, p)
        assert time.perf_counter() - start < 1.0
    assert memo_sizes() == sizes


def test_hyperharmonic_half_ladder_relations():
    # the half-integer family obeys the same ladder recurrences as the
    # integer-order family: partial sums raise the order by one, and the
    # index-weighted sum collapses to boundary terms two levels up
    for p in range(8):
        for n in range(12):
            partial = sum((hyperharmonic_half(k, p) for k in range(1, n + 1)), Fraction(0))
            assert partial == hyperharmonic_half(n, p + 1)
        for n in range(1, 10):
            swapped = sum((hyperharmonic_half(p, k) for k in range(1, n + 1)), Fraction(0))
            assert swapped == hyperharmonic_half(p + 1, n) - hyperharmonic_half(p + 1, 0)
            weighted = sum((k * hyperharmonic_half(k, p) for k in range(1, n + 1)), Fraction(0))
            assert weighted == n * hyperharmonic_half(n, p + 1) - hyperharmonic_half(n - 1, p + 2)


def test_fibonacci_lucas():
    assert fibonacci(2) == 1
    assert fibonacci(10) == 55
    assert lucas(0) == 2
    assert [lucas(n) for n in range(6)] == [2, 1, 3, 4, 7, 11]


def test_lucas_recurrence_on_cold_caches():
    clear_caches()
    for n in range(2, 3001):
        assert lucas(n) == lucas(n - 1) + lucas(n - 2), n


def test_half_harmonic_offset():
    assert half_harmonic_offset(0) == 0
    assert half_harmonic_offset(2) == Fraction(8, 3)
    for n in range(21):
        assert half_harmonic_offset(n) - half_harmonic_offset(1) == 2 * (odd_harmonic(n) - 1)


def test_seqspec_families():
    assert set(FAMILY_NAMES) == {
        "harmonic",
        "harmonic_order",
        "odd_harmonic",
        "harmonic_like",
        "stirling1",
        "hyperharmonic",
        "hyperharmonic_half",
        "fibonacci",
        "lucas",
        "half_harmonic_offset",
    }
    assert SeqSpec("harmonic").evaluate(4) == Fraction(25, 12)
    assert SeqSpec("harmonic_like", {"m": 2}).evaluate(4) == Fraction(35, 12)
    assert SeqSpec("stirling1", {"k": 2}).evaluate(5) == -50
    assert SeqSpec("hyperharmonic_half", {"p": 0}).evaluate(3) == Fraction(23, 24)


def test_seqspec_validation():
    for family, params, message in [
        ("no_such_family", {}, "unknown sequence family 'no_such_family'; known: " + ", ".join(FAMILY_NAMES)),
        ("harmonic_like", {}, "family 'harmonic_like' requires parameter(s): m"),
        ("harmonic", {"m": 1, "k": 2}, "family 'harmonic' does not take: m, k"),
        ("harmonic_like", {"m": -1}, "family 'harmonic_like': parameter m must be >= 0"),
        ("harmonic_order", {"r": 0}, "family 'harmonic_order': parameter r must be >= 1"),
        # refused by name, not by a TypeError when evaluate reads a table
        ("harmonic_like", {"m": 1.5}, "family 'harmonic_like': parameter m must be an integer, got 1.5"),
        ("stirling1", {"k": 2.0}, "family 'stirling1': parameter k must be an integer, got 2.0"),
        ("hyperharmonic", {"p": 1.5}, "family 'hyperharmonic': parameter p must be an integer, got 1.5"),
        ("harmonic_order", {"r": 2.5}, "family 'harmonic_order': parameter r must be an integer, got 2.5"),
        ("hyperharmonic_half", {"p": Fraction(1, 2)},
         "family 'hyperharmonic_half': parameter p must be an integer, got Fraction(1, 2)"),
        ("harmonic_like", {"m": "2"}, "family 'harmonic_like': parameter m must be an integer, got '2'"),
    ]:
        with pytest.raises(ValueError) as info:
            SeqSpec(family, params)
        assert str(info.value) == message


def test_seqspec_is_a_read_only_value():
    params = {"m": 2}
    spec = SeqSpec("harmonic_like", params)
    params["m"] = 3  # the spec holds its own copy
    assert (spec.family, spec.params) == ("harmonic_like", {"m": 2})
    assert spec == SeqSpec(family="harmonic_like", params={"m": 2})
    assert spec != SeqSpec("harmonic_like", {"m": 3}) and spec != ("harmonic_like", {"m": 2})
    assert SeqSpec("harmonic") == SeqSpec("harmonic", {})
    assert repr(spec) == "SeqSpec(family='harmonic_like', params={'m': 2})"
    assert repr(SeqSpec("harmonic")) == "SeqSpec(family='harmonic', params={})"
    for name in ("family", "params", "other"):
        with pytest.raises(AttributeError):
            setattr(spec, name, "harmonic")
    with pytest.raises(AttributeError):
        del spec.family
    assert (spec.family, spec.params) == ("harmonic_like", {"m": 2})
    assert copy.deepcopy(spec) == spec == pickle.loads(pickle.dumps(spec))


def test_cache_transparency():
    clear_caches()
    cold = [
        harmonic_like(17, 3),
        stirling1(19, 4),
        hyperharmonic(12, 5),
        harmonic(33),
        odd_harmonic(21),
        fibonacci(30),
    ]
    warm = [
        harmonic_like(17, 3),
        stirling1(19, 4),
        hyperharmonic(12, 5),
        harmonic(33),
        odd_harmonic(21),
        fibonacci(30),
    ]
    assert cold == warm
    clear_caches()
    assert cold == [
        harmonic_like(17, 3),
        stirling1(19, 4),
        hyperharmonic(12, 5),
        harmonic(33),
        odd_harmonic(21),
        fibonacci(30),
    ]


def test_concurrent_use_returns_identical_values():
    reference = {
        (n, m): harmonic_like(n, m) for n in range(31) for m in range(5)
    }
    reference.update({("s", n, k): stirling1(n, k) for n in range(31) for k in range(5)})
    reference.update({("r", n, r): harmonic_order(n, r) for n in range(31) for r in range(1, 5)})

    def worker(seed):
        rng = random.Random(seed)
        keys = list(reference)
        rng.shuffle(keys)
        out = {}
        for key in keys:
            if key[0] == "s":
                out[key] = stirling1(key[1], key[2])
            elif key[0] == "r":
                out[key] = harmonic_order(key[1], key[2])
            else:
                out[key] = harmonic_like(*key)
        return out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside table growth too
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for round_ in range(5):  # each round races the threads on cold tables
                clear_caches()
                for result in pool.map(worker, range(8 * round_, 8 * round_ + 8), timeout=120):
                    assert result == reference
    finally:
        sys.setswitchinterval(interval)


_ROUTES = {"harmonic_like": harmonic_like, "stirling1": stirling1, "hyperharmonic": hyperharmonic}
_QUERIES = st.lists(
    st.one_of(
        st.tuples(st.just("harmonic_like"), st.integers(0, 60), st.integers(0, 8)),
        st.tuples(st.just("stirling1"), st.integers(0, 60), st.integers(0, 12)),
        st.tuples(st.just("hyperharmonic"), st.integers(0, 60), st.integers(1, 12)),
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=40, deadline=None)
@given(_QUERIES)
@example([("harmonic_like", 50, 1), ("harmonic_like", 20, 6), ("harmonic_like", 55, 3),
          ("stirling1", 3, 9), ("stirling1", 40, 2), ("stirling1", 15, 7),
          ("hyperharmonic", 30, 2), ("hyperharmonic", 5, 12), ("hyperharmonic", 31, 12)])
def test_interleaved_queries_match_fresh_ascending_evaluation(queries):
    clear_caches()
    interleaved = [_ROUTES[family](n, j) for family, n, j in queries]
    for (family, n, j), value in zip(queries, interleaved):
        clear_caches()
        ascending = [_ROUTES[family](i, j) for i in range(n + 1)]
        assert value == ascending[-1], (family, n, j)
