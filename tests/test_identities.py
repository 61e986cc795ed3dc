import errno
import json
import os
import random
import select
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from multiharm import cli, identities
from multiharm.identities import (
    IdentityDescriptor,
    UnknownIdentityError,
    registry_catalog,
    registry_tags,
    verify_all,
    verify_descriptor,
    verify_identity,
)
from multiharm.rational import binomial, exact_sum, factorial, gen_binomial
from multiharm.sequences import (
    harmonic,
    harmonic_like,
    harmonic_order,
    hyperharmonic,
    odd_harmonic,
    stirling1,
)

F = Fraction

REQUIRED_IDS = {
    # section2
    "main_id1", "remark_m1", "cor_id1", "cor_id2", "cor_id3", "classical_Hk",
    "cor_id4", "ex_Hk2_2n", "ex_alt_Hk2", "ex_alt_Hk2sq", "ex_inv_HkOverK",
    "ex_2k_alt", "ex_3n", "fib_Hk2", "lucas_Hk2", "fib_alt_Hk2", "lucas_alt_Hk2",
    "cor_id5",
    # section3
    "warmup_Hprev_over_k", "warmup_sum_Hk", "warmup_fib_harmonic",
    "thm_o107dby", "thm_o107dby_m1", "thm_o107dby_m2",
    "thm_hnp1", "thm_hnp1_m1", "thm_hnp1_m2",
    "har_helper", "har_example_p0", "har_example_p_pos",
    "thm_kk1", "thm_kk1_m1", "thm_kk1_m2",
    "thm_kollar", "thm_kollar_m1", "thm_kollar_m2",
    # section4
    "thm_hyphar", "thm_hyphar_m0", "thm_hyphar_m1",
    "czxfdu7_1", "czxfdu7_2", "czxfdu7_3", "czxfdu7_4", "czxfdu7_5",
    "czxfdu7_6", "czxfdu7_7",
    "lemma_m2jjbl5", "thm_suzj3to", "oklok93",
    "thm_odd_id1", "thm_odd_id1_m0", "thm_odd_id1_m1", "tb6ik5l",
    "thm_general_p", "thm_general_p_m0", "thm_xld8bhi",
    "thm_k_weighted_half", "thm_k_weighted_half_p0", "thm_yycg1tg",
}


def test_catalog_is_complete_and_well_formed():
    catalog = registry_catalog()
    ids = [entry[0] for entry in catalog]
    assert len(catalog) >= 45
    assert len(ids) == len(set(ids))
    assert all(anchor for _, anchor, _ in catalog)
    assert all(grid for _, _, grid in catalog)
    assert REQUIRED_IDS <= set(ids)
    assert registry_tags() == ("section1", "section2", "section3", "section4")


def test_catalog_listing_is_stable():
    assert registry_catalog() == registry_catalog()


def test_verify_identity_grid_cardinality():
    report = verify_identity("cor_id1", {"n": 20, "m": 5})
    assert report.passed
    assert report.cases == 21 * 6 == 126
    assert report.first_failure is None


def test_grid_text_for_each_axis_kind():
    text = {ident: grid for ident, _, grid in registry_catalog()}
    assert text["cor_id1"] == "m=0..5; n=0..25"
    assert text["thm_kollar"] == "(r) in {3, 1/2, 5/2, -2/3}; m=1..4; n=1..20"
    assert text["main_id1"] == (
        "(a, b) in {(1, 1), (-1, 1), (2, 1), (1, 2), (1/2, -1/3), (3, -2), (0, 1), (1, 0)}; "
        "m=0..4; n=0..25"
    )


def test_overrides_change_only_range_axes():
    # thm_kollar: 4 listed r values, m = 1..2, n = 1..3
    assert verify_identity("thm_kollar", {"n": 3, "m": 2}).cases == 4 * 2 * 3
    # main_id1: 8 joint (a, b) pairs, m = 0..1, n = 0..2
    assert verify_identity("main_id1", {"n": 2, "m": 1}).cases == 8 * 2 * 3
    # a listed axis takes no bound, so an override of the same name is refused
    with pytest.raises(ValueError, match="no integer axis r to bound in thm_kollar"):
        verify_identity("thm_kollar", {"r": 0, "n": 1, "m": 1})
    binding = next(identities.get_identity("main_id1").bindings())
    assert binding == {"a": F(1), "b": F(1), "m": 0, "n": 0}


def test_verify_identity_unknown_id():
    with pytest.raises(UnknownIdentityError):
        verify_identity("no_such")


def test_verify_all_with_unknown_tag_is_refused():
    with pytest.raises(ValueError, match="no identity carries tag 'no_such_tag'; tags: section1, "):
        verify_all(tag="no_such_tag")


def test_unknown_identity_error_is_a_value_error_with_a_plain_message():
    with pytest.raises(UnknownIdentityError) as info:
        verify_identity("no_such")
    assert isinstance(info.value, KeyError) and isinstance(info.value, ValueError)
    assert str(info.value) == "unknown identity id: no_such"


def _must_not_evaluate(desc, overrides=None):
    pytest.fail(f"{desc.id} was evaluated before the run was refused")


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: verify_all("section1", {"p": 3}), "no integer axis p to bound in tag 'section1'",
                 id="tag-without-the-axis"),
    pytest.param(lambda: verify_all("section1", {"m": 2}), "no integer axis m to bound in tag 'section1'",
                 id="tag-without-m"),
    pytest.param(lambda: verify_identity("cor_id1", {"p": 3}), "no integer axis p to bound in cor_id1",
                 id="id-without-the-axis"),
    pytest.param(lambda: verify_identity("thm_kollar", {"r": 0, "n": 1, "m": 1}),
                 "no integer axis r to bound in thm_kollar", id="listed-axis"),
    pytest.param(lambda: verify_all(overrides={"q": 1}), "no integer axis q to bound in the registry",
                 id="axis-no-entry-has"),
    pytest.param(lambda: verify_identity("nosuch"), "unknown identity id: nosuch", id="unknown-id"),
    pytest.param(lambda: verify_all(tag="nosuch"), "no identity carries tag 'nosuch'", id="unknown-tag"),
    pytest.param(lambda: verify_all(overrides={"n": 0}), "the grid bounds leave no cases to check for: ",
                 id="bounds-leave-no-case"),
    pytest.param(lambda: verify_identity("cor_id1", {"n": -5}), "no cases to check for: cor_id1",
                 id="id-with-no-case"),
])
def test_vacuous_runs_are_refused_before_any_evaluation(monkeypatch, call, message):
    monkeypatch.setattr(identities, "verify_descriptor", _must_not_evaluate)
    with pytest.raises(ValueError, match=message):
        call()


def test_bounds_that_leave_no_case_name_every_such_identity(monkeypatch):
    monkeypatch.setattr(identities, "verify_descriptor", _must_not_evaluate)
    with pytest.raises(ValueError) as info:
        verify_all(overrides={"n": 0})
    named = str(info.value).split(": ", 1)[1].split(", ")
    assert len(named) == 30
    for ident, _, _ in registry_catalog():
        empty = next(identities.get_identity(ident).bindings({"n": 0}), None) is None
        assert empty == (ident in named)


@settings(max_examples=30, deadline=None)
@example(tag=None, overrides={"n": 3})  # checks every entry
@example(tag="section1", overrides={"n": 3, "p": 3})  # refused: section1 has no p axis
@given(
    tag=st.sampled_from([None, *registry_tags()]),
    # n is always bounded, so that no example runs a full default grid
    overrides=st.fixed_dictionaries(
        {"n": st.integers(-1, 3)}, optional={"m": st.integers(-1, 3), "p": st.integers(-1, 3)}
    ),
)
def test_a_run_checks_every_selected_case_or_is_refused_unevaluated(tag, overrides):
    evaluated = []

    def counting(desc, bounds=None):
        evaluated.append(desc.id)
        return verify_descriptor(desc, bounds)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(identities, "verify_descriptor", counting)
        try:
            reports = verify_all(tag, overrides)
        except ValueError:
            assert evaluated == []
            return
    assert [r.identity for r in reports] == evaluated
    for report in reports:
        assert report.cases > 0
        assert report.cases == len(list(identities.get_identity(report.identity).bindings(overrides)))


def test_verify_all_section1():
    reports = verify_all(tag="section1")
    assert reports and all(r.passed for r in reports)
    assert [r.identity for r in reports] == sorted(r.identity for r in reports)


def test_oklok93_spot_value():
    desc = identities.get_identity("oklok93")
    assert desc.lhs(n=1) == desc.rhs(n=1) == F(1, 2)


def test_corrupted_evaluator_reports_smallest_failure():
    # deliberately broken twin of a simple identity; never registered
    broken = IdentityDescriptor(
        id="corrupted_fixture",
        title="broken on purpose",
        anchor="sum_{k=1..n} H_{k-1}/k = (H_n^2 - H_n^(2))/2 + [n>=3]/7",
        grid={"n": range(1, 11)},
        lhs=lambda n: sum((harmonic(k - 1) / k for k in range(1, n + 1)), F(0)),
        rhs=lambda n: (harmonic(n) ** 2 - harmonic_order(n, 2)) / 2
        + (F(1, 7) if n >= 3 else 0),
    )
    report = verify_descriptor(broken)
    assert not report.passed
    assert report.cases == 10
    assert report.first_failure["binding"] == {"n": 3}
    lhs, rhs = F(report.first_failure["lhs"]), F(report.first_failure["rhs"])
    assert rhs - lhs == F(1, 7)


def test_reports_are_deterministic_apart_from_timing():
    a = verify_identity("czxfdu7_5").to_json_dict()
    b = verify_identity("czxfdu7_5").to_json_dict()
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert a == b



def _kollar_m2_lhs_fraction_loop(r, n):
    """The left side of thm_kollar_m2 as one reduced Fraction per inner term."""
    from multiharm.rational import binomial, gen_binomial

    total = F(0)
    for k in range(n + 1):
        inner = F(0)
        for j in range(2, k + 2):
            inner += (-1) ** j * binomial(k, j - 1) * harmonic(j - 1) / j
        total += (-1) ** k * gen_binomial(r - 1, k) * inner
    return total


def test_kollar_m2_integer_inner_sum_matches_the_fraction_loop():
    desc = identities.get_identity("thm_kollar_m2")
    for r in (*identities._KOLLAR_R, F(7, 3), F(-5)):
        for n in range(0, 31):
            assert desc.lhs(r=r, n=n) == _kollar_m2_lhs_fraction_loop(r, n), (r, n)


# ---------------------------------------------------------------------------
# memos: running sums and cached inner sums


MEMOS = identities._MEMOS


def _reset_memos():
    for memo in MEMOS:
        memo.cache_clear()


def _entries(memo):
    if isinstance(memo, identities._RunningSum):
        return len(memo.tables)
    return memo.cache_info().currsize


def test_every_memo_is_listed_once():
    named = [
        value
        for value in vars(identities).values()
        if isinstance(value, identities._RunningSum) or (hasattr(value, "cache_clear") and not isinstance(value, type))
    ]
    sides = [
        side
        for desc in identities._REGISTRY.values()
        for side in (desc.lhs, desc.rhs)
        if isinstance(side, identities._RunningSum)
    ]
    assert len({id(memo) for memo in MEMOS}) == len(MEMOS)
    assert {id(memo) for memo in named + sides} == {id(memo) for memo in MEMOS}


@pytest.mark.parametrize("ident", sorted(identities._REGISTRY))
def test_no_memo_is_read_by_both_sides_of_an_identity(ident):
    desc = identities.get_identity(ident)
    read = {}
    for side in ("lhs", "rhs"):
        _reset_memos()
        evaluate = getattr(desc, side)
        for binding in desc.bindings():
            evaluate(**binding)
        read[side] = {i for i, memo in enumerate(MEMOS) if _entries(memo)}
    assert not read["lhs"] & read["rhs"], [MEMOS[i] for i in read["lhs"] & read["rhs"]]


def test_a_running_sum_reaches_a_far_n_in_a_loop():
    side = identities._RunningSum(lambda k: k, start=1)
    assert side(5000) == 5000 * 5001 // 2
    assert side(0) == side(-3) == 0
    assert len(side.tables[()].levels[1]) == 5001


def test_an_interrupted_running_sum_keeps_a_correct_prefix():
    fail = {7}
    calls = []

    def term(k, p):
        calls.append(k)
        if k in fail:
            fail.clear()
            raise MemoryError
        return F(1, k + p)

    side = identities._RunningSum(term)
    side(3, p=1)
    with pytest.raises(MemoryError):
        side(10, p=1)
    # the terms grow first, so the sums level may stop short of the failed term
    sums = side.tables[(("p", 1),)].levels[1]
    assert len(sums) >= 5
    assert sums == [sum((F(1, k + 1) for k in range(i)), F(0)) for i in range(len(sums))]
    assert calls == list(range(8))
    calls.clear()
    assert side(10, p=1) == sum((F(1, k + 1) for k in range(11)), F(0))
    assert calls == [7, 8, 9, 10]  # each missing term once, no stored term again


def test_running_sums_read_while_every_memo_is_cleared_stay_exact():
    kollar = identities.get_identity("thm_kollar")
    reads = [(side, binding) for side in (kollar.lhs, identities._kollar_rhs_sum) for binding in kollar.bindings()]
    _reset_memos()
    serial = [side(**binding) for side, binding in reads]
    _reset_memos()

    def reader(seed):
        order = random.Random(seed).sample(range(len(reads)), len(reads))
        return [i for i in order if reads[i][0](**reads[i][1]) != serial[i]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside reads, growth and clears
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            readers = [pool.submit(reader, seed) for seed in range(4)]
            while not all(future.done() for future in readers):
                _reset_memos()
            assert [future.result(timeout=120) for future in readers] == [[]] * 4
    finally:
        sys.setswitchinterval(interval)


def _cw(k, p):
    return F(binomial(2 * (k + p), k + p) * binomial(k + p, k), 4**k)


#: Each side that reads a memo, next to the literal sum it replaced (its
#: former form, kept as a reference), and the parameters it takes besides n.
FORMER = {
    ("thm_kollar", "lhs"): (
        lambda r, m, n: exact_sum(
            (-1) ** k
            * gen_binomial(r - 1, k)
            * F(
                sum(binomial(k, j - 1) * stirling1(j, m) * (factorial(k + 1) // factorial(j)) for j in range(m, k + 2)),
                factorial(k + 1),
            )
            for k in range(n + 1)
        ),
        "rm",
    ),
    ("thm_kollar", "rhs"): (
        lambda r, m, n: (-1) ** n * gen_binomial(r - 1, n) * harmonic_like(n + 1, m) / factorial(m)
        - exact_sum((-1) ** k * gen_binomial(r, k) * harmonic_like(k, m) for k in range(n + 1)) / factorial(m),
        "rm",
    ),
    ("thm_kollar_m1", "lhs"): (
        lambda r, n: exact_sum(F((-1) ** k, k + 1) * gen_binomial(r - 1, k) for k in range(n + 1)),
        "r",
    ),
    ("thm_kollar_m1", "rhs"): (
        lambda r, n: (-1) ** n * gen_binomial(r - 1, n) * harmonic(n + 1)
        - exact_sum((-1) ** k * gen_binomial(r, k) * harmonic(k) for k in range(n + 1)),
        "r",
    ),
    ("thm_kollar_m2", "lhs"): (lambda r, n: _kollar_m2_lhs_fraction_loop(r, n), "r"),
    ("thm_kollar_m2", "rhs"): (
        lambda r, n: (-1) ** n * gen_binomial(r - 1, n) * (harmonic(n + 1) ** 2 - harmonic_order(n + 1, 2)) / 2
        - exact_sum(
            (-1) ** k * gen_binomial(r, k) * (harmonic(k) ** 2 - harmonic_order(k, 2)) for k in range(n + 1)
        )
        / 2,
        "r",
    ),
    ("hn3_double", "rhs"): (
        lambda n: exact_sum(
            F(1, j) * exact_sum(harmonic(n - j - l) / l for l in range(1, n - j + 1)) for j in range(1, n + 1)
        ),
        "",
    ),
    ("thm_o107dby", "lhs"): (
        lambda m, n: exact_sum(
            harmonic(k)
            * F(
                sum(binomial(k - 1, j - 1) * stirling1(j, m) * (factorial(k) // factorial(j)) for j in range(m, k + 1)),
                factorial(k),
            )
            for k in range(1, n + 1)
        ),
        "m",
    ),
    ("thm_o107dby_m2", "lhs"): (
        lambda n: 2
        * exact_sum(
            harmonic(k) * exact_sum((-1) ** j * binomial(k - 1, j - 1) * harmonic(j - 1) / j for j in range(1, k + 1))
            for k in range(1, n + 1)
        ),
        "",
    ),
    ("thm_hnp1", "lhs"): (
        lambda m, n: exact_sum(
            harmonic(k)
            * F(
                sum(
                    binomial(n - k, j - 1) * stirling1(j, m) * (factorial(n - k + 1) // factorial(j))
                    for j in range(m, n - k + 2)
                ),
                factorial(n - k + 1),
            )
            for k in range(1, n + 1)
        ),
        "m",
    ),
    ("thm_hnp1_m2", "lhs"): (
        lambda n: exact_sum(
            harmonic(k)
            * exact_sum(
                binomial(n - k, j - 1) * (-1) ** j * harmonic(j - 1) / j for j in range(2, n - k + 2)
            )
            for k in range(1, n + 1)
        ),
        "",
    ),
    ("thm_hnp1_m2", "rhs"): (
        lambda n: F(1, 2)
        * exact_sum(
            F(1, k) * exact_sum(harmonic(n + 1 - k - j) / j for j in range(1, n + 2 - k)) for k in range(1, n + 2)
        ),
        "",
    ),
    ("har_helper", "lhs"): (lambda p, n: exact_sum(F(1, k * (k + p)) for k in range(1, n + 1)), "p"),
    ("thm_kk1_m2", "rhs"): (
        lambda n: harmonic(n) ** 2
        - harmonic_order(n, 2)
        + exact_sum(F(1, k) * exact_sum(harmonic(n - k - j) / j for j in range(1, n - k + 1)) for k in range(1, n + 1))
        - exact_sum(
            F(1, k) * exact_sum(harmonic(n + 1 - k - j) / j for j in range(1, n + 2 - k)) for k in range(1, n + 2)
        ),
        "",
    ),
    ("thm_hyphar", "lhs"): (
        lambda m, p, n: exact_sum(
            binomial(k + p, k) * harmonic_like(n - k, m) * (harmonic(k + p) - harmonic(p)) for k in range(n + 1)
        ),
        "mp",
    ),
    ("thm_hyphar_m0", "lhs"): (
        lambda p, n: exact_sum(binomial(k + p, k) * (harmonic(k + p) - harmonic(p)) for k in range(n + 1)),
        "p",
    ),
    ("thm_hyphar_m1", "lhs"): (
        lambda p, n: exact_sum(
            binomial(k + p, k) * harmonic(n - k) * (harmonic(k + p) - harmonic(p)) for k in range(n + 1)
        ),
        "p",
    ),
    ("thm_suzj3to", "lhs"): (
        lambda p, n: exact_sum(_cw(k, p) * (odd_harmonic(k + p) - odd_harmonic(p)) for k in range(1, n + 1)),
        "p",
    ),
    ("thm_general_p", "lhs"): (
        lambda m, p, n: exact_sum(
            _cw(k, p) * harmonic_like(n - k, m) * (odd_harmonic(k + p) - odd_harmonic(p)) for k in range(n + 1)
        ),
        "mp",
    ),
    ("thm_xld8bhi", "lhs"): (lambda p, n: exact_sum(k * hyperharmonic(k, p) for k in range(1, n + 1)), "p"),
    ("thm_k_weighted_half", "lhs"): (
        lambda p, n: exact_sum(
            k * _cw(k, p) * (odd_harmonic(k + p) - odd_harmonic(p)) for k in range(1, n + 1)
        ),
        "p",
    ),
    ("thm_yycg1tg", "lhs"): (
        lambda p, n: exact_sum(
            F(binomial(2 * (k + p), k + p) * binomial(k + p, k), binomial(2 * k, k))
            * (odd_harmonic(k + p) - odd_harmonic(k))
            for k in range(1, n + 1)
        ),
        "p",
    ),
}

#: Parameters off the registry grids: any small rational r, m and p past their ranges.
OFF_GRID = {
    "r": st.fractions(-4, 4, max_denominator=9),
    "m": st.integers(0, 6),
    "p": st.integers(0, 9),
}

#: n in random order, with repeats, descending runs and values past every grid.
N_QUERIES = st.lists(
    st.one_of(
        st.integers(0, 45).map(lambda n: [n]),
        st.tuples(st.integers(0, 45), st.integers(2, 10)).map(
            lambda run: list(range(run[0], max(run[0] - run[1], -1), -1))
        ),
    ),
    min_size=1,
    max_size=5,
).map(lambda runs: [n for run in runs for n in run])


def test_every_side_that_reads_a_memo_has_a_former_form():
    readers = set()
    for ident in sorted(identities._REGISTRY):
        desc = identities.get_identity(ident)
        for side in ("lhs", "rhs"):
            _reset_memos()
            evaluate = getattr(desc, side)
            for binding in desc.bindings({"n": 3}):
                evaluate(**binding)
            if any(_entries(memo) for memo in MEMOS):
                readers.add((ident, side))
    assert readers == set(FORMER)


@pytest.mark.parametrize("ident, side", sorted(FORMER), ids=[f"{ident}-{side}" for ident, side in sorted(FORMER)])
@settings(max_examples=12, deadline=None)
@given(data=st.data(), queries=N_QUERIES, cold=st.booleans())
def test_a_side_with_memos_equals_its_former_sum(ident, side, data, queries, cold):
    former, names = FORMER[ident, side]
    params = {name: data.draw(OFF_GRID[name], label=name) for name in names}
    evaluate = getattr(identities.get_identity(ident), side)
    if cold:
        _reset_memos()
    for n in queries:
        assert evaluate(**params, n=n) == former(**params, n=n), n


def test_threads_verifying_identities_with_memos_give_the_serial_reports():
    ids = sorted({ident for ident, _ in FORMER})
    _reset_memos()
    serial = _untimed([verify_identity(ident) for ident in ids])
    _reset_memos()
    workers = 4  # more than the cores of a small machine
    start = threading.Barrier(workers)
    reports = [None] * workers

    def verify(slot):
        order = ids if slot % 2 else ids[::-1]
        start.wait()
        reports[slot] = {ident: verify_identity(ident) for ident in order}

    threads = [threading.Thread(target=verify, args=(slot,)) for slot in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for done in reports:
        assert _untimed([done[ident] for ident in ids]) == serial


# ---------------------------------------------------------------------------
# verify_all(jobs=N): forked workers


def _untimed(reports):
    return [{**r.to_json_dict(), "elapsed_ms": None} for r in reports]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _Forks:
    """Counts ``os.fork`` calls.  With ``hold`` set, the parent returns from
    each fork only once a worker has written a byte through :meth:`mark`."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.hold = False
        self.parent = os.getpid()
        self.marks_r, self.marks_w = os.pipe()
        real_fork = os.fork

        def fork():
            self.calls += 1
            pid = real_fork()
            if pid and self.hold:
                ready, _, _ = select.select([self.marks_r], [], [], 30)
                assert ready, "no worker started the held identity"
                os.read(self.marks_r, 1)
            return pid

        monkeypatch.setattr(os, "fork", fork)

    def in_worker(self):
        return os.getpid() != self.parent

    def mark(self):
        if self.in_worker():
            os.write(self.marks_w, b"x")

    def close(self):
        os.close(self.marks_r)
        os.close(self.marks_w)


@pytest.fixture
def forks(monkeypatch):
    spy = _Forks(monkeypatch)
    yield spy
    spy.close()


def _entry(ident, lhs, rhs=lambda n: F(n), section="t"):
    return IdentityDescriptor(ident, ident, ident, {"n": range(1, 4)}, lhs, rhs, section)


def _fine(ident):
    return _entry(ident, lambda n: F(n))


def test_forked_run_equals_the_serial_run_for_the_registry_and_every_tag(forks):
    for tag in (None, *registry_tags()):
        forks.calls = 0
        forked = verify_all(tag, jobs=2)
        assert forks.calls == 1, tag
        _no_child_left()
        assert _untimed(forked) == _untimed(verify_all(tag)), tag


def test_more_workers_than_cores_still_return_every_report_once(forks):
    overrides = {"n": 4}
    forked = verify_all(overrides=overrides, jobs=8)
    assert forks.calls == 7
    _no_child_left()
    assert _untimed(forked) == _untimed(verify_all(overrides=overrides))


def test_a_broken_entry_on_a_workers_share_reports_the_serial_first_failure(monkeypatch, forks):
    def lhs(n):
        forks.mark()
        return F(n + 1) if n >= 2 else F(n)

    entries = [_entry("a_broken", lhs), _fine("b_fine"), _fine("c_fine")]
    monkeypatch.setattr(identities, "_REGISTRY", {e.id: e for e in entries})
    serial = verify_all()
    forks.hold = True
    forked = verify_all(jobs=2)
    assert forks.calls == 1
    _no_child_left()
    assert _untimed(forked) == _untimed(serial)
    assert forked[0].first_failure == {"binding": {"n": 2}, "lhs": "3", "rhs": "2"}


def test_a_raising_entry_on_a_workers_share_raises_the_serial_exception(monkeypatch, forks, capfd):
    def lhs(n):
        forks.mark()
        return F(1, 0)

    entries = [_entry("a_raising", lhs), _fine("b_fine"), _fine("c_fine")]
    monkeypatch.setattr(identities, "_REGISTRY", {e.id: e for e in entries})
    with pytest.raises(ZeroDivisionError) as serial:
        verify_all()
    forks.hold = True
    with pytest.raises(ZeroDivisionError) as forked:
        verify_all(jobs=2)
    assert forks.calls == 1
    _no_child_left()
    assert str(forked.value) == str(serial.value)
    assert capfd.readouterr() == ("", "")  # the worker wrote nothing


def test_an_exception_in_the_parents_share_waits_for_the_serial_one_on_a_workers_share(monkeypatch, forks):
    def refused(n):
        forks.mark()
        raise ValueError("refused")

    # the worker claims the first entry; the parent's own share raises a different exception
    entries = [_entry("a_refused", refused), _entry("b_internal", lambda n: F(1, 0))]
    monkeypatch.setattr(identities, "_REGISTRY", {e.id: e for e in entries})
    forks.hold = True
    with pytest.raises(ValueError, match="^refused$"):
        verify_all(jobs=2)
    assert forks.calls == 1
    _no_child_left()


def test_an_exception_that_cannot_be_pickled_is_raised_as_in_the_serial_run(monkeypatch, forks):
    class Local(Exception):  # pickled by reference, which a local class has none of
        pass

    def lhs(n):
        forks.mark()
        raise Local("kept in the message")

    entries = [_entry("a_raising", lhs), _fine("b_fine")]
    monkeypatch.setattr(identities, "_REGISTRY", {e.id: e for e in entries})
    forks.hold = True
    with pytest.raises(Local, match="^kept in the message$"):
        verify_all(jobs=2)
    _no_child_left()


@pytest.mark.parametrize("die", [
    pytest.param(lambda: os._exit(7), id="exit-7"),
    pytest.param(lambda: os.kill(os.getpid(), signal.SIGKILL), id="sigkill"),
])
def test_a_worker_that_dies_leaves_its_share_to_the_parent(monkeypatch, forks, die):
    def lhs(n):
        forks.mark()
        if forks.in_worker():
            die()
        return F(n)

    entries = [_entry("a_dies", lhs), _fine("b_fine"), _fine("c_fine")]
    monkeypatch.setattr(identities, "_REGISTRY", {e.id: e for e in entries})
    serial = verify_all()
    forks.hold = True
    forked = verify_all(jobs=2)
    assert forks.calls == 1
    _no_child_left()
    assert _untimed(forked) == _untimed(serial)


def test_a_failed_fork_leaves_its_share_to_the_processes_already_running(monkeypatch, forks):
    calls = []
    counted_fork = os.fork

    def fork():
        calls.append(None)
        if len(calls) == 2:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return counted_fork()

    monkeypatch.setattr(os, "fork", fork)
    overrides = {"n": 4}
    serial = verify_all(overrides=overrides)
    open_before = sorted(os.listdir("/dev/fd"))
    forked = verify_all(overrides=overrides, jobs=3)
    assert len(calls) == 2 and forks.calls == 1
    _no_child_left()
    assert sorted(os.listdir("/dev/fd")) == open_before  # the pipe pair of the failed fork is closed
    assert _untimed(forked) == _untimed(serial)


def test_an_interrupt_in_the_parents_share_kills_and_reaps_every_worker(monkeypatch, forks):
    never_r, never_w = os.pipe()

    def lhs(n):
        if forks.in_worker():
            select.select([never_r], [], [], 20)  # waits until the worker is killed
        raise KeyboardInterrupt

    # the worker blocks in the first entry it claims, so the parent claims the other
    entries = [_entry("a_interrupt", lhs), _entry("b_interrupt", lhs)]
    monkeypatch.setattr(identities, "_REGISTRY", {e.id: e for e in entries})
    start = time.perf_counter()
    try:
        with pytest.raises(KeyboardInterrupt):
            verify_all(jobs=2)
    finally:
        os.close(never_r)
        os.close(never_w)
    assert forks.calls == 1
    _no_child_left()
    assert time.perf_counter() - start < 10


def _refuse_fork():
    pytest.fail("os.fork was called")


def test_a_single_entry_selection_never_forks(monkeypatch):
    monkeypatch.setattr(os, "fork", _refuse_fork)
    entries = [_fine("a_fine"), _entry("b_solo", lambda n: F(n), section="solo")]
    monkeypatch.setattr(identities, "_REGISTRY", {e.id: e for e in entries})
    assert [r.identity for r in verify_all("solo", jobs=2)] == ["b_solo"]


def test_more_identities_than_one_byte_can_index_run_serially(monkeypatch):
    monkeypatch.setattr(os, "fork", _refuse_fork)
    monkeypatch.setattr(identities, "_MAX_FORKED", 2)
    reports = verify_all("section1", {"n": 3}, jobs=2)
    assert len(reports) > 2
    assert _untimed(reports) == _untimed(verify_all("section1", {"n": 3}))


def test_a_live_helper_thread_keeps_the_run_serial(monkeypatch):
    monkeypatch.setattr(os, "fork", _refuse_fork)
    release = threading.Event()
    helper = threading.Thread(target=release.wait, args=(30,))
    helper.start()
    try:
        reports = verify_all("section1", {"n": 3}, jobs=2)
    finally:
        release.set()
        helper.join(30)
    assert not helper.is_alive()
    assert _untimed(reports) == _untimed(verify_all("section1", {"n": 3}))


def _as_program(monkeypatch, *argv, cpus=2):
    """``multiharm *argv`` as the program runs it, on ``cpus`` usable CPUs."""
    monkeypatch.setattr(sys, "argv", ["multiharm", *argv])
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    return cli.main()


def _raise(exc):
    raise exc


@pytest.mark.parametrize("outcome, code, err", [
    pytest.param(lambda n, worker: F(n + 1), 1, "", id="mismatch"),
    pytest.param(lambda n, worker: _raise(ValueError("refused")), 2, "error: refused\n", id="value-error"),
    pytest.param(lambda n, worker: _raise(MemoryError()), 2, "error: out of memory\n", id="memory-error"),
    pytest.param(lambda n, worker: F(1, 0), 3, "error: internal error: ZeroDivisionError: ", id="internal-error"),
    pytest.param(lambda n, worker: os._exit(7) if worker else F(n), 0, "", id="worker-died"),
])
def test_the_forked_program_keeps_the_exit_statuses(monkeypatch, forks, capsys, outcome, code, err):
    # the worker claims the held identity first; the parent verifies it again unless the worker reported it
    def lhs(n):
        forks.mark()
        if code == 1 and not forks.in_worker():  # a mismatch is a finished report: the parent takes the worker's
            pytest.fail("the parent evaluated the held identity")
        return outcome(n, forks.in_worker())

    entries = [_entry("a_held", lhs), _fine("b_fine"), _fine("c_fine")]
    monkeypatch.setattr(identities, "_REGISTRY", {e.id: e for e in entries})
    forks.hold = True
    assert _as_program(monkeypatch, "verify") == code
    assert forks.calls == 1
    _no_child_left()
    out, errors = capsys.readouterr()
    assert errors.startswith(err) and errors.count("\n") == (code > 1)
    if code < 2:
        assert [r["passed"] for r in json.loads(out)] == [code == 0, True, True]
    else:
        assert out == ""


@pytest.mark.parametrize("argv", [["verify", "--id", "cor_id1", "--n-max", "3"], ["verify", "--tag", "solo"]])
def test_one_identity_never_forks_even_on_many_cpus(monkeypatch, capsys, argv):
    monkeypatch.setattr(os, "fork", _refuse_fork)
    solo = _entry("zz_solo", lambda n: F(n), section="solo")
    monkeypatch.setitem(identities._REGISTRY, solo.id, solo)
    assert _as_program(monkeypatch, *argv, cpus=8) == 0
    assert len(json.loads(capsys.readouterr().out)) == 1


def test_one_usable_cpu_never_forks(monkeypatch, capsys):
    monkeypatch.setattr(os, "fork", _refuse_fork)
    assert _as_program(monkeypatch, "verify", "--n-max", "3", cpus=1) == 0
    assert len(json.loads(capsys.readouterr().out)) == len(registry_catalog())
