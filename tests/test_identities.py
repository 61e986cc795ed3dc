import copy
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
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import multiharm
from multiharm import _kernels, cli, identities, rational, sequences, series, transforms
from multiharm.identities import (
    IdentityDescriptor,
    UnknownIdentityError,
    registry_catalog,
    registry_tags,
    verify_all,
    verify_descriptor,
    verify_identity,
)
from multiharm.rational import binomial, factorial, gen_binomial
from multiharm.sequences import (
    fibonacci,
    harmonic,
    harmonic_like,
    harmonic_order,
    hyperharmonic,
    lucas,
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


def test_the_package_root_names_the_identity_layer():
    from multiharm import (
        IdentityDescriptor,
        UnknownIdentityError,
        VerificationReport,
        registry_catalog,
        registry_tags,
        verify_all,
        verify_identity,
    )

    imported = {
        "IdentityDescriptor": IdentityDescriptor,
        "UnknownIdentityError": UnknownIdentityError,
        "VerificationReport": VerificationReport,
        "registry_catalog": registry_catalog,
        "registry_tags": registry_tags,
        "verify_all": verify_all,
        "verify_identity": verify_identity,
    }
    for name, value in imported.items():
        assert value is getattr(multiharm, name) is getattr(identities, name)
    with pytest.raises(AttributeError):
        multiharm.no_such_name
    with pytest.raises(ImportError):
        from multiharm import no_such_name  # noqa: F401


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
    # the left side is a column side: its values at n = 0, 1
    assert desc.lhs(n=1) == [0, desc.rhs(n=1)] == [0, F(1, 2)]


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


def test_corrupted_column_side_reports_the_smallest_failure():
    # the broken twin above with its right side as a column; then over m = 0, 1 with the
    # corruption at m = 1 only, so the failing run starts after a passing one
    def rhs(m, n):
        return [(harmonic(i) ** 2 - harmonic_order(i, 2)) / 2 + (F(1, 7) if i >= 3 and m else 0) for i in range(n + 1)]

    for grid, cases, smallest in [
        ({"n": range(1, 11)}, 10, {"n": 3}),
        ({"m": range(2), "n": range(1, 11)}, 20, {"m": 1, "n": 3}),
    ]:
        broken = IdentityDescriptor(
            id="corrupted_column_fixture",
            title="broken on purpose",
            anchor="sum_{k=1..n} H_{k-1}/k = (H_n^2 - H_n^(2))/2 + [n>=3]/7",
            grid=grid,
            lhs=lambda n, m=1: sum((harmonic(k - 1) / k for k in range(1, n + 1)), F(0)),
            rhs=lambda n, m=1: rhs(m, n),
        )
        report = verify_descriptor(broken)
        assert not report.passed
        assert report.cases == cases
        assert report.first_failure["binding"] == smallest
        lhs, rhs_value = F(report.first_failure["lhs"]), F(report.first_failure["rhs"])
        assert rhs_value - lhs == F(1, 7)


def test_an_int_side_and_a_fraction_side_compare_exactly_and_print_as_fractions():
    # each side's value is compared as it is, since Python compares int, Fraction, float and bool
    # exactly; the failure strings are those of the values' Fractions
    def entry(lhs, rhs):
        return IdentityDescriptor("mixed", "mixed", "mixed", {"n": range(0, 6)}, lhs, rhs)

    assert verify_descriptor(entry(lambda n: n * n, lambda n: F(n * n))).passed
    for lhs, rhs, strings in [
        (lambda n: n * n, lambda n: F(n * n) + (F(1, 3) if n == 4 else 0), ("16", "49/3")),
        (lambda n: F(-n, 3) * 3, lambda n: -n - (n == 4), ("-4", "-5")),
        (lambda n: 0.25 if n == 4 else F(n), lambda n: F(n), ("1/4", "4")),
        (lambda n: n == 4 or n, lambda n: F(n), ("1", "4")),
    ]:
        report = verify_descriptor(entry(lhs, rhs))
        assert report.cases == 6 and not report.passed
        assert report.first_failure == {"binding": {"n": 4}, "lhs": strings[0], "rhs": strings[1]}


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


def _shifted(x, n):
    # C(x, k+1) in place of C(x, k), for k = 0..n
    return rational.gen_binomial_column(x, n + 1)[1:]


@pytest.mark.parametrize("ident, lhs", [
    ("thm_kollar", lambda r, m, n: identities._running_sums(
        [(-1) ** k * c * w for k, (c, w) in enumerate(zip(_shifted(r - 1, n), identities._stirling_steps(n, m)))]
    )),
    ("thm_kollar_m1", lambda r, n: identities._running_sums(
        [F((-1) ** k, k + 1) * c for k, c in enumerate(_shifted(r - 1, n))]
    )),
    ("thm_kollar_m2", lambda r, n: identities._running_sums(
        [(-1) ** k * c * w for k, (c, w) in enumerate(zip(_shifted(r - 1, n), identities._harmonic_steps(n)))]
    )),
])
def test_a_kollar_side_that_reads_the_next_binomial_fails_verify(ident, lhs):
    desc = identities.get_identity(ident)
    assert verify_descriptor(desc).passed
    assert not verify_descriptor(replace(desc, lhs=lhs)).passed


def test_kollar_m2_integer_inner_sum_matches_the_fraction_loop():
    desc = identities.get_identity("thm_kollar_m2")
    for r in (*identities._KOLLAR_R, F(7, 3), F(-5)):
        assert desc.lhs(r=r, n=30) == [_kollar_m2_lhs_fraction_loop(r, n) for n in range(31)], r


# ---------------------------------------------------------------------------
# column sides and the independence of the two sides


def _is_column(desc, side):
    """Whether the side ``side`` of ``desc`` is a column side, by its value at the first grid point."""
    return isinstance(getattr(desc, side)(**next(desc.bindings())), list)


#: Every column side of the registry, as (id, side).
COLUMN_SIDES = sorted(
    (ident, side) for ident, desc in identities._REGISTRY.items() for side in ("lhs", "rhs") if _is_column(desc, side)
)


def _evaluate_side(desc, side, overrides=None):
    """Every value of one side of ``desc`` over its grid, a column side through the column protocol."""
    return [value for run in identities._runs(desc, overrides) for value in identities._evaluate(desc, side, run)]


def _stored():
    """What a call could change in each module-level value of identities: a container's contents, a cache's size."""
    return {
        name: copy.copy(value) if isinstance(value, (dict, list, set))
        else value.cache_info().currsize if hasattr(value, "cache_info") else value
        for name, value in vars(identities).items()
        if not name.startswith("__")
    }


@pytest.mark.parametrize("ident", sorted(identities._REGISTRY))
def test_no_memo_is_read_by_both_sides_of_an_identity(ident):
    # identities keeps no memo: evaluating both sides over the grid stores nothing in the module, so
    # no value that one side stores can be read by the other
    desc = identities.get_identity(ident)
    before = _stored()
    for side in ("lhs", "rhs"):
        _evaluate_side(desc, side)
    assert _stored() == before


def test_a_column_side_on_a_grid_with_n_first_gives_the_report_of_its_point_twin():
    # every run of the grid {"n": ..., "m": ...} is one binding; m = 1 corrupts the right side from n = 3 on
    def twins(corrupt):
        def column(n, m):
            return [(harmonic(i) ** 2 - harmonic_order(i, 2)) / 2 + (F(1, 7) if i >= 3 and m and corrupt else 0)
                    for i in range(n + 1)]

        def lhs(n, m):
            return sum((harmonic(k - 1) * F(1, k) for k in range(1, n + 1)), F(0))

        grid = {"n": range(1, 11), "m": range(2)}
        return [IdentityDescriptor("e", "e", "e", grid, lhs, rhs) for rhs in (lambda n, m: column(n, m)[n], column)]

    for corrupt, first_failure in [(False, None), (True, {"n": 3, "m": 1})]:
        point, column = (verify_descriptor(twin).to_json_dict() for twin in twins(corrupt))
        assert {**point, "elapsed_ms": None} == {**column, "elapsed_ms": None}
        assert column["cases"] == 20
        assert (column["first_failure"] or {}).get("binding") == first_failure


def _reference_report(desc, overrides=None):
    """The report of ``desc`` from one call of each side per grid point, walking ``desc.bindings`` in grid
    order; a column side's value at a point is its list's entry at that point's n."""
    cases, first_failure = 0, None
    for binding in desc.bindings(overrides):
        values = [getattr(desc, side)(**binding) for side in ("lhs", "rhs")]
        lhs, rhs = (value[binding["n"]] if isinstance(value, list) else value for value in values)
        cases += 1
        if lhs != rhs and first_failure is None:
            first_failure = {
                "binding": {k: v if isinstance(v, int) else str(v) for k, v in binding.items()},
                "lhs": str(F(lhs)),
                "rhs": str(F(rhs)),
            }
    return {"identity": desc.id, "anchor": desc.anchor, "cases": cases, "passed": first_failure is None,
            "first_failure": first_failure, "elapsed_ms": None}


_SMALL_FRACTIONS = st.fractions(-3, 3, max_denominator=4)


@st.composite
def _planted_entries(draw):
    """An entry over a random grid, with overrides, whose sides differ at a few planted points.

    The grid has integer and listed axes, maybe a joint (a, b) axis, and n last, first, in the middle or
    not at all.  Each side is a point side or, on a grid with n, a column side."""
    axes = []
    for name in draw(st.lists(st.sampled_from("mpr"), unique=True, max_size=2)):
        if draw(st.booleans()):
            start = draw(st.integers(0, 2))
            axes.append((name, range(start, start + draw(st.integers(1, 3)))))
        else:
            axes.append((name, tuple(draw(st.lists(_SMALL_FRACTIONS, min_size=1, max_size=3, unique=True)))))
    if draw(st.booleans()):
        pairs = draw(st.lists(st.tuples(_SMALL_FRACTIONS, _SMALL_FRACTIONS), min_size=1, max_size=3, unique=True))
        axes.insert(draw(st.integers(0, len(axes))), (("a", "b"), tuple(pairs)))
    has_n = draw(st.booleans())
    if has_n:
        start = draw(st.integers(0, 2))
        axes.insert(draw(st.integers(0, len(axes))), ("n", range(start, start + draw(st.integers(1, 6)))))
    if not axes:
        axes.append(("m", range(0, 2)))
    grid = dict(axes)
    overrides = {
        key: draw(st.integers(values.start - 2, values.start + 5), label=f"{key} bound")
        for key, values in grid.items()
        if isinstance(values, range) and draw(st.booleans(), label=f"bound {key}")
    }
    points = list(IdentityDescriptor("e", "e", "e", grid, None, None).bindings(overrides))
    planted = {}
    if points:
        for i in draw(st.sets(st.integers(0, len(points) - 1), max_size=3), label="planted"):
            planted[frozenset(points[i].items())] = draw(st.sampled_from(["lhs", "rhs"]), label="planted side")
    kinds = {side: has_n and draw(st.booleans(), label=f"{side} is a column") for side in ("lhs", "rhs")}
    return grid, overrides, planted, kinds


def _planted_side(side, planted, column):
    """A side whose value at a binding is a sum over its values, plus 1/7 at the points planted on it."""
    def value(binding):
        offset = F(1, 7) if planted.get(frozenset(binding.items())) == side else 0
        return sum((F(v) * (i + 2) for i, v in enumerate(binding.values())), F(1, 3)) + offset

    if column:
        return lambda **binding: [value({**binding, "n": i}) for i in range(binding["n"] + 1)]
    return lambda **binding: value(binding)


@settings(max_examples=150, deadline=None)
@given(_planted_entries())
@example(({"m": range(0, 3), "n": range(1, 6)}, {}, {frozenset({"m": 2, "n": 1}.items()): "rhs",
                                                      frozenset({"m": 1, "n": 4}.items()): "lhs"},
          {"lhs": True, "rhs": False}))  # n last: the failing run is not the first
@example(({"n": range(1, 6), "m": range(0, 3)}, {}, {frozenset({"n": 2, "m": 0}.items()): "rhs",
                                                      frozenset({"n": 1, "m": 2}.items()): "rhs"},
          {"lhs": True, "rhs": True}))  # n first: the first failure in grid order is at n = 1, not m = 0
@example(({"m": range(0, 2), "n": range(0, 4), ("a", "b"): ((F(1), F(-1, 2)), (F(0), F(1)))}, {"n": 5},
          {frozenset({"m": 1, "n": 5, "a": F(0), "b": F(1)}.items()): "lhs"},
          {"lhs": False, "rhs": True}))  # n in the middle, bounded past its grid
@example(({"r": (F(1, 2), F(-2)), "p": range(1, 3)}, {}, {frozenset({"r": F(-2), "p": 1}.items()): "rhs"},
          {"lhs": False, "rhs": False}))  # no n
@example(({"m": range(0, 2), "n": range(2, 5)}, {"n": 1}, {}, {"lhs": True, "rhs": False}))  # no n left
def test_run_level_verification_gives_the_report_of_one_point_at_a_time(entry):
    grid, overrides, planted, kinds = entry
    desc = IdentityDescriptor("planted", "planted", "planted", grid,
                              *(_planted_side(side, planted, kinds[side]) for side in ("lhs", "rhs")))
    engine = {**verify_descriptor(desc, overrides).to_json_dict(), "elapsed_ms": None}
    reference = _reference_report(desc, overrides)
    assert json.dumps(engine) == json.dumps(reference)  # key order too: the binding is in grid order
    assert engine["passed"] == (not planted)  # every planted point is on the grid


# The trace: every Python function each side calls, with every sequence
# table emptied first, so that a helper read by both sides
# shows as a function both sides call.  Both sides may call the sequence
# families with their table machinery, :mod:`multiharm.rational`, and the
# column driver; a sequence cross-check route, such as hyperharmonic_closed,
# is a helper like any other.

_MODULES = {module.__file__: module.__name__ for module in (identities, sequences, series, transforms, rational,
                                                           _kernels)}
_CROSS_CHECKS = {
    name
    for name, value in vars(sequences).items()
    if getattr(value, "__module__", None) == sequences.__name__ and not name.startswith("_")
    and name not in sequences.FAMILY_NAMES and not name.endswith("_column")
}


def _nested_codes(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield from _nested_codes(const)


_DRIVER = set(_nested_codes(identities._evaluate.__code__))


def _traced_calls(desc, side):
    """(module, code) of each function of multiharm that ``desc``'s side ``side`` calls over its grid."""
    runs = list(identities._runs(desc, None))
    sequences.clear_caches()
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for run in runs:
            list(identities._evaluate(desc, side, run))
    finally:
        sys.setprofile(None)
    return {(_MODULES[code.co_filename], code) for code in codes if code.co_filename in _MODULES}


def _allowed(module, code):
    if module == "multiharm.sequences":
        return code.co_name not in _CROSS_CHECKS
    return module == "multiharm.rational" or code in _DRIVER


def _side_calls(desc):
    """The traced calls of each side of ``desc``, by side."""
    return {side: _traced_calls(desc, side) for side in ("lhs", "rhs")}


def _route_overlap(calls):
    """The functions outside the allow-list that both sides call, and the sides that read series."""
    shared = {f"{module}.{code.co_name}" for module, code in calls["lhs"] & calls["rhs"] if not _allowed(module, code)}
    series_readers = {
        side for side, called in calls.items() if any(module in ("multiharm.series", "multiharm._kernels")
                                                      for module, _ in called)
    }
    return shared, series_readers


#: The helpers of each side's one form, which the other side never calls: the right sides' Cauchy
#: products and their factors, and the left sides' literal columns.
_RIGHT_ONLY = {"multiharm.transforms.cauchy_column", "multiharm.transforms.integer_form",
               "multiharm.identities._prefix_sums", "multiharm.identities._harmonic_tails",
               "multiharm.identities._kollar_right"}
_LEFT_ONLY = {"multiharm.transforms.binomial_sums", "multiharm.identities._products",
              "multiharm.identities._running_sums", "multiharm.transforms._numerators",
              "multiharm.identities._kollar_left"}


@pytest.mark.parametrize("ident", sorted(identities._REGISTRY))
def test_no_function_is_called_by_both_sides_of_an_identity(ident):
    calls = _side_calls(identities.get_identity(ident))
    shared, series_readers = _route_overlap(calls)
    assert not shared
    assert len(series_readers) < 2
    names = {side: {f"{module}.{code.co_name}" for module, code in called} for side, called in calls.items()}
    assert not names["lhs"] & _RIGHT_ONLY
    assert not names["rhs"] & _LEFT_ONLY


def test_a_side_that_calls_the_other_sides_helper_fails_the_trace():
    desc = identities.get_identity("thm_hyphar_m0")
    mutants = {
        # the running sums of the left side as a product with 1, 1, ...: the right side's helper
        "multiharm.transforms.cauchy_column": replace(desc, lhs=lambda p, n: transforms.cauchy_column(
            1, 1, (transforms.integer_form(identities._hyphar_weights(n, p)), ([1] * (n + 1), 1))
        )),
        # the right side as the left side's running sums, by the left side's helper
        "multiharm.identities._running_sums": replace(desc, rhs=lambda p, n: identities._running_sums(
            [binomial(k + p, k) * (harmonic(k + p) - harmonic(p)) for k in range(n + 1)]
        )),
        # a thm_kollar_m1 right side as its left side's alternating sums, by the left side's helper
        "multiharm.identities._kollar_left": replace(
            identities.get_identity("thm_kollar_m1"),
            rhs=lambda r, n: identities._kollar_left(r, n, [F(1, k + 1) for k in range(n + 1)]),
        ),
    }
    for helper, mutant in mutants.items():
        assert verify_descriptor(mutant).passed
        shared, _ = _route_overlap(_side_calls(mutant))
        assert helper in shared


def test_two_sides_that_read_series_fail_the_trace():
    desc = identities.get_identity("hn2_closed")
    mutant = replace(
        desc,
        lhs=lambda n: series.gf_harmonic_like(2, n)[n],
        rhs=lambda n: series.power_of_one_minus(1, 0, n)[0] * (harmonic(n) ** 2 - harmonic_order(n, 2)),
    )
    assert verify_descriptor(mutant).passed
    assert _route_overlap(_side_calls(mutant))[1] == {"lhs", "rhs"}


# ---------------------------------------------------------------------------
# the mutation matrix: a wrong value of any family fails at least one entry

#: The column read of each family that has one.
_FAMILY_COLUMNS = {"harmonic_like": "harmonic_like_column", "stirling1": "stirling1_column"}


@pytest.mark.parametrize("family, index", [
    # index 3 keeps the family alone as its id
    *(pytest.param(family, 3, id=family) for family in sequences.FAMILY_NAMES),
    # at 15 the hyperharmonic families fail one entry each; at 20 hyperharmonic_half would fail none
    *(pytest.param(family, 15, id=f"{family}-15") for family in sequences.FAMILY_NAMES),
])
def test_a_wrong_value_of_any_family_fails_an_entry(monkeypatch, family, index):
    # 1/1000 added at ``index``, on the grid of every entry that reads the
    # family, under every name a module reads it by, per index and by column
    def mutate(original, mutant):
        for module in (sequences, transforms, identities):
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, mutant)

    value = getattr(sequences, family)
    mutate(value, lambda n, *params: value(n, *params) + (F(1, 1000) if n == index else 0))
    if family in _FAMILY_COLUMNS:
        column = getattr(sequences, _FAMILY_COLUMNS[family])
        mutate(column, lambda n, j: [v + F(1, 1000) if i == index else v for i, v in enumerate(column(n, j))])
    assert any(not report.passed for report in verify_all())


def _cw(k, p):
    return F(binomial(2 * (k + p), k + p) * binomial(k + p, k), 4**k)


def _binomial_sum_reference(a, b, m, n):
    # sum_{j=0..m} C(m,j) sum_{k=0..n} HL(k,j) (a+b)^k ((m-j)!/(n-k)!) (-1)^(n-k) b^(n-k) s(n-k,m-j)
    return sum((
        binomial(m, j) * harmonic_like(k, j) * (a + b) ** k * F(factorial(m - j), factorial(n - k))
        * (-b) ** (n - k) * stirling1(n - k, m - j)
        for j in range(m + 1)
        for k in range(n + 1)
    ), F(0))


def _short_form_reference(a, b, n, lead, c, weight):
    # lead (a+b)^n + c sum_{k=1..n} (a+b)^(n-k) b^k weight(k) / k
    return lead * (a + b) ** n + c * sum(((a + b) ** (n - k) * b**k * weight(k) / k for k in range(1, n + 1)), F(0))


def _harmonic_tail(s):
    return sum((harmonic(s - l) / l for l in range(1, s + 1)), F(0))


#: Each column side next to the literal per-point sum it replaced (its former
#: form, kept as a reference), and the parameters it takes besides n.
FORMER = {
    ("main_id1", "rhs"): (_binomial_sum_reference, "abm"),
    ("remark_m1", "rhs"): (
        lambda a, b, n: harmonic(n) * (a + b) ** n
        - sum(((a + b) ** k * b ** (n - k) / (n - k) for k in range(n)), F(0)),
        "ab",
    ),
    ("cor_id4", "rhs"): (
        lambda a, b, n: _short_form_reference(
            a, b, n, harmonic_like(n, 2), 2, lambda k: harmonic(k - 1) - harmonic(n - k)
        ),
        "ab",
    ),
    ("cor_id5", "rhs"): (
        lambda a, b, n: _short_form_reference(
            a, b, n, harmonic_like(n, 3), -3,
            lambda k: harmonic(k - 1) ** 2 - harmonic_order(k - 1, 2) - 2 * harmonic(k - 1) * harmonic(n - k)
            + harmonic(n - k) ** 2 - harmonic_order(n - k, 2),
        ),
        "ab",
    ),
    ("cor_id3", "rhs"): (lambda m, n: _binomial_sum_reference(F(1), F(1), m, n), "m"),
    ("thm_kollar", "lhs"): (
        lambda r, m, n: sum((
            (-1) ** k
            * gen_binomial(r - 1, k)
            * F(
                sum(binomial(k, j - 1) * stirling1(j, m) * (factorial(k + 1) // factorial(j)) for j in range(m, k + 2)),
                factorial(k + 1),
            )
            for k in range(n + 1)
        ), F(0)),
        "rm",
    ),
    ("thm_kollar", "rhs"): (
        lambda r, m, n: (-1) ** n * gen_binomial(r - 1, n) * harmonic_like(n + 1, m) / factorial(m)
        - sum(((-1) ** k * gen_binomial(r, k) * harmonic_like(k, m) for k in range(n + 1)), F(0)) / factorial(m),
        "rm",
    ),
    ("thm_kollar_m1", "lhs"): (
        lambda r, n: sum((F((-1) ** k, k + 1) * gen_binomial(r - 1, k) for k in range(n + 1)), F(0)),
        "r",
    ),
    ("thm_kollar_m1", "rhs"): (
        lambda r, n: (-1) ** n * gen_binomial(r - 1, n) * harmonic(n + 1)
        - sum(((-1) ** k * gen_binomial(r, k) * harmonic(k) for k in range(n + 1)), F(0)),
        "r",
    ),
    ("thm_kollar_m2", "lhs"): (lambda r, n: _kollar_m2_lhs_fraction_loop(r, n), "r"),
    ("thm_kollar_m2", "rhs"): (
        lambda r, n: (-1) ** n * gen_binomial(r - 1, n) * (harmonic(n + 1) ** 2 - harmonic_order(n + 1, 2)) / 2
        - sum((
            (-1) ** k * gen_binomial(r, k) * (harmonic(k) ** 2 - harmonic_order(k, 2)) for k in range(n + 1)
        ), F(0))
        / 2,
        "r",
    ),
    ("hn3_double", "rhs"): (
        lambda n: sum((F(1, j) * _harmonic_tail(n - j) for j in range(1, n + 1)), F(0)),
        "",
    ),
    ("thm_o107dby", "lhs"): (
        lambda m, n: sum((
            harmonic(k)
            * F(
                sum(binomial(k - 1, j - 1) * stirling1(j, m) * (factorial(k) // factorial(j)) for j in range(m, k + 1)),
                factorial(k),
            )
            for k in range(1, n + 1)
        ), F(0)),
        "m",
    ),
    ("thm_o107dby_m2", "lhs"): (
        lambda n: 2
        * sum((
            harmonic(k) * sum(((-1) ** j * binomial(k - 1, j - 1) * harmonic(j - 1) / j for j in range(1, k + 1)), F(0))
            for k in range(1, n + 1)
        ), F(0)),
        "",
    ),
    ("thm_hnp1", "lhs"): (
        lambda m, n: sum((
            harmonic(k)
            * F(
                sum(
                    binomial(n - k, j - 1) * stirling1(j, m) * (factorial(n - k + 1) // factorial(j))
                    for j in range(m, n - k + 2)
                ),
                factorial(n - k + 1),
            )
            for k in range(1, n + 1)
        ), F(0)),
        "m",
    ),
    ("thm_hnp1_m2", "lhs"): (
        lambda n: sum((
            harmonic(k)
            * sum((
                binomial(n - k, j - 1) * (-1) ** j * harmonic(j - 1) / j for j in range(2, n - k + 2)
            ), F(0))
            for k in range(1, n + 1)
        ), F(0)),
        "",
    ),
    ("thm_hnp1_m2", "rhs"): (
        lambda n: F(1, 2) * sum((F(1, k) * _harmonic_tail(n + 1 - k) for k in range(1, n + 2)), F(0)),
        "",
    ),
    ("har_helper", "lhs"): (lambda p, n: sum((F(1, k * (k + p)) for k in range(1, n + 1)), F(0)), "p"),
    ("thm_kk1_m2", "rhs"): (
        lambda n: harmonic(n) ** 2
        - harmonic_order(n, 2)
        + sum((F(1, k) * _harmonic_tail(n - k) for k in range(1, n + 1)), F(0))
        - sum((F(1, k) * _harmonic_tail(n + 1 - k) for k in range(1, n + 2)), F(0)),
        "",
    ),
    ("thm_hyphar", "lhs"): (
        lambda m, p, n: sum((
            binomial(k + p, k) * harmonic_like(n - k, m) * (harmonic(k + p) - harmonic(p)) for k in range(n + 1)
        ), F(0)),
        "mp",
    ),
    ("thm_hyphar", "rhs"): (
        lambda m, p, n: sum((binomial(k + p, k) * harmonic_like(n - k, m + 1) for k in range(n + 1)), F(0)),
        "mp",
    ),
    ("thm_hyphar_m0", "lhs"): (
        lambda p, n: sum((binomial(k + p, k) * (harmonic(k + p) - harmonic(p)) for k in range(n + 1)), F(0)),
        "p",
    ),
    ("thm_hyphar_m0", "rhs"): (
        lambda p, n: sum((binomial(k + p, k) * harmonic(n - k) for k in range(n + 1)), F(0)),
        "p",
    ),
    ("thm_hyphar_m1", "lhs"): (
        lambda p, n: sum((
            binomial(k + p, k) * harmonic(n - k) * (harmonic(k + p) - harmonic(p)) for k in range(n + 1)
        ), F(0)),
        "p",
    ),
    ("thm_hyphar_m1", "rhs"): (
        lambda p, n: sum((
            binomial(k + p, k) * (harmonic(n - k) ** 2 - harmonic_order(n - k, 2)) for k in range(n + 1)
        ), F(0)),
        "p",
    ),
    ("thm_suzj3to", "lhs"): (
        lambda p, n: sum((_cw(k, p) * (odd_harmonic(k + p) - odd_harmonic(p)) for k in range(1, n + 1)), F(0)),
        "p",
    ),
    ("thm_odd_id1", "rhs"): (
        lambda m, n: sum((binomial(2 * k, k) * harmonic_like(n - k, m + 1) / 4**k for k in range(n + 1)), F(0)) / 2,
        "m",
    ),
    ("thm_odd_id1_m0", "rhs"): (
        lambda n: sum((binomial(2 * k, k) * harmonic(n - k) / 4**k for k in range(n + 1)), F(0)) / 2,
        "",
    ),
    ("thm_odd_id1_m1", "rhs"): (
        lambda n: sum((
            binomial(2 * k, k) * (harmonic(n - k) ** 2 - harmonic_order(n - k, 2)) / 4**k for k in range(n + 1)
        ), F(0))
        / 2,
        "",
    ),
    ("thm_general_p", "lhs"): (
        lambda m, p, n: sum((
            _cw(k, p) * harmonic_like(n - k, m) * (odd_harmonic(k + p) - odd_harmonic(p)) for k in range(n + 1)
        ), F(0)),
        "mp",
    ),
    ("thm_general_p", "rhs"): (
        lambda m, p, n: sum((_cw(k, p) * harmonic_like(n - k, m + 1) for k in range(n + 1)), F(0)) / 2,
        "mp",
    ),
    ("thm_xld8bhi", "lhs"): (lambda p, n: sum((k * hyperharmonic(k, p) for k in range(1, n + 1)), F(0)), "p"),
    ("thm_k_weighted_half", "lhs"): (
        lambda p, n: sum((
            k * _cw(k, p) * (odd_harmonic(k + p) - odd_harmonic(p)) for k in range(1, n + 1)
        ), F(0)),
        "p",
    ),
    ("thm_yycg1tg", "lhs"): (
        lambda p, n: sum((
            F(binomial(2 * (k + p), k + p) * binomial(k + p, k), binomial(2 * k, k))
            * (odd_harmonic(k + p) - odd_harmonic(k))
            for k in range(1, n + 1)
        ), F(0)),
        "p",
    ),
    # the right sides that were point sums
    ("classical_Hk", "rhs"): (
        lambda n: 2**n * (harmonic(n) - sum((F(1, 2**k * k) for k in range(1, n + 1)), F(0))),
        "",
    ),
    ("ex_Hk2_2n", "rhs"): (
        lambda n: 2**n
        * (
            harmonic_like(n, 2)
            + 2 * sum(((harmonic(k - 1) - harmonic(n - k)) * F(1, 2**k * k) for k in range(1, n + 1)), F(0))
        ),
        "",
    ),
    ("ex_2k_alt", "rhs"): (
        lambda n: harmonic_like(n, 2)
        + 2 * sum(((-1) ** k * (harmonic(k - 1) - harmonic(n - k)) * F(1, k) for k in range(1, n + 1)), F(0)),
        "",
    ),
    ("ex_3n", "rhs"): (
        lambda n: 3**n
        * (
            harmonic_like(n, 2)
            + 2 * sum(((harmonic(k - 1) - harmonic(n - k)) * F(1, 3**k * k) for k in range(1, n + 1)), F(0))
        ),
        "",
    ),
    ("fib_Hk2", "rhs"): (
        lambda n: harmonic_like(n, 2) * fibonacci(2 * n)
        + 2 * sum((
            fibonacci(2 * (n - k)) * (harmonic(k - 1) - harmonic(n - k)) * F(1, k) for k in range(1, n + 1)
        ), F(0)),
        "",
    ),
    ("lucas_Hk2", "rhs"): (
        lambda n: harmonic_like(n, 2) * lucas(2 * n)
        + 2 * sum((lucas(2 * (n - k)) * (harmonic(k - 1) - harmonic(n - k)) * F(1, k) for k in range(1, n + 1)), F(0)),
        "",
    ),
    ("fib_alt_Hk2", "rhs"): (
        lambda n: harmonic_like(n, 2) * fibonacci(n)
        + 2 * sum((fibonacci(n - k) * (harmonic(k - 1) - harmonic(n - k)) * F(1, k) for k in range(1, n + 1)), F(0)),
        "",
    ),
    ("lucas_alt_Hk2", "rhs"): (
        lambda n: harmonic_like(n, 2) * lucas(n)
        + 2 * sum((lucas(n - k) * (harmonic(k - 1) - harmonic(n - k)) * F(1, k) for k in range(1, n + 1)), F(0)),
        "",
    ),
    ("warmup_fib_harmonic", "rhs"): (
        lambda n: harmonic(n) * fibonacci(n + 2) - sum((F(fibonacci(k + 1), k) for k in range(1, n + 1)), F(0)),
        "",
    ),
    ("thm_o107dby", "rhs"): (
        lambda m, n: (
            harmonic_like(n, m) * harmonic(n) - sum((harmonic_like(k - 1, m) * F(1, k) for k in range(1, n + 1)), F(0))
        )
        / factorial(m),
        "m",
    ),
    ("thm_o107dby_m2", "rhs"): (
        lambda n: harmonic(n) ** 3
        - harmonic_order(n, 2) * harmonic(n)
        - sum(((harmonic(k - 1) ** 2 - harmonic_order(k - 1, 2)) * F(1, k) for k in range(1, n + 1)), F(0)),
        "",
    ),
    # the literal binomial sums
    ("main_id1", "lhs"): (lambda a, b, m, n: transforms.binomial_sum_direct(a, b, m, n), "abm"),
    ("remark_m1", "lhs"): (lambda a, b, n: transforms.binomial_sum_direct(a, b, 1, n), "ab"),
    ("cor_id4", "lhs"): (lambda a, b, n: transforms.binomial_sum_direct(a, b, 2, n), "ab"),
    ("cor_id5", "lhs"): (lambda a, b, n: transforms.binomial_sum_direct(a, b, 3, n), "ab"),
    # the binomial transforms
    ("cor_id1", "lhs"): (
        lambda m, n: sum(((-1) ** k * binomial(n, k) * harmonic_like(k, m) for k in range(n + 1)), F(0)),
        "m",
    ),
    ("cor_id2", "lhs"): (
        lambda m, n: F(
            sum(binomial(n, k) * stirling1(k, m) * (factorial(n) // factorial(k)) for k in range(m, n + 1)),
            factorial(n),
        ),
        "m",
    ),
    ("cor_id3", "lhs"): (lambda m, n: sum((binomial(n, k) * harmonic_like(k, m) for k in range(n + 1)), F(0)), "m"),
    ("classical_Hk", "lhs"): (lambda n: sum((binomial(n, k) * harmonic(k) for k in range(n + 1)), F(0)), ""),
    ("ex_Hk2_2n", "lhs"): (lambda n: sum((binomial(n, k) * harmonic_like(k, 2) for k in range(n + 1)), F(0)), ""),
    ("ex_alt_Hk2", "lhs"): (
        lambda n: sum(((-1) ** k * binomial(n, k) * harmonic_like(k, 2) for k in range(n + 1)), F(0)),
        "",
    ),
    ("ex_alt_Hk2sq", "lhs"): (
        lambda n: sum(((-1) ** k * binomial(n, k) * harmonic_order(k, 2) for k in range(n + 1)), F(0)),
        "",
    ),
    ("ex_alt_Hksq", "lhs"): (
        lambda n: sum(((-1) ** k * binomial(n, k) * harmonic(k) ** 2 for k in range(n + 1)), F(0)),
        "",
    ),
    ("ex_inv_HkOverK", "lhs"): (
        lambda n: sum(((-1) ** (k + 1) * binomial(n, k) * harmonic(k) * F(1, k) for k in range(1, n + 1)), F(0)),
        "",
    ),
    ("ex_2k_alt", "lhs"): (
        lambda n: sum((binomial(n, k) * 2**k * (-1) ** (n - k) * harmonic_like(k, 2) for k in range(n + 1)), F(0)),
        "",
    ),
    ("ex_3n", "lhs"): (lambda n: sum((binomial(n, k) * 2**k * harmonic_like(k, 2) for k in range(n + 1)), F(0)), ""),
    ("fib_Hk2", "lhs"): (
        lambda n: sum((binomial(n, k) * fibonacci(k) * harmonic_like(k, 2) for k in range(n + 1)), F(0)),
        "",
    ),
    ("lucas_Hk2", "lhs"): (
        lambda n: sum((binomial(n, k) * lucas(k) * harmonic_like(k, 2) for k in range(n + 1)), F(0)),
        "",
    ),
    ("fib_alt_Hk2", "lhs"): (
        lambda n: sum((
            (-1) ** (k + 1) * binomial(n, k) * fibonacci(k) * harmonic_like(k, 2) for k in range(n + 1)
        ), F(0)),
        "",
    ),
    ("lucas_alt_Hk2", "lhs"): (
        lambda n: sum(((-1) ** k * binomial(n, k) * lucas(k) * harmonic_like(k, 2) for k in range(n + 1)), F(0)),
        "",
    ),
    # the convolutions
    ("thm_general_p_m0", "lhs"): (lambda p, n: sum((_cw(k, p) * harmonic(n - k) for k in range(n + 1)), F(0)), "p"),
    ("tb6ik5l", "lhs"): (
        lambda n: sum((binomial(2 * k, k) * F(1, 4**k) * harmonic(n - k) for k in range(n + 1)), F(0)),
        "",
    ),
    ("thm_odd_id1", "lhs"): (
        lambda m, n: sum((
            binomial(2 * k, k) * F(1, 4**k) * odd_harmonic(k) * harmonic_like(n - k, m) for k in range(n + 1)
        ), F(0)),
        "m",
    ),
    ("thm_odd_id1_m1", "lhs"): (
        lambda n: sum((
            binomial(2 * k, k) * F(1, 4**k) * odd_harmonic(k) * harmonic(n - k) for k in range(n + 1)
        ), F(0)),
        "",
    ),
    ("thm_kk1", "lhs"): (
        lambda m, n: sum((harmonic_like(n - k, m) * F(1, k * (k + 1)) for k in range(1, n + 1)), F(0)),
        "m",
    ),
    ("thm_kk1_m1", "lhs"): (
        lambda n: sum((harmonic(n - k) * F(1, k * (k + 1)) for k in range(1, n + 1)), F(0)),
        "",
    ),
    ("thm_kk1_m2", "lhs"): (
        lambda n: sum((
            (harmonic(n - k) ** 2 - harmonic_order(n - k, 2)) * F(1, k * (k + 1)) for k in range(1, n + 1)
        ), F(0)),
        "",
    ),
    ("thm_hnp1_m1", "lhs"): (lambda n: sum((harmonic(k) * F(1, n - k + 1) for k in range(1, n + 1)), F(0)), ""),
    # the running sums
    ("oklok93", "lhs"): (
        lambda n: sum((binomial(2 * k, k) * F(1, 4**k) * odd_harmonic(k) for k in range(1, n + 1)), F(0)),
        "",
    ),
    ("thm_odd_id1_m0", "lhs"): (
        lambda n: sum((binomial(2 * k, k) * F(1, 4**k) * odd_harmonic(k) for k in range(n + 1)), F(0)),
        "",
    ),
    ("har_example_p0", "lhs"): (
        lambda n: sum((harmonic(k) * F(1, k * (k + 1)) for k in range(1, n + 1)), F(0)),
        "",
    ),
    ("har_example_p_pos", "lhs"): (
        lambda p, n: sum((harmonic(k + p) * F(1, k * (k + 1)) for k in range(1, n + 1)), F(0)),
        "p",
    ),
    ("warmup_Hprev_over_k", "lhs"): (lambda n: sum((harmonic(k - 1) * F(1, k) for k in range(1, n + 1)), F(0)), ""),
    ("warmup_sum_Hk", "lhs"): (lambda n: sum((harmonic(k) for k in range(1, n + 1)), F(0)), ""),
    ("warmup_fib_harmonic", "lhs"): (lambda n: sum((harmonic(k) * fibonacci(k) for k in range(1, n + 1)), F(0)), ""),
    ("thm_o107dby_m1", "lhs"): (lambda n: sum((harmonic(k) * F(1, k) for k in range(1, n + 1)), F(0)), ""),
    ("thm_k_weighted_half_p0", "lhs"): (
        lambda n: sum((k * binomial(2 * k, k) * F(1, 4**k) * odd_harmonic(k) for k in range(1, n + 1)), F(0)),
        "",
    ),
}

#: Parameters off the registry grids: any small rational r, a and b, m and p past their ranges.
_RATIONAL = st.fractions(-4, 4, max_denominator=9)
OFF_GRID = {
    "r": _RATIONAL,
    "a": _RATIONAL,
    "b": _RATIONAL,
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


def test_former_is_exactly_the_column_sides():
    assert set(COLUMN_SIDES) == set(FORMER)


@pytest.mark.parametrize("ident, side", sorted(FORMER), ids=[f"{ident}-{side}" for ident, side in sorted(FORMER)])
@settings(max_examples=12, deadline=None)
@given(data=st.data(), queries=N_QUERIES, cold=st.booleans())
def test_a_side_with_memos_equals_its_former_sum(ident, side, data, queries, cold):
    """Every column side equals the literal per-point sum it replaced."""
    former, names = FORMER[ident, side]
    params = {name: data.draw(OFF_GRID[name], label=name) for name in names}
    column = getattr(identities.get_identity(ident), side)
    if cold:
        sequences.clear_caches()
    for n in queries:
        values = column(**params, n=n)
        assert len(values) == n + 1
        assert values[n] == former(**params, n=n), n


@pytest.mark.parametrize("ident, side", COLUMN_SIDES, ids=[f"{ident}-{side}" for ident, side in COLUMN_SIDES])
@settings(max_examples=10, deadline=None)
@given(data=st.data(), top=st.integers(0, 45))
def test_a_column_side_extends_its_shorter_columns(ident, side, data, top):
    params = {name: data.draw(OFF_GRID[name], label=name) for name in FORMER[ident, side][1]}
    column = getattr(identities.get_identity(ident), side)
    full = column(**params, n=top)
    n = data.draw(st.integers(0, top), label="n")
    assert full[: n + 1] == column(**params, n=n)


def test_threads_verifying_identities_with_memos_give_the_serial_reports():
    ids = sorted({ident for ident, _ in FORMER})
    sequences.clear_caches()
    serial = _untimed([verify_identity(ident) for ident in ids])
    sequences.clear_caches()
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


def test_running_sums_read_while_every_memo_is_cleared_stay_exact():
    # the running sums of thm_kollar, both sides columns, read while the tables they read are emptied
    kollar = identities.get_identity("thm_kollar")
    reads = [(side, {**fixed, "n": ns[-1]}) for side in (kollar.lhs, kollar.rhs)
             for fixed, ns in identities._runs(kollar, None)]
    sequences.clear_caches()
    serial = [side(**binding) for side, binding in reads]
    sequences.clear_caches()

    def reader(seed):
        order = random.Random(seed).sample(range(len(reads)), len(reads))
        return [i for i in order if reads[i][0](**reads[i][1]) != serial[i]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside reads, growth and clears
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            readers = [pool.submit(reader, seed) for seed in range(4)]
            while not all(future.done() for future in readers):
                sequences.clear_caches()
            assert [future.result(timeout=120) for future in readers] == [[]] * 4
    finally:
        sys.setswitchinterval(interval)


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


def test_a_raising_column_side_on_a_workers_share_raises_the_serial_exception(monkeypatch, forks, capfd):
    def lhs(n):
        forks.mark()
        return [F(i, n - 3) for i in range(n + 1)]  # raises at the run's top, n = 3

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
