from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from multiharm import identities
from multiharm.identities import (
    IdentityDescriptor,
    UnknownIdentityError,
    registry_catalog,
    registry_tags,
    verify_all,
    verify_descriptor,
    verify_identity,
)
from multiharm.sequences import harmonic, harmonic_order

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
