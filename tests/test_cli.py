import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from multiharm import cli, identities, sequences, series, transforms
from multiharm.identities import IdentityDescriptor
from multiharm.sequences import SeqSpec


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_seq_harmonic_like_exact_table(capsys):
    code, out = run(capsys, "seq", "--family", "harmonic_like", "--m", "2", "--n", "5")
    assert code == 0
    assert out == "n,value\n0,0\n1,0\n2,1\n3,2\n4,35/12\n5,15/4\n"


def test_seq_stirling_table(capsys):
    code, out = run(capsys, "seq", "--family", "stirling1", "--k", "2", "--n", "5")
    assert code == 0
    assert out.endswith("5,-50\n")


def test_seq_rejects_bad_parameters(capsys):
    code, _ = run(capsys, "seq", "--family", "harmonic_like", "--m", "-1", "--n", "3")
    assert code == 2
    code, _ = run(capsys, "seq", "--family", "stirling1", "--n", "3")
    assert code == 2
    code, _ = run(capsys, "seq", "--family", "no_such", "--n", "3")
    assert code == 2


def test_seq_csv_and_json_share_rational_strings(capsys):
    code, csv_out = run(capsys, "seq", "--family", "harmonic", "--n", "6")
    assert code == 0
    code, json_out = run(capsys, "seq", "--family", "harmonic", "--n", "6", "--format", "json")
    assert code == 0
    csv_values = [line.split(",")[1] for line in csv_out.strip().splitlines()[1:]]
    json_values = [row["value"] for row in json.loads(json_out)]
    assert csv_values == json_values


def test_seq_decimal_adds_a_column_without_replacing_exact(capsys):
    code, out = run(capsys, "seq", "--family", "harmonic", "--n", "2", "--decimal", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,value,approx"
    assert lines[3].startswith("2,3/2,1.5")


def test_decimal_at_the_ceiling_is_accepted(capsys):
    code, out = run(capsys, "seq", "--family", "harmonic", "--n", "3", "--decimal", str(cli.DECIMAL_MAX))
    assert code == 0
    assert out.splitlines()[-1] == "3,11/6,1." + "8" + "3" * (cli.DECIMAL_MAX - 2)


def test_decimal_below_one_is_a_usage_error(capsys, monkeypatch):
    # above DECIMAL_MAX: an OverflowError and a MemoryError traceback before the
    # ceiling; the refusal must come before any Decimal work
    monkeypatch.setattr(cli, "_approx", lambda value, digits: pytest.fail("Decimal work ran"))
    for argv in (("seq", "--family", "harmonic", "--n", "2"),
                 ("transform", "--family", "harmonic", "--n", "2")):
        for digits in ("0", "-1", str(cli.DECIMAL_MAX + 1), "99999999999999999999", "1000000000000"):
            code = cli.main([*argv, "--decimal", digits])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert "--decimal must be >= 1" in captured.err


def test_seq_hyperharmonic_high_order(capsys):
    code, out = run(capsys, "seq", "--family", "hyperharmonic", "--p", "1200", "--n", "3")
    assert code == 0
    assert out.splitlines()[-1] == "3,2163601/3"


def test_verify_single_identity_with_bounds(capsys):
    code, out = run(capsys, "verify", "--id", "cor_id1", "--n-max", "10", "--m-max", "3")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1
    report = reports[0]
    assert report["identity"] == "cor_id1"
    assert report["cases"] == 44
    assert report["passed"] is True
    assert report["first_failure"] is None
    assert set(report) == {"identity", "anchor", "cases", "passed", "first_failure", "elapsed_ms"}


def test_verify_unknown_id_is_usage_error(capsys):
    code, _ = run(capsys, "verify", "--id", "no_such")
    assert code == 2


def test_verify_unknown_tag_is_usage_error(capsys):
    # a run that checks nothing must not report a pass
    code = cli.main(["verify", "--tag", "no_such_tag"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "no identity carries tag 'no_such_tag'" in captured.err


def test_verify_empty_grid_is_usage_error(capsys):
    code = cli.main(["verify", "--id", "cor_id1", "--n-max", "-5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "no cases to check for: cor_id1" in captured.err
    # one vacuous identity among checked ones is refused too
    code = cli.main(["verify", "--tag", "section1", "--n-max", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "no cases to check for" in captured.err


def test_verify_bound_on_a_missing_axis_is_usage_error(capsys):
    # cor_id1 has no p axis, so --p-max would bound nothing
    code = cli.main(["verify", "--id", "cor_id1", "--p-max", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "no integer axis p to bound in cor_id1" in captured.err


@pytest.mark.parametrize("option", ["--p-max", "--m-max"])
def test_verify_tag_bound_on_an_axis_no_tagged_identity_has_is_usage_error(capsys, option):
    # no section1 identity has a p or an m axis: the bound would be ignored
    code = cli.main(["verify", "--tag", "section1", option, "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"no integer axis {option[2]} to bound in tag 'section1'" in captured.err


def test_verify_tag_filter(capsys):
    code, out = run(capsys, "verify", "--tag", "section1")
    assert code == 0
    reports = json.loads(out)
    assert reports and all(r["passed"] for r in reports)


def test_verify_section4_tag(capsys):
    code, out = run(capsys, "verify", "--tag", "section4")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) >= 20
    assert all(r["passed"] for r in reports)


def test_verify_failure_sets_exit_one(capsys, monkeypatch):
    broken = IdentityDescriptor(
        id="zz_broken_fixture",
        title="broken on purpose",
        anchor="n = n + 1",
        grid={"n": range(1, 6)},
        lhs=lambda n: Fraction(n),
        rhs=lambda n: Fraction(n + 1),
    )
    monkeypatch.setitem(identities._REGISTRY, broken.id, broken)
    code, out = run(capsys, "verify", "--id", "zz_broken_fixture")
    assert code == 1
    report = json.loads(out)[0]
    assert report["passed"] is False
    assert report["first_failure"]["binding"] == {"n": 1}


def test_gf_check_harmonic_like(capsys):
    code, out = run(capsys, "gf-check", "--family", "harmonic_like", "--m", "3", "--order", "40")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,recurrence_value,gf_value,equal"
    assert len(lines) == 42
    assert all(line.endswith(",true") for line in lines[1:])


def test_gf_check_odd_central(capsys):
    code, out = run(capsys, "gf-check", "--family", "odd_central", "--order", "30")
    assert code == 0
    assert ",false" not in out


def test_gf_check_rejects_unsupported_family(capsys):
    code, _ = run(capsys, "gf-check", "--family", "fibonacci", "--order", "5")
    assert code == 2


def test_transform_binomial_sum_rows(capsys):
    code, out = run(capsys, "transform", "--a", "1", "--b", "1", "--m", "1", "--n", "2")
    assert code == 0
    assert out == "n,value\n2,7/2\n"
    code, out = run(capsys, "transform", "--a", "-1", "--b", "1", "--m", "2", "--n", "3")
    assert code == 0
    assert out == "n,value\n3,1\n"
    code, out = run(capsys, "transform", "--a", "0", "--b", "0", "--m", "0", "--n", "0")
    assert code == 0
    assert out == "n,value\n0,1\n"


def test_transform_family_mode(capsys):
    code, out = run(capsys, "transform", "--family", "harmonic", "--n", "3", "--signed")
    assert code == 0
    assert out == "n,value\n0,0\n1,-1\n2,-1/2\n3,-1/3\n"


@pytest.mark.parametrize("signed", [pytest.param((), id="unsigned"), pytest.param(("--signed",), id="signed")])
def test_transform_family_sums_its_rows_as_one_column(capsys, monkeypatch, signed):
    # one column for all n + 1 rows, not one sum per row
    calls = []
    binomial_sums = transforms.binomial_sums

    def counted(*args):
        calls.append(args)
        return binomial_sums(*args)

    monkeypatch.setattr(transforms, "binomial_sums", counted)
    code, out = run(capsys, "transform", "--family", "odd_harmonic", "--n", "40", *signed)
    assert code == 0
    assert out.count("\n") == 42
    assert len(calls) == 1


def test_transform_rejects_mixed_modes(capsys):
    code, _ = run(capsys, "transform", "--family", "harmonic", "--a", "1", "--b", "1", "--n", "2")
    assert code == 2
    code, _ = run(capsys, "transform", "--n", "2")
    assert code == 2
    code, _ = run(capsys, "transform", "--a", "1", "--n", "2")
    assert code == 2


def test_transform_rejects_bad_rational(capsys):
    code, _ = run(capsys, "transform", "--a", "x", "--b", "1", "--n", "2")
    assert code == 2


def test_output_file_and_output_dir_env(tmp_path, monkeypatch, capsys):
    target = tmp_path / "direct.csv"
    code, out = run(capsys, "seq", "--family", "harmonic", "--n", "3", "--output", str(target))
    assert code == 0 and out == ""
    assert target.read_text().endswith("3,11/6\n")

    monkeypatch.setenv("MULTIHARM_OUTPUT_DIR", str(tmp_path / "sub"))
    code, _ = run(capsys, "seq", "--family", "harmonic", "--n", "3", "--output", "rel.csv")
    assert code == 0
    assert (tmp_path / "sub" / "rel.csv").read_text() == target.read_text()


@pytest.mark.parametrize("command", [
    ["seq", "--family", "harmonic", "--n", "3"],
    ["verify", "--id", "cor_id1", "--n-max", "3"],
])
def test_unwritable_output_is_exit_two(tmp_path, capsys, command):
    # the parent of the output path is a regular file, so it cannot be created
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = cli.main(command + ["--output", str(blocker / "x.csv")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_usage_error_exit_code(capsys):
    assert cli.main(["seq"]) == 2  # missing required flags
    capsys.readouterr()
    assert cli.main([]) == 2
    capsys.readouterr()


def test_verify_output_is_deterministic(capsys):
    strip = lambda text: re.sub(r'"elapsed_ms": [0-9.]+', '"elapsed_ms": X', text)
    code1, out1 = run(capsys, "verify", "--tag", "section1")
    code2, out2 = run(capsys, "verify", "--tag", "section1")
    assert code1 == code2 == 0
    assert strip(out1) == strip(out2)


#: One valid command per subcommand mode; every option the parser declares on
#: that subcommand is added to it in turn.
BASE_COMMANDS = {
    "seq": ["seq", "--family", "harmonic_like", "--m", "2", "--n", "3"],
    "verify": ["verify", "--id", "thm_hyphar", "--n-max", "3"],
    "gf-check": ["gf-check", "--family", "harmonic_like", "--m", "2", "--order", "3"],
    "gf-check odd_central": ["gf-check", "--family", "odd_central", "--order", "3"],
    "transform --family": ["transform", "--family", "harmonic_like", "--m", "2", "--n", "3"],
    "transform --a/--b": ["transform", "--a", "1/2", "--b", "1/3", "--m", "2", "--n", "3"],
}

#: A value for each option, different from any the base commands use.
OPTION_VALUES = {
    "--family": ["harmonic"], "--n": ["4"], "--order": ["4"], "--m": ["1"], "--k": ["1"],
    "--p": ["2"], "--r": ["2"], "--format": ["json"], "--decimal": ["5"], "--signed": [],
    "--a": ["1"], "--b": ["2"], "--id": ["cor_id1"], "--tag": ["section1"],
    "--n-max": ["2"], "--m-max": ["1"], "--p-max": ["1"], "--output": None,
}


def _declared_options():
    parser = cli.build_parser()
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for mode, base in BASE_COMMANDS.items():
        for action in subcommands.choices[base[0]]._actions:
            if action.option_strings and action.dest != "help":
                yield pytest.param(base, action.option_strings[0], id=f"{mode} {action.option_strings[0]}")


@pytest.mark.parametrize("base, option", _declared_options())
def test_every_declared_option_changes_the_output_or_exits_two(tmp_path, capsys, base, option):
    strip = lambda text: re.sub(r'"elapsed_ms": [0-9.]+', '"elapsed_ms": X', text)
    code, out = run(capsys, *base)
    assert code == 0
    values = OPTION_VALUES[option]
    if values is None:
        values = [str(tmp_path / "out.txt")]
    code_with, out_with = run(capsys, *base, option, *values)
    assert code_with == 2 or (code_with == 0 and strip(out_with) != strip(out))


@pytest.mark.parametrize("b", [["--b", "-1/3"], ["--b=-1/3"]])
def test_negative_fraction_spellings_are_equivalent(capsys, b):
    code, out = run(capsys, "transform", "--a", "1/2", *b, "--m", "3", "--n", "9")
    assert code == 0
    assert out == "n,value\n9,3421/34836480\n"


@contextlib.contextmanager
def no_digit_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_exact_output_has_no_digit_ceiling(tmp_path, capsys):
    # F_21000 has 4389 digits, past CPython's default 4300-digit str() guard
    target = tmp_path / "fib.csv"
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, _ = run(capsys, "seq", "--family", "fibonacci", "--n", "21000", "--output", str(target))
    assert code == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit  # restored
    a, b = 0, 1
    for _ in range(21000):
        a, b = b, a + b
    with no_digit_limit():
        expected = f"21000,{a}"
    assert target.read_text().splitlines()[-1] == expected


def test_verify_mismatch_of_huge_values_exits_one(capsys, monkeypatch):
    huge = IdentityDescriptor(
        id="zz_huge_fixture",
        title="a mismatch past the 4300-digit str() guard",
        anchor="10^5000 = 10^5000 + n",
        grid={"n": range(1, 3)},
        lhs=lambda n: 10**5000,
        rhs=lambda n: 10**5000 + n,
    )
    monkeypatch.setitem(identities._REGISTRY, huge.id, huge)
    code, out = run(capsys, "verify", "--id", "zz_huge_fixture")
    assert code == 1
    failure = json.loads(out)[0]["first_failure"]
    assert failure["lhs"] == "1" + "0" * 5000
    assert failure["rhs"] == "1" + "0" * 4999 + "1"


@pytest.mark.parametrize("command", [
    # math.comb in rational.binomial: min(n - k, k) must not exceed 2**63 - 1
    ["seq", "--family", "hyperharmonic_half", "--p", "99999999999999999999", "--n", "1"],
])
def test_overflow_error_exits_two(capsys, command):
    code = cli.main(command)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", [
    # one table level per unit of p, before index n is read
    ["seq", "--family", "hyperharmonic", "--p", "99999999999999999999", "--n", "2"],
    ["gf-check", "--family", "hyperharmonic", "--p", "99999999999999999999", "--order", "2"],
    # terms 1/k^r with r times the digits of k, each addition's gcd about r^2: (n+1)*r^2 over TABLE_CEILING
    ["seq", "--family", "harmonic_order", "--r", "99999999999999999999", "--n", "2"],
    ["seq", "--family", "harmonic_order", "--r", "3900", "--n", "250"],
    ["transform", "--family", "harmonic_order", "--r", "3900", "--n", "250"],
    # (n+1)^2 m = 7.5e10 over HARMONIC_LIKE_CEILING; r + p over HALF_CEILING
    ["seq", "--family", "harmonic_like", "--m", "3000", "--n", "5000"],
    ["seq", "--family", "hyperharmonic_half", "--p", "1000000", "--n", "1000"],
    # (n+1)^2 times w = p or r over SIZE_CEILING: these tables would take tens of GB
    ["seq", "--family", "hyperharmonic", "--p", "3", "--n", "333332"],
    ["seq", "--family", "harmonic_order", "--r", "2", "--n", "499999"],
    # m = 0 still grows level 0, and weighs as m = 1; binomial-sum mode defaults to m = 0
    ["seq", "--family", "harmonic_like", "--m", "0", "--n", "100000000"],
    ["transform", "--a", "1", "--b", "1", "--n", "20000"],
    # within the size rule, but the rows of transform --family would sum (n+1)^2 = 4 * 10^8 terms
    ["transform", "--family", "harmonic", "--n", "20000"],
])
def test_table_ceiling_exits_two(capsys, memo_sizes, command):
    sequences.clear_caches()
    before = memo_sizes()
    code = cli.main(command)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "exceeds the ceiling" in captured.err
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert memo_sizes() == before  # refused before any table grew


@pytest.mark.parametrize("command", [
    ["seq", "--family", "hyperharmonic", "--p", "10", "--n", "20"],
    ["transform", "--family", "hyperharmonic", "--p", "10", "--n", "20"],
    ["gf-check", "--family", "hyperharmonic", "--p", "10", "--order", "20"],
    ["seq", "--family", "harmonic_order", "--r", "3", "--n", "40"],
])
def test_table_ceiling_refuses_before_the_first_row(capsys, monkeypatch, memo_sizes, command):
    # rows 0..8 (or 0..10 for harmonic_order, (n+1)*r^2) are under the ceiling; the last index is not
    monkeypatch.setattr(sequences, "TABLE_CEILING", 100)
    for name in ("gf_harmonic_like", "gf_stirling_column", "gf_hyperharmonic", "gf_odd_central"):
        monkeypatch.setattr(series, name, lambda *args: pytest.fail("a generating function was built"))
    sequences.clear_caches()
    before = memo_sizes()
    code = cli.main(command)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "exceeds the ceiling of 100 " in captured.err
    assert memo_sizes() == before


@pytest.mark.parametrize("command", [
    # (n+1)^2 m = 1323 at n = 20, m = 3; rows 0..17 are under the ceiling of 1000
    ["seq", "--family", "harmonic_like", "--m", "3", "--n", "20"],
    ["transform", "--family", "harmonic_like", "--m", "3", "--n", "20"],
    ["transform", "--a", "1", "--b", "1", "--m", "3", "--n", "20"],
    ["gf-check", "--family", "harmonic_like", "--m", "3", "--order", "20"],
    # r + p = 30 at the last row; rows 0..15 are under the ceiling of 25
    ["seq", "--family", "hyperharmonic_half", "--p", "10", "--n", "20"],
    ["transform", "--family", "hyperharmonic_half", "--p", "10", "--n", "20"],
])
def test_family_ceilings_refuse_before_the_first_row(capsys, monkeypatch, command):
    monkeypatch.setattr(sequences, "HARMONIC_LIKE_CEILING", 1000)
    monkeypatch.setattr(sequences, "HALF_CEILING", 25)
    monkeypatch.setattr(series, "gf_harmonic_like", lambda *args: pytest.fail("a generating function was built"))
    sequences.clear_caches()
    code = cli.main(command)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert re.fullmatch(r"error: .* exceeds the ceiling of (1000|25) at .*\n", captured.err)
    # neither the harmonic-like nor the odd harmonic table grew
    assert [len(level) for level in sequences._hlike.levels] == [1]
    assert [len(level) for level in sequences._odd_harmonic.levels] == [1]


def test_seq_help_names_the_family_ceilings(capsys, monkeypatch):
    monkeypatch.setattr(sequences, "HARMONIC_LIKE_CEILING", 8765)
    monkeypatch.setattr(sequences, "HALF_CEILING", 432)
    monkeypatch.setattr(sequences, "SIZE_CEILING", 2109)
    assert cli.main(["seq", "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "(n+1)^2*max(m,1) > 8765" in help_text
    assert "hyperharmonic_half refuses r+p > 432" in help_text
    assert ("refused if (n+1)^2*w > 2109, where w is 1 for harmonic, odd_harmonic, half_harmonic_offset, "
            "fibonacci and lucas; r for harmonic_order; p for hyperharmonic;") in help_text
    # no ceiling bounds the output, and str() of a big integer is quadratic in its digits
    n_help = re.search(r" --n N (last index .*?)(?= --|$)", help_text)[1]
    assert n_help.endswith("; printing time grows faster than the output's size (decimal conversion is quadratic)")
    assert cli.main(["transform", "--help"]) == 0
    assert "refused if (n+1)^2*w > 2109" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("command", [
    # (n+1)^2 is about 10^10, over SIZE_CEILING: the table would take gigabytes
    ["seq", "--family", "harmonic", "--n", "100000"],
    ["seq", "--family", "odd_harmonic", "--n", "100000"],
    ["seq", "--family", "half_harmonic_offset", "--n", "100000"],
    ["seq", "--family", "fibonacci", "--n", "100000"],
    ["seq", "--family", "lucas", "--n", "100000"],
    ["seq", "--family", "harmonic_order", "--r", "1", "--n", "100000"],
    ["transform", "--family", "harmonic", "--n", "100000"],
])
def test_one_index_ceiling_exits_two_at_once(capsys, memo_sizes, command):
    sequences.clear_caches()
    before = memo_sizes()
    code = cli.main(command)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    if "harmonic_order" in command:  # the same rule, with w = r = 1
        assert captured.err == f"error: (n+1)^2*r exceeds the ceiling of {sequences.SIZE_CEILING} at n=100000, r=1\n"
    else:
        assert captured.err == f"error: (n+1)^2 exceeds the ceiling of {sequences.SIZE_CEILING} at n=100000\n"
    assert memo_sizes() == before  # refused before the first row


@pytest.mark.parametrize("command", [
    ["seq", "--family", "harmonic", "--n", "-1"],
    ["transform", "--family", "harmonic", "--n", "-1"],
    ["transform", "--a", "1", "--b", "1", "--n", "-1"],
    ["gf-check", "--family", "harmonic_like", "--m", "1", "--order", "-1"],
    ["gf-check", "--family", "odd_central", "--order", "-1"],
])
def test_negative_index_is_refused_by_the_library(capsys, command):
    code = cli.main(command)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    option = command[-2].removeprefix("--")  # each command names its own option
    assert captured.err == f"error: {option} must be >= 0, got -1\n"


def test_seq_help_names_the_table_ceiling(capsys, monkeypatch):
    assert cli.main(["seq", "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"(n+1)*p > {sequences.TABLE_CEILING}" in help_text
    assert f"(n+1)*r^2 > {sequences.TABLE_CEILING}" in help_text
    # read when the parser is built, not when the module is imported
    monkeypatch.setattr(sequences, "TABLE_CEILING", 4321)
    assert cli.main(["seq", "--help"]) == 0
    assert "(n+1)*p > 4321" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("ceiling, option, query", [
    ("HARMONIC_LIKE_CEILING", "--m", lambda: sequences.harmonic_like(20, 3)),
    ("TABLE_CEILING", "--p", lambda: sequences.hyperharmonic(20, 10)),
    ("HALF_CEILING", "--p", lambda: sequences.hyperharmonic_half(20, 10)),
    ("TABLE_CEILING", "--r", lambda: sequences.harmonic_order(20, 10)),
])
def test_help_states_each_ceiling_as_its_refusal_does(capsys, monkeypatch, ceiling, option, query):
    monkeypatch.setattr(sequences, ceiling, 29)
    with pytest.raises(sequences.FeasibilityError) as refusal:
        query()
    formula = re.fullmatch(r"(.+) exceeds the ceiling of 29 at .+", str(refusal.value))[1]
    assert cli.main(["seq", "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    line = re.search(rf" {option} {option[2:].upper()} (.*?)(?= --|$)", help_text)[1]
    assert f"{formula} > 29" in line


def test_memory_error_exits_two(capsys, monkeypatch):
    def exhausted(m, order):
        raise MemoryError

    monkeypatch.setattr(series, "gf_harmonic_like", exhausted)
    code = cli.main(["gf-check", "--family", "harmonic_like", "--m", "4", "--order", "200"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"


#: The six deep tables CI checks, with the sha256 of each one's stdout.  The
#: last two are the largest orders under ``GF_WORK_CEILING``.
DEEP_GF_CHECKS = {
    "harmonic_like --m 4 --order 200": "b333056533082030add6df749c33c912e506aa87271085538c4ce9d16be3ab72",
    "stirling1 --k 3 --order 400": "cc99c40f9545523a34526dec46204636ca7d71c039f8ce2b940158e2ac914382",
    "hyperharmonic --p 20 --order 200": "9d24af92225d28e1df02a3eb0ab7e30b9b913c1420ee8044bf7f672e13cc7a16",
    "odd_central --order 300": "66e88c4cc0418e62786697919544e3595c610acfa33e1f80d84a93bc95bd119d",
    "odd_central --order 999": "88dcd1706ca3051e4ff2eec2a95e5a54fdf5f79774e9dfc9e2c3824017cc9eab",
    "stirling1 --k 3 --order 576": "abb292cd673fd386a2fa4842c9e73fcef74f1a6dcbcd835d547af80d698c6b72",
}


#: Four dense ``seq`` tables, with the sha256 of each one's stdout.
SEQ_TABLES = {
    "harmonic_like --m 4 --n 300": "295c317fff070b3aedb4a2722f4cb0ea30fd365af8a7d9241e70a2346fdf7758",
    "hyperharmonic --p 20 --n 300": "fa1b1e03fc49e2c2b50967d05a3435bcfa8d1121dc1c5394fbea6ee9db5f6692",
    "harmonic --n 500": "cecc8d962461c596fe27f46ad99eaf6f126e3549465e37ce9ddbd990f99e685b",
    "hyperharmonic_half --p 2000 --n 2000": "6d953c699c7f3e21df1dba3037503356acbe0508386a0c9983421e3e2af879ec",
}


@pytest.mark.parametrize("options", list(SEQ_TABLES))
def test_dense_seq_output_is_pinned(capsys, options):
    sequences.clear_caches()
    code, out = run(capsys, "seq", "--family", *options.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SEQ_TABLES[options]


@pytest.mark.parametrize("options", list(DEEP_GF_CHECKS))
def test_deep_gf_check_output_is_pinned(capsys, options):
    # both sides moving together would still print "true" on every row
    code, out = run(capsys, "gf-check", "--family", *options.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DEEP_GF_CHECKS[options]


@pytest.mark.parametrize("command, power", [
    (["gf-check", "--family", "harmonic_like", "--m", "4", "--order", "5"], 4),
    (["gf-check", "--family", "stirling1", "--k", "2", "--order", "7"], 2),
    (["gf-check", "--family", "hyperharmonic", "--p", "3", "--order", "6"], 3),
    (["gf-check", "--family", "odd_central", "--order", "10"], 1),
    (["gf-check", "--family", "harmonic_like", "--m", "0", "--order", "10"], 1),
    # a power past the order is capped at order + 1
    (["gf-check", "--family", "stirling1", "--k", "1000", "--order", "4"], 5),
])
def test_gf_work_ceiling_refuses_before_either_side(capsys, monkeypatch, command, power):
    monkeypatch.setattr(cli, "GF_WORK_CEILING", 100)
    for name in ("gf_harmonic_like", "gf_stirling_column", "gf_hyperharmonic", "gf_odd_central"):
        monkeypatch.setattr(series, name, lambda *args: pytest.fail("a generating function was built"))
    monkeypatch.setattr(SeqSpec, "evaluate", lambda *args: pytest.fail("a sequence value was computed"))
    code = cli.main(command)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    order = int(command[-1])
    assert captured.err == (
        f"error: (order+1)^2*{power} exceeds the ceiling of 100 at order={order}\n"
    )


@pytest.mark.parametrize("command", [
    ["gf-check", "--family", "harmonic_like", "--m", "4", "--order", "4"],
    ["gf-check", "--family", "odd_central", "--order", "9"],
    ["gf-check", "--family", "stirling1", "--k", "1000", "--order", "3"],
])
def test_gf_work_ceiling_accepts_up_to_the_ceiling(capsys, monkeypatch, command):
    monkeypatch.setattr(cli, "GF_WORK_CEILING", 100)
    code, out = run(capsys, *command)
    assert code == 0
    assert out.count(",true\n") == int(command[-1]) + 1


@pytest.mark.parametrize("options", [
    *DEEP_GF_CHECKS,  # CI, and the four of the deep_tables benchmark
    "harmonic_like --m 3 --order 40",  # the README examples
    "odd_central --order 30",
])
def test_gf_work_ceiling_accepts_every_documented_order(options):
    family, *rest = options.split()
    values = dict(zip(rest[::2], map(int, rest[1::2])))
    order = values.pop("--order")
    cli._check_gf_work(order, {key[2:]: value for key, value in values.items()})


def test_gf_check_help_names_the_work_ceiling(capsys, monkeypatch):
    monkeypatch.setattr(cli, "GF_WORK_CEILING", 4321)
    assert cli.main(["gf-check", "--help"]) == 0
    assert "exceeds 4321" in " ".join(capsys.readouterr().out.split())


def test_transform_work_ceiling_admits_up_to_the_ceiling_and_is_in_the_help(capsys, monkeypatch):
    monkeypatch.setattr(cli, "TRANSFORM_WORK_CEILING", 100)
    code, out = run(capsys, "transform", "--family", "fibonacci", "--n", "9")
    assert code == 0
    assert out.count("\n") == 11
    assert cli.main(["transform", "--family", "fibonacci", "--n", "10"]) == 2
    assert capsys.readouterr() == ("", "error: (n+1)^2 exceeds the ceiling of 100 at n=10\n")
    # binomial-sum mode sums one row and has no such ceiling
    assert run(capsys, "transform", "--a", "1", "--b", "1", "--n", "10")[0] == 0
    assert cli.main(["transform", "--help"]) == 0
    assert "--family mode is also refused if (n+1)^2 > 100" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("k", ["1000000", "99999999999999999999"])
def test_gf_check_stirling_column_past_the_order_is_zero(capsys, k):
    # ln(1+z)^k starts at z^k: no power of the log and no k! is built
    code, out = run(capsys, "gf-check", "--family", "stirling1", "--k", k, "--order", "2")
    assert code == 0
    assert out == "n,recurrence_value,gf_value,equal\n0,0,0,true\n1,0,0,true\n2,0,0,true\n"


def test_gf_check_odd_central_takes_no_parameter(capsys):
    code = cli.main(["gf-check", "--family", "odd_central", "--m", "1", "--order", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: family 'odd_harmonic' does not take: m\n"


class WriteRecorder(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def test_json_is_written_one_item_at_a_time_with_json_dumps_bytes(monkeypatch):
    for items in ([], [{"n": 0, "value": "1/2"}], [{"n": 0}, {"n": 1, "value": "-3"}]):
        assert "".join(cli._json_chunks(iter(items))) == json.dumps(items, indent=2) + "\n"
    out = WriteRecorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(["seq", "--family", "harmonic", "--n", "3", "--format", "json"]) == 0
    assert len(out.writes) == 5  # four items and the closing bracket, never one whole text
    rows = [{"n": n, "value": v} for n, v in enumerate(["0", "1", "3/2", "11/6"])]
    assert out.getvalue() == json.dumps(rows, indent=2) + "\n"


def test_decimal_column_is_computed_as_each_row_is_written(monkeypatch):
    # the whole approximate column once set peak memory for long tables
    out = WriteRecorder()
    monkeypatch.setattr(sys, "stdout", out)
    writes_before = []
    approx = cli._approx

    def recording_approx(value, digits):
        writes_before.append(len(out.writes))
        return approx(value, digits)

    monkeypatch.setattr(cli, "_approx", recording_approx)
    for fmt in ("csv", "json"):
        out.writes.clear()
        writes_before.clear()
        assert cli.main(["seq", "--family", "harmonic", "--n", "3", "--format", fmt, "--decimal", "5"]) == 0
        # CSV writes its header first; JSON writes each item with its opening separator
        assert writes_before == ([1, 2, 3, 4] if fmt == "csv" else [0, 1, 2, 3])


def test_decimal_leaves_the_exact_cells_byte_identical(capsys):
    for fmt in ("csv", "json"):
        code, plain = run(capsys, "seq", "--family", "harmonic", "--n", "4", "--format", fmt)
        assert code == 0
        code, approx = run(capsys, "seq", "--family", "harmonic", "--n", "4", "--format", fmt, "--decimal", "3")
        assert code == 0
        if fmt == "csv":
            assert approx == "n,value,approx\n0,0,0\n1,1,1\n2,3/2,1.5\n3,11/6,1.83\n4,25/12,2.08\n"
            assert "".join(line.rsplit(",", 1)[0] + "\n" for line in approx.splitlines()) == plain
        else:
            rows = json.loads(approx)
            assert [row.pop("approx") for row in rows] == ["0", "1", "1.5", "1.83", "2.08"]
            assert json.dumps(rows, indent=2) + "\n" == plain


def test_unexpected_exception_in_gf_check_exits_three(capsys, monkeypatch):
    def broken(m, order):
        raise RuntimeError("boom")

    monkeypatch.setattr(series, "gf_harmonic_like", broken)
    code = cli.main(["gf-check", "--family", "harmonic_like", "--m", "2", "--order", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: internal error: RuntimeError: boom\n"


def test_unexpected_exception_in_an_identity_side_exits_three(capsys, monkeypatch):
    # neither an identity failure (1) nor a refusal of the input (2)
    broken = IdentityDescriptor(
        id="zz_raising_fixture",
        title="a side that raises",
        anchor="1/0 = n",
        grid={"n": range(1, 3)},
        lhs=lambda n: Fraction(1, 0),
        rhs=lambda n: Fraction(n),
    )
    monkeypatch.setitem(identities._REGISTRY, broken.id, broken)
    code = cli.main(["verify", "--id", "zz_raising_fixture"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: internal error: ZeroDivisionError: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_only_the_program_entry_verifies_on_the_usable_cpus(capsys, monkeypatch):
    seen = []

    def recording(tag=None, overrides=None, *, jobs=1):
        seen.append(jobs)
        return []

    monkeypatch.setattr(identities, "verify_all", recording)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 5)
    assert cli.main(["verify"]) == 0  # in process, as tests and profilers call it
    monkeypatch.setattr(sys, "argv", ["multiharm", "verify"])
    assert cli.main() == 0  # the program
    assert seen == [1, 5]
    assert capsys.readouterr().out == "[]\n[]\n"


def test_usable_cpus_follow_the_affinity_mask_else_the_cpu_count(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert cli._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert cli._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._usable_cpus() == 1


@pytest.mark.parametrize("command", [
    # k = 2: (n+1)^2*(k+1)*bit_length(n) is 972 at n = 8 and 6615 at n = 20
    ["seq", "--family", "stirling1", "--k", "2", "--n", "20"],
    ["transform", "--family", "stirling1", "--k", "2", "--n", "20"],
    ["gf-check", "--family", "stirling1", "--k", "2", "--order", "20"],
])
def test_stirling_ceiling_refuses_before_the_first_row(capsys, monkeypatch, command):
    monkeypatch.setattr(sequences, "SIZE_CEILING", 1000)
    monkeypatch.setattr(series, "gf_stirling_column", lambda *args: pytest.fail("a generating function was built"))
    sequences.clear_caches()
    sizes = [len(level) for level in sequences._stirling.levels]
    code = cli.main(command)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert re.fullmatch(r"error: .* exceeds the ceiling of 1000 at n=20, k=2\n", captured.err)
    assert [len(level) for level in sequences._stirling.levels] == sizes
    assert run(capsys, "seq", "--family", "stirling1", "--k", "2", "--n", "8")[0] == 0


def test_seq_help_names_the_stirling_ceiling(capsys, monkeypatch):
    monkeypatch.setattr(sequences, "SIZE_CEILING", 97531)
    assert cli.main(["seq", "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "refused if (n+1)^2*w > 97531" in help_text
    assert "(k+1)*bit_length(n) for stirling1 with k <= n" in help_text


def _fresh_python(*args):
    """Run a fresh interpreter that imports this checkout's ``multiharm``."""
    src = Path(cli.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)


def test_importing_the_cli_loads_no_pickle_signal_or_process_pool_module():
    # the forked verify imports signal itself, and its workers send their reports back by the
    # builtin marshal, so no command loads pickle; loading signal or a pool on import would add
    # to the start-up time and memory of every run.  Only verify reads the identity registry and
    # the dataclasses (with inspect) it is built on.
    for module in ("multiharm.cli", "multiharm.sequences"):
        probe = (
            f"import sys, {module}; "
            "print(sorted({'pickle', 'signal', 'multiprocessing', 'concurrent.futures', 'dataclasses', "
            "'inspect', 'multiharm.identities'} & set(sys.modules)))"
        )
        done = _fresh_python("-c", probe)
        assert (module, done.returncode, done.stdout, done.stderr) == (module, 0, "[]\n", "")


def test_a_forked_verify_run_through_the_program_loads_no_pickle():
    # a selection of several identities, on two usable CPUs, forks a worker; the reports come back by marshal
    probe = "\n".join([
        "import contextlib, io, json, os, sys",
        "from multiharm import cli",
        "forks, fork = [], os.fork",
        "os.fork = lambda: forks.append(None) or fork()",
        "cli._usable_cpus = lambda: 2",
        "sys.argv = ['multiharm', 'verify', '--tag', 'section1']",
        "with contextlib.redirect_stdout(io.StringIO()) as out:",
        "    code = cli.main()",
        "print(code, len(forks), len(json.loads(out.getvalue())), 'pickle' in sys.modules)",
    ])
    done = _fresh_python("-c", probe)
    assert (done.returncode, done.stdout, done.stderr) == (0, "0 1 4 False\n", "")


@pytest.mark.parametrize("command, loads_registry", [
    ("seq --family harmonic --n 10", False),
    ("transform --a 1 --b 1 --n 10", False),
    ("gf-check --family harmonic_like --m 2 --order 10", False),
    ("verify --id cor_id1", True),
])
def test_only_verify_imports_the_identity_registry(command, loads_registry):
    done = _fresh_python("-X", "importtime", "-m", "multiharm.cli", *command.split())
    imported = {line.rsplit("|", 1)[1].strip()
                for line in done.stderr.splitlines() if line.startswith("import time:")}
    assert done.returncode == 0 and done.stdout
    assert ("multiharm.identities" in imported) is loads_registry
    # the registry is built on dataclasses, which no other command loads
    assert ("dataclasses" in imported) is loads_registry
