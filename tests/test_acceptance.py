"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All equality checks are bit-exact over arbitrary-precision rationals;
tolerance is zero everywhere.  Run with ``pytest -v -s tests/test_acceptance.py``
to see the one-line verdicts.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from multiharm import cli
from multiharm.identities import (
    registry_catalog,
    verify_all,
    verify_identity,
)
from multiharm.rational import binomial, factorial
from multiharm.sequences import (
    harmonic,
    harmonic_like,
    harmonic_like_bruteforce,
    harmonic_like_convolution,
    hyperharmonic_half,
    hyperharmonic_half_via_binomial,
    odd_harmonic,
    stirling1,
)
from multiharm.series import gf_harmonic_like, gf_odd_central, gf_stirling_column
from multiharm.transforms import (
    AB_FIXTURES,
    binomial_sum_closed,
    binomial_sum_direct,
    binomial_sum_m1,
    binomial_sum_m2,
    binomial_sum_m3,
)

F = Fraction


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


def test_criterion_1_bruteforce_oracle_equivalence():
    with criterion(1, "recurrence equals brute-force composition sum for n + m <= 16"):
        start = time.perf_counter()
        checked = 0
        for m in range(1, 16):
            for n in range(0, 17 - m):
                assert harmonic_like(n, m) == harmonic_like_bruteforce(n, m), (n, m)
                assert harmonic_like_convolution(n, m) == harmonic_like(n, m), (n, m)
                checked += 1
        elapsed = time.perf_counter() - start
        assert checked == 135  # pairs with m >= 1, n >= 0, n + m <= 16
        assert elapsed < 10.0, f"took {elapsed:.1f}s (limit 10s)"


def test_criterion_2_generating_function_cross_checks():
    with criterion(2, "GF coefficients match recurrences (harmonic-like, Stirling, odd-central)"):
        start = time.perf_counter()
        for m in range(6):
            gf = gf_harmonic_like(m, 60)
            for n in range(61):
                assert gf[n] == harmonic_like(n, m), (n, m)
            assert harmonic_like_convolution(60, m) == harmonic_like(60, m), m
        t_hlike = time.perf_counter() - start
        assert t_hlike < 5.0, f"harmonic-like GF took {t_hlike:.1f}s (limit 5s)"

        start = time.perf_counter()
        for k in range(7):
            gf = gf_stirling_column(k, 40)
            for n in range(41):
                assert factorial(n) * gf[n] == stirling1(n, k), (n, k)
        t_stirling = time.perf_counter() - start
        assert t_stirling < 5.0, f"Stirling GF took {t_stirling:.1f}s (limit 5s)"

        start = time.perf_counter()
        gf = gf_odd_central(40)
        for n in range(41):
            assert gf[n] == binomial(2 * n, n) * odd_harmonic(n), n
        t_odd = time.perf_counter() - start
        assert t_odd < 5.0, f"odd-central GF took {t_odd:.1f}s (limit 5s)"


def test_criterion_3_closed_form_equals_direct_sum():
    with criterion(3, "closed form equals direct sum on the 8-pair grid, m <= 4, n <= 25"):
        start = time.perf_counter()
        report = verify_identity("main_id1")
        elapsed = time.perf_counter() - start
        assert report.passed, report.first_failure
        assert report.cases == 8 * 5 * 26 == 1040
        assert elapsed < 30.0, f"took {elapsed:.1f}s (limit 30s)"


def test_criterion_4_specializations_and_spot_values():
    with criterion(4, "m=1/2/3 routes match the closed form; printed spot values reproduced"):
        for a, b in AB_FIXTURES:
            for n in range(26):
                assert binomial_sum_m1(a, b, n) == binomial_sum_closed(a, b, 1, n), (a, b, n)
                assert binomial_sum_m2(a, b, n) == binomial_sum_closed(a, b, 2, n), (a, b, n)
                assert binomial_sum_m3(a, b, n) == binomial_sum_closed(a, b, 3, n), (a, b, n)

        # spot: alternating m=2 sum at n = 3 equals (2/n) H_{n-1} = 1
        assert binomial_sum_direct(-1, 1, 2, 3) == F(2, 3) * harmonic(2) == 1
        # spot: alternating transform of HL(., m) at (n, m) = (3, 2)
        lhs = sum(
            ((-1) ** k * binomial(3, k) * harmonic_like(k, 2) for k in range(4)), F(0)
        )
        rhs = (-1) ** 3 * F(factorial(2), factorial(3)) * stirling1(3, 2)
        assert lhs == rhs == 1
        # spot: plain transform of H_k at n = 2
        direct = sum((binomial(2, k) * harmonic(k) for k in range(3)), F(0))
        closed = 2**2 * (harmonic(2) - sum((F(1, 2**k * k) for k in (1, 2)), F(0)))
        assert direct == closed == F(7, 2)


def test_criterion_5_full_registry_passes(tmp_path):
    with criterion(5, "full identity registry (>= 45 entries) passes; CLI verify exits 0"):
        assert len(registry_catalog()) >= 45
        start = time.perf_counter()
        reports = verify_all()
        elapsed = time.perf_counter() - start
        bad = [r.identity for r in reports if not r.passed]
        assert not bad, f"failed identities: {bad}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s (limit 60s)"
        out = tmp_path / "reports.json"
        assert cli.main(["verify", "--output", str(out)]) == 0
        parsed = json.loads(out.read_text())
        assert len(parsed) == len(reports)
        assert all(r["passed"] for r in parsed)


#: Registry entries that state a telescoped sum in closed form: the harmonic,
#: reciprocal, generalized-binomial (Kollar) and index-weighted collapses.
TELESCOPED_IDS = (
    "warmup_Hprev_over_k", "thm_o107dby_m1", "warmup_sum_Hk", "warmup_fib_harmonic",
    "har_example_p0", "har_example_p_pos",
    "thm_kollar_m1", "thm_kollar_m2",
    "thm_xld8bhi",
)


def test_criterion_6_telescoping_combinators():
    with criterion(6, "telescoped closed forms are registry entries and pass"):
        for identity_id in TELESCOPED_IDS:
            report = verify_identity(identity_id)
            assert report.passed, (identity_id, report.first_failure)
            assert report.cases > 0, identity_id


def test_criterion_7_half_integer_machinery():
    with criterion(7, "half-integer hyperharmonic routes agree; partial-sum identities hold"):
        for r in range(16):
            for p in range(16):
                assert hyperharmonic_half(r, p) == hyperharmonic_half_via_binomial(r, p), (r, p)

        # spot value at n = 1: both sides are 1/2
        lhs = odd_harmonic(1) * binomial(2, 1) / F(4)
        rhs = F(2, 8) * binomial(4, 2) * (odd_harmonic(2) - 1)
        assert lhs == rhs == F(1, 2)

        report = verify_identity("thm_suzj3to", {"n": 20, "p": 20})
        assert report.passed, report.first_failure
        assert report.cases == 21 * 21


#: SHA-256 of ``multiharm verify`` stdout with every ``"elapsed_ms":`` line removed.
VERIFY_STDOUT_SHA256 = "d3f69e002107ed76e3502b2ed39dc07bee85960f2b75375e4769a9dd4376017a"


def test_criterion_8_verify_output_is_deterministic(capsys):
    with criterion(8, "consecutive verify runs are byte-identical apart from elapsed_ms"):
        assert cli.main(["verify"]) in (0,)
        first = capsys.readouterr().out
        assert cli.main(["verify"]) in (0,)
        second = capsys.readouterr().out
        normalize = lambda text: re.sub(r'"elapsed_ms": [0-9.]+', '"elapsed_ms": _', text)
        assert normalize(first) == normalize(second)
        # the printed bytes themselves are pinned, not only their repeatability
        untimed = "".join(line for line in first.splitlines(keepends=True) if '"elapsed_ms":' not in line)
        assert hashlib.sha256(untimed.encode()).hexdigest() == VERIFY_STDOUT_SHA256
        assert first != ""  # sanity: something was emitted
        for report in json.loads(first):
            assert report["passed"] is True


def test_criterion_8_the_program_prints_the_pinned_bytes():
    with criterion(8, "the program's verify, on every usable CPU, prints the pinned bytes"):
        src = Path(cli.__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        done = subprocess.run([sys.executable, "-m", "multiharm.cli", "verify"], env=env,
                              capture_output=True, text=True, timeout=300)
        assert (done.returncode, done.stderr) == (0, "")
        untimed = "".join(
            line for line in done.stdout.splitlines(keepends=True) if '"elapsed_ms":' not in line
        )
        assert hashlib.sha256(untimed.encode()).hexdigest() == VERIFY_STDOUT_SHA256
