"""The three benchmark workloads and the checks on their outputs.

Nothing here imports multiharm at module level, so run.py can load this
file without the package under test; every workload function imports what
it needs when it runs.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

WORKLOADS = ("verify_cli", "deep_tables", "seq_growth")

#: The registry's own grid: ``multiharm verify`` must report exactly this.
VERIFY_REPORTS = 67
VERIFY_CASES = 7721

#: deep_tables blocks: (name, size).  Each compares a recurrence route with
#: its generating function coefficient by coefficient on 0..size.
DEEP_BLOCKS = (
    ("harmonic_like", 200),  # m = 4
    ("stirling1", 400),  # k = 3
    ("hyperharmonic", 200),  # p = 20, also against hyperharmonic_closed
    ("odd_central", 300),
)

#: seq_growth: largest index, index step range, read-backs per step.
SEQ_N_MAX = 320
SEQ_STEP = (1, 6)
SEQ_READBACKS = 20
SEQ_PARAMS = (
    ("harmonic_like", "m", 1, 4),
    ("stirling1", "k", 1, 4),
    ("hyperharmonic", "p", 1, 30),
    ("harmonic_order", "r", 2, 4),
)


# ---------------------------------------------------------------------------
# reference computation


#: Which reference computation each workload's times are divided by.
REFERENCE_KIND = {"verify_cli": "small", "deep_tables": "big", "seq_growth": "big"}


def reference_work(kind: str) -> int:
    """Fixed exact arithmetic that runs no multiharm code.

    Its wall time, taken between passes, is the unit of the end-to-end time
    metrics.  The machine's speed drifts by tens of percent over minutes; the
    ratio of a pass to a computation of the same kind drifts far less.
    ``small`` is many additions of small fractions, like the identity
    evaluators of ``verify_cli``.  ``big`` is a harmonic sum whose
    denominators grow to thousands of digits, like the memo-table fills of
    ``deep_tables`` and ``seq_growth``.  Returns a checksum of the result.
    """
    total = Fraction(0)
    if kind == "small":
        for k in range(1, 110000):
            total += Fraction(k % 13 + 1, k % 7 + 1)
    elif kind == "big":
        for k in range(1, 20000):
            total += Fraction(1, k)
    else:
        raise ValueError(f"unknown reference kind {kind!r}")
    return total.denominator.bit_length() + total.numerator % 1000


# ---------------------------------------------------------------------------
# verify_cli


def normalise_verify_output(text: str) -> str:
    """``multiharm verify`` stdout without its timing lines."""
    return "".join(
        line for line in text.splitlines(keepends=True) if '"elapsed_ms":' not in line
    )


def verify_output_problem(text: str, reports: int = VERIFY_REPORTS, cases: int = VERIFY_CASES):
    """None if ``text`` is a complete all-pass verify report, else the reason."""
    try:
        parsed = json.loads(text)
    except ValueError:
        return "stdout is not JSON"
    if len(parsed) != reports:
        return f"{len(parsed)} reports, expected {reports}"
    total = sum(r["cases"] for r in parsed)
    if total != cases:
        return f"{total} cases, expected {cases}"
    failed = [r["identity"] for r in parsed if not r["passed"]]
    if failed:
        return f"identities failed: {', '.join(failed)}"
    return None


def run_verify_in_process(argv=("verify",)) -> tuple[int, str]:
    """``multiharm verify`` through ``cli.main`` with stdout captured."""
    import contextlib
    import io

    from multiharm import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# deep_tables


def deep_order(seed: int) -> list[str]:
    """Block order for ``seed``; the seed changes nothing else."""
    names = [name for name, _ in DEEP_BLOCKS]
    random.Random(seed).shuffle(names)
    return names


def deep_ops(scale: int = 1) -> int:
    """Coefficients compared by one deep_tables pass."""
    sizes = dict(DEEP_BLOCKS)
    return sum(
        (size // scale + 1) * (2 if name == "hyperharmonic" else 1)
        for name, size in sizes.items()
    )


def _deep_block(name: str, size: int) -> list[tuple[object, object]]:
    from multiharm import series
    from multiharm.rational import binomial, factorial
    from multiharm.sequences import (
        SeqSpec,
        hyperharmonic,
        hyperharmonic_closed,
        odd_harmonic,
        stirling1,
    )

    if name == "harmonic_like":
        spec = SeqSpec("harmonic_like", {"m": 4})
        gf = series.gf_harmonic_like(4, size)
        return [(Fraction(spec.evaluate(n)), gf[n]) for n in range(size + 1)]
    if name == "stirling1":
        gf = series.gf_stirling_column(3, size)
        return [(Fraction(stirling1(n, 3)), factorial(n) * gf[n]) for n in range(size + 1)]
    if name == "hyperharmonic":
        gf = series.gf_hyperharmonic(20, size)
        pairs = []
        for n in range(size + 1):
            value = hyperharmonic(n, 20)
            pairs.append((value, gf[n]))
            pairs.append((value, hyperharmonic_closed(n, 20)))
        return pairs
    if name == "odd_central":
        gf = series.gf_odd_central(size)
        return [(binomial(2 * n, n) * odd_harmonic(n), gf[n]) for n in range(size + 1)]
    raise ValueError(f"unknown deep_tables block {name!r}")


def run_deep_tables(order: list[str], scale: int = 1) -> tuple[int, int]:
    """One pass: (coefficients compared, coefficients that disagreed)."""
    sizes = dict(DEEP_BLOCKS)
    compared = mismatched = 0
    for name in order:
        for recurrence, gf in _deep_block(name, sizes[name] // scale):
            compared += 1
            mismatched += recurrence != gf
    return compared, mismatched


# ---------------------------------------------------------------------------
# seq_growth


def seq_stream(seed: int, n_max: int = SEQ_N_MAX) -> list[tuple[str, str, int, int]]:
    """Query stream (family, parameter name, parameter, index) for ``seed``.

    The index rises by a random step; at each step every family in
    :data:`SEQ_PARAMS` is queried once at the new index with a random
    parameter, then :data:`SEQ_READBACKS` earlier queries are repeated.
    """
    rng = random.Random(seed)
    stream: list[tuple[str, str, int, int]] = []
    asked: list[tuple[str, str, int, int]] = []
    n = 0
    while True:
        n += rng.randint(*SEQ_STEP)
        if n > n_max:
            return stream
        for family, key, lo, hi in SEQ_PARAMS:
            query = (family, key, rng.randint(lo, hi), n)
            stream.append(query)
            asked.append(query)
        stream.extend(rng.choice(asked) for _ in range(SEQ_READBACKS))


def run_seq_growth(stream) -> list[object]:
    """Answer every query in order through ``SeqSpec(...).evaluate``."""
    from multiharm.sequences import SeqSpec

    return [SeqSpec(family, {key: param}).evaluate(n) for family, key, param, n in stream]


def digest(values) -> str:
    """Stable fingerprint of a list of exact values."""
    h = hashlib.sha256()
    for v in values:
        h.update(str(v).encode())
        h.update(b"\n")
    return h.hexdigest()


def check_seq_growth(stream, values) -> int:
    """Number of answers that an independent route contradicts.

    Routes: ``hyperharmonic_closed``; generating-function coefficients for
    harmonic_like, stirling1 and harmonic_order; brute force for
    harmonic_like wherever n + m <= 16.
    """
    from multiharm import series
    from multiharm.rational import factorial
    from multiharm.sequences import harmonic_like_bruteforce, hyperharmonic_closed

    top: dict[tuple[str, int], int] = {}
    for family, _, param, n in stream:
        top[family, param] = max(top.get((family, param), 0), n)
    gf = {}
    for (family, param), order in top.items():
        if family == "harmonic_like":
            gf[family, param] = series.gf_harmonic_like(param, order)
        elif family == "stirling1":
            gf[family, param] = series.gf_stirling_column(param, order)
        elif family == "harmonic_order":
            # sum_k z^k / k^r, times 1/(1 - z), generates H_n^(r)
            powers = series.TruncatedSeries([0] + [Fraction(1, k**param) for k in range(1, order + 1)])
            gf[family, param] = powers * series.geometric(1, order)

    wrong = 0
    for (family, _, param, n), value in zip(stream, values, strict=True):
        if family == "hyperharmonic":
            ok = value == hyperharmonic_closed(n, param)
        elif family == "stirling1":
            ok = value == factorial(n) * gf[family, param][n]
        else:
            ok = value == gf[family, param][n]
            if ok and family == "harmonic_like" and n + param <= 16:
                ok = value == harmonic_like_bruteforce(n, param)
        wrong += not ok
    return wrong
