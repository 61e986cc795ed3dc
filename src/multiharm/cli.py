"""Command-line front end.

Subcommands, each with the options it reads::

    multiharm seq        --family F --n N [--m|--k|--p|--r] [--format] [--decimal D] [--output]
    multiharm verify     [--id ID | --tag TAG] [--n-max] [--m-max] [--p-max] [--output]
    multiharm gf-check   --family F --order N [--m|--k|--p] [--format] [--output]
    multiharm transform  --family F --n N [--m|--k|--p|--r] [--signed] [--format] [--decimal D] [--output]
    multiharm transform  --a A --b B --n N [--m M] [--format] [--decimal D] [--output]

Only ``verify`` imports :mod:`multiharm.identities`, when it runs, so no other
command builds the identity registry or loads ``dataclasses``.

The family parameters ``--m/--k/--p/--r`` are checked by ``SeqSpec``: a
family refuses a missing, extra or too small parameter.  The second
``transform`` form is binomial-sum mode, ``S(a, b, m, n)`` with ``m``
defaulting to 0; ``--a`` and ``--b`` take exact rationals, negative ones too
(``--b -1/3``).

Rationals are always printed exactly ("p/q"), with no ceiling on their
digits; ``--decimal D`` adds an approximate column next to the exact one,
never instead of it, with D from 1 to ``DECIMAL_MAX`` (10000) digits.
``gf-check --family odd_central`` checks ``C(2n, n) * O_n`` from ``odd_harmonic``.

Run as a program (the ``multiharm`` script or ``python -m multiharm.cli``,
that is :func:`main` with no ``argv``), ``verify`` verifies the selected
identities on up to as many processes as there are usable CPUs: the length of
``os.sched_getaffinity(0)`` where the OS has it, else ``os.cpu_count()``.
``--id`` and a selection of one identity stay in one process, and so does
every call that passes ``argv``, such as ``main(["verify"])``: call that to
profile ``verify`` in process.  The output is the same bytes either way,
apart from ``elapsed_ms``, which is the wall time of one identity in
whichever process verified it, so the values need not add up to the wall
time of the run.

Exit status is 0 on success and 1 only when ``verify`` or ``gf-check`` found
a mismatch.  Every refusal exits 2 with one ``error:`` line on stderr: a usage
or domain error, an option the chosen mode does not read, a ``--decimal``
outside its range, an ``--output`` file that cannot be written, a parameter
too large for the stdlib's integer routines (``OverflowError``, for example
from ``math.comb`` or ``math.factorial``), a query over a sequence table
ceiling, a ``gf-check`` over :data:`GF_WORK_CEILING` or a ``transform
--family`` over :data:`TRANSFORM_WORK_CEILING` (``FeasibilityError``), and
running out of memory.  ``verify`` refuses a run that would pass without
checking anything, through the library's own checks (see
:mod:`multiharm.identities`).  ``seq``, ``transform`` and ``gf-check`` check
their last index against the family's ceiling before the first row;
``gf-check`` checks its work ceiling before either side runs, and
``transform --family`` its own before the first row.  Any other exception
is a fault in the program: it exits 3 with one
``error: internal error: <Type>: <message>`` line and no traceback.  An
``error:`` or usage line that cannot be written, to a closed pipe say,
leaves the status as it is: a broken standard output exits 2 even when
standard error is the same broken pipe, buffered or not, since standard
output is flushed before the status is chosen and a stream that cannot be
written is pointed at ``os.devnull``, so the flush at exit cannot fail.  A
forked ``verify`` worker sends back only the reports it finished and writes
nothing itself; the parent then verifies, in order, every identity that no
process finished, one that raised or whose worker died, so an exception is
raised in the parent as in a serial run and exits with the same status.  Every
exact row is computed before the first byte, so a refusal leaves the output
empty; the text is then written one row (or JSON item) at a time, with the
``--decimal`` cell computed as its row is written, and only a ``MemoryError``
while writing can leave partial output (still exit 2).  If
``MULTIHARM_OUTPUT_DIR`` is set, relative ``--output`` paths resolve against it.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from multiharm import sequences, series, transforms
from multiharm.rational import binomial, factorial, parse_rational
from multiharm.sequences import FAMILY_NAMES, SeqSpec

#: gf-check family -> (the sequence family it reads, the name of its
#: ``series`` generating function, the scale of the sequence value at n, the
#: scale of coefficient n).  The name is looked up at call time, so a patched
#: ``series`` function is the one called.
_GF_CHECKS = {
    "harmonic_like": ("harmonic_like", "gf_harmonic_like", lambda n: 1, lambda n: 1),
    "stirling1": ("stirling1", "gf_stirling_column", lambda n: 1, factorial),
    "hyperharmonic": ("hyperharmonic", "gf_hyperharmonic", lambda n: 1, lambda n: 1),
    "odd_central": ("odd_harmonic", "gf_odd_central", lambda n: binomial(2 * n, n), lambda n: 1),
}

#: Most digits ``--decimal`` accepts.  Far larger values overflow the decimal
#: context or exhaust memory before a row is printed.
DECIMAL_MAX = 10_000

#: Largest estimated work ``gf-check`` accepts: (order + 1)^2 times the power
#: its generating function takes, which is the family parameter capped at
#: order + 1 (1 for ``odd_central``).  A product at order N packs N + 1
#: coefficients of O(N) bits each, and the coefficients of a k-th power are
#: about k times longer, so the estimate follows the size of the packed
#: operands.  A power past the order adds no length: ``ln(1+z)^k`` and
#: ``(-ln(1-z))^m`` vanish up to z^order for k, m > order.  At the ceiling the
#: slowest family, ``odd_central`` at order 999, takes a few seconds.
GF_WORK_CEILING = 1_000_000

#: Largest (n+1)^2 ``transform --family`` accepts: its rows 0..n are the
#: first entries of n + 1 rows of Pascal's rule, of n + 1 down to 1 entries,
#: so the work grows with (n+1)^2 times the cost of an entry, which a family
#: parameter raises as it lengthens the values.  At the ceiling the slowest
#: family at its smallest parameter, ``hyperharmonic_half`` at p = 0 and
#: n = 999, takes about 0.4 s; ``harmonic`` takes about 0.16 s.
TRANSFORM_WORK_CEILING = 1_000_000


def _approx(value: Fraction, digits: int) -> str:
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def _params(args: argparse.Namespace) -> dict[str, int]:
    """The family parameters given on the command line."""
    return {key: value for key in "mkpr" if (value := vars(args).get(key)) is not None}


def _emit(args: argparse.Namespace, chunks: Iterable[str]) -> None:
    """Write ``chunks`` one at a time to standard output or ``--output``."""
    if args.output is None:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()  # a closed pipe fails here, inside the handlers of _run, not in the flush at exit
        return
    # a relative path joins the directory; an absolute one replaces it
    path = Path(os.environ.get("MULTIHARM_OUTPUT_DIR", ""), args.output)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        out.writelines(chunks)


def _json_chunks(items: Iterable[dict]) -> Iterator[str]:
    """The text of ``json.dumps(list(items), indent=2)`` and a newline, one item at a time."""
    sep = "["
    for item in items:
        yield sep + "\n  " + json.dumps(item, indent=2).replace("\n", "\n  ")
        sep = ","
    yield "[]\n" if sep == "[" else "\n]\n"


def _emit_table(args: argparse.Namespace, header: list[str], rows: list[list]) -> None:
    """Print rows of exact values as CSV or JSON; ``--decimal`` approximates the last column.

    The approximate cell of a row is computed as that row is written, so the
    whole column is never held at once.
    """
    if args.decimal:
        header = [*header, "approx"]
        rows = ([*row, _approx(row[-1], args.decimal)] for row in rows)
    if args.format == "json":
        objs = ({key: cell if key == "n" else str(cell) for key, cell in zip(header, row)} for row in rows)
        chunks = _json_chunks(objs)
    else:
        chunks = (",".join(map(str, row)) + "\n" for row in itertools.chain([header], rows))
    _emit(args, chunks)


def cmd_seq(args: argparse.Namespace) -> int:
    spec = SeqSpec(args.family, _params(args))
    spec.check(args.n)
    _emit_table(args, ["n", "value"], [[n, spec.evaluate(n)] for n in range(args.n + 1)])
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from multiharm import identities  # the registry is built here, by the one command that reads it

    overrides = {key: bound for key in "nmp" if (bound := vars(args)[f"{key}_max"]) is not None}
    if args.id:
        reports = [identities.verify_identity(args.id, overrides)]
    else:
        reports = identities.verify_all(args.tag, overrides, jobs=args.jobs)
    _emit(args, _json_chunks(r.to_json_dict() for r in reports))
    return 0 if all(r.passed for r in reports) else 1


def _check_gf_work(order: int, params: dict[str, int]) -> None:
    """Refuse a ``gf-check`` whose estimated work exceeds :data:`GF_WORK_CEILING`."""
    power = min(max([1, *params.values()]), order + 1)
    if (order + 1) ** 2 * power > GF_WORK_CEILING:
        sequences._refuse(f"(order+1)^2*{power}", GF_WORK_CEILING, order=order)


def cmd_gf_check(args: argparse.Namespace) -> int:
    """Recurrence values against generating-function coefficients for n = 0..order."""
    family, name, seq_scale, coeff_scale = _GF_CHECKS[args.family]
    spec = SeqSpec(family, _params(args))
    sequences._check_index(args.order, "order")
    spec.check(args.order)
    _check_gf_work(args.order, spec.params)
    coeffs = getattr(series, name)(*spec.params.values(), args.order)
    recurrence = [seq_scale(n) * spec.evaluate(n) for n in range(args.order + 1)]
    gf = [coeff_scale(n) * c for n, c in enumerate(coeffs)]
    rows = [[n, rec, coeff, "true" if rec == coeff else "false"]
            for n, (rec, coeff) in enumerate(zip(recurrence, gf))]
    _emit_table(args, ["n", "recurrence_value", "gf_value", "equal"], rows)
    return 0 if all(row[3] == "true" for row in rows) else 1


def cmd_transform(args: argparse.Namespace) -> int:
    if args.family is not None:
        if args.a is not None or args.b is not None:
            raise ValueError("--family and --a/--b are mutually exclusive")
        spec = SeqSpec(args.family, _params(args))
        spec.check(args.n)
        if (args.n + 1) ** 2 > TRANSFORM_WORK_CEILING:
            sequences._refuse("(n+1)^2", TRANSFORM_WORK_CEILING, n=args.n)
        values = [spec.evaluate(k) for k in range(args.n + 1)]
        rows = list(enumerate(transforms.binomial_sums(-1 if args.signed else 1, 1, values)))
    elif args.a is None or args.b is None:
        raise ValueError("transform needs either --family or both --a and --b (binomial-sum mode)")
    else:
        if args.signed:
            raise ValueError("--signed applies only to --family mode")
        # S(a, b, m, n) sums harmonic-like numbers of level m, so their family checks m
        spec = SeqSpec("harmonic_like", {"m": 0, **_params(args)})
        spec.check(args.n)
        value = transforms.binomial_sum_direct(
            parse_rational(args.a), parse_rational(args.b), spec.params["m"], args.n
        )
        rows = [[args.n, value]]
    _emit_table(args, ["n", "value"], rows)
    return 0


_OPTIONS = {
    "--m": dict(type=int, help="level parameter (harmonic_like, refused if m <= n and {s._HARMONIC_LIKE_WORK} > "
                               "{s.HARMONIC_LIKE_CEILING}; binomial-sum mode, default 0)"),
    "--k": dict(type=int, help="column parameter (stirling1)"),
    "--p": dict(type=int, help="order (hyperharmonic families); hyperharmonic refuses {s._ORDER_WORK[p]} > "
                               "{s.TABLE_CEILING}, hyperharmonic_half refuses {s._HALF_WORK} > {s.HALF_CEILING}, "
                               "where r is the index n"),
    "--r": dict(type=int, help="order (harmonic_order); refused if {s._ORDER_WORK[r]} > {s.TABLE_CEILING}"),
    "--format": dict(choices=("csv", "json"), default="csv", help="table rendering (default csv)"),
    "--decimal": dict(type=int, metavar="DIGITS",
                      help=f"add an approximate column with this many digits (1..{DECIMAL_MAX})"),
    "--output": dict(help="write to this file instead of standard output; "
                          "relative paths resolve against $MULTIHARM_OUTPUT_DIR"),
}


def _add_options(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:  # the ceilings are read now, so --help states the ones in force
        help_text = _OPTIONS[name]["help"].format(s=sequences)
        parser.add_argument(name, **{**_OPTIONS[name], "help": help_text})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiharm",
        description=(
            "Exact computation of harmonic-like numbers and mechanical "
            "verification of their identities."
        ),
    )
    parser.set_defaults(decimal=None)  # only seq and transform declare --decimal
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="subcommand")
    weights = "; ".join(f"{weight} for {families}" for weight, families in sequences._SIZE_WEIGHTS.values())
    size_rule = f"refused if (n+1)^2*w > {sequences.SIZE_CEILING}, where w is {weights}"

    p_seq = sub.add_parser("seq", help="print an exact sequence table")
    p_seq.add_argument("--family", required=True, help=f"one of: {', '.join(FAMILY_NAMES)}")
    p_seq.add_argument("--n", type=int, required=True, help=f"last index n (table covers 0..n); {size_rule}; "
                       "printing time grows faster than the output's size (decimal conversion is quadratic)")
    _add_options(p_seq, "--m", "--k", "--p", "--r", "--format", "--decimal", "--output")
    p_seq.set_defaults(func=cmd_seq)

    p_verify = sub.add_parser("verify", help="verify registered identities, emit JSON reports")
    which = p_verify.add_mutually_exclusive_group()
    which.add_argument("--id", help="verify a single identity by id")
    which.add_argument("--tag", help="verify only identities carrying this tag")
    for key in "nmp":
        p_verify.add_argument(f"--{key}-max", type=int, help=f"override the {key} grid bound")
    _add_options(p_verify, "--output")
    p_verify.set_defaults(func=cmd_verify)

    p_gf = sub.add_parser("gf-check", help="compare recurrence values against GF coefficients")
    p_gf.add_argument("--family", required=True, choices=tuple(_GF_CHECKS))
    p_gf.add_argument("--order", type=int, required=True,
                      help="truncation order (compare 0..order); refused if (order+1)^2 times "
                           f"the family parameter exceeds {GF_WORK_CEILING}")
    _add_options(p_gf, "--m", "--k", "--p", "--format", "--output")
    p_gf.set_defaults(func=cmd_gf_check)

    p_tr = sub.add_parser("transform", help="binomial sums and binomial transforms")
    p_tr.add_argument("--family", help="sequence family for transform mode")
    p_tr.add_argument("--signed", action="store_true", help="alternate signs (-1)^k in transform mode")
    p_tr.add_argument("--a", help="scalar a (binomial-sum mode), exact rational like 1/2 or -1/3")
    p_tr.add_argument("--b", help="scalar b (binomial-sum mode)")
    p_tr.add_argument("--n", type=int, required=True, help=f"index bound n; {size_rule}; --family mode is also "
                      f"refused if (n+1)^2 > {TRANSFORM_WORK_CEILING}")
    _add_options(p_tr, "--m", "--k", "--p", "--r", "--format", "--decimal", "--output")
    p_tr.set_defaults(func=cmd_transform)

    return parser


def _join_fractions(argv: Sequence[str]) -> list[str]:
    """``--a -1/3`` as ``--a=-1/3``: argparse takes a lone "-1/3" for an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--a", "--b") and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _run(argv: Sequence[str], jobs: int) -> int:
    try:
        args = build_parser().parse_args(_join_fractions(argv), argparse.Namespace(jobs=jobs))
    except SystemExit as exc:  # usage and --help, which argparse has written or tried to write
        _flush_streams()
        return int(exc.code or 0)
    try:
        if args.decimal is not None and not 1 <= args.decimal <= DECIMAL_MAX:
            raise ValueError(f"--decimal must be >= 1 and <= {DECIMAL_MAX}, got {args.decimal}")
        return args.func(args)
    except (ValueError, OSError, OverflowError) as exc:
        _flush_streams(f"error: {exc}\n")
        return 2
    except MemoryError:
        _flush_streams("error: out of memory\n")
        return 2
    except Exception as exc:  # a fault in the program, never an identity failure (1) or a refusal (2)
        _flush_streams(f"error: internal error: {type(exc).__name__}: {exc}\n")
        return 3


def _flush_streams(error: str = "") -> None:
    """What standard output still holds, then ``error`` and what else standard error holds.

    A stream that cannot take its text, such as a closed pipe, leaves the
    status alone: as in the Python docs' recipe for SIGPIPE, its descriptor
    is pointed at ``os.devnull``, so the flush at exit cannot fail either.
    """
    for stream, text in ((sys.stdout, ""), (sys.stderr, error)):
        try:
            print(text, end="", file=stream, flush=True)
        except OSError:
            with contextlib.suppress(OSError), open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), stream.fileno())


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def main(argv: Sequence[str] | None = None) -> int:
    """Run the CLI on ``argv``, or on the command line when it is None.

    Only the program itself (no ``argv``) verifies on several processes; a
    caller passing ``argv`` gets every evaluation in its own process.
    """
    jobs = _usable_cpus() if argv is None else 1
    argv = sys.argv[1:] if argv is None else argv
    # Exact output has no digit ceiling: lift CPython's integer-string guard
    # (3.10.7 and later) for this call only, never in the library.
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        return _run(argv, jobs)
    limit = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        return _run(argv, jobs)
    finally:
        set_limit(limit)


if __name__ == "__main__":
    sys.exit(main())
