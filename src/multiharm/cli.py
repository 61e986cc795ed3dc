"""Command-line front end.

Subcommands::

    multiharm seq        print an exact sequence table as CSV or JSON
    multiharm verify     run the identity catalog, emit JSON reports
    multiharm gf-check   compare a recurrence route against its generating function
    multiharm transform  evaluate binomial sums / binomial transforms

Rationals are always printed exactly ("p/q"); ``--decimal D`` adds an
approximate column next to the exact one, never instead of it, with D from 1
to ``DECIMAL_MAX`` (10000) digits.  Exit status is 0 on success, 1 when a
verification found a mismatch, 2 on usage or domain errors (a ``--decimal``
outside that range among them) and when the ``--output`` file cannot be
written.  A ``verify`` run that would pass without checking anything is a
usage error too: a tag no identity carries, or grid bounds that leave an
identity with zero cases, exit 2 with a message on stderr and print no
reports (the library's ``verify_all`` still returns ``[]`` for an unknown
tag).  If ``MULTIHARM_OUTPUT_DIR`` is set, relative ``--output`` paths are
resolved against it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from multiharm import identities, series, transforms
from multiharm.rational import binomial, factorial, parse_rational
from multiharm.sequences import (
    FAMILY_NAMES,
    SeqSpec,
    hyperharmonic,
    odd_harmonic,
    stirling1,
)

GF_FAMILIES = ("harmonic_like", "stirling1", "hyperharmonic", "odd_central")

#: Most digits ``--decimal`` accepts.  Far larger values overflow the decimal
#: context or exhaust memory before a row is printed.
DECIMAL_MAX = 10_000


class CliError(Exception):
    """Usage or domain error; maps to exit status 2."""


def _approx(value: Fraction, digits: int) -> str:
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def _open_output(args: argparse.Namespace):
    if args.output is None:
        return None
    path = Path(args.output)
    base = os.environ.get("MULTIHARM_OUTPUT_DIR")
    if base and not path.is_absolute():
        path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _emit(args: argparse.Namespace, text: str) -> None:
    path = _open_output(args)
    if path is None:
        sys.stdout.write(text)
    else:
        path.write_text(text)


def _rows_to_csv(header: list[str], rows: list[list[str]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _rows_to_json(header: list[str], rows: list[list[str]]) -> str:
    objs = []
    for row in rows:
        obj = {}
        for key, cell in zip(header, row):
            obj[key] = int(cell) if key == "n" else cell
        objs.append(obj)
    return json.dumps(objs, indent=2) + "\n"


def _emit_table(args: argparse.Namespace, header: list[str], rows: list[list[str]]) -> None:
    if getattr(args, "format", "csv") == "json":
        _emit(args, _rows_to_json(header, rows))
    else:
        _emit(args, _rows_to_csv(header, rows))


# ---------------------------------------------------------------------------
# seq


def _seq_spec_from_args(args: argparse.Namespace) -> SeqSpec:
    params = {}
    for key in ("m", "k", "p", "r"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    try:
        return SeqSpec(args.family, params)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def cmd_seq(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise CliError("--n must be >= 0")
    spec = _seq_spec_from_args(args)
    header = ["n", "value"]
    if args.decimal:
        header.append("approx")
    rows = []
    for n in range(args.n + 1):
        value = Fraction(spec.evaluate(n))
        row = [str(n), str(value)]
        if args.decimal:
            row.append(_approx(value, args.decimal))
        rows.append(row)
    _emit_table(args, header, rows)
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args: argparse.Namespace) -> int:
    overrides = {}
    for key in ("n", "m", "p"):
        bound = getattr(args, f"{key}_max")
        if bound is not None:
            overrides[key] = bound
    try:
        if args.id:
            reports = [identities.verify_identity(args.id, overrides)]
        else:
            reports = identities.verify_all(args.tag, overrides)
    except identities.UnknownIdentityError as exc:
        raise CliError(f"unknown identity id: {exc.args[0]}") from exc
    if not reports:
        raise CliError(
            f"no identity carries tag {args.tag!r}; tags: {', '.join(identities.registry_tags())}"
        )
    empty = [r.identity for r in reports if r.cases == 0]
    if empty:
        raise CliError(f"the grid bounds leave no cases to check for: {', '.join(empty)}")
    payload = json.dumps([r.to_json_dict() for r in reports], indent=2) + "\n"
    _emit(args, payload)
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# gf-check


def _gf_pairs(args: argparse.Namespace) -> tuple[list[Fraction], list[Fraction]]:
    """(recurrence values, generating-function values) for indices 0..order."""
    order = args.order
    if args.family == "harmonic_like":
        if args.m is None or args.m < 0:
            raise CliError("gf-check harmonic_like requires --m >= 0")
        spec = SeqSpec("harmonic_like", {"m": args.m})
        gf = series.gf_harmonic_like(args.m, order)
        return [Fraction(spec.evaluate(n)) for n in range(order + 1)], list(gf.coeffs)
    if args.family == "stirling1":
        if args.k is None or args.k < 0:
            raise CliError("gf-check stirling1 requires --k >= 0")
        gf = series.gf_stirling_column(args.k, order)
        return (
            [Fraction(stirling1(n, args.k)) for n in range(order + 1)],
            [factorial(n) * gf[n] for n in range(order + 1)],
        )
    if args.family == "hyperharmonic":
        if args.p is None or args.p < 1:
            raise CliError("gf-check hyperharmonic requires --p >= 1")
        gf = series.gf_hyperharmonic(args.p, order)
        return [hyperharmonic(n, args.p) for n in range(order + 1)], list(gf.coeffs)
    if args.family == "odd_central":
        gf = series.gf_odd_central(order)
        return (
            [binomial(2 * n, n) * odd_harmonic(n) for n in range(order + 1)],
            list(gf.coeffs),
        )
    raise CliError(f"gf-check does not support family {args.family!r}; choose from {', '.join(GF_FAMILIES)}")


def cmd_gf_check(args: argparse.Namespace) -> int:
    if args.order < 0:
        raise CliError("--order must be >= 0")
    recurrence, gf = _gf_pairs(args)
    header = ["n", "recurrence_value", "gf_value", "equal"]
    rows = []
    all_equal = True
    for n, (rec, coeff) in enumerate(zip(recurrence, gf)):
        equal = rec == coeff
        all_equal &= equal
        rows.append([str(n), str(rec), str(coeff), "true" if equal else "false"])
    _emit_table(args, header, rows)
    return 0 if all_equal else 1


# ---------------------------------------------------------------------------
# transform


def cmd_transform(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise CliError("--n must be >= 0")
    header = ["n", "value"]
    if args.decimal:
        header.append("approx")

    sum_mode = any(v is not None for v in (args.a, args.b))
    if sum_mode and args.family:
        raise CliError("--family and --a/--b are mutually exclusive")

    rows = []
    if sum_mode:
        if args.a is None or args.b is None:
            raise CliError("binomial-sum mode requires both --a and --b")
        a = _parse_scalar(args.a)
        b = _parse_scalar(args.b)
        m = args.m if args.m is not None else 0
        if m < 0:
            raise CliError("--m must be >= 0")
        value = transforms.binomial_sum_direct(a, b, m, args.n)
        row = [str(args.n), str(value)]
        if args.decimal:
            row.append(_approx(value, args.decimal))
        rows.append(row)
    elif args.family:
        spec = _seq_spec_from_args(args)
        for n in range(args.n + 1):
            value = transforms.binomial_transform(spec.evaluate, n, signed=args.signed)
            row = [str(n), str(value)]
            if args.decimal:
                row.append(_approx(value, args.decimal))
            rows.append(row)
    else:
        raise CliError("transform needs either --family or --a/--b (binomial-sum mode)")
    _emit_table(args, header, rows)
    return 0


def _parse_scalar(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiharm",
        description=(
            "Exact computation of harmonic-like numbers and mechanical "
            "verification of their identities."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="subcommand")

    def add_common(p: argparse.ArgumentParser, formats: bool = True) -> None:
        p.add_argument("--output", help="write to this file instead of standard output; "
                       "relative paths resolve against $MULTIHARM_OUTPUT_DIR")
        if formats:
            p.add_argument("--format", choices=("csv", "json"), default="csv",
                           help="table rendering (default csv)")
            p.add_argument("--decimal", type=int, metavar="DIGITS",
                           help=f"add an approximate column with this many digits (1..{DECIMAL_MAX})")

    p_seq = sub.add_parser("seq", help="print an exact sequence table")
    p_seq.add_argument("--family", required=True, help=f"one of: {', '.join(FAMILY_NAMES)}")
    p_seq.add_argument("--n", type=int, required=True, help="last index (table covers 0..N)")
    p_seq.add_argument("--m", type=int, help="level parameter (harmonic_like)")
    p_seq.add_argument("--k", type=int, help="column parameter (stirling1)")
    p_seq.add_argument("--p", type=int, help="order parameter (hyperharmonic families)")
    p_seq.add_argument("--r", type=int, help="order parameter (harmonic_order)")
    add_common(p_seq)
    p_seq.set_defaults(func=cmd_seq)

    p_verify = sub.add_parser("verify", help="verify registered identities, emit JSON reports")
    p_verify.add_argument("--id", help="verify a single identity by id")
    p_verify.add_argument("--tag", help="verify only identities carrying this tag")
    p_verify.add_argument("--n-max", type=int, dest="n_max", help="override the n grid bound")
    p_verify.add_argument("--m-max", type=int, dest="m_max", help="override the m grid bound")
    p_verify.add_argument("--p-max", type=int, dest="p_max", help="override the p grid bound")
    add_common(p_verify, formats=False)
    p_verify.set_defaults(func=cmd_verify)

    p_gf = sub.add_parser("gf-check", help="compare recurrence values against GF coefficients")
    p_gf.add_argument("--family", required=True, help=f"one of: {', '.join(GF_FAMILIES)}")
    p_gf.add_argument("--order", type=int, required=True, help="truncation order (compare 0..order)")
    p_gf.add_argument("--m", type=int, help="level parameter (harmonic_like)")
    p_gf.add_argument("--k", type=int, help="column parameter (stirling1)")
    p_gf.add_argument("--p", type=int, help="order parameter (hyperharmonic)")
    add_common(p_gf)
    p_gf.set_defaults(func=cmd_gf_check)

    p_tr = sub.add_parser("transform", help="binomial sums and binomial transforms")
    p_tr.add_argument("--family", help="sequence family for transform mode")
    p_tr.add_argument("--signed", action="store_true", help="alternate signs (-1)^k in transform mode")
    p_tr.add_argument("--a", help="scalar a (binomial-sum mode), exact rational like 1/2")
    p_tr.add_argument("--b", help="scalar b (binomial-sum mode)")
    p_tr.add_argument("--m", type=int, help="harmonic-like level (both modes)")
    p_tr.add_argument("--k", type=int, help="column parameter (stirling1 family)")
    p_tr.add_argument("--p", type=int, help="order parameter (hyperharmonic families)")
    p_tr.add_argument("--r", type=int, help="order parameter (harmonic_order family)")
    p_tr.add_argument("--n", type=int, required=True, help="index bound")
    add_common(p_tr)
    p_tr.set_defaults(func=cmd_transform)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "decimal", None) is not None and not 1 <= args.decimal <= DECIMAL_MAX:
            raise CliError(f"--decimal must be >= 1 and <= {DECIMAL_MAX}, got {args.decimal}")
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
