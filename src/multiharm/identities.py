"""Machine-checked catalog of harmonic-number identities.

Every entry pairs two independent evaluators (sharing only the sequences
layer) with an explicit parameter grid; verification evaluates both sides
exactly on every grid point and reports the first counterexample, if any.
Grids exclude up front the points where a formula is undefined (e.g. n >= 1
where a side divides by n), so a failure always means mathematical
disagreement, not domain abuse.

A grid is an ordered mapping from parameter name to values.  An integer axis
is a ``range``; ``--n-max``/``--m-max``/``--p-max`` (the ``overrides`` of
:func:`verify_identity` and :func:`verify_all`) replace its upper bound and
keep its start.  Any other axis is a tuple of listed values; a tuple key such
as ``("a", "b")`` takes joint values, one tuple per grid point.  Bindings run
over the product of the axes, the last axis fastest.

Both refuse with ``ValueError``, before any evaluation, a run that checks nothing
asked of it: an unknown id or tag, an override that is no integer axis of any
selected entry, or overrides that leave one with no grid point.

Entries are verified one by one, each by itself, so a run may split them
across processes without one route depending on another: ``verify_all(...,
jobs=N)`` forks up to N - 1 workers (see :func:`_verify_forked`).  Every
library call is serial in the calling process unless it passes ``jobs``.

A side is a point side, which returns its value at the bindings it is called
with, or a column side, which returns a ``list``: its values at 0..n in order
for the top index n it is called with.  A side is known by its value alone.
:func:`verify_descriptor` checks a grid one run at a time, a run being
consecutive bindings that differ only in n.  It builds the runs from the grid
itself, each a pair of a binding and the values of n: where n is the last
axis, a run is one point of the other axes and n's range; on any other grid
each binding is a run of its own, paired with None.  It calls
each side once with a run's last binding, and a point side again at the run's
other bindings, and compares the two sides' lists of values for the whole run.
Only where the lists differ does it look for the first mismatch, so a report
is the one that comparing point by point in grid order gives.

Each side sums in one form.  Every left side whose anchor sums O(n) terms per
point is a literal integer column: once per run it reads each sequence (one
``*_column`` read where the family has one), takes one lcm and one list of
integer numerators, and then each value costs at most O(n) integer steps and
one ``Fraction``.  There are three of them: the binomial sums
sum_k C(i,k) a^k b^(i-k) x_k of a list x that depends on k only, at the
anchor's own a and b (``transforms.binomial_sums``, one row of Pascal's rule
per value), which every binomial transform and main-theorem left side reads,
the convolutions (``_products``), and the running sums of a summand that does
not depend on n (``_running_sums``).  Each takes its own common denominator
by ``transforms._numerators``, the one integer form of the literal route.
The inner step sums of the section-3 left sides (``_stirling_steps``,
``_harmonic_steps``) are ``binomial_sums`` columns at a = b = 1.  The
``thm_kollar`` family states one alternating sum at three levels, so each of
its sides is one call of a one-sided helper and a scale:
a left side is ``_kollar_left`` of its steps (1/(k+1) or an inner step sum),
a right side ``_kollar_right`` of its sequence at 0..n+1 (HL(., m), H or
H^2 - H^(2)) over m!, 1 or 2.  Both read C(r-1, k), and the right one C(r, k)
too, as ``rational.gen_binomial_column`` columns.  Every right side is a closed
form at a point or a column of Cauchy products along n taken by
``transforms.cauchy_column`` over factors in ``transforms.integer_form``: the
closed binomial sums at fixed a and b, the convolutions, and the running sums
as products with 1, 1, ... (``_prefix_sums``).  No left side reads
``cauchy_column`` or ``integer_form``, no right side reads a literal helper,
and no function of this module is called by both sides of one identity; the
route-trace test pins all three.  The module keeps no memo: a weight
or inner sum that a side reads along n is an uncached column helper.

Anchor strings state each identity in plain ASCII with this notation:

* ``H_n``       harmonic number, ``H_n^(r)`` the order-r variant
* ``O_n``       odd harmonic number
* ``HL(n,m)``   multiple harmonic-like number
* ``s(n,k)``    signed Stirling number of the first kind
* ``C(n,k)``    binomial coefficient (also with rational upper argument)
* ``HH(n,p)``   hyperharmonic number
* ``HHalf(r,p)``  hyperharmonic number of order p + 1/2
* ``Hhat(n)``   half-integer harmonic offset, sum_{k=1..n} 1/(k - 1/2)
* ``F_n, L_n``  Fibonacci and Lucas numbers
"""

from __future__ import annotations

import contextlib
import itertools
import marshal
import os
import threading
from dataclasses import asdict, astuple, dataclass, replace
from fractions import Fraction
from itertools import accumulate, pairwise
from operator import mul
from time import perf_counter
from typing import Any, Callable, Iterator, Mapping, NoReturn

from multiharm.rational import (
    RationalLike,
    binomial as comb,
    factorial as fact,
    gen_binomial as gbin,
    gen_binomial_column as gbin_column,
)
from multiharm.sequences import (
    fibonacci as fib,
    half_harmonic_offset as hoff,
    harmonic as harm,
    harmonic_like as hlike,
    harmonic_like_column,
    harmonic_order,
    hyperharmonic as hyp,
    hyperharmonic_half as hyph,
    lucas as luc,
    odd_harmonic as oddh,
    stirling1 as stir,
    stirling1_column,
)
from multiharm.transforms import (
    AB_FIXTURES,
    _numerators,
    binomial_sum_closed,
    binomial_sum_m1,
    binomial_sum_m2,
    binomial_sum_m3,
    binomial_sums,
    cauchy_column,
    integer_form,
    weighted_m2,
)


# ---------------------------------------------------------------------------
# descriptors and reports

#: The axes of a grid in order, each as its key and its values.
_Axes = list[tuple[str | tuple[str, ...], range | tuple[Any, ...]]]


@dataclass(frozen=True)
class IdentityDescriptor:
    """One catalog entry: two independent evaluators over a parameter grid.

    ``section`` is set by the registry from the section an entry is listed
    under; it is what ``verify_all(tag=...)`` selects on.  ``lhs`` and
    ``rhs`` are each a point side or a column side (see the module
    docstring).
    """

    id: str
    title: str
    anchor: str
    grid: Mapping[str | tuple[str, ...], range | tuple[Any, ...]]
    lhs: Callable[..., Any]
    rhs: Callable[..., Any]
    section: str = ""

    def bindings(self, overrides: Mapping[str, int] | None = None) -> Iterator[dict[str, Any]]:
        return _product(self._axes(overrides or {}))

    def _axes(self, overrides: Mapping[str, int]) -> _Axes:
        """The axes of the grid, an integer axis bounded by ``overrides``."""
        return [
            (key, range(values.start, overrides[key] + 1) if isinstance(values, range) and key in overrides else values)
            for key, values in self.grid.items()
        ]

    def grid_text(self) -> str:
        parts = []
        for key, values in self.grid.items():
            if isinstance(values, range):
                parts.append(f"{key}={values.start}..{values.stop - 1}")
            elif isinstance(key, tuple):
                rendered = ", ".join("(" + ", ".join(map(str, v)) + ")" for v in values)
                parts.append(f"({', '.join(key)}) in {{{rendered}}}")
            else:
                parts.append(f"({key}) in {{{', '.join(map(str, values))}}}")
        return "; ".join(parts)


@dataclass
class VerificationReport:
    """Outcome of checking one identity over its grid."""

    identity: str
    anchor: str
    cases: int
    passed: bool
    first_failure: dict[str, Any] | None
    elapsed_ms: float

    def to_json_dict(self) -> dict[str, Any]:
        return {**asdict(self), "elapsed_ms": round(self.elapsed_ms, 3)}


class UnknownIdentityError(KeyError, ValueError):
    """Requested identity id is not in the registry."""

    def __str__(self) -> str:
        return f"unknown identity id: {self.args[0]}"


def _json_value(v: Any) -> Any:
    return v if isinstance(v, int) else str(v)


def _product(axes: _Axes) -> Iterator[dict[str, Any]]:
    """The bindings over the product of ``axes``, in order, the last axis fastest."""
    names = [name for key, _ in axes for name in (key if isinstance(key, tuple) else (key,))]
    columns = [values if isinstance(key, tuple) else [(v,) for v in values] for key, values in axes]
    for combo in itertools.product(*columns):
        yield dict(zip(names, itertools.chain.from_iterable(combo)))


def _runs(desc: IdentityDescriptor, overrides: Mapping[str, int] | None) -> Iterator[tuple[dict[str, Any], Any]]:
    """The bindings of ``desc`` in grid order, in runs of consecutive bindings that differ only in n.

    A run is a pair (fixed, ns).  Where n is the grid's last axis, ``fixed``
    binds every other axis and the run takes n over ``ns``.  On any other grid
    the run is the one binding ``fixed``, and ``ns`` is None.
    """
    axes = desc._axes(overrides or {})
    if not axes or axes[-1][0] != "n":
        yield from ((binding, None) for binding in _product(axes))
    elif ns := axes[-1][1]:
        yield from ((fixed, ns) for fixed in _product(axes[:-1]))


def _evaluate(desc: IdentityDescriptor, side: str, run: tuple[dict[str, Any], Any]) -> list[RationalLike]:
    """The values of ``desc``'s side ``side`` ("lhs" or "rhs") at each binding of ``run``: called with the
    last binding, whose n is the run's top, a column side returns a list; a point side is called again at the others."""
    evaluate = getattr(desc, side)
    fixed, ns = run
    if ns is None:
        top = evaluate(**fixed)
        return [top[fixed["n"]] if isinstance(top, list) else top]
    top = evaluate(**fixed, n=ns[-1])
    if isinstance(top, list):
        return [top[n] for n in ns]
    return [*(evaluate(**fixed, n=n) for n in ns[:-1]), top]


def verify_descriptor(
    desc: IdentityDescriptor, overrides: Mapping[str, int] | None = None
) -> VerificationReport:
    """Check both sides of ``desc`` on every grid point (exact equality), one run at a time."""
    start = perf_counter()
    cases = 0
    first_failure = None
    for run in _runs(desc, overrides):
        lhs, rhs = _evaluate(desc, "lhs", run), _evaluate(desc, "rhs", run)
        cases += len(lhs)
        if first_failure is None and lhs != rhs:
            i = next(i for i, (left, right) in enumerate(zip(lhs, rhs)) if left != right)
            fixed, ns = run
            first_failure = {
                "binding": {k: _json_value(v) for k, v in (fixed if ns is None else {**fixed, "n": ns[i]}).items()},
                "lhs": str(Fraction(lhs[i])),
                "rhs": str(Fraction(rhs[i])),
            }
    elapsed_ms = (perf_counter() - start) * 1000.0
    return VerificationReport(desc.id, desc.anchor, cases, first_failure is None, first_failure, elapsed_ms)


def get_identity(identity_id: str) -> IdentityDescriptor:
    try:
        return _REGISTRY[identity_id]
    except KeyError:
        raise UnknownIdentityError(identity_id) from None


def _verify(
    what: str, descs: list[IdentityDescriptor], overrides: Mapping[str, int], jobs: int = 1
) -> list[VerificationReport]:
    """Reports for ``descs``, or a ValueError naming ``what`` if the run would check nothing asked."""
    if not descs:
        raise ValueError(f"no identity carries {what}; tags: {', '.join(registry_tags())}")
    unread = [key for key in overrides if not any(isinstance(d.grid.get(key), range) for d in descs)]
    if unread:
        raise ValueError(f"no integer axis {', '.join(unread)} to bound in {what}")
    empty = [d.id for d in descs if next(d.bindings(overrides), None) is None]
    if empty:
        raise ValueError(f"the grid bounds leave no cases to check for: {', '.join(empty)}")
    jobs = min(jobs, len(descs))
    # fork() copies only the calling thread, so a process with other threads
    # (which may hold a lock, the memo tables' among them) is never forked
    if jobs > 1 and len(descs) <= _MAX_FORKED and hasattr(os, "fork") and threading.active_count() == 1:
        return _verify_forked(descs, overrides, jobs)
    return [verify_descriptor(desc, overrides) for desc in descs]


#: A forked run hands out descriptor indices as single bytes, so it takes at
#: most this many descriptors; a larger selection is verified serially.
_MAX_FORKED = 256


def _claims(fd: int) -> Iterator[int]:
    """Descriptor indices claimed from the pipe ``fd``, one byte per read, until it is empty.

    A read of one byte is atomic, so each index goes to exactly one of the
    processes reading the pipe, whichever asks first.
    """
    while claim := os.read(fd, 1):
        yield claim[0]


def _verify_forked(
    descs: list[IdentityDescriptor], overrides: Mapping[str, int], jobs: int
) -> list[VerificationReport]:
    """Reports for ``descs`` from this process and up to ``jobs - 1`` forked workers.

    Every index is written to one pipe before the workers are forked, and each
    process claims the next one as it becomes free, so the load balances
    itself.  If a fork fails, the processes already running claim every
    index.  A worker sends back the reports it finished, by ``marshal``, and
    this process trusts them only if the worker exits with status 0.  The
    reports are returned in the order of ``descs``, and every index that no
    process reported is verified here, so an exception is the one the serial
    run raises, and the share of a process that raised or died is verified
    again.  This process stops claiming at an ``Exception`` in its own share,
    as a worker does; at any other, such as ``KeyboardInterrupt``, every
    worker is killed and reaped before it propagates.  On every path no
    worker is left.
    """
    import signal

    claims, feed = os.pipe()
    os.write(feed, bytes(range(len(descs))))  # far below PIPE_BUF, so it never blocks
    os.close(feed)
    workers: dict[int, int] = {}  # pid -> read end of its result pipe
    try:
        for _ in range(jobs - 1):
            result_r, result_w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process or memory to spare: the running processes share the rest
                os.close(result_r)
                os.close(result_w)
                break
            if pid == 0:
                _verify_in_worker(claims, result_w, descs, overrides)
            os.close(result_w)
            workers[pid] = result_r
        reports: dict[int, VerificationReport] = {}
        with contextlib.suppress(Exception):  # as in a worker: the index that raised is verified again below
            for i in _claims(claims):
                reports[i] = verify_descriptor(descs[i], overrides)
        for pid, result_r in list(workers.items()):
            with open(result_r, "rb", closefd=False) as pipe:  # closed below, once reaped
                sent = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del workers[pid]
            os.close(result_r)
            if status == 0:  # a worker that died may have sent part of its reports
                reports.update((i, VerificationReport(*fields)) for i, fields in marshal.loads(sent).items())
        return [reports[i] if i in reports else verify_descriptor(desc, overrides) for i, desc in enumerate(descs)]
    except BaseException:
        for pid in workers:
            with contextlib.suppress(ProcessLookupError):  # reaped just before the interruption
                os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(claims)
        for pid, result_r in workers.items():
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
            os.close(result_r)


def _verify_in_worker(
    claims: int, result_w: int, descs: list[IdentityDescriptor], overrides: Mapping[str, int]
) -> NoReturn:
    """A forked worker: verify claimed descriptors until the claims run out or one
    raises, send the reports it finished to ``result_w``, exit.

    The reports go as one ``marshal`` dump: the fields of each report as a
    tuple, by descriptor index.  A report holds only strings, integers,
    floats, booleans, None and dicts of these, all of which ``marshal`` writes.

    It writes nothing to standard output or error and sends no exception: the
    parent verifies the index that raised again.  It exits with status 0 only
    once every byte is written, and ``os._exit`` skips clean-up handlers and
    the flushing of buffers it inherited.
    """
    code = 1
    try:
        reports: dict[int, tuple[Any, ...]] = {}
        with contextlib.suppress(BaseException):  # even KeyboardInterrupt: the parent verifies this index again
            for index in _claims(claims):
                reports[index] = astuple(verify_descriptor(descs[index], overrides))
        with open(result_w, "wb") as out:
            out.write(marshal.dumps(reports))
        code = 0
    finally:
        os._exit(code)


def verify_identity(
    identity_id: str, overrides: Mapping[str, int] | None = None
) -> VerificationReport:
    """Verify one registered identity, optionally tightening/widening grid bounds."""
    return _verify(identity_id, [get_identity(identity_id)], overrides or {})[0]


def verify_all(
    tag: str | None = None, overrides: Mapping[str, int] | None = None, *, jobs: int = 1
) -> list[VerificationReport]:
    """Verify every registered identity (or those carrying ``tag``), sorted by id.

    With ``jobs`` above 1 the identities are verified on up to that many
    processes (never more than there are identities): this one and workers
    forked from it, which claim identities one at a time as they become free
    (see :func:`_verify_forked`).  The ``multiharm verify`` program passes its
    usable CPU count (see :mod:`multiharm.cli`).  The reports, and the
    exception if one is raised, are those of the serial run apart from
    ``elapsed_ms``, which is the wall time of one identity in whichever
    process verified it, so the values need not add up to the wall time of
    the run.  ``elapsed_ms`` also depends on which identities ran earlier in
    the same process, since those may have grown the sequence tables this
    one reads; this module keeps no memo.  No worker outlives the run.  The
    run stays serial where ``os.fork`` is missing or other threads are
    running.  The default, 1, verifies every identity in this process, so
    in-process instrumentation sees every evaluation.
    """
    descs = [desc for _, desc in sorted(_REGISTRY.items()) if tag is None or desc.section == tag]
    return _verify("the registry" if tag is None else f"tag {tag!r}", descs, overrides or {}, jobs)


def registry_catalog() -> list[tuple[str, str, str]]:
    """Stable listing of (id, anchor, default grid) for every entry."""
    return [(desc.id, desc.anchor, desc.grid_text()) for _, desc in sorted(_REGISTRY.items())]


def registry_tags() -> tuple[str, ...]:
    return tuple(sorted({d.section for d in _REGISTRY.values()}))


# ---------------------------------------------------------------------------
# the registry
#
# Entry evaluators are deliberately written as the literal sums they state,
# not in terms of each other, so a bug in a shared simplification cannot hide.
# A column side evaluates its anchor's own sums, term by term, along n.


_KOLLAR_R = (Fraction(3), Fraction(1, 2), Fraction(5, 2), Fraction(-2, 3))


def _cw(k: int, p: int) -> Fraction:
    # central-binomial weight C(2(k+p), k+p) C(k+p, k) / 4^k
    return Fraction(comb(2 * (k + p), k + p) * comb(k + p, k), 4**k)


def _hyphar_weights(n: int, p: int) -> list[Fraction]:
    # C(k+p,k) (H_{k+p} - H_p) for k = 0..n: the weight of the left sides of the thm_hyphar family
    return [comb(k + p, k) * (harm(k + p) - harm(p)) for k in range(n + 1)]


def _hyphar_binomials(n: int, p: int) -> tuple[list[int], int]:
    # C(k+p,k) for k = 0..n, as integers over 1: the weight of the right sides of the thm_hyphar family
    return [comb(k + p, k) for k in range(n + 1)], 1


def _odd_weights(n: int, p: int) -> list[Fraction]:
    # C(2(k+p),k+p) C(k+p,k) (O_{k+p} - O_p)/4^k for k = 0..n: the weight of the
    # left sides of thm_suzj3to, thm_general_p and thm_k_weighted_half, and at
    # p = 0, C(2k,k) O_k/4^k, of oklok93, the thm_odd_id1 family and thm_k_weighted_half_p0
    return [_cw(k, p) * (oddh(k + p) - oddh(p)) for k in range(n + 1)]


def _products(f: list[RationalLike], g: list[RationalLike]) -> list[Fraction]:
    # sum_{k=0..i} f[k] g[i-k] at each index i, one integer dot product of the numerators of f and g:
    # the literal form of the left sides' Cauchy products, whose right sides are cauchy_column columns
    (f, f_den), (g, g_den) = _numerators(f), _numerators(g)
    return [Fraction(sum(map(mul, f, g[i::-1])), f_den * g_den) for i in range(len(f))]


def _running_sums(terms: list[RationalLike]) -> list[Fraction]:
    # sum_{k=0..i} terms[k] at each index i, as integers over one lcm
    nums, common = _numerators(terms)
    return [Fraction(total, common) for total in accumulate(nums)]


def _kk1_weights(n: int) -> list[Fraction]:
    # 0, then 1/(k(k+1)) for k = 1..n: the weight of the left sides of the thm_kk1 family
    return [Fraction(0), *(Fraction(1, k * (k + 1)) for k in range(1, n + 1))]


def _central_halves(n: int, p: int = 0) -> tuple[list[int], int]:
    # C(2(k+p),k+p) C(k+p,k)/(2 4^k) for k = 0..n, as integers over 2 4^n: the weight
    # of the right sides of thm_general_p and, at p = 0, of the thm_odd_id1 family
    return [comb(2 * (k + p), k + p) * comb(k + p, k) * 4 ** (n - k) for k in range(n + 1)], 2 * 4**n


def _prefix_sums(terms: list[RationalLike]) -> list[Fraction]:
    # sum_{k=0..i} terms[k] at each index i, as the Cauchy product of 1, 1, ... with terms: the running
    # sums of the right sides, whose left sides take _running_sums
    return cauchy_column(1, 1, (([1] * len(terms), 1), integer_form(terms)))


def _harmonic_tails(n: int) -> list[Fraction]:
    # sum_{k=1..s} (1/k) sum_{l=1..s-k} H_{s-k-l}/l for s = 0..n: the double sum
    # of the right sides of hn3_double, thm_hnp1_m2 and thm_kk1_m2, inner sum first
    reciprocals = integer_form([0, *(Fraction(1, k) for k in range(1, n + 1))])
    inner = cauchy_column(1, 1, (integer_form([harm(i) for i in range(n + 1)]), reciprocals))
    return cauchy_column(1, 1, (reciprocals, integer_form(inner)))


def _stirling_steps(n: int, m: int) -> list[Fraction]:
    # sum_{j=m..s+1} C(s,j-1) s(j,m)/j! for s = 0..n, the binomial sums of s(i+1,m)/(i+1)!: the
    # inner sum of thm_kollar (s = k), thm_o107dby (s = k-1) and thm_hnp1 (s = n-k)
    return binomial_sums(1, 1, [Fraction(v, fact(j)) for j, v in enumerate(stirling1_column(n + 1, m)[1:], 1)])


def _harmonic_steps(n: int) -> list[Fraction]:
    # sum_{j=2..s+1} (-1)^j C(s,j-1) H_{j-1}/j for s = 0..n, the binomial sums of (-1)^(i+1) H_i/(i+1),
    # whose index 0 is -H_0 = 0: the inner sum of thm_kollar_m2 (s = k), thm_o107dby_m2 (s = k-1) and
    # thm_hnp1_m2 (s = n-k)
    return binomial_sums(1, 1, [(-1) ** (i + 1) * harm(i) / (i + 1) for i in range(n + 1)])


def _kollar_left(r: Fraction, n: int, steps: list[RationalLike]) -> list[Fraction]:
    # sum_{k=0..i} (-1)^k C(r-1,k) steps[k] for i = 0..n: the left sides of the thm_kollar family
    return _running_sums([(-1) ** k * c * w for k, (c, w) in enumerate(zip(gbin_column(r - 1, n), steps))])


def _kollar_right(r: Fraction, n: int, x: list[RationalLike]) -> list[Fraction]:
    # (-1)^i C(r-1,i) x[i+1] - sum_{k=0..i} (-1)^k C(r,k) x[k] for i = 0..n, x given at 0..n+1: the
    # right sides of the thm_kollar family, each before its scale
    totals = _prefix_sums([(-1) ** k * c * v for k, (c, v) in enumerate(zip(gbin_column(r, n), x))])
    return [(-1) ** i * c * x[i + 1] - total for i, (c, total) in enumerate(zip(gbin_column(r - 1, n), totals))]


def _build_registry(sections: Mapping[str, list[IdentityDescriptor]]) -> dict[str, IdentityDescriptor]:
    registry: dict[str, IdentityDescriptor] = {}
    for section, entries in sections.items():
        for desc in entries:
            if desc.id in registry:
                raise ValueError(f"duplicate identity id: {desc.id}")
            registry[desc.id] = replace(desc, section=section)
    return registry


_REGISTRY = _build_registry({
    "section1": [
        IdentityDescriptor(
            "hn2_closed",
            "two-index harmonic-like number in closed form",
            "HL(n,2) = H_n^2 - H_n^(2)",
            {"n": range(0, 61)},
            lambda n: hlike(n, 2),
            lambda n: harm(n) ** 2 - harmonic_order(n, 2),
        ),
        IdentityDescriptor(
            "hn3_double",
            "three-index harmonic-like number as a double sum",
            "HL(n,3) = sum_{j=1..n} (1/j) sum_{l=1..n-j} H_{n-j-l}/l",
            {"n": range(0, 41)},
            lambda n: hlike(n, 3),
            lambda n: _harmonic_tails(n),
        ),
        IdentityDescriptor(
            "stirling_s_n1",
            "Stirling column 1 in closed form",
            "s(n,1) = (-1)^(n-1) (n-1)!",
            {"n": range(1, 31)},
            lambda n: stir(n, 1),
            lambda n: (-1) ** (n - 1) * fact(n - 1),
        ),
        IdentityDescriptor(
            "stirling_s_n2",
            "Stirling column 2 in closed form",
            "s(n,2) = (-1)^n (n-1)! H_{n-1}",
            {"n": range(1, 31)},
            lambda n: stir(n, 2),
            lambda n: (-1) ** n * fact(n - 1) * harm(n - 1),
        ),
    ],
    "section2": [
        IdentityDescriptor(
            "main_id1",
            "two-parameter binomial sum: direct vs Stirling closed form",
            "sum_{k=0..n} C(n,k) a^k b^(n-k) HL(k,m) = "
            "sum_{j=0..m} C(m,j) sum_{k=0..n} HL(k,j) (a+b)^k ((m-j)!/(n-k)!) (-1)^(n-k) b^(n-k) s(n-k,m-j)",
            {("a", "b"): AB_FIXTURES, "m": range(0, 5), "n": range(0, 26)},
            lambda a, b, m, n: binomial_sums(a, b, harmonic_like_column(n, m)),
            lambda a, b, m, n: binomial_sum_closed(a, b, m, n),
        ),
        IdentityDescriptor(
            "remark_m1",
            "m=1 closed form of the binomial sum",
            "sum_{k=0..n} C(n,k) a^k b^(n-k) H_k = H_n (a+b)^n - sum_{k=0..n-1} (a+b)^k b^(n-k)/(n-k)",
            {("a", "b"): AB_FIXTURES, "n": range(0, 26)},
            lambda a, b, n: binomial_sums(a, b, harmonic_like_column(n, 1)),
            lambda a, b, n: binomial_sum_m1(a, b, n),
        ),
        IdentityDescriptor(
            "cor_id1",
            "alternating binomial transform of HL(.,m)",
            "sum_{k=0..n} C(n,k) (-1)^k HL(k,m) = (-1)^n (m!/n!) s(n,m)",
            {"m": range(0, 6), "n": range(0, 26)},
            lambda m, n: binomial_sums(-1, 1, harmonic_like_column(n, m)),
            lambda m, n: (-1) ** n * Fraction(fact(m), fact(n)) * stir(n, m),
        ),
        IdentityDescriptor(
            "cor_id2",
            "inverse transform: Stirling column sums give HL(.,m)",
            "sum_{k=m..n} C(n,k) s(k,m)/k! = HL(n,m)/m!",
            {"m": range(0, 6), "n": range(0, 31)},
            # s(k,m) = 0 for k < m, so the transform may start at k = 0
            lambda m, n: binomial_sums(1, 1, [Fraction(v, fact(k)) for k, v in enumerate(stirling1_column(n, m))]),
            lambda m, n: Fraction(hlike(n, m), 1) / fact(m),
        ),
        IdentityDescriptor(
            "cor_id3",
            "plain binomial transform of HL(.,m), Stirling double-sum form",
            "sum_{k=0..n} C(n,k) HL(k,m) = "
            "sum_{j=0..m} C(m,j) sum_{k=0..n} HL(k,j) (-1)^(n-k) 2^k ((m-j)!/(n-k)!) s(n-k,m-j)",
            {"m": range(0, 5), "n": range(0, 26)},
            lambda m, n: binomial_sums(1, 1, harmonic_like_column(n, m)),
            # the main theorem at a = b = 1
            lambda m, n: binomial_sum_closed(1, 1, m, n),
        ),
        IdentityDescriptor(
            "classical_Hk",
            "plain binomial transform of harmonic numbers",
            "sum_{k=0..n} C(n,k) H_k = 2^n (H_n - sum_{k=1..n} 1/(2^k k))",
            {"n": range(0, 41)},
            lambda n: binomial_sums(1, 1, [harm(k) for k in range(n + 1)]),
            # the m = 1 specialization at a = b = 1
            lambda n: binomial_sum_m1(1, 1, n),
        ),
        IdentityDescriptor(
            "cor_id4",
            "m=2 closed form of the binomial sum",
            "S(a,b,2,n) = HL(n,2) (a+b)^n + 2 sum_{k=1..n} (a+b)^(n-k) b^k (H_{k-1} - H_{n-k})/k",
            {("a", "b"): AB_FIXTURES, "n": range(0, 26)},
            lambda a, b, n: binomial_sums(a, b, harmonic_like_column(n, 2)),
            lambda a, b, n: binomial_sum_m2(a, b, n),
        ),
        IdentityDescriptor(
            "ex_Hk2_2n",
            "plain binomial transform of HL(.,2)",
            "sum_{k=0..n} C(n,k) HL(k,2) = 2^n (HL(n,2) + 2 sum_{k=1..n} (H_{k-1} - H_{n-k})/(2^k k))",
            {"n": range(0, 31)},
            lambda n: binomial_sums(1, 1, harmonic_like_column(n, 2)),
            # the m = 2 specialization at a = b = 1
            lambda n: binomial_sum_m2(1, 1, n),
        ),
        IdentityDescriptor(
            "ex_alt_Hk2",
            "alternating binomial transform of HL(.,2)",
            "sum_{k=0..n} C(n,k) (-1)^k HL(k,2) = (2/n) H_{n-1}",
            {"n": range(1, 41)},
            lambda n: binomial_sums(-1, 1, harmonic_like_column(n, 2)),
            lambda n: Fraction(2, n) * harm(n - 1),
        ),
        IdentityDescriptor(
            "ex_alt_Hk2sq",
            "alternating binomial transform of order-2 harmonic numbers",
            "sum_{k=0..n} C(n,k) (-1)^k H_k^(2) = -H_n/n",
            {"n": range(1, 41)},
            lambda n: binomial_sums(-1, 1, [harmonic_order(k, 2) for k in range(n + 1)]),
            lambda n: -harm(n) / n,
        ),
        IdentityDescriptor(
            "ex_alt_Hksq",
            "alternating binomial transform of squared harmonic numbers",
            "sum_{k=0..n} C(n,k) (-1)^k H_k^2 = H_n/n - 2/n^2",
            {"n": range(1, 41)},
            lambda n: binomial_sums(-1, 1, [harm(k) ** 2 for k in range(n + 1)]),
            lambda n: harm(n) / n - Fraction(2, n * n),
        ),
        IdentityDescriptor(
            "ex_inv_HkOverK",
            "inverse-transform companion with H_k/k",
            "sum_{k=1..n} C(n,k) (-1)^(k+1) H_k/k = H_n^(2)",
            {"n": range(1, 41)},
            # (-1)^(k+1) = -(-1)^k
            lambda n: binomial_sums(-1, 1, [0, *(-harm(k) / k for k in range(1, n + 1))]),
            lambda n: harmonic_order(n, 2),
        ),
        IdentityDescriptor(
            "ex_2k_alt",
            "mixed-weight transform of HL(.,2)",
            "sum_{k=0..n} C(n,k) 2^k (-1)^(n-k) HL(k,2) = HL(n,2) + 2 sum_{k=1..n} (-1)^k (H_{k-1} - H_{n-k})/k",
            {"n": range(0, 31)},
            # 2^k (-1)^(n-k) = a^k b^(n-k) at a = 2, b = -1
            lambda n: binomial_sums(2, -1, harmonic_like_column(n, 2)),
            # the m = 2 specialization at a = 2, b = -1
            lambda n: binomial_sum_m2(2, -1, n),
        ),
        IdentityDescriptor(
            "ex_3n",
            "weight-2^k binomial transform of HL(.,2)",
            "sum_{k=0..n} C(n,k) 2^k HL(k,2) = 3^n (HL(n,2) + 2 sum_{k=1..n} (H_{k-1} - H_{n-k})/(3^k k))",
            {"n": range(0, 26)},
            lambda n: binomial_sums(2, 1, harmonic_like_column(n, 2)),
            # the m = 2 specialization at a = 2, b = 1
            lambda n: binomial_sum_m2(2, 1, n),
        ),
        IdentityDescriptor(
            "fib_Hk2",
            "Fibonacci-weighted transform of HL(.,2)",
            "sum_{k=0..n} C(n,k) F_k HL(k,2) = HL(n,2) F_{2n} + 2 sum_{k=1..n} F_{2(n-k)} (H_{k-1} - H_{n-k})/k",
            {"n": range(0, 31)},
            lambda n: binomial_sums(1, 1, [fib(k) * v for k, v in enumerate(harmonic_like_column(n, 2))]),
            lambda n: weighted_m2(1, 1, [fib(2 * i) for i in range(n + 1)]),
        ),
        IdentityDescriptor(
            "lucas_Hk2",
            "Lucas-weighted transform of HL(.,2)",
            "sum_{k=0..n} C(n,k) L_k HL(k,2) = HL(n,2) L_{2n} + 2 sum_{k=1..n} L_{2(n-k)} (H_{k-1} - H_{n-k})/k",
            {"n": range(0, 31)},
            lambda n: binomial_sums(1, 1, [luc(k) * v for k, v in enumerate(harmonic_like_column(n, 2))]),
            lambda n: weighted_m2(1, 1, [luc(2 * i) for i in range(n + 1)]),
        ),
        IdentityDescriptor(
            "fib_alt_Hk2",
            "alternating Fibonacci-weighted transform of HL(.,2)",
            "sum_{k=0..n} C(n,k) (-1)^(k+1) F_k HL(k,2) = HL(n,2) F_n + 2 sum_{k=1..n} F_{n-k} (H_{k-1} - H_{n-k})/k",
            {"n": range(0, 31)},
            # (-1)^(k+1) = -(-1)^k
            lambda n: binomial_sums(-1, 1, [-fib(k) * v for k, v in enumerate(harmonic_like_column(n, 2))]),
            lambda n: weighted_m2(1, 1, [fib(i) for i in range(n + 1)]),
        ),
        IdentityDescriptor(
            "lucas_alt_Hk2",
            "alternating Lucas-weighted transform of HL(.,2)",
            "sum_{k=0..n} C(n,k) (-1)^k L_k HL(k,2) = HL(n,2) L_n + 2 sum_{k=1..n} L_{n-k} (H_{k-1} - H_{n-k})/k",
            {"n": range(0, 31)},
            lambda n: binomial_sums(-1, 1, [luc(k) * v for k, v in enumerate(harmonic_like_column(n, 2))]),
            lambda n: weighted_m2(1, 1, [luc(i) for i in range(n + 1)]),
        ),
        IdentityDescriptor(
            "cor_id5",
            "m=3 closed form of the binomial sum",
            "S(a,b,3,n) = HL(n,3) (a+b)^n - 3 sum_{k=1..n} (a+b)^(n-k) b^k "
            "(H_{k-1}^2 - H_{k-1}^(2) - 2 H_{k-1} H_{n-k} + H_{n-k}^2 - H_{n-k}^(2))/k",
            {("a", "b"): AB_FIXTURES, "n": range(0, 26)},
            lambda a, b, n: binomial_sums(a, b, harmonic_like_column(n, 3)),
            lambda a, b, n: binomial_sum_m3(a, b, n),
        ),
        IdentityDescriptor(
            "stirling_s_n3",
            "Stirling column 3 in closed form",
            "s(n,3) = (1/2) (-1)^(n-1) (n-1)! (H_{n-1}^2 - H_{n-1}^(2))",
            {"n": range(1, 31)},
            lambda n: stir(n, 3),
            lambda n: Fraction((-1) ** (n - 1) * fact(n - 1), 2) * (harm(n - 1) ** 2 - harmonic_order(n - 1, 2)),
        ),
    ],
    "section3": [
        IdentityDescriptor(
            "warmup_Hprev_over_k",
            "partial sums of H_{k-1}/k",
            "sum_{k=1..n} H_{k-1}/k = (H_n^2 - H_n^(2))/2",
            {"n": range(1, 41)},
            lambda n: _running_sums([0, *(harm(k - 1) / k for k in range(1, n + 1))]),
            lambda n: (harm(n) ** 2 - harmonic_order(n, 2)) / 2,
        ),
        IdentityDescriptor(
            "warmup_sum_Hk",
            "partial sums of harmonic numbers",
            "sum_{k=1..n} H_k = (n+1) H_n - n",
            {"n": range(1, 41)},
            lambda n: _running_sums([harm(k) for k in range(n + 1)]),
            lambda n: (n + 1) * harm(n) - n,
        ),
        IdentityDescriptor(
            "warmup_fib_harmonic",
            "Fibonacci-harmonic partial sums",
            "sum_{k=1..n} H_k F_k = H_n F_{n+2} - sum_{k=1..n} F_{k+1}/k",
            {"n": range(1, 41)},
            lambda n: _running_sums([harm(k) * fib(k) for k in range(n + 1)]),
            lambda n: [
                harm(i) * fib(i + 2) - total
                for i, total in enumerate(_prefix_sums([0, *(Fraction(fib(k + 1), k) for k in range(1, n + 1))]))
            ],
        ),
        IdentityDescriptor(
            "thm_o107dby",
            "harmonic-weighted Stirling double sum",
            "sum_{k=1..n} H_k sum_{j=m..k} C(k-1,j-1) s(j,m)/j! = "
            "(1/m!) HL(n,m) H_n - (1/m!) sum_{k=1..n} HL(k-1,m)/k",
            {"m": range(0, 5), "n": range(1, 26)},
            lambda m, n: _running_sums([0, *map(mul, map(harm, range(1, n + 1)), _stirling_steps(n - 1, m))]),
            lambda m, n: [
                (hlike(i, m) * harm(i) - total) / fact(m)
                for i, total in enumerate(_prefix_sums([0, *(hlike(k - 1, m) / k for k in range(1, n + 1))]))
            ],
        ),
        IdentityDescriptor(
            "thm_o107dby_m1",
            "partial sums of H_k/k",
            "sum_{k=1..n} H_k/k = (H_n^2 + H_n^(2))/2",
            {"n": range(1, 41)},
            lambda n: _running_sums([0, *(harm(k) / k for k in range(1, n + 1))]),
            lambda n: (harm(n) ** 2 + harmonic_order(n, 2)) / 2,
        ),
        IdentityDescriptor(
            "thm_o107dby_m2",
            "cubic harmonic sum via alternating Stirling weights",
            "2 sum_{k=1..n} H_k sum_{j=1..k} (-1)^j C(k-1,j-1) H_{j-1}/j = "
            "H_n^3 - H_n^(2) H_n - sum_{k=1..n} (H_{k-1}^2 - H_{k-1}^(2))/k",
            {"n": range(1, 26)},
            # the inner sum at k is _harmonic_steps(n - 1)[k - 1], whose sum starts at j = 2:
            # the j = 1 term of the anchor is 0, since H_0 = 0
            lambda n: _running_sums([0, *(2 * harm(k) * w for k, w in enumerate(_harmonic_steps(n - 1), 1))]),
            lambda n: [
                harm(i) ** 3 - harmonic_order(i, 2) * harm(i) - total
                for i, total in enumerate(
                    _prefix_sums([0, *((harm(k - 1) ** 2 - harmonic_order(k - 1, 2)) / k for k in range(1, n + 1))])
                )
            ],
        ),
        IdentityDescriptor(
            "thm_hnp1",
            "reversed-index Stirling double sum reaching HL(n+1,m+1)",
            "sum_{k=1..n} H_k sum_{j=m..n-k+1} C(n-k,j-1) s(j,m)/j! = (1/m!) HL(n+1,m+1)",
            {"m": range(1, 5), "n": range(1, 26)},
            # H_0 = 0, so the product may start at k = 0
            lambda m, n: _products([harm(k) for k in range(n + 1)], _stirling_steps(n, m)),
            lambda m, n: Fraction(hlike(n + 1, m + 1), 1) / fact(m),
        ),
        IdentityDescriptor(
            "thm_hnp1_m1",
            "reversed-denominator harmonic sum",
            "sum_{k=1..n} H_k/(n-k+1) = H_{n+1}^2 - H_{n+1}^(2)",
            {"n": range(1, 41)},
            lambda n: _products([harm(k) for k in range(n + 1)], [Fraction(1, j + 1) for j in range(n + 1)]),
            lambda n: harm(n + 1) ** 2 - harmonic_order(n + 1, 2),
        ),
        IdentityDescriptor(
            "thm_hnp1_m2",
            "reversed-index alternating Stirling sum reaching HL(n+1,3)",
            "sum_{k=1..n} H_k sum_{j=2..n-k+1} C(n-k,j-1) (-1)^j H_{j-1}/j = "
            "(1/2) sum_{k=1..n+1} (1/k) sum_{j=1..n+1-k} H_{n+1-k-j}/j",
            {"n": range(1, 26)},
            # H_0 = 0, so each product may start at k = 0
            lambda n: _products([harm(k) for k in range(n + 1)], _harmonic_steps(n)),
            # the double sum at n + 1
            lambda n: [tail / 2 for tail in _harmonic_tails(n + 1)[1:]],
        ),
        IdentityDescriptor(
            "har_helper",
            "partial fraction sums 1/(k(k+p))",
            "sum_{k=1..n} 1/(k(k+p)) = H_n^(2) if p = 0 else (H_n + H_p - H_{n+p})/p",
            {"p": range(0, 6), "n": range(1, 41)},
            lambda p, n: _running_sums([0, *(Fraction(1, k * (k + p)) for k in range(1, n + 1))]),
            lambda p, n: harmonic_order(n, 2) if p == 0 else (harm(n) + harm(p) - harm(n + p)) / p,
        ),
        IdentityDescriptor(
            "har_example_p0",
            "harmonic numbers against the 1/(k(k+1)) kernel",
            "sum_{k=1..n} H_k/(k(k+1)) = H_n^(2) - H_n/(n+1)",
            {"n": range(1, 41)},
            lambda n: _running_sums([0, *(harm(k) / (k * (k + 1)) for k in range(1, n + 1))]),
            lambda n: harmonic_order(n, 2) - harm(n) / (n + 1),
        ),
        IdentityDescriptor(
            "har_example_p_pos",
            "shifted harmonic numbers against the 1/(k(k+1)) kernel",
            "sum_{k=1..n} H_{k+p}/(k(k+1)) = (H_n + H_p - H_{n+p})/p + H_p - H_{n+p}/(n+1)",
            {"p": range(1, 6), "n": range(1, 31)},
            lambda p, n: _running_sums([0, *(harm(k + p) / (k * (k + 1)) for k in range(1, n + 1))]),
            lambda p, n: (harm(n) + harm(p) - harm(n + p)) / p + harm(p) - harm(n + p) / (n + 1),
        ),
        IdentityDescriptor(
            "thm_kk1",
            "reversed harmonic-like numbers against the 1/(k(k+1)) kernel",
            "sum_{k=1..n} HL(n-k,m)/(k(k+1)) = HL(n,m) + HL(n,m+1) - HL(n+1,m+1)",
            {"m": range(0, 5), "n": range(1, 26)},
            lambda m, n: _products(_kk1_weights(n), harmonic_like_column(n, m)),
            lambda m, n: hlike(n, m) + hlike(n, m + 1) - hlike(n + 1, m + 1),
        ),
        IdentityDescriptor(
            "thm_kk1_m1",
            "reversed harmonic numbers against the 1/(k(k+1)) kernel",
            "sum_{k=1..n} H_{n-k}/(k(k+1)) = H_n + H_n^2 - H_n^(2) - H_{n+1}^2 + H_{n+1}^(2)",
            {"n": range(1, 41)},
            lambda n: _products(_kk1_weights(n), [harm(i) for i in range(n + 1)]),
            lambda n: harm(n) + harm(n) ** 2 - harmonic_order(n, 2) - harm(n + 1) ** 2 + harmonic_order(n + 1, 2),
        ),
        IdentityDescriptor(
            "thm_kk1_m2",
            "reversed squared-harmonic weights against the 1/(k(k+1)) kernel",
            "sum_{k=1..n} (H_{n-k}^2 - H_{n-k}^(2))/(k(k+1)) = H_n^2 - H_n^(2) "
            "+ sum_{k=1..n} (1/k) sum_{j=1..n-k} H_{n-k-j}/j "
            "- sum_{k=1..n+1} (1/k) sum_{j=1..n+1-k} H_{n+1-k-j}/j",
            {"n": range(1, 26)},
            lambda n: _products(_kk1_weights(n), [harm(i) ** 2 - harmonic_order(i, 2) for i in range(n + 1)]),
            # the double sums are _harmonic_tails at n and at n + 1
            lambda n: [
                harm(i) ** 2 - harmonic_order(i, 2) + tail - next_tail
                for i, (tail, next_tail) in enumerate(pairwise(_harmonic_tails(n + 1)))
            ],
        ),
        IdentityDescriptor(
            "thm_kollar",
            "alternating generalized-binomial sums of Stirling steps",
            "sum_{k=0..n} (-1)^k C(r-1,k) sum_{j=m..k+1} C(k,j-1) s(j,m)/j! = "
            "(-1)^n C(r-1,n) HL(n+1,m)/m! - (1/m!) sum_{k=0..n} (-1)^k C(r,k) HL(k,m)",
            {"r": _KOLLAR_R, "m": range(1, 5), "n": range(1, 21)},
            lambda r, m, n: _kollar_left(r, n, _stirling_steps(n, m)),
            lambda r, m, n: [v / fact(m) for v in _kollar_right(r, n, [hlike(k, m) for k in range(n + 2)])],
        ),
        IdentityDescriptor(
            "thm_kollar_m1",
            "alternating generalized-binomial sums, harmonic case",
            "sum_{k=0..n} ((-1)^k/(k+1)) C(r-1,k) = (-1)^n C(r-1,n) H_{n+1} - sum_{k=0..n} (-1)^k C(r,k) H_k",
            {"r": _KOLLAR_R, "n": range(1, 31)},
            lambda r, n: _kollar_left(r, n, [Fraction(1, k + 1) for k in range(n + 1)]),
            lambda r, n: _kollar_right(r, n, [harm(k) for k in range(n + 2)]),
        ),
        IdentityDescriptor(
            "thm_kollar_m2",
            "alternating generalized-binomial sums, squared-harmonic case",
            "sum_{k=0..n} (-1)^k C(r-1,k) sum_{j=2..k+1} (-1)^j C(k,j-1) H_{j-1}/j = "
            "(-1)^n C(r-1,n) (H_{n+1}^2 - H_{n+1}^(2))/2 - (1/2) sum_{k=0..n} (-1)^k C(r,k) (H_k^2 - H_k^(2))",
            {"r": _KOLLAR_R, "n": range(1, 26)},
            lambda r, n: _kollar_left(r, n, _harmonic_steps(n)),
            lambda r, n: [
                v / 2 for v in _kollar_right(r, n, [harm(k) ** 2 - harmonic_order(k, 2) for k in range(n + 2)])
            ],
        ),
    ],
    "section4": [
        IdentityDescriptor(
            "thm_hyphar",
            "hyperharmonic convolution lifts HL level by one",
            "sum_{k=0..n} C(k+p,k) HL(n-k,m) (H_{k+p} - H_p) = sum_{k=0..n} C(k+p,k) HL(n-k,m+1)",
            {"m": range(0, 4), "p": range(0, 6), "n": range(0, 26)},
            lambda m, p, n: _products(_hyphar_weights(n, p), harmonic_like_column(n, m)),
            lambda m, p, n: cauchy_column(
                1, 1, (_hyphar_binomials(n, p), integer_form(harmonic_like_column(n, m + 1)))
            ),
        ),
        IdentityDescriptor(
            "thm_hyphar_m0",
            "hyperharmonic convolution, base case",
            "sum_{k=0..n} C(k+p,k) (H_{k+p} - H_p) = sum_{k=0..n} C(k+p,k) H_{n-k}",
            {"p": range(0, 6), "n": range(0, 31)},
            lambda p, n: _running_sums(_hyphar_weights(n, p)),
            lambda p, n: cauchy_column(1, 1, (_hyphar_binomials(n, p), integer_form([harm(i) for i in range(n + 1)]))),
        ),
        IdentityDescriptor(
            "thm_hyphar_m1",
            "hyperharmonic convolution, harmonic case",
            "sum_{k=0..n} C(k+p,k) H_{n-k} (H_{k+p} - H_p) = sum_{k=0..n} C(k+p,k) (H_{n-k}^2 - H_{n-k}^(2))",
            {"p": range(0, 6), "n": range(0, 31)},
            lambda p, n: _products(_hyphar_weights(n, p), [harm(k) for k in range(n + 1)]),
            lambda p, n: cauchy_column(
                1,
                1,
                (_hyphar_binomials(n, p), integer_form([harm(i) ** 2 - harmonic_order(i, 2) for i in range(n + 1)])),
            ),
        ),
        IdentityDescriptor(
            "czxfdu7_1",
            "half-integer offset equals twice the odd harmonic number",
            "Hhat(n) = 2 O_n  [difference form of H_{n-1/2} - H_{-1/2} = 2 O_n]",
            {"n": range(0, 31)},
            lambda n: hoff(n),
            lambda n: 2 * oddh(n),
        ),
        IdentityDescriptor(
            "czxfdu7_2",
            "offset from the half point",
            "Hhat(n) - Hhat(1) = 2 (O_n - 1)  [H_{n-1/2} - H_{1/2} = 2 (O_n - 1)]",
            {"n": range(0, 31)},
            lambda n: hoff(n) - hoff(1),
            lambda n: 2 * (oddh(n) - 1),
        ),
        IdentityDescriptor(
            "czxfdu7_3",
            "shifted offset equals twice the next odd harmonic number",
            "Hhat(n+1) = 2 O_{n+1}  [H_{n+1/2} - H_{-1/2} = 2 O_{n+1}]",
            {"n": range(0, 31)},
            lambda n: hoff(n + 1),
            lambda n: 2 * oddh(n + 1),
        ),
        IdentityDescriptor(
            "czxfdu7_4",
            "shifted offset from the half point",
            "Hhat(n+1) - Hhat(1) = 2 (O_{n+1} - 1)  [H_{n+1/2} - H_{1/2} = 2 (O_{n+1} - 1)]",
            {"n": range(0, 31)},
            lambda n: hoff(n + 1) - hoff(1),
            lambda n: 2 * (oddh(n + 1) - 1),
        ),
        IdentityDescriptor(
            "czxfdu7_5",
            "single half-integer step",
            "Hhat(n+1) - Hhat(n) = 2/(2n+1)  [H_{n+1/2} - H_{n-1/2} = 2/(2n+1)]",
            {"n": range(0, 31)},
            lambda n: hoff(n + 1) - hoff(n),
            lambda n: Fraction(2, 2 * n + 1),
        ),
        IdentityDescriptor(
            "czxfdu7_6",
            "offset from the minus-three-halves point",
            "Hhat(n) - 2 = 2 (O_n - 1)  [H_{n-1/2} - H_{-3/2} = 2 (O_n - 1), step H_{-1/2} - H_{-3/2} = -2]",
            {"n": range(0, 31)},
            lambda n: hoff(n) - 2,
            lambda n: 2 * (oddh(n) - 1),
        ),
        IdentityDescriptor(
            "czxfdu7_7",
            "shifted offset from the minus-three-halves point",
            "Hhat(n+1) - 2 = 2 (O_{n+1} - 1)  [H_{n+1/2} - H_{-3/2} = 2 (O_{n+1} - 1)]",
            {"n": range(0, 31)},
            lambda n: hoff(n + 1) - 2,
            lambda n: 2 * (oddh(n + 1) - 1),
        ),
        IdentityDescriptor(
            "lemma_m2jjbl5",
            "half-integer hyperharmonic, central-binomial vs binomial route",
            "HHalf(r,p) = C(r+p-1/2, r) (Hhat(r+p) - Hhat(p)) "
            "= 2^(1-2r) C(2p,p)^-1 C(2(r+p), r+p) C(r+p, r) (O_{r+p} - O_p)",
            {"r": range(0, 16), "p": range(0, 16)},
            lambda r, p: hyph(r, p),
            lambda r, p: gbin(Fraction(2 * (r + p) - 1, 2), r) * (hoff(r + p) - hoff(p)),
        ),
        IdentityDescriptor(
            "thm_suzj3to",
            "partial sums of half-integer hyperharmonic numbers",
            "sum_{k=1..n} (1/4^k) C(2(k+p),k+p) C(k+p,k) (O_{k+p} - O_p) = "
            "(1/2^(2n+1)) ((p+1)/(2p+1)) C(2(n+p+1),n+p+1) C(n+p+1,n) (O_{n+p+1} - O_{p+1})",
            {"p": range(0, 21), "n": range(0, 21)},
            lambda p, n: _running_sums([0, *_odd_weights(n, p)[1:]]),
            lambda p, n: Fraction(p + 1, (2 * p + 1) * 2 * 4**n)
            * comb(2 * (n + p + 1), n + p + 1)
            * comb(n + p + 1, n)
            * (oddh(n + p + 1) - oddh(p + 1)),
        ),
        IdentityDescriptor(
            "oklok93",
            "central-binomial odd-harmonic partial sums",
            "sum_{k=1..n} (O_k/4^k) C(2k,k) = ((n+1)/2^(2n+1)) C(2(n+1),n+1) (O_{n+1} - 1)",
            {"n": range(0, 41)},
            lambda n: _running_sums(_odd_weights(n, 0)),
            lambda n: Fraction(n + 1, 2 * 4**n) * comb(2 * (n + 1), n + 1) * (oddh(n + 1) - 1),
        ),
        IdentityDescriptor(
            "thm_odd_id1",
            "central-binomial convolution lifts HL level by one",
            "sum_{k=0..n} C(2k,k) O_k HL(n-k,m)/4^k = (1/2) sum_{k=0..n} C(2k,k) HL(n-k,m+1)/4^k",
            {"m": range(0, 4), "n": range(0, 26)},
            lambda m, n: _products(_odd_weights(n, 0), harmonic_like_column(n, m)),
            lambda m, n: cauchy_column(1, 1, (_central_halves(n), integer_form(harmonic_like_column(n, m + 1)))),
        ),
        IdentityDescriptor(
            "thm_odd_id1_m0",
            "central-binomial convolution, base case",
            "sum_{k=0..n} C(2k,k) O_k/4^k = (1/2) sum_{k=0..n} C(2k,k) H_{n-k}/4^k",
            {"n": range(0, 41)},
            lambda n: _running_sums(_odd_weights(n, 0)),
            lambda n: cauchy_column(1, 1, (_central_halves(n), integer_form([harm(i) for i in range(n + 1)]))),
        ),
        IdentityDescriptor(
            "thm_odd_id1_m1",
            "central-binomial convolution, harmonic case",
            "sum_{k=0..n} C(2k,k) O_k H_{n-k}/4^k = (1/2) sum_{k=0..n} C(2k,k) (H_{n-k}^2 - H_{n-k}^(2))/4^k",
            {"n": range(0, 31)},
            lambda n: _products(_odd_weights(n, 0), [harm(i) for i in range(n + 1)]),
            lambda n: cauchy_column(
                1, 1, (_central_halves(n), integer_form([harm(i) ** 2 - harmonic_order(i, 2) for i in range(n + 1)]))
            ),
        ),
        IdentityDescriptor(
            "tb6ik5l",
            "central-binomial harmonic convolution in closed form",
            "sum_{k=0..n} C(2k,k) H_{n-k}/4^k = ((n+1)/4^n) C(2(n+1),n+1) (O_{n+1} - 1)",
            {"n": range(0, 41)},
            lambda n: _products(
                [Fraction(comb(2 * k, k), 4**k) for k in range(n + 1)], [harm(i) for i in range(n + 1)]
            ),
            lambda n: Fraction(n + 1, 4**n) * comb(2 * (n + 1), n + 1) * (oddh(n + 1) - 1),
        ),
        IdentityDescriptor(
            "thm_general_p",
            "weighted central-binomial convolution lifts HL level by one",
            "sum_{k=0..n} (1/4^k) C(2(k+p),k+p) C(k+p,k) HL(n-k,m) (O_{k+p} - O_p) = "
            "(1/2) sum_{k=0..n} (1/4^k) C(2(k+p),k+p) C(k+p,k) HL(n-k,m+1)",
            {"m": range(0, 4), "p": range(0, 5), "n": range(0, 21)},
            lambda m, p, n: _products(_odd_weights(n, p), harmonic_like_column(n, m)),
            lambda m, p, n: cauchy_column(1, 1, (_central_halves(n, p), integer_form(harmonic_like_column(n, m + 1)))),
        ),
        IdentityDescriptor(
            "thm_general_p_m0",
            "weighted central-binomial harmonic convolution in closed form",
            "sum_{k=0..n} (1/4^k) C(2(k+p),k+p) C(k+p,k) H_{n-k} = "
            "(1/4^n) ((p+1)/(2p+1)) C(2(n+p+1),n+p+1) C(n+p+1,n) (O_{n+p+1} - O_{p+1})",
            {"p": range(0, 6), "n": range(0, 26)},
            lambda p, n: _products([_cw(k, p) for k in range(n + 1)], [harm(i) for i in range(n + 1)]),
            lambda p, n: Fraction(p + 1, (2 * p + 1) * 4**n)
            * comb(2 * (n + p + 1), n + p + 1)
            * comb(n + p + 1, n)
            * (oddh(n + p + 1) - oddh(p + 1)),
        ),
        IdentityDescriptor(
            "thm_xld8bhi",
            "index-weighted hyperharmonic partial sums",
            "sum_{k=1..n} k HH(k,p) = n HH(n,p+1) - HH(n-1,p+2)",
            {"p": range(0, 6), "n": range(1, 31)},
            lambda p, n: _running_sums([0, *(k * hyp(k, p) for k in range(1, n + 1))]),
            lambda p, n: n * hyp(n, p + 1) - hyp(n - 1, p + 2),
        ),
        IdentityDescriptor(
            "thm_k_weighted_half",
            "index-weighted half-integer hyperharmonic partial sums",
            "sum_{k=1..n} (k/4^k) C(2(k+p),k+p) C(k+p,k) (O_{k+p} - O_p) = "
            "(n/4^n) C(2(p+1),p+1)^-1 C(2p,p) C(2(n+p+1),n+p+1) C(n+p+1,n) (O_{n+p+1} - O_{p+1}) "
            "- (4/4^n) C(2(p+2),p+2)^-1 C(2p,p) C(2(n+p+1),n+p+1) C(n+p+1,n-1) (O_{n+p+1} - O_{p+2})",
            {"p": range(0, 6), "n": range(1, 26)},
            lambda p, n: _running_sums([k * w for k, w in enumerate(_odd_weights(n, p))]),
            lambda p, n: Fraction(n * comb(2 * p, p), 4**n * comb(2 * (p + 1), p + 1))
            * comb(2 * (n + p + 1), n + p + 1)
            * comb(n + p + 1, n)
            * (oddh(n + p + 1) - oddh(p + 1))
            - Fraction(4 * comb(2 * p, p), 4**n * comb(2 * (p + 2), p + 2))
            * comb(2 * (n + p + 1), n + p + 1)
            * comb(n + p + 1, n - 1)
            * (oddh(n + p + 1) - oddh(p + 2)),
        ),
        IdentityDescriptor(
            "thm_k_weighted_half_p0",
            "index-weighted central-binomial odd-harmonic sums",
            "sum_{k=1..n} (k/4^k) C(2k,k) O_k = (n(n+1)/2^(2n+1)) C(2(n+1),n+1) (O_{n+1} - 1) "
            "- (n(n+1)/(3*4^n)) C(2(n+1),n+1) (O_{n+1} - 4/3)",
            {"n": range(1, 41)},
            lambda n: _running_sums([k * w for k, w in enumerate(_odd_weights(n, 0))]),
            lambda n: Fraction(n * (n + 1), 2 * 4**n)
            * comb(2 * (n + 1), n + 1)
            * (oddh(n + 1) - 1)
            - Fraction(n * (n + 1), 3 * 4**n)
            * comb(2 * (n + 1), n + 1)
            * (oddh(n + 1) - Fraction(4, 3)),
        ),
        IdentityDescriptor(
            "thm_yycg1tg",
            "odd-harmonic difference sums with inverse central-binomial weights",
            "sum_{k=1..n} C(2k,k)^-1 C(2(k+p),k+p) C(k+p,k) (O_{k+p} - O_k) = "
            "(1/4) C(2n,n)^-1 C(2(n+p+1),n+p+1) C(n+p+1,n) (O_{n+p+1} - O_n) "
            "- (1/4) C(2(p+1),p+1) O_{p+1}",
            {"p": range(0, 6), "n": range(1, 26)},
            lambda p, n: _running_sums([
                0,
                *(
                    Fraction(comb(2 * (k + p), k + p) * comb(k + p, k), comb(2 * k, k)) * (oddh(k + p) - oddh(k))
                    for k in range(1, n + 1)
                ),
            ]),
            lambda p, n: Fraction(comb(2 * (n + p + 1), n + p + 1), 4 * comb(2 * n, n))
            * comb(n + p + 1, n)
            * (oddh(n + p + 1) - oddh(n))
            - Fraction(comb(2 * (p + 1), p + 1), 4) * oddh(p + 1),
        ),
        IdentityDescriptor(
            "odd_even_split",
            "harmonic number at an even index",
            "H_{2n} = (1/2) H_n + O_n",
            {"n": range(0, 41)},
            lambda n: harm(2 * n),
            lambda n: harm(n) / 2 + oddh(n),
        ),
        IdentityDescriptor(
            "odd_even_split_offset",
            "harmonic number at an odd index",
            "H_{2n-1} = (1/2) H_{n-1} + O_n",
            {"n": range(1, 41)},
            lambda n: harm(2 * n - 1),
            lambda n: harm(n - 1) / 2 + oddh(n),
        ),
    ],
})

