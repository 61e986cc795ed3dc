"""Per-layer tracing of multiharm from outside the package.

The tracer replaces the public functions of each multiharm layer with thin
wrappers that record one span per call (name, parent span, start, end).  It
patches every module-level binding of each function inside the ``multiharm``
modules, because the layers import each other's functions by name (for
example ``identities`` calls ``sequences.harmonic_like`` as ``hlike``).  Two
further hooks reach calls that do not go through a module global:
``SeqSpec.evaluate`` and the two sides of every identity, which
``verify_descriptor`` receives inside its descriptor.

Spans stay in compact in-memory arrays while the workload runs; the self
time of each span (its duration minus the time its child spans cover) is
computed only when :meth:`Tracer.summary` is called after the run.
:meth:`Tracer.restore` puts every original function back.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
from array import array
from time import perf_counter

#: Layer name -> module holding that layer's public functions.  The metric
#: names use ``kernels`` for ``multiharm._kernels`` because a metric name
#: must start with a letter or digit.
LAYERS = {
    "rational": "multiharm.rational",
    "sequences": "multiharm.sequences",
    "series": "multiharm.series",
    "transforms": "multiharm.transforms",
    "identities": "multiharm.identities",
    "kernels": "multiharm._kernels",
    "cli": "multiharm.cli",
}

TRANSFORM_SUMS = ("binomial_sum_direct", "binomial_sum_closed", "binomial_sum_m1",
                  "binomial_sum_m2", "binomial_sum_m3")
RATIONAL_FUNCS = ("binomial", "factorial", "gen_binomial")
KERNELS = ("cauchy_product", "invert_series", "sqrt_series", "harmonic_like_levels",
           "stirling1_rows")
GF_FUNCS = ("gf_harmonic_like", "gf_stirling_column", "gf_hyperharmonic", "gf_odd_central")


def _cauchy_mults(f, g, order) -> int:
    nf, ng = len(f), len(g)
    return sum(max(0, min(n, nf - 1) - max(0, n - ng + 1) + 1) for n in range(order + 1))


def _triangle(length: int) -> int:
    # one product per inner-loop term plus one scaling product per coefficient
    return (length - 1) * length // 2 + (length - 1)


#: Fraction multiplications each kernel performs, computed from its arguments
#: (the kernels themselves are not instrumented).
_KERNEL_MULTS = {
    "cauchy_product": _cauchy_mults,
    "invert_series": lambda f: _triangle(len(f)),
    "sqrt_series": lambda f: _triangle(len(f)) - (len(f) - 1),
    "harmonic_like_levels": lambda n_max, m_max: m_max * n_max * (n_max + 1) // 2,
    "stirling1_rows": lambda n_max: 0,  # integer arithmetic only
}


def public_functions(module, layer: str):
    """(name, function) for each public function the layer defines."""
    if layer == "kernels":
        return [(name, getattr(module, name)) for name in KERNELS]
    return [
        (name, obj)
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == module.__name__
    ]


class Tracer:
    """Records spans around calls into the multiharm layers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = [-1]  # open spans; -1 stands for "no parent"
        self.fills: list[int] = []
        self.identity_spans: list[tuple[int, str]] = []
        self.fraction_mults = 0
        self.hl_cells_computed = 0
        self.hl_cells_last = 0
        self._max_index: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(i)
        self.span_start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.span_end[i] = perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        i = self.open(self.name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(i)

    def wrap(self, name: str, fn, on_enter=None):
        """A function that calls ``fn`` inside a span called ``name``.

        ``on_enter(span, args)`` runs inside the span, for counters that
        depend on the call arguments.
        """
        nid = self.name_id(name)
        # The open/close steps are inlined: this wrapper runs on every call
        # into a layer, hundreds of thousands of times per verify pass.
        starts, ends, stack = self.span_start, self.span_end, self._stack
        add_name, add_parent = self.span_name.append, self.span_parent.append
        add_start, add_end = starts.append, ends.append
        push, pop = stack.append, stack.pop

        def traced(*args, **kwargs):
            i = len(starts)
            add_name(nid)
            add_parent(stack[-1])
            add_end(0.0)
            push(i)
            add_start(perf_counter())
            try:
                if on_enter is not None:
                    on_enter(i, args)
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- counters fed from call arguments --------------------------------------

    def _note_index(self, family: str, n: int, span: int) -> None:
        if n > self._max_index.get(family, -1):
            self._max_index[family] = n
            self.fills.append(span)

    def _family_hook(self, family: str):
        def on_enter(i, args):
            self._note_index(family, args[0], i)
        return on_enter

    def _kernel_hook(self, kernel: str):
        mults = _KERNEL_MULTS[kernel]

        def on_enter(i, args):
            self.fraction_mults += mults(*args)
            if kernel == "harmonic_like_levels":
                cells = (args[0] + 1) * (args[1] + 1)
                self.hl_cells_computed += cells
                self.hl_cells_last = cells
        return on_enter

    # -- installing and removing the wrappers ----------------------------------

    def _patch(self, owner, key: str, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def install(self) -> None:
        """Wrap the public functions of every layer in :data:`LAYERS`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(name) for layer, name in LAYERS.items()}
        families = set(modules["sequences"].FAMILY_NAMES)
        replacements: dict[int, object] = {}
        for layer, module in modules.items():
            for name, fn in public_functions(module, layer):
                if id(fn) in replacements:
                    continue
                hook = None
                if layer == "sequences" and name in families:
                    hook = self._family_hook(name)
                elif layer == "kernels":
                    hook = self._kernel_hook(name)
                elif layer == "identities" and name == "verify_descriptor":
                    replacements[id(fn)] = self._wrap_verify_descriptor(fn)
                    continue
                replacements[id(fn)] = self.wrap(f"{layer}.{name}", fn, hook)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "multiharm" or mod_name.startswith("multiharm.")):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if id(value) in replacements:
                    self._patch(namespace, key, replacements[id(value)])
        self._wrap_seqspec(modules["sequences"].SeqSpec)

    def _wrap_seqspec(self, seqspec) -> None:
        original = seqspec.__dict__["evaluate"]
        tracer = self

        def evaluate(spec, n):
            i = tracer.open(tracer.name_id(f"sequences.{spec.family}"))
            try:
                tracer._note_index(spec.family, n, i)
                return original(spec, n)
            finally:
                tracer.close(i)

        evaluate.__wrapped__ = original
        self._patch(seqspec, "evaluate", evaluate)

    def _wrap_verify_descriptor(self, original):
        tracer = self
        nid = self.name_id("identities.verify_descriptor")

        def verify_descriptor(desc, overrides=None):
            i = tracer.open(nid)
            try:
                tracer.identity_spans.append((i, desc.id))
                sided = dataclasses.replace(
                    desc,
                    lhs=tracer.wrap("identities.lhs", desc.lhs),
                    rhs=tracer.wrap("identities.rhs", desc.rhs),
                )
                return original(sided, overrides)
            finally:
                tracer.close(i)

        verify_descriptor.__wrapped__ = original
        return verify_descriptor

    def restore(self) -> None:
        """Put every wrapped function back, newest patch first."""
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- summary ---------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time per span: its duration minus the time its children cover.

        Calls run on one thread, so the children of a span never overlap and
        the time they cover is the sum of their durations.
        """
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        own = [e - s for s, e in zip(starts, ends)]
        for i, p in enumerate(parents):
            if p >= 0:
                own[p] -= ends[i] - starts[i]
        return own

    def by_name(self) -> dict[str, dict[str, float]]:
        """calls, total (inclusive) and self seconds per span name."""
        own = self.self_times()
        stats = {name: {"calls": 0, "total": 0.0, "self": 0.0} for name in self.names}
        for i, nid in enumerate(self.span_name):
            entry = stats[self.names[nid]]
            dur = self.span_end[i] - self.span_start[i]
            entry["calls"] += 1
            entry["total"] += dur
            entry["self"] += own[i]
        return stats

    def summary(self, family_names) -> tuple[dict[str, float], dict[str, object]]:
        """Per-layer metrics from the recorded spans, plus descriptive extras."""
        stats = self.by_name()
        empty = {"calls": 0, "total": 0.0, "self": 0.0}

        def get(name):
            return stats.get(name, empty)

        out: dict[str, float] = {}
        out["identities.lhs_s"] = get("identities.lhs")["total"]
        out["identities.rhs_s"] = get("identities.rhs")["total"]
        out["identities.engine_s"] = get("identities.verify_descriptor")["self"]
        slowest = (0.0, None)
        for i, ident in self.identity_spans:
            dur = self.span_end[i] - self.span_start[i]
            if dur > slowest[0]:
                slowest = (dur, ident)
        out["identities.slowest_s"] = slowest[0]
        out["identities.cases"] = get("identities.lhs")["calls"]
        for name in TRANSFORM_SUMS:
            out[f"transforms.{name}.calls"] = get(f"transforms.{name}")["calls"]
            out[f"transforms.{name}.self_s"] = get(f"transforms.{name}")["self"]
        for name in RATIONAL_FUNCS:
            out[f"rational.{name}.calls"] = get(f"rational.{name}")["calls"]
            out[f"rational.{name}.self_s"] = get(f"rational.{name}")["self"]
        family_calls = 0
        for family in family_names:
            calls = get(f"sequences.{family}")["calls"]
            out[f"sequences.{family}.calls"] = calls
            family_calls += calls
        out["sequences.self_s"] = sum(v["self"] for k, v in stats.items() if k.startswith("sequences."))
        fills = set(self.fills)
        outer_fills = [i for i in self.fills if not self._has_ancestor_in(i, fills)]
        out["sequences.fill_calls"] = len(self.fills)
        out["sequences.fill_s"] = sum(self.span_end[i] - self.span_start[i] for i in outer_fills)
        out["sequences.hit_ratio"] = (
            (family_calls - len(self.fills)) / family_calls if family_calls else 0.0
        )
        for name in KERNELS:
            out[f"kernels.{name}.calls"] = get(f"kernels.{name}")["calls"]
            out[f"kernels.{name}.self_s"] = get(f"kernels.{name}")["self"]
        out["kernels.fraction_mults"] = self.fraction_mults
        out["kernels.hl_useful_ratio"] = (
            self.hl_cells_last / self.hl_cells_computed if self.hl_cells_computed else 0.0
        )
        for name in GF_FUNCS:
            out[f"series.{name}.self_s"] = get(f"series.{name}")["self"]
        series_ids = {nid for nid, name in enumerate(self.names) if name.startswith("series.")}
        cauchy = self._name_ids.get("kernels.cauchy_product")
        out["series.cauchy_products"] = sum(
            1
            for i, nid in enumerate(self.span_name)
            if nid == cauchy and self.span_parent[i] >= 0
            and self.span_name[self.span_parent[i]] in series_ids
        )
        out["cli.emit_s"] = get("cli.cmd_verify")["self"]
        extras = {"identities.slowest_id": slowest[1], "spans": len(self.span_start)}
        return out, extras

    def _has_ancestor_in(self, i: int, marked: set[int]) -> bool:
        p = self.span_parent[i]
        while p >= 0:
            if p in marked:
                return True
            p = self.span_parent[p]
        return False
