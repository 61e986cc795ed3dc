"""One benchmark pass in a fresh interpreter, so every memo table starts cold.

    python3 perfbench/child.py setup
    python3 perfbench/child.py reference KIND
    python3 perfbench/child.py pass WORKLOAD SEED MODE [--check]

``setup`` times ``import multiharm.cli`` (which builds the identity registry)
and prints it with the kernel backend name.  ``reference`` times
``workloads.reference_work(KIND)``, the unit of the end-to-end times.  ``pass`` runs one iteration of
WORKLOAD in MODE ``plain``, ``traced`` (wrappers from tracer.py) or
``profile`` (cProfile, for the share of time spent in ``fractions``), then
prints one JSON line.  ``--check`` adds the seq_growth cross-check after the
timed region.  Untraced verify_cli passes do not use this file: they run
the real ``python -m multiharm.cli verify``.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

import workloads


def _setup() -> dict:
    start = perf_counter()
    import multiharm.cli  # noqa: F401  (the import is what is timed)

    import_s = perf_counter() - start
    from multiharm import _kernels

    return {"import_s": import_s, "backend": _kernels.BACKEND}


def _reference(kind: str) -> dict:
    start = perf_counter()
    checksum = workloads.reference_work(kind)
    return {"ref_s": perf_counter() - start, "checksum": checksum}


def _fraction_share(profile) -> float:
    import pstats

    stats = pstats.Stats(profile).stats
    total = sum(entry[2] for entry in stats.values())
    in_fractions = sum(
        entry[2] for (filename, _, _), entry in stats.items() if filename.endswith("fractions.py")
    )
    return in_fractions / total if total else 0.0


def _pass(workload: str, seed: int, mode: str, check: bool) -> dict:
    import multiharm.cli  # noqa: F401  (set-up stays outside the timed region)
    from multiharm.sequences import FAMILY_NAMES

    if workload == "verify_cli":
        body = workloads.run_verify_in_process
    elif workload == "deep_tables":
        order = workloads.deep_order(seed)
        body = functools.partial(workloads.run_deep_tables, order)
    elif workload == "seq_growth":
        stream = workloads.seq_stream(seed)
        body = functools.partial(workloads.run_seq_growth, stream)
    else:
        raise ValueError(f"unknown workload {workload!r}")

    out: dict = {}
    tracer = profile = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    elif mode == "profile":
        import cProfile

        profile = cProfile.Profile()
    start = perf_counter()
    try:
        if tracer is not None:
            result = tracer.span("bench.workload", body)
        elif profile is not None:
            result = profile.runcall(body)
        else:
            result = body()
    finally:
        out["timed_s"] = perf_counter() - start
        if tracer is not None:
            tracer.restore()

    if tracer is not None:
        out["per_layer"], out["extras"] = tracer.summary(FAMILY_NAMES)
    if profile is not None:
        out["fraction_share"] = _fraction_share(profile)

    if workload == "verify_cli":
        out["exit"], out["stdout"] = result
    elif workload == "deep_tables":
        out["ops"], out["mismatches"] = result
    else:
        out["ops"] = len(result)
        out["digest"] = workloads.digest(result)
        if check:
            out["mismatches"] = workloads.check_seq_growth(stream, result)
    return out


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"]:
        out = _setup()
    elif argv[:1] == ["reference"] and len(argv) == 2:
        out = _reference(argv[1])
    elif argv[:1] == ["pass"] and len(argv) in (4, 5):
        out = _pass(argv[1], int(argv[2]), argv[3], argv[4:] == ["--check"])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
