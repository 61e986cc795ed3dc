"""Self-tests of the benchmark.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import tracer  # noqa: E402
import workloads  # noqa: E402

#: Per-layer metrics that the parent process computes, not the tracer.
FROM_PARENT = {"rational.fraction_share", "cli.cpu_s", "trace.overhead_ratio"}

SMALL_GRID = {"n": 3, "m": 2, "p": 2}


def _multiharm_namespaces():
    return {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if module is not None and (name == "multiharm" or name.startswith("multiharm."))
    }


def test_same_seed_gives_same_inputs():
    assert workloads.seq_stream(7) == workloads.seq_stream(7)
    assert workloads.seq_stream(7) != workloads.seq_stream(8)
    assert workloads.deep_order(7) == workloads.deep_order(7)
    assert sorted(workloads.deep_order(7)) == sorted(name for name, _ in workloads.DEEP_BLOCKS)


def test_reference_work_is_fixed_and_matched_to_every_workload():
    assert set(workloads.REFERENCE_KIND) == set(workloads.WORKLOADS)
    for kind in set(workloads.REFERENCE_KIND.values()):
        assert workloads.reference_work(kind) == workloads.reference_work(kind)
    with pytest.raises(ValueError):
        workloads.reference_work("nosuch")


def test_seq_stream_shape():
    stream = workloads.seq_stream(3)
    indices = [n for *_, n in stream]
    assert max(indices) <= workloads.SEQ_N_MAX
    per_step = len(workloads.SEQ_PARAMS) + workloads.SEQ_READBACKS
    assert len(stream) % per_step == 0
    for family, key, lo, hi in workloads.SEQ_PARAMS:
        params = {p for f, k, p, _ in stream if f == family and k == key}
        assert params and min(params) >= lo and max(params) <= hi


def _covered(intervals):
    total, end = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if e > end:
            total += e - max(s, end)
            end = e
    return total


def test_self_time_is_duration_minus_child_coverage():
    t = tracer.Tracer()
    inner = t.wrap("test.inner", lambda: time.sleep(0.01))

    def outer_body():
        time.sleep(0.005)
        inner()
        inner()

    outer = t.wrap("test.outer", outer_body)
    t.span("test.root", outer)
    own = t.self_times()
    spans = range(len(t.span_start))
    for i in spans:
        children = [(t.span_start[c], t.span_end[c]) for c in spans if t.span_parent[c] == i]
        duration = t.span_end[i] - t.span_start[i]
        assert abs(own[i] - (duration - _covered(children))) < 1e-9
    stats = t.by_name()
    assert stats["test.inner"]["calls"] == 2
    assert stats["test.outer"]["self"] >= 0.004
    assert stats["test.root"]["self"] < stats["test.outer"]["self"]


def test_wrappers_restore_originals():
    import multiharm.cli  # noqa: F401
    from multiharm import identities, sequences, transforms

    before = _multiharm_namespaces()
    evaluate = sequences.SeqSpec.evaluate
    t = tracer.Tracer()
    t.install()
    try:
        assert transforms.harmonic_like is not before["multiharm.transforms"]["harmonic_like"]
        assert identities.hlike is transforms.harmonic_like
        assert sequences.SeqSpec.evaluate is not evaluate
        assert sequences.SeqSpec("harmonic_like", {"m": 2}).evaluate(4) == sequences.harmonic_like(4, 2)
    finally:
        t.restore()
    after = _multiharm_namespaces()
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        assert all(after[name][k] is v for k, v in namespace.items()), name
    assert sequences.SeqSpec.evaluate is evaluate


def test_verify_gates():
    code, text = workloads.run_verify_in_process(["verify", "--id", "hn2_closed", "--n-max", "5"])
    assert code == 0
    assert workloads.verify_output_problem(text, reports=1, cases=6) is None
    assert workloads.verify_output_problem(text) is not None
    broken = json.loads(text)
    broken[0]["passed"] = False
    assert "hn2_closed" in workloads.verify_output_problem(json.dumps(broken), reports=1, cases=6)
    assert "elapsed_ms" not in workloads.normalise_verify_output(text)
    assert workloads.verify_output_problem("Traceback") == "stdout is not JSON"


def _small_verify_cases():
    from multiharm import identities

    return sum(
        len(list(identities.get_identity(ident).bindings(SMALL_GRID)))
        for ident, _, _ in identities.registry_catalog()
    )


def _small_runs():
    argv = ["verify"] + [f"--{k}-max={v}" for k, v in SMALL_GRID.items()]
    stream = workloads.seq_stream(5, n_max=24)
    return {
        "verify_cli": lambda: workloads.run_verify_in_process(argv),
        "deep_tables": lambda: workloads.run_deep_tables(workloads.deep_order(5), scale=20),
        "seq_growth": lambda: (stream, workloads.run_seq_growth(stream)),
    }


def test_small_smoke_run_of_each_workload():
    from multiharm.sequences import clear_caches

    clear_caches()
    runs = _small_runs()
    code, text = runs["verify_cli"]()
    assert code == 0
    assert workloads.verify_output_problem(text, workloads.VERIFY_REPORTS, _small_verify_cases()) is None
    assert runs["deep_tables"]() == (workloads.deep_ops(scale=20), 0)
    stream, values = runs["seq_growth"]()
    assert len(values) == len(stream)
    assert workloads.check_seq_growth(stream, values) == 0
    assert workloads.check_seq_growth(stream, [values[0] + 1] + values[1:]) == 1


def test_traced_small_runs_report_every_per_layer_metric():
    from multiharm.sequences import FAMILY_NAMES, clear_caches

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in spec["per_layer"]} - FROM_PARENT
    for name, run in _small_runs().items():
        clear_caches()
        untraced = run()
        clear_caches()
        t = tracer.Tracer()
        t.install()
        try:
            traced = t.span("bench.workload", run)
        finally:
            t.restore()
        if name == "verify_cli":
            assert workloads.normalise_verify_output(traced[1]) == workloads.normalise_verify_output(untraced[1])
        else:
            assert traced == untraced
        metrics, _ = t.summary(FAMILY_NAMES)
        assert set(metrics) == wanted, name
        if name == "verify_cli":
            assert metrics["identities.cases"] == _small_verify_cases()
            assert metrics["identities.lhs_s"] > 0 and metrics["cli.emit_s"] > 0
        elif name == "deep_tables":
            assert metrics["series.cauchy_products"] == metrics["kernels.cauchy_product.calls"] > 0
            assert metrics["kernels.fraction_mults"] > 0
        else:
            assert metrics["sequences.fill_calls"] > 0 and 0 < metrics["sequences.hit_ratio"] < 1
            assert 0 < metrics["kernels.hl_useful_ratio"] <= 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deep_tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_child_memory_limit_fails_the_child_only():
    import resource

    import run

    before = resource.getrlimit(resource.RLIMIT_AS)
    child = run.run_child(
        [sys.executable, "-c", f"bytearray({2 * run.CHILD_AS_BYTES})"], time.perf_counter() + 60
    )
    assert child["code"] != 0
    assert "MemoryError" in child["stderr"]
    assert resource.getrlimit(resource.RLIMIT_AS) == before
