"""The multiharm benchmark: three closed-loop workloads, one pass per child.

    python3 perfbench/run.py --workload verify_cli --seed 1 --seconds 36 --trace 0

Run from anywhere; the package under test is ``src/multiharm`` next to this
directory and nothing is installed.  One client runs passes back to back,
each in a fresh interpreter (cold caches) under an address-space limit,
until the next pass would end after ``--seconds``.  Every pass is checked;
a pass that exits non-zero, crashes or disagrees counts its operations as
failed.  The last line of stdout is the result object; the line before it
holds the run's metadata.  With ``--trace 0`` the metrics are the
end-to-end ones of BENCHMARK.json, with ``--trace 1`` the per-layer ones.
See NOTES.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import selectors
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh-interpreter imports timed per run; setup_s is their median.
SETUP_REPEATS = 9
#: Address-space limit of each child.  The biggest workload peaks near
#: 60 MB, so reaching this means a memory blow-up, which then fails the
#: pass instead of swapping the machine.
CHILD_AS_BYTES = 1 << 30
#: Children still running this long after the benchmark started are killed
#: (and their pass counted as failed), so a run ends within 180 s.
HARD_LIMIT_S = 170.0


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # Import from cached bytecode, as an installed package does.  Only the
    # first import in a fresh checkout compiles; setup_s is a median, so
    # that one slow import does not move it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_AS_BYTES, CHILD_AS_BYTES))


def run_child(argv: list[str], deadline: float) -> dict:
    """Run one child to completion; wall time, exit code, output, rusage.

    The child is killed at ``deadline`` (a ``perf_counter`` time).  It is
    reaped with ``os.wait4`` so its own peak RSS and CPU time are read, not
    those of every child so far.
    """
    start = perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        preexec_fn=_limit_memory,
    )
    chunks: dict[str, list[bytes]] = {"stdout": [], "stderr": []}
    killed = False
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ, "stdout")
            sel.register(proc.stderr, selectors.EVENT_READ, "stderr")
            while sel.get_map():
                remaining = deadline - perf_counter()
                if remaining <= 0 and not killed:
                    proc.kill()
                    killed = True
                for key, _ in sel.select(timeout=max(remaining, 1.0)):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.data].append(data)
                    else:
                        sel.unregister(key.fileobj)
    except BaseException:
        # interrupted (for example by SIGTERM): leave no child running
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": perf_counter() - start,
        "code": proc.returncode,
        "killed": killed,
        "stdout": b"".join(chunks["stdout"]).decode(errors="replace"),
        "stderr": b"".join(chunks["stderr"]).decode(errors="replace"),
        "rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }


def measure_setup(repeats: int, deadline: float) -> tuple[list[float], str]:
    times, backend = [], None
    for _ in range(repeats):
        child = run_child([sys.executable, str(HERE / "child.py"), "setup"], deadline)
        if child["code"] != 0:
            raise BenchmarkError("cannot import multiharm.cli:\n" + child["stderr"].strip())
        report = json.loads(child["stdout"])
        times.append(report["import_s"])
        backend = report["backend"]
    return times, backend


class Workload:
    """Runs and checks passes of one workload; tracks attempted and failed ops."""

    def __init__(self, name: str, seed: int, deadline: float) -> None:
        self.name = name
        self.seed = seed
        self.deadline = deadline
        if name == "verify_cli":
            self.ops_per_pass = workloads.VERIFY_CASES
        elif name == "deep_tables":
            self.ops_per_pass = workloads.deep_ops()
        else:
            self.ops_per_pass = len(workloads.seq_stream(seed))
        #: what every pass must reproduce: normalised verify stdout, or the
        #: digest of the cross-checked seq_growth answers
        self.expected: str | None = None
        self.passes: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self, mode: str) -> dict:
        check = self.name == "seq_growth" and not self.passes
        if self.name == "verify_cli" and mode == "plain":
            argv = [sys.executable, "-m", "multiharm.cli", "verify"]
        else:
            argv = [sys.executable, str(HERE / "child.py"), "pass", self.name, str(self.seed), mode]
            if check:
                argv.append("--check")
        child = run_child(argv, self.deadline)
        record = {"mode": mode, "wall_s": child["wall_s"], "rss_mb": child["rss_mb"],
                  "cpu_s": child["cpu_s"], "elapsed_s": child["wall_s"]}
        problem = self._judge(mode, child, record, check)
        self.attempted += self.ops_per_pass
        if problem:
            record["failed"] = record.get("failed") or self.ops_per_pass
            self.problems.append(f"pass {len(self.passes)} ({mode}): {problem}")
        self.failed += record.get("failed", 0)
        self.passes.append(record)
        return record

    def _judge(self, mode: str, child: dict, record: dict, check: bool) -> str | None:
        """Fill ``record`` from the child's output; the reason it failed, if it did."""
        if child["killed"]:
            return f"killed {HARD_LIMIT_S:.0f} s after the benchmark started"
        if self.name == "verify_cli" and mode == "plain":
            code, stdout = child["code"], child["stdout"]
        else:
            if child["code"] != 0:
                return f"exit {child['code']}: {child['stderr'].strip()[-400:]}"
            try:
                report = json.loads(child["stdout"])
            except ValueError:
                return "child printed no result"
            record["wall_s"] = report["timed_s"] if self.name != "verify_cli" else child["wall_s"]
            record["per_layer"] = report.get("per_layer")
            record["extras"] = report.get("extras")
            record["fraction_share"] = report.get("fraction_share")
            if self.name != "verify_cli":
                return self._judge_in_process(report, record, check)
            code, stdout = report["exit"], report["stdout"]
        if code != 0:
            return f"multiharm verify exited {code}: {child['stderr'].strip()[-400:]}"
        problem = workloads.verify_output_problem(stdout)
        if problem:
            return problem
        normalised = workloads.normalise_verify_output(stdout)
        if self.expected is None:
            self.expected = normalised
        elif normalised != self.expected:
            return "stdout differs from the first pass (elapsed_ms lines removed)"
        return None

    def _judge_in_process(self, report: dict, record: dict, check: bool) -> str | None:
        if report["ops"] != self.ops_per_pass:
            return f"{report['ops']} operations, expected {self.ops_per_pass}"
        if self.name == "deep_tables":
            record["failed"] = report["mismatches"]
            return f"{report['mismatches']} coefficients disagree" if report["mismatches"] else None
        if check:
            self.expected = report["digest"]
            record["failed"] = report["mismatches"]
            if report["mismatches"]:
                return f"{report['mismatches']} answers contradicted by an independent route"
        elif report["digest"] != self.expected:
            return "answers differ from the cross-checked first pass"
        return None


def schedule(trace: bool):
    """Pass modes in order: plain only, or a profile pass then plain/traced pairs."""
    if not trace:
        while True:
            yield "plain"
    yield "profile"
    while True:
        yield "plain"
        yield "traced"


def time_reference(kind: str, deadline: float) -> dict:
    """Wall time of ``workloads.reference_work(kind)`` in a fresh child."""
    child = run_child([sys.executable, str(HERE / "child.py"), "reference", kind], deadline)
    if child["code"] != 0:
        raise BenchmarkError("reference computation failed:\n" + child["stderr"].strip())
    return {"ref_s": json.loads(child["stdout"])["ref_s"], "elapsed_s": child["wall_s"]}


def measure(work: Workload, seconds: float, trace: bool) -> None:
    """Closed loop: start the next pass only if it should end within ``seconds``.

    Untraced runs time the reference computation before the first pass and
    after every pass; each pass is divided by the mean of the two references
    around it.
    """
    minimum = 3 if trace else 1
    start = perf_counter()
    kind = workloads.REFERENCE_KIND[work.name]
    before = None if trace else time_reference(kind, work.deadline)
    for mode in schedule(trace):
        record = work.run_pass(mode)
        if before is not None:
            after = time_reference(kind, work.deadline)
            record["ref_s"] = (before["ref_s"] + after["ref_s"]) / 2
            record["elapsed_s"] += after["elapsed_s"]
            before = after
        elapsed = perf_counter() - start
        typical = statistics.median(p["elapsed_s"] for p in work.passes)
        if len(work.passes) >= minimum and elapsed + typical > seconds:
            return


def p90(values: list[float]) -> float:
    """The 90th percentile, interpolated between the two samples around it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(work: Workload, setup_times: list[float]) -> tuple[dict[str, float], dict[str, float]]:
    """(metrics, the same times in seconds) over the passes that passed."""
    ok = [p for p in work.passes if not p.get("failed")]
    if not ok:
        return {}, {}
    walls = [p["wall_s"] for p in ok]
    relative = [p["wall_s"] / p["ref_s"] for p in ok]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_ref": work.ops_per_pass * len(ok) / sum(relative),
        "wall_ref_p50": statistics.median(relative),
        "wall_ref_tail": p90(relative),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in ok),
    }
    seconds = {
        "ops_per_s": work.ops_per_pass * len(ok) / sum(walls),
        "wall_s_p50": statistics.median(walls),
        "wall_s_tail": p90(walls),
        "ref_s_p50": statistics.median(p["ref_s"] for p in ok),
    }
    return metrics, seconds


def per_layer(work: Workload) -> dict[str, float]:
    ok = [p for p in work.passes if not p.get("failed")]
    traced = [p for p in ok if p["mode"] == "traced"]
    plain = [p for p in ok if p["mode"] == "plain"]
    if not traced or not plain:
        return {}
    out = {
        key: statistics.median(p["per_layer"][key] for p in traced)
        for key in traced[0]["per_layer"]
    }
    profiled = [p["fraction_share"] for p in ok if p["mode"] == "profile"]
    if profiled:
        out["rational.fraction_share"] = statistics.median(profiled)
    out["cli.cpu_s"] = (
        statistics.median(p["cpu_s"] for p in plain) if work.name == "verify_cli" else 0.0
    )
    out["trace.overhead_ratio"] = (
        statistics.median(p["wall_s"] for p in traced) / statistics.median(p["wall_s"] for p in plain)
    )
    return out


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unavailable (no git)"
    return done.stdout.strip() or "unavailable"


def _exit_on_sigterm(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if not (ROOT / "src" / "multiharm" / "__init__.py").is_file():
            raise BenchmarkError(f"no package at {ROOT / 'src' / 'multiharm'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        load_at_start = os.getloadavg()
        deadline = perf_counter() + HARD_LIMIT_S
        setup_times, backend = measure_setup(1 if args.trace else SETUP_REPEATS, deadline)
        work = Workload(args.workload, args.seed, deadline)
        measure(work, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values, seconds = per_layer(work), {}
    else:
        values, seconds = end_to_end(work, setup_times)
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted if m["name"] in values
    }
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        work.problems.append("no value for " + ", ".join(missing))
    correct = work.failed == 0 and not missing
    traced = next((p for p in work.passes if p["mode"] == "traced" and p.get("extras")), None)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": args.workload != "verify_cli",
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "kernel_backend": backend,
        "git_commit": git_commit(),
        "loadavg_at_start": load_at_start,
        "seconds": args.seconds,
        "passes": len(work.passes),
        "pass_modes": [p["mode"] for p in work.passes],
        "pass_wall_s": [round(p["wall_s"], 4) for p in work.passes],
        "pass_ref_s": [round(p["ref_s"], 4) for p in work.passes if "ref_s" in p],
        "ops_per_pass": work.ops_per_pass,
        "in_seconds": seconds,
        "failed_frac": work.failed / work.attempted,
        "tail_percentile": f"p90 of {len(work.passes)} passes, interpolated",
        "problems": work.problems,
    }
    if traced:
        meta["traced_extras"] = traced["extras"]
        meta["computed_from_arguments"] = ["kernels.fraction_mults"]
    print("meta " + json.dumps(meta))
    for name, m in metrics.items():
        print(f"{name:<40} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    for problem in work.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": work.attempted, "failed": work.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
