"""Benchmark of remodyc through its library API.

    python3 bench/run.py --workload eggs_file --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from anywhere: the repository root is the parent of this directory,
and ``src/`` there is what gets measured.  Earlier output lines are a
human-readable report (environment, every metric of bench/README.md with
its unit and sample count); the last line is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exit status: 0 when every output matched its golden, 1 when one did
not, 2 when the workload could not run at all.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("eggs_file", "eggs_large_mem", "replay", "check_corpus")

# Extra timed set-ups before each pass; spreading them over the run keeps
# their median from hanging on one moment of the host's load.
EXTRA_SETUPS_PER_PASS = 2


def percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def environment(args) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def measure(workload, seconds: float, expected, time_setup: bool, tracer=None):
    """Whole passes while the next one, as long as the last, still ends
    within ``seconds``; each pass's set-up is timed, and with
    ``time_setup`` a few more set-ups are timed before it.  Set-up times
    are calibrated by a chunk on either side.
    With a ``tracer``, the span ranges of the set-ups and of the passes
    are returned apart, so that each layer metric counts only its phase."""
    from workloads import CALIBRATION_MS, calibrate, guarded_pass

    clock = time.perf_counter
    mark = tracer.mark if tracer else (lambda: 0)
    setups: list[float] = []
    passes = []
    phases: dict[str, list[range]] = {"setup": [], "pass": []}

    def timed_setup():
        before = calibrate(1)
        start = clock()
        state = workload.setup()
        elapsed = clock() - start
        setups.append(elapsed * 2 * CALIBRATION_MS / (before + calibrate(1)))
        return state

    begin = last = clock()
    while not passes or 2 * clock() - begin - last <= seconds:
        last = clock()
        first = mark()
        for _ in range(EXTRA_SETUPS_PER_PASS if time_setup else 0):
            workload.discard(timed_setup())
        state = timed_setup()
        middle = mark()
        phases["setup"].append(range(first, middle))
        try:
            passes.append(guarded_pass(workload, state, expected))
            phases["pass"].append(range(middle, mark()))
        finally:
            workload.discard(state)
    return setups, passes, phases


def complete(passes) -> list:
    return [p for p in passes if not p.aborted]


def wall_s(passes) -> float:
    """The median over complete passes of a pass's calibrated time."""
    return statistics.median(p.calibrated_ms for p in complete(passes)) / 1000.0


def op_profile(passes, probes: bool = False) -> list[float]:
    """Each operation's (or resume+step probe's) median calibrated time
    over the complete passes."""
    rows = [p.calibrated()[int(probes)] for p in complete(passes)]
    return [statistics.median(times) for times in zip(*rows)]


def end_to_end(workload, setups, passes) -> dict[str, tuple[float, str]]:
    """The gated metrics, named alike for every workload (an operation is
    a tick, a frame load or one model), then the workload's own names.
    Times are calibrated; ``raw_wall_s`` and ``slowdown`` show what the
    clock read and how fast the core ran."""
    ops = op_profile(passes)
    wall = wall_s(passes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "op_ms_p50": (statistics.median(ops), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    op = workload.op_name
    done = complete(passes)
    counts = done[0].counts
    samples = [ms for p in done for ms in p.calibrated()[0]]
    details = {f"{op}_ms_p50": metrics["op_ms_p50"]}
    tail = 95 if len(samples) >= 200 else 75 if len(samples) >= 40 else None
    if tail:
        details[f"{op}_ms_p{tail}"] = (percentile(samples, tail), "ms")
    if op == "tick":
        details["ticks_per_s"] = (len(ops) / wall, "1/s")
        details["activations_per_s"] = (counts.get("interp.activations", 0) / wall, "1/s")
    if op == "load":
        resumes = op_profile(passes, probes=True)
        details["resume_step_ms_p50"] = (statistics.median(resumes), "ms")
    if "trace_bytes" in counts:
        details["trace_mb"] = (counts["trace_bytes"] / 1e6, "MB")
    attempted = sum(p.attempted for p in passes)
    details["error_rate"] = (sum(p.failed for p in passes) / max(attempted, 1), "ratio")
    details["raw_wall_s"] = (statistics.median(p.raw_ms for p in done) / 1000.0, "s")
    details["slowdown"] = (statistics.median(p.slowdown for p in done), "ratio")
    return metrics, details


def per_layer(summary: dict, setup_summary: dict, passes, overhead: float
              ) -> dict[str, tuple[float, str]]:
    """Layer metrics from the traced passes: ``_ms``/``_us`` are means per
    call, interp and ``memory.store`` times are self times, counts are
    per pass.  Only ``interp.setup_ms`` comes from the set-ups."""
    n = len(passes)
    counts = complete(passes)[0].counts

    def entry(name, spans=summary):
        return spans.get(name, {"calls": 0, "ns": 0, "self_ns": 0, "extra": 0})

    def per_call(name, scale, own=False, spans=summary):
        e = entry(name, spans)
        return e["self_ns" if own else "ns"] / e["calls"] / scale if e["calls"] else 0.0

    def ms(name, own=False, spans=summary):
        return per_call(name, 1e6, own, spans)

    work = counts.get("interp.activations", 0)
    step_self_ns = entry("interp.step")["self_ns"]
    tokenize_ns = entry("parser.tokenize")["ns"]
    stores = entry("memory.store")
    return {
        "interp.us_per_activation": (step_self_ns / 1e3 / (work * n) if work else 0.0, "us"),
        "interp.step_self_ms": (ms("interp.step", own=True), "ms"),
        "interp.activations": (work, "count"),
        "interp.setup_ms": (ms("interp.setup", own=True, spans=setup_summary), "ms"),
        "interp.resume_ms": (ms("interp.resume", own=True), "ms"),
        "rng.draws": (counts.get("rng.draws", 0), "count"),
        "rng.sample_calls": (entry("rng.sample")["calls"] / n, "count"),
        "rng.sample_us": (per_call("rng.sample", 1e3), "us"),
        "memory.store_ms": (ms("memory.store", own=True), "ms"),
        "memory.apply_frame_ms": (ms("memory.apply_frame"), "ms"),
        "memory.allocations": (entry("memory.allocate")["calls"] / n, "count"),
        "memory.kills": (entry("memory.kill")["calls"] / n, "count"),
        "memory.values_per_frame": (
            stores["extra"] / stores["calls"] if stores["calls"] else 0.0, "count"
        ),
        "memory.append_ms": (ms("memory.append"), "ms"),
        "memory.append_bytes": (counts.get("memory.append_bytes", 0), "B"),
        "memory.load_ms": (ms("memory.load"), "ms"),
        "parser.tokenize_ms": (ms("parser.tokenize"), "ms"),
        "parser.parse_ms": (ms("parser.parse"), "ms"),
        "parser.print_ms": (ms("parser.print"), "ms"),
        "parser.tokens_per_s": (
            entry("parser.tokenize")["extra"] / (tokenize_ns / 1e9) if tokenize_ns else 0.0,
            "1/s",
        ),
        "units.parse_unit_us": (per_call("units.parse_unit", 1e3), "us"),
        "units.parse_unit_calls": (entry("units.parse_unit")["calls"] / n, "count"),
        "typecheck.check_ms": (ms("typecheck.check"), "ms"),
        "typecheck.diagnostics": (entry("typecheck.check")["extra"] / n, "count"),
        "trace_overhead": (overhead, "ratio"),
    }


def make_workload(name: str, seed: int, work):
    import workloads as w

    goldens = w.load_goldens()
    if name == "eggs_file":
        return w.RunWorkload(
            name, w.MODELS / "eggs.rmd", w.MODELS / "eggs.cfg", True, work,
            goldens.get(name),
        )
    if name == "eggs_large_mem":
        return w.RunWorkload(
            name, w.MODELS / "eggs.rmd", w.DATA / "large.cfg", False, work,
            goldens.get(name), chunks=8,
        )
    if name == "replay":
        workload = w.ReplayWorkload(seed, work, goldens)
        workload.write_trace()
        return workload
    return w.CorpusWorkload(seed, goldens)


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:>16.6g} {unit}")


def run_one(args) -> int:
    from workloads import BenchError, WorkDir

    env = environment(args)
    print("environment " + json.dumps(env))
    work = WorkDir()
    try:
        try:
            workload = make_workload(args.workload, args.seed, work)
            expected = workload.expected_counts()
        except BenchError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        if args.trace:
            from tracer import Tracer

            _, plain, _ = measure(workload, args.seconds / 2, expected, time_setup=False)
            tracer = Tracer()
            tracer.install()
            try:
                _, traced, phases = measure(
                    workload, args.seconds / 2, expected, time_setup=False, tracer=tracer
                )
            finally:
                tracer.uninstall()
            passes = plain + traced
        else:
            setups, passes, _ = measure(workload, args.seconds, expected, time_setup=True)
    finally:
        work.close()
    failed = sum(p.failed for p in passes)
    for p in passes:
        for problem in p.problems:
            print(f"FAILED {args.workload}: {problem}", file=sys.stderr)
    groups = (plain, traced) if args.trace else (passes,)
    if not all(complete(group) for group in groups):
        return 1
    if args.trace:
        overhead = wall_s(traced) / wall_s(plain)
        metrics = per_layer(
            tracer.summary(phases["pass"]), tracer.summary(phases["setup"]), traced, overhead
        )
        print_metrics(f"per-layer metrics ({len(passes)} passes)", metrics)
    else:
        metrics, details = end_to_end(workload, setups, passes)
        ops = len(complete(passes)[0].ops_ms)
        print_metrics(
            f"end-to-end metrics ({len(passes)} passes of {ops} {workload.op_name} "
            f"operations, {len(setups)} set-ups)",
            metrics,
        )
        print_metrics("workload metrics", details)
    print("exact counts per pass " + json.dumps(complete(passes)[0].counts))
    result = {
        "correct": failed == 0,
        "attempted": sum(p.attempted for p in passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    results = {}
    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(command, capture_output=True, text=True)
        print(f"== {name} (exit {done.returncode})")
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if done.returncode in (0, 1) and lines else None
        status = max(status, done.returncode)
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (SRC / "remodyc" / "__init__.py", ROOT / "models" / "eggs.rmd"):
        if not needed.is_file():
            print(f"error: {needed} is missing; run from a remodyc checkout", file=sys.stderr)
            return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import remodyc

    if Path(remodyc.__file__).resolve().parent != SRC / "remodyc":
        print(f"error: imported remodyc from {remodyc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
