#!/usr/bin/env python3
"""Whole-system benchmark: build the program from source, run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload batch|serve --seed N \
        --seconds S --trace 0|1 [--scale X]
    python3 perfbench/run.py --self-test

The library under src/ and the program in perfbench/src/ are compiled
into .bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench when that
is set) on first use. The program's standard output is passed through;
its last line is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 1 the spans of the run are also
written as Chrome trace-event JSON under <build dir>/traces/, which
Perfetto or about:tracing open offline.

Exit status: 0 when every correctness check held, 1 when one failed,
2 when the build or set-up failed (no result line is printed then).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("batch", "serve")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(target)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("library sources not found under " + str(ROOT / "src"))
    out = build_dir()
    jobs = str(min(os.cpu_count() or 1, 4))
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return out / "perfbench"


def run(binary, workload, seed, seconds, trace, scale=None, extra=()):
    """Runs the program once; returns (exit code, stdout lines)."""
    out = build_dir()
    work = out / "work-{}".format(os.getpid())
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(work)]
    if scale is not None:
        cmd += ["--scale", str(scale)]
    if trace:
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / "{}-{}.json".format(workload, seed))]
    cmd += list(extra)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: run exceeded {} s".format(RUN_TIMEOUT_S),
              file=sys.stderr)
        return 2, []
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    return proc.returncode, stdout.splitlines()


def result_of(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return result if isinstance(result, dict) else None


def self_test(binary):
    """Small-scale checks of the benchmark itself.

    Every named metric is present with its unit, nothing fails on a
    correct program, and each oracle fails when handed a wrong reference.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def expect_metrics(result, metrics, what):
        for metric in metrics:
            got = result["metrics"].get(metric["name"])
            if got is None:
                problems.append("{}: {} missing".format(what, metric["name"]))
            elif got.get("unit") != metric["unit"]:
                problems.append("{}: {} has unit {!r}, want {!r}".format(
                    what, metric["name"], got.get("unit"), metric["unit"]))

    for workload in WORKLOADS:
        code, lines = run(binary, workload, 11, 2, 0, scale=0.1)
        result = result_of(lines)
        what = workload + " (trace 0)"
        if code != 0 or result is None or not result["correct"] or \
                result["failed"] != 0 or result["attempted"] < 1:
            problems.append("{}: exit {} result {}".format(what, code, result))
            continue
        expect_metrics(result, spec["end_to_end"], what)

    code, lines = run(binary, "batch", 11, 2, 1, scale=0.1)
    result = result_of(lines)
    if code != 0 or result is None or result["failed"] != 0:
        problems.append("batch (trace 1): exit {} result {}".format(code, result))
    else:
        expect_metrics(result, spec["per_layer"], "batch (trace 1)")
        trace = json.loads(
            (build_dir() / "traces" / "batch-11.json").read_text())
        events = trace.get("traceEvents", [])
        if not events or not all(
                {"name", "ts", "dur"} <= set(e) and
                {"span", "parent", "run"} <= set(e["args"]) for e in events):
            problems.append("chrome trace is empty or lacks span fields")

    for workload in WORKLOADS:
        code, lines = run(binary, workload, 11, 1, 0, scale=0.1,
                          extra=["--corrupt-reference"])
        result = result_of(lines)
        if code == 0 or (result is not None and result["correct"]):
            problems.append("{}: a wrong reference did not fail the run "
                            "(exit {})".format(workload, code))

    for problem in problems:
        print("self-test: " + problem)
    print("self-test: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2008)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float,
                        help="event-rate scale of every build (default 1.0)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as err:
        print("perfbench: build failed: {}".format(err), file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(binary)
    code, lines = run(binary, args.workload, args.seed, args.seconds,
                      args.trace, scale=args.scale)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
