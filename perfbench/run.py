#!/usr/bin/env python3
"""camad's end-to-end benchmark: build, run, check.

Run from the repository root.

  python3 perfbench/run.py --workload synth --seed 1 --seconds 20 --trace 0
      One workload run. The last line of stdout is one JSON object with
      the keys correct, attempted, failed and metrics; a correctness
      mismatch prints "correct": false and exits nonzero.

  python3 perfbench/run.py [--seed N] [--seconds S]
      Every workload in BENCHMARK.json, untraced and traced, each in its
      own process. Prints every metric by name with its unit and writes
      the records to .bench_build/perfbench/results.json.

  python3 perfbench/run.py --smoke
      The span folder's unit test, then every workload at minimum size,
      checking that each metric BENCHMARK.json names is emitted, finite
      and carries its unit.

The benchmark builds itself (perfbench/CMakeLists.txt) into
.bench_build/perfbench on first use; see perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TYPE = "RelWithDebInfo"  # the project's default build type
RUN_TIMEOUT_S = 175


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(targets):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no camad source tree next to", HERE)
        sys.exit(2)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        step(configure)
    step(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
          "--target"] + targets)


def step(command):
    result = subprocess.run(command, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    if result.returncode != 0:
        log(result.stdout)
        log("perfbench: failed:", " ".join(command))
        sys.exit(2)


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                             "HEAD"], stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    return result.stdout.strip() or "unknown"


def run_workload(workload, seed, seconds, trace, smoke=False, capture=False):
    """Runs one workload in its own process; returns (code, stdout)."""
    command = [os.path.join(BUILD, "camad_perf"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--root", ROOT, "--commit", commit()]
    if smoke:
        command.append("--smoke")
    try:
        result = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                                stdout=subprocess.PIPE if capture else None,
                                text=True)
    except subprocess.TimeoutExpired:
        log("perfbench:", workload, "did not finish within",
            RUN_TIMEOUT_S, "s")
        return 1, ""
    return result.returncode, result.stdout or ""


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_metrics(result, declared, where):
    """Every declared metric emitted, finite, with its unit; none extra."""
    problems = []
    metrics = result.get("metrics", {}) if result else {}
    for spec in declared:
        got = metrics.get(spec["name"])
        if got is None:
            problems.append(f"{where}: {spec['name']} missing")
        elif not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            problems.append(f"{where}: {spec['name']} is not finite")
        elif got.get("unit") != spec["unit"]:
            problems.append(f"{where}: {spec['name']} has unit "
                            f"{got.get('unit')!r}, not {spec['unit']!r}")
    extra = set(metrics) - {spec["name"] for spec in declared}
    if extra:
        problems.append(f"{where}: undeclared metrics {sorted(extra)}")
    if result is not None and not result.get("correct"):
        problems.append(f"{where}: correct is false")
    return problems


def smoke():
    build(["camad_perf", "fold_test"])
    if subprocess.run([os.path.join(BUILD, "fold_test")]).returncode != 0:
        return 1
    spec = benchmark_spec()
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            code, out = run_workload(workload, 1, 1, trace, smoke=True,
                                     capture=True)
            where = f"{workload} trace={trace}"
            if code != 0:
                problems.append(f"{where}: exit code {code}")
            try:
                problems += check_metrics(last_json(out), declared, where)
            except ValueError:
                problems.append(f"{where}: last line is not JSON")
            log(f"smoke: {where} done")
    for problem in problems:
        print("SMOKE FAILURE", problem)
    print("smoke:", "ok" if not problems else f"{len(problems)} failure(s)")
    return 1 if problems else 0


def run_all(seed, seconds):
    build(["camad_perf"])
    spec = benchmark_spec()
    records = []
    failed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, out = run_workload(workload, seed, seconds, trace,
                                     capture=True)
            print(out, end="", flush=True)
            try:
                result = last_json(out)
            except ValueError:
                result = None
            failed |= code != 0 or not result or not result.get("correct")
            records.append({"workload": workload, "trace": trace,
                            "seed": seed, "exit_code": code,
                            "output": out.splitlines()[:-1],
                            "result": result})
    path = os.path.join(BUILD, "results.json")
    with open(path, "w") as f:
        json.dump(records, f, indent=1)
    print("records written to", os.path.relpath(path, ROOT))
    if failed:
        print("perfbench: a run failed or reported a correctness mismatch")
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    seconds = args.seconds or benchmark_spec()["run_seconds"]
    if args.workload is None:
        return run_all(args.seed, seconds)
    build(["camad_perf"])
    sys.stdout.flush()
    code, _ = run_workload(args.workload, args.seed, seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
