#!/usr/bin/env python3
"""Builds the rtrec benchmark from source and runs one workload.

    python3 perfbench/run.py --workload ingest|serve|mixed --seed N \
        --seconds S --trace 0|1

Run from the repository root. The driver is built in Release under
.bench_build (or $CARGO_TARGET_DIR when set) with CMake; the first run
builds everything, later runs rebuild incrementally. The driver's
stderr (server logs and the quality-event alert log) goes to a file under
the build directory, not the terminal. Stdout carries a host fingerprint
line, the driver's notes, and as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is non-zero
when a correctness check fails or the build or run does not complete.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
RUN_TIMEOUT_S = 170


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(out_dir):
    """Configures and builds the driver; returns its path or None."""
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "build.log"
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [["cmake", "-S", str(BENCH), "-B", str(out_dir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out_dir), "--target",
              "perfbench_driver", "-j", jobs]]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, cwd=ROOT, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                print(f"perfbench: build failed, see {log_path}",
                      file=sys.stderr)
                return None
    driver = out_dir / "perfbench_driver"
    return driver if driver.exists() else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_sha():
    """The git commit when run in a clone, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted(p for d in ("src", "perfbench")
                       for p in (ROOT / d).rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def cache_value(out_dir, key):
    try:
        text = (out_dir / "CMakeCache.txt").read_text()
    except OSError:
        return ""
    match = re.search(rf"^{key}:[A-Z]+=(.*)$", text, re.M)
    return match.group(1) if match else ""


def fingerprint(out_dir):
    compiler = cache_value(out_dir, "CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        try:
            version = subprocess.run([compiler, "--version"],
                                     capture_output=True, text=True,
                                     timeout=10).stdout.splitlines()[0]
        except (OSError, subprocess.TimeoutExpired, IndexError):
            pass
    flags = cache_value(out_dir, "CMAKE_CXX_FLAGS")
    sanitizer = re.findall(r"-fsanitize=(\S+)", flags)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "compiler": version or compiler or "unknown",
        "build_type": cache_value(out_dir, "CMAKE_BUILD_TYPE") or "unknown",
        "sanitizer": ",".join(sanitizer) or "none",
        "git_sha": source_sha(),
    }


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ingest", "serve", "mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    driver = build(out_dir)
    if driver is None:
        return 1
    print("host: " + json.dumps(fingerprint(out_dir)), flush=True)

    log_dir = out_dir / "logs"
    log_dir.mkdir(exist_ok=True)
    stderr_path = log_dir / (f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.stderr")
    command = [str(driver), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    with open(stderr_path, "w") as err:
        try:
            proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=err, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"perfbench: driver timed out after {RUN_TIMEOUT_S} s",
                  file=sys.stderr)
            return 1
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        print(f"perfbench: driver exited {proc.returncode}, see "
              f"{stderr_path}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if args.trace:
        with open(stderr_path, errors="replace") as err:
            alerts = sum("quality-event" in line for line in err)
        metrics["quality.alert_log_lines"] = {"value": alerts,
                                              "unit": "count"}

    correct = bool(result["correct"])
    expected = expected_metrics(args.trace)
    if sorted(metrics) != sorted(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        print(f"perfbench: metric set differs from BENCHMARK.json: missing "
              f"{missing}, unexpected {extra}", file=sys.stderr)
        correct = False
    for name, metric in metrics.items():
        value = metric["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            print(f"perfbench: {name} has no finite value", file=sys.stderr)
            correct = False
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: metrics[name] for name in expected
                    if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
