#!/usr/bin/env python3
"""Builds and runs one perfbench workload; prints its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload table_vgg --seed 1 \
        --seconds 12 --trace 0

The first call configures and compiles perfbench/ together with the library
sources under src/ into .bench_build/ (Release); later calls rebuild only
what changed. Every BDPROTO_* variable is removed from the benchmark's
environment. The full result (samples, notes, errors, host and build
metadata) is saved under .bench_build/state/results/; stdout ends with one
JSON line holding correct, attempted, failed and the metrics named in
BENCHMARK.json (end_to_end with --trace 0, per_layer with --trace 1).
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
STATE = ROOT / ".bench_build" / "state"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src").is_dir():
        fail(f"no library sources at {ROOT / 'src'}; run from a full checkout")
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def git_sha():
    if (ROOT / ".git").exists() and shutil.which("git"):
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True).stdout.strip()
    return ""


def source_digest():
    """SHA-256 over the sources compiled into the benchmark: the version
    that reference results are kept for (uncommitted edits included)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".h", ".txt"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    expected = spec["per_layer" if args.trace else "end_to_end"]

    build()
    STATE.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("BDPROTO_")}
    command = [str(BUILD / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--state-dir", str(STATE),
               "--source-digest", source_digest(), "--git-sha", git_sha() or "none"]
    try:
        proc = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {proc.returncode}")
    result = json.loads(lines[-1])

    # Per-layer metrics of layers a workload does not run are reported as 0.
    metrics = result["metrics"]
    for m in expected:
        if args.trace and m["name"] not in metrics:
            metrics[m["name"]] = {"value": 0.0, "unit": m["unit"], "samples": 0,
                                  "note": "not on this workload's path"}
    names = [m["name"] for m in expected]
    missing = sorted(set(names) - set(metrics))
    if missing:
        fail(f"metrics {missing} named in BENCHMARK.json were not reported")
    # Diagnostics the run adds beside them are printed and saved only.
    extras = sorted(set(metrics) - set(names))
    for m in expected:
        if metrics[m["name"]]["unit"] != m["unit"]:
            fail(f"{m['name']} is in {metrics[m['name']]['unit']}, "
                 f"BENCHMARK.json says {m['unit']}")

    results = STATE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(result, indent=1) + "\n")

    print("meta " + json.dumps(result["meta"], sort_keys=True))
    for error in result["errors"]:
        print("check failed: " + error)
    for name in names + extras:
        m = metrics[name]
        print(f"{name:34s} {m['value']:.6g} {m['unit']} (n={m['samples']})"
              + (f"  {m['note']}" if m["note"] else ""))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": metrics[n]["value"],
                        "unit": metrics[n]["unit"]} for n in names},
    }))


if __name__ == "__main__":
    main()
