#!/usr/bin/env python3
"""Regenerates BENCH_tables.json, the paper-table snapshot the shape checks read.

Usage, from the root of a checkout with a CMake build in build/:

    python3 tools/bench_tables.py [--build build] [--out BENCH_tables.json]

For each table below (Table I on PreActResNet-18, Table II on VGG-16) it
runs the quick-scale bench through `bdctl shard run --workers 4` with
BDPROTO_THREADS=1, in a temporary directory, with every other BDPROTO_*
variable cleared (so BDPROTO_MODE is quick and BDPROTO_SEED the default
1234); the two take about 45 s on 4 cores. The shard workers append each finished cell to the run
journal (BDPROTO_JOURNAL); the script folds that journal into one row per
cell: attack, defense, SPC and the per-trial ACC, ASR, RA and pruned units.
Rows are sorted, and per-trial wall times are left out, so the file is
byte-stable: the table results do not depend on thread or process counts.

The `host` stamp names the host's cores, the engine threads, the shard
workers, the build type and the compiler. The git sha is not stamped: the
file is committed together with the sources that produced it, so the
commit that holds it is its sha. The script refuses (exit 1) a degraded
cell, a bench that fails, and a cell journaled twice with different results.
tests/shape_check.cpp checks the paper's claims over the file.
"""
import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLES = {"table1": "bench_table1_cifar_preactresnet",
          "table2": "bench_table2_cifar_vgg"}
WORKERS = 4
ENGINE_THREADS = 1
SEED = 1234
TRIAL_METRICS = ("acc", "asr", "ra", "pruned")


def fail(message):
    sys.exit(f"bench_tables: {message}")


def cmake_value(path, name):
    for line in path.read_text().splitlines():
        if line.startswith(f"set({name} "):
            return line.split('"')[1]
        if line.startswith(f"{name}:"):
            return line.split("=", 1)[1]
    return None


def host_stamp(build):
    build_type = cmake_value(build / "CMakeCache.txt", "CMAKE_BUILD_TYPE")
    compilers = sorted((build / "CMakeFiles").glob("*/CMakeCXXCompiler.cmake"))
    if not compilers:
        fail(f"{build} holds no configured C++ compiler")
    compiler_id = cmake_value(compilers[-1], "CMAKE_CXX_COMPILER_ID")
    version = cmake_value(compilers[-1], "CMAKE_CXX_COMPILER_VERSION")
    name = {"GNU": "gcc", "Clang": "clang"}.get(compiler_id, compiler_id)
    return {"cores": os.cpu_count(), "engine_threads": ENGINE_THREADS,
            "shard_workers": WORKERS,
            # CMakeLists.txt builds Release when no type is given.
            "build_type": build_type or "Release",
            "compiler": f"{name} {version}"}


def numbers(text):
    return [float(v) for v in text.split(",")] if text else []


def fold(journal):
    """One row per journaled cell, sorted: baselines first per attack."""
    rows = {}
    for line in journal.read_text().splitlines():
        fields = json.loads(line)["fields"]
        if fields.get("degraded") == "1":
            fail(f"{journal}: degraded cell {fields}")
        row = {"attack": fields["attack"]}
        if fields["cell"] == "baseline":
            row["defense"] = "baseline"
        else:
            row["defense"] = fields["defense"]
            row["spc"] = int(fields["spc"])
        for metric in TRIAL_METRICS:
            if metric in fields:
                row[metric] = numbers(fields[metric])
        key = (row["attack"], row.get("spc", 0), row["defense"])
        if rows.setdefault(key, row) != row:
            fail(f"{journal}: cell {key} journaled with different results")
    return [rows[key] for key in sorted(rows)]


def run_table(build, bench, scratch):
    env = {k: v for k, v in os.environ.items() if not k.startswith("BDPROTO_")}
    env["BDPROTO_THREADS"] = str(ENGINE_THREADS)
    journal = scratch / f"{bench}.journal"
    command = [str(build / "examples" / "bdctl"), "shard", "run",
               "--workers", str(WORKERS), "--journal", str(journal),
               "--out", str(scratch / f"{bench}.txt"), "--",
               str(build / "bench" / bench)]
    proc = subprocess.run(command, env=env, cwd=scratch, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        fail(f"{bench} exited with code {proc.returncode}:\n{proc.stdout}")
    return fold(journal)


def render(host, tables):
    """JSON with one row per line, so a re-pin diffs cell by cell."""
    def dumps(value):
        return json.dumps(value, sort_keys=True)
    out = ["{", f'  "host": {dumps(host)},', '  "tables": {']
    for t, (name, table) in enumerate(tables.items()):
        out.append(f"    {dumps(name)}: {{")
        out.append(f'      "bench": {dumps(table["bench"])},')
        out.append('      "mode": "quick",')
        out.append(f'      "seed": {SEED},')
        out.append('      "rows": [')
        rows = table["rows"]
        out += [f"        {dumps(row)}{',' if i + 1 < len(rows) else ''}"
                for i, row in enumerate(rows)]
        out.append("      ]")
        out.append("    }" + ("," if t + 1 < len(tables) else ""))
    out += ["  }", "}"]
    return "\n".join(out) + "\n"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build", type=Path, default=ROOT / "build")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_tables.json")
    args = parser.parse_args()
    build = args.build.resolve()
    host = host_stamp(build)
    tables = {}
    with tempfile.TemporaryDirectory(prefix="bench_tables.") as scratch:
        for name, bench in TABLES.items():
            tables[name] = {"bench": bench,
                            "rows": run_table(build, bench, Path(scratch))}
    args.out.write_text(render(host, tables))
    print(f"bench_tables: wrote {args.out}")


if __name__ == "__main__":
    main()
