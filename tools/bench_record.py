#!/usr/bin/env python3
"""Folds the saved perfbench runs of one workload into one trajectory record.

Usage, from the root of a checkout, after `python3 perfbench/run.py
--workload W --seed N --seconds S --trace 0` for one or more seeds:

    python3 tools/bench_record.py --workload W --pr N >> BENCH_trajectory.jsonl

Reads .bench_build/state/results/W-seed*-trace0.json and prints one JSON line:
the metadata the runs share, their seeds, the lowest host.run_share, the unit
totals and the median of each end-to-end metric in BENCHMARK.json. Refuses
(exit 1) if a run is not correct or has failed units, or if the runs differ in
any shared field, such as source_digest.

Of the two source stamps, source_digest names the tree that was measured.
git_sha is the checkout's HEAD when the runs were taken: for runs of an
uncommitted change it is that change's parent commit, not the change.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".bench_build" / "state" / "results"
SHARED = ("git_sha", "source_digest", "workload", "seconds", "nproc",
          "engine_threads", "build_type", "compiler")


def fail(message):
    sys.exit(f"bench_record: {message}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pr", type=int, help="change the record is filed under")
    args = parser.parse_args()

    runs = sorted((json.loads(p.read_text()) for p in
                   RESULTS.glob(f"{args.workload}-seed*-trace0.json")),
                  key=lambda run: run["meta"]["seed"])
    if not runs:
        fail(f"no saved {args.workload} runs under {RESULTS}")
    for run in runs:
        if not run["correct"] or run["failed"] != 0:
            fail(f"seed {run['meta']['seed']}: correct={run['correct']} "
                 f"failed={run['failed']} errors={run['errors']}")
    record = {"pr": args.pr}
    for key in SHARED:
        values = {run["meta"][key] for run in runs}
        if len(values) != 1:
            fail(f"runs differ in {key}: {sorted(values, key=str)}")
        record[key] = values.pop()
    record["seeds"] = [run["meta"]["seed"] for run in runs]
    record["run_share_min"] = min(
        run["metrics"]["host.run_share"]["value"] for run in runs)
    record["attempted"] = sum(run["attempted"] for run in runs)
    record["failed"] = 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record["metrics"] = {
        m["name"]: statistics.median(run["metrics"][m["name"]]["value"]
                                     for run in runs)
        for m in spec["end_to_end"]}
    print(json.dumps(record))


if __name__ == "__main__":
    main()
