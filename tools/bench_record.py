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

Paired records. Records taken in different sessions are not comparable: the
same tree has measured 2x apart on one host. So a change is best recorded
against its parent measured in the same session, alternating the two
checkouts run by run with the same seeds:

    python3 tools/bench_record.py --workload W --pr N --parent-dir P

P is the root of a checkout of the parent commit whose
.bench_build/state/results holds those runs. The parent's runs pass the same
checks as the change's, must have the same seeds and the same shared fields
except the two source stamps, and must measure a different source_digest.
The record then also holds parent_digest and, per end-to-end metric, the
ratio change/parent of the two medians. A paired record is printed and then
checked: the exit status is 1 if any ratio is worse than that metric's
`bound` in BENCHMARK.json. For a lower-is-better metric a ratio above
1 + bound fails, for a higher-is-better one a ratio below 1 - bound fails.
BENCHMARK.json is only read.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(".bench_build") / "state" / "results"
SHARED = ("git_sha", "source_digest", "workload", "seconds", "nproc",
          "engine_threads", "build_type", "compiler")
STAMPS = ("git_sha", "source_digest")


def fail(message):
    sys.exit(f"bench_record: {message}")


def load_runs(checkout, workload):
    """The checked runs of `workload` saved under `checkout`, by seed, and
    the metadata they share."""
    results = checkout / RESULTS
    runs = sorted((json.loads(p.read_text()) for p in
                   results.glob(f"{workload}-seed*-trace0.json")),
                  key=lambda run: run["meta"]["seed"])
    if not runs:
        fail(f"no saved {workload} runs under {results}")
    for run in runs:
        if not run["correct"] or run["failed"] != 0:
            fail(f"{results}: seed {run['meta']['seed']}: "
                 f"correct={run['correct']} failed={run['failed']} "
                 f"errors={run['errors']}")
    shared = {}
    for key in SHARED:
        values = {run["meta"][key] for run in runs}
        if len(values) != 1:
            fail(f"{results}: runs differ in {key}: {sorted(values, key=str)}")
        shared[key] = values.pop()
    return runs, shared


def medians(runs, spec):
    return {m["name"]: statistics.median(run["metrics"][m["name"]]["value"]
                                         for run in runs)
            for m in spec["end_to_end"]}


def worse_than_bound(metric, ratio):
    if metric["better"] == "lower":
        return ratio > 1 + metric["bound"]
    return ratio < 1 - metric["bound"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pr", type=int, help="change the record is filed under")
    parser.add_argument("--parent-dir", type=Path,
                        help="parent checkout whose runs pair with these")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs, shared = load_runs(ROOT, args.workload)
    record = {"pr": args.pr, **shared}
    record["seeds"] = [run["meta"]["seed"] for run in runs]
    record["run_share_min"] = min(
        run["metrics"]["host.run_share"]["value"] for run in runs)
    record["attempted"] = sum(run["attempted"] for run in runs)
    record["failed"] = 0
    record["metrics"] = medians(runs, spec)

    violations = []
    if args.parent_dir is not None:
        parent_runs, parent = load_runs(args.parent_dir, args.workload)
        parent_seeds = [run["meta"]["seed"] for run in parent_runs]
        if parent_seeds != record["seeds"]:
            fail(f"parent seeds {parent_seeds} != seeds {record['seeds']}")
        for key in SHARED:
            if key not in STAMPS and parent[key] != shared[key]:
                fail(f"parent {key} {parent[key]!r} != {shared[key]!r}")
        if parent["source_digest"] == shared["source_digest"]:
            fail("parent runs measured the same source_digest")
        record["parent_digest"] = parent["source_digest"]
        parent_medians = medians(parent_runs, spec)
        record["parent_metrics"] = parent_medians
        record["ratios"] = {}
        for m in spec["end_to_end"]:
            name = m["name"]
            ratio = (record["metrics"][name] / parent_medians[name]
                     if parent_medians[name] else float("nan"))
            record["ratios"][name] = ratio
            if ratio != ratio or worse_than_bound(m, ratio):
                violations.append(f"{name}: change/parent {ratio:.4g} "
                                  f"({m['better']} is better, bound "
                                  f"{m['bound']})")
    print(json.dumps(record))
    if violations:
        fail("paired ratios outside their bounds: " + "; ".join(violations))


if __name__ == "__main__":
    main()
