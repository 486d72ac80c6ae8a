#!/usr/bin/env python3
"""Fold benchmark run records into a committed BENCH_<label>.json snapshot.

bench/run.py appends one JSON record per run to bench/results/runs.jsonl.
This script selects the untraced records of each named revision and writes,
per revision, the environment the runs saw and, per workload, the run count,
seeds, run length, attempted and failed operations, and the median and
quartiles (with IQR = q3 - q1) of every end-to-end metric that
BENCHMARK.json gates:

    python3 scripts/bench_snapshot.py bench/results/runs.jsonl \\
        --revision PARENT_REV --revision CHANGE_REV --output BENCH_N.json

A revision matches every record whose git revision starts with it; records
of several files are pooled (for instance runs made in two checkouts).  The
snapshots appear in the order the revisions are given, so a parent and its
change can share one file.  A revision with no records, or whose records
come from different machines or library versions, is an error (exit 2).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) by the method bench/run.py uses for its verdicts."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def snapshot(records: list[dict], revision: str, gated: list[dict]) -> dict:
    """Environment and per-workload summaries of one revision's untraced runs."""
    runs = [r for r in records
            if r["environment"]["revision"].startswith(revision) and not r["trace"]]
    if not runs:
        raise ValueError(f"no untraced runs of revision {revision!r}")
    environments = {json.dumps({k: v for k, v in r["environment"].items() if k != "revision"},
                               sort_keys=True) for r in runs}
    if len(environments) > 1:
        raise ValueError(f"runs of revision {revision!r} come from {len(environments)} "
                         "different environments")
    workloads = {}
    for name in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == name]
        metrics = {}
        for m in gated:
            q1, med, q3 = _quartiles([r["metrics"][m["name"]] for r in mine])
            metrics[m["name"]] = {"unit": m["unit"], "better": m["better"], "median": med,
                                  "q1": q1, "q3": q3, "iqr": q3 - q1}
        workloads[name] = {
            "runs": len(mine),
            "seeds": sorted(r["seed"] for r in mine),
            "seconds": sorted({r["seconds"] for r in mine}),
            "attempted": sum(r["attempted"] for r in mine),
            "failed": sum(r["failed"] for r in mine),
            "metrics": metrics,
        }
    return {
        "revision": runs[0]["environment"]["revision"],
        "environment": {k: v for k, v in runs[0]["environment"].items() if k != "revision"},
        "workloads": workloads,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs", nargs="+", type=Path, help="runs.jsonl files of bench/run.py")
    parser.add_argument("--revision", action="append", required=True,
                        help="git revision (or prefix) to fold; repeat for several")
    parser.add_argument("--output", type=Path, required=True, help="snapshot file to write")
    args = parser.parse_args(argv)

    gated = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    records = [json.loads(line) for path in args.runs
               for line in path.read_text().splitlines() if line.strip()]
    try:
        snapshots = [snapshot(records, rev, gated) for rev in args.revision]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args.output.write_text(json.dumps({"snapshots": snapshots}, indent=2) + "\n")
    print(f"wrote {args.output} ({len(snapshots)} revision(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
