#!/usr/bin/env python3
"""Benchmark of the optomech toolkit: three seeded closed-loop workloads.

Run one workload:

    python3 bench/run.py --workload steady-sweep --seed 1 --seconds 20 --trace 0

Compare two sets of runs (each a runs.jsonl written by earlier runs):

    python3 bench/run.py --compare parent.jsonl change.jsonl

Workloads (each one client that starts a pass when the previous one ends):

  steady-sweep  stability-map, bistability, hysteresis and static-potential
                commands through cli.run_command + cli.write_tables.
  time-trace    mean-field and covariance commands through the same path.
  cooling-scan  a red-detuned (Delta0, A_l) grid at n_th = 10 through the
                scalar library API, written as one table by cli.emit_csv.

Inputs come only from the seed (inputs.py).  Set-up time is the median of
several fresh interpreters that import optomech and load the generated
configs (setup_probe.py).  The passes run in one single-threaded worker
process (worker.py).  Pass times are reported both as the best pass
(wall_best_s, compute_best_s, write_best_s, rows_per_s) and as the median
pass (wall_s, compute_s, write_s), plus the tail percentile; BENCHMARK.json
gates the best-pass figures: on a shared host, interference from other
tenants slows whole stretches of a run, which moves the median pass much
more from run to run than the best pass (timeit's reasoning: slower repeats
measure interference, not the code).  Every output is checked against independent oracles
(oracles.py) and byte-compared across passes, and any mismatch or exception
counts as a failed operation.  With --trace 1 the worker alternates untraced
passes with passes that record spans around the layer functions (tracer.py),
and the per-layer metrics replace the end-to-end ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the metric names, units and bounds come from
BENCHMARK.json.  Each run also appends a full record (environment, sizes,
pass times) to bench/results/runs.jsonl and, when traced, writes its spans to
bench/results/.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"   # every matrix is 4x4 or 16x16; threads only add noise

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import inputs  # noqa: E402
import oracles  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_LAUNCHES = 7          # timed fresh interpreters; the median is reported
TAIL_BEYOND = 10            # samples that must lie beyond the tail percentile
WORKER_GRACE_S = 90.0       # worker time allowed beyond --seconds before it is killed


def _environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "revision": _revision(),
        "threads": {v: os.environ[v] for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _tail(values: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least TAIL_BEYOND samples beyond it."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return max(values), 100
    q = math.floor(100 * (n - TAIL_BEYOND) / n)
    rank = max(1, math.ceil(q * n / 100))
    return sorted(values)[rank - 1], q


def _rows(paths: list[Path]) -> int:
    return sum(max(0, p.read_bytes().count(b"\n") - 1) for p in paths)


# ---------------------------------------------------------------------------
# one run


def _setup_times(configs: list[Path], env: dict) -> list[float]:
    probe = [sys.executable, str(BENCH / "setup_probe.py")] + [str(c) for c in configs]
    times = []
    for k in range(SETUP_LAUNCHES + 1):
        out = subprocess.run(probe, env=env, capture_output=True, text=True, timeout=60,
                             check=True)
        if k:   # the first launch compiles bytecode, which users pay once
            times.append(float(out.stdout.strip()))
    return times


def run(args) -> int:
    if not (ROOT / "src" / "optomech" / "__init__.py").is_file():
        print(f"error: no optomech sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    generated = inputs.generate(args.workload, args.seed)
    work = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    try:
        return _run_in(args, spec, generated, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:   # another run still uses it
            pass


def _run_in(args, spec: dict, generated: dict, work: Path) -> int:
    configs = {}
    for name, config in generated["configs"].items():
        configs[name] = work / "inputs" / f"{name}.json"
        configs[name].write_text(json.dumps(config, indent=2))
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = str(ROOT / "src")
    setup = _setup_times(list(configs.values()), child_env)

    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    job = {
        "workload": args.workload,
        "configs": {name: str(path) for name, path in configs.items()},
        "cooling_grid": generated.get("cooling_grid"),
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "work_dir": str(work),
        "result_path": str(work / "result.json"),
        "spans_path": str(RESULTS / f"spans-{args.workload}-{args.seed}-{stamp}.npz"),
    }
    (work / "job.json").write_text(json.dumps(job))
    worker = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(work / "job.json")],
        env=child_env, capture_output=True, text=True,
        timeout=args.seconds + WORKER_GRACE_S,
    )
    if worker.returncode != 0:
        sys.stderr.write(worker.stderr)
        print(f"error: worker exited with code {worker.returncode}", file=sys.stderr)
        return 1
    result = json.loads((work / "result.json").read_text())

    # oracles, on the warm-up pass's reference output
    ref = work / "reference"
    if args.workload == "cooling-scan":
        problems, bad_points = oracles.check_cooling(
            generated["configs"]["cooling"], generated["cooling_grid"], ref / "cooling.csv")
        oracle_failed = {result["operations"][k] for k in bad_points}
        oracle_problems = {"cooling": problems + [f"{len(bad_points)} points miss the oracle"]
                           if bad_points else problems}
        tables = [ref / "cooling.csv"]
    else:
        oracle_problems = oracles.check_commands(generated["configs"], ref)
        oracle_failed = {name for name, found in oracle_problems.items() if found}
        tables = sorted(ref.glob("*/*.csv"))
    always_failed = oracle_failed | set(result["warmup_errors"])

    all_passes = result["passes"] + result.get("traced_passes", [])
    attempted = len(result["operations"]) * len(all_passes)
    failed = sum(len(always_failed | set(p["failed"])) for p in all_passes)
    table_problems = [f"{op}: {msg}" for op, found in oracle_problems.items() for msg in found]
    correct = failed == 0 and not table_problems

    passes = result["passes"]
    wall, compute, write = ([p[k] for p in passes] for k in ("wall", "compute", "write"))
    tail, percentile = _tail(wall)
    rows = _rows(tables)
    values = {
        "setup_s": statistics.median(setup),
        "wall_best_s": min(wall),
        "compute_best_s": min(compute),
        "write_best_s": min(write),
        "rows_per_s": rows / min(wall),
        "wall_tail_s": tail,
        "peak_rss_mb": result["peak_rss_mb"],
        # reported and recorded, but not gated (see the module docstring)
        "wall_s": statistics.median(wall),
        "compute_s": statistics.median(compute),
        "write_s": statistics.median(write),
        "fail_ratio": failed / attempted,
    }
    trace = result.get("trace")
    if trace:
        for metric, fig in trace["functions"].items():
            for key in ("calls", "self_s", "fails"):
                values[f"{metric}.{key}"] = fig[key]
        values["classical.solve_intracavity_occupancy.distinct_ratio"] = trace["solve_distinct_ratio"]
        values["classical.solve_intracavity_occupancy.roots_per_call"] = trace["solve_roots_per_call"]
        values["cli.emit_csv.bytes"] = trace["emit_bytes"]
        values["cli.emit_csv.rows"] = trace["emit_rows"]
        traced_wall = statistics.median(p["wall"] for p in result["traced_passes"])
        values["trace.overhead_ratio"] = traced_wall / values["wall_s"]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "time": stamp,
        "environment": _environment(),
        "sizes": {
            "operations_per_pass": len(result["operations"]),
            "rows_per_pass": rows,
            "grids": {name: c["grids"] for name, c in generated["configs"].items()},
            "cooling_grid": generated.get("cooling_grid"),
        },
        "passes": len(passes),
        "traced_passes": len(result.get("traced_passes", [])),
        "wall_tail_percentile": percentile,
        "setup_samples": setup,
        "wall_samples": wall,
        "compute_samples": compute,
        "write_samples": write,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": table_problems[:50],
        "absent": [m for m, fig in (trace or {}).get("functions", {}).items() if fig["absent"]],
        "metrics": values,
    }
    with open(RESULTS / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")

    _print_report(record, spec, trace)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _print_report(record: dict, spec: dict, trace: dict | None) -> None:
    values = record["metrics"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"revision {record['environment']['revision']}")
    print(f"  {record['sizes']['operations_per_pass']} operations and "
          f"{record['sizes']['rows_per_pass']} rows per pass; {record['passes']} untraced passes"
          + (f", {record['traced_passes']} traced" if trace else ""))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    ungated = {"wall_s": "s", "compute_s": "s", "write_s": "s", "fail_ratio": "ratio"}
    for name, unit in {**units, **ungated}.items():
        note = ""
        if name == "wall_tail_s":
            note = f"  (p{record['wall_tail_percentile']} of {record['passes']} passes)"
        elif name == "setup_s":
            note = f"  (median of {len(record['setup_samples'])} launches)"
        elif name in ungated:
            note = "  (median pass)" if unit == "s" else "  (failed / attempted operations)"
        print(f"  {name:<14} {values[name]:>14.6g} {unit}{note}")
    for problem in record["problems"][:10]:
        print(f"  oracle: {problem}")
    if not trace:
        return
    total = sum(f["self_s"] for f in trace["functions"].values()) + trace["bench_self_s"]
    print(f"  traced: {trace['spans']} spans, overhead ratio {values['trace.overhead_ratio']:.3f}")
    print(f"  {'function':<40} {'calls/pass':>11} {'self s/pass':>12} {'share':>7} fails")
    ranked = sorted(trace["functions"].items(), key=lambda kv: -kv[1]["self_s"])
    for metric, fig in ranked:
        if fig["absent"]:
            print(f"  {metric:<40} absent")
        elif fig["calls"]:
            print(f"  {metric:<40} {fig['calls']:>11.0f} {fig['self_s']:>12.6f} "
                  f"{100 * fig['self_s'] / total:>6.1f}% {fig['fails']:g}")
    print(f"  {'(benchmark code)':<40} {'':>11} {trace['bench_self_s']:>12.6f} "
          f"{100 * trace['bench_self_s'] / total:>6.1f}%")


# ---------------------------------------------------------------------------
# compare


def _load_runs(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _verdict(parent: list[float], change: list[float], better: str, bound: float | None) -> str:
    """choosing-metrics 6.5 and 8: improved, unchanged, worse or unresolved."""
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = _quartiles(parent)
    _, c_med, _ = _quartiles(change)
    spread = p_q3 - p_q1
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    losses = sum(sign * (c - p) > 0 for p, c in pairs)
    if pairs and wins >= 0.9 * len(pairs) and abs(c_med - p_med) > spread:
        return "improved"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and abs(c_med - p_med) > spread:
            return "worse"
        return "unresolved"
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if p_med and spread / abs(p_med) > bound and not all_better:
        return "unresolved"
    if p_med and sign * (c_med - p_med) / abs(p_med) > bound:
        return "worse"
    return "unchanged"


def compare(parent_path: str, change_path: str) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = _load_runs(parent_path), _load_runs(change_path)
    print(f"{'workload':<13} {'metric':<56} {'unit':<7} {'parent median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36} {'change/parent':>13} {'(base)':>12}  verdict")
    for workload in inputs.WORKLOADS:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            p_runs = [r for r in parent if r["workload"] == workload and r["trace"] == trace]
            c_runs = [r for r in change if r["workload"] == workload and r["trace"] == trace]
            if not p_runs or not c_runs:
                continue
            by_seed = {r["seed"]: r for r in c_runs}
            if all(r["seed"] in by_seed for r in p_runs):
                c_runs = [by_seed[r["seed"]] for r in p_runs]   # pair runs by seed
            for m in listed:
                pv = [r["metrics"][m["name"]] for r in p_runs if m["name"] in r["metrics"]]
                cv = [r["metrics"][m["name"]] for r in c_runs if m["name"] in r["metrics"]]
                if not pv or not cv:
                    continue
                (p1, pm, p3), (c1, cm, c3) = _quartiles(pv), _quartiles(cv)
                ratio = f"{cm / pm:.4f}" if pm else "n/a"
                print(f"{workload:<13} {m['name']:<56} {m['unit']:<7} "
                      f"{f'{pm:.5g} [{p1:.5g}, {p3:.5g}]':>36} {f'{cm:.5g} [{c1:.5g}, {c3:.5g}]':>36} "
                      f"{ratio:>13} {pm:>12.5g}  {_verdict(pv, cv, m['better'], m.get('bound'))}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two runs.jsonl files instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
