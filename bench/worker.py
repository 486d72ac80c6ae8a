"""One workload process: closed-loop passes over the generated inputs.

Usage: python3 bench/worker.py JOB.json

The job file (written by run.py) names the workload, the generated config
files, the cooling grid, the run length and whether to trace.
The worker imports optomech from the checkout's src/, runs one warm-up pass
into <work>/reference (checked against the oracles afterwards by run.py),
then passes back to back until the time is up, comparing every pass's CSV
bytes with the reference.  When tracing, untraced and traced passes
alternate.  It writes its timings to the job's result path.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from optomech import classical, cli, quantum  # noqa: E402

from tracer import Tracer  # noqa: E402

_V_INDEX = ((0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))
COOLING_COLUMNS = ("Delta0", "A_l", "N_o", "V_xx", "V_xy", "V_xq", "V_xp", "V_yy", "V_yq",
                   "V_yp", "V_qq", "V_qp", "V_pp", "var_q", "min_eig")


@dataclasses.dataclass
class PassResult:
    wall: float
    compute: float
    write: float
    errors: dict[str, str]      # operation -> exception text, for operations that raised


class CommandWorkload:
    """Each operation is one CLI command: run_command, then write_tables."""

    def __init__(self, specs: dict[str, "cli.RunSpec"]) -> None:
        self.specs = specs
        self.operations = list(specs)

    def run_pass(self, out: Path) -> PassResult:
        compute = write = 0.0
        errors = {}
        start = perf_counter()
        for name, spec in self.specs.items():
            t0 = perf_counter()
            try:
                tables = cli.run_command(spec)
                t1 = perf_counter()
                compute += t1 - t0
                cli.write_tables(tables, out / name, quiet=True)
                write += perf_counter() - t1
            except Exception as exc:  # a failed operation is counted, the loop goes on
                errors[name] = "".join(traceback.format_exception_only(exc)).strip()
        return PassResult(perf_counter() - start, compute, write, errors)

    def outputs(self, out: Path) -> dict[str, list[Path]]:
        return {name: sorted((out / name).glob("*.csv")) for name in self.specs}


class CoolingWorkload:
    """Each operation is one grid point through the scalar library API."""

    def __init__(self, spec: "cli.RunSpec", grid: dict) -> None:
        self.spec = spec
        detunings = np.linspace(*grid["Delta0"][:2], grid["Delta0"][2])
        amplitudes = np.linspace(*grid["A_l"][:2], grid["A_l"][2])
        self.points = [(float(d), float(a)) for d in detunings for a in amplitudes]
        self.operations = [f"point{k}" for k in range(len(self.points))]
        self.metadata = {**cli.spec_to_config(spec), "cooling_grid": grid}

    def _point(self, Delta0: float, A_l: float) -> list[float]:
        params = dataclasses.replace(self.spec.params, Delta0=Delta0, A_l=A_l)
        state = next(s for s in classical.steady_states(params) if s.stable)
        V = quantum.steady_covariance(
            quantum.drift_matrix(params, state), quantum.diffusion_matrix(params))
        variances = quantum.quadrature_variances(V)
        return ([Delta0, A_l, state.N_o] + [V[i, j] for i, j in _V_INDEX]
                + [variances.var_q, quantum.physicality_min_eig(V)])

    def run_pass(self, out: Path) -> PassResult:
        errors = {}
        rows = []
        start = perf_counter()
        for op, (d, a) in zip(self.operations, self.points):
            try:
                rows.append(self._point(d, a))
            except Exception as exc:  # a failed point is counted and written as NaN
                errors[op] = "".join(traceback.format_exception_only(exc)).strip()
                rows.append([d, a] + [float("nan")] * (len(COOLING_COLUMNS) - 2))
        data = np.array(rows)
        table = cli.ResultTable(
            name="cooling",
            columns={name: data[:, k] for k, name in enumerate(COOLING_COLUMNS)},
            metadata=self.metadata,
        )
        t1 = perf_counter()
        try:
            out.mkdir(parents=True, exist_ok=True)
            cli.emit_csv(table, out / "cooling.csv")
        except Exception as exc:  # every point of the pass is lost with the table
            errors = {op: f"table write failed: {exc!r}" for op in self.operations}
        end = perf_counter()
        return PassResult(end - start, t1 - start, end - t1, errors)

    def outputs(self, out: Path) -> dict[str, list[Path]]:
        return {"cooling": [out / "cooling.csv"]}


def _mismatches(workload, out: Path, reference: dict[str, list[bytes]]) -> set[str]:
    """Operations whose CSV bytes differ from the reference pass."""
    bad = set()
    for name, paths in workload.outputs(out).items():
        got = [p.read_bytes() for p in paths]
        if isinstance(workload, CoolingWorkload):
            if got == reference[name]:
                continue
            ref_lines = reference[name][0].split(b"\n") if reference[name] else []
            lines = got[0].split(b"\n") if got else []
            if len(lines) != len(ref_lines):
                return set(workload.operations)
            bad.update(workload.operations[k - 1] for k in range(1, len(lines))
                       if lines[k] != ref_lines[k])
        elif got != reference[name]:
            bad.add(name)
    return bad


def _loop(workload, out: Path, seconds: float, reference, tracer: Tracer | None = None):
    """Passes back to back until `seconds` have elapsed.

    With a tracer, untraced and traced passes alternate, so both kinds see the
    same machine conditions; returns (untraced passes, traced passes).
    """
    passes: dict[bool, list] = {False: [], True: []}
    deadline = perf_counter() + seconds
    traced = False
    while not passes[False] or perf_counter() < deadline:
        if traced:
            tracer.enable()
            tracer.begin_pass()
        try:
            result = workload.run_pass(out)
        finally:
            if traced:
                tracer.end_pass()
                tracer.disable()
        failed = set(result.errors) | _mismatches(workload, out, reference)
        passes[traced].append({"wall": result.wall, "compute": result.compute,
                               "write": result.write, "failed": sorted(failed)})
        traced = tracer is not None and not traced
    return passes[False], passes[True]


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    work = Path(job["work_dir"])
    specs = {name: cli.load_config(path) for name, path in job["configs"].items()}
    if job["workload"] == "cooling-scan":
        workload = CoolingWorkload(specs["cooling"], job["cooling_grid"])
    else:
        workload = CommandWorkload(specs)

    ref_dir = work / "reference"
    warm = workload.run_pass(ref_dir)
    reference = {name: [p.read_bytes() for p in paths]
                 for name, paths in workload.outputs(ref_dir).items()}
    tracer = Tracer() if job["trace"] else None
    if tracer:
        tracer.install()
    untraced, traced = _loop(workload, work / "pass", job["seconds"], reference, tracer)
    result = {
        "operations": workload.operations,
        "warmup_errors": warm.errors,
        "passes": untraced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["traced_passes"] = traced
        result["trace"] = tracer.summary()
        np.savez_compressed(job["spans_path"], **tracer.arrays())
    Path(job["result_path"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
