"""In-memory spans around calls into the optomech layers.

The tracer replaces a function at the module attribute its callers look up
(for instance `optomech.classical.rk4_step`, which `integrate_mean_field`
reads from its own module globals) with a wrapper that records one span per
call: name, start, end, parent span, pass and whether it raised.  Nothing in
the package itself is edited.  A name that no longer exists is reported as
absent rather than breaking the run, so the same benchmark code measures a
commit that has deleted or renamed a function.
"""

from __future__ import annotations

import importlib
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

# metric name -> the (module, attribute) names callers look the function up by
TRACED: dict[str, tuple[tuple[str, str], ...]] = {
    "model.validate_params": (("classical", "validate_params"), ("model", "validate_params")),
    "classical.intracavity_cubic": (("classical", "intracavity_cubic"),),
    "classical.solve_intracavity_occupancy": (("classical", "solve_intracavity_occupancy"),),
    "classical.steady_states": (("classical", "steady_states"),),
    "classical.sweep_bistability": (("classical", "sweep_bistability"),),
    "classical.hysteresis_sweep": (("classical", "hysteresis_sweep"),),
    "classical.stability_map": (("classical", "stability_map"),),
    "classical.static_potential": (("classical", "static_potential"),),
    "classical.radiation_force": (("classical", "radiation_force"),),
    "classical.integrate_mean_field": (("classical", "integrate_mean_field"),),
    "stability.routh_hurwitz_stable": (
        ("classical", "routh_hurwitz_stable"), ("stability", "routh_hurwitz_stable")),
    "stability.hurwitz_quantities": (
        ("stability", "hurwitz_quantities"), ("quantum", "hurwitz_quantities")),
    "quantum.drift_matrix_from_rates": (("quantum", "drift_matrix_from_rates"),),
    "quantum.drift_matrix": (("quantum", "drift_matrix"),),
    "quantum.diffusion_matrix": (("quantum", "diffusion_matrix"),),
    "quantum.steady_covariance": (("quantum", "steady_covariance"),),
    "quantum.physicality_min_eig": (("quantum", "physicality_min_eig"),),
    "quantum.quadrature_variances": (("quantum", "quadrature_variances"),),
    "quantum.integrate_covariance": (("quantum", "integrate_covariance"),),
    "rk4.rk4_step": (("classical", "rk4_step"), ("quantum", "rk4_step")),
    "cli.run_command": (("cli", "run_command"),),
    "cli.write_tables": (("cli", "write_tables"),),
    "cli.emit_csv": (("cli", "emit_csv"),),
}

PASS_SPAN = "bench.pass"
SOLVE = "classical.solve_intracavity_occupancy"
EMIT = "cli.emit_csv"


class Tracer:
    """Records spans in flat arrays; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = [PASS_SPAN]
        self.name_id = array("i")
        self.parent = array("i")
        self.pass_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self._stack: list[int] = [-1]
        self._pass = -1
        self.solve_inputs: list[tuple[int, object]] = []  # (pass, cubic problem)
        self.solve_roots = 0
        self.emitted: list[tuple[int, int, int]] = []      # (pass, bytes, rows)
        self._installed: list[tuple[object, str, object, object]] = []
        self.absent: list[str] = []

    # -- spans -----------------------------------------------------------------

    def _open(self, name: int) -> int:
        idx = len(self.start)
        self.name_id.append(name)
        self.parent.append(self._stack[-1])
        self.pass_id.append(self._pass)
        self.raised.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def begin_pass(self) -> None:
        self._pass = len(self.start)
        self._open(0)

    def end_pass(self) -> None:
        self._close(self._pass)

    def _wrap(self, metric: str, fn):
        name = len(self.names)
        self.names.append(metric)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[idx] = 1
                raise
            finally:
                tracer._close(idx)
            if metric == SOLVE:
                problem = args[0] if args else kwargs["problem"]
                tracer.solve_inputs.append((tracer._pass, problem))
                tracer.solve_roots += len(result)
            elif metric == EMIT:
                table = args[0] if args else kwargs["table"]
                path = args[1] if len(args) > 1 else kwargs["path"]
                rows = max((np.asarray(v).size for v in table.columns.values()), default=0)
                tracer.emitted.append((tracer._pass, Path(path).stat().st_size, rows))
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Build a wrapper for every name in TRACED that exists; record the absent ones.

        The wrappers take effect between enable() and disable().
        """
        for metric, sites in TRACED.items():
            found = False
            for module_name, attr in sites:
                try:
                    module = importlib.import_module(f"optomech.{module_name}")
                except ImportError:
                    continue
                fn = getattr(module, attr, None)
                if not callable(fn):
                    continue
                found = True
                self._installed.append((module, attr, fn, self._wrap(metric, fn)))
            if not found:
                self.absent.append(metric)

    def enable(self) -> None:
        for module, attr, _, traced in self._installed:
            setattr(module, attr, traced)

    def disable(self) -> None:
        for module, attr, fn, _ in self._installed:
            setattr(module, attr, fn)

    # -- results ---------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "pass_id": np.frombuffer(self.pass_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "raised": np.frombuffer(self.raised, dtype=np.int8),
        }

    def summary(self) -> dict:
        """Per-pass calls, self time and failures for every traced metric.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly (one thread), so that is the part of
        the interval no child covers.  Each figure is per pass: calls and
        failures as the mean over the traced passes, self time as the median.
        """
        s = self.arrays()
        duration = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        child = np.bincount(s["parent"][has_parent], weights=duration[has_parent],
                            minlength=duration.size)
        self_time = duration - child
        passes = np.flatnonzero(s["name_id"] == 0)
        n_pass = max(1, passes.size)
        pass_index = np.searchsorted(passes, s["pass_id"])
        by_metric: dict[str, dict] = {}
        for metric in TRACED:
            ids = [i for i, n in enumerate(self.names) if n == metric]
            mask = np.isin(s["name_id"], ids)
            per_pass = np.bincount(pass_index[mask], weights=self_time[mask], minlength=n_pass)
            by_metric[metric] = {
                "calls": int(mask.sum()) / n_pass,
                "self_s": float(np.median(per_pass)) if mask.any() else 0.0,
                "fails": int(s["raised"][mask].sum()) / n_pass,
                "absent": metric in self.absent,
            }
        pass_self = np.bincount(pass_index[s["name_id"] == 0],
                                weights=self_time[s["name_id"] == 0], minlength=n_pass)
        calls = len(self.solve_inputs)
        try:
            distinct = len(set(self.solve_inputs))
        except TypeError:   # an unhashable problem type: compare by value
            distinct = len({(p, repr(x)) for p, x in self.solve_inputs})
        return {
            "passes": int(passes.size),
            "spans": int(duration.size),
            "functions": by_metric,
            "bench_self_s": float(np.median(pass_self)),
            "solve_distinct_ratio": distinct / calls if calls else 0.0,
            "solve_roots_per_call": self.solve_roots / calls if calls else 0.0,
            "emit_bytes": sum(b for _, b, _ in self.emitted) / n_pass,
            "emit_rows": sum(r for _, _, r in self.emitted) / n_pass,
        }
