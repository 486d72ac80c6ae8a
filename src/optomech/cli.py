"""Config-driven command-line interface.

A run is described by a flat JSON file:

    {
      "command": "damping",
      "params": {"kappa": 0.15, "gamma": 0.005, "g0": 0.003,
                 "Delta0": -1.0, "A_l": 5.0},
      "grids": {"Delta": {"start": -2.0, "stop": 2.0, "count": 401}},
      "output_dir": "out"
    }

The keys of the config, of "params" and of each grid are the fields of
RunSpec, SystemParams and GridSpec; those without a default are required.
COMMANDS maps each command name to the grids its config must define and a
handler.  A handler returns plain columns, {table name: {column name:
values}}; run_command wraps them in ResultTables and attaches the run
configuration as their metadata.  Every table is written as a CSV (17
significant digits, LF line endings) plus a .meta.json sidecar that echoes
that configuration, so any output directory can be re-run byte-identically
from its own sidecar.  Every command is deterministic.  Exit codes:
0 success, 1 configuration error (grids too large for memory included),
2 numerical error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import difflib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import classical, quantum
from .errors import ConfigError, SimulationError, UnstableSystemError
from .model import SystemParams, validate_params

# Fixed geometry of the static-potential command: positions are measured in
# wavelengths, stiffness in units of m omega_m^2.
STATIC_WAVELENGTH = 1.0
STATIC_FINESSE = 10.0

INTERACTION_CODES = {
    quantum.OFF_RESONANT: 0,
    quantum.BEAM_SPLITTER: 1,
    quantum.TWO_MODE_SQUEEZER: 2,
}


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid start, start+h, ..., stop with count points."""

    start: float
    stop: float
    count: int

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)

    @property
    def step(self) -> float:
        return (self.stop - self.start) / (self.count - 1)


@dataclass(frozen=True)
class RunSpec:
    """A fully validated run configuration."""

    command: str
    params: SystemParams
    output_dir: str
    grids: dict[str, GridSpec] = field(default_factory=dict)


@dataclass
class ResultTable:
    """Named columns plus the configuration that produced them."""

    name: str
    columns: dict[str, np.ndarray]
    metadata: dict = field(default_factory=dict)


def _suggest(key: str, allowed) -> str:
    close = difflib.get_close_matches(key, list(allowed), n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


def _reject_unknown(mapping: dict, allowed, where: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}{_suggest(key, allowed)}")


def _checked_object(raw, cls, where: str) -> dict:
    """raw, checked as a JSON object whose keys are fields of the dataclass cls.

    Unknown keys and missing fields without a default raise ConfigError.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object")
    fields = dataclasses.fields(cls)
    _reject_unknown(raw, [f.name for f in fields], where)
    for f in fields:
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        if required and f.name not in raw:
            raise ConfigError(f"{where} is missing required key {f.name!r}")
    return raw


def _as_float(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number (got {value!r})")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf  # an integer literal beyond the float range
    if not math.isfinite(number):
        raise ConfigError(f"{where} must be a finite number (got {number!r})")
    return number


def load_config(path: str | Path) -> RunSpec:
    """Parse and validate a JSON run configuration into a RunSpec."""
    path = Path(path)
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    try:
        raw = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    raw = _checked_object(raw, RunSpec, "config")

    command = raw["command"]
    if not isinstance(command, str) or command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}{_suggest(str(command), COMMANDS)}")

    params_raw = _checked_object(raw["params"], SystemParams, "params")
    kwargs = {k: _as_float(v, f"params.{k}") for k, v in params_raw.items()}
    try:
        params = validate_params(SystemParams(**kwargs))
    except ValueError as exc:
        raise ConfigError(f"invalid params: {exc}") from None

    grids_raw = raw.get("grids", {})
    if not isinstance(grids_raw, dict):
        raise ConfigError("grids must be a JSON object")
    required_grids, _ = COMMANDS[command]
    _reject_unknown(grids_raw, required_grids, f"grids for command {command!r}")
    for name in required_grids:
        if name not in grids_raw:
            raise ConfigError(f"command {command!r} requires grid {name!r}")
    grids: dict[str, GridSpec] = {}
    for name, g in grids_raw.items():
        g = _checked_object(g, GridSpec, f"grids.{name}")
        start = _as_float(g["start"], f"grids.{name}.start")
        stop = _as_float(g["stop"], f"grids.{name}.stop")
        count = g["count"]
        if isinstance(count, bool) or not isinstance(count, int):
            raise ConfigError(f"grids.{name}.count must be an integer (got {count!r})")
        if count < 2:
            raise ConfigError(f"grids.{name}.count must be >= 2 (got {count})")
        if not stop > start:
            raise ConfigError(
                f"grids.{name} must have stop > start (got {start!r} .. {stop!r})"
            )
        grids[name] = GridSpec(start=start, stop=stop, count=count)

    output_dir = raw["output_dir"]
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("output_dir must be a non-empty string")

    return RunSpec(command=command, params=params, output_dir=output_dir, grids=grids)


def spec_to_config(spec: RunSpec) -> dict:
    """RunSpec as a plain dict in the config-file schema (round-trippable): dataclasses.asdict."""
    return dataclasses.asdict(spec)


# ---------------------------------------------------------------------------
# command handlers: each returns {table name: {column name: values}}


def _first_stable_state(params: SystemParams):
    for state in classical.steady_states(params):
        if state.stable:
            return state
    raise UnstableSystemError(
        "no stable steady-state branch exists at these parameters"
    )


def _sampled_times(grid: GridSpec, samples: np.ndarray) -> np.ndarray:
    """Grid times, checked against the integrator's sample count."""
    t = grid.values()
    if samples.size != t.size:
        raise SimulationError(
            f"integrator produced {samples.size} samples for a {t.size}-point grid"
        )
    return t


def _run_steady(spec: RunSpec) -> dict:
    states = classical.steady_states(spec.params)
    alpha_s, beta_s, N_o, Delta_eff, stable = (
        np.array([getattr(state, name) for state in states])
        for name in ("alpha_s", "beta_s", "N_o", "Delta_eff", "stable")
    )
    return {
        "steady": {
            "branch": np.arange(len(states)),
            "N_o": N_o,
            "alpha_re": alpha_s.real,
            "alpha_im": alpha_s.imag,
            "beta_re": beta_s.real,
            "beta_im": beta_s.imag,
            "Delta_eff": Delta_eff,
            "stable": stable,
        }
    }


def _run_bistability(spec: RunSpec) -> dict:
    sweep = classical.sweep_bistability(spec.params, spec.grids["Delta0"].values())
    names = ("Delta0", "branch", "N_o", "stable")
    return {
        "bistability": {name: getattr(sweep.states, name) for name in names},
        "window_edges": {"Delta0_edge": np.array(sweep.window_edges, dtype=float)},
    }


def _run_hysteresis(spec: RunSpec) -> dict:
    grid = spec.grids["Delta0"].values()
    n_up, n_down = classical.hysteresis_traces(spec.params, grid)
    return {"hysteresis": {"Delta0": grid, "N_up": n_up, "N_down": n_down}}


def _run_stability_map(spec: RunSpec) -> dict:
    grid = classical.stability_map(
        spec.params, spec.grids["Delta0"].values(), spec.grids["A_l"].values()
    )
    names = ("Delta0", "A_l", "branch", "N_o", "stable")
    return {"stability_map": {name: getattr(grid, name) for name in names}}


def _linear_cavity_sweep(column: str, closed_form):
    """Handler evaluating closed_form(g_s, Delta, kappa, omega_m) over the Delta grid.

    The coupling is g_s = g0 |A_l / (kappa/2 - i Delta)| per grid point; the
    table is named after the command.
    """

    def run(spec: RunSpec) -> dict:
        p = spec.params
        Delta = spec.grids["Delta"].values()
        g_s = p.g0 * np.abs(p.A_l / (p.kappa / 2.0 - 1j * Delta))
        values = closed_form(g_s, Delta, p.kappa, p.omega_m)
        return {spec.command: {"Delta": Delta, column: values}}

    return run


def _run_mean_field(spec: RunSpec) -> dict:
    grid = spec.grids["t"]
    traj = classical.integrate_mean_field(
        spec.params,
        alpha0=0.0,
        beta0=0.0,
        t_end=grid.stop - grid.start,
        dt=grid.step,
    )
    return {
        "mean_field": {
            "t": _sampled_times(grid, traj.t),
            "alpha_re": traj.alpha.real,
            "alpha_im": traj.alpha.imag,
            "beta_re": traj.beta.real,
            "beta_im": traj.beta.imag,
            "N": np.abs(traj.alpha) ** 2,
        }
    }


def _run_covariance(spec: RunSpec) -> dict:
    grid = spec.grids["t"]
    state = _first_stable_state(spec.params)
    A = quantum.drift_matrix(spec.params, state)
    D = quantum.diffusion_matrix(spec.params)
    V0 = quantum.thermal_covariance(spec.params.n_th)
    traj = quantum.integrate_covariance(
        A, D, V0, t_end=grid.stop - grid.start, dt=grid.step
    )
    columns = {"t": _sampled_times(grid, traj.t)}
    names = [q.lower() for q in quantum.QUADRATURE_NAMES]
    columns.update(
        (f"V_{names[i]}{names[j]}", traj.V[:, i, j]) for i, j in zip(*np.triu_indices(4))
    )
    return {"covariance": columns}


def _run_static_potential(spec: RunSpec) -> dict:
    x = spec.grids["x"].values()
    forces = spec.grids["F0"].values()
    k_ho = spec.params.m * spec.params.omega_m ** 2
    models = [
        classical.lorentzian_comb_model(
            k_ho, float(f0), STATIC_WAVELENGTH, STATIC_FINESSE, float(x[0]), float(x[-1])
        )
        for f0 in forces
    ]
    equilibria, K_eff = zip(*classical.static_equilibria(models, x))
    # the potential curves of the largest force on the grid
    V_RP = classical.radiation_potential(models[-1], x)
    V_HO = 0.5 * k_ho * x ** 2
    return {
        "equilibria": {
            "F0": np.repeat(forces, [eq.size for eq in equilibria]),
            "x_eq": np.concatenate(equilibria),
            "K_eff": np.concatenate(K_eff),
        },
        "potential": {"x": x, "V_RP": V_RP, "V_HO": V_HO, "V_t": V_RP + V_HO},
    }


def _run_regime(spec: RunSpec) -> dict:
    p = spec.params
    state = _first_stable_state(p)
    g_s = p.g0 * abs(state.alpha_s)
    gamma_om = classical.optomechanical_damping(g_s, state.Delta_eff, p.kappa, p.omega_m)
    shift = classical.optical_spring_shift(g_s, state.Delta_eff, p.kappa, p.omega_m)
    summary = classical.classify_regime(p, gamma_om, shift)
    report = quantum.rwa_interaction(state.Delta_eff, p.omega_m, p.kappa, g_s)
    scalars = {
        "Delta_eff": state.Delta_eff,
        "g_s": g_s,
        "gamma_om": gamma_om,
        "delta_omega_m": shift,
        "total_damping": summary.total_damping,
        "effective_frequency": summary.effective_frequency,
        "self_oscillation": float(summary.self_oscillation),
        "parametric_instability": float(summary.parametric_instability),
        "resolved_sideband": float(summary.resolved_sideband),
        "interaction": float(INTERACTION_CODES[report.interaction_kind]),
    }
    return {"regime": {k: np.array([v]) for k, v in scalars.items()}}


# command name -> (grids the config must define, handler)
COMMANDS = {
    "steady": ((), _run_steady),
    "bistability": (("Delta0",), _run_bistability),
    "hysteresis": (("Delta0",), _run_hysteresis),
    "stability-map": (("Delta0", "A_l"), _run_stability_map),
    "damping": (("Delta",), _linear_cavity_sweep("gamma_om", classical.optomechanical_damping)),
    "spring": (("Delta",), _linear_cavity_sweep("delta_omega_m", classical.optical_spring_shift)),
    "mean-field": (("t",), _run_mean_field),
    "covariance": (("t",), _run_covariance),
    "static-potential": (("x", "F0"), _run_static_potential),
    "regime": ((), _run_regime),
}


def run_command(spec: RunSpec) -> list[ResultTable]:
    """Execute a validated RunSpec and return its result tables."""
    if spec.command not in COMMANDS:
        raise ConfigError(f"unknown command {spec.command!r}")
    _, handler = COMMANDS[spec.command]
    metadata = spec_to_config(spec)
    return [
        ResultTable(name=name, columns=columns, metadata=metadata)
        for name, columns in handler(spec).items()
    ]


# ---------------------------------------------------------------------------
# output


def emit_csv(table: ResultTable, path: str | Path) -> None:
    """Write a ResultTable as CSV (17 significant digits, LF endings).

    A .meta.json sidecar with the originating configuration is written next
    to the CSV.
    """
    path = Path(path)
    columns = {k: np.asarray(v) for k, v in table.columns.items()}
    lengths = {v.size for v in columns.values()}
    if len(lengths) > 1:
        raise ValueError(f"columns of {table.name!r} have unequal lengths {lengths}")
    cells = [np.asarray(col, dtype=float).tolist() for col in columns.values()]
    row_format = ",".join(["%.17g"] * len(cells)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(row_format % row for row in zip(*cells))
    sidecar = path.with_suffix(".meta.json")
    with open(sidecar, "w", newline="") as fh:
        json.dump(table.metadata, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_tables(
    tables: list[ResultTable], output_dir: str | Path, quiet: bool = False
) -> list[Path]:
    """Write every table (and sidecar) into output_dir, creating it if needed."""
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for table in tables:
        path = output_dir / f"{table.name}.csv"
        emit_csv(table, path)
        written.append(path)
        if not quiet:
            print(f"wrote {path}")
    return written


class _Parser(argparse.ArgumentParser):
    # usage mistakes are configuration errors: exit 1, not argparse's 2
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="optomech",
        description="Run an optomechanical-cavity simulation from a JSON config.",
    )
    parser.add_argument("config", help="path to a JSON run configuration")
    parser.add_argument(
        "--output-dir", help="override the output directory named in the config"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-file log lines"
    )
    args = parser.parse_args(argv)
    spec = None
    try:
        spec = load_config(args.config)
        if args.output_dir:
            spec = dataclasses.replace(spec, output_dir=args.output_dir)
        tables = run_command(spec)
        write_tables(tables, spec.output_dir, quiet=args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        # before ValueError: LinAlgError subclasses it
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # grid counts have no upper bound, so a grid can exhaust memory
        grids = spec.grids if spec is not None else {}
        sizes = ", ".join(f"{name} with {grid.count} points" for name, grid in grids.items())
        print(f"config error: out of memory (grids: {sizes or 'none'})", file=sys.stderr)
        return 1
    except SimulationError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
