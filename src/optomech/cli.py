"""Config-driven command-line interface.

A run is described by a flat JSON file:

    {
      "command": "damping",
      "params": {"kappa": 0.15, "gamma": 0.005, "g0": 0.003,
                 "Delta0": -1.0, "A_l": 5.0},
      "grids": {"Delta": {"start": -2.0, "stop": 2.0, "count": 401}},
      "output_dir": "out",
      "seed": 0
    }

Every command writes one or more CSV tables (17 significant digits, LF line
endings) plus a .meta.json sidecar per table that echoes the run
configuration, so any output directory can be re-run byte-identically from
its own sidecar.  Exit codes: 0 success, 1 configuration error, 2 numerical
error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import difflib
import json
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

_PARAM_KEYS = ("kappa", "gamma", "g0", "Delta0", "A_l", "omega_m", "n_th", "m")
_REQUIRED_PARAM_KEYS = ("kappa", "gamma", "g0", "Delta0", "A_l")
_GRID_KEYS = ("start", "stop", "count")
_TOP_KEYS = ("command", "params", "grids", "output_dir", "seed")

REQUIRED_GRIDS = {
    "steady": (),
    "bistability": ("Delta0",),
    "hysteresis": ("Delta0",),
    "stability-map": ("Delta0", "A_l"),
    "damping": ("Delta",),
    "spring": ("Delta",),
    "mean-field": ("t",),
    "covariance": ("t",),
    "static-potential": ("x", "F0"),
    "regime": (),
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
    grids: dict[str, GridSpec]
    output_dir: str
    seed: int = 0


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


def _as_float(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number (got {value!r})")
    return float(value)


def load_config(path: str | Path) -> RunSpec:
    """Parse and validate a JSON run configuration into a RunSpec."""
    path = Path(path)
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "config")

    for required in ("command", "params", "output_dir"):
        if required not in raw:
            raise ConfigError(f"config is missing required key {required!r}")

    command = raw["command"]
    if command not in REQUIRED_GRIDS:
        raise ConfigError(
            f"unknown command {command!r}{_suggest(str(command), REQUIRED_GRIDS)}"
        )

    params_raw = raw["params"]
    if not isinstance(params_raw, dict):
        raise ConfigError("params must be a JSON object")
    _reject_unknown(params_raw, _PARAM_KEYS, "params")
    for required in _REQUIRED_PARAM_KEYS:
        if required not in params_raw:
            raise ConfigError(f"params is missing required key {required!r}")
    kwargs = {k: _as_float(v, f"params.{k}") for k, v in params_raw.items()}
    try:
        params = validate_params(SystemParams(**kwargs))
    except ValueError as exc:
        raise ConfigError(f"invalid params: {exc}") from None

    grids_raw = raw.get("grids", {})
    if not isinstance(grids_raw, dict):
        raise ConfigError("grids must be a JSON object")
    required_grids = REQUIRED_GRIDS[command]
    _reject_unknown(
        grids_raw,
        required_grids,
        f"grids for command {command!r}",
    )
    for name in required_grids:
        if name not in grids_raw:
            raise ConfigError(f"command {command!r} requires grid {name!r}")
    grids: dict[str, GridSpec] = {}
    for name, g in grids_raw.items():
        if not isinstance(g, dict):
            raise ConfigError(f"grids.{name} must be a JSON object")
        _reject_unknown(g, _GRID_KEYS, f"grids.{name}")
        for k in _GRID_KEYS:
            if k not in g:
                raise ConfigError(f"grids.{name} is missing required key {k!r}")
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

    seed = raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer (got {seed!r})")

    return RunSpec(
        command=command, params=params, grids=grids, output_dir=output_dir, seed=seed
    )


def spec_to_config(spec: RunSpec) -> dict:
    """RunSpec as a plain dict in the config-file schema (round-trippable)."""
    return {
        "command": spec.command,
        "params": {k: getattr(spec.params, k) for k in _PARAM_KEYS},
        "grids": {
            name: {"start": g.start, "stop": g.stop, "count": g.count}
            for name, g in spec.grids.items()
        },
        "output_dir": spec.output_dir,
        "seed": spec.seed,
    }


# ---------------------------------------------------------------------------
# command handlers


def _first_stable_state(params: SystemParams):
    for state in classical.steady_states(params):
        if state.stable:
            return state
    raise UnstableSystemError(
        "no stable steady-state branch exists at these parameters"
    )


def _run_steady(spec: RunSpec) -> list[ResultTable]:
    states = classical.steady_states(spec.params)
    n = len(states)
    return [
        ResultTable(
            name="steady",
            columns={
                "branch": np.arange(n, dtype=float),
                "N_o": np.array([s.N_o for s in states]),
                "alpha_re": np.array([s.alpha_s.real for s in states]),
                "alpha_im": np.array([s.alpha_s.imag for s in states]),
                "beta_re": np.array([s.beta_s.real for s in states]),
                "beta_im": np.array([s.beta_s.imag for s in states]),
                "Delta_eff": np.array([s.Delta_eff for s in states]),
                "stable": np.array([s.stable for s in states], dtype=float),
            },
        )
    ]


def _run_bistability(spec: RunSpec) -> list[ResultTable]:
    grid = spec.grids["Delta0"].values()
    sweep = classical.sweep_bistability(spec.params, grid)
    rows_d, rows_b, rows_n, rows_s = [], [], [], []
    for d, roots, stable in zip(sweep.detunings, sweep.roots, sweep.stability):
        for b, (N, ok) in enumerate(zip(roots, stable)):
            rows_d.append(float(d))
            rows_b.append(float(b))
            rows_n.append(N)
            rows_s.append(float(ok))
    return [
        ResultTable(
            name="bistability",
            columns={
                "Delta0": np.array(rows_d),
                "branch": np.array(rows_b),
                "N_o": np.array(rows_n),
                "stable": np.array(rows_s),
            },
        ),
        ResultTable(
            name="window_edges",
            columns={"Delta0_edge": np.array(sweep.window_edges, dtype=float)},
        ),
    ]


def _run_hysteresis(spec: RunSpec) -> list[ResultTable]:
    grid = spec.grids["Delta0"].values()
    n_up = classical.hysteresis_sweep(spec.params, grid, direction="up")
    n_down = classical.hysteresis_sweep(spec.params, grid, direction="down")
    return [
        ResultTable(
            name="hysteresis",
            columns={"Delta0": grid, "N_up": n_up, "N_down": n_down},
        )
    ]


def _run_stability_map(spec: RunSpec) -> list[ResultTable]:
    detunings = spec.grids["Delta0"].values()
    amplitudes = spec.grids["A_l"].values()
    result = classical.stability_map(spec.params, detunings, amplitudes)
    cols = {k: [] for k in ("Delta0", "A_l", "branch", "N_o", "stable")}
    for i, d in enumerate(result.detunings):
        for j, a in enumerate(result.amplitudes):
            for b, (N, ok) in enumerate(zip(result.roots[i][j], result.stable[i][j])):
                cols["Delta0"].append(float(d))
                cols["A_l"].append(float(a))
                cols["branch"].append(float(b))
                cols["N_o"].append(N)
                cols["stable"].append(float(ok))
    return [
        ResultTable(
            name="stability_map",
            columns={k: np.array(v) for k, v in cols.items()},
        )
    ]


def _linear_cavity_coupling(spec: RunSpec, Delta: np.ndarray) -> np.ndarray:
    """Field-enhanced coupling g0 |A_l / (kappa/2 - i Delta)| per grid point."""
    p = spec.params
    return p.g0 * np.abs(p.A_l / (p.kappa / 2.0 - 1j * Delta))


def _run_damping(spec: RunSpec) -> list[ResultTable]:
    Delta = spec.grids["Delta"].values()
    g_s = _linear_cavity_coupling(spec, Delta)
    gamma_om = classical.optomechanical_damping(
        g_s, Delta, spec.params.kappa, spec.params.omega_m
    )
    return [
        ResultTable(name="damping", columns={"Delta": Delta, "gamma_om": gamma_om})
    ]


def _run_spring(spec: RunSpec) -> list[ResultTable]:
    Delta = spec.grids["Delta"].values()
    g_s = _linear_cavity_coupling(spec, Delta)
    shift = classical.optical_spring_shift(
        g_s, Delta, spec.params.kappa, spec.params.omega_m
    )
    return [
        ResultTable(name="spring", columns={"Delta": Delta, "delta_omega_m": shift})
    ]


def _run_mean_field(spec: RunSpec) -> list[ResultTable]:
    grid = spec.grids["t"]
    traj = classical.integrate_mean_field(
        spec.params,
        alpha0=0.0,
        beta0=0.0,
        t_end=grid.stop - grid.start,
        dt=grid.step,
    )
    t = grid.values()
    if traj.t.size != t.size:
        raise SimulationError(
            f"integrator produced {traj.t.size} samples for a {t.size}-point grid"
        )
    return [
        ResultTable(
            name="mean_field",
            columns={
                "t": t,
                "alpha_re": traj.alpha.real,
                "alpha_im": traj.alpha.imag,
                "beta_re": traj.beta.real,
                "beta_im": traj.beta.imag,
                "N": np.abs(traj.alpha) ** 2,
            },
        )
    ]


_V_COLUMNS = (
    ("V_xx", 0, 0), ("V_xy", 0, 1), ("V_xq", 0, 2), ("V_xp", 0, 3),
    ("V_yy", 1, 1), ("V_yq", 1, 2), ("V_yp", 1, 3),
    ("V_qq", 2, 2), ("V_qp", 2, 3), ("V_pp", 3, 3),
)


def _run_covariance(spec: RunSpec) -> list[ResultTable]:
    grid = spec.grids["t"]
    state = _first_stable_state(spec.params)
    A = quantum.drift_matrix(spec.params, state)
    D = quantum.diffusion_matrix(spec.params)
    V0 = quantum.thermal_covariance(spec.params.n_th)
    traj = quantum.integrate_covariance(
        A, D, V0, t_end=grid.stop - grid.start, dt=grid.step
    )
    t = grid.values()
    if traj.t.size != t.size:
        raise SimulationError(
            f"integrator produced {traj.t.size} samples for a {t.size}-point grid"
        )
    columns: dict[str, np.ndarray] = {"t": t}
    for name, i, j in _V_COLUMNS:
        columns[name] = traj.V[:, i, j]
    return [ResultTable(name="covariance", columns=columns)]


def _run_static_potential(spec: RunSpec) -> list[ResultTable]:
    x = spec.grids["x"].values()
    forces = spec.grids["F0"].values()
    if np.any(forces < 0):
        raise ConfigError("F0 grid must be non-negative")
    spacing = STATIC_WAVELENGTH / 2.0
    if np.ceil(x[0] / spacing) * spacing > x[-1]:
        raise ConfigError(
            f"x grid must cover at least one comb resonance (spacing {spacing:g})"
        )
    k_ho = spec.params.m * spec.params.omega_m ** 2
    cols = {k: [] for k in ("F0", "x_eq", "K_eff")}
    last_result = None
    for f0 in forces:
        model = classical.lorentzian_comb_model(
            k_ho, float(f0), STATIC_WAVELENGTH, STATIC_FINESSE, float(x[0]), float(x[-1])
        )
        last_result = classical.static_potential(model, x)
        for pos, stiff in zip(last_result.equilibria, last_result.K_eff):
            cols["F0"].append(float(f0))
            cols["x_eq"].append(float(pos))
            cols["K_eff"].append(float(stiff))
    return [
        ResultTable(
            name="equilibria",
            columns={k: np.array(v) for k, v in cols.items()},
        ),
        ResultTable(
            name="potential",
            columns={
                "x": x,
                "V_RP": last_result.V_RP,
                "V_HO": last_result.V_HO,
                "V_t": last_result.V_t,
            },
        ),
    ]


def _run_regime(spec: RunSpec) -> list[ResultTable]:
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
    return [
        ResultTable(
            name="regime",
            columns={k: np.array([v]) for k, v in scalars.items()},
        )
    ]


_HANDLERS = {
    "steady": _run_steady,
    "bistability": _run_bistability,
    "hysteresis": _run_hysteresis,
    "stability-map": _run_stability_map,
    "damping": _run_damping,
    "spring": _run_spring,
    "mean-field": _run_mean_field,
    "covariance": _run_covariance,
    "static-potential": _run_static_potential,
    "regime": _run_regime,
}


def run_command(spec: RunSpec) -> list[ResultTable]:
    """Execute a validated RunSpec and return its result tables."""
    handler = _HANDLERS.get(spec.command)
    if handler is None:
        raise ConfigError(f"unknown command {spec.command!r}")
    tables = handler(spec)
    metadata = spec_to_config(spec)
    for table in tables:
        table.metadata = metadata
    return tables


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
    n = lengths.pop() if lengths else 0
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for i in range(n):
            fh.write(
                ",".join(format(float(col[i]), ".17g") for col in columns.values())
                + "\n"
            )
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
    try:
        spec = load_config(args.config)
        if args.output_dir:
            spec = dataclasses.replace(spec, output_dir=args.output_dir)
        tables = run_command(spec)
        write_tables(tables, spec.output_dir, quiet=args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        # before ValueError: LinAlgError subclasses it
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
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
