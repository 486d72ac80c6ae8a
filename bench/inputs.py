"""Seeded inputs for the benchmark workloads.

Every value drawn here comes from `random.Random` seeded with the workload
name and the seed argument, so the same seed gives byte-identical configs on
any machine.  Parameters stay close to the golden configs under `configs/`
(kappa 0.15, gamma 0.005, g0 0.005 or 0.003) so each seed exercises the same
regime with the same amount of work; grid sizes are fixed constants.
"""

from __future__ import annotations

import random

import oracles

WORKLOADS = ("steady-sweep", "time-trace", "cooling-scan")

# steady-sweep: stability map, bistability and hysteresis sweeps, static potential
MAP_COUNT = 31
SWEEP_COUNT = 401
POTENTIAL_X_COUNT = 2201          # the golden static-potential position grid
POTENTIAL_F0_COUNT = 8

# time-trace: mean-field and covariance trajectories
TRACE_STEPS = 3000
TRACE_DT = 0.045                  # below the RK4 bound 0.05 / max rate for |Delta| <= 1

# cooling-scan: red-detuned (Delta0, A_l) grid of library calls at n_th = 10
COOLING_DETUNINGS = 30
COOLING_AMPLITUDES = 25
COOLING_N_TH = 10.0

STEP_BOUND_FACTOR = 0.05          # the documented RK4 step bound of optomech.rk4


def _around(rng: random.Random, centre: float, rel: float) -> float:
    return centre * (1.0 + rng.uniform(-rel, rel))


def _params(rng: random.Random, g0: float, **extra) -> dict:
    params = {
        "kappa": _around(rng, 0.15, 0.02),
        "gamma": _around(rng, 0.005, 0.02),
        "g0": _around(rng, g0, 0.01),
        "Delta0": 0.0,
        "A_l": _around(rng, 5.0, 0.01),
    }
    params.update(extra)
    return params


def _config(command: str, params: dict, grids: dict) -> dict:
    return {
        "command": command,
        "params": params,
        "grids": {
            name: {"start": start, "stop": stop, "count": count}
            for name, (start, stop, count) in grids.items()
        },
        "output_dir": command,
    }


def _steady_sweep(rng: random.Random) -> dict:
    coupled = _params(rng, 0.005)
    sweep = (-0.35 + rng.uniform(-0.005, 0.005), -0.05 + rng.uniform(-0.005, 0.005), SWEEP_COUNT)
    edges = oracles.window_edges(coupled, sweep[0], sweep[1])
    if len(edges) != 2:
        raise RuntimeError(f"bistable window not inside the Delta0 grid: edges {edges}")
    potential = dict(coupled, g0=0.003, m=1.0, omega_m=1.0)
    return {
        "configs": {
            "stability_map": _config("stability-map", coupled, {
                "Delta0": (-0.4 + rng.uniform(-0.01, 0.01), 0.4 + rng.uniform(-0.01, 0.01), MAP_COUNT),
                "A_l": (0.5 + rng.uniform(-0.05, 0.05), 10.0 + rng.uniform(-0.2, 0.2), MAP_COUNT),
            }),
            "bistability": _config("bistability", coupled, {"Delta0": sweep}),
            "hysteresis": _config("hysteresis", coupled, {"Delta0": sweep}),
            "static_potential": _config("static-potential", potential, {
                "x": (-2.2, 2.2, POTENTIAL_X_COUNT),
                "F0": (0.0, rng.uniform(1.4, 1.6), POTENTIAL_F0_COUNT),
            }),
        },
    }


def _trace_params(rng: random.Random, **extra) -> dict:
    params = _params(rng, 0.003, Delta0=rng.uniform(-0.98, -0.88), **extra)
    fastest = max(params["kappa"], params["gamma"], 1.0, abs(params["Delta0"]))
    if TRACE_DT > 0.95 * STEP_BOUND_FACTOR / fastest:
        raise RuntimeError(f"dt {TRACE_DT} too close to the RK4 step bound for {params}")
    return params


def _time_trace(rng: random.Random) -> dict:
    grid = {"t": (0.0, TRACE_STEPS * TRACE_DT, TRACE_STEPS + 1)}
    return {
        "configs": {
            "mean_field": _config("mean-field", _trace_params(rng), grid),
            "covariance": _config("covariance", _trace_params(rng, n_th=COOLING_N_TH), grid),
        },
    }


def _cooling_scan(rng: random.Random) -> dict:
    base = _params(rng, 0.003, Delta0=-1.0, n_th=COOLING_N_TH)
    return {
        "configs": {"cooling": _config("steady", base, {})},
        "cooling_grid": {
            "Delta0": [-1.5 + rng.uniform(-0.02, 0.02), -0.5 + rng.uniform(-0.02, 0.02),
                       COOLING_DETUNINGS],
            "A_l": [1.0 + rng.uniform(-0.1, 0.1), 10.0 + rng.uniform(-0.3, 0.3),
                    COOLING_AMPLITUDES],
        },
    }


_GENERATORS = {
    "steady-sweep": _steady_sweep,
    "time-trace": _time_trace,
    "cooling-scan": _cooling_scan,
}


def generate(workload: str, seed: int) -> dict:
    """Configs (in the `optomech` config-file schema) for one workload and seed.

    The returned dict has "configs" (name -> config dict, in pass order) and,
    for cooling-scan, "cooling_grid" with [start, stop, count] per axis.
    """
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
