"""Independent reference checks for the CSV tables the workloads write.

Nothing here imports optomech.  Every quantity is rebuilt from the model
equations stated in PAPER.md and the optomech.classical / optomech.quantum
module docstrings, using numpy and scipy reference routines (`np.roots`,
`np.linalg.eigvals`, `brentq`, `solve_continuous_lyapunov`, `expm`,
`solve_ivp`).  The checks run after the timed passes, on the reference
output of the first (warm-up) pass.

Each `check_*` function returns {operation name: [problem, ...]}; an empty
list means the output of that operation matches its oracle.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm, solve_continuous_lyapunov
from scipy.optimize import brentq

_RESIDUAL_RTOL = 1e-8     # documented residual bound of the steady-state roots
_ROOT_RTOL = 1e-6         # agreement of a reported root with the reference root
_EDGE_ATOL = 1e-6         # window edge error, as in acceptance criterion 2
_MARGINAL = 1e-8          # |max Re eig| below this gives no stability verdict
_LYAP_RTOL = 1e-8         # steady covariance against the Lyapunov reference
_TRAJ_RTOL = 1e-5         # RK4 trajectories against the accurate references

STATIC_WAVELENGTH = 1.0   # fixed geometry of the static-potential command
STATIC_FINESSE = 10.0
STATIC_PAD = 10


# ---------------------------------------------------------------------------
# model equations


def cubic_coefficients(p: dict, Delta0: float, A_l: float) -> tuple[float, float, float, float]:
    """4 C^2 N^3 + 8 C Delta0 N^2 + (4 Delta0^2 + kappa^2) N - 4 A_l^2."""
    omega_m = p.get("omega_m", 1.0)
    C = 2.0 * p["g0"] ** 2 * omega_m / (p["gamma"] ** 2 / 4.0 + omega_m ** 2)
    return (4.0 * C * C, 8.0 * C * Delta0, 4.0 * Delta0 ** 2 + p["kappa"] ** 2, -4.0 * A_l ** 2)


def _cubic(coeffs, N):
    a, b, c, d = coeffs
    return ((a * N + b) * N + c) * N + d


def root_product_discriminant(coeffs) -> float:
    """Discriminant a^4 prod (r_i - r_j)^2 from the numerically found roots."""
    r = np.roots(coeffs)
    prod = (r[0] - r[1]) * (r[0] - r[2]) * (r[1] - r[2])
    return float((coeffs[0] ** 4 * prod ** 2).real)


def positive_roots(coeffs) -> list[float]:
    """Real positive roots, ascending, each polished by Newton steps."""
    a, b, c, _ = coeffs
    roots = []
    for r in np.roots(coeffs):
        if abs(r.imag) > 1e-8 * max(1.0, abs(r.real)):
            continue
        x = float(r.real)
        for _ in range(8):
            slope = (3.0 * a * x + 2.0 * b) * x + c
            if slope == 0.0:
                break
            x -= _cubic(coeffs, x) / slope
        if x > 0.0:
            roots.append(x)
    return sorted(roots)


def drift(p: dict, Delta0: float, A_l: float, N: float) -> np.ndarray:
    """Drift matrix of the quadrature fluctuations linearized at occupancy N."""
    kappa, gamma, g0 = p["kappa"], p["gamma"], p["g0"]
    omega_m = p.get("omega_m", 1.0)
    beta = 1j * g0 * N / (gamma / 2.0 + 1j * omega_m)
    Delta = Delta0 + 2.0 * g0 * beta.real
    g = g0 * A_l / (kappa / 2.0 - 1j * Delta)
    return np.array([
        [-kappa / 2.0, -Delta, -2.0 * g.imag, 0.0],
        [Delta, -kappa / 2.0, 2.0 * g.real, 0.0],
        [0.0, 0.0, -gamma / 2.0, omega_m],
        [2.0 * g.real, 2.0 * g.imag, -omega_m, -gamma / 2.0],
    ])


def diffusion(p: dict) -> np.ndarray:
    mech = p["gamma"] * (p.get("n_th", 0.0) + 0.5)
    return np.diag([p["kappa"] / 2.0, p["kappa"] / 2.0, mech, mech])


def max_real_eig(A: np.ndarray) -> float:
    return float(np.linalg.eigvals(A).real.max())


def first_stable_root(p: dict, Delta0: float, A_l: float) -> float | None:
    for N in positive_roots(cubic_coefficients(p, Delta0, A_l)):
        if max_real_eig(drift(p, Delta0, A_l, N)) < 0.0:
            return N
    return None


def window_edges(p: dict, start: float, stop: float) -> list[float]:
    """Detunings in (start, stop) where the discriminant changes sign."""
    def disc(d: float) -> float:
        return root_product_discriminant(cubic_coefficients(p, d, p["A_l"]))

    grid = np.linspace(start, stop, 601)
    values = [disc(d) for d in grid]
    return [
        brentq(disc, grid[i], grid[i + 1], xtol=1e-13)
        for i in range(grid.size - 1)
        if (values[i] > 0.0) != (values[i + 1] > 0.0)
    ]


def static_force(F0: float, x: np.ndarray, x_min: float, x_max: float):
    """Comb force, its gradient and potential (Lorentzian resonances, k_HO = 1 scale)."""
    spacing = STATIC_WAVELENGTH / 2.0
    j = np.arange(math.floor(x_min / spacing) - STATIC_PAD, math.ceil(x_max / spacing) + STATIC_PAD + 1)
    width = STATIC_WAVELENGTH / (2.0 * STATIC_FINESSE)
    s = 2.0 * (np.atleast_1d(x)[:, None] - j[None, :] * spacing) / width
    force = F0 * np.sum(1.0 / (1.0 + s * s), axis=1)
    gradient = F0 * np.sum(-4.0 * s / (width * (1.0 + s * s) ** 2), axis=1)
    potential = -F0 * (width / 2.0) * np.sum(np.arctan(s), axis=1)
    return force, gradient, potential


# ---------------------------------------------------------------------------
# tables


def read_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.size == 0:
        data = np.empty((0, len(header)))
    return {name: data[:, i] for i, name in enumerate(header)}


def _grid(config: dict, name: str) -> np.ndarray:
    g = config["grids"][name]
    return np.linspace(g["start"], g["stop"], g["count"])


def _group_rows(values: np.ndarray, grid: np.ndarray) -> list[np.ndarray]:
    """Row indices per grid value; rows must follow the grid order."""
    idx = np.searchsorted(grid, values)
    idx = np.clip(idx, 0, grid.size - 1)
    lower = np.clip(idx - 1, 0, grid.size - 1)
    nearest = np.where(np.abs(grid[lower] - values) < np.abs(grid[idx] - values), lower, idx)
    if np.any(np.abs(grid[nearest] - values) > 1e-12 * max(1.0, float(np.max(np.abs(grid))))):
        raise ValueError("rows carry values off the input grid")
    return [np.flatnonzero(nearest == k) for k in range(grid.size)]


def _check_branches(p, Delta0, A_l, N, stable, where, problems) -> None:
    """Root count, residuals, root values and stability verdicts at one point."""
    coeffs = cubic_coefficients(p, Delta0, A_l)
    reference = positive_roots(coeffs)
    disc_count = 3 if root_product_discriminant(coeffs) > 0.0 else 1
    if len(reference) == disc_count and len(N) != disc_count:
        problems.append(f"{where}: {len(N)} roots, discriminant says {disc_count}")
        return
    scale = max(1.0, abs(coeffs[3]))
    for k, (n, ok) in enumerate(zip(N, stable)):
        if abs(_cubic(coeffs, n)) > _RESIDUAL_RTOL * scale:
            problems.append(f"{where}: root {k} residual {_cubic(coeffs, n):.3e}")
        if len(N) == len(reference) and abs(n - reference[k]) > _ROOT_RTOL * max(1.0, reference[k]):
            problems.append(f"{where}: root {k} = {n!r}, reference {reference[k]!r}")
        max_re = max_real_eig(drift(p, Delta0, A_l, n))
        if abs(max_re) > _MARGINAL and bool(ok) != (max_re < 0.0):
            problems.append(f"{where}: branch {k} verdict {bool(ok)}, max Re eig {max_re:.3e}")


def _check_map(config: dict, out: Path) -> list[str]:
    p = config["params"]
    t = read_csv(out / "stability_map.csv")
    detunings, amplitudes = _grid(config, "Delta0"), _grid(config, "A_l")
    problems: list[str] = []
    cells = 0
    for i, rows_d in enumerate(_group_rows(t["Delta0"], detunings)):
        for j, rows in enumerate(_group_rows(t["A_l"][rows_d], amplitudes)):
            rows = rows_d[rows]
            if not np.array_equal(t["branch"][rows], np.arange(rows.size)):
                problems.append(f"cell ({i}, {j}): branches {t['branch'][rows]}")
                continue
            cells += 1
            _check_branches(p, detunings[i], amplitudes[j], t["N_o"][rows], t["stable"][rows],
                            f"map cell ({i}, {j})", problems)
    if cells != detunings.size * amplitudes.size:
        problems.append(f"{cells} map cells checked of {detunings.size * amplitudes.size}")
    return problems


def _check_bistability(config: dict, out: Path) -> list[str]:
    p = config["params"]
    t = read_csv(out / "bistability.csv")
    grid = _grid(config, "Delta0")
    problems: list[str] = []
    for i, rows in enumerate(_group_rows(t["Delta0"], grid)):
        if rows.size == 0:
            problems.append(f"no rows at Delta0 = {grid[i]!r}")
            continue
        _check_branches(p, grid[i], p["A_l"], t["N_o"][rows], t["stable"][rows],
                        f"sweep point {i}", problems)
    edges = read_csv(out / "window_edges.csv")["Delta0_edge"]
    reference = window_edges(p, grid[0], grid[-1])
    if edges.size != len(reference):
        problems.append(f"{edges.size} window edges, reference {len(reference)}")
    else:
        err = max((abs(e - r) for e, r in zip(np.sort(edges), reference)), default=0.0)
        if err > _EDGE_ATOL:
            problems.append(f"window edge error {err:.3e} > {_EDGE_ATOL:g}")
    return problems


def _check_hysteresis(config: dict, out: Path) -> list[str]:
    p = config["params"]
    t = read_csv(out / "hysteresis.csv")
    grid = _grid(config, "Delta0")
    if t["Delta0"].size != grid.size or np.max(np.abs(t["Delta0"] - grid)) > 1e-12:
        return ["hysteresis rows do not follow the Delta0 grid"]
    problems: list[str] = []
    for i, d in enumerate(grid):
        reference = positive_roots(cubic_coefficients(p, d, p["A_l"]))
        for name in ("N_up", "N_down"):
            n = t[name][i]
            if min(abs(n - r) for r in reference) > _ROOT_RTOL * max(1.0, n):
                problems.append(f"{name}[{i}] = {n!r} is not a steady-state root")
    edges = window_edges(p, grid[0], grid[-1])
    inside = (grid > min(edges)) & (grid < max(edges)) if edges else np.zeros(grid.size, bool)
    if not np.array_equal(t["N_up"] != t["N_down"], inside):
        problems.append("up and down traces do not differ exactly inside the window")
    if np.any(t["N_up"][inside] >= t["N_down"][inside]):
        problems.append("up trace not below the down trace inside the window")
    return problems


def _check_static_potential(config: dict, out: Path) -> list[str]:
    p = config["params"]
    x = _grid(config, "x")
    forces = _grid(config, "F0")
    k_ho = p.get("m", 1.0) * p.get("omega_m", 1.0) ** 2
    eq = read_csv(out / "equilibria.csv")
    problems: list[str] = []
    for F0 in forces:
        rows = np.flatnonzero(np.abs(eq["F0"] - F0) <= 1e-12 * max(1.0, abs(F0)))
        force, _, _ = static_force(F0, x, x[0], x[-1])
        h = k_ho * x - force
        # minima of V_t: dV_t/dx = h rises through zero between nodes or at a node
        crossings = [(i, False) for i in np.flatnonzero((h[:-1] < 0.0) & (h[1:] > 0.0))]
        crossings += [(i, True) for i in np.flatnonzero((h[1:-1] == 0.0) & (h[:-2] < 0.0) & (h[2:] > 0.0)) + 1]
        crossings.sort()
        if rows.size != len(crossings):
            problems.append(f"F0 = {F0:.6g}: {rows.size} equilibria, reference {len(crossings)}")
            continue
        for r, (i, at_node) in zip(rows, crossings):
            def slope(pos: float) -> float:
                return k_ho * pos - float(static_force(F0, np.array([pos]), x[0], x[-1])[0][0])
            ref = x[i] if at_node else brentq(slope, x[i], x[i + 1], xtol=1e-13)
            if abs(eq["x_eq"][r] - ref) > 1e-9 * STATIC_WAVELENGTH:
                problems.append(f"F0 = {F0:.6g}: x_eq {eq['x_eq'][r]!r}, reference {ref!r}")
            grad = static_force(F0, np.array([ref]), x[0], x[-1])[1][0]
            if abs(eq["K_eff"][r] - (k_ho - grad)) > 1e-6 * max(1.0, abs(grad)):
                problems.append(f"F0 = {F0:.6g}: K_eff {eq['K_eff'][r]!r}, reference {k_ho - grad!r}")
    pot = read_csv(out / "potential.csv")
    _, _, v_rp = static_force(forces[-1], x, x[0], x[-1])
    v_ho = 0.5 * k_ho * x ** 2
    for name, ref in (("V_RP", v_rp), ("V_HO", v_ho), ("V_t", v_rp + v_ho)):
        if pot[name].size != x.size or not np.allclose(pot[name], ref, rtol=1e-10, atol=1e-12):
            problems.append(f"potential column {name} differs from the closed form")
    return problems


def _check_mean_field(config: dict, out: Path) -> list[str]:
    p = config["params"]
    omega_m = p.get("omega_m", 1.0)
    t = read_csv(out / "mean_field.csv")
    times = _grid(config, "t")

    def rhs(_t, y):
        alpha, beta = complex(y[0], y[1]), complex(y[2], y[3])
        Delta = p["Delta0"] + 2.0 * p["g0"] * beta.real
        da = -(p["kappa"] / 2.0 - 1j * Delta) * alpha + p["A_l"]
        db = -(p["gamma"] / 2.0 + 1j * omega_m) * beta + 1j * p["g0"] * abs(alpha) ** 2
        return [da.real, da.imag, db.real, db.imag]

    ref = solve_ivp(rhs, (times[0], times[-1]), [0.0, 0.0, 0.0, 0.0], method="DOP853",
                    t_eval=times, rtol=1e-11, atol=1e-11)
    if not ref.success or t["t"].size != times.size:
        return [f"reference integration failed or row count {t['t'].size} != {times.size}"]
    problems: list[str] = []
    for cols, k in ((("alpha_re", "alpha_im"), 0), (("beta_re", "beta_im"), 2)):
        got = t[cols[0]] + 1j * t[cols[1]]
        want = ref.y[k] + 1j * ref.y[k + 1]
        err = float(np.max(np.abs(got - want)))
        if err > _TRAJ_RTOL * max(1.0, float(np.max(np.abs(want)))):
            problems.append(f"{cols[0][:-3]} deviates from solve_ivp by {err:.3e}")
    if not np.allclose(t["N"], t["alpha_re"] ** 2 + t["alpha_im"] ** 2, rtol=1e-12, atol=0.0):
        problems.append("N column is not |alpha|^2")
    return problems


_V_COLUMNS = (
    ("V_xx", 0, 0), ("V_xy", 0, 1), ("V_xq", 0, 2), ("V_xp", 0, 3),
    ("V_yy", 1, 1), ("V_yq", 1, 2), ("V_yp", 1, 3),
    ("V_qq", 2, 2), ("V_qp", 2, 3), ("V_pp", 3, 3),
)


def _check_covariance(config: dict, out: Path) -> list[str]:
    p = config["params"]
    t = read_csv(out / "covariance.csv")
    times = _grid(config, "t")
    N = first_stable_root(p, p["Delta0"], p["A_l"])
    if N is None or t["t"].size != times.size:
        return ["no stable reference branch or wrong row count"]
    A, D = drift(p, p["Delta0"], p["A_l"], N), diffusion(p)
    n_th = p.get("n_th", 0.0)
    V_inf = solve_continuous_lyapunov(A, -D)
    W = np.diag([0.5, 0.5, n_th + 0.5, n_th + 0.5]) - V_inf
    step = expm(A * (times[1] - times[0]))
    want = np.empty((times.size, 4, 4))
    for k in range(times.size):
        want[k] = W + V_inf
        W = step @ W @ step.T
    scale = max(1.0, float(np.max(np.abs(want))))
    err = max(float(np.max(np.abs(t[name] - want[:, i, j]))) for name, i, j in _V_COLUMNS)
    if err > _TRAJ_RTOL * scale:
        return [f"covariance deviates from expm propagation by {err:.3e}"]
    return []


_STEADY_SWEEP_CHECKS = {
    "stability_map": _check_map,
    "bistability": _check_bistability,
    "hysteresis": _check_hysteresis,
    "static_potential": _check_static_potential,
}
_TIME_TRACE_CHECKS = {"mean_field": _check_mean_field, "covariance": _check_covariance}


def check_commands(configs: dict, out_root: Path) -> dict[str, list[str]]:
    """Check each CLI command's tables (written to out_root/<name>/)."""
    checks = {**_STEADY_SWEEP_CHECKS, **_TIME_TRACE_CHECKS}
    result = {}
    for name, config in configs.items():
        try:
            result[name] = checks[name](config, out_root / name)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            result[name] = [f"unreadable output: {exc!r}"]
    return result


COOLING_COLUMNS = ("Delta0", "A_l", "N_o") + tuple(c[0] for c in _V_COLUMNS) + ("var_q", "min_eig")


def check_cooling(config: dict, grid: dict, path: Path) -> tuple[list[str], set[int]]:
    """Table-level problems and the indices of cooling points that miss the oracle."""
    p = config["params"]
    detunings = np.linspace(*grid["Delta0"][:2], grid["Delta0"][2])
    amplitudes = np.linspace(*grid["A_l"][:2], grid["A_l"][2])
    points = [(d, a) for d in detunings for a in amplitudes]
    try:
        t = read_csv(path)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc!r}"], set(range(len(points)))
    if tuple(t) != COOLING_COLUMNS or t["N_o"].size != len(points):
        return [f"columns {tuple(t)} with {t['N_o'].size} rows"], set(range(len(points)))
    omega = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    failed = set()
    for k, (d, a) in enumerate(points):
        row = {name: t[name][k] for name in COOLING_COLUMNS}
        N = first_stable_root(p, d, a)
        if N is None or row["Delta0"] != d or row["A_l"] != a:
            failed.add(k)
            continue
        if abs(row["N_o"] - N) > _ROOT_RTOL * max(1.0, N):
            failed.add(k)
            continue
        V = solve_continuous_lyapunov(drift(p, d, a, N), -diffusion(p))
        scale = max(1.0, float(np.max(np.abs(V))))
        min_eig = float(np.min(np.linalg.eigvalsh(V + 0.5j * omega)))
        if (
            any(abs(row[name] - V[i, j]) > _LYAP_RTOL * scale for name, i, j in _V_COLUMNS)
            or row["var_q"] != row["V_qq"]
            or abs(row["min_eig"] - min_eig) > _LYAP_RTOL * scale
            or row["min_eig"] < -_LYAP_RTOL * scale
        ):
            failed.add(k)
    return [], failed
