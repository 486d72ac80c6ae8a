"""Acceptance gate: every guaranteed behaviour, checked at its stated tolerance.

Each test prints exactly one PASS/FAIL line (visible with ``pytest -s`` and in
failure reports) carrying the measured numbers, then asserts.  Oracles are
independent of the code paths under test: cubic window edges are cross-checked
against discriminant zeros built from root products, Routh-Hurwitz verdicts
against eigenvalue signs, potential equilibria against dense-grid minima of
the closed-form potential, and CSV determinism against content hashes.
"""

import dataclasses
import hashlib
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from optomech import (
    SystemParams,
    beam_radiation_force,
    drift_matrix,
    drift_matrix_from_rates,
    hysteresis_traces,
    integrate_covariance,
    lorentzian_comb_model,
    optical_spring_shift,
    optomechanical_damping,
    routh_hurwitz_stable,
    self_energy,
    solve_intracavity_occupancy,
    static_potential,
    steady_covariance,
    steady_states,
    sweep_bistability,
    stability_map,
    thermal_covariance,
)
from optomech.cli import main as cli_main
from optomech.errors import UnstableSystemError

BASE = SystemParams(kappa=0.15, gamma=0.005, g0=0.0, Delta0=0.0, A_l=5.0)
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _report(num: int, description: str, problems: list[str], detail: str = "") -> None:
    ok = not problems
    status = "PASS" if ok else "FAIL"
    tail = detail if ok else "; ".join(problems)
    print(f"{status} criterion {num}: {description}" + (f" [{tail}]" if tail else ""))
    assert ok, f"criterion {num}: {'; '.join(problems)}"


def test_criterion_01_linear_cavity_occupancy():
    problems = []
    steady_states(BASE)  # warm-up so the timing excludes first-call overhead
    t0 = time.perf_counter()
    (state,) = steady_states(BASE)
    elapsed = time.perf_counter() - t0
    oracle = 4.0 * BASE.A_l**2 / BASE.kappa**2  # closed form for g0 = 0
    rel = abs(state.N_o / oracle - 1.0)
    if rel > 1e-8:
        problems.append(f"N_o off closed form by {rel:.3e} relative")
    if f"{state.N_o:.1f}" != "4444.4":
        problems.append(f"N_o = {state.N_o!r} does not round to 4444.4")
    if elapsed >= 1e-3:
        problems.append(f"runtime {elapsed * 1e3:.3f} ms >= 1 ms")
    _report(
        1,
        "resonant occupancy matches 4444.4 closed form within 1e-8 rel, < 1 ms",
        problems,
        f"N_o = {state.N_o:.10f}, rel err {rel:.2e}, {elapsed * 1e6:.0f} us",
    )


def _independent_discriminant(params: SystemParams, Delta0: float) -> float:
    """Cubic discriminant via the product of squared root differences."""
    C = 2.0 * params.g0**2 * params.omega_m / (params.gamma**2 / 4.0 + params.omega_m**2)
    a, b = 4.0 * C**2, 8.0 * C * Delta0
    c, d = 4.0 * Delta0**2 + params.kappa**2, -4.0 * params.A_l**2
    r = np.roots([a, b, c, d])
    prod = (r[0] - r[1]) * (r[0] - r[2]) * (r[1] - r[2])
    return float((a**4 * prod**2).real)


def test_criterion_02_bistability_window_and_hysteresis():
    problems = []
    coupled = dataclasses.replace(BASE, g0=0.005)
    grid = np.linspace(-0.35, -0.05, 601)

    t0 = time.perf_counter()
    sweep = sweep_bistability(coupled, grid)
    up, down = hysteresis_traces(coupled, grid)
    elapsed = time.perf_counter() - t0

    def window_nonempty(g0v: float) -> bool:
        p = dataclasses.replace(BASE, g0=g0v)
        return any(
            len(solve_intracavity_occupancy(dataclasses.replace(p, Delta0=float(d)))) == 3
            for d in grid
        )

    # threshold existence: empty window below, nonempty above, bracket refined
    weak = sweep_bistability(dataclasses.replace(BASE, g0=0.001), grid)
    if weak.window_edges or np.any(weak.states.counts != 1):
        problems.append("g0 = 0.001 already shows a 3-root window")
    if len(sweep.window_edges) != 2 or not np.any(sweep.states.counts == 3):
        problems.append("g0 = 0.005 does not show a nonempty 3-root window")
    lo, hi = 0.001, 0.005
    for _ in range(12):
        mid = 0.5 * (lo + hi)
        if window_nonempty(mid):
            hi = mid
        else:
            lo = mid
    threshold = hi

    # window edges vs independent discriminant zero crossings
    edge_errs = []
    for edge in sweep.window_edges:
        f = lambda d: _independent_discriminant(coupled, d)
        if f(edge - 2.5e-4) * f(edge + 2.5e-4) >= 0:
            problems.append(f"no discriminant sign change around edge {edge:.6f}")
            continue
        zero = brentq(f, edge - 2.5e-4, edge + 2.5e-4, xtol=1e-12)
        edge_errs.append(abs(zero - edge))
    if edge_errs and max(edge_errs) > 1e-6:
        problems.append(f"edge mismatch {max(edge_errs):.2e} > 1e-6")

    # hysteresis traces differ exactly on the window's grid points
    inside = (grid > sweep.window_edges[0]) & (grid < sweep.window_edges[1])
    differ = up != down
    if not np.array_equal(differ, inside):
        problems.append("up/down traces do not differ exactly on window grid points")
    if not np.all(up[inside] < down[inside]):
        problems.append("up trace not below down trace inside the window")

    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f} s >= 1 s")
    _report(
        2,
        "g0 threshold, discriminant-checked window edges, exact hysteresis split",
        problems,
        f"threshold in ({lo:.5f}, {threshold:.5f}], edges "
        f"({sweep.window_edges[0]:.6f}, {sweep.window_edges[1]:.6f}), "
        f"edge err {max(edge_errs):.1e}, {int(np.sum(inside))} window points, "
        f"{elapsed * 1e3:.0f} ms",
    )


def test_criterion_03_stability_map_matches_eigenvalues():
    problems = []
    coupled = dataclasses.replace(BASE, g0=0.005)
    d_grid = np.linspace(-0.4, 0.4, 101)
    a_grid = np.linspace(0.5, 10.0, 101)

    t0 = time.perf_counter()
    smap = stability_map(coupled, d_grid, a_grid)
    elapsed = time.perf_counter() - t0

    # the roots and verdicts of point i * a_grid.size + j of the map
    cuts = np.cumsum(smap.counts)[:-1]
    roots, verdicts = np.split(smap.N_o, cuts), np.split(smap.stable, cuts)
    checked = disagree = marginal = n_stable = n_unstable = blue_unstable = 0
    for i, d in enumerate(d_grid):
        for j, a in enumerate(a_grid):
            p = dataclasses.replace(coupled, Delta0=float(d), A_l=float(a))
            states = steady_states(p)
            k = i * a_grid.size + j
            if tuple(s.N_o for s in states) != tuple(roots[k].tolist()):
                problems.append(f"root mismatch at ({d:.3f}, {a:.3f})")
                continue
            for state, verdict in zip(states, verdicts[k].tolist()):
                n_stable += verdict
                n_unstable += not verdict
                blue_unstable += (not verdict) and d > 0
                max_re = np.linalg.eigvals(drift_matrix(p, state)).real.max()
                if abs(max_re) <= 1e-8:
                    marginal += 1
                    continue
                checked += 1
                disagree += verdict != (max_re < 0)

    if disagree:
        problems.append(f"{disagree}/{checked} verdicts disagree with eigenvalue signs")
    if n_stable == 0 or n_unstable == 0:
        problems.append("map does not contain both stable and unstable branches")
    if blue_unstable == 0:
        problems.append("no unstable branch at blue detuning")
    if elapsed >= 10.0:
        problems.append(f"runtime {elapsed:.2f} s >= 10 s")
    _report(
        3,
        "101x101 Routh-Hurwitz map agrees with eigenvalue oracle on all "
        "non-marginal branches",
        problems,
        f"{checked} checked, {marginal} marginal, {disagree} disagreements, "
        f"S = {n_stable}, U = {n_unstable} ({blue_unstable} blue), {elapsed:.2f} s",
    )


def test_criterion_04_damping_and_spring_curve_shape():
    problems = []
    kappa, omega_m, g_s = 0.1, 1.0, 0.01
    half = np.linspace(0.0, 2.0, 501)  # +half and -half together: 1001 points

    t0 = time.perf_counter()
    gam_pos = optomechanical_damping(g_s, half, kappa, omega_m)
    gam_neg = optomechanical_damping(g_s, -half, kappa, omega_m)
    spr_pos = optical_spring_shift(g_s, half, kappa, omega_m)
    spr_neg = optical_spring_shift(g_s, -half, kappa, omega_m)
    dense = np.linspace(-2.0, 2.0, 4001)
    gam_dense = optomechanical_damping(g_s, dense, kappa, omega_m)
    elapsed = time.perf_counter() - t0

    if gam_pos[0] != 0.0 or spr_pos[0] != 0.0:
        problems.append("gamma_om(0) or delta_omega_m(0) not exactly zero")
    odd_gam = np.max(np.abs(gam_pos + gam_neg))
    odd_spr = np.max(np.abs(spr_pos + spr_neg))
    if odd_gam > 1e-12 or odd_spr > 1e-12:
        problems.append(f"odd-symmetry residual {max(odd_gam, odd_spr):.2e} > 1e-12")
    peak = dense[np.argmax(gam_dense)]
    trough = dense[np.argmin(gam_dense)]
    if abs(peak - (-omega_m)) > kappa / 2 or abs(trough - omega_m) > kappa / 2:
        problems.append(
            f"extrema at ({peak:.3f}, {trough:.3f}) not within kappa/2 of -/+omega_m"
        )
    signs_ok = np.all(np.sign(gam_pos[1:]) == -1.0) and np.all(
        np.sign(gam_neg[1:]) == 1.0
    )
    if not signs_ok:
        problems.append("sign(gamma_om) != -sign(Delta) somewhere")
    if elapsed >= 0.1:
        problems.append(f"runtime {elapsed * 1e3:.1f} ms >= 100 ms")
    _report(
        4,
        "gamma_om / delta_omega_m vanish at 0, odd to 1e-12, extrema at -/+omega_m"
        " +/- kappa/2, cooling sign",
        problems,
        f"odd resid {max(odd_gam, odd_spr):.1e}, extrema ({peak:.4f}, {trough:.4f}), "
        f"{elapsed * 1e3:.1f} ms",
    )


def test_criterion_05_self_energy_cross_identities():
    problems = []
    rng = np.random.default_rng(20260814)
    worst_damp = worst_spring = 0.0

    t0 = time.perf_counter()
    for _ in range(100):
        kappa = rng.uniform(0.05, 2.0)
        omega_m = rng.uniform(0.5, 2.0)
        g_s = rng.uniform(1e-3, 0.2)
        Delta = rng.uniform(-2.0, 2.0)
        m = rng.uniform(0.5, 2.0)
        Sigma = self_energy(omega_m, g_s, Delta, kappa, m, omega_m)
        gam = optomechanical_damping(g_s, Delta, kappa, omega_m)
        spr = optical_spring_shift(g_s, Delta, kappa, omega_m)
        worst_damp = max(worst_damp, abs(Sigma.imag / (m * omega_m) - gam))
        worst_spring = max(
            worst_spring, abs(abs(Sigma.real / (2.0 * m * omega_m)) - abs(spr))
        )
    elapsed = time.perf_counter() - t0

    if worst_damp > 1e-9:
        problems.append(f"Im Sigma identity off by {worst_damp:.2e} > 1e-9")
    if worst_spring > 1e-9:
        problems.append(f"Re Sigma identity off by {worst_spring:.2e} > 1e-9")
    if elapsed >= 0.1:
        problems.append(f"runtime {elapsed * 1e3:.1f} ms >= 100 ms")
    _report(
        5,
        "Im/Re self-energy at omega_m reproduce damping and spring closed forms "
        "to 1e-9 on 100 random tuples",
        problems,
        f"worst |d gamma| {worst_damp:.1e}, worst |d spring| {worst_spring:.1e}, "
        f"{elapsed * 1e3:.1f} ms",
    )


def _random_stable_instance(rng):
    while True:
        kappa = rng.uniform(0.05, 1.0)
        gamma = rng.uniform(1e-3, 0.2)
        omega_m = rng.uniform(0.5, 2.0)
        Delta = rng.uniform(-2.0, 2.0)
        g = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
        n_th = rng.uniform(0.0, 50.0)
        A = drift_matrix_from_rates(kappa, gamma, omega_m, Delta, g)
        if np.linalg.eigvals(A).real.max() < -1e-3:
            mech = gamma * (n_th + 0.5)
            return A, np.diag([kappa / 2, kappa / 2, mech, mech]), n_th


def test_criterion_06_covariance_solver_and_integrator():
    problems = []
    rng = np.random.default_rng(61)

    t0 = time.perf_counter()
    worst_resid = 0.0
    for _ in range(100):
        A, D, _ = _random_stable_instance(rng)
        V = steady_covariance(A, D)
        resid = np.max(np.abs(A @ V + V @ A.T + D)) / np.max(np.abs(D))
        worst_resid = max(worst_resid, resid)
    if worst_resid > 1e-8:
        problems.append(f"Lyapunov residual {worst_resid:.2e} > 1e-8 |D|_max")

    # long-time limit of the integrator on strongly damped instances
    worst_longtime = 0.0
    found = 0
    while found < 10:
        kappa = rng.uniform(0.5, 1.5)
        gamma = rng.uniform(0.5, 1.0)
        omega_m = rng.uniform(0.5, 2.0)
        Delta = rng.uniform(-2.0, 2.0)
        g = complex(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
        n_th = rng.uniform(0.0, 20.0)
        A = drift_matrix_from_rates(kappa, gamma, omega_m, Delta, g)
        if np.linalg.eigvals(A).real.max() > -0.2:
            continue
        found += 1
        mech = gamma * (n_th + 0.5)
        D = np.diag([kappa / 2, kappa / 2, mech, mech])
        V_inf = steady_covariance(A, D)
        fastest = max(kappa, gamma, omega_m, abs(Delta))
        traj = integrate_covariance(
            A, D, thermal_covariance(n_th), t_end=150.0, dt=0.04 / fastest
        )
        worst_longtime = max(worst_longtime, np.max(np.abs(traj.V[-1] - V_inf)))
    if worst_longtime > 1e-6:
        problems.append(f"long-time error {worst_longtime:.2e} > 1e-6")

    # uncoupled analytic fixed point
    A0 = drift_matrix_from_rates(0.2, 0.01, 1.3, -0.7, 0.0)
    n_th = 7.25
    D0 = np.diag([0.1, 0.1, 0.01 * (n_th + 0.5), 0.01 * (n_th + 0.5)])
    err0 = np.max(np.abs(steady_covariance(A0, D0) - thermal_covariance(n_th)))
    if err0 > 1e-10:
        problems.append(f"g = 0 fixed point error {err0:.2e} > 1e-10")

    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        problems.append(f"runtime {elapsed:.2f} s >= 5 s")
    _report(
        6,
        "Lyapunov residual <= 1e-8 on 100 instances, integrator reaches steady "
        "state to 1e-6, g = 0 analytic fixed point to 1e-10",
        problems,
        f"worst resid {worst_resid:.1e}, long-time err {worst_longtime:.1e}, "
        f"g=0 err {err0:.1e}, {elapsed:.2f} s",
    )


def test_criterion_07_red_detuning_cools_mechanical_quadrature():
    problems = []
    kappa, gamma, g_s, n_th = 0.15, 0.005, 0.05, 10.0
    mech = gamma * (n_th + 0.5)
    D = np.diag([kappa / 2, kappa / 2, mech, mech])

    t0 = time.perf_counter()
    A_red = drift_matrix_from_rates(kappa, gamma, 1.0, -1.0, g_s)
    V_red = steady_covariance(A_red, D)
    A_blue = drift_matrix_from_rates(kappa, gamma, 1.0, +1.0, g_s)
    blue_stable = routh_hurwitz_stable(A_blue)
    elapsed = time.perf_counter() - t0

    v_qq = V_red[2, 2]
    if not (10.5 - v_qq >= 1e-3):
        problems.append(f"V_qq = {v_qq:.6f} not below 10.5 by at least 1e-3")
    if blue_stable:
        V_blue = steady_covariance(A_blue, D)
        if not V_blue[2, 2] > v_qq:
            problems.append("stable mirrored point does not heat the quadrature")
        mirror_note = f"mirrored V_qq = {V_blue[2, 2]:.4f} > {v_qq:.4f}"
    else:
        with pytest.raises(UnstableSystemError):
            steady_covariance(A_blue, D)
        mirror_note = "mirrored Delta = +1 unstable (comparison clause vacuous)"
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f} s >= 1 s")
    _report(
        7,
        "red-detuned steady <dQ^2> drops below the thermal value 10.5",
        problems,
        f"V_qq = {v_qq:.6f} vs 10.5, margin {10.5 - v_qq:.4f}; {mirror_note}; "
        f"{elapsed * 1e3:.0f} ms",
    )


def test_criterion_08_static_potential_equilibria():
    problems = []
    wavelength, finesse, k_ho = 1.0, 10.0, 1.0
    width = wavelength / (2.0 * finesse)
    x = np.linspace(-2.2, 2.2, 2201)

    def count(F0: float) -> int:
        model = lorentzian_comb_model(k_ho, F0, wavelength, finesse, -2.2, 2.2)
        return static_potential(model, x).equilibria.size

    t0 = time.perf_counter()
    if count(0.0) != 1 or count(1e-6) != 1:
        problems.append("weak-force limit does not give exactly one equilibrium")
    lo, hi = 0.0, 1.0
    for _ in range(25):
        mid = 0.5 * (lo + hi)
        if count(mid) >= 2:
            hi = mid
        else:
            lo = mid
    threshold = hi
    if count(min(1.0, threshold * 1.001)) < 2:
        problems.append("no multi-well regime just above the computed threshold")

    # brute force: dense minima of the closed-form potential at F0 = 1
    model = lorentzian_comb_model(k_ho, 1.0, wavelength, finesse, -2.2, 2.2)
    result = static_potential(model, x)
    dense = np.linspace(-2.2, 2.2, 220001)
    V = 0.5 * k_ho * dense**2
    for xj in model.x_res:
        V -= model.F0 * (width / 2.0) * np.arctan(2.0 * (dense - xj) / width)
    interior = (V[1:-1] < V[:-2]) & (V[1:-1] < V[2:])
    minima = dense[1:-1][interior]
    if minima.size != result.equilibria.size:
        problems.append(
            f"{result.equilibria.size} equilibria vs {minima.size} brute-force minima"
        )
        match_err = float("nan")
    else:
        match_err = float(np.max(np.abs(np.sort(result.equilibria) - np.sort(minima))))
        if match_err > width / 100.0:
            problems.append(f"equilibrium offset {match_err:.2e} > width/100")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f} s >= 1 s")
    _report(
        8,
        "single well for F0 -> 0, multi-well above threshold, equilibria match "
        "dense-grid minima within width/100",
        problems,
        f"threshold = {threshold:.4f}, {result.equilibria.size} wells at F0 = 1, "
        f"match err {match_err:.1e} (tol {width / 100:.0e}), {elapsed * 1e3:.0f} ms",
    )


def test_criterion_09_radiation_force_order_of_magnitude():
    problems = []
    force = beam_radiation_force(1361.0)
    if not (5e-6 <= force <= 5e-5):
        problems.append(f"2P/c = {force:.3e} N outside [5e-6, 5e-5]")
    _report(
        9,
        "radiation force of a 1361 W beam lies in [5e-6, 5e-5] N",
        problems,
        f"force = {force:.6e} N",
    )


def test_criterion_10_golden_configs_are_deterministic(tmp_path):
    problems = []
    configs = sorted(CONFIG_DIR.glob("*.json"))
    if not configs:
        problems.append(f"no golden configs found under {CONFIG_DIR}")
    total_files = 0
    for config in configs:
        digests = []
        for run in ("first", "second"):
            out = tmp_path / config.stem / run
            code = cli_main([str(config), "--output-dir", str(out), "--quiet"])
            if code != 0:
                problems.append(f"{config.name} exited {code}")
                break
            digests.append(
                {
                    p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in sorted(out.glob("*.csv"))
                }
            )
        else:
            if not digests[0]:
                problems.append(f"{config.name} produced no CSV output")
            elif digests[0] != digests[1]:
                problems.append(f"{config.name} CSV output differs between runs")
            else:
                total_files += len(digests[0])
    _report(
        10,
        "re-running every golden config reproduces byte-identical CSV",
        problems,
        f"{len(configs)} configs, {total_files} CSV files hash-identical",
    )
