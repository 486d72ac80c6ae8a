"""Classical mean-field dynamics of the driven optomechanical cavity.

The intracavity field alpha and mechanical amplitude beta obey

    d alpha/dt = -(kappa/2 - i Delta) alpha + A_l,     Delta = Delta0 + 2 g0 Re(beta)
    d beta/dt  = -(gamma/2 + i omega_m) beta + i g0 |alpha|^2.

Steady states satisfy a cubic in the photon number N = |alpha_s|^2,

    4 C^2 N^3 + 8 C Delta0 N^2 + (4 Delta0^2 + kappa^2) N - 4 A_l^2 = 0,
    C = 2 g0^2 omega_m / (gamma^2/4 + omega_m^2),

which admits one or three positive roots; three roots is the bistable window.
This module also provides the linear-response quantities (susceptibilities,
radiation-pressure self-energy, optomechanical damping and spring shift) and
a static multi-well potential model for the slow-cavity limit.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, PoleError, RootSolveError, StepSizeError
from .model import SteadyState, SystemParams, validate_params
from .rk4 import STEP_BOUND_FACTOR, rk4_step, step_times
from .stability import routh_hurwitz_stable  # noqa: F401  (re-export)
from . import quantum

_ROOT_RTOL = 1e-8        # residual tolerance relative to max(1, |c0|)
_EDGE_ATOL = 1e-10       # bisection width for bistability window edges


@dataclass(frozen=True)
class CubicProblem:
    """Coefficients of the steady-state photon-number cubic (c3 N^3 + ... + c0)."""

    c3: float
    c2: float
    c1: float
    c0: float
    C: float  # static frequency-pull coefficient 2 g0^2 omega_m / (gamma^2/4 + omega_m^2)


@dataclass(frozen=True)
class BistabilityBranch:
    """Steady-state branches over a detuning sweep."""

    detunings: np.ndarray
    roots: tuple[tuple[float, ...], ...]          # ascending occupancies per point
    branch_labels: tuple[tuple[str, ...], ...]    # lower/middle/upper, or only
    stability: tuple[tuple[bool, ...], ...]
    window_edges: tuple[float, ...]               # refined detunings where root count changes


@dataclass(frozen=True)
class StabilityMap:
    """Root structure and stability over a (Delta0, A_l) grid."""

    detunings: np.ndarray
    amplitudes: np.ndarray
    roots: tuple[tuple[tuple[float, ...], ...], ...]   # [i_detuning][j_amplitude]
    stable: tuple[tuple[tuple[bool, ...], ...], ...]


@dataclass(frozen=True)
class ResponseQuantities:
    """Linear-response functions evaluated at one probe frequency."""

    chi_o: complex        # optical susceptibility at the effective detuning
    chi_m: complex        # bare mechanical susceptibility
    chi_eff: complex      # mechanical susceptibility dressed by the cavity
    Sigma: complex        # radiation-pressure self-energy
    gamma_om: float       # optomechanical damping rate
    delta_omega_m: float  # optical spring shift
    g_s: float            # field-enhanced coupling g0 |alpha_s|


@dataclass(frozen=True)
class RegimeSummary:
    """Derived stability flags for a linearized operating point."""

    total_damping: float        # gamma + gamma_om
    effective_frequency: float  # omega_m + delta_omega_m
    self_oscillation: bool      # total damping < 0
    parametric_instability: bool  # effective frequency < 0
    resolved_sideband: bool     # kappa < omega_m / 10


@dataclass(frozen=True)
class MeanFieldTrajectory:
    """Mean-field amplitudes sampled on a fixed time grid."""

    t: np.ndarray
    alpha: np.ndarray  # complex
    beta: np.ndarray   # complex


@dataclass(frozen=True)
class StaticPotentialModel:
    """Harmonic trap plus a periodic comb of Lorentzian radiation-force resonances.

    The force on the mirror is F_RP(x) = sum_j F0 / (1 + (2 (x - x_j) / width)^2)
    with resonance positions x_j spaced half a wavelength apart and
    width = wavelength / (2 finesse) the cavity linewidth in displacement.
    """

    k_HO: float                 # harmonic spring constant
    F0: float                   # peak radiation force per resonance
    x_res: tuple[float, ...]    # resonance positions
    width: float                # Lorentzian full width
    finesse: float


@dataclass(frozen=True)
class StaticPotentialResult:
    """Potential landscape and its stable equilibria on a position grid."""

    x: np.ndarray
    V_RP: np.ndarray
    V_HO: np.ndarray
    V_t: np.ndarray
    equilibria: np.ndarray  # stable equilibrium positions, ascending
    K_eff: np.ndarray       # effective stiffness d^2 V_t / dx^2 at each equilibrium


# ---------------------------------------------------------------------------
# steady-state cubic


def intracavity_cubic(params: SystemParams) -> CubicProblem:
    """Coefficients of the steady-state cubic for the photon number."""
    validate_params(params)
    C = 2.0 * params.g0 ** 2 * params.omega_m / (
        params.gamma ** 2 / 4.0 + params.omega_m ** 2
    )
    return CubicProblem(
        c3=4.0 * C * C,
        c2=8.0 * C * params.Delta0,
        c1=4.0 * params.Delta0 ** 2 + params.kappa ** 2,
        c0=-4.0 * params.A_l ** 2,
        C=C,
    )


def cubic_value(problem: CubicProblem, N: float) -> float:
    """Evaluate the steady-state cubic at occupancy N (Horner form)."""
    return ((problem.c3 * N + problem.c2) * N + problem.c1) * N + problem.c0


def cubic_discriminant(problem: CubicProblem) -> float:
    """Discriminant of the cubic; positive iff three distinct real roots.

    Products rather than powers: on overflow a float power raises, a product
    gives inf or nan, which reads as not positive (one root).
    """
    a, b, c, d = problem.c3, problem.c2, problem.c1, problem.c0
    return (
        18.0 * a * b * c * d
        - 4.0 * (b * b * b) * d
        + (b * b) * (c * c)
        - 4.0 * a * (c * c * c)
        - 27.0 * (a * a) * (d * d)
    )


def _cubic_derivative(problem: CubicProblem, N: float) -> float:
    return (3.0 * problem.c3 * N + 2.0 * problem.c2) * N + problem.c1


def _polish_root(problem: CubicProblem, x: float) -> float:
    """Newton-polish a cubic root, keeping the best residual seen."""
    best, best_res = x, abs(cubic_value(problem, x))
    for _ in range(40):
        dp = _cubic_derivative(problem, x)
        if dp == 0.0:
            break
        step = cubic_value(problem, x) / dp
        x = x - step
        res = abs(cubic_value(problem, x))
        if res < best_res:
            best, best_res = x, res
        if abs(step) <= 1e-16 * max(1.0, abs(x)):
            break
    return best


def solve_intracavity_occupancy(problem: CubicProblem) -> tuple[float, ...]:
    """All real roots of the cubic, ascending and Newton-polished.

    For A_l > 0 every real root is positive: the cubic equals
    N (4 (C N + Delta0)^2 + kappa^2) - 4 A_l^2, which is negative for all
    N <= 0.  (For A_l = 0 the only real root is N = 0.)  The root count is
    defined by the sign of cubic_discriminant: three roots when it is
    positive, otherwise one.  With three, the real parts of all companion-
    matrix eigenvalues are polished; with one, only the eigenvalue of
    smallest imaginary part.  When c3 N^3 + c2 N^2 is below rounding at the
    linear root -c0/c1 (g0 = 0 or vanishingly small) and the discriminant is
    not positive, that linear root is returned without forming the companion
    matrix, which would overflow.  Every returned root N satisfies
    |cubic(N)| <= 1e-8 max(1, |c0|).
    """
    scale = max(1.0, abs(problem.c0))
    if problem.c3 == 0.0 and problem.c1 <= 0.0:
        raise RootSolveError("degenerate cubic with non-positive linear coefficient")
    three = cubic_discriminant(problem) > 0.0
    if not three and problem.c1 > 0.0:
        n_lin = -problem.c0 / problem.c1
        if (problem.c3 * n_lin + abs(problem.c2)) * (n_lin * n_lin) <= 1e-17 * scale:
            return (n_lin,)
    raw = np.roots([problem.c3, problem.c2, problem.c1, problem.c0])
    if not three:
        raw = [raw[np.argmin(np.abs(raw.imag))]]
    roots = sorted(_polish_root(problem, float(r.real)) for r in raw)
    for x in roots:
        if abs(cubic_value(problem, x)) > _ROOT_RTOL * scale:
            raise RootSolveError(
                f"root N = {x:.17g} has residual {cubic_value(problem, x):.3e} "
                f"above tolerance {_ROOT_RTOL * scale:.3e}"
            )
    return tuple(roots)


def _steady_from_occupancy(params: SystemParams, problem: CubicProblem, N: float) -> SteadyState:
    beta_s = 1j * params.g0 * N / (params.gamma / 2.0 + 1j * params.omega_m)
    Delta_eff = params.Delta0 + 2.0 * params.g0 * beta_s.real
    alpha_s = params.A_l / (params.kappa / 2.0 - 1j * Delta_eff)
    A = quantum.drift_matrix_from_rates(
        params.kappa, params.gamma, params.omega_m, Delta_eff, params.g0 * alpha_s
    )
    return SteadyState(
        alpha_s=alpha_s,
        beta_s=beta_s,
        N_o=N,
        Delta_eff=Delta_eff,
        stable=routh_hurwitz_stable(A, margin=0.0),
    )


def steady_states(params: SystemParams) -> tuple[SteadyState, ...]:
    """All classical fixed points, in ascending photon number."""
    problem = intracavity_cubic(params)
    return tuple(
        _steady_from_occupancy(params, problem, N)
        for N in solve_intracavity_occupancy(problem)
    )


def steady_state(params: SystemParams, N_o: float | None = None) -> SteadyState:
    """The classical fixed point, optionally at a caller-chosen occupancy.

    With N_o omitted the cubic must be monostable; in a bistable window pass
    one of the solve_intracavity_occupancy roots explicitly.
    """
    problem = intracavity_cubic(params)
    if N_o is None:
        roots = solve_intracavity_occupancy(problem)
        if len(roots) != 1:
            raise ValueError(
                f"{len(roots)} steady states exist; pass N_o to select a branch"
            )
        N_o = roots[0]
    return _steady_from_occupancy(params, problem, float(N_o))


# ---------------------------------------------------------------------------
# sweeps


def _labels_for(count: int) -> tuple[str, ...]:
    return ("lower", "middle", "upper") if count == 3 else ("only",)


def _bisect(f, lo: float, hi: float, f_lo: float, width: float) -> float:
    """Bisect a sign change of f on [lo, hi] (f(lo) = f_lo) down to width."""
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _refine_edge(params: SystemParams, lo: float, hi: float) -> float:
    """Bisect the detuning at which the cubic discriminant changes sign.

    The root count is defined by the discriminant sign, so grid neighbours
    with different counts always bracket a sign change (or hit a zero).
    """
    def disc(d: float) -> float:
        return cubic_discriminant(
            intracavity_cubic(dataclasses.replace(params, Delta0=float(d)))
        )

    f_lo, f_hi = disc(lo), disc(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    return _bisect(disc, lo, hi, f_lo, _EDGE_ATOL * max(1.0, abs(lo), abs(hi)))


def sweep_bistability(params: SystemParams, detunings: np.ndarray) -> BistabilityBranch:
    """Solve the steady-state cubic along a detuning grid and locate the window.

    Window edges (detunings where the root count changes between adjacent
    grid points) are refined by bisection on the cubic discriminant.
    """
    detunings = np.asarray(detunings, dtype=float)
    if detunings.ndim != 1 or detunings.size < 2:
        raise ValueError("detunings must be a 1-D grid with at least 2 points")
    all_roots: list[tuple[float, ...]] = []
    all_labels: list[tuple[str, ...]] = []
    all_stable: list[tuple[bool, ...]] = []
    for d in detunings:
        states = steady_states(dataclasses.replace(params, Delta0=float(d)))
        all_roots.append(tuple(s.N_o for s in states))
        all_labels.append(_labels_for(len(states)))
        all_stable.append(tuple(s.stable for s in states))
    edges = []
    for i in range(detunings.size - 1):
        if len(all_roots[i]) != len(all_roots[i + 1]):
            lo, hi = sorted((float(detunings[i]), float(detunings[i + 1])))
            edges.append(_refine_edge(params, lo, hi))
    return BistabilityBranch(
        detunings=detunings,
        roots=tuple(all_roots),
        branch_labels=tuple(all_labels),
        stability=tuple(all_stable),
        window_edges=tuple(sorted(edges)),
    )


def hysteresis_sweep(
    params: SystemParams, detunings: np.ndarray, direction: str = "up"
) -> np.ndarray:
    """Occupancy trace along a detuning sweep with nearest-root continuation.

    The first point takes the smallest root when sweeping "up" and the
    largest when sweeping "down"; each later point takes the root nearest
    the previously occupied one, which reproduces hysteretic jumps at the
    bistability window edges.  The result is indexed like the input grid.
    """
    if direction not in ("up", "down"):
        raise ValueError(f"direction must be 'up' or 'down' (got {direction!r})")
    detunings = np.asarray(detunings, dtype=float)
    if detunings.ndim != 1 or detunings.size < 1:
        raise ValueError("detunings must be a non-empty 1-D grid")
    order = range(detunings.size) if direction == "up" else range(detunings.size - 1, -1, -1)
    out = np.empty(detunings.size)
    prev: float | None = None
    for i in order:
        p = dataclasses.replace(params, Delta0=float(detunings[i]))
        roots = solve_intracavity_occupancy(intracavity_cubic(p))
        if prev is None:
            prev = roots[0] if direction == "up" else roots[-1]
        else:
            prev = min(roots, key=lambda r: abs(r - prev))
        out[i] = prev
    return out


def stability_map(
    params: SystemParams, detunings: np.ndarray, amplitudes: np.ndarray
) -> StabilityMap:
    """Root structure and Routh-Hurwitz verdicts over a (Delta0, A_l) grid."""
    detunings = np.asarray(detunings, dtype=float)
    amplitudes = np.asarray(amplitudes, dtype=float)
    if detunings.ndim != 1 or amplitudes.ndim != 1:
        raise ValueError("detunings and amplitudes must be 1-D grids")
    if np.any(amplitudes < 0):
        raise ValueError("amplitudes must be >= 0")
    roots_grid = []
    stable_grid = []
    for d in detunings:
        row_roots = []
        row_stable = []
        for a in amplitudes:
            states = steady_states(dataclasses.replace(params, Delta0=float(d), A_l=float(a)))
            row_roots.append(tuple(s.N_o for s in states))
            row_stable.append(tuple(s.stable for s in states))
        roots_grid.append(tuple(row_roots))
        stable_grid.append(tuple(row_stable))
    return StabilityMap(
        detunings=detunings,
        amplitudes=amplitudes,
        roots=tuple(roots_grid),
        stable=tuple(stable_grid),
    )


# ---------------------------------------------------------------------------
# linear response


def optical_susceptibility(omega, Delta, kappa):
    """Cavity field response 1 / (kappa/2 - i (Delta + omega))."""
    if not kappa > 0:
        raise ValueError(f"kappa must be > 0 (got {kappa!r})")
    return 1.0 / (kappa / 2.0 - 1j * (np.asarray(Delta) + np.asarray(omega)))


def mechanical_susceptibility(omega, m, omega_m, gamma):
    """Bare mechanical response 1 / (m (omega_m^2 - omega^2) - i m gamma omega)."""
    if not (m > 0 and omega_m > 0 and gamma > 0):
        raise ValueError("m, omega_m and gamma must all be > 0")
    omega = np.asarray(omega)
    return 1.0 / (m * (omega_m ** 2 - omega ** 2) - 1j * m * gamma * omega)


def self_energy(omega, g_s, Delta, kappa, m, omega_m):
    """Radiation-pressure self-energy 2 i m omega_m g_s^2 (chi_o(w) - chi_o*(-w))."""
    chi_plus = optical_susceptibility(omega, Delta, kappa)
    chi_minus = np.conjugate(optical_susceptibility(-np.asarray(omega), Delta, kappa))
    return 2j * m * omega_m * g_s ** 2 * (chi_plus - chi_minus)


def effective_susceptibility(omega, g_s, Delta, kappa, m, omega_m, gamma):
    """Mechanical response dressed by the cavity: 1 / (1/chi_m - Sigma)."""
    chi_m = mechanical_susceptibility(omega, m, omega_m, gamma)
    Sigma = self_energy(omega, g_s, Delta, kappa, m, omega_m)
    if np.all(Sigma == 0):
        # 1/(1/chi_m) is not an exact float identity; the uncoupled limit is.
        return chi_m
    denom = 1.0 / chi_m - Sigma
    if np.any(np.abs(denom) < 1e-14):
        raise PoleError("effective susceptibility evaluated on a pole")
    return 1.0 / denom


def optomechanical_damping(g_s, Delta, kappa, omega_m):
    """Cavity-induced mechanical damping rate gamma_om(Delta).

    gamma_om = g_s^2 kappa [1/(kappa^2/4 + (omega_m + Delta)^2)
                            - 1/(kappa^2/4 + (omega_m - Delta)^2)];
    negative (anti-damping) for blue detuning Delta > 0.
    """
    if not (kappa > 0 and omega_m > 0):
        raise ValueError("kappa and omega_m must be > 0")
    Delta = np.asarray(Delta, dtype=float)
    lor_plus = 1.0 / (kappa ** 2 / 4.0 + (omega_m + Delta) ** 2)
    lor_minus = 1.0 / (kappa ** 2 / 4.0 + (omega_m - Delta) ** 2)
    out = g_s ** 2 * kappa * (lor_plus - lor_minus)
    return float(out) if out.ndim == 0 else out


def optical_spring_shift(g_s, Delta, kappa, omega_m):
    """Cavity-induced mechanical frequency shift delta_omega_m(Delta).

    delta_omega_m = g_s^2 [(omega_m + Delta)/(kappa^2/4 + (omega_m + Delta)^2)
                           - (omega_m - Delta)/(kappa^2/4 + (omega_m - Delta)^2)].
    """
    if not (kappa > 0 and omega_m > 0):
        raise ValueError("kappa and omega_m must be > 0")
    Delta = np.asarray(Delta, dtype=float)
    term_plus = (omega_m + Delta) / (kappa ** 2 / 4.0 + (omega_m + Delta) ** 2)
    term_minus = (omega_m - Delta) / (kappa ** 2 / 4.0 + (omega_m - Delta) ** 2)
    out = g_s ** 2 * (term_plus - term_minus)
    return float(out) if out.ndim == 0 else out


def response_quantities(
    omega: float, params: SystemParams, steady: SteadyState
) -> ResponseQuantities:
    """All linear-response quantities at one probe frequency for a steady state."""
    g_s = params.g0 * abs(steady.alpha_s)
    Delta = steady.Delta_eff
    return ResponseQuantities(
        chi_o=complex(optical_susceptibility(omega, Delta, params.kappa)),
        chi_m=complex(
            mechanical_susceptibility(omega, params.m, params.omega_m, params.gamma)
        ),
        chi_eff=complex(
            effective_susceptibility(
                omega, g_s, Delta, params.kappa, params.m, params.omega_m, params.gamma
            )
        ),
        Sigma=complex(self_energy(omega, g_s, Delta, params.kappa, params.m, params.omega_m)),
        gamma_om=float(optomechanical_damping(g_s, Delta, params.kappa, params.omega_m)),
        delta_omega_m=float(optical_spring_shift(g_s, Delta, params.kappa, params.omega_m)),
        g_s=g_s,
    )


def classify_regime(
    params: SystemParams, gamma_om: float, delta_omega_m: float
) -> RegimeSummary:
    """Stability flags of the linearized dynamics at given damping and spring."""
    total = params.gamma + gamma_om
    effective = params.omega_m + delta_omega_m
    return RegimeSummary(
        total_damping=total,
        effective_frequency=effective,
        self_oscillation=total < 0.0,
        parametric_instability=effective < 0.0,
        resolved_sideband=params.kappa < params.omega_m / 10.0,
    )


# ---------------------------------------------------------------------------
# time integration


def integrate_mean_field(
    params: SystemParams,
    alpha0: complex,
    beta0: complex,
    t_end: float,
    dt: float,
) -> MeanFieldTrajectory:
    """Integrate the nonlinear mean-field equations with fixed-step RK4.

    dt must satisfy dt <= 0.05 / max(kappa, gamma, omega_m, |Delta0|); a
    trajectory whose field amplitude exceeds 1e12 aborts with
    DivergenceError.
    """
    validate_params(params)
    fastest = max(params.kappa, params.gamma, params.omega_m, abs(params.Delta0))
    if dt > STEP_BOUND_FACTOR / fastest:
        raise StepSizeError(
            f"dt = {dt:g} exceeds the step bound {STEP_BOUND_FACTOR / fastest:g} "
            f"for the fastest rate {fastest:g}"
        )

    def rhs(_t, y):
        alpha, beta = y
        Delta = params.Delta0 + 2.0 * params.g0 * beta.real
        return np.array(
            [
                -(params.kappa / 2.0 - 1j * Delta) * alpha + params.A_l,
                -(params.gamma / 2.0 + 1j * params.omega_m) * beta
                + 1j * params.g0 * (alpha.real ** 2 + alpha.imag ** 2),
            ]
        )

    times = step_times(t_end, dt)
    y = np.array([complex(alpha0), complex(beta0)])
    alphas = np.empty(times.size, dtype=complex)
    betas = np.empty(times.size, dtype=complex)
    alphas[0], betas[0] = y
    with np.errstate(over="ignore", invalid="ignore"):  # runaway -> DivergenceError
        for i in range(1, times.size):
            y = rk4_step(rhs, times[i - 1], y, times[i] - times[i - 1])
            if not np.all(np.isfinite(y)) or abs(y[0]) > 1e12:
                raise DivergenceError(
                    f"mean-field trajectory diverged at t = {times[i]:g} (|alpha| > 1e12)"
                )
            alphas[i], betas[i] = y
    return MeanFieldTrajectory(t=times, alpha=alphas, beta=betas)


# ---------------------------------------------------------------------------
# static multi-well potential


def lorentzian_comb_model(
    k_HO: float,
    F0: float,
    wavelength: float,
    finesse: float,
    x_min: float,
    x_max: float,
    pad_resonances: int = 10,
) -> StaticPotentialModel:
    """Build a StaticPotentialModel whose resonance comb covers [x_min, x_max].

    Resonances sit at integer multiples of wavelength/2; the comb extends
    pad_resonances spacings beyond each end of the interval so edge effects
    on the force inside the window stay negligible.
    """
    if not (k_HO > 0 and wavelength > 0 and finesse > 0):
        raise ValueError("k_HO, wavelength and finesse must be > 0")
    if F0 < 0:
        raise ValueError(f"F0 must be >= 0 (got {F0!r})")
    if not x_max > x_min:
        raise ValueError("x_max must exceed x_min")
    spacing = wavelength / 2.0
    j_min = math.floor(x_min / spacing) - pad_resonances
    j_max = math.ceil(x_max / spacing) + pad_resonances
    return StaticPotentialModel(
        k_HO=k_HO,
        F0=F0,
        x_res=tuple(j * spacing for j in range(j_min, j_max + 1)),
        width=wavelength / (2.0 * finesse),
        finesse=finesse,
    )


def radiation_force(model: StaticPotentialModel, x) -> np.ndarray:
    """Static radiation force of the resonance comb at positions x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    s = 2.0 * (x[:, None] - np.asarray(model.x_res)[None, :]) / model.width
    return model.F0 * np.sum(1.0 / (1.0 + s * s), axis=1)


def radiation_force_gradient(model: StaticPotentialModel, x) -> np.ndarray:
    """dF_RP/dx of the resonance comb at positions x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    s = 2.0 * (x[:, None] - np.asarray(model.x_res)[None, :]) / model.width
    return model.F0 * np.sum(-4.0 * s / (model.width * (1.0 + s * s) ** 2), axis=1)


def radiation_potential(model: StaticPotentialModel, x) -> np.ndarray:
    """Potential of the comb force, V_RP(x) = -integral F_RP dx (arctan form)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    s = 2.0 * (x[:, None] - np.asarray(model.x_res)[None, :]) / model.width
    return -model.F0 * (model.width / 2.0) * np.sum(np.arctan(s), axis=1)


def static_potential(model: StaticPotentialModel, x) -> StaticPotentialResult:
    """Total potential landscape and its stable equilibria on the grid x.

    Equilibria are sign changes of dV_t/dx = k_HO x - F_RP(x) between grid
    nodes, refined by bisection to 1e-10 of a wavelength and kept when the
    curvature K_eff = k_HO - dF_RP/dx is positive.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("x must be a 1-D grid with at least 2 points")
    if np.any(np.diff(x) <= 0):
        raise ValueError("x must be strictly increasing")
    res = np.asarray(model.x_res)
    if not np.any((res >= x[0]) & (res <= x[-1])):
        raise ValueError("grid must cover at least one comb resonance")
    wavelength = model.width * 2.0 * model.finesse

    def slope(pos: float) -> float:
        return model.k_HO * pos - float(radiation_force(model, pos)[0])

    h = model.k_HO * x - radiation_force(model, x)
    candidates: list[float] = []
    for i in range(x.size):
        if h[i] == 0.0:
            candidates.append(float(x[i]))
    for i in range(x.size - 1):
        if h[i] == 0.0 or h[i + 1] == 0.0:
            continue
        if (h[i] > 0) != (h[i + 1] > 0):
            candidates.append(
                _bisect(slope, float(x[i]), float(x[i + 1]), h[i], 1e-10 * wavelength)
            )
    stable_eq: list[float] = []
    stiffness: list[float] = []
    for pos in sorted(candidates):
        if stable_eq and abs(pos - stable_eq[-1]) <= 1e-9 * wavelength:
            continue
        k_eff = model.k_HO - float(radiation_force_gradient(model, pos)[0])
        if k_eff > 0:
            stable_eq.append(pos)
            stiffness.append(k_eff)
    return StaticPotentialResult(
        x=x,
        V_RP=radiation_potential(model, x),
        V_HO=0.5 * model.k_HO * x ** 2,
        V_t=radiation_potential(model, x) + 0.5 * model.k_HO * x ** 2,
        equilibria=np.array(stable_eq),
        K_eff=np.array(stiffness),
    )


# ---------------------------------------------------------------------------
# input-output


def mean_output_field(alpha_s: complex, kappa: float) -> complex:
    """Mean reflected field -sqrt(kappa) alpha_s for a zero-mean input."""
    if not kappa > 0:
        raise ValueError(f"kappa must be > 0 (got {kappa!r})")
    return -math.sqrt(kappa) * complex(alpha_s)
