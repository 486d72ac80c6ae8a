"""Linearized quantum dynamics of quadrature fluctuations.

Quadratures are ordered (dX, dY, dQ, dP) with vacuum variance 1/2:
dX = (da^+ + da)/sqrt(2), dY = i (da^+ - da)/sqrt(2) for the optical mode
and likewise dQ, dP for the mechanical mode.  Linearizing around a classical
steady state with field alpha_s gives the Langevin system

    dv/dt = A v + noise,        d<V>/dt = A V + V A^T + D,

with g = g0 alpha_s the field-enhanced coupling (g_R = Re g, g_I = Im g):

        [ -kappa/2   -Delta    -2 g_I     0      ]
    A = [  Delta     -kappa/2   2 g_R     0      ]
        [  0          0        -gamma/2   omega_m]
        [  2 g_R      2 g_I    -omega_m  -gamma/2]

    D = diag(kappa/2, kappa/2, gamma (n_th + 1/2), gamma (n_th + 1/2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousRegimeError,
    DivergenceError,
    SimulationError,
    SingularSystemError,
    UnstableSystemError,
)
from .model import SteadyState, SystemParams, _checked_number
from .rk4 import step_times
from .stability import _hurwitz_verdicts

QUADRATURE_NAMES = ("X", "Y", "Q", "P")

# Guard band below the vacuum variance 1/2 before a quadrature counts as
# squeezed, so solver noise on an exact-vacuum variance never flags.
_SQUEEZE_GUARD = 1e-12

BEAM_SPLITTER = "beam_splitter"
TWO_MODE_SQUEEZER = "two_mode_squeezer"
OFF_RESONANT = "off_resonant"


@dataclass(frozen=True)
class CovarianceTrajectory:
    """Covariance matrix V(t) sampled on a fixed time grid."""

    t: np.ndarray  # shape (n,)
    V: np.ndarray  # shape (n, 4, 4), symmetric along the trailing axes


@dataclass(frozen=True)
class QuadratureVariances:
    """Diagonal of a covariance matrix plus below-vacuum flags."""

    var_x: float
    var_y: float
    var_q: float
    var_p: float
    squeezed: tuple[str, ...]


@dataclass(frozen=True)
class RegimeReport:
    """Dominant linearized interaction under a rotating-wave argument."""

    interaction_kind: str   # one of BEAM_SPLITTER, TWO_MODE_SQUEEZER, OFF_RESONANT
    resolved_sideband: bool
    g_s: float


def symplectic_form() -> np.ndarray:
    """Symplectic form Omega for the (dX, dY, dQ, dP) ordering."""
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.block([[J, np.zeros((2, 2))], [np.zeros((2, 2)), J]])


def _drift_entries(kappa, gamma, omega_m, Delta, g_r, g_i) -> tuple:
    """The 16 entries of the drift matrix A of the module docstring, row by row.

    g_r and g_i are Re g and Im g.  The one owner of A's layout: Python
    numbers give Python numbers, and arrays of roots (Delta, g_r, g_i) give
    entries that broadcast to their shape, one matrix per root.
    """
    return (
        -kappa / 2.0, -Delta, -2.0 * g_i, 0.0,
        Delta, -kappa / 2.0, 2.0 * g_r, 0.0,
        0.0, 0.0, -gamma / 2.0, omega_m,
        2.0 * g_r, 2.0 * g_i, -omega_m, -gamma / 2.0,
    )


def drift_matrix_from_rates(
    kappa: float, gamma: float, omega_m: float, Delta: float, g: complex
) -> np.ndarray:
    """Drift matrix A for explicit rates and field-enhanced coupling g."""
    return np.array(_drift_entries(kappa, gamma, omega_m, Delta, g.real, g.imag)).reshape(4, 4)


def drift_matrix(params: SystemParams, steady: SteadyState) -> np.ndarray:
    """Drift matrix linearized around a classical steady state."""
    g = params.g0 * complex(steady.alpha_s)
    return drift_matrix_from_rates(
        params.kappa, params.gamma, params.omega_m, steady.Delta_eff, g
    )


def diffusion_matrix(params: SystemParams) -> np.ndarray:
    """Diagonal diffusion matrix for vacuum optical and thermal mechanical baths.

    SimulationError if the thermal entry gamma (n_th + 1/2) overflows.
    """
    mech = params.gamma * (params.n_th + 0.5)
    if not math.isfinite(mech):
        raise SimulationError(
            f"thermal diffusion gamma (n_th + 1/2) overflows at gamma = {params.gamma!r}, "
            f"n_th = {params.n_th!r}"
        )
    D = np.zeros((4, 4))
    D[0, 0] = D[1, 1] = params.kappa / 2.0
    D[2, 2] = D[3, 3] = mech
    return D


def thermal_covariance(n_th: float) -> np.ndarray:
    """Uncoupled steady covariance: vacuum optics, thermal mechanics."""
    return np.diag([0.5, 0.5, n_th + 0.5, n_th + 0.5])


# Upper-triangle index pairs (i <= j, row-major): a symmetric V as 10 numbers.
_TRIU = np.triu_indices(4)
# Row-major positions of those entries in a 4x4 matrix, and of their mirror images.
_UPPER, _LOWER = (4 * _TRIU[0] + _TRIU[1]).tolist(), (4 * _TRIU[1] + _TRIU[0]).tolist()
# The upper-triangle coordinate of each of the 16 entries, row by row.
_SYMMETRIC = np.empty(16, dtype=int)
_SYMMETRIC[_UPPER] = _SYMMETRIC[_LOWER] = np.arange(10)


def _unpacked(w: np.ndarray) -> np.ndarray:
    """Symmetric 4x4 matrices gathered from their 10 upper-triangle entries (last axis of w)."""
    return w[..., _SYMMETRIC].reshape(w.shape[:-1] + (4, 4))


def _lyapunov_coefficients() -> np.ndarray:
    """(16, 100) coefficients of the Lyapunov operator on the entries of A.

    Column c of the 10x10 matrix L of V -> A V + V A^T on upper-triangle
    coordinates is A E_c + E_c A^T at those coordinates, E_c the symmetric
    matrix of coordinate c.  L is linear in A, so it is evaluated once at
    each of the 16 basis matrices.
    """
    A = np.eye(16).reshape(16, 1, 4, 4)
    E = _unpacked(np.eye(10))
    image = A @ E + E @ np.swapaxes(A, -1, -2)  # (16, 10, 4, 4), basis A by column c
    return np.swapaxes(image[..., _TRIU[0], _TRIU[1]], 1, 2).reshape(16, 100)


_LYAPUNOV_COEFFICIENTS = _lyapunov_coefficients()


def _lyapunov_operator(A: np.ndarray) -> np.ndarray:
    """10x10 matrix of V -> A V + V A^T on upper-triangle coordinates.

    Each entry is a sum of at most two entries of A, each times 1 or 2, so
    the only rounding is that of one addition.
    """
    return (A.reshape(16) @ _LYAPUNOV_COEFFICIENTS).reshape(10, 10)


def _checked_entries(X, name: str) -> tuple[np.ndarray, list[float]]:
    """X as a float array and its entries row by row; ValueError unless X is 4x4 and finite."""
    X = np.asarray(X, dtype=float)
    if X.shape != (4, 4):
        raise ValueError(f"{name} must be 4x4 (got shape {X.shape})")
    x = X.ravel().tolist()
    if not all(map(math.isfinite, x)):
        raise ValueError(f"{name} must have finite entries")
    return X, x


def _checked_symmetric(X, name: str, relative: bool = False) -> tuple[np.ndarray, list[float]]:
    """_checked_entries of X; ValueError also unless X is symmetric on each mirrored
    pair to 1e-12, or to 1e-12 max(1, max|X|) if relative.
    """
    X, x = _checked_entries(X, name)
    tol = 1e-12 * max(1.0, max(map(abs, x))) if relative else 1e-12
    if not all(abs(x[i] - x[j]) <= tol for i, j in zip(_UPPER, _LOWER)):
        raise ValueError(f"{name} must be symmetric")
    return X, x


def steady_covariance(A: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Steady-state covariance solving A V + V A^T + D = 0.

    V is symmetric, so the Lyapunov equation is solved as the 10-unknown
    system L w = -d on the upper-triangle entries w of V and d of D, with L
    the closed-form operator of V -> A V + V A^T (_lyapunov_operator, shared
    with integrate_covariance); V is filled from w and is exactly symmetric.
    A and D must be 4x4 and finite, D also symmetric to 1e-12
    (_checked_entries, _checked_symmetric; ValueError otherwise).  Requires
    a strictly stable A by the Routh-Hurwitz verdict: any other A, marginal
    ones included, raises UnstableSystemError.  SingularSystemError means
    the solve itself failed: a singular system, a V that overflows or a
    residual above tolerance.
    """
    A, a = _checked_entries(A, "A")
    D, d = _checked_symmetric(D, "D")
    if not _hurwitz_verdicts(a)[0]:
        raise UnstableSystemError(
            "drift matrix has an eigenvalue with non-negative real part; "
            "no steady covariance exists"
        )
    try:
        w = np.linalg.solve(_lyapunov_operator(A), [-d[k] for k in _UPPER])
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"Lyapunov system is singular: {exc}") from exc
    if not all(map(math.isfinite, w.tolist())):  # V's entries are w's
        raise SingularSystemError("steady covariance overflows (an entry of V is not finite)")
    V = _unpacked(w)
    worst = np.abs(A @ V + V @ A.T + D).max()
    if worst > 1e-8 * max(1.0, max(map(abs, d))):
        raise SingularSystemError(
            f"Lyapunov solve did not meet the residual tolerance (max residual {worst:.3e})"
        )
    return V


def _drift_rates(A: np.ndarray) -> tuple[float, float, float, float, float]:
    """(kappa, gamma, omega_m, Delta, 2|g|) read off a matrix with the drift layout.

    The rates are read from A[0, 0], A[2, 2], A[2, 3], A[1, 0] and
    g = (A[3, 0] + i A[3, 1]) / 2, and _drift_entries rebuilds A from them:
    each of A's 16 entries must lie within 1e-12 max|A| of the rebuilt one.
    Any other matrix raises ValueError, because its rates cannot be read off.
    """
    a = A.ravel().tolist()
    kappa, gamma, omega_m, Delta = -2.0 * a[0], -2.0 * a[10], a[11], a[4]
    tol = 1e-12 * max(map(abs, a))
    rebuilt = _drift_entries(kappa, gamma, omega_m, Delta, a[12] / 2.0, a[13] / 2.0)
    if not all(abs(r - x) <= tol for r, x in zip(rebuilt, a)):
        raise ValueError(
            "A must have the drift-matrix layout (see optomech.quantum) so that "
            "kappa, gamma, omega_m, Delta and g can be read off for the step bound"
        )
    return kappa, gamma, omega_m, Delta, math.hypot(a[12], a[13])


def _rk4_affine_map(L: np.ndarray, d: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(P, q) with one RK4 step of w' = L w + d equal to w -> P w + q.

    P = sum_{k<=4} (hL)^k / k! and q = h sum_{k<=3} (hL)^k / (k+1)! d, both
    in Horner form.
    """
    M = h * L
    eye = np.eye(10)
    P = eye + M @ (eye + M @ (eye + M @ (eye + M / 4.0) / 3.0) / 2.0)
    v = d / 24.0
    for c in (6.0, 2.0, 1.0):
        v = d / c + M @ v
    return P, h * v


# Steps of integrate_covariance advanced by one matrix product.
_BLOCK = 64


def integrate_covariance(
    A: np.ndarray, D: np.ndarray, V0: np.ndarray, t_end: float, dt: float
) -> CovarianceTrajectory:
    """Integrate dV/dt = A V + V A^T + D with fixed-step RK4.

    A must have the drift-matrix layout of the module docstring (ValueError
    otherwise), because dt must satisfy dt <= 0.05 / max rate with the rates
    read off A (kappa, gamma, omega_m, |Delta| and 2|g|).  A and D have
    steady_covariance's contract, and V0 that of D (_checked_symmetric:
    4x4, finite and symmetric).  V is carried as its 10 upper-triangle
    entries, so every sample is exactly symmetric.  The ODE is linear with constant
    coefficients, so one RK4 step is a fixed affine map w -> P w + q on
    those entries: it is built once for dt (and once more when the final
    step of the grid has another length).  Its powers P^j and offsets
    S_j = sum_{k<j} P^k q, j = 1.._BLOCK, are built once too, so one
    matrix product advances a block of up to _BLOCK steps:
    w[i + j] = P^j w[i] + S_j.  A is not required to be stable; a
    trajectory with a non-finite sample raises DivergenceError naming the
    first such time.
    """
    A, _ = _checked_entries(A, "A")
    D, _ = _checked_symmetric(D, "D")
    V0, _ = _checked_symmetric(V0, "V0")
    fastest = max(abs(rate) for rate in _drift_rates(A))
    times = step_times(t_end, dt, fastest)
    L = _lyapunov_operator(A)
    d = D[_TRIU]
    w = np.empty((times.size, 10))
    w[0] = V0[_TRIU]
    h_last = float(times[-1] - times[-2])
    steps = times.size - 1 if h_last == dt else times.size - 2  # steps of length dt
    block = max(1, min(_BLOCK, steps))
    with np.errstate(all="ignore"):
        P, q = _rk4_affine_map(L, d, dt)
        powers, S = [P], [q]  # P^j and S_j for j = 1..block
        for _ in range(1, block):
            powers.append(P @ powers[-1])
            S.append(P @ S[-1] + q)
        # columns 10 (j - 1) .. 10 j - 1 hold (P^j)^T, so w[i] @ stack is P^j w[i] for every j
        stack = np.transpose(powers, (2, 0, 1)).reshape(10, 10 * block)
        S = np.array(S)
        for i in range(0, steps, block):
            n = min(block, steps - i)
            w[i + 1 : i + 1 + n] = (w[i] @ stack[:, : 10 * n]).reshape(n, 10) + S[:n]
        if h_last != dt:
            P, q = _rk4_affine_map(L, d, h_last)
            w[-1] = P @ w[-2] + q
    bad = ~np.all(np.isfinite(w), axis=1)
    if np.any(bad):
        raise DivergenceError(
            f"covariance trajectory diverged at t = {times[np.argmax(bad)]:g} "
            "(a sample of V is not finite)"
        )
    return CovarianceTrajectory(t=times, V=_unpacked(w))


def quadrature_variances(V: np.ndarray) -> QuadratureVariances:
    """Diagonal variances of V and the names of any squeezed quadratures.

    ValueError unless V is 4x4 with finite entries (_checked_entries).
    """
    diag = _checked_entries(V, "V")[1][0::5]
    squeezed = tuple(
        name for name, v in zip(QUADRATURE_NAMES, diag) if v < 0.5 - _SQUEEZE_GUARD
    )
    return QuadratureVariances(*diag, squeezed=squeezed)


_HALF_I_OMEGA = 0.5j * symplectic_form()


def physicality_min_eig(V: np.ndarray) -> float:
    """Smallest eigenvalue of V + (i/2) Omega; >= 0 for a physical state.

    ValueError unless V is 4x4 with finite entries and symmetric to
    1e-12 max(1, max|V|) on each mirrored pair (_checked_symmetric): eigvalsh
    reads only the lower triangle.  It returns the eigenvalues in ascending
    order, so the smallest is the first.
    """
    V, _ = _checked_symmetric(V, "V", relative=True)
    return float(np.linalg.eigvalsh(V + _HALF_I_OMEGA)[0])


def rwa_interaction(
    Delta: float,
    omega_m: float,
    kappa: float,
    g_s: float,
) -> RegimeReport:
    """Classify the dominant linearized interaction at detuning Delta.

    Within kappa/2 (half the cavity linewidth) of Delta = -omega_m the
    co-rotating beam-splitter terms dominate; within kappa/2 of
    Delta = +omega_m the counter-rotating two-mode-squeezer terms dominate;
    otherwise neither resonance condition is met.  A linewidth wide enough
    to satisfy both conditions at once (kappa >= 2 omega_m) is rejected as
    ambiguous.  A non-finite input raises ValueError naming it.
    """
    _checked_number("Delta", Delta)
    _checked_number("omega_m", omega_m, "> 0")
    _checked_number("kappa", kappa, "> 0")
    _checked_number("g_s", g_s, ">= 0")
    half_linewidth = kappa / 2.0
    near_red = abs(Delta + omega_m) <= half_linewidth
    near_blue = abs(Delta - omega_m) <= half_linewidth
    if near_red and near_blue:
        raise AmbiguousRegimeError(
            f"kappa/2 = {half_linewidth:g} covers both sideband resonances at "
            f"Delta = {Delta:g}, omega_m = {omega_m:g}"
        )
    if near_red:
        kind = BEAM_SPLITTER
    elif near_blue:
        kind = TWO_MODE_SQUEEZER
    else:
        kind = OFF_RESONANT
    return RegimeReport(
        interaction_kind=kind,
        resolved_sideband=kappa < omega_m / 10.0,
        g_s=g_s,
    )
