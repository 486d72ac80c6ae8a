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

from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousRegimeError, SingularSystemError, UnstableSystemError
from .model import SteadyState, SystemParams
from .rk4 import step_times
from .stability import routh_hurwitz_stable

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


def _drift_entries(
    kappa: float, gamma: float, omega_m: float, Delta: float, g: complex
) -> tuple[float, ...]:
    """The 16 drift-matrix entries, row by row, as Python numbers."""
    g = complex(g)
    g_r, g_i = g.real, g.imag
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
    return np.array(_drift_entries(kappa, gamma, omega_m, Delta, g)).reshape(4, 4)


def drift_matrix(params: SystemParams, steady: SteadyState) -> np.ndarray:
    """Drift matrix linearized around a classical steady state."""
    g = params.g0 * complex(steady.alpha_s)
    return drift_matrix_from_rates(
        params.kappa, params.gamma, params.omega_m, steady.Delta_eff, g
    )


def diffusion_matrix(params: SystemParams) -> np.ndarray:
    """Diagonal diffusion matrix for vacuum optical and thermal mechanical baths."""
    mech = params.gamma * (params.n_th + 0.5)
    return np.diag([params.kappa / 2.0, params.kappa / 2.0, mech, mech])


def thermal_covariance(n_th: float) -> np.ndarray:
    """Uncoupled steady covariance: vacuum optics, thermal mechanics."""
    return np.diag([0.5, 0.5, n_th + 0.5, n_th + 0.5])


# Upper-triangle index pairs (i <= j, row-major): a symmetric V as 10 numbers.
_TRIU = np.triu_indices(4)


def _lyapunov_coefficients() -> np.ndarray:
    """(16, 100) coefficients of the Lyapunov operator on the entries of A.

    The 10x10 matrix of V -> A V + V A^T on upper-triangle coordinates is,
    in closed form, L = S (A (x) I + I (x) A) Dup on the row-major vec: S
    keeps the 10 upper-triangle rows and Dup expands the 10 coordinates of a
    symmetric V into its 16 entries (Magnus & Neudecker, Matrix Differential
    Calculus).  Row (p, q) of S (A (x) I + I (x) A) is
    A[p, a] I[q, b] + I[p, a] A[q, b] over (a, b).  L is linear in A, so the
    closed form is evaluated once, by broadcasting, at the 16 basis matrices.
    """
    p, q = _TRIU
    eye = np.eye(4)
    basis = np.eye(16).reshape(16, 4, 4)
    SK = basis[:, p, :, None] * eye[q][:, None, :] + eye[p][:, :, None] * basis[:, q, None, :]
    dup = np.zeros((4, 4, 10))
    dup[p, q, np.arange(10)] = dup[q, p, np.arange(10)] = 1.0
    return (SK.reshape(16, 10, 16) @ dup.reshape(16, 10)).reshape(16, 100)


_LYAPUNOV_COEFFICIENTS = _lyapunov_coefficients()


def _lyapunov_operator(A: np.ndarray) -> np.ndarray:
    """10x10 matrix of V -> A V + V A^T on upper-triangle coordinates.

    Each entry is a sum of at most two entries of A, each times 1 or 2, so
    the only rounding is that of one addition.
    """
    return (A.reshape(16) @ _LYAPUNOV_COEFFICIENTS).reshape(10, 10)


def steady_covariance(A: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Steady-state covariance solving A V + V A^T + D = 0.

    V is symmetric, so the Lyapunov equation is solved as the 10-unknown
    system L w = -d on the upper-triangle entries w of V and d of D, with L
    the closed-form operator of V -> A V + V A^T (_lyapunov_operator, shared
    with integrate_covariance); V is filled from w and is exactly symmetric.
    D must be finite and symmetric (ValueError otherwise).  Requires a
    strictly stable A by the Routh-Hurwitz verdict: any other A, marginal
    ones included, raises UnstableSystemError.  SingularSystemError means
    the solve itself failed: a singular system, a non-finite V or a residual
    above tolerance.
    """
    A = np.asarray(A, dtype=float)
    D = np.asarray(D, dtype=float)
    if A.shape != (4, 4) or D.shape != (4, 4):
        raise ValueError(f"A and D must be 4x4 (got {A.shape} and {D.shape})")
    if not np.all(np.isfinite(D)):
        raise ValueError("D must have finite entries")
    if not np.max(np.abs(D - D.T)) <= 1e-12:
        raise ValueError("D must be symmetric")
    if not routh_hurwitz_stable(A):
        raise UnstableSystemError(
            "drift matrix has an eigenvalue with non-negative real part; "
            "no steady covariance exists"
        )
    try:
        w = np.linalg.solve(_lyapunov_operator(A), -D[_TRIU])
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"Lyapunov system is singular: {exc}") from exc
    V = np.empty((4, 4))
    V[_TRIU] = w
    V[_TRIU[1], _TRIU[0]] = w
    residual = A @ V + V @ A.T + D
    scale = max(1.0, float(np.max(np.abs(D))))
    if not np.all(np.isfinite(V)) or np.max(np.abs(residual)) > 1e-8 * scale:
        raise SingularSystemError(
            "Lyapunov solve did not meet the residual tolerance "
            f"(max residual {np.max(np.abs(residual)):.3e})"
        )
    return V


def _drift_rates(A: np.ndarray) -> tuple[float, float, float, float]:
    """(kappa, gamma, omega_m, Delta) read off a matrix with the drift layout.

    The layout is the one in the module docstring: zeros at (0, 3), (1, 3),
    (2, 0) and (2, 1), equal diagonal pairs A[0, 0] = A[1, 1] and
    A[2, 2] = A[3, 3], and the antisymmetric pairs A[1, 0] = -A[0, 1]
    (Delta) and A[2, 3] = -A[3, 2] (omega_m), each to 1e-12 max|A|.  Any
    other matrix raises ValueError, because its rates cannot be read off.
    """
    tol = 1e-12 * float(np.max(np.abs(A)))
    gaps = (
        A[0, 3], A[1, 3], A[2, 0], A[2, 1],
        A[0, 0] - A[1, 1], A[2, 2] - A[3, 3],
        A[1, 0] + A[0, 1], A[2, 3] + A[3, 2],
    )
    if not all(abs(gap) <= tol for gap in gaps):
        raise ValueError(
            "A must have the drift-matrix layout (see optomech.quantum) so that "
            "kappa, gamma, omega_m and Delta can be read off for the step bound"
        )
    return -2.0 * A[0, 0], -2.0 * A[2, 2], A[2, 3], A[1, 0]


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


def integrate_covariance(
    A: np.ndarray, D: np.ndarray, V0: np.ndarray, t_end: float, dt: float
) -> CovarianceTrajectory:
    """Integrate dV/dt = A V + V A^T + D with fixed-step RK4.

    A must have the drift-matrix layout of the module docstring (ValueError
    otherwise), because dt must satisfy dt <= 0.05 / max rate with the rates
    read off A (kappa, gamma, omega_m, |Delta|).  V is carried as its 10
    upper-triangle entries, so every sample is exactly symmetric.  The ODE is
    linear with constant coefficients, so one RK4 step is a fixed affine map
    on those entries: it is built once for dt (and once more when the final
    step of the grid has another length) and iterated.
    """
    A = np.asarray(A, dtype=float)
    D = np.asarray(D, dtype=float)
    V0 = np.asarray(V0, dtype=float)
    if A.shape != (4, 4) or D.shape != (4, 4) or V0.shape != (4, 4):
        raise ValueError("A, D and V0 must be 4x4")
    if not np.allclose(V0, V0.T, rtol=0.0, atol=1e-12):
        raise ValueError("V0 must be symmetric")
    fastest = max(abs(rate) for rate in _drift_rates(A))
    times = step_times(t_end, dt, fastest)
    L = _lyapunov_operator(A)
    d = (0.5 * (D + D.T))[_TRIU]
    P, q = _rk4_affine_map(L, d, dt)
    w = np.empty((times.size, 10))
    w[0] = (0.5 * (V0 + V0.T))[_TRIU]
    for i in range(1, times.size - 1):
        w[i] = P @ w[i - 1] + q
    h_last = float(times[-1] - times[-2])
    if h_last != dt:
        P, q = _rk4_affine_map(L, d, h_last)
    w[-1] = P @ w[-2] + q
    out = np.empty((times.size, 4, 4))
    out[:, _TRIU[0], _TRIU[1]] = w
    out[:, _TRIU[1], _TRIU[0]] = w
    return CovarianceTrajectory(t=times, V=out)


def quadrature_variances(V: np.ndarray) -> QuadratureVariances:
    """Diagonal variances of V and the names of any squeezed quadratures."""
    V = np.asarray(V, dtype=float)
    if V.shape != (4, 4):
        raise ValueError(f"V must be 4x4 (got shape {V.shape})")
    diag = np.diag(V)
    squeezed = tuple(
        name for name, v in zip(QUADRATURE_NAMES, diag) if v < 0.5 - _SQUEEZE_GUARD
    )
    return QuadratureVariances(
        var_x=float(diag[0]),
        var_y=float(diag[1]),
        var_q=float(diag[2]),
        var_p=float(diag[3]),
        squeezed=squeezed,
    )


_HALF_I_OMEGA = 0.5j * symplectic_form()


def physicality_min_eig(V: np.ndarray) -> float:
    """Smallest eigenvalue of V + (i/2) Omega; >= 0 for a physical state."""
    V = np.asarray(V, dtype=float)
    H = V.astype(complex) + _HALF_I_OMEGA
    return float(np.min(np.linalg.eigvalsh(H)))


def rwa_interaction(
    Delta: float,
    omega_m: float,
    kappa: float,
    g_s: float,
    tol_res: float | None = None,
) -> RegimeReport:
    """Classify the dominant linearized interaction at detuning Delta.

    Within tol_res (default kappa/2) of Delta = -omega_m the co-rotating
    beam-splitter terms dominate; within tol_res of Delta = +omega_m the
    counter-rotating two-mode-squeezer terms dominate; otherwise neither
    resonance condition is met.  A tolerance wide enough to satisfy both
    conditions at once is rejected as ambiguous.
    """
    if not omega_m > 0:
        raise ValueError(f"omega_m must be > 0 (got {omega_m!r})")
    if not kappa > 0:
        raise ValueError(f"kappa must be > 0 (got {kappa!r})")
    if g_s < 0:
        raise ValueError(f"g_s must be >= 0 (got {g_s!r})")
    if tol_res is None:
        tol_res = kappa / 2.0
    if not tol_res > 0:
        raise ValueError(f"tol_res must be > 0 (got {tol_res!r})")
    near_red = abs(Delta + omega_m) <= tol_res
    near_blue = abs(Delta - omega_m) <= tol_res
    if near_red and near_blue:
        raise AmbiguousRegimeError(
            f"tol_res = {tol_res:g} covers both sideband resonances at "
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
