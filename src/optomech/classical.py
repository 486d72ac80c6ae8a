"""Classical mean-field dynamics of the driven optomechanical cavity.

The intracavity field alpha and mechanical amplitude beta obey

    d alpha/dt = -(kappa/2 - i Delta) alpha + A_l,     Delta = Delta0 + 2 g0 Re(beta)
    d beta/dt  = -(gamma/2 + i omega_m) beta + i g0 |alpha|^2.

Steady states satisfy a cubic in the photon number N = |alpha_s|^2,

    4 C^2 N^3 + 8 C Delta0 N^2 + (4 Delta0^2 + kappa^2) N - 4 A_l^2 = 0,
    C = 2 g0^2 omega_m / (gamma^2/4 + omega_m^2),

which admits one or three positive roots; three roots is the bistable window.
Every solve works in y = C N instead, which needs no C^2:

    g(y) = y (4 (y + Delta0)^2 + kappa^2) - t = 4 y^3 + 8 Delta0 y^2 + c1 y - t,
    c1 = 4 Delta0^2 + kappa^2,  t = 4 A_l^2 C,

negative for y <= 0.  SimulationError names Delta0, A_l and g0 if C, 4 A_l^2,
c1 or t has no finite value.  Three roots (cubic_discriminant > 0, which needs
Delta0 < 0 and Delta0^2 > 3 kappa^2 / 4) lie in [0, y-], [y-, y+], [y+, top]
around the critical points y-+ = (-2 Delta0 -+ sqrt(Delta0^2 - 3 kappa^2/4)) / 3;
one lies in [0, top] (and below t / kappa^2), top = max(t^(1/3), -2 Delta0).
Newton on Python floats, with a fallback that halves the bracket's bit
pattern, evaluates g at most 96 times per root.  Each root satisfies the
backward-error bound |g(y)| <= 1e-8 max(1, S_y), S_y = 4 y^3 + 8 |Delta0| y^2
+ c1 y + t, or RootSolveError is raised (also for a non-finite N).  The bound
is evaluated on g / 4 and S_y / 4, an exact power-of-two scaling, so a
representable root with t near the float maximum passes it; SimulationError
if S_y / 4 overflows.  The input's representation picks the path.
solve_intracavity_occupancy and steady_states are the kernel at one point,
on Python floats.  A batch of any size (steady_state_grid,
hysteresis_traces) has every bracket of every point iterated at once on
numpy arrays; its roots are one column with a count per point.  Both forms
share _fixed_points; only the root iteration (_y_root, _y_roots) and the
Routh-Hurwitz verdict are written once per form.  numpy rounds some powers
and the complex quotient differently from Python, so the two agree to a
bound, not to the bit: a batch root y lies within a few eps S_y / |g'(y)|
of the float one (wide only near a double root), and a fixed point's
parts within a few eps of the float ones at the same N.
This module also provides the linear-response quantities (susceptibilities,
radiation-pressure self-energy, optomechanical damping and spring shift) and
a static multi-well potential model for the slow-cavity limit.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, PoleError, RootSolveError, SimulationError
from .model import SteadyState, SystemParams, _checked_number, validate_params
from .rk4 import step_times
from .stability import _hurwitz_verdicts, routh_hurwitz_stable
from . import quantum

_ROOT_RTOL = 1e-8        # residual tolerance relative to max(1, sum of |terms|)
_NEWTON_ROUNDS = 32      # Newton iterates per root before halving brackets only
_F64, _I64 = struct.Struct("<d"), struct.Struct("<q")  # a float and its bit pattern
_EDGE_ATOL = 1e-10       # bisection width for bistability window edges
_PAD_RESONANCES = 10     # comb resonances past each end of a static-potential window
# Most resonances of one comb.  On the golden static-potential grid (2201 points,
# 16 forces; 2-vCPU Xeon) a window of 2000 wavelengths (4021 resonances) took
# 0.29 s and 237 MB, and one of 10^4 wavelengths 1.8 s and 1.05 GB.
_MAX_COMB_RESONANCES = 5000
_OVERFLOW = (  # raised when an input of the cubic is not finite, filled with Delta0, A_l, g0
    "steady-state cubic overflows: C = 2 g0^2 omega_m / (gamma^2/4 + omega_m^2), 4 A_l^2,"
    " 4 Delta0^2 + kappa^2 or t = 4 A_l^2 C is not finite for Delta0 = {!r}, A_l = {!r}, g0 = {!r}"
)


@dataclass(frozen=True)
class SteadyStateGrid:
    """Classical fixed points of a batch of (Delta0, A_l) points, one entry per root.

    Every field is a 1-D array listing the roots point by point, in ascending
    N_o within a point.
    """

    Delta0: np.ndarray     # detuning of the root's point
    A_l: np.ndarray        # drive amplitude of the root's point
    point: np.ndarray      # index of that point in the flattened batch
    branch: np.ndarray     # index of the root among its point's roots
    N_o: np.ndarray        # intracavity photon number
    alpha_s: np.ndarray    # complex intracavity field amplitude
    beta_s: np.ndarray     # complex mechanical amplitude
    Delta_eff: np.ndarray  # effective detuning Delta0 + 2 g0 Re(beta_s)
    stable: np.ndarray     # bool, Routh-Hurwitz verdict for the linearization

    @property
    def counts(self) -> np.ndarray:
        """Number of roots (1 or 3) per point."""
        return np.bincount(self.point)


@dataclass(frozen=True)
class BistabilityBranch:
    """Steady-state branches over a detuning sweep."""

    states: SteadyStateGrid            # point k at the k-th detuning of the sweep
    window_edges: tuple[float, ...]    # refined detunings where root count changes


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


def _pull_coefficient(params: SystemParams) -> float:
    """C = 2 g0^2 omega_m / (gamma^2/4 + omega_m^2); inf if g0^2 overflows or the sum is 0."""
    try:
        return 2.0 * params.g0 ** 2 * params.omega_m / (params.gamma ** 2 / 4.0 + params.omega_m ** 2)
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _y_inputs(params: SystemParams, Delta0: float, A_l: float) -> tuple[float, float, float]:
    """(C, a, c1) of the cubic in y = C N at one (Delta0, A_l); the rest from params.

    a = 4 A_l^2 = -c0, c1 = 4 Delta0^2 + kappa^2; SimulationError if C, a, c1 or a C is not finite.
    """
    C = _pull_coefficient(params)
    try:
        inputs = (C, 4.0 * A_l ** 2, 4.0 * Delta0 ** 2 + params.kappa ** 2)
    except OverflowError:
        inputs = None
    if inputs is None or not all(map(math.isfinite, (*inputs, inputs[0] * inputs[1]))):
        raise SimulationError(_OVERFLOW.format(Delta0, A_l, params.g0))
    return inputs


def _discriminant(c1: float, t: float, Delta0: float, kappa: float) -> float:
    """Discriminant of g(y) = 4 y^3 + 8 Delta0 y^2 + c1 y - t, c1 = 4 Delta0^2 + kappa^2.

    Free of the expanded form's cancellation for |Delta0| >> kappa; an
    overflow gives inf or nan, which reads as not positive.
    """
    k2 = kappa * kappa
    return -16.0 * (
        c1 * c1 * k2 + 4.0 * Delta0 * t * (4.0 * Delta0 * Delta0 + 9.0 * k2) + 27.0 * t * t
    )


def cubic_discriminant(params: SystemParams) -> float:
    """Discriminant of the cubic in y = C N; positive iff three distinct real roots.

    It is the photon-number form's over C^2, and negative (not 0) for C = 0.
    """
    validate_params(params)
    C, a, c1 = _y_inputs(params, params.Delta0, params.A_l)
    return _discriminant(c1, a * C, params.Delta0, params.kappa)


def _y_root(D: float, k2: float, t: float, neg: float, pos: float, y: float) -> float:
    """Root of g(y) = y (4 (y + D)^2 + k2) - t between neg and pos, from y.

    g(neg) <= 0 <= g(pos) is known, not evaluated.  Each round moves the end
    of g(y)'s sign to y, then takes the Newton iterate if it lies strictly
    inside (at most _NEWTON_ROUNDS times), else the float that halves the
    bracket's bit pattern: nonnegative floats span < 2^63 patterns, so g is
    evaluated at most _NEWTON_ROUNDS + 64 times.
    """
    newton = _NEWTON_ROUNDS
    while True:
        u = y + D
        f = y * (4.0 * u * u + k2) - t
        if f < 0.0:
            neg = y
        elif f > 0.0:
            pos = y
        else:  # a root, or nan past an overflow
            return y
        lo, hi = (neg, pos) if neg < pos else (pos, neg)
        slope = 4.0 * u * (u + 2.0 * y) + k2
        if newton and slope:
            newton -= 1
            y_new = y - f / slope
            if y_new == y:
                return y
            if lo < y_new < hi:
                y = y_new
                continue
        a, b = (_I64.unpack(_F64.pack(end))[0] for end in (lo, hi))
        if b - a <= 1:
            return y
        y = _F64.unpack(_I64.pack((a + b) // 2))[0]


def _y_roots(D, k2: float, t, neg, pos, y) -> np.ndarray:
    """_y_root on every bracket of the arrays D, t, neg, pos and y, in lockstep.

    Each round evaluates g at the y of the brackets still open and applies
    _y_root's rules to each, with its own Newton budget; a bracket leaves on
    its own exit, so each root has _y_root's bits.  The ends and iterates are
    nonnegative, so min and max order them as _y_root does, and the
    bit-pattern midpoint a + (b - a) // 2 on int64 views is (a + b) // 2
    without the overflow.  Rounds go on until no bracket is open; a nan g
    ends its bracket at once and an infinite one halves it, so non-finite
    inputs end too.  Call under np.errstate(all="ignore").
    """
    out = np.empty_like(y)
    k = np.arange(y.size)
    # rows y, D, t, neg, pos and Newton budget of the open brackets, compacted together
    state = np.stack([y, D, t, neg, pos, np.full(y.size, float(_NEWTON_ROUNDS))])
    while k.size:
        y, D, t, neg, pos, newton = state
        u = y + D
        u4 = 4.0 * u
        f = y * (u4 * u + k2) - t
        below, above = f < 0.0, f > 0.0
        np.copyto(neg, y, where=below)
        np.copyto(pos, y, where=above)
        lo, hi = np.minimum(neg, pos), np.maximum(neg, pos)
        slope = u4 * (u + (y + y)) + k2  # 2 y = y + y exactly
        y_new = y - f / slope
        step = (newton > 0.0) & (slope != 0.0)
        newton -= step
        stay = step & (y_new == y)
        inside = step & (lo < y_new) & (y_new < hi)
        a = lo.view(np.int64)
        gap = hi.view(np.int64) - a
        y_next = (a + gap // 2).view(np.float64)
        np.copyto(y_next, y_new, where=inside)
        going = (below | above) & ~stay & (inside | (gap > 1))
        done = np.flatnonzero(~going)
        out[k[done]] = y[done]
        state[0] = y_next
        if done.size:
            keep = np.flatnonzero(going)
            state, k = state[:, keep], k[keep]
    return out


def _gate_terms(y, D, c1, t):
    """(g(y) / 4, S_y / 4) of the backward-error gate, on floats or arrays alike.

    The root at y passes when |g(y) / 4| <= _ROOT_RTOL max(1/4, S_y / 4).
    """
    residual = ((y + 2.0 * D) * y + c1 / 4.0) * y - t / 4.0
    scale = ((y + 2.0 * abs(D)) * y + c1 / 4.0) * y + t / 4.0
    return residual, scale


def _occupancy_roots(C, a, c1, Delta0, kappa) -> tuple[float, ...]:
    """Real roots N of the cubic g(y) = 4 y^3 + 8 Delta0 y^2 + c1 y - a C, ascending.

    Each y starts at 0, the inflection point or top, from where Newton nears
    it from one side.  N = y / C, or a / (4 (y + Delta0)^2 + kappa^2) for
    y <= kappa / 2, as accurate there and exact as C and y vanish (nan if
    that denominator underflows to 0, which raises RootSolveError).
    """
    D, k2, t = Delta0, kappa * kappa, a * C
    top = max(t ** (1.0 / 3.0), -2.0 * D)
    bend = max(0.0, -2.0 * D / 3.0)  # inflection point of g
    if _discriminant(c1, t, D, kappa) > 0.0:
        s = math.sqrt(max(0.0, D * D - 0.75 * k2)) / 3.0  # g' = 0 at bend -+ s
        brackets = ((0.0, bend - s, 0.0), (bend + s, bend - s, bend), (bend + s, top, top))
    else:
        u = bend + D
        convex = bend * (4.0 * u * u + k2) - t < 0.0
        brackets = ((0.0, top, top if convex else 0.0),)
    roots = []
    for neg, pos, start in brackets:
        y = _y_root(D, k2, t, neg, pos, start)
        N = y / C if y > 0.5 * kappa else a / (c1 + 4.0 * y * (y + 2.0 * D) or math.nan)
        residual, scale = _gate_terms(y, D, c1, t)
        if not math.isfinite(scale):
            raise SimulationError(f"steady-state cubic terms overflow at y = C N = {y:.17g}")
        tol = _ROOT_RTOL * max(0.25, scale)
        if not (abs(residual) <= tol and math.isfinite(N)):
            raise RootSolveError(
                f"root N = {N:.17g} at y = {y:.17g}: g(y) / 4 = {residual:.3e}, tolerance {tol:.3e}"
            )
        roots.append(N)
    return tuple(sorted(roots))


def _fixed_points(params: SystemParams, Delta0, A_l, N):
    """(alpha_s, beta_s, Delta_eff, drift entries) of the root N, on floats or arrays alike.

    Python numbers give one root's Python numbers; arrays of one entry per
    root give arrays, and entries that broadcast to them (call those under
    np.errstate(all="ignore")).  The 16 drift entries are
    quantum._drift_entries', for the caller's Routh-Hurwitz verdicts.
    """
    kappa, gamma, omega_m, g0 = params.kappa, params.gamma, params.omega_m, params.g0
    beta_s = 1j * g0 * N / (gamma / 2.0 + 1j * omega_m)
    Delta_eff = Delta0 + 2.0 * g0 * beta_s.real
    alpha_s = A_l / (kappa / 2.0 - 1j * Delta_eff)
    g = g0 * alpha_s
    return alpha_s, beta_s, Delta_eff, quantum._drift_entries(
        kappa, gamma, omega_m, Delta_eff, g.real, g.imag
    )


def _batch_points(params: SystemParams, Delta0, A_l) -> np.ndarray:
    """(Delta0, A_l) rows of a batch, an (n, 2) float array, validated with the rest of params."""
    Delta0, A_l = (np.ravel(v).astype(float) for v in np.broadcast_arrays(Delta0, A_l))
    bad = ~(np.isfinite(Delta0) & np.isfinite(A_l) & (A_l >= 0))
    points = np.stack([Delta0, A_l], axis=1)
    d, a = points[int(np.argmax(bad))].tolist() if len(points) else (params.Delta0, params.A_l)
    validate_params(dataclasses.replace(params, Delta0=d, A_l=a))
    return points


def _roots_pointwise(params: SystemParams, points) -> tuple[np.ndarray, np.ndarray]:
    """_roots_in_lockstep's (roots, counts), from one _occupancy_roots call per point.

    It is the lockstep solve's error reporter: it runs only on a batch with a
    point that raises, and raises _occupancy_roots' own error at the first.
    """
    rows = np.asarray(points, dtype=float).tolist()
    roots = [_occupancy_roots(*_y_inputs(params, d, a), d, params.kappa) for d, a in rows]
    flat = [N for point_roots in roots for N in point_roots]
    return np.array(flat, dtype=float), np.array(list(map(len, roots)), dtype=int)


def _roots_in_lockstep(params: SystemParams, points) -> tuple[np.ndarray, np.ndarray]:
    """Roots of the cubic at each (Delta0, A_l) point: (all roots in one column, roots per point).

    The roots are listed point by point, ascending within a point.  Every
    bracket of every point is solved at once on arrays: the inputs are
    _y_inputs' on numpy powers, with C formed once, the brackets, starts, N
    recovery and gate _occupancy_roots' and the iteration _y_root's
    (_y_roots).  numpy's powers may round a, c1 and the start t^(1/3) one
    ulp away from Python's, so a root may differ from _occupancy_roots' by a
    few eps S_y / |g'(y)| in y; the counts come from the same discriminant.
    A point that would raise sends the whole batch through _roots_pointwise,
    which raises its error at its point.  The gate mask sends it: it fails
    where S_y / 4 or N is not finite or the gate fails.  A non-finite C, a,
    c1 or t (an overflowing power gives inf) leaves S_y / 4 or N non-finite at
    every bracket of its point, so the mask catches it too.
    """
    D, A_l = np.asarray(points, dtype=float).T
    C, kappa = _pull_coefficient(params), params.kappa
    k2 = kappa * kappa
    with np.errstate(all="ignore"):
        a = 4.0 * A_l ** 2
        c1 = 4.0 * D ** 2 + kappa ** 2
        t = a * C
        cube = t ** (1.0 / 3.0)
        top = np.where(-2.0 * D > cube, -2.0 * D, cube)
        bend = -2.0 * D / 3.0
        bend = np.where(bend > 0.0, bend, 0.0)
        three = _discriminant(c1, t, D, kappa) > 0.0
        u = bend + D
        convex = bend * (4.0 * u * u + k2) - t < 0.0
        j = np.flatnonzero(three)
        s = D[j] * D[j] - 0.75 * k2
        s = np.sqrt(np.where(s > 0.0, s, 0.0)) / 3.0
        down, up = bend[j] - s, bend[j] + s  # g' = 0 at bend -+ s
        # (neg, pos, start) as in _occupancy_roots: first every point's lowest
        # (or only) bracket, then the middle and upper ones of the three-root points
        first_pos, first_start = top.copy(), np.where(convex, top, 0.0)
        first_pos[j], first_start[j] = down, 0.0
        neg = np.concatenate([np.zeros_like(D), up, up])
        pos = np.concatenate([first_pos, down, top[j]])
        start = np.concatenate([first_start, bend[j], top[j]])
        point = np.concatenate([np.arange(D.size), j, j])
        D, a, c1, t = D[point], a[point], c1[point], t[point]
        y = _y_roots(D, k2, t, neg, pos, start)
        den = c1 + 4.0 * y * (y + 2.0 * D)
        N = np.where(y > 0.5 * kappa, y / C, a / np.where(den == 0.0, np.nan, den))
        residual, scale = _gate_terms(y, D, c1, t)
        tol = _ROOT_RTOL * np.where(scale > 0.25, scale, 0.25)
        ok = np.isfinite(scale) & (np.abs(residual) <= tol) & np.isfinite(N)
    if not ok.all():
        return _roots_pointwise(params, points)
    # by point, then ascending within a point; a stable sort from bracket order, as sorted()
    return N[np.lexsort((N, point))], 1 + 2 * three


def steady_state_grid(params: SystemParams, Delta0, A_l) -> SteadyStateGrid:
    """All classical fixed points at every (Delta0, A_l) of a batch.

    Delta0 and A_l are broadcast against each other and flattened (C order);
    params supplies every other parameter.  On arrays at every batch size,
    one call solves the cubics of all points (_roots_in_lockstep), forms
    every root's fixed point in one _fixed_points call and takes all
    Routh-Hurwitz verdicts from one stacked call.  Counts and points are
    those of steady_states, the same kernel on Python floats at one point;
    N_o and the amplitudes agree with it within the module docstring's
    bounds, and so do the verdicts wherever rounding resolves Delta_eff
    against kappa.
    """
    points = _batch_points(params, Delta0, A_l)
    N_o, counts = _roots_in_lockstep(params, points)
    point = np.repeat(np.arange(len(points)), counts)
    Delta0, A_l = points[point].T
    with np.errstate(all="ignore"):
        alpha_s, beta_s, Delta_eff, entries = _fixed_points(params, Delta0, A_l, N_o)
    drift = np.stack(np.broadcast_arrays(*entries), -1).reshape(-1, 4, 4)
    return SteadyStateGrid(
        Delta0=Delta0, A_l=A_l, point=point,
        branch=np.arange(point.size) - np.searchsorted(point, point),
        N_o=N_o, alpha_s=alpha_s, beta_s=beta_s, Delta_eff=Delta_eff,
        stable=routh_hurwitz_stable(drift),
    )


def solve_intracavity_occupancy(params: SystemParams) -> tuple[float, ...]:
    """All real roots N of the steady-state cubic, ascending (see the module docstring)."""
    validate_params(params)
    return _occupancy_roots(
        *_y_inputs(params, params.Delta0, params.A_l), params.Delta0, params.kappa
    )


def steady_states(params: SystemParams) -> tuple[SteadyState, ...]:
    """All classical fixed points, in ascending photon number.

    On Python floats: _fixed_points per root, and all verdicts from one
    _hurwitz_verdicts call on their drift entries.
    """
    N = solve_intracavity_occupancy(params)
    d, a = params.Delta0, params.A_l
    alpha_s, beta_s, Delta_eff, drift = zip(*[_fixed_points(params, d, a, n) for n in N])
    stable = _hurwitz_verdicts(sum(drift, ()))
    return tuple(map(SteadyState, alpha_s, beta_s, N, Delta_eff, stable))


# ---------------------------------------------------------------------------
# sweeps


def _bisect_one(f, lo: float, hi: float, f_lo: float, width: float) -> float:
    """_bisect's loop for one bracket on Python floats: f takes and returns one float."""
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


def _bisect(f, lo, hi, f_lo, width) -> np.ndarray:
    """Bisect the sign change of f on every bracket [lo, hi] in lockstep.

    lo, hi, f_lo = f(lo) and width hold one value per bracket.  Each round
    makes one call f(mid, k) at the midpoints mid of the unfinished brackets
    k (an index array) and halves each of them.  A bracket ends at its
    midpoint once it is no wider than its width, or at the first midpoint
    where f is exactly zero.  f takes and returns float arrays.  Per bracket
    this is the scalar loop (_bisect_one), so the results carry its bits.
    """
    lo, hi, f_lo = (np.array(v, dtype=float) for v in (lo, hi, f_lo))
    width = np.broadcast_to(np.asarray(width, dtype=float), lo.shape)
    out = np.empty_like(lo)
    k = np.arange(lo.size)
    while True:
        wide = hi[k] - lo[k] > width[k]
        done = k[~wide]
        out[done] = 0.5 * (lo[done] + hi[done])
        k = k[wide]
        if not k.size:
            return out
        mid = 0.5 * (lo[k] + hi[k])
        f_mid = f(mid, k)
        zero = f_mid == 0.0
        out[k[zero]] = mid[zero]
        same = (f_mid > 0) == (f_lo[k] > 0)
        lo[k[same]], f_lo[k[same]] = mid[same], f_mid[same]
        hi[k[~same]] = mid[~same]
        k = k[~zero]


def _window_edges(params: SystemParams, lo: list[float], hi: list[float]) -> list[float]:
    """Detunings where the cubic discriminant changes sign, one per bracket [lo, hi].

    The root count is defined by the discriminant sign, so grid neighbours
    with different counts always bracket a sign change (or hit a zero).  On
    Python floats, the discriminant takes _y_inputs' operations, so it has
    the root solve's bits, and each bracket is bisected alone (_bisect_one).
    """
    k2, t = params.kappa ** 2, 4.0 * params.A_l ** 2 * _pull_coefficient(params)

    def disc(d: float) -> float:
        return _discriminant(4.0 * d ** 2 + k2, t, d, params.kappa)

    def edge(a: float, b: float) -> float:
        f_a, f_b = disc(a), disc(b)
        if f_a == 0.0 or f_b == 0.0:
            return a if f_a == 0.0 else b
        return _bisect_one(disc, a, b, f_a, _EDGE_ATOL * max(1.0, abs(a), abs(b)))

    return [edge(a, b) for a, b in zip(lo, hi)]


def sweep_bistability(params: SystemParams, detunings: np.ndarray) -> BistabilityBranch:
    """Solve the steady-state cubic along a detuning grid and locate the window.

    Window edges (detunings where the root count changes between adjacent
    grid points) are refined by bisection on the cubic discriminant.
    """
    detunings = np.asarray(detunings, dtype=float)
    if detunings.ndim != 1 or detunings.size < 2:
        raise ValueError("detunings must be a 1-D grid with at least 2 points")
    grid = steady_state_grid(params, detunings, params.A_l)
    i = np.flatnonzero(np.diff(grid.counts))
    a, b = detunings[i], detunings[i + 1]
    edges = _window_edges(params, np.minimum(a, b).tolist(), np.maximum(a, b).tolist())
    return BistabilityBranch(states=grid, window_edges=tuple(sorted(edges)))


def _continue_from(start: float, roots) -> list[float]:
    """Nearest-root continuation: start, then per point the root nearest the last."""
    trace = [prev := start]
    for point_roots in roots:
        if len(point_roots) > 1:
            prev = min(point_roots, key=lambda r: abs(r - prev))
        else:  # the one root, without min's key calls
            prev = point_roots[0]
        trace.append(prev)
    return trace


def hysteresis_traces(
    params: SystemParams, detunings: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Up- and down-sweep occupancy traces (N_up, N_down) from one root solve.

    The up sweep starts on the smallest root at the first detuning, the down
    sweep on the largest root at the last; each later point takes the root
    nearest the previously occupied one, which reproduces hysteretic jumps
    at the bistability window edges.  Both traces are indexed like the grid.
    """
    detunings = np.asarray(detunings, dtype=float)
    if detunings.ndim != 1 or detunings.size < 1:
        raise ValueError("detunings must be a non-empty 1-D grid")
    N, counts = _roots_in_lockstep(params, _batch_points(params, detunings, params.A_l))
    N, ends = N.tolist(), np.cumsum(counts).tolist()
    roots = [N[i:j] for i, j in zip([0, *ends], ends)]
    up = _continue_from(roots[0][0], roots[1:])
    down = _continue_from(roots[-1][-1], roots[-2::-1])
    return np.array(up), np.array(down[::-1])


def stability_map(
    params: SystemParams, detunings: np.ndarray, amplitudes: np.ndarray
) -> SteadyStateGrid:
    """Root structure and Routh-Hurwitz verdicts over a (Delta0, A_l) grid.

    The fixed points of detunings[i] and amplitudes[j] are point
    i * amplitudes.size + j of the returned grid.
    """
    detunings = np.asarray(detunings, dtype=float)
    amplitudes = np.asarray(amplitudes, dtype=float)
    if detunings.ndim != 1 or amplitudes.ndim != 1:
        raise ValueError("detunings and amplitudes must be 1-D grids")
    return steady_state_grid(params, detunings[:, None], amplitudes[None, :])


# ---------------------------------------------------------------------------
# linear response


def optical_susceptibility(omega, Delta, kappa):
    """Cavity field response 1 / (kappa/2 - i (Delta + omega))."""
    _checked_number("kappa", kappa, "> 0")
    return 1.0 / (kappa / 2.0 - 1j * (np.asarray(Delta) + np.asarray(omega)))


def mechanical_susceptibility(omega, m, omega_m, gamma):
    """Bare mechanical response 1 / (m (omega_m^2 - omega^2) - i m gamma omega)."""
    for name, value in (("m", m), ("omega_m", omega_m), ("gamma", gamma)):
        _checked_number(name, value, "> 0")
    omega = np.asarray(omega)
    return 1.0 / (m * (omega_m ** 2 - omega ** 2) - 1j * m * gamma * omega)


def self_energy(omega, g_s, Delta, kappa, m, omega_m):
    """Radiation-pressure self-energy 2 i m omega_m g_s^2 (chi_o(w) - chi_o*(-w))."""
    chi_plus = optical_susceptibility(omega, Delta, kappa)
    chi_minus = np.conjugate(optical_susceptibility(-np.asarray(omega), Delta, kappa))
    return 2j * m * omega_m * g_s ** 2 * (chi_plus - chi_minus)


def effective_susceptibility(omega, g_s, Delta, kappa, m, omega_m, gamma):
    """Mechanical response dressed by the cavity: 1 / (1/chi_m - Sigma).

    PoleError where |1/chi_m - Sigma| < 1e-14 m omega_m^2, a bound relative
    to the stiffness m omega_m^2 so that it does not depend on the unit of m.
    """
    chi_m = mechanical_susceptibility(omega, m, omega_m, gamma)
    Sigma = self_energy(omega, g_s, Delta, kappa, m, omega_m)
    if np.all(Sigma == 0):
        # 1/(1/chi_m) is not an exact float identity; the uncoupled limit is.
        return chi_m
    denom = 1.0 / chi_m - Sigma
    if np.any(np.abs(denom) < 1e-14 * m * omega_m ** 2):
        raise PoleError("effective susceptibility evaluated on a pole")
    return 1.0 / denom


def _finite_closed_form(name: str):
    """Decorate a closed form f(g_s, Delta, kappa, omega_m) of the linear cavity.

    The wrapper checks that kappa and omega_m are finite and > 0 and
    evaluates f at Delta as a float array under np.errstate, so an overflow
    warns nowhere.  A non-finite value, or a float power that overflows,
    raises SimulationError naming the inputs at the first such point.
    """
    def decorate(f):
        @functools.wraps(f)
        def checked(g_s, Delta, kappa, omega_m):
            _checked_number("kappa", kappa, "> 0")
            _checked_number("omega_m", omega_m, "> 0")
            Delta = np.asarray(Delta, dtype=float)
            try:
                with np.errstate(all="ignore"):
                    out = f(g_s, Delta, kappa, omega_m)
                bad = ~np.isfinite(out)
            except OverflowError:  # a float power of a Python float: every point
                out, bad = None, np.True_
            if np.any(bad):
                k = int(np.argmax(bad))
                g, d = (float(v.flat[k]) for v in np.broadcast_arrays(g_s, Delta, bad)[:2])
                raise SimulationError(
                    f"{name} is not finite at g_s = {g!r}, Delta = {d!r}, "
                    f"kappa = {kappa!r}, omega_m = {omega_m!r}"
                )
            return float(out) if out.ndim == 0 else out

        return checked

    return decorate


@_finite_closed_form("optomechanical damping")
def optomechanical_damping(g_s, Delta, kappa, omega_m):
    """Cavity-induced mechanical damping rate gamma_om(Delta).

    gamma_om = g_s^2 kappa [1/(kappa^2/4 + (omega_m + Delta)^2)
                            - 1/(kappa^2/4 + (omega_m - Delta)^2)];
    negative (anti-damping) for blue detuning Delta > 0.
    """
    lor_plus = 1.0 / (kappa ** 2 / 4.0 + (omega_m + Delta) ** 2)
    lor_minus = 1.0 / (kappa ** 2 / 4.0 + (omega_m - Delta) ** 2)
    return g_s ** 2 * kappa * (lor_plus - lor_minus)


@_finite_closed_form("optical spring shift")
def optical_spring_shift(g_s, Delta, kappa, omega_m):
    """Cavity-induced mechanical frequency shift delta_omega_m(Delta).

    delta_omega_m = g_s^2 [(omega_m + Delta)/(kappa^2/4 + (omega_m + Delta)^2)
                           - (omega_m - Delta)/(kappa^2/4 + (omega_m - Delta)^2)].
    """
    term_plus = (omega_m + Delta) / (kappa ** 2 / 4.0 + (omega_m + Delta) ** 2)
    term_minus = (omega_m - Delta) / (kappa ** 2 / 4.0 + (omega_m - Delta) ** 2)
    return g_s ** 2 * (term_plus - term_minus)


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
    DivergenceError.  The bound leaves out the coupling rate g0 |alpha|,
    because |alpha| is not known before the run.
    """
    validate_params(params)

    # Python complex arithmetic with the four RK4 stages inlined, operation
    # for operation the numpy-array RK4 step of reference_mean_field in
    # tests/test_classical.py, so the two trajectories are bit-identical.
    # The squares stay powers because pow(x, 2) and x * x can round
    # differently.  A float power that overflows raises OverflowError where
    # numpy gives inf; an inf always leaves the step non-finite, so both end
    # in the same DivergenceError.
    kh, Delta0, A_l = params.kappa / 2.0, params.Delta0, params.A_l
    g2 = 2.0 * params.g0
    cb = -(params.gamma / 2.0 + 1j * params.omega_m)
    ig0 = 1j * params.g0

    fastest = max(params.kappa, params.gamma, params.omega_m, abs(params.Delta0))
    times = step_times(t_end, dt, fastest)
    a, b = complex(alpha0), complex(beta0)
    alphas, betas = [a], [b]
    for i, h in enumerate(np.diff(times).tolist(), start=1):
        half = 0.5 * h
        try:
            ka1 = -(kh - 1j * (Delta0 + g2 * b.real)) * a + A_l
            kb1 = cb * b + ig0 * (a.real ** 2 + a.imag ** 2)
            a2, b2 = a + half * ka1, b + half * kb1
            ka2 = -(kh - 1j * (Delta0 + g2 * b2.real)) * a2 + A_l
            kb2 = cb * b2 + ig0 * (a2.real ** 2 + a2.imag ** 2)
            a3, b3 = a + half * ka2, b + half * kb2
            ka3 = -(kh - 1j * (Delta0 + g2 * b3.real)) * a3 + A_l
            kb3 = cb * b3 + ig0 * (a3.real ** 2 + a3.imag ** 2)
            a4, b4 = a + h * ka3, b + h * kb3
            ka4 = -(kh - 1j * (Delta0 + g2 * b4.real)) * a4 + A_l
            kb4 = cb * b4 + ig0 * (a4.real ** 2 + a4.imag ** 2)
            sixth = h / 6.0
            a = a + sixth * (ka1 + 2.0 * ka2 + 2.0 * ka3 + ka4)
            b = b + sixth * (kb1 + 2.0 * kb2 + 2.0 * kb3 + kb4)
            diverged = not (cmath.isfinite(a) and cmath.isfinite(b)) or abs(a) > 1e12
        except OverflowError:
            diverged = True
        if diverged:
            raise DivergenceError(
                f"mean-field trajectory diverged at t = {times[i]:g} (|alpha| > 1e12)"
            )
        alphas.append(a)
        betas.append(b)
    return MeanFieldTrajectory(t=times, alpha=np.array(alphas), beta=np.array(betas))


# ---------------------------------------------------------------------------
# static multi-well potential


def lorentzian_comb_model(
    k_HO: float,
    F0: float,
    wavelength: float,
    finesse: float,
    x_min: float,
    x_max: float,
) -> StaticPotentialModel:
    """Build a StaticPotentialModel whose resonance comb covers [x_min, x_max].

    Resonances sit at integer multiples of wavelength/2; the comb extends
    _PAD_RESONANCES (10) spacings beyond each end of the interval so edge
    effects on the force inside the window stay negligible.  The force costs
    O(grid points x resonances) in time and memory, so a comb of more than
    _MAX_COMB_RESONANCES resonances raises ValueError before it is built, and
    a spacing or width beyond the float range raises SimulationError.
    """
    for name, value in (("k_HO", k_HO), ("wavelength", wavelength), ("finesse", finesse)):
        _checked_number(name, value, "> 0")
    _checked_number("F0", F0, ">= 0")
    if not x_max > x_min:
        raise ValueError("x_max must exceed x_min")
    spacing, width = wavelength / 2.0, wavelength / (2.0 * finesse)
    if spacing == 0.0 or not 0.0 < width < math.inf:
        raise SimulationError(
            f"comb spacing or width leaves the float range at {wavelength = }, {finesse = }"
        )
    lo, hi = x_min / spacing, x_max / spacing
    if math.isfinite(hi - lo):  # an end beyond the float range has no resonance index
        j_min, j_max = math.floor(lo) - _PAD_RESONANCES, math.ceil(hi) + _PAD_RESONANCES
    else:
        j_min, j_max = -math.inf, math.inf
    if j_max - j_min + 1 > _MAX_COMB_RESONANCES:
        raise ValueError(
            f"x window of {(x_max - x_min) / wavelength:.6g} wavelengths needs more than "
            f"the {_MAX_COMB_RESONANCES} comb resonances allowed"
        )
    return StaticPotentialModel(
        k_HO=k_HO,
        F0=F0,
        x_res=tuple(j * spacing for j in range(j_min, j_max + 1)),
        width=width,
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


def static_equilibria(models, x) -> list[tuple[np.ndarray, np.ndarray]]:
    """Stable equilibria and their stiffness on the grid x, for each model.

    The models are one comb at several forces F0: they must share k_HO,
    x_res, width and finesse.  Equilibria are sign changes of
    dV_t/dx = k_HO x - F_RP(x) between grid nodes (and nodes where it is
    exactly zero), refined by bisection to 1e-10 of a wavelength (or to
    two float steps of x, where those are wider, so that it ends) and kept
    when the curvature K_eff = k_HO - dF_RP/dx is positive; a candidate
    within 1e-9 of a wavelength of the last kept one is skipped.
    F_RP = F0 S(x), so the comb sum S is evaluated once at F0 = 1 and
    scaled per force; every bracket of every force is bisected in one
    lockstep pass, and all curvatures come from one gradient call.  Returns
    one (equilibria ascending, K_eff) pair per model.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("x must be a 1-D grid with at least 2 points")
    if np.any(np.diff(x) <= 0):
        raise ValueError("x must be strictly increasing")
    models = list(models)
    if not models:
        return []
    comb = dataclasses.replace(models[0], F0=1.0)
    if any(dataclasses.replace(m, F0=1.0) != comb for m in models):
        raise ValueError("models must share k_HO, x_res, width and finesse")
    res = np.asarray(comb.x_res)
    if not np.any((res >= x[0]) & (res <= x[-1])):
        raise ValueError("grid must cover at least one comb resonance")
    k_HO = comb.k_HO
    wavelength = comb.width * 2.0 * comb.finesse
    F0 = np.array([m.F0 for m in models], dtype=float)

    h = k_HO * x - F0[:, None] * radiation_force(comb, x)
    positive, nonzero = h > 0, h != 0.0
    force, node = np.nonzero(
        (positive[:, :-1] != positive[:, 1:]) & nonzero[:, :-1] & nonzero[:, 1:]
    )
    # two float steps bound the width far from x = 0, where they exceed 1e-10 wavelengths
    steps = 2.0 * np.spacing(np.maximum(np.abs(x[node]), np.abs(x[node + 1])))
    width = np.maximum(1e-10 * wavelength, steps)

    def slope(mid, k):  # dV_t/dx of forces k at midpoints mid
        return k_HO * mid - F0[force[k]] * radiation_force(comb, mid)

    roots = _bisect(slope, x[node], x[node + 1], h[force, node], width)
    candidates = [
        sorted(x[~nonzero[f]].tolist() + roots[force == f].tolist()) for f in range(F0.size)
    ]
    owner = np.repeat(np.arange(F0.size), list(map(len, candidates)))
    flat = np.array([pos for positions in candidates for pos in positions])
    k_eff = iter((k_HO - F0[owner] * radiation_force_gradient(comb, flat)).tolist())
    found = []
    for positions in candidates:
        stable_eq: list[float] = []
        stiffness: list[float] = []
        for pos, k in zip(positions, k_eff):  # draws len(positions) values of k_eff
            if stable_eq and abs(pos - stable_eq[-1]) <= 1e-9 * wavelength:
                continue
            if k > 0:
                stable_eq.append(pos)
                stiffness.append(k)
        found.append((np.array(stable_eq), np.array(stiffness)))
    return found


def static_potential(model: StaticPotentialModel, x) -> StaticPotentialResult:
    """Total potential landscape and its stable equilibria on the grid x.

    The equilibria are those of static_equilibria at this one model.
    """
    ((equilibria, K_eff),) = static_equilibria([model], x)
    x = np.asarray(x, dtype=float)
    V_RP = radiation_potential(model, x)
    V_HO = 0.5 * model.k_HO * x ** 2
    return StaticPotentialResult(
        x=x, V_RP=V_RP, V_HO=V_HO, V_t=V_RP + V_HO, equilibria=equilibria, K_eff=K_eff
    )


# ---------------------------------------------------------------------------
# input-output


def mean_output_field(alpha_s: complex, kappa: float) -> complex:
    """Mean reflected field -sqrt(kappa) alpha_s for a zero-mean input."""
    return -math.sqrt(_checked_number("kappa", kappa, "> 0")) * complex(alpha_s)
