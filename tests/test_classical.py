import dataclasses
import functools
import itertools
import math
import re
import types
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from optomech.errors import (
    DivergenceError,
    PoleError,
    RootSolveError,
    SimulationError,
    StepSizeError,
)
from optomech import classical
from optomech.model import SystemParams
from optomech.classical import (
    _bisect,
    _bisect_one,
    _continue_from,
    _fixed_points,
    _occupancy_roots,
    _roots_in_lockstep,
    _y_inputs,
    classify_regime,
    cubic_discriminant,
    effective_susceptibility,
    hysteresis_traces,
    integrate_mean_field,
    lorentzian_comb_model,
    mean_output_field,
    mechanical_susceptibility,
    optical_spring_shift,
    optical_susceptibility,
    optomechanical_damping,
    radiation_force,
    radiation_force_gradient,
    radiation_potential,
    self_energy,
    solve_intracavity_occupancy,
    stability_map,
    static_equilibria,
    static_potential,
    steady_state_grid,
    steady_states,
    sweep_bistability,
)
from optomech.quantum import drift_matrix
from optomech.stability import _hurwitz_verdicts, routh_hurwitz_stable
from test_acceptance import _independent_discriminant


def _continuation_reference(p, det):
    """Up and down hysteresis traces from one scalar root solve per point.

    The up trace starts on the smallest root at det[0], the down trace on the
    largest at det[-1]; each later point takes the root nearest the last.
    Each trace is an array indexed like det.
    """
    traces = []
    for direction, order in (("up", det), ("down", det[::-1])):
        trace = []
        for d in order:
            roots = solve_intracavity_occupancy(dataclasses.replace(p, Delta0=float(d)))
            if not trace:
                trace.append(roots[0] if direction == "up" else roots[-1])
            else:
                trace.append(min(roots, key=lambda r: abs(r - trace[-1])))
        traces.append(np.array(trace if direction == "up" else trace[::-1]))
    return tuple(traces)


def _photon_number_cubic(p):
    """Coefficients (c3, c2, c1, c0) of p's steady-state cubic in the photon number N.

    The solver works in y = C N and never forms c3 = 4 C^2 or c2 = 8 C Delta0;
    the tests build the photon-number form here, as an independent oracle.
    """
    C = 2.0 * p.g0 ** 2 * p.omega_m / (p.gamma ** 2 / 4.0 + p.omega_m ** 2)
    return 4.0 * C * C, 8.0 * C * p.Delta0, 4.0 * p.Delta0 ** 2 + p.kappa ** 2, -4.0 * p.A_l ** 2


def _check_residuals(p, roots):
    """|c3 N^3 + c2 N^2 + c1 N + c0| <= 1e-8 max(1, |c0|) at every root N (Horner form)."""
    c3, c2, c1, c0 = _photon_number_cubic(p)
    scale = max(1.0, abs(c0))
    assert all(abs(((c3 * N + c2) * N + c1) * N + c0) <= 1e-8 * scale for N in roots)


def _np_roots_oracle(p):
    """Real roots of the photon-number cubic from np.roots, ascending.

    None when the cubic is not well conditioned for the oracle: two real
    roots, or a real and a complex root, within 1e-3 of the largest root
    magnitude of each other.
    """
    z = np.roots(_photon_number_cubic(p))
    scale = np.abs(z).max()
    real = np.abs(z.imag) <= 1e-9 * scale
    if np.any(~real & (np.abs(z.imag) < 1e-3 * scale)):
        return None
    roots = np.sort(z.real[real])
    if np.any(np.diff(roots) < 1e-3 * scale):
        return None
    return roots


def _check_against_oracle(p, roots):
    """Check roots against the discriminant count, the residual bound and np.roots.

    Roots must lie within 1e-12 relative of the oracle's.  Returns False for
    a cubic the oracle skips.
    """
    assert len(roots) == (3 if cubic_discriminant(p) > 0 else 1)
    _check_residuals(p, roots)
    oracle = _np_roots_oracle(p)
    if oracle is None:
        return False
    assert len(roots) == oracle.size
    for r, o in zip(roots, oracle):
        assert abs(r - o) <= 1e-12 * abs(o)
    return True


FIG5 = SystemParams(kappa=0.15, gamma=0.005, g0=0.003, Delta0=0.0, A_l=5.0)
BISTABLE = dataclasses.replace(FIG5, g0=0.005, Delta0=-0.21)
# steady_states raised a raw LinAlgError here, from np.roots after an
# "overflow encountered in divide" (c3 is subnormal, so c2 / c3 overflows)
LINALG_ERROR_INPUT = dict(
    kappa=4.571e-07, gamma=3.727e7, g0=4.749e-151, Delta0=1.339e17, A_l=1.230e101,
    omega_m=4.343e-06,
)

# three-root draws #30, #83 and #129 of a seeded fuzz, |Delta0| / kappa from 1.3e10 to 1.9e38
FAR_DETUNED = (
    SystemParams(
        kappa=0.25940063663925916, gamma=1.187282672793965e-06,
        g0=9.559526317674634e-11, Delta0=-3459135283.126823,
        A_l=2.8681949277281924e+16, omega_m=4186.986074016767,
    ),
    SystemParams(
        kappa=0.001447452097944006, gamma=48046.01010700848,
        g0=6.3247711565149345e-12, Delta0=-1.6165871420928515e+35,
        A_l=4.5643761194219066e+48, omega_m=1790.7596103153203,
    ),
    SystemParams(
        kappa=1001.3942079131176, gamma=1.2814648244470793e-06,
        g0=6.551030167265504e-11, Delta0=-1.8531943913195912e+41,
        A_l=1.9470261933618974e+39, omega_m=0.20057192093890172,
    ),
)
# gamma^2/4 + omega_m^2 underflows to 0, so C has no float value
TINY_RATES = SystemParams(kappa=0.15, gamma=1e-200, g0=0.005, Delta0=0.0, A_l=1.0, omega_m=1e-200)
# t = 4 A_l^2 C = 1.6e308 is finite, but the terms of g / 4 at its root overflow
TERMS_OVERFLOW = dataclasses.replace(FIG5, g0=4.5e153, A_l=1.0, omega_m=1.0, Delta0=-3e102)
# t within 2x of the float maximum: S_y = 4 y^3 + ... + t overflows at the root,
# S_y / 4 does not (a widened-fuzz draw, and TERMS_OVERFLOW at Delta0 = 0)
NEAR_FLOAT_MAX_T = (
    SystemParams(
        kappa=0.15223929535563815, gamma=73.09850508168081, g0=2.8520878556343347e+146,
        Delta0=7.411762564305325e+24, A_l=634133152.9826092, omega_m=2542.907245660618,
    ),
    dataclasses.replace(FIG5, g0=4.5e153, A_l=1.0, omega_m=1.0),
)
# t = 4 A_l^2 C = 0 with g(bend) underflowing to exactly 0: the one-root bracket
# used to start at top and stop on the spurious zero y = -Delta0 (N = y / C
# divided by C = 0 in the first, and N = 2.87e-107 instead of 0 in the second)
ZERO_T = (
    SystemParams(
        kappa=5.464385968428583e-140, gamma=0.11337467146676294, g0=0.0,
        Delta0=-7.17379149738589e-112, A_l=1.239020223194527e-33, omega_m=4.585672565513426e+33,
    ),
    SystemParams(
        kappa=5.464385968428583e-140, gamma=0.005, g0=0.005,
        Delta0=-7.17379149738589e-112, A_l=0.0,
    ),
)


def _mpmath_occupancies(p):
    """Real roots of the photon-number cubic of p from mpmath at 400 digits, ascending.

    mpmath solves the cubic for y = C N, which is scaled near 1 where the
    photon-number form's coefficients span hundreds of decades, and the
    roots are y / C.
    """
    import mpmath

    with mpmath.workdps(400):
        m = mpmath.mpf
        C = 2 * m(p.g0) ** 2 * m(p.omega_m) / (m(p.gamma) ** 2 / 4 + m(p.omega_m) ** 2)
        exact = mpmath.polyroots(
            [4, 8 * m(p.Delta0), 4 * m(p.Delta0) ** 2 + m(p.kappa) ** 2, -4 * m(p.A_l) ** 2 * C],
            maxsteps=500, extraprec=500,
        )
        real = [mpmath.re(z) for z in exact if abs(mpmath.im(z)) <= 1e-60 * abs(z)]
        return sorted(float(y / C) for y in real)


def log_uniform(lo, hi):
    """Floats spread evenly in log10 over [lo, hi]."""
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


def signed_log_uniform(lo, hi):
    return st.tuples(st.sampled_from((-1.0, 1.0)), log_uniform(lo, hi)).map(
        lambda s: s[0] * s[1]
    )


def or_zero(strategy):
    return st.one_of(st.just(0.0), strategy)


# every field of SystemParams over many decades, within validate_params
VALID_PARAMS = st.fixed_dictionaries({
    "kappa": log_uniform(1e-6, 1e6),
    "gamma": log_uniform(1e-6, 1e6),
    "omega_m": log_uniform(1e-6, 1e6),
    "m": log_uniform(1e-6, 1e6),
    "g0": or_zero(log_uniform(1e-150, 1e150)),
    "Delta0": or_zero(signed_log_uniform(1e-6, 1e50)),
    "A_l": or_zero(log_uniform(1e-6, 1e60)),
    "n_th": or_zero(log_uniform(1e-3, 1e3)),
})


# ---------------------------------------------------------------------------
# cubic and steady states


class TestCubic:
    def test_pull_coefficient_oracle(self):
        C, _, _ = _y_inputs(FIG5, FIG5.Delta0, FIG5.A_l)
        assert C == pytest.approx(1.7999887500703121e-05, rel=1e-12)
        assert C == pytest.approx(1.8e-5, rel=1e-4)

    def test_coefficient_construction(self):
        p = dataclasses.replace(FIG5, Delta0=-0.2)
        C = 2.0 * p.g0 ** 2 * p.omega_m / (p.gamma ** 2 / 4.0 + p.omega_m ** 2)
        assert _y_inputs(p, p.Delta0, p.A_l) == (
            C, 4.0 * p.A_l ** 2, 4.0 * p.Delta0 ** 2 + p.kappa ** 2
        )

    def test_linear_cavity_oracle(self):
        p = dataclasses.replace(FIG5, g0=0.0)
        roots = solve_intracavity_occupancy(p)
        assert roots == (pytest.approx(4444.444444444444, rel=1e-12),)

    @given(
        A_l=st.floats(0, 1e3),
        Delta0=st.floats(-50, 50),
        kappa=st.floats(1e-3, 10),
    )
    @settings(max_examples=200)
    def test_linear_limit_closed_form(self, A_l, Delta0, kappa):
        p = SystemParams(kappa=kappa, gamma=0.005, g0=0.0, Delta0=Delta0, A_l=A_l)
        (root,) = solve_intracavity_occupancy(p)
        expected = 4 * A_l ** 2 / (4 * Delta0 ** 2 + kappa ** 2)
        assert root == pytest.approx(expected, rel=1e-10, abs=1e-300)

    @given(
        g0=st.floats(0, 0.02),
        Delta0=st.floats(-2, 2),
        A_l=st.floats(0, 20),
        kappa=st.floats(0.01, 2),
    )
    @settings(max_examples=200)
    @example(g0=2.5439273303134336e-77, Delta0=0.0, A_l=18.0, kappa=1.0)
    def test_root_properties(self, g0, Delta0, A_l, kappa):
        p = SystemParams(kappa=kappa, gamma=0.005, g0=g0, Delta0=Delta0, A_l=A_l)
        roots = solve_intracavity_occupancy(p)
        assert len(roots) in (1, 3)
        assert all(r >= 0 for r in roots)
        assert list(roots) == sorted(roots)
        _check_residuals(p, roots)

    @given(
        g0=st.floats(0.005, 0.02),
        A_l=st.floats(5, 20),
        upper_edge=st.booleans(),
        side=st.sampled_from((-1.0, 1.0)),
        log_rel=st.floats(-12, -6),
    )
    @settings(max_examples=100, deadline=None)
    def test_near_window_edge(self, g0, A_l, upper_edge, side, log_rel):
        # Delta0 within relative 1e-12..1e-6 of a window edge, i.e. next to a
        # double root; the edge comes from an oracle independent of the solver.
        p = dataclasses.replace(FIG5, g0=g0, A_l=A_l)
        # the window lies inside -C N_max < Delta0 < 0, N_max = 4 A_l^2 / kappa^2
        n_max = 4.0 * A_l ** 2 / p.kappa ** 2
        C, _, _ = _y_inputs(p, p.Delta0, p.A_l)
        grid = -np.geomspace(1e-3, 2.0 * C * n_max + 1.0, 200)
        disc = [_independent_discriminant(p, d) for d in grid]
        brackets = [
            (grid[i + 1], grid[i]) for i in range(grid.size - 1)
            if (disc[i] > 0) != (disc[i + 1] > 0)
        ]
        assert len(brackets) == 2
        lo, hi = brackets[0] if upper_edge else brackets[1]
        edge = brentq(lambda d: _independent_discriminant(p, d), lo, hi, xtol=1e-15)
        near = dataclasses.replace(p, Delta0=edge * (1.0 + side * 10.0 ** log_rel))
        roots = solve_intracavity_occupancy(near)
        assert len(roots) == (3 if cubic_discriminant(near) > 0 else 1)
        assert all(r > 0 for r in roots)
        _check_residuals(near, roots)

    @pytest.mark.parametrize(
        "field, value", [("Delta0", 1e110), ("Delta0", -1e110), ("A_l", 1e100), ("kappa", 1e-80)]
    )
    def test_discriminant_overflow_reads_as_one_root(self, field, value):
        (root,) = solve_intracavity_occupancy(dataclasses.replace(FIG5, **{field: value}))
        assert root > 0

    @pytest.mark.parametrize(
        "field, value", [("Delta0", 1e155), ("Delta0", 1e154), ("A_l", 1e160), ("A_l", 1e154)]
    )
    def test_coefficient_overflow_is_simulation_error(self, field, value):
        # a float power raises OverflowError, a product overflows to inf: c1 or
        # 4 A_l^2, which the solve in y = C N needs.  A batch meets the first
        # at its Python powers and the second at its gate mask, and raises the
        # same error from its per-point reporter
        p = dataclasses.replace(FIG5, **{field: value})
        for solve in (
            solve_intracavity_occupancy,
            steady_states,
            lambda p: steady_state_grid(p, p.Delta0, p.A_l),
            lambda p: steady_state_grid(p, [p.Delta0] * 128, p.A_l),
            lambda p: hysteresis_traces(p, [p.Delta0] * 3),
        ):
            with pytest.raises(SimulationError, match="steady-state cubic overflows") as info:
                solve(p)
            message = str(info.value)
            assert f"Delta0 = {p.Delta0!r}" in message
            assert f"A_l = {p.A_l!r}" in message and f"g0 = {p.g0!r}" in message

    @pytest.mark.parametrize(
        "p, count",
        [
            # c3 = 4 C^2 overflows; the root is N ~ 2.9e-134
            (dataclasses.replace(FIG5, g0=1e100, Delta0=-1.0, A_l=1.0), 1),
            (dataclasses.replace(FIG5, g0=1e77), 1),
            # c3 = 4 C^2 underflows to 0, and the two upper roots agree to 1e-100
            (dataclasses.replace(FIG5, kappa=1e-160, g0=1e-100, Delta0=-1.0, A_l=1.0), 3),
            # S_y overflows at the root, S_y / 4 does not
            (NEAR_FLOAT_MAX_T[0], 1),
            (NEAR_FLOAT_MAX_T[1], 1),
        ],
        ids=["g0=1e100", "g0=1e77", "kappa=1e-160", "t-near-max-fuzz", "t-near-max-Delta0=0"],
    )
    def test_roots_beyond_the_photon_number_form_match_mpmath(self, p, count):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roots = list(solve_intracavity_occupancy(p))
            assert [s.N_o for s in steady_states(p)] == roots
        exact = _mpmath_occupancies(p)
        assert len(roots) == len(exact) == count
        for N, reference in zip(roots, exact):
            assert abs(N - reference) <= 1e-15 * reference
        if p.g0 == 1e77:
            assert roots == [pytest.approx(3.9685191653308993e-103, rel=1e-15)]

    def test_overflowing_terms_are_simulation_error(self):
        # the terms of g sum past the float range, so the gate has no finite tolerance
        with pytest.raises(SimulationError, match="terms overflow") as info:
            steady_states(TERMS_OVERFLOW)
        assert "tolerance inf" not in str(info.value)

    @pytest.mark.parametrize(
        "solve",
        [
            steady_states,
            cubic_discriminant,
            lambda p: steady_state_grid(p, p.Delta0, p.A_l),
            lambda p: steady_state_grid(p, [p.Delta0] * 128, p.A_l),
            lambda p: hysteresis_traces(p, np.linspace(-0.3, 0.3, 3)),
        ],
        ids=["steady_states", "cubic_discriminant", "grid-1", "grid-lockstep", "hysteresis"],
    )
    def test_underflowing_pull_denominator_is_simulation_error(self, solve):
        with pytest.raises(SimulationError, match="steady-state cubic overflows"):
            solve(TINY_RATES)

    def test_roots_match_np_roots_oracle(self):
        # seeded physical draws, monostable and bistable, against np.roots
        rng = np.random.default_rng(20261018)
        checked = three = 0
        for _ in range(2000):
            p = SystemParams(
                kappa=rng.uniform(0.01, 2.0), gamma=rng.uniform(1e-3, 0.05),
                g0=10.0 ** rng.uniform(-4, -1), Delta0=rng.uniform(-2, 1),
                A_l=rng.uniform(0.1, 30),
            )
            roots = solve_intracavity_occupancy(p)
            checked += _check_against_oracle(p, roots)
            three += len(roots) == 3
        assert checked >= 1900 and three >= 50

    def test_batch_matches_np_roots_oracle(self):
        # linear cavities (g0 = 0), dark cavities (A_l = 0) and bistable
        # points mixed in one batch, each against a per-cubic np.roots solve
        rng = np.random.default_rng(5)
        points = [
            (rng.uniform(-0.4, 0.1), rng.choice([0.0, rng.uniform(1, 10)])) for _ in range(300)
        ]
        checked = three = 0
        for g0 in (0.0, 0.005, 0.01):
            p = dataclasses.replace(FIG5, g0=g0)
            N, counts = _roots_in_lockstep(p, points)
            N, ends = N.tolist(), np.cumsum(counts).tolist()
            for (d, a), i, j in zip(points, [0, *ends], ends):
                roots = tuple(N[i:j])
                checked += _check_against_oracle(dataclasses.replace(p, Delta0=d, A_l=a), roots)
                three += len(roots) == 3
        assert checked >= 850 and three >= 20

    def test_linalg_error_input_solves(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (state,) = steady_states(SystemParams(**LINALG_ERROR_INPUT))
        assert state.N_o == pytest.approx(8.438185508452407e+167, rel=1e-12)

    def test_bistable_point_has_three_roots(self):
        roots = solve_intracavity_occupancy(BISTABLE)
        assert len(roots) == 3

    def test_underflowing_linear_coefficient_is_root_solve_error(self):
        # kappa^2 and 4 Delta0^2 underflow, so c1 = 0 and 4 A_l^2 / c1 has no value
        p = SystemParams(kappa=1e-170, gamma=0.005, g0=0.0, Delta0=0.0, A_l=1.0)
        with pytest.raises(RootSolveError, match="N = nan"):
            solve_intracavity_occupancy(p)

    @pytest.mark.parametrize("p", FAR_DETUNED)
    def test_far_detuned_roots_pass_backward_error_gate(self, p):
        # |Delta0| / kappa >= 1e10: the Horner residual of an accurate root is
        # about eps 4 Delta0^2 N, far above 1e-8 |c0| but within 1e-8 of the
        # sum of the cubic's absolute terms
        exact = _mpmath_occupancies(p)
        roots = solve_intracavity_occupancy(p)
        assert len(roots) == len(exact) == 3
        for N, reference in zip(roots, exact):
            assert abs(N - reference) <= 1e-15 * reference

    def test_zero_drive_dark_cavity(self):
        p = dataclasses.replace(FIG5, A_l=0.0)
        roots = solve_intracavity_occupancy(p)
        assert roots == (0.0,)

    @given(params=VALID_PARAMS)
    @settings(max_examples=300, deadline=None)
    @example(params=dataclasses.asdict(dataclasses.replace(FIG5, g0=1e77)))
    @example(params=dataclasses.asdict(NEAR_FLOAT_MAX_T[0]))
    @example(params=dataclasses.asdict(TERMS_OVERFLOW))
    @example(params=dataclasses.asdict(dataclasses.replace(FIG5, Delta0=1e155)))
    def test_public_api_is_the_kernel(self, params):
        # the public root solve and the roots of steady_states are the same
        # floats, or the same error; a one-point steady_state_grid raises that
        # error too, or lies within the rounding bounds of steady_states
        p = SystemParams(**params)

        def outcome(call):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    return "value", call()
            except Exception as error:
                return "raised", type(error), str(error)

        roots = outcome(lambda: solve_intracavity_occupancy(p))
        assert roots == outcome(lambda: tuple(s.N_o for s in steady_states(p)))
        grid = outcome(lambda: steady_state_grid(p, p.Delta0, p.A_l))
        if roots[0] == "value":
            assert grid[0] == "value"
            assert_near_per_point(grid[1], [(p.Delta0, p.A_l)], p)
        else:
            assert grid == roots
        discriminant = outcome(lambda: cubic_discriminant(p))
        if discriminant[0] == "raised":
            assert roots == discriminant
        elif roots[0] == "value":
            assert (discriminant[1] > 0.0) == (len(roots[1]) == 3)


class TestSteadyState:
    def test_linear_cavity_on_resonance(self):
        p = dataclasses.replace(FIG5, g0=0.0)
        (s,) = steady_states(p)
        assert s.alpha_s == pytest.approx(66.66666666666667 + 0j, rel=1e-12)
        assert s.beta_s == 0.0
        assert s.Delta_eff == 0.0
        assert s.stable

    def test_occupancy_consistency(self):
        for d in (-1.0, -0.5, 0.0, 0.5):
            (s,) = steady_states(dataclasses.replace(FIG5, Delta0=d))
            assert abs(s.alpha_s) ** 2 == pytest.approx(s.N_o, rel=1e-12)

    def test_detuning_shift_identity(self):
        (s,) = steady_states(dataclasses.replace(FIG5, Delta0=-1.0))
        assert s.Delta_eff == pytest.approx(
            -1.0 + 2 * FIG5.g0 * s.beta_s.real, rel=1e-14
        )
        # positive photon number always pulls the detuning upward
        assert s.Delta_eff > -1.0

    def test_mechanical_amplitude_identity(self):
        (s,) = steady_states(dataclasses.replace(FIG5, Delta0=-1.0))
        expected = 1j * FIG5.g0 * s.N_o / (FIG5.gamma / 2 + 1j * FIG5.omega_m)
        assert s.beta_s == expected

    def test_branch_selection(self):
        roots = solve_intracavity_occupancy(BISTABLE)
        states = steady_states(BISTABLE)
        assert [s.N_o for s in states] == list(roots)
        assert [s.stable for s in states] == [True, False, True]

    @given(Delta0=st.floats(-2, 2), A_l=st.floats(0.01, 20))
    @settings(max_examples=100)
    def test_every_branch_satisfies_fixed_point(self, Delta0, A_l):
        p = dataclasses.replace(FIG5, Delta0=Delta0, A_l=A_l, g0=0.005)
        for s in steady_states(p):
            # alpha_s must solve the field equation at the shifted detuning
            lhs = (p.kappa / 2 - 1j * s.Delta_eff) * s.alpha_s
            assert lhs == pytest.approx(A_l + 0j, rel=1e-7, abs=1e-9)


EPS = np.finfo(float).eps  # 2^-52; the unit roundoff is eps / 2
# the largest absolute error of a product or quotient that underflows, twice over
UNDERFLOW = 2.0 ** -1074


def _root_tolerance(p, Delta0, A_l, N):
    """Bound on |N' - N| between two float solves of p's cubic at (Delta0, A_l), N a root.

    Derivation (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., SIAM 2002, ch. 1-3).  g is the cubic in y = C N of the module
    docstring, with the float C both paths share and exact a = 4 A_l^2,
    c1 = 4 Delta0^2 + kappa^2 and t = a C.  A root y that either path computes
    has |g(y)| <= 7 eps S_y, S_y = 4 y^3 + 8 |Delta0| y^2 + c1 y + t:
      - eps S_y from rounding a, c1 and t (numpy's and Python's powers may
        differ there by an ulp);
      - 3 eps S_y from evaluating y (4 u u + k2) - t in the iteration: six
        roundings of sums of like-signed terms bounded by S_y - t;
      - 3 eps S_y from stopping on a step below one ulp of y or a bracket of
        adjacent floats, since |g'(y)| ulp(y) <= eps y |g'(y)| <= 3 eps S_y.
    g is monotone on a root's bracket, so |g(y)| <= b moves the root by at
    most 2 b / |g'(y)|; the factor 2 covers the curvature up to a double root,
    where g' -> 0 and the bound widens as the root's condition number does.
    The two y thus differ by at most 28 eps S_y / |g'(y)|.  N = y / C adds
    one rounding.  N = a / (c1 + 4 y (y + 2 Delta0)), taken for y <= kappa / 2,
    rounds at most 9 eps N per path (its denominator has condition <= 5) and
    carries a change of y into N at most as strongly as y / C does.  Hence
        |N' - N| <= 28 eps S_y / (C |g'(y)|) + 18 eps N,
    with S_y / C = N (4 y^2 + 8 |Delta0| y + c1) + a, finite at C = 0.  N,
    Delta0 and A_l may be arrays; the bound is inf where g'(y) is 0.
    """
    C = classical._pull_coefficient(p)
    D, N = np.asarray(Delta0, dtype=float), np.asarray(N, dtype=float)
    with np.errstate(all="ignore"):
        a, c1 = 4.0 * np.square(A_l), 4.0 * np.square(D) + p.kappa ** 2
        y = C * N
        terms = N * ((4.0 * y + 8.0 * np.abs(D)) * y + c1) + a  # S_y / C
        slope = np.abs((12.0 * y + 16.0 * D) * y + c1)          # |g'(y)|
        return 28.0 * EPS * terms / slope + 18.0 * EPS * N


def assert_near_per_point(grid, points, p, want=None):
    """The columns of grid against the float path (steady_states), point by point.

    points lists the batch's (Delta0, A_l) pairs in order; p supplies the
    rest.  want, if given, holds the float path's columns for grid's own
    Delta0, A_l and N_o in place of the per-point solves (the fixed points
    at equal N).  Dtypes match, and Delta0, A_l (bit for bit), point,
    branch and counts are equal.  The other columns lie within bounds from
    the operations (eps = 2^-52, u = eps / 2; a value equal to its
    reference, nan included, always passes):
      - N_o within _root_tolerance.  With dN = |N_o - N_ref|, r = dN / N_ref
        (0 at N_ref = 0, where dN must be 0).
      - beta_s = i g0 N / mech, mech = gamma / 2 + i omega_m, is linear in N,
        so the exact values at the two N differ by |beta_ref| r.  The
        numerator's real part is exactly 0, so Smith's quotient rounds each
        part of beta_s at most 7 times in CPython and 8 in numpy (a rounded
        reciprocal), each relative to like-signed terms: <= 8 u = 4 eps of
        the part per path.  An underflowing product or quotient adds up to
        UNDERFLOW / 2 instead, at most 8 of them per path, later divided by
        no less than |mech|.  |d beta_s| <= 4 eps (|beta_s| + |beta_ref|)
        + |beta_ref| r + 8 UNDERFLOW (1 + 1 / |mech|).
      - Delta_eff = Delta0 + (2 g0) Re beta_s rounds twice more per path.
        |d Delta_eff| <= 10 eps (|Delta0| + |2 g0 Re beta_ref|)
        + |2 g0 Re beta_ref| r + 2 g0 (beta_s's underflow term) + UNDERFLOW.
      - alpha_s = A_l / (kappa / 2 - i Delta_eff), whose denominator is exact.
        The exact quotients at the two Delta_eff differ by exactly
        |alpha_ref| |d Delta_eff| / |kappa / 2 - i Delta_eff|; each part
        rounds <= 4 eps per path as for beta_s.  |d alpha_s| <= 4 eps
        (|alpha_s| + |alpha_ref|) + that term + 8 UNDERFLOW (1 + 2 / kappa).
      - stable is equal wherever the Delta_eff bound is at most kappa / 2,
        so that it moves alpha_s by less than its own size.  Past that,
        rounding has not resolved Delta_eff against the linewidth (far-detuned
        roots of a cancelling Delta0 + C N, where an ulp of Delta0 exceeds
        kappa), and the drift matrix and its verdict are set by rounding in
        either path.
    Returns the number of roots whose verdicts were compared.
    """
    columns = ("Delta0", "A_l", "point", "branch", "N_o", "alpha_s", "beta_s", "Delta_eff", "stable")
    if want is None:
        want = {name: [] for name in columns}
        for k, (d, a) in enumerate(points):
            for b, s in enumerate(steady_states(dataclasses.replace(p, Delta0=float(d), A_l=float(a)))):
                values = dict(dataclasses.asdict(s), Delta0=float(d), A_l=float(a), point=k, branch=b)
                for name, column in want.items():
                    column.append(values[name])
        want["counts"] = np.bincount(want["point"], minlength=len(points))
    want = {name: np.asarray(values) for name, values in want.items()}
    got = {name: np.asarray(getattr(grid, name)) for name in want}
    for name, column in want.items():
        assert got[name].dtype == column.dtype, name
        if name in ("Delta0", "A_l"):
            np.testing.assert_array_equal(got[name].view(np.int64), column.view(np.int64), err_msg=name)
        elif column.dtype.kind in "iu":
            np.testing.assert_array_equal(got[name], column, err_msg=name)

    def within(name, tol):
        x, ref = got[name], want[name]
        same = (x == ref) | (np.isnan(x) & np.isnan(ref))
        bad = np.flatnonzero(~same & ~(np.abs(x - ref) <= tol))
        assert not bad.size, (
            f"{name} at {bad[:4]}: {x[bad[:4]]} against {ref[bad[:4]]}, bound {tol[bad[:4]]}"
        )

    kappa, gamma, omega_m, g0 = p.kappa, p.gamma, p.omega_m, p.g0
    N, N_ref = got["N_o"], want["N_o"]
    with np.errstate(all="ignore"):
        within("N_o", _root_tolerance(p, got["Delta0"], got["A_l"], N_ref))
        r = np.where(N_ref > 0.0, np.abs(N - N_ref) / N_ref, 0.0)
        beta, beta_ref = np.abs(got["beta_s"]), np.abs(want["beta_s"])
        beta_tiny = 8.0 * UNDERFLOW * (1.0 + 1.0 / abs(gamma / 2.0 + 1j * omega_m))
        within("beta_s", 4.0 * EPS * (beta + beta_ref) + beta_ref * r + beta_tiny)
        pull = np.abs(2.0 * g0 * want["beta_s"].real)
        dDelta = np.abs(got["Delta_eff"] - want["Delta_eff"])
        Delta_tol = (10.0 * EPS * (np.abs(got["Delta0"]) + pull) + pull * r
                     + 2.0 * g0 * beta_tiny + UNDERFLOW)
        within("Delta_eff", Delta_tol)
        alpha, alpha_ref = np.abs(got["alpha_s"]), np.abs(want["alpha_s"])
        within("alpha_s", 4.0 * EPS * (alpha + alpha_ref)
               + alpha_ref * dDelta / np.abs(kappa / 2.0 - 1j * got["Delta_eff"])
               + 8.0 * UNDERFLOW * (1.0 + 2.0 / kappa))
    resolved = Delta_tol <= kappa / 2.0
    np.testing.assert_array_equal(got["stable"][resolved], want["stable"][resolved], err_msg="stable")
    return int(resolved.sum())


class TestSteadyStateGrid:
    """The batched kernel against the scalar API, point by point, within rounding bounds."""

    @staticmethod
    def check_batch_equals_scalar(p, det, amp):
        """Compare the three sweeps and steady_state_grid with per-point solves.

        Returns the numbers of three-root points and of A_l = 0 points seen.
        """
        points = [(d, a) for d in det for a in amp]
        smap = stability_map(p, det, amp)
        assert_near_per_point(smap, points, p)

        sweep = sweep_bistability(p, det)
        assert_near_per_point(sweep.states, [(d, p.A_l) for d in det], p)
        for trace, reference in zip(hysteresis_traces(p, det), _continuation_reference(p, det)):
            tol = _root_tolerance(p, det, p.A_l, reference)
            assert np.all((trace == reference) | (np.abs(trace - reference) <= tol))

        d, a = det[-1], amp[-1]
        assert_near_per_point(steady_state_grid(p, d, a), [(d, a)], p)
        three = int(np.sum(smap.counts == 3))
        return three, sum(a == 0.0 for a in amp) * len(det)

    @given(
        g0=st.one_of(
            st.floats(0.003, 0.02), st.sampled_from((0.0, 1e-170, 2.5439273303134336e-77))
        ),
        kappa=st.floats(0.05, 1.0),
        d_lo=st.floats(-1.0, 0.2),
        d_span=st.floats(0.01, 1.5),
        n_d=st.integers(2, 6),
        a_top=st.floats(0.5, 20.0),
        n_a=st.integers(1, 5),
    )
    @settings(max_examples=60, deadline=None)
    @example(g0=0.005, kappa=0.15, d_lo=-0.3, d_span=0.25, n_d=6, a_top=5.0, n_a=3)
    @example(g0=2.5439273303134336e-77, kappa=1.0, d_lo=0.0, d_span=1.0, n_d=3, a_top=18.0, n_a=2)
    def test_sweeps_equal_per_point_solves(self, g0, kappa, d_lo, d_span, n_d, a_top, n_a):
        p = SystemParams(kappa=kappa, gamma=0.005, g0=g0, Delta0=0.0, A_l=a_top)
        det = np.linspace(d_lo, d_lo + d_span, n_d)
        amp = np.concatenate([[0.0], np.linspace(a_top / n_a, a_top, n_a)])
        self.check_batch_equals_scalar(p, det, amp)

    def test_grid_covers_window_and_dark_column(self):
        p = dataclasses.replace(FIG5, g0=0.005)
        three, dark = self.check_batch_equals_scalar(
            p, np.linspace(-0.3, -0.05, 6), np.array([0.0, 2.5, 5.0])
        )
        assert three > 0 and dark > 0

    def test_grid_broadcasts_and_flattens(self):
        det, amp = np.linspace(-0.3, 0.1, 4), np.array([1.0, 5.0])
        grid = steady_state_grid(dataclasses.replace(FIG5, g0=0.005), det[:, None], amp)
        assert grid.counts.size == 8 and grid.N_o.size == grid.counts.sum()
        assert tuple(grid.N_o[grid.point == 1 * 2 + 1].tolist()) == tuple(
            s.N_o for s in steady_states(dataclasses.replace(FIG5, g0=0.005, Delta0=det[1], A_l=5.0))
        )

    @given(
        params=VALID_PARAMS,
        detunings=st.lists(or_zero(signed_log_uniform(1e-6, 1e50)), min_size=1, max_size=4),
        amplitudes=st.lists(or_zero(log_uniform(1e-6, 1e60)), min_size=1, max_size=3),
    )
    @settings(max_examples=300, deadline=None)
    @example(
        params={**LINALG_ERROR_INPUT, "m": 1.0, "n_th": 0.0},
        detunings=[LINALG_ERROR_INPUT["Delta0"]], amplitudes=[LINALG_ERROR_INPUT["A_l"]],
    )
    def test_raises_only_simulation_error(self, params, detunings, amplitudes):
        # every valid input gives finite fixed points or a SimulationError,
        # without a warning
        p = SystemParams(**params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                grid = steady_state_grid(p, np.array(detunings)[:, None], amplitudes)
            except SimulationError:
                return
        assert grid.counts.size == len(detunings) * len(amplitudes)
        assert set(grid.counts.tolist()) <= {1, 3} and grid.N_o.size == grid.counts.sum()
        assert all(math.isfinite(N) and N >= 0 for N in grid.N_o.tolist())

    def test_empty_batch_validates_params(self):
        bad = dataclasses.replace(FIG5, kappa=-1.0)
        with pytest.raises(ValueError, match="kappa"):
            steady_state_grid(bad, [], [])
        with pytest.raises(ValueError, match="kappa"):
            stability_map(bad, np.array([]), np.array([]))

    def test_grid_validates_points(self):
        with pytest.raises(ValueError, match="A_l"):
            steady_state_grid(FIG5, [0.0, 0.1], [1.0, -1.0])
        with pytest.raises(ValueError, match="Delta0"):
            steady_state_grid(FIG5, [0.0, np.nan], 1.0)

    @pytest.mark.parametrize(
        "g0, Delta0, A_l",
        [(1e-80, 1e100, 1e100), (0.003, 1e10, 1e10), (0.003, 1e50, 1e50)],
    )
    def test_extreme_detuning_verdict_matches_eigenvalues(self, g0, Delta0, A_l):
        # power-sum traces overflow (1e100) or cancel to noise (1e10, 1e50)
        # here; sums of minors of the scaled matrix keep the sign exact
        p = SystemParams(kappa=0.15, gamma=0.005, g0=g0, Delta0=Delta0, A_l=A_l)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states = steady_states(p)
        for state in states:
            max_re = np.linalg.eigvals(drift_matrix(p, state)).real.max()
            assert state.stable == bool(max_re < 0)

    def test_underflowing_hurwitz_quantity_verdict_matches_mpmath(self):
        # branch 2's scaled Hurwitz determinant underflows to exactly 0.0;
        # every eigenvalue of its drift matrix has a negative real part
        import mpmath

        p = SystemParams(
            kappa=6.948097199436363e-06, gamma=0.00026669235609271506,
            g0=3.738254316342682e-08, Delta0=-3.6989544610054197e+46,
            A_l=1.304512129513338e+58, omega_m=3.936375764811766e-06,
        )
        states = steady_states(p)
        assert [s.stable for s in states] == [True, False, True]
        for state in states:
            with mpmath.workdps(120):
                A = mpmath.matrix(drift_matrix(p, state).tolist())
                max_re = max(mpmath.re(z) for z in mpmath.eig(A, left=False, right=False))
            assert state.stable == bool(max_re < 0)


class TestMeanOutputField:
    def test_oracle(self):
        (s,) = steady_states(dataclasses.replace(FIG5, g0=0.0))
        out = mean_output_field(s.alpha_s, FIG5.kappa)
        assert out == pytest.approx(-25.819888974716115 + 0j, rel=1e-12)

    def test_output_photon_flux(self):
        (s,) = steady_states(dataclasses.replace(FIG5, Delta0=-0.5))
        out = mean_output_field(s.alpha_s, FIG5.kappa)
        assert abs(out) ** 2 == pytest.approx(FIG5.kappa * s.N_o, rel=1e-12)

    def test_invalid_kappa(self):
        with pytest.raises(ValueError):
            mean_output_field(1.0 + 0j, 0.0)


# parameter sets of the lockstep property: a bistable window inside the drawn
# span, a linear cavity, c3 = 4 C^2 overflowing (the form in y solves), terms
# of g / 4 overflowing at A_l = 1, and the far-detuned draws
LOCKSTEP_CASES = (
    dataclasses.replace(FIG5, g0=0.005),
    dataclasses.replace(FIG5, g0=0.01),
    dataclasses.replace(FIG5, g0=0.0),
    dataclasses.replace(FIG5, g0=1e77),
    TERMS_OVERFLOW,
    *FAR_DETUNED,
)
# the (Delta0, A_l) inputs of test_coefficient_overflow_is_simulation_error
OVERFLOW_INPUTS = (("Delta0", 1e155), ("Delta0", 1e154), ("A_l", 1e160), ("A_l", 1e154))


@functools.cache
def _window_edges_around(p):
    """Window edges of p's A_l over the span the lockstep property draws Delta0 from."""
    scale = max(1.0, abs(p.Delta0))
    try:
        return sweep_bistability(p, np.linspace(-scale, 0.2 * scale, 201)).window_edges
    except SimulationError:
        return ()


@st.composite
def lockstep_batches(draw):
    """(params, points) with 1 to 256 points of mixed kinds.

    A point lies in a span around p.Delta0 (one or three roots), within
    relative 1e-12..1e-6 of a window edge (in the span if p has none), in
    the dark (A_l = 0) or at p's own (Delta0, A_l).  One batch in four gets
    a point of OVERFLOW_INPUTS.
    """
    p = draw(st.sampled_from(LOCKSTEP_CASES))
    size = draw(st.integers(1, 256))
    scale, edges = max(1.0, abs(p.Delta0)), _window_edges_around(p)
    points = []
    for kind, u, w in draw(st.lists(
        st.tuples(st.sampled_from(("span", "edge", "dark", "own")), st.floats(0, 1), st.floats(-1, 1)),
        min_size=size, max_size=size,
    )):
        if kind == "own":
            points.append((p.Delta0, p.A_l))
        elif kind == "edge" and edges:
            edge = edges[int(u * len(edges)) % len(edges)]
            points.append((edge * (1.0 + math.copysign(10.0 ** (-12.0 + 6.0 * abs(w)), w)), p.A_l))
        else:
            points.append((scale * (-1.0 + 1.2 * u), 0.0 if kind == "dark" else p.A_l * 2.0 * abs(w)))
    if draw(st.integers(0, 3)) == 0:
        field, value = draw(st.sampled_from(OVERFLOW_INPUTS))
        at = draw(st.integers(0, len(points)))
        points.insert(at, (value, p.A_l) if field == "Delta0" else (p.Delta0, value))
    return p, points


class TestLockstepRoots:
    """_roots_in_lockstep against one _occupancy_roots call per point.

    Errors and counts are equal; the roots, which are the grid's N_o, lie
    within _root_tolerance of the per-point ones (assert_near_per_point).
    """

    @given(batch=lockstep_batches())
    @settings(max_examples=80, deadline=None)
    @example(batch=(FAR_DETUNED[0], [(FAR_DETUNED[0].Delta0, FAR_DETUNED[0].A_l)]))
    @example(batch=(FAR_DETUNED[1], [(FAR_DETUNED[1].Delta0, FAR_DETUNED[1].A_l)] * 2))
    @example(batch=(FAR_DETUNED[2], [(-1.0, 0.0), (FAR_DETUNED[2].Delta0, FAR_DETUNED[2].A_l)]))
    @example(batch=(dataclasses.replace(FIG5, g0=1e77), [(0.0, 5.0)]))
    @example(batch=(TERMS_OVERFLOW, [(-3e102, 0.5), (-3e102, 1.0)]))
    @example(batch=(FIG5, [(-0.2, 5.0), (1e155, 5.0)]))
    @example(batch=(FIG5, [(0.0, 1e160), (-0.2, 5.0)]))
    @example(batch=(SystemParams(kappa=1e-170, gamma=0.005, g0=0.0, Delta0=0.0, A_l=1.0), [(0.0, 1.0)]))
    def test_equals_per_point_roots_and_errors(self, batch):
        p, points = batch
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                expected = [_occupancy_roots(*_y_inputs(p, d, a), d, p.kappa) for d, a in points]
            except SimulationError as error:
                with pytest.raises(SimulationError) as info:
                    _roots_in_lockstep(p, points)
                assert type(info.value) is type(error) and str(info.value) == str(error)
                return
            # a batch that raises nowhere is solved without the per-point path
            with mock.patch.object(
                classical, "_roots_pointwise", side_effect=AssertionError("solved per point")
            ):
                _, counts = _roots_in_lockstep(p, points)
            assert counts.tolist() == [len(roots) for roots in expected]
            # the grid's columns, from the lockstep roots, are near the per-point states
            D, A = np.array(points).T
            assert_near_per_point(steady_state_grid(p, D, A), points, p)

    @pytest.mark.parametrize("size", [1, 2, 8, 127])
    def test_every_batch_size_stays_on_arrays(self, size):
        # a batch of any size has every bracket iterated in lockstep and its
        # verdicts taken on arrays, within the per-point states' bounds
        p = dataclasses.replace(FIG5, g0=0.005)
        det = np.linspace(-0.35, -0.05, size)
        with mock.patch.object(
            classical, "_roots_pointwise", side_effect=AssertionError("solved per point")
        ), mock.patch.object(
            classical, "_y_root", side_effect=AssertionError("bracket iterated on floats")
        ), mock.patch.object(
            classical, "_hurwitz_verdicts", side_effect=AssertionError("verdicts on floats")
        ):
            grid = steady_state_grid(p, det, p.A_l)
        assert grid.counts.size == size
        assert set(grid.counts.tolist()) == ({1} if size < 8 else {1, 3})
        assert_near_per_point(grid, [(d, p.A_l) for d in det], p)

    @pytest.mark.parametrize("p", ZERO_T)
    def test_zero_t_gives_the_linear_cavity_root(self, p):
        N_o = 4.0 * p.A_l ** 2 / (4.0 * p.Delta0 ** 2 + p.kappa ** 2)
        assert [s.N_o for s in steady_states(p)] == [N_o]
        with mock.patch.object(
            classical, "_roots_pointwise", side_effect=AssertionError("solved per point")
        ):
            grid = steady_state_grid(p, [p.Delta0] * 128, p.A_l)
        assert grid.counts.tolist() == [1] * 128
        assert set(grid.N_o.tolist()) == {N_o}


    def test_seeded_draws_within_bounds(self):
        # 400 seeded systems, g0 from 1e-160 to 1e150 and the rates from 1e-3
        # to 1e3, each one batch of 12 points placed in the dimensionless plane
        # delta = 2 Delta0 / kappa, tau = 2 t / kappa^3 (g = kappa^3 / 2 (Y ((Y +
        # delta)^2 + 1) - tau) in y = kappa Y / 2): six anywhere, six within
        # relative 1e-15..1e-6 in Delta0 of the fold where two roots merge, at
        # the double root Y of h'(Y) = 3 Y^2 + 4 delta Y + delta^2 + 1 = 0
        rng = np.random.default_rng(20261020)
        roots = three = 0
        for _ in range(400):
            kappa, gamma, omega_m = (10.0 ** rng.uniform(-3.0, 3.0, 3)).tolist()
            p = SystemParams(
                kappa=kappa, gamma=gamma, g0=10.0 ** rng.uniform(-160.0, 150.0),
                Delta0=0.0, A_l=1.0, omega_m=omega_m,
            )
            delta = np.concatenate([rng.uniform(-20.0, 5.0, 6), rng.uniform(-20.0, -1.75, 6)])
            tau = 10.0 ** rng.uniform(-3.0, 4.0, 12)
            fold = delta[6:]
            Y = (-2.0 * fold + rng.choice([-1.0, 1.0], 6) * np.sqrt(fold ** 2 - 3.0)) / 3.0
            tau[6:] = Y * ((Y + fold) ** 2 + 1.0)
            delta[6:] *= 1.0 + rng.choice([-1.0, 1.0], 6) * 10.0 ** rng.uniform(-15.0, -6.0, 6)
            with np.errstate(divide="ignore", over="ignore"):  # C is subnormal or 0 for weak g0
                A_l = np.minimum(np.sqrt(tau * kappa ** 3 / (8.0 * classical._pull_coefficient(p))), 1e150)
            points = list(zip((0.5 * kappa * delta).tolist(), A_l.tolist()))
            grid = steady_state_grid(p, *np.array(points).T)
            assert assert_near_per_point(grid, points, p) == grid.N_o.size
            roots += grid.N_o.size
            three += int(np.sum(grid.counts == 3))
        assert roots > 5000 and three > 400


class TestArrayFixedPoints:
    """_fixed_points on arrays against its per-root float calls, within rounding bounds."""

    @pytest.mark.parametrize("g0", [0.0, 0.005, 1e150, 5e-324])
    @pytest.mark.parametrize("omega_m", [1.0, 1e-3])  # |Re mech| below and above |Im mech|
    def test_columns_equal_python_loop(self, g0, omega_m):
        # crafted (Delta0, A_l, N) triples, roots or not: Delta0 = +-0.0, A_l = 0, subnormals
        p = dataclasses.replace(FIG5, g0=g0, omega_m=omega_m)
        values = itertools.product(
            (0.0, -0.0, -0.3, 5e-324, -1e-310, 2.5),
            (0.0, 5.0, 5e-324, 1e-300),
            (0.0, 1.0, 5e-324, 1e-300, 123.4),
        )
        D, A, N = (np.array(column) for column in zip(*values))
        # steady_states' form: one float call per root, one verdict call
        roots = zip(D.tolist(), A.tolist(), N.tolist())
        *columns, drift = zip(*(_fixed_points(p, d, a, n) for d, a, n in roots))
        stable = _hurwitz_verdicts([x for entries in drift for x in entries])
        fields = ("alpha_s", "beta_s", "Delta_eff", "stable")
        want = dict(zip(fields, (*columns, stable)), Delta0=D, A_l=A, N_o=N)
        # steady_state_grid's form: one array call, one stacked verdict
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"):
                *got, entries = _fixed_points(p, D, A, N)
            stack = np.stack(np.broadcast_arrays(*entries), -1).reshape(-1, 4, 4)
            got.append(routh_hurwitz_stable(stack))
        grid = dict(zip(fields, got), Delta0=D, A_l=A, N_o=N)
        assert_near_per_point(types.SimpleNamespace(**grid), None, p, want=want)

    def test_large_map_stays_on_arrays(self):
        # a map takes the array path whole:
        # no per-point roots, no verdicts on floats, one stacked verdict
        p = dataclasses.replace(FIG5, g0=0.005)
        det, amp = np.linspace(-0.35, -0.05, 16), np.linspace(1.0, 8.0, 8)
        verdicts = mock.Mock(wraps=classical.routh_hurwitz_stable)
        with mock.patch.object(
            classical, "_roots_pointwise", side_effect=AssertionError("solved per point")
        ), mock.patch.object(
            classical, "_hurwitz_verdicts", side_effect=AssertionError("verdicts on floats")
        ), mock.patch.object(classical, "routh_hurwitz_stable", verdicts):
            grid = stability_map(p, det, amp)
        assert verdicts.call_count == 1
        assert grid.counts.size == 128 and set(grid.counts.tolist()) == {1, 3}
        assert_near_per_point(grid, [(d, a) for d in det for a in amp], p)

    @pytest.mark.parametrize("p, roots", [(FIG5, 1), (BISTABLE, 3)], ids=["one-root", "three-roots"])
    def test_one_point_stays_on_floats(self, p, roots):
        # steady_states (a cooling scan calls it once per point) takes no
        # array path: no lockstep roots, no array iteration, no stacked verdict
        with mock.patch.object(
            classical, "_roots_in_lockstep", side_effect=AssertionError("roots in lockstep")
        ), mock.patch.object(
            classical, "_y_roots", side_effect=AssertionError("brackets iterated on arrays")
        ), mock.patch.object(
            classical, "routh_hurwitz_stable", side_effect=AssertionError("verdicts on arrays")
        ):
            states = steady_states(p)
        assert len(states) == roots
        for s in states:
            assert (type(s.alpha_s), type(s.beta_s), type(s.Delta_eff)) == (complex, complex, float)
            assert type(s.stable) is bool


# ---------------------------------------------------------------------------
# sweeps


class TestBistabilitySweep:
    GRID = np.linspace(-0.35, -0.05, 301)

    def test_window_structure(self):
        sweep = sweep_bistability(dataclasses.replace(FIG5, g0=0.005), self.GRID)
        counts = sweep.states.counts
        assert set(counts) == {1, 3}
        assert len(sweep.window_edges) == 2
        lo, hi = sweep.window_edges
        inside = (self.GRID > lo) & (self.GRID < hi)
        np.testing.assert_array_equal(counts == 3, inside)

    def test_middle_branch_unstable_outer_stable(self):
        states = sweep_bistability(dataclasses.replace(FIG5, g0=0.005), self.GRID).states
        for k in np.flatnonzero(states.counts == 3):
            stable = states.stable[states.point == k].tolist()
            assert stable[1] is False
            assert stable[0] is True and stable[2] is True

    def test_weak_coupling_has_no_window(self):
        sweep = sweep_bistability(dataclasses.replace(FIG5, g0=0.001), self.GRID)
        assert sweep.window_edges == ()
        assert np.all(sweep.states.counts == 1)

    def test_edges_are_discriminant_zeros(self):
        p = dataclasses.replace(FIG5, g0=0.005)
        sweep = sweep_bistability(p, self.GRID)
        for edge in sweep.window_edges:
            d_lo = cubic_discriminant(dataclasses.replace(p, Delta0=edge - 1e-6))
            d_hi = cubic_discriminant(dataclasses.replace(p, Delta0=edge + 1e-6))
            assert d_lo * d_hi < 0  # sign change within 1e-6 of the edge

    def test_edges_bisected_one_bracket_at_a_time(self):
        # the zigzag grid crosses the window 15 times: _window_edges bisects
        # each edge on its own with the float loop, never with the lockstep one
        p = dataclasses.replace(FIG5, g0=0.005)
        zigzag = np.tile([-0.3, -0.2, -0.1, -0.2], 4)
        lockstep = mock.patch.object(classical, "_bisect", side_effect=AssertionError("lockstep"))
        for detunings in (self.GRID, self.GRID[::-1], zigzag):
            with lockstep:
                sweep = sweep_bistability(p, detunings)
            counts = sweep.states.counts
            expected = sorted(
                _refine_edge_reference(p, *sorted(detunings[i:i + 2].tolist()))
                for i in range(detunings.size - 1)
                if counts[i] != counts[i + 1]
            )
            assert sweep.window_edges == tuple(expected)
        assert len(expected) == 15

    def test_grid_validated(self):
        for grid in (np.array([-0.2]), self.GRID.reshape(7, 43)):
            with pytest.raises(ValueError, match="1-D grid with at least 2 points"):
                sweep_bistability(FIG5, grid)


def _bisect_scalar(f, lo, hi, f_lo, width):
    """The one-bracket bisection loop as it was before brackets ran in lockstep."""
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


def _refine_edge_reference(params, lo, hi):
    """One window edge as it was bisected one bracket at a time."""
    def disc(d):
        return cubic_discriminant(dataclasses.replace(params, Delta0=float(d)))

    f_lo, f_hi = disc(lo), disc(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    return _bisect_scalar(disc, lo, hi, f_lo, 1e-10 * max(1.0, abs(lo), abs(hi)))


def _bisect_with_calls(roots, lo, hi, width, sign=None):
    """_bisect on f(mid, k) = sign (mid - root), checked against _bisect_scalar per bracket.

    Also checks the lockstep pattern: every call gets arrays, the first round
    holds every open bracket and each later round a subset of the round before.
    Returns the results and the brackets k of each call, in order.
    """
    roots, lo, hi = (np.asarray(v, dtype=float) for v in (roots, lo, hi))
    width = np.broadcast_to(np.asarray(width, dtype=float), roots.shape)
    sign = np.ones_like(roots) if sign is None else np.asarray(sign, dtype=float)
    calls = []

    def f(mid, k):
        assert isinstance(mid, np.ndarray) and isinstance(k, np.ndarray)
        calls.append(k.tolist())
        return sign[k] * (mid - roots[k])

    out = _bisect(f, lo, hi, sign * (lo - roots), width)
    for i in range(roots.size):
        expected = _bisect_scalar(
            lambda m: sign[i] * (m - roots[i]), lo[i], hi[i], sign[i] * (lo[i] - roots[i]), width[i]
        )
        assert out[i] == expected, i
    open_brackets = np.flatnonzero(hi - lo > width).tolist()
    assert calls[:1] == ([open_brackets] if open_brackets else [])
    assert all(set(b) <= set(a) for a, b in zip(calls, calls[1:]))
    return out, calls


class TestBisect:
    # brackets of different widths, one whose first midpoint is an exact zero
    ROOTS = [0.5, 0.3, 2.7, -1.0 / 3.0]
    LO, HI = [0.0, 0.0, 2.0, -1.0], [1.0, 1.0, 3.0, 0.0]
    WIDTH = [1e-3, 1e-12, 1e-6, 1e-15]

    def test_equals_scalar_loop_per_bracket(self):
        # the four brackets, then three shifted copies of them: every bracket
        # in lockstep rounds on arrays, however many there are
        for copies in (1, 3):
            shift = np.repeat(np.arange(copies, dtype=float), 4)
            out, calls = _bisect_with_calls(
                np.tile(self.ROOTS, copies) + shift, np.tile(self.LO, copies) + shift,
                np.tile(self.HI, copies) + shift, np.tile(self.WIDTH, copies),
            )
            assert out[0::4].tolist() == [0.5 + c for c in range(copies)]
            assert calls[0] == list(range(4 * copies))
            # the exact zeros end their brackets after round 1; each other
            # bracket stops at its own width
            zeros = set(range(0, 4 * copies, 4))
            assert all(not zeros & set(k) for k in calls[1:])
            rounds = [sum(i in k for k in calls) for i in range(4)]
            assert rounds[0] == 1 and rounds[2] < rounds[1] < rounds[3]

    @pytest.mark.parametrize("n", range(1, 17))
    def test_equals_scalar_loop_for_any_batch_size(self, n):
        rng = np.random.default_rng(n)
        lo = rng.uniform(-2.0, 2.0, n)
        hi = lo + rng.uniform(1e-3, 2.0, n)
        roots = rng.uniform(lo, hi)
        width = 10.0 ** rng.uniform(-15.0, -2.0, n)
        sign = rng.choice([-1.0, 1.0], n)
        roots[0] = 0.5 * (lo[0] + hi[0])  # an exact zero at the first midpoint
        width[-1] = hi[-1] - lo[-1]       # a bracket already within its width
        out, calls = _bisect_with_calls(roots, lo, hi, width, sign)
        assert out[0] == roots[0]
        assert n == 1 or out[-1] == 0.5 * (lo[-1] + hi[-1])
        assert all(n - 1 not in k for k in calls)
        assert all(0 not in k for k in calls[1:])
        assert n == 1 or calls[0][0] == 0

    def test_one_bracket_loop_equals_scalar_loop(self):
        for root, lo, hi, width in zip(self.ROOTS, self.LO, self.HI, self.WIDTH):
            for sign in (1.0, -1.0):
                def f(mid):
                    assert type(mid) is float
                    return sign * (mid - root)

                f_lo = f(lo)
                assert _bisect_one(f, lo, hi, f_lo, width) == _bisect_scalar(f, lo, hi, f_lo, width)

    def test_bracket_within_width_makes_no_call(self):
        def f(mid, k):
            raise AssertionError("evaluated a finished bracket")

        out = _bisect(f, [0.0, 1.0], [1e-12, 1.5], [-1.0, 1.0], [1e-11, 1.0])
        assert out.tolist() == [0.5 * (0.0 + 1e-12), 0.5 * (1.0 + 1.5)]
        assert _bisect(f, [], [], [], 1e-3).shape == (0,)


class TestWindowEdges:
    def test_equal_one_bracket_at_a_time(self):
        # the second regime puts the edges beyond |Delta0| = 1, where the
        # bisection width scales with the bracket
        rng = np.random.default_rng(20261018)
        edges_seen = 0
        for g0, A_l, kappa, lowest in [((0.003, 0.008), (3.0, 8.0), (0.1, 0.2), -0.6)] * 25 + [
            ((0.01, 0.05), (20.0, 80.0), (1.0, 2.0), -8.0)
        ] * 25:
            p = dataclasses.replace(
                FIG5,
                g0=float(rng.uniform(*g0)),
                A_l=float(rng.uniform(*A_l)),
                kappa=float(rng.uniform(*kappa)),
            )
            grid = np.linspace(lowest, float(rng.uniform(-0.1, 0.1)), int(rng.integers(11, 202)))
            for detunings in (grid, grid[::-1]):
                sweep = sweep_bistability(p, detunings)
                counts = sweep.states.counts
                expected = sorted(
                    _refine_edge_reference(p, *sorted(detunings[i:i + 2].tolist()))
                    for i in range(detunings.size - 1)
                    if counts[i] != counts[i + 1]
                )
                assert sweep.window_edges == tuple(expected)
                edges_seen += len(expected)
        assert edges_seen >= 80


    def test_grid_point_on_an_exact_zero_is_the_edge(self):
        # dyadic inputs make the discriminant exactly 0.0 at Delta0 = -0.25, a
        # grid point, which is that bracket's edge without a bisection
        p = SystemParams(kappa=0.25, gamma=2.0, g0=0.5, Delta0=-0.25, A_l=0.125, omega_m=1.0)
        assert cubic_discriminant(p) == 0.0
        bisect = mock.Mock(wraps=classical._bisect_one)
        with mock.patch.object(classical, "_bisect_one", bisect):
            sweep = sweep_bistability(p, np.linspace(-0.28125, -0.25, 3))
        assert sweep.states.counts.tolist() == [1, 3, 1]
        assert sweep.window_edges[1] == -0.25 and bisect.call_count == 1


class TestContinueFrom:
    def test_equals_min_per_step(self):
        # roots on a coarse lattice, so that two roots are often equally near
        rng = np.random.default_rng(26)
        ties = 0
        for _ in range(200):
            roots = [
                sorted((0.25 * rng.integers(0, 12, rng.integers(1, 4))).tolist())
                for _ in range(rng.integers(0, 30))
            ]
            start = 0.25 * float(rng.integers(0, 12))
            expected = [start]
            for point_roots in roots:
                prev = expected[-1]
                nearest = min(abs(r - prev) for r in point_roots)
                ties += sum(abs(r - prev) == nearest for r in set(point_roots)) > 1
                expected.append(min(point_roots, key=lambda r: abs(r - prev)))
            assert _continue_from(start, roots) == expected
        assert ties >= 50


class TestHysteresis:
    GRID = np.linspace(-0.35, -0.05, 301)

    def test_traces_differ_exactly_inside_window(self):
        p = dataclasses.replace(FIG5, g0=0.005)
        sweep = sweep_bistability(p, self.GRID)
        up, down = hysteresis_traces(p, self.GRID)
        inside = sweep.states.counts == 3
        np.testing.assert_array_equal(up != down, inside)
        assert np.all(up[inside] < down[inside])  # lower branch vs upper branch

    def test_monostable_traces_coincide(self):
        p = dataclasses.replace(FIG5, g0=0.001)
        up, down = hysteresis_traces(p, self.GRID)
        np.testing.assert_array_equal(up, down)

    def test_jump_at_window_edges(self):
        p = dataclasses.replace(FIG5, g0=0.005)
        up, _ = hysteresis_traces(p, self.GRID)
        jumps = np.abs(np.diff(up))
        # one discontinuous jump (upward, at the upper edge)
        assert np.max(jumps) > 10 * np.median(jumps[jumps > 0])

    def test_traces_equal_both_sweeps(self):
        # every grid, of 301 points or of 1 or 2, is solved in lockstep
        p = dataclasses.replace(FIG5, g0=0.005)
        for grid in (self.GRID, self.GRID[::-1], self.GRID[:1], self.GRID[:2]):
            with mock.patch.object(
                classical, "_roots_pointwise", side_effect=AssertionError("solved per point")
            ):
                up, down = hysteresis_traces(p, grid)
            for trace, reference in zip((up, down), _continuation_reference(p, grid)):
                tol = _root_tolerance(p, grid, p.A_l, reference)
                assert np.all((trace == reference) | (np.abs(trace - reference) <= tol))
            assert up.shape == down.shape == grid.shape

    def test_traces_grid_validated(self):
        with pytest.raises(ValueError, match="non-empty"):
            hysteresis_traces(FIG5, np.array([]))


class TestStabilityMap:
    def test_shapes_and_content(self):
        p = dataclasses.replace(FIG5, g0=0.005)
        det = np.linspace(-0.3, 0.3, 7)
        amp = np.linspace(0.5, 8.0, 5)
        m = stability_map(p, det, amp)
        assert m.counts.size == det.size * amp.size
        np.testing.assert_array_equal(m.Delta0, det[m.point // amp.size])
        np.testing.assert_array_equal(m.A_l, amp[m.point % amp.size])
        flags = m.stable.tolist()
        assert any(flags) and not all(flags)

    def test_verdicts_match_branchwise_steady_states(self):
        p = dataclasses.replace(FIG5, g0=0.005)
        det = np.linspace(-0.3, 0.1, 5)
        amp = np.linspace(1.0, 6.0, 3)
        m = stability_map(p, det, amp)
        for k, (d, a) in enumerate((d, a) for d in det.tolist() for a in amp.tolist()):
            pp = dataclasses.replace(p, Delta0=d, A_l=a)
            assert [s.stable for s in steady_states(pp)] == m.stable[m.point == k].tolist()

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError, match="A_l"):
            stability_map(FIG5, np.array([0.0, 1.0]), np.array([-1.0, 1.0]))

    def test_grids_validated(self):
        det, amp = np.linspace(-0.3, 0.3, 6), np.linspace(0.5, 8.0, 4)
        for grids in ((det.reshape(2, 3), amp), (det, amp.reshape(2, 2))):
            with pytest.raises(ValueError, match="must be 1-D grids"):
                stability_map(FIG5, *grids)


# ---------------------------------------------------------------------------
# linear response


class TestSusceptibilities:
    def test_optical_oracle(self):
        chi = optical_susceptibility(1.0, -1.0, 0.15)
        assert chi == pytest.approx(13.333333333333334 + 0j, rel=1e-12)

    def test_optical_peak_height(self):
        # on resonance (omega = -Delta) the response is 2/kappa exactly
        assert optical_susceptibility(1.0, -1.0, 0.15) == 2 / 0.15
        assert abs(optical_susceptibility(0.7, -0.7, 0.4)) == 2 / 0.4

    def test_mechanical_oracle(self):
        chi = mechanical_susceptibility(0.5, 1.0, 1.0, 0.005)
        assert chi == pytest.approx(
            1.3333185186831256 + 0.004444395062277086j, rel=1e-12
        )

    def test_mechanical_dc_and_resonance(self):
        assert mechanical_susceptibility(0.0, 2.0, 3.0, 0.005) == 1 / (2.0 * 9.0)
        chi_res = mechanical_susceptibility(1.0, 1.0, 1.0, 0.005)
        assert chi_res == pytest.approx(1j / 0.005, rel=1e-12)

    def test_vectorized_over_frequency(self):
        omega = np.linspace(-2, 2, 11)
        chi = optical_susceptibility(omega, -1.0, 0.15)
        assert chi.shape == omega.shape
        assert chi[5] == optical_susceptibility(0.0, -1.0, 0.15)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            optical_susceptibility(1.0, -1.0, 0.0)
        with pytest.raises(ValueError):
            mechanical_susceptibility(1.0, 1.0, 1.0, 0.0)


class TestSelfEnergy:
    def test_damping_rate_identity(self):
        # Im Sigma(omega_m) / (m omega_m) is exactly the damping closed form
        for Delta in (-1.5, -1.0, -0.3, 0.4, 1.0):
            sigma = self_energy(1.0, 0.05, Delta, 0.15, 1.0, 1.0)
            gamma_om = optomechanical_damping(0.05, Delta, 0.15, 1.0)
            assert sigma.imag / 1.0 == pytest.approx(gamma_om, rel=1e-12, abs=1e-18)

    def test_spring_shift_magnitude_identity(self):
        for Delta in (-1.5, -1.0, -0.3, 0.4, 1.0):
            sigma = self_energy(1.0, 0.05, Delta, 0.15, 1.0, 1.0)
            shift = optical_spring_shift(0.05, Delta, 0.15, 1.0)
            assert abs(sigma.real / 2.0) == pytest.approx(abs(shift), rel=1e-12, abs=1e-18)

    def test_spring_shift_sign_convention(self):
        # Re Sigma(omega_m)/(2 m omega_m) is anti-correlated with the shift
        for Delta in (-1.5, -1.0, -0.3, 0.4, 1.0):
            sigma = self_energy(1.0, 0.05, Delta, 0.15, 1.0, 1.0)
            shift = optical_spring_shift(0.05, Delta, 0.15, 1.0)
            assert sigma.real / 2.0 == pytest.approx(-shift, rel=1e-12, abs=1e-18)

    def test_scales_with_coupling_squared(self):
        s1 = self_energy(0.8, 0.05, -1.0, 0.15, 1.0, 1.0)
        s2 = self_energy(0.8, 0.10, -1.0, 0.15, 1.0, 1.0)
        assert s2 == pytest.approx(4 * s1, rel=1e-12)

    def test_vanishes_at_zero_coupling(self):
        assert self_energy(0.8, 0.0, -1.0, 0.15, 1.0, 1.0) == 0.0


class TestEffectiveSusceptibility:
    def test_uncoupled_limit_exact(self):
        omega = np.linspace(0.1, 2.0, 7)
        chi = effective_susceptibility(omega, 0.0, -1.0, 0.15, 1.0, 1.0, 0.005)
        chi_m = mechanical_susceptibility(omega, 1.0, 1.0, 0.005)
        np.testing.assert_array_equal(chi, chi_m)

    def test_inverse_relation(self):
        omega = 0.9
        chi = effective_susceptibility(omega, 0.05, -1.0, 0.15, 1.0, 1.0, 0.005)
        chi_m = mechanical_susceptibility(omega, 1.0, 1.0, 0.005)
        sigma = self_energy(omega, 0.05, -1.0, 0.15, 1.0, 1.0)
        assert 1 / chi == pytest.approx(1 / chi_m - sigma, rel=1e-12)

    def test_resonant_magnitude_closed_form(self):
        # |chi(omega_m)| = 1/(m omega_m hypot(gamma + gamma_om, 2 delta_omega_m))
        g_s, Delta, kappa, m, omega_m, gamma = 0.05, -1.0, 0.15, 1.0, 1.0, 0.005
        chi = effective_susceptibility(omega_m, g_s, Delta, kappa, m, omega_m, gamma)
        gamma_om = optomechanical_damping(g_s, Delta, kappa, omega_m)
        shift = optical_spring_shift(g_s, Delta, kappa, omega_m)
        expected = 1.0 / (m * omega_m * math.hypot(gamma + gamma_om, 2 * shift))
        assert abs(chi) == pytest.approx(expected, rel=1e-12)

    def test_cooling_suppresses_resonant_response(self):
        chi_bare = abs(mechanical_susceptibility(1.0, 1.0, 1.0, 0.005))
        chi_red = abs(effective_susceptibility(1.0, 0.05, -1.0, 0.15, 1.0, 1.0, 0.005))
        assert chi_red < chi_bare / 10

    def test_pole_guard(self):
        # vanishing bare linewidth with a barely-detuned drive puts the
        # dressed pole on the real axis within the guard band
        with pytest.raises(PoleError):
            effective_susceptibility(1.0, 0.1, 1e-13, 0.15, 1.0, 1.0, 1e-30)

    @pytest.mark.parametrize("m", [2.0 ** -66, 2.0 ** 66])
    def test_pole_guard_is_independent_of_mass_unit(self, m):
        # chi_eff scales as 1/m exactly for a power-of-two m, and so must the guard
        chi = effective_susceptibility(0.3, 0.01, -1.0, 0.15, m, 1.0, 0.005)
        assert chi == effective_susceptibility(0.3, 0.01, -1.0, 0.15, 1.0, 1.0, 0.005) / m


class TestDampingAndSpring:
    def test_damping_oracle(self):
        val = optomechanical_damping(0.05, -1.0, 0.15, 1.0)
        assert val == pytest.approx(0.06657304831747024, rel=1e-12)
        assert val == pytest.approx(6.66e-2, rel=1e-3)

    def test_spring_oracle(self):
        val = optical_spring_shift(0.05, -1.0, 0.15, 1.0)
        assert val == pytest.approx(-0.0012482446559525669, rel=1e-12)
        assert val == pytest.approx(-1.25e-3, rel=2e-3)

    def test_zero_detuning_exactly_zero(self):
        assert optomechanical_damping(0.05, 0.0, 0.15, 1.0) == 0.0
        assert optical_spring_shift(0.05, 0.0, 0.15, 1.0) == 0.0

    @given(Delta=st.floats(-3, 3), g_s=st.floats(1e-6, 0.5), kappa=st.floats(0.01, 2))
    @settings(max_examples=200)
    def test_damping_is_odd_and_cooling_sign(self, Delta, g_s, kappa):
        plus = optomechanical_damping(g_s, Delta, kappa, 1.0)
        minus = optomechanical_damping(g_s, -Delta, kappa, 1.0)
        assert plus == pytest.approx(-minus, rel=1e-12, abs=1e-300)
        if abs(Delta) > 1e-9:  # below that the Lorentzians cancel in floats
            assert (plus > 0) == (Delta < 0)  # red detuning cools

    @given(Delta=st.floats(-3, 3), g_s=st.floats(0, 0.5), kappa=st.floats(0.01, 2))
    @settings(max_examples=200)
    def test_spring_is_odd(self, Delta, g_s, kappa):
        plus = optical_spring_shift(g_s, Delta, kappa, 1.0)
        minus = optical_spring_shift(g_s, -Delta, kappa, 1.0)
        assert plus == pytest.approx(-minus, rel=1e-12, abs=1e-300)

    def test_vectorized(self):
        Delta = np.linspace(-2, 2, 9)
        out = optomechanical_damping(0.05, Delta, 0.15, 1.0)
        assert out.shape == Delta.shape

    @pytest.mark.parametrize("closed_form", [optomechanical_damping, optical_spring_shift])
    @pytest.mark.parametrize(
        "g_s, Delta",
        [
            (1e160, -1.0),                        # Python float power overflows
            (np.array([0.05, 1e160]), np.array([-1.0, 0.5])),  # numpy square overflows
            (1e154, -0.925),                      # g_s^2 is finite, the product is not
        ],
    )
    def test_non_finite_is_simulation_error(self, closed_form, g_s, Delta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationError, match="not finite") as info:
                closed_form(g_s, Delta, 0.15, 1.0)
        message = str(info.value)
        assert all(f"{name} = " in message for name in ("g_s", "Delta", "kappa", "omega_m"))

    def test_names_the_first_non_finite_point(self):
        with pytest.raises(SimulationError, match=r"g_s = 1e\+160, Delta = 0\.5,"):
            optomechanical_damping(
                np.array([0.05, 1e160, 1e170]), np.array([-1.0, 0.5, 1.0]), 0.15, 1.0
            )


class TestClassifyRegime:
    def test_quiet_red_detuned_point(self):
        summary = classify_regime(FIG5, gamma_om=0.06, delta_omega_m=-0.001)
        assert summary.total_damping == pytest.approx(0.065)
        assert summary.effective_frequency == pytest.approx(0.999)
        assert not summary.self_oscillation
        assert not summary.parametric_instability
        assert not summary.resolved_sideband  # kappa = 0.15 > omega_m / 10

    def test_self_oscillation_flag(self):
        summary = classify_regime(FIG5, gamma_om=-0.010, delta_omega_m=0.0)
        assert summary.self_oscillation
        assert summary.total_damping < 0

    def test_parametric_instability_flag(self):
        summary = classify_regime(FIG5, gamma_om=0.0, delta_omega_m=-1.2)
        assert summary.parametric_instability

    def test_resolved_sideband_boundary(self):
        deep = dataclasses.replace(FIG5, kappa=0.05)
        assert classify_regime(deep, 0.0, 0.0).resolved_sideband
        edge = dataclasses.replace(FIG5, kappa=0.1)
        assert not classify_regime(edge, 0.0, 0.0).resolved_sideband


# ---------------------------------------------------------------------------
# mean-field integration


def reference_rk4_step(f, t, y, dt):
    """One generic RK4 step on numpy arrays, independent of the package."""
    k1 = f(t, y)
    k2 = f(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = f(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = f(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reference_mean_field(params, alpha0, beta0, times):
    """Mean-field RK4 with a numpy right-hand side on the given time grid."""

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

    y = np.array([complex(alpha0), complex(beta0)])
    out = np.empty((times.size, 2), dtype=complex)
    out[0] = y
    for i in range(1, times.size):
        y = reference_rk4_step(rhs, times[i - 1], y, times[i] - times[i - 1])
        out[i] = y
    return out[:, 0], out[:, 1]


class TestIntegrateMeanField:
    def test_linear_cavity_matches_analytic_transient(self):
        p = dataclasses.replace(FIG5, g0=0.0, Delta0=-0.3)
        traj = integrate_mean_field(p, 0.0, 0.0, t_end=5.0, dt=0.01)
        lam = p.kappa / 2 - 1j * p.Delta0
        alpha_exact = p.A_l / lam * (1 - np.exp(-lam * traj.t))
        np.testing.assert_allclose(traj.alpha, alpha_exact, atol=1e-10)

    def test_relaxes_to_steady_state(self):
        p = dataclasses.replace(FIG5, Delta0=-1.0)
        (s,) = steady_states(p)
        traj = integrate_mean_field(p, 0.0, 0.0, t_end=3000.0, dt=0.05)
        assert abs(traj.alpha[-1] - s.alpha_s) / abs(s.alpha_s) < 1e-6
        assert abs(traj.beta[-1] - s.beta_s) / abs(s.beta_s) < 5e-6

    def test_starts_from_initial_condition(self):
        traj = integrate_mean_field(FIG5, 1 + 2j, 3 - 4j, t_end=1.0, dt=0.01)
        assert traj.alpha[0] == 1 + 2j and traj.beta[0] == 3 - 4j
        assert traj.t[0] == 0.0 and traj.t[-1] == 1.0

    @pytest.mark.parametrize(
        "params, alpha0, beta0, t_end, dt",
        [
            (BISTABLE, 1.5 - 0.7j, -0.3 + 2.1j, 1.005, 0.01),
            # long enough that pow(x, 2) and x * x round apart on some square
            (BISTABLE, 1.5 - 0.7j, -0.3 + 2.1j, 20.005, 0.01),
            (dataclasses.replace(FIG5, g0=0.05, Delta0=-1.0), 0.0, 0.0, 40.0, 0.05),
            (dataclasses.replace(FIG5, g0=0.02, Delta0=0.8, A_l=0.0), 3.0 + 4.0j, -0.0, 7.3, 0.03),
        ],
    )
    def test_bit_identical_to_numpy_reference_stepper(self, params, alpha0, beta0, t_end, dt):
        traj = integrate_mean_field(params, alpha0, beta0, t_end=t_end, dt=dt)
        assert traj.t[-1] == t_end
        alpha, beta = reference_mean_field(params, alpha0, beta0, traj.t)
        assert np.array_equal(traj.alpha, alpha) and np.array_equal(traj.beta, beta)
        # bit for bit, signed zeros included
        assert traj.alpha.tobytes() == alpha.tobytes()
        assert traj.beta.tobytes() == beta.tobytes()

    def test_step_bound(self):
        with pytest.raises(StepSizeError):
            integrate_mean_field(FIG5, 0.0, 0.0, t_end=1.0, dt=0.06)

    def test_end_below_one_step_starts_at_zero(self):
        # no full step fits: the one sample after the initial value is at t_end
        traj = integrate_mean_field(FIG5, 1 + 2j, 3 - 4j, t_end=1e-13, dt=0.01)
        assert traj.t.tolist() == [0.0, 1e-13]
        assert traj.alpha[0] == 1 + 2j and traj.beta[0] == 3 - 4j
        alpha, beta = reference_mean_field(FIG5, 1 + 2j, 3 - 4j, traj.t)
        assert np.array_equal(traj.alpha, alpha) and np.array_equal(traj.beta, beta)

    def test_divergence_guard(self):
        p = dataclasses.replace(FIG5, A_l=0.0)
        with pytest.raises(DivergenceError):
            integrate_mean_field(p, 2e12, 0.0, t_end=1.0, dt=0.05)

    def test_overflow_guard(self):
        with pytest.raises(DivergenceError):
            integrate_mean_field(FIG5, 1e308, 0.0, t_end=1.0, dt=0.05)


# ---------------------------------------------------------------------------
# static potential


def _static_equilibria_reference(model, x):
    """Equilibria as found one force and one bracket at a time, one position per call."""
    wavelength = model.width * 2.0 * model.finesse

    def slope(pos):
        return model.k_HO * pos - float(radiation_force(model, pos)[0])

    h = model.k_HO * x - radiation_force(model, x)
    positive, nonzero = h > 0, h != 0.0
    brackets = np.flatnonzero((positive[:-1] != positive[1:]) & nonzero[:-1] & nonzero[1:])
    candidates = x[~nonzero].tolist() + [
        _bisect_scalar(slope, float(x[i]), float(x[i + 1]), float(h[i]), 1e-10 * wavelength)
        for i in brackets.tolist()
    ]
    stable_eq, stiffness = [], []
    for pos in sorted(candidates):
        if stable_eq and abs(pos - stable_eq[-1]) <= 1e-9 * wavelength:
            continue
        k_eff = model.k_HO - float(radiation_force_gradient(model, pos)[0])
        if k_eff > 0:
            stable_eq.append(pos)
            stiffness.append(k_eff)
    return np.array(stable_eq), np.array(stiffness)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStaticPotential:
    X = np.linspace(-2.2, 2.2, 2201)

    def model(self, F0):
        return lorentzian_comb_model(1.0, F0, 1.0, 10.0, self.X[0], self.X[-1])

    def test_zero_force_single_harmonic_minimum(self):
        res = static_potential(self.model(0.0), self.X)
        assert res.equilibria.size == 1
        assert abs(res.equilibria[0]) <= 1e-10
        assert res.K_eff[0] == 1.0

    def test_strong_force_multiwell(self):
        res = static_potential(self.model(1.0), self.X)
        assert res.equilibria.size >= 2
        assert np.all(res.K_eff > 0)
        assert np.all(np.diff(res.equilibria) > 0)

    def test_equilibria_are_force_balance_points(self):
        model = self.model(1.0)
        res = static_potential(model, self.X)
        for pos in res.equilibria:
            residual = model.k_HO * pos - radiation_force(model, pos)[0]
            assert abs(residual) < 1e-8

    def test_stiffness_is_total_curvature(self):
        model = self.model(1.0)
        res = static_potential(model, self.X)
        for pos, k in zip(res.equilibria, res.K_eff):
            expected = model.k_HO - radiation_force_gradient(model, pos)[0]
            assert k == pytest.approx(expected, rel=1e-12)

    def test_potential_decomposition(self):
        model = self.model(0.8)
        res = static_potential(model, self.X)
        np.testing.assert_array_equal(res.V_t, res.V_RP + res.V_HO)
        np.testing.assert_allclose(res.V_HO, 0.5 * self.X ** 2, atol=1e-15)

    def test_force_is_minus_potential_gradient(self):
        model = self.model(0.7)
        x = np.linspace(-1.1, 1.1, 2001)
        h = 1e-6
        dv = (radiation_potential(model, x + h) - radiation_potential(model, x - h)) / (2 * h)
        np.testing.assert_allclose(-dv, radiation_force(model, x), rtol=1e-7, atol=1e-9)

    def test_force_peak_value(self):
        model = self.model(0.6)
        # exactly on a resonance the local term contributes F0; the finesse-10
        # comb tails add under one percent on top
        peak = radiation_force(model, 0.5)[0]
        assert peak > 0.6
        assert peak == pytest.approx(0.6, rel=1e-2)

    def test_comb_periodicity(self):
        # periodicity is exact for an infinite comb; widen the comb to 200
        # resonances past each end of the window so truncation error is negligible
        model = lorentzian_comb_model(1.0, 0.5, 1.0, 10.0, -2.2, 2.2)
        model = dataclasses.replace(model, x_res=tuple(j * 0.5 for j in range(-205, 206)))
        f1 = radiation_force(model, np.array([0.13]))[0]
        f2 = radiation_force(model, np.array([0.13 + 0.5]))[0]
        assert f1 == pytest.approx(f2, rel=1e-6)  # half-wavelength period

    def test_grid_validation(self):
        model = self.model(0.5)
        with pytest.raises(ValueError, match="increasing"):
            static_potential(model, np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="resonance"):
            static_potential(model, np.linspace(0.05, 0.2, 50))
        for x in (np.array([0.1]), self.X[:2200].reshape(2, 1100)):
            with pytest.raises(ValueError, match="1-D grid with at least 2 points"):
                static_potential(model, x)

    def test_few_brackets_bisected_in_lockstep(self):
        # F0 = 1.5 has 7 brackets: all of them are bisected in one lockstep
        # call on arrays, none on the float loop
        model, bisect, sizes = self.model(1.5), classical._bisect, []

        def counted(f, lo, *rest):
            sizes.append(len(lo))
            return bisect(f, lo, *rest)

        floats = mock.patch.object(classical, "_bisect_one", side_effect=AssertionError("floats"))
        with floats, mock.patch.object(classical, "_bisect", counted):
            result = static_potential(model, self.X)
        assert sizes == [7]
        ref_eq, ref_k = _static_equilibria_reference(model, self.X)
        assert _same_bits(result.equilibria, ref_eq) and _same_bits(result.K_eff, ref_k)

    def test_near_duplicate_root_skipped(self):
        # float-resolution grids around a stable root show one sign change, so
        # no grid is known to reach the skip and the bisection is patched: F0 =
        # 0.8 has the roots stable, unstable, stable, and the unstable one is
        # moved to 5e-10 wavelengths past the first stable one
        model, bisect = self.model(0.8), classical._bisect
        ((expected, K_expected),) = static_equilibria([model], self.X)

        def near_duplicate(*args):
            roots = bisect(*args)
            roots[1] = roots[0] + 5e-10
            return roots

        with mock.patch.object(classical, "_bisect", near_duplicate):
            ((equilibria, K_eff),) = static_equilibria([model], self.X)
        assert expected.size == 2 and equilibria.tolist() == expected.tolist()
        assert K_eff.tolist() == K_expected.tolist()

    @pytest.mark.parametrize("seed", range(1, 13))
    def test_equal_one_force_one_bracket_at_a_time(self, seed):
        rng = np.random.default_rng(seed)
        k_HO = float(10 ** rng.uniform(-0.5, 0.5))
        wavelength = float(rng.uniform(0.5, 2.0))
        finesse = float(rng.uniform(3.0, 30.0))
        count = int(rng.integers(300, 2500))
        x = np.linspace(rng.uniform(-3.0, -0.6), rng.uniform(0.6, 3.0), count)
        forces = [0.0, *sorted(rng.uniform(0.0, 2.0, size=int(rng.integers(1, 8))).tolist())]
        models = [
            lorentzian_comb_model(k_HO, F0, wavelength, finesse, x[0], x[-1]) for F0 in forces
        ]
        found = static_equilibria(models, x)
        assert len(found) == len(models)
        for model, (equilibria, K_eff) in zip(models, found):
            ref_eq, ref_k = _static_equilibria_reference(model, x)
            assert _same_bits(equilibria, ref_eq) and _same_bits(K_eff, ref_k)
            single = static_potential(model, x)
            assert _same_bits(single.equilibria, ref_eq) and _same_bits(single.K_eff, ref_k)
            assert _same_bits(single.V_RP, radiation_potential(model, x))

    def test_zero_force_on_an_exact_zero_node(self):
        x = np.arange(-1100, 1101) / 500.0
        assert x[1100] == 0.0
        models = [lorentzian_comb_model(1.3, F0, 1.0, 10.0, x[0], x[-1]) for F0 in (0.0, 0.9)]
        (eq0, k0), (eq1, k1) = static_equilibria(models, x)
        assert eq0.tolist() == [0.0] and k0.tolist() == [1.3]  # the node itself, h == 0
        for model, eq, k in zip(models, (eq0, eq1), (k0, k1)):
            ref_eq, ref_k = _static_equilibria_reference(model, x)
            assert _same_bits(eq, ref_eq) and _same_bits(k, ref_k)

    def test_golden_grid_equal_one_force_at_a_time(self):
        x = np.linspace(-2.2, 2.2, 2201)
        models = [
            lorentzian_comb_model(1.0, F0, 1.0, 10.0, x[0], x[-1])
            for F0 in np.linspace(0.0, 1.5, 16)
        ]
        for model, (eq, k) in zip(models, static_equilibria(models, x)):
            ref_eq, ref_k = _static_equilibria_reference(model, x)
            assert _same_bits(eq, ref_eq) and _same_bits(k, ref_k)

    def test_models_must_share_the_comb(self):
        base = self.model(0.5)
        others = [
            lorentzian_comb_model(2.0, 0.5, 1.0, 10.0, self.X[0], self.X[-1]),   # k_HO
            lorentzian_comb_model(1.0, 0.5, 1.0, 12.0, self.X[0], self.X[-1]),   # finesse, width
            dataclasses.replace(base, x_res=base.x_res[7:-7]),                   # narrower comb
            dataclasses.replace(base, width=0.06),
        ]
        for other in others:
            with pytest.raises(ValueError, match="share"):
                static_equilibria([base, other], self.X)
        assert static_equilibria([], self.X) == []

    def test_far_from_zero_bisection_ends_at_float_resolution(self):
        # at x ~ 1e12 wavelengths one float step (1.2e-4) is wider than 1e-10
        # wavelengths, the width the bisection otherwise ends at
        x = 1e12 + np.array([-0.25, 0.0, 0.25])
        models = [lorentzian_comb_model(1e-18, F0, 1.0, 10.0, x[0], x[-1]) for F0 in (1e-5, 2e-5)]
        for model, (eq, k) in zip(models, static_equilibria(models, x)):
            assert eq.size == 1 and x[0] < eq[0] < x[-1] and k[0] > 0
            step = 2.0 * np.spacing(eq[0])
            ends = eq[0] + np.array([-step, step])
            below, above = model.k_HO * ends - radiation_force(model, ends)
            assert below < 0 < above

    def test_comb_size_is_capped(self):
        # 2 W + 21 resonances for a window of W wavelengths starting on a resonance
        cap = classical._MAX_COMB_RESONANCES
        widest = (cap - 21) / 2
        assert len(lorentzian_comb_model(1.0, 1.0, 1.0, 10.0, 0.0, widest).x_res) == cap
        for x_max, wavelengths in ((widest + 0.5, f"{widest + 0.5:g}"), (5e4, "50000"),
                                   (1.7e308, "1.7e+308")):
            with pytest.raises(ValueError, match=re.escape(
                f"x window of {wavelengths} wavelengths needs more than the {cap} comb resonances"
            )):
                lorentzian_comb_model(1.0, 1.0, 1.0, 10.0, 0.0, x_max)
        # both ends beyond the float range once divided by the spacing
        with pytest.raises(ValueError, match="inf wavelengths"):
            lorentzian_comb_model(1.0, 1.0, 1.0, 10.0, -1.7e308, 1.7e308)

    @pytest.mark.parametrize(
        "wavelength, finesse, x_min, x_max",
        [
            (5e-324, 10.0, -2.0, 2.0),          # the spacing wavelength / 2 underflows
            (1e-300, 1e300, -1e-300, 1e-300),   # the width wavelength / (2 finesse) underflows
            (1e10, 5e-324, -2.0, 2.0),          # the width overflows
        ],
    )
    def test_comb_beyond_the_float_range_raises(self, wavelength, finesse, x_min, x_max):
        message = f"wavelength = {wavelength!r}, finesse = {finesse!r}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationError, match=re.escape(message)):
                lorentzian_comb_model(1.0, 0.5, wavelength, finesse, x_min, x_max)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            lorentzian_comb_model(0.0, 1.0, 1.0, 10.0, -1, 1)
        with pytest.raises(ValueError):
            lorentzian_comb_model(1.0, -1.0, 1.0, 10.0, -1, 1)
        with pytest.raises(ValueError):
            lorentzian_comb_model(1.0, 1.0, 1.0, 10.0, 1, -1)
