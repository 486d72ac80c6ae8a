import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from optomech.errors import (
    DivergenceError,
    PoleError,
    StepSizeError,
)
from optomech.model import SystemParams
from optomech.classical import (
    classify_regime,
    cubic_discriminant,
    cubic_value,
    effective_susceptibility,
    hysteresis_sweep,
    integrate_mean_field,
    intracavity_cubic,
    lorentzian_comb_model,
    mean_output_field,
    mechanical_susceptibility,
    optical_spring_shift,
    optical_susceptibility,
    optomechanical_damping,
    radiation_force,
    radiation_force_gradient,
    radiation_potential,
    response_quantities,
    self_energy,
    solve_intracavity_occupancy,
    stability_map,
    static_potential,
    steady_state,
    steady_states,
    sweep_bistability,
)
from test_acceptance import _independent_discriminant

FIG5 = SystemParams(kappa=0.15, gamma=0.005, g0=0.003, Delta0=0.0, A_l=5.0)
BISTABLE = dataclasses.replace(FIG5, g0=0.005, Delta0=-0.21)


# ---------------------------------------------------------------------------
# cubic and steady states


class TestCubic:
    def test_pull_coefficient_oracle(self):
        problem = intracavity_cubic(FIG5)
        assert problem.C == pytest.approx(1.7999887500703121e-05, rel=1e-12)
        assert problem.C == pytest.approx(1.8e-5, rel=1e-4)

    def test_coefficient_construction(self):
        p = dataclasses.replace(FIG5, Delta0=-0.2)
        problem = intracavity_cubic(p)
        assert problem.c3 == 4.0 * problem.C ** 2
        assert problem.c2 == 8.0 * problem.C * p.Delta0
        assert problem.c1 == 4.0 * p.Delta0 ** 2 + p.kappa ** 2
        assert problem.c0 == -4.0 * p.A_l ** 2

    def test_linear_cavity_oracle(self):
        p = dataclasses.replace(FIG5, g0=0.0)
        roots = solve_intracavity_occupancy(intracavity_cubic(p))
        assert roots == (pytest.approx(4444.444444444444, rel=1e-12),)

    @given(
        A_l=st.floats(0, 1e3),
        Delta0=st.floats(-50, 50),
        kappa=st.floats(1e-3, 10),
    )
    @settings(max_examples=200)
    def test_linear_limit_closed_form(self, A_l, Delta0, kappa):
        p = SystemParams(kappa=kappa, gamma=0.005, g0=0.0, Delta0=Delta0, A_l=A_l)
        (root,) = solve_intracavity_occupancy(intracavity_cubic(p))
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
        problem = intracavity_cubic(p)
        roots = solve_intracavity_occupancy(problem)
        assert len(roots) in (1, 3)
        assert all(r >= 0 for r in roots)
        assert list(roots) == sorted(roots)
        scale = max(1.0, abs(problem.c0))
        assert all(abs(cubic_value(problem, r)) <= 1e-8 * scale for r in roots)

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
        grid = -np.geomspace(1e-3, 2.0 * intracavity_cubic(p).C * n_max + 1.0, 200)
        disc = [_independent_discriminant(p, d) for d in grid]
        brackets = [
            (grid[i + 1], grid[i]) for i in range(grid.size - 1)
            if (disc[i] > 0) != (disc[i + 1] > 0)
        ]
        assert len(brackets) == 2
        lo, hi = brackets[0] if upper_edge else brackets[1]
        edge = brentq(lambda d: _independent_discriminant(p, d), lo, hi, xtol=1e-15)
        near = dataclasses.replace(p, Delta0=edge * (1.0 + side * 10.0 ** log_rel))
        problem = intracavity_cubic(near)
        roots = solve_intracavity_occupancy(problem)
        assert len(roots) == (3 if cubic_discriminant(problem) > 0 else 1)
        assert all(r > 0 for r in roots)
        scale = max(1.0, abs(problem.c0))
        assert all(abs(cubic_value(problem, r)) <= 1e-8 * scale for r in roots)

    @pytest.mark.parametrize(
        "field, value", [("Delta0", 1e110), ("Delta0", -1e110), ("A_l", 1e100), ("kappa", 1e-80)]
    )
    def test_discriminant_overflow_reads_as_one_root(self, field, value):
        problem = intracavity_cubic(dataclasses.replace(FIG5, **{field: value}))
        (root,) = solve_intracavity_occupancy(problem)
        assert root > 0

    def test_bistable_point_has_three_roots(self):
        roots = solve_intracavity_occupancy(intracavity_cubic(BISTABLE))
        assert len(roots) == 3

    def test_zero_drive_dark_cavity(self):
        p = dataclasses.replace(FIG5, A_l=0.0)
        roots = solve_intracavity_occupancy(intracavity_cubic(p))
        assert roots == (0.0,)


class TestSteadyState:
    def test_linear_cavity_on_resonance(self):
        p = dataclasses.replace(FIG5, g0=0.0)
        s = steady_state(p)
        assert s.alpha_s == pytest.approx(66.66666666666667 + 0j, rel=1e-12)
        assert s.beta_s == 0.0
        assert s.Delta_eff == 0.0
        assert s.stable

    def test_occupancy_consistency(self):
        for d in (-1.0, -0.5, 0.0, 0.5):
            s = steady_state(dataclasses.replace(FIG5, Delta0=d))
            assert abs(s.alpha_s) ** 2 == pytest.approx(s.N_o, rel=1e-12)

    def test_detuning_shift_identity(self):
        s = steady_state(dataclasses.replace(FIG5, Delta0=-1.0))
        assert s.Delta_eff == pytest.approx(
            -1.0 + 2 * FIG5.g0 * s.beta_s.real, rel=1e-14
        )
        # positive photon number always pulls the detuning upward
        assert s.Delta_eff > -1.0

    def test_mechanical_amplitude_identity(self):
        s = steady_state(dataclasses.replace(FIG5, Delta0=-1.0))
        expected = 1j * FIG5.g0 * s.N_o / (FIG5.gamma / 2 + 1j * FIG5.omega_m)
        assert s.beta_s == expected

    def test_bistable_requires_branch_choice(self):
        with pytest.raises(ValueError, match="N_o"):
            steady_state(BISTABLE)

    def test_branch_selection(self):
        roots = solve_intracavity_occupancy(intracavity_cubic(BISTABLE))
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


class TestMeanOutputField:
    def test_oracle(self):
        s = steady_state(dataclasses.replace(FIG5, g0=0.0))
        out = mean_output_field(s.alpha_s, FIG5.kappa)
        assert out == pytest.approx(-25.819888974716115 + 0j, rel=1e-12)

    def test_output_photon_flux(self):
        s = steady_state(dataclasses.replace(FIG5, Delta0=-0.5))
        out = mean_output_field(s.alpha_s, FIG5.kappa)
        assert abs(out) ** 2 == pytest.approx(FIG5.kappa * s.N_o, rel=1e-12)

    def test_invalid_kappa(self):
        with pytest.raises(ValueError):
            mean_output_field(1.0 + 0j, 0.0)


# ---------------------------------------------------------------------------
# sweeps


class TestBistabilitySweep:
    GRID = np.linspace(-0.35, -0.05, 301)

    def test_window_structure(self):
        sweep = sweep_bistability(dataclasses.replace(FIG5, g0=0.005), self.GRID)
        counts = np.array([len(r) for r in sweep.roots])
        assert set(counts) == {1, 3}
        assert len(sweep.window_edges) == 2
        lo, hi = sweep.window_edges
        inside = (self.GRID > lo) & (self.GRID < hi)
        np.testing.assert_array_equal(counts == 3, inside)

    def test_middle_branch_unstable_outer_stable(self):
        sweep = sweep_bistability(dataclasses.replace(FIG5, g0=0.005), self.GRID)
        for roots, stable in zip(sweep.roots, sweep.stability):
            if len(roots) == 3:
                assert stable[1] is False
                assert stable[0] is True and stable[2] is True

    def test_labels(self):
        sweep = sweep_bistability(dataclasses.replace(FIG5, g0=0.005), self.GRID)
        for roots, labels in zip(sweep.roots, sweep.branch_labels):
            if len(roots) == 3:
                assert labels == ("lower", "middle", "upper")
            else:
                assert labels == ("only",)

    def test_weak_coupling_has_no_window(self):
        sweep = sweep_bistability(dataclasses.replace(FIG5, g0=0.001), self.GRID)
        assert sweep.window_edges == ()
        assert all(len(r) == 1 for r in sweep.roots)

    def test_edges_are_discriminant_zeros(self):
        p = dataclasses.replace(FIG5, g0=0.005)
        sweep = sweep_bistability(p, self.GRID)
        for edge in sweep.window_edges:
            d_lo = cubic_discriminant(
                intracavity_cubic(dataclasses.replace(p, Delta0=edge - 1e-6))
            )
            d_hi = cubic_discriminant(
                intracavity_cubic(dataclasses.replace(p, Delta0=edge + 1e-6))
            )
            assert d_lo * d_hi < 0  # sign change within 1e-6 of the edge


class TestHysteresis:
    GRID = np.linspace(-0.35, -0.05, 301)

    def test_traces_differ_exactly_inside_window(self):
        p = dataclasses.replace(FIG5, g0=0.005)
        sweep = sweep_bistability(p, self.GRID)
        up = hysteresis_sweep(p, self.GRID, "up")
        down = hysteresis_sweep(p, self.GRID, "down")
        inside = np.array([len(r) == 3 for r in sweep.roots])
        np.testing.assert_array_equal(up != down, inside)
        assert np.all(up[inside] < down[inside])  # lower branch vs upper branch

    def test_monostable_traces_coincide(self):
        p = dataclasses.replace(FIG5, g0=0.001)
        up = hysteresis_sweep(p, self.GRID, "up")
        down = hysteresis_sweep(p, self.GRID, "down")
        np.testing.assert_array_equal(up, down)

    def test_jump_at_window_edges(self):
        p = dataclasses.replace(FIG5, g0=0.005)
        up = hysteresis_sweep(p, self.GRID, "up")
        jumps = np.abs(np.diff(up))
        # one discontinuous jump (upward, at the upper edge)
        assert np.max(jumps) > 10 * np.median(jumps[jumps > 0])

    def test_direction_validated(self):
        with pytest.raises(ValueError, match="direction"):
            hysteresis_sweep(FIG5, self.GRID, "sideways")


class TestStabilityMap:
    def test_shapes_and_content(self):
        p = dataclasses.replace(FIG5, g0=0.005)
        det = np.linspace(-0.3, 0.3, 7)
        amp = np.linspace(0.5, 8.0, 5)
        m = stability_map(p, det, amp)
        assert len(m.roots) == det.size and len(m.roots[0]) == amp.size
        flags = [f for row in m.stable for cell in row for f in cell]
        assert any(flags) and not all(flags)

    def test_verdicts_match_branchwise_steady_states(self):
        p = dataclasses.replace(FIG5, g0=0.005)
        det = np.linspace(-0.3, 0.1, 5)
        amp = np.linspace(1.0, 6.0, 3)
        m = stability_map(p, det, amp)
        for i, d in enumerate(det):
            for j, a in enumerate(amp):
                pp = dataclasses.replace(p, Delta0=float(d), A_l=float(a))
                for N, flag in zip(m.roots[i][j], m.stable[i][j]):
                    assert steady_state(pp, N_o=N).stable == flag

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError, match="amplitudes"):
            stability_map(FIG5, np.array([0.0, 1.0]), np.array([-1.0, 1.0]))


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


class TestResponseQuantities:
    def test_bundle_consistency(self):
        p = dataclasses.replace(FIG5, Delta0=-1.0)
        s = steady_state(p)
        r = response_quantities(p.omega_m, p, s)
        assert r.g_s == p.g0 * abs(s.alpha_s)
        assert r.chi_o == complex(
            optical_susceptibility(p.omega_m, s.Delta_eff, p.kappa)
        )
        assert 1 / r.chi_eff == pytest.approx(1 / r.chi_m - r.Sigma, rel=1e-12)
        assert r.gamma_om == pytest.approx(r.Sigma.imag / (p.m * p.omega_m), rel=1e-12)


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


class TestIntegrateMeanField:
    def test_linear_cavity_matches_analytic_transient(self):
        p = dataclasses.replace(FIG5, g0=0.0, Delta0=-0.3)
        traj = integrate_mean_field(p, 0.0, 0.0, t_end=5.0, dt=0.01)
        lam = p.kappa / 2 - 1j * p.Delta0
        alpha_exact = p.A_l / lam * (1 - np.exp(-lam * traj.t))
        np.testing.assert_allclose(traj.alpha, alpha_exact, atol=1e-10)

    def test_relaxes_to_steady_state(self):
        p = dataclasses.replace(FIG5, Delta0=-1.0)
        s = steady_state(p)
        traj = integrate_mean_field(p, 0.0, 0.0, t_end=3000.0, dt=0.05)
        assert abs(traj.alpha[-1] - s.alpha_s) / abs(s.alpha_s) < 1e-6
        assert abs(traj.beta[-1] - s.beta_s) / abs(s.beta_s) < 5e-6

    def test_starts_from_initial_condition(self):
        traj = integrate_mean_field(FIG5, 1 + 2j, 3 - 4j, t_end=1.0, dt=0.01)
        assert traj.alpha[0] == 1 + 2j and traj.beta[0] == 3 - 4j
        assert traj.t[0] == 0.0 and traj.t[-1] == 1.0

    def test_step_bound(self):
        with pytest.raises(StepSizeError):
            integrate_mean_field(FIG5, 0.0, 0.0, t_end=1.0, dt=0.06)

    def test_divergence_guard(self):
        p = dataclasses.replace(FIG5, A_l=0.0)
        with pytest.raises(DivergenceError):
            integrate_mean_field(p, 2e12, 0.0, t_end=1.0, dt=0.05)

    def test_overflow_guard(self):
        with pytest.raises(DivergenceError):
            integrate_mean_field(FIG5, 1e308, 0.0, t_end=1.0, dt=0.05)


# ---------------------------------------------------------------------------
# static potential


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
        # periodicity is exact for an infinite comb; widen the padding until
        # truncation error is negligible
        model = lorentzian_comb_model(1.0, 0.5, 1.0, 10.0, -2.2, 2.2, pad_resonances=200)
        f1 = radiation_force(model, np.array([0.13]))[0]
        f2 = radiation_force(model, np.array([0.13 + 0.5]))[0]
        assert f1 == pytest.approx(f2, rel=1e-6)  # half-wavelength period

    def test_grid_validation(self):
        model = self.model(0.5)
        with pytest.raises(ValueError, match="increasing"):
            static_potential(model, np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="resonance"):
            static_potential(model, np.linspace(0.05, 0.2, 50))

    def test_model_validation(self):
        with pytest.raises(ValueError):
            lorentzian_comb_model(0.0, 1.0, 1.0, 10.0, -1, 1)
        with pytest.raises(ValueError):
            lorentzian_comb_model(1.0, -1.0, 1.0, 10.0, -1, 1)
        with pytest.raises(ValueError):
            lorentzian_comb_model(1.0, 1.0, 1.0, 10.0, 1, -1)
