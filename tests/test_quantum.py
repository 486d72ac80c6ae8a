import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from optomech.errors import (
    AmbiguousRegimeError,
    SingularSystemError,
    StepSizeError,
    UnstableSystemError,
)
from optomech.model import SystemParams
from optomech.classical import steady_state
from optomech.quantum import (
    BEAM_SPLITTER,
    OFF_RESONANT,
    TWO_MODE_SQUEEZER,
    _lyapunov_operator,
    diffusion_matrix,
    drift_matrix,
    drift_matrix_from_rates,
    integrate_covariance,
    physicality_min_eig,
    quadrature_variances,
    rwa_interaction,
    steady_covariance,
    symplectic_form,
    thermal_covariance,
)


def mode_basis_drift(kappa, gamma, omega_m, Delta, g):
    """Drift matrix built independently from the mode-operator equations.

    In the (da, da^+, db, db^+) basis the linearized Langevin equations are
        da/dt  = (i Delta - kappa/2) da + i g (db + db^+)
        db/dt  = (-i omega_m - gamma/2) db + i (g da^+ + g* da)
    plus their conjugates.  Transforming to quadratures X = (da^+ + da)/sqrt2,
    Y = i (da^+ - da)/sqrt2 (and Q, P likewise) must reproduce drift_matrix.
    """
    g = complex(g)
    M = np.array(
        [
            [1j * Delta - kappa / 2, 0, 1j * g, 1j * g],
            [0, -1j * Delta - kappa / 2, -1j * np.conj(g), -1j * np.conj(g)],
            [1j * np.conj(g), 1j * g, -1j * omega_m - gamma / 2, 0],
            [-1j * np.conj(g), -1j * g, 0, 1j * omega_m - gamma / 2],
        ]
    )
    s = 1 / np.sqrt(2)
    T = np.array(
        [
            [s, s, 0, 0],
            [-1j * s, 1j * s, 0, 0],
            [0, 0, s, s],
            [0, 0, -1j * s, 1j * s],
        ]
    )
    A = T @ M @ np.linalg.inv(T)
    assert np.max(np.abs(A.imag)) < 1e-14
    return A.real


class TestDriftMatrix:
    def test_entries_for_real_coupling(self):
        A = drift_matrix_from_rates(0.15, 0.005, 1.0, -1.0, 0.05)
        expected = np.array(
            [
                [-0.075, 1.0, 0.0, 0.0],
                [-1.0, -0.075, 0.1, 0.0],
                [0.0, 0.0, -0.0025, 1.0],
                [0.1, 0.0, -1.0, -0.0025],
            ]
        )
        np.testing.assert_array_equal(A, expected)

    def test_matches_mode_basis_derivation(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            kappa, gamma, omega_m = rng.uniform(0.01, 2, 3)
            Delta = rng.uniform(-2, 2)
            g = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            A = drift_matrix_from_rates(kappa, gamma, omega_m, Delta, g)
            np.testing.assert_allclose(
                A, mode_basis_drift(kappa, gamma, omega_m, Delta, g), atol=1e-13
            )

    def test_from_steady_state(self):
        p = SystemParams(kappa=0.15, gamma=0.005, g0=0.003, Delta0=-1.0, A_l=5.0)
        s = steady_state(p)
        A = drift_matrix(p, s)
        g = p.g0 * s.alpha_s
        np.testing.assert_array_equal(
            A, drift_matrix_from_rates(p.kappa, p.gamma, p.omega_m, s.Delta_eff, g)
        )

    def test_decoupled_at_zero_coupling(self):
        A = drift_matrix_from_rates(0.15, 0.005, 1.0, -1.0, 0.0)
        assert np.all(A[:2, 2:] == 0) and np.all(A[2:, :2] == 0)


class TestDiffusionMatrix:
    def test_oracle(self):
        p = SystemParams(kappa=0.15, gamma=0.005, g0=0.0, Delta0=0.0, A_l=5.0, n_th=10.0)
        D = diffusion_matrix(p)
        np.testing.assert_array_equal(D, np.diag([0.075, 0.075, 0.0525, 0.0525]))

    def test_vacuum_mechanical_bath(self):
        p = SystemParams(kappa=0.2, gamma=0.01, g0=0.0, Delta0=0.0, A_l=1.0, n_th=0.0)
        D = diffusion_matrix(p)
        assert D[2, 2] == D[3, 3] == 0.01 * 0.5


class TestSteadyCovariance:
    def sample_system(self, n_th=10.0):
        A = drift_matrix_from_rates(0.15, 0.005, 1.0, -1.0, 0.05)
        g = 0.005
        D = np.diag([0.075, 0.075, g * (n_th + 0.5), g * (n_th + 0.5)])
        return A, D

    def test_uncoupled_fixed_point_is_thermal(self):
        A = drift_matrix_from_rates(0.15, 0.005, 1.0, -1.0, 0.0)
        p = SystemParams(kappa=0.15, gamma=0.005, g0=0.0, Delta0=-1.0, A_l=5.0, n_th=10.0)
        V = steady_covariance(A, diffusion_matrix(p))
        np.testing.assert_allclose(V, thermal_covariance(10.0), atol=1e-10)

    def test_matches_scipy_lyapunov_solver(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            kappa, gamma = rng.uniform(0.3, 1.5, 2)
            Delta = rng.uniform(-1.5, 1.5)
            g = complex(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))
            A = drift_matrix_from_rates(kappa, gamma, 1.0, Delta, g)
            if np.max(np.linalg.eigvals(A).real) > -0.05:
                continue
            n_th = rng.uniform(0, 20)
            D = np.diag([kappa / 2, kappa / 2, gamma * (n_th + 0.5), gamma * (n_th + 0.5)])
            V = steady_covariance(A, D)
            V_ref = scipy.linalg.solve_continuous_lyapunov(A, -D)
            np.testing.assert_allclose(V, V_ref, rtol=0, atol=1e-10 * max(1, n_th))

    def test_residual_and_symmetry(self):
        A, D = self.sample_system()
        V = steady_covariance(A, D)
        np.testing.assert_array_equal(V, V.T)
        res = A @ V + V @ A.T + D
        assert np.max(np.abs(res)) <= 1e-8 * np.max(np.abs(D))

    def test_result_is_physical(self):
        A, D = self.sample_system()
        assert physicality_min_eig(steady_covariance(A, D)) >= -1e-9

    def test_unstable_raises(self):
        A = drift_matrix_from_rates(0.15, 0.005, 1.0, 1.0, 0.05)  # blue-detuned heating
        _, D = self.sample_system()
        with pytest.raises(UnstableSystemError):
            steady_covariance(A, D)

    @pytest.mark.parametrize("scale", [1e3, 1.0, 1e-3, 1e-60])
    def test_unstable_verdict_is_independent_of_time_unit(self, scale):
        # every rate and D in units scale times larger: max Re(eig) stays > 0
        A = drift_matrix_from_rates(0.15 * scale, 0.005 * scale, scale, scale, 0.05 * scale)
        _, D = self.sample_system()
        assert np.max(np.linalg.eigvals(A).real) > 0
        with pytest.raises(UnstableSystemError):
            steady_covariance(A, D * scale)

    def test_marginal_raises_unstable(self):
        A = np.array(
            [
                [0.0, 1.0, 0.0, 0.0],
                [-1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, -1.0, 0.0],
                [0.0, 0.0, 0.0, -1.0],
            ]
        )
        with pytest.raises(UnstableSystemError):
            steady_covariance(A, 0.1 * np.eye(4))

    def test_overflowing_solution_raises_singular(self):
        # stable, but V = D / 2e-300 overflows: the solve fails, not the verdict
        with pytest.raises(SingularSystemError):
            steady_covariance(-1e-300 * np.eye(4), 1e300 * np.eye(4))

    def test_asymmetric_diffusion_rejected(self):
        A, D = self.sample_system()
        D = D.copy()
        D[0, 1] = 1e-3
        with pytest.raises(ValueError, match="symmetric"):
            steady_covariance(A, D)

    def test_symmetry_tolerance(self):
        A, D = self.sample_system()
        for gap, accepted in ((5e-13, True), (2e-12, False)):
            D_gap = D.copy()
            D_gap[2, 3] = gap
            if accepted:
                steady_covariance(A, D_gap)
            else:
                with pytest.raises(ValueError, match="symmetric"):
                    steady_covariance(A, D_gap)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_diffusion_rejected(self, bad, monkeypatch):
        A, D = self.sample_system()
        D = D.copy()
        D[2, 2] = bad

        def no_solve(*args):
            raise AssertionError("solved a system with non-finite D")

        monkeypatch.setattr(np.linalg, "solve", no_solve)
        with pytest.raises(ValueError, match="finite"):
            steady_covariance(A, D)

    def test_matches_scipy_on_random_dense_systems(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            M = rng.standard_normal((4, 4))
            shift = np.max(np.linalg.eigvals(M).real) + rng.uniform(0.1, 2.0)
            A = M - shift * np.eye(4)
            B = rng.standard_normal((4, 4))
            D = B @ B.T
            V = steady_covariance(A, D)
            V_ref = scipy.linalg.solve_continuous_lyapunov(A, -D)
            np.testing.assert_array_equal(V, V.T)
            assert np.max(np.abs(V - V_ref)) <= 1e-10 * max(1.0, np.max(np.abs(V_ref)))


def loop_lyapunov_operator(A):
    """V -> A V + V A^T on upper-triangle coordinates, one basis matrix at a time."""
    triu = np.triu_indices(4)
    L = np.empty((10, 10))
    for k, (i, j) in enumerate(zip(*triu)):
        E = np.zeros((4, 4))
        E[i, j] = E[j, i] = 1.0
        L[:, k] = (A @ E + E @ A.T)[triu]
    return L


class TestLyapunovOperator:
    def test_equals_loop_on_random_dense_matrices(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            A = rng.standard_normal((4, 4)) * 10.0 ** rng.uniform(-8, 8, (4, 4))
            assert np.array_equal(_lyapunov_operator(A), loop_lyapunov_operator(A))

    def test_equals_loop_on_drift_matrices(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            kappa, gamma = rng.uniform(0.01, 2.0, 2)
            A = drift_matrix_from_rates(
                kappa, gamma, 1.0, rng.uniform(-2, 2), complex(*rng.uniform(-0.2, 0.2, 2))
            )
            assert np.array_equal(_lyapunov_operator(A), loop_lyapunov_operator(A))


class TestWithoutScipy:
    def test_import_and_solves_leave_scipy_unloaded(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        code = (
            "import sys\n"
            "import optomech\n"
            "if 'scipy' in sys.modules: sys.exit('import optomech loaded scipy')\n"
            "p = optomech.SystemParams(kappa=0.15, gamma=0.005, g0=0.003, Delta0=-1.0,\n"
            "                          A_l=5.0, n_th=10.0)\n"
            "s = next(s for s in optomech.steady_states(p) if s.stable)\n"
            "A, D = optomech.drift_matrix(p, s), optomech.diffusion_matrix(p)\n"
            "V = optomech.steady_covariance(A, D)\n"
            "optomech.physicality_min_eig(V)\n"
            "optomech.integrate_covariance(A, D, V, 1.0, 0.01)\n"
            "if 'scipy' in sys.modules: sys.exit('a solve loaded scipy')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert result.returncode == 0, result.stderr


def reference_covariance(A, D, V0, times):
    """Covariance RK4 with numpy matrix stages, re-symmetrized after each step."""

    def rhs(V):
        return A @ V + V @ A.T + D

    out = np.empty((times.size, 4, 4))
    V = out[0] = 0.5 * (V0 + V0.T)
    for i in range(1, times.size):
        h = times[i] - times[i - 1]
        k1 = rhs(V)
        k2 = rhs(V + 0.5 * h * k1)
        k3 = rhs(V + 0.5 * h * k2)
        k4 = rhs(V + h * k3)
        V = V + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        V = out[i] = 0.5 * (V + V.T)
    return out


class TestIntegrateCovariance:
    def sample(self):
        A = drift_matrix_from_rates(0.5, 0.5, 1.0, -1.0, 0.05)
        D = np.diag([0.25, 0.25, 0.5 * 5.5, 0.5 * 5.5])
        return A, D

    def test_equilibrium_is_stationary(self):
        A, D = self.sample()
        V_ss = steady_covariance(A, D)
        traj = integrate_covariance(A, D, V_ss, t_end=5.0, dt=0.01)
        assert np.max(np.abs(traj.V - V_ss)) < 1e-12

    def test_converges_to_steady_state(self):
        A, D = self.sample()
        V_ss = steady_covariance(A, D)
        traj = integrate_covariance(A, D, thermal_covariance(5.0), t_end=120.0, dt=0.04)
        assert np.max(np.abs(traj.V[-1] - V_ss)) < 1e-9

    def test_matches_matrix_exponential_oracle(self):
        # V(t) = e^{At} (V0 - Vss) e^{A^T t} + Vss for constant A, D
        A, D = self.sample()
        V_ss = steady_covariance(A, D)
        V0 = thermal_covariance(2.0)
        traj = integrate_covariance(A, D, V0, t_end=3.0, dt=0.01)
        for idx in (50, 150, 300):
            t = traj.t[idx]
            E = scipy.linalg.expm(A * t)
            V_exact = E @ (V0 - V_ss) @ E.T + V_ss
            np.testing.assert_allclose(traj.V[idx], V_exact, atol=1e-9)

    def test_symmetry_exact_along_trajectory(self):
        A, D = self.sample()
        traj = integrate_covariance(A, D, thermal_covariance(5.0), t_end=2.0, dt=0.02)
        assert np.array_equal(traj.V, np.transpose(traj.V, (0, 2, 1)))

    def test_physicality_along_trajectory(self):
        A, D = self.sample()
        traj = integrate_covariance(A, D, thermal_covariance(5.0), t_end=50.0, dt=0.04)
        for V in traj.V[:: 100]:
            assert physicality_min_eig(V) >= -1e-8

    @pytest.mark.parametrize("t_end, dt", [(3.0, 0.01), (3.005, 0.01), (7.77, 0.03)])
    def test_matches_reference_stepper(self, t_end, dt):
        A, D = self.sample()
        V0 = thermal_covariance(3.0)
        V0[0, 2] = V0[2, 0] = 0.2
        V0[1, 3] = V0[3, 1] = -0.1
        traj = integrate_covariance(A, D, V0, t_end=t_end, dt=dt)
        assert traj.t[-1] == t_end
        V_ref = reference_covariance(A, D, V0, traj.t)
        assert np.max(np.abs(traj.V - V_ref)) <= 1e-12 * np.max(np.abs(V_ref))

    @pytest.mark.parametrize(
        "entry, value",
        [((0, 3), 0.1), ((2, 1), -0.1), ((1, 1), -0.3), ((3, 3), -0.3), ((0, 1), 2.0), ((3, 2), 0.5)],
    )
    def test_rejects_non_drift_layout(self, entry, value):
        # the step bound reads kappa, gamma, omega_m and Delta off fixed entries
        A, D = self.sample()
        A[entry] = value
        with pytest.raises(ValueError, match="drift-matrix layout"):
            integrate_covariance(A, D, thermal_covariance(5.0), t_end=1.0, dt=0.01)

    def test_largest_step_within_bound_accepted(self):
        A, D = self.sample()
        traj = integrate_covariance(A, D, thermal_covariance(5.0), t_end=1.0, dt=0.05)
        assert traj.t.size == 21

    def test_step_bound_enforced(self):
        A, D = self.sample()
        with pytest.raises(StepSizeError):
            integrate_covariance(A, D, thermal_covariance(5.0), t_end=1.0, dt=0.06)

    def test_asymmetric_v0_rejected(self):
        A, D = self.sample()
        V0 = thermal_covariance(5.0)
        V0[0, 1] = 1e-3
        with pytest.raises(ValueError, match="symmetric"):
            integrate_covariance(A, D, V0, t_end=1.0, dt=0.01)

    def test_grid_includes_endpoints(self):
        A, D = self.sample()
        traj = integrate_covariance(A, D, thermal_covariance(1.0), t_end=1.0, dt=0.01)
        assert traj.t[0] == 0.0 and traj.t[-1] == 1.0
        assert traj.t.size == 101


class TestQuadratureVariances:
    def test_reads_diagonal(self):
        V = np.diag([0.4, 0.6, 0.5, 0.7])
        qv = quadrature_variances(V)
        assert (qv.var_x, qv.var_y, qv.var_q, qv.var_p) == (0.4, 0.6, 0.5, 0.7)
        assert qv.squeezed == ("X",)

    def test_vacuum_is_not_flagged(self):
        assert quadrature_variances(np.diag([0.5, 0.5, 0.5, 0.5])).squeezed == ()

    def test_multiple_flags(self):
        qv = quadrature_variances(np.diag([0.3, 0.8, 0.2, 0.9]))
        assert qv.squeezed == ("X", "Q")


class TestPhysicality:
    def test_vacuum_saturates_uncertainty(self):
        assert abs(physicality_min_eig(0.5 * np.eye(4))) < 1e-12

    def test_thermal_saturates_only_optical_block(self):
        # optical block is vacuum (eig 0); heating both modes lifts the floor
        assert abs(physicality_min_eig(thermal_covariance(10.0))) < 1e-12
        assert physicality_min_eig(np.diag([1.0, 1.0, 10.5, 10.5])) > 0.4

    def test_subvacuum_isotropic_is_unphysical(self):
        assert physicality_min_eig(0.4 * np.eye(4)) < -0.05

    def test_same_bits_as_rebuilt_symplectic_form(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            S = rng.standard_normal((4, 4)) * 10.0 ** rng.uniform(-3, 3)
            V = S @ S.T + 0.5 * np.eye(4)
            ref = np.min(np.linalg.eigvalsh(V.astype(complex) + 0.5j * symplectic_form()))
            assert physicality_min_eig(V) == float(ref)

    def test_symplectic_form_is_antisymmetric(self):
        O = symplectic_form()
        np.testing.assert_array_equal(O, -O.T)
        np.testing.assert_array_equal(O @ O, -np.eye(4))


class TestRwaInteraction:
    def test_red_sideband_is_beam_splitter(self):
        r = rwa_interaction(-1.0, 1.0, 0.15, 0.05)
        assert r.interaction_kind == BEAM_SPLITTER

    def test_blue_sideband_is_squeezer(self):
        r = rwa_interaction(1.0, 1.0, 0.15, 0.05)
        assert r.interaction_kind == TWO_MODE_SQUEEZER

    def test_resonant_drive_is_off_resonant(self):
        r = rwa_interaction(0.0, 1.0, 0.15, 0.05)
        assert r.interaction_kind == OFF_RESONANT

    def test_default_tolerance_is_half_linewidth(self):
        assert rwa_interaction(-1.07, 1.0, 0.15, 0.05).interaction_kind == BEAM_SPLITTER
        assert rwa_interaction(-1.08, 1.0, 0.15, 0.05).interaction_kind == OFF_RESONANT

    def test_custom_tolerance(self):
        r = rwa_interaction(-1.3, 1.0, 0.15, 0.05, tol_res=0.5)
        assert r.interaction_kind == BEAM_SPLITTER

    def test_resolved_sideband_flag(self):
        assert rwa_interaction(-1.0, 1.0, 0.05, 0.01).resolved_sideband
        assert not rwa_interaction(-1.0, 1.0, 0.15, 0.01).resolved_sideband

    def test_overlapping_tolerance_is_ambiguous(self):
        with pytest.raises(AmbiguousRegimeError):
            rwa_interaction(0.0, 1.0, 0.15, 0.05, tol_res=1.5)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            rwa_interaction(-1.0, 0.0, 0.15, 0.05)
        with pytest.raises(ValueError):
            rwa_interaction(-1.0, 1.0, 0.15, -0.05)
        with pytest.raises(ValueError):
            rwa_interaction(-1.0, 1.0, 0.15, 0.05, tol_res=0.0)
