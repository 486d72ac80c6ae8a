import dataclasses
import math
import random
import re
import types
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optomech.model import (
    CavityGeometry,
    SystemParams,
    beam_radiation_force,
    coupling_from_geometry,
    mean_thermal_occupancy,
    photon_momentum_kick,
    validate_params,
)
from optomech.errors import SimulationError, StepSizeError
from optomech.rk4 import step_times
import optomech
from optomech import classical, quantum

VALID = SystemParams(kappa=0.15, gamma=0.005, g0=0.003, Delta0=-1.0, A_l=5.0)


def test_validate_returns_instance():
    assert validate_params(VALID) is VALID


@pytest.mark.parametrize("field", ["kappa", "gamma", "omega_m", "m"])
@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_positive_fields_rejected(field, bad):
    params = dataclasses.replace(VALID, **{field: bad})
    with pytest.raises(ValueError, match=field):
        validate_params(params)


@pytest.mark.parametrize("field", ["g0", "A_l", "n_th"])
def test_nonnegative_fields_reject_negatives(field):
    params = dataclasses.replace(VALID, **{field: -1e-9})
    with pytest.raises(ValueError, match=field):
        validate_params(params)
    # zero is allowed
    validate_params(dataclasses.replace(VALID, **{field: 0.0}))


def test_detuning_any_sign_but_finite():
    validate_params(dataclasses.replace(VALID, Delta0=3.0))
    validate_params(dataclasses.replace(VALID, Delta0=-3.0))
    with pytest.raises(ValueError, match="Delta0"):
        validate_params(dataclasses.replace(VALID, Delta0=float("nan")))


def test_non_numeric_rejected():
    with pytest.raises(ValueError, match="kappa"):
        validate_params(dataclasses.replace(VALID, kappa="0.15"))
    with pytest.raises(ValueError, match="n_th"):
        validate_params(dataclasses.replace(VALID, n_th=True))


@given(
    kappa=st.floats(1e-6, 1e3),
    gamma=st.floats(1e-6, 1e3),
    g0=st.floats(0, 10),
    Delta0=st.floats(-100, 100),
    A_l=st.floats(0, 1e4),
)
@settings(max_examples=100)
def test_validate_accepts_physical_region(kappa, gamma, g0, Delta0, A_l):
    p = SystemParams(kappa=kappa, gamma=gamma, g0=g0, Delta0=Delta0, A_l=A_l)
    assert validate_params(p) is p


class TestThermalOccupancy:
    def test_oracle_megahertz_at_ten_millikelvin(self):
        # 1 MHz mechanical mode in a 10 mK bath
        n = mean_thermal_occupancy(2 * math.pi * 1e6, 0.010)
        assert n == pytest.approx(207.8665911700449616, rel=1e-12)
        assert n == pytest.approx(2.08e2, rel=1e-3)

    def test_zero_temperature_exact(self):
        assert mean_thermal_occupancy(2 * math.pi * 1e6, 0.0) == 0.0

    def test_monotone_in_temperature(self):
        temps = np.linspace(1e-3, 1.0, 50)
        occ = [mean_thermal_occupancy(2 * math.pi * 1e6, t) for t in temps]
        assert all(b > a for a, b in zip(occ, occ[1:]))

    def test_classical_limit(self):
        # k_B T >> hbar omega: n_th -> k_B T / (hbar omega) - 1/2
        from scipy.constants import hbar, k

        omega, T = 2 * math.pi * 1e6, 300.0
        expected = k * T / (hbar * omega) - 0.5
        assert mean_thermal_occupancy(omega, T) == pytest.approx(expected, rel=1e-6)

    def test_extreme_ratio_does_not_overflow(self):
        assert mean_thermal_occupancy(2 * math.pi * 1e15, 1e-6) == 0.0

    @given(omega=st.floats(1e3, 1e16), T=st.floats(0, 1e4))
    @settings(max_examples=100)
    def test_nonnegative(self, omega, T):
        assert mean_thermal_occupancy(omega, T) >= 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="omega_m"):
            mean_thermal_occupancy(0.0, 1.0)
        with pytest.raises(ValueError, match="T"):
            mean_thermal_occupancy(1.0, -1.0)

    @pytest.mark.parametrize(
        "omega, T, name",
        [
            (1.0, math.inf, "T"),
            (1.0, math.nan, "T"),
            (math.inf, 1.0, "omega_m"),
            (math.nan, 1.0, "omega_m"),
            (1e-10, 1e303, "occupancy"),  # hbar omega / k_B T underflows to 0
            (1e-10, 1e290, "occupancy"),  # 1 / expm1 of a subnormal overflows
        ],
    )
    def test_non_finite_rejected(self, omega, T, name):
        with pytest.raises(ValueError, match=name):
            mean_thermal_occupancy(omega, T)


class TestGeometry:
    # 1 cm cavity, 1064 nm light, 1 ng mirror oscillating at 1 MHz
    GEOM = CavityGeometry(L=0.01, lambda_l=1.064e-6, m_eff=1e-12, omega_m_si=2 * math.pi * 1e6)

    def test_coupling_oracle(self):
        c = coupling_from_geometry(self.GEOM)
        assert c.G == pytest.approx(1.7703492173955386e17, rel=1e-12)
        assert c.x_zp == pytest.approx(2.8968976304297555e-15, rel=1e-12)
        assert c.g0 == pytest.approx(512.85204529063083, rel=1e-12)
        assert c.fsr == pytest.approx(94182578365.442657, rel=1e-12)

    def test_coupling_magnitudes(self):
        c = coupling_from_geometry(self.GEOM)
        assert 1e-15 < c.x_zp < 1e-14
        assert c.g0 == pytest.approx(5.1e2, rel=0.01)

    def test_g0_is_product(self):
        c = coupling_from_geometry(self.GEOM)
        assert c.g0 == c.G * c.x_zp

    def test_invalid_geometry(self):
        with pytest.raises(ValueError, match="L"):
            coupling_from_geometry(dataclasses.replace(self.GEOM, L=0.0))
        with pytest.raises(ValueError, match="m_eff"):
            coupling_from_geometry(dataclasses.replace(self.GEOM, m_eff=-1.0))

    def test_underflowing_zero_point_denominator_raises(self):
        # 2 m_eff omega_m_si underflows to 0 for a finite positive omega_m_si
        geometry = CavityGeometry(L=1e-3, lambda_l=1e-6, m_eff=1e-12, omega_m_si=5e-324)
        with pytest.raises(SimulationError, match=re.escape(repr(geometry))):
            coupling_from_geometry(geometry)

    @pytest.mark.parametrize("field", ["lambda_l", "L"])
    def test_overflowing_coupling_raises(self, field):
        # 2 pi c / lambda_l overflows, so G = g0 = inf; a tiny L also sends fsr to inf
        geometry = dataclasses.replace(self.GEOM, **{field: 5e-324})
        with pytest.raises(SimulationError, match=re.escape(repr(geometry))) as info:
            coupling_from_geometry(geometry)
        assert "is not finite" in str(info.value)


class TestConstants:
    def test_equal_scipy_constants(self):
        import scipy.constants

        from optomech import model

        assert model._c == scipy.constants.c
        assert model._hbar == scipy.constants.hbar
        assert model._k_B == scipy.constants.k


class TestRadiationPressure:
    def test_momentum_kick_oracle(self):
        from scipy.constants import c, h

        E = h * c / 1.064e-6  # one 1064 nm photon
        assert photon_momentum_kick(E) == pytest.approx(1.2455019078947367e-27, rel=1e-12)
        assert photon_momentum_kick(E) == pytest.approx(2 * h / 1.064e-6, rel=1e-15)

    def test_beam_force_oracle(self):
        F = beam_radiation_force(1361.0)  # solar-constant power on 1 m^2
        assert F == pytest.approx(9.0796146712936992e-06, rel=1e-12)
        assert 5e-6 < F < 5e-5

    def test_zero_inputs(self):
        assert photon_momentum_kick(0.0) == 0.0
        assert beam_radiation_force(0.0) == 0.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            photon_momentum_kick(-1.0)
        with pytest.raises(ValueError):
            beam_radiation_force(-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "helper, name", [(photon_momentum_kick, "E_photon"), (beam_radiation_force, "P")]
    )
    def test_non_finite_rejected(self, helper, name, bad):
        with pytest.raises(ValueError, match=name):
            helper(bad)

    @pytest.mark.parametrize("helper", [photon_momentum_kick, beam_radiation_force])
    def test_same_bits_and_finite_at_the_top_of_the_float_range(self, helper):
        # E / (c/2) rounds 2E/c once, as 2.0 * E / c did wherever 2E is finite;
        # at 1.7e308, 2E overflows and the result is the exact quotient rounded
        rng = random.Random(helper.__name__)
        draws = [math.ldexp(rng.random(), rng.randint(-1074, 1023)) for _ in range(4000)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for E in draws + [5e-324, 2.2250738585072014e-308, 8.98e307]:
                assert helper(E) == 2.0 * E / 299792458.0, E
            assert helper(1.7e308) == float(Fraction(1.7e308) * 2 / 299792458)
            assert math.isfinite(helper(1.7976931348623157e308))

    @given(p1=st.floats(0, 1e6), p2=st.floats(0, 1e6))
    @settings(max_examples=50)
    def test_force_linear_in_power(self, p1, p2):
        total = beam_radiation_force(p1) + beam_radiation_force(p2)
        assert beam_radiation_force(p1 + p2) == pytest.approx(total, rel=1e-12, abs=1e-300)


class TestStepTimes:
    def test_steps_of_dt_then_a_short_one(self):
        assert step_times(1.0, 0.25, 0.1).tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert step_times(1.1, 0.5, 0.1).tolist() == [0.0, 0.5, 1.0, 1.1]

    @pytest.mark.parametrize("t_end", [1e-13, 1e-300, 0.004])
    def test_end_below_one_step_is_one_short_step(self, t_end):
        assert step_times(t_end, 0.01, 1.0).tolist() == [0.0, t_end]

    def test_step_count_beyond_the_float_range_raises(self):
        # t_end / dt overflows to inf: step_times and both integrators name the two
        for entry in (unit_rate_step_times, mean_field_run, covariance_run):
            with pytest.raises(StepSizeError, match=re.escape("t_end = 1.0, dt = 5e-324")):
                entry(1.0, 5e-324)
        with warnings.catch_warnings():  # numpy scalars overflow without a warning too
            warnings.simplefilter("error")
            with pytest.raises(StepSizeError, match=re.escape("t_end / dt overflows")):
                step_times(np.float64(1.0), np.float64(5e-324), 1.0)


PUBLIC_NAMES = [
    "BistabilityBranch", "CavityGeometry", "CovarianceTrajectory", "GeometryCoupling",
    "MeanFieldTrajectory", "QuadratureVariances", "RegimeReport", "RegimeSummary",
    "StaticPotentialModel", "StaticPotentialResult", "SteadyState", "SteadyStateGrid",
    "SystemParams", "beam_radiation_force", "characteristic_coefficients",
    "classify_regime", "coupling_from_geometry", "cubic_discriminant", "diffusion_matrix",
    "drift_matrix", "drift_matrix_from_rates", "effective_susceptibility",
    "hysteresis_traces", "integrate_covariance", "integrate_mean_field",
    "lorentzian_comb_model", "mean_output_field", "mean_thermal_occupancy",
    "mechanical_susceptibility", "optical_spring_shift", "optical_susceptibility",
    "optomechanical_damping", "photon_momentum_kick", "physicality_min_eig",
    "quadrature_variances", "radiation_force", "radiation_force_gradient",
    "radiation_potential", "routh_hurwitz_stable", "rwa_interaction", "self_energy",
    "solve_intracavity_occupancy", "stability_map", "static_equilibria",
    "static_potential", "steady_covariance", "steady_state_grid", "steady_states",
    "sweep_bistability", "symplectic_form", "thermal_covariance", "validate_params",
]


def test_star_import_binds_no_module():
    # a module in __all__ would rebind a caller's own "model" or "stability"
    assert not [n for n in optomech.__all__ if isinstance(getattr(optomech, n), types.ModuleType)]
    assert optomech.__all__ == PUBLIC_NAMES


# Every scalar input check of the package: (entry, input name, bound, valid inputs).
# entry(**{**valid, name: value}) passes value as that input, the others valid.
GEOMETRY = dict(L=1e-2, lambda_l=1064e-9, m_eff=1e-12, omega_m_si=2 * math.pi * 1e6)
COMB = dict(k_HO=1.0, F0=0.5, wavelength=1.0, finesse=10.0, x_min=-2.0, x_max=2.0)
RATES = dict(g_s=0.01, Delta=np.linspace(-2.0, 2.0, 5), kappa=0.15, omega_m=1.0)
RWA = dict(Delta=-1.0, omega_m=1.0, kappa=0.15, g_s=0.01)
SAMPLE_A = quantum.drift_matrix_from_rates(0.5, 0.5, 1.0, -1.0, 0.05)
SAMPLE_D = np.diag([0.25, 0.25, 2.75, 2.75])
FIELD_BOUNDS = {
    "kappa": "> 0", "gamma": "> 0", "omega_m": "> 0", "m": "> 0",
    "g0": ">= 0", "A_l": ">= 0", "n_th": ">= 0", "Delta0": "",
}


def validate_fields(**fields):
    return validate_params(SystemParams(**fields))


def geometry_coupling(**lengths):
    return coupling_from_geometry(CavityGeometry(**lengths))


def stability_map_amplitude(A_l):
    return classical.stability_map(VALID, np.array([-1.0, 0.0]), np.array([1.0, A_l]))


def unit_rate_step_times(t_end, dt):
    return step_times(t_end, dt, 1.0)


def mean_field_run(t_end, dt):
    return classical.integrate_mean_field(VALID, 0j, 0j, t_end, dt)


def covariance_run(t_end, dt):
    V0 = quantum.thermal_covariance(5.0)
    return quantum.integrate_covariance(SAMPLE_A, SAMPLE_D, V0, t_end, dt)


SCALAR_SITES = [
    *((validate_fields, name, bound, dataclasses.asdict(VALID)) for name, bound in FIELD_BOUNDS.items()),
    (mean_thermal_occupancy, "omega_m", "> 0", dict(omega_m=1e6, T=0.01)),
    (mean_thermal_occupancy, "T", ">= 0", dict(omega_m=1e6, T=0.01)),
    *((geometry_coupling, name, "> 0", GEOMETRY) for name in GEOMETRY),
    (photon_momentum_kick, "E_photon", ">= 0", dict(E_photon=1e-19)),
    (beam_radiation_force, "P", ">= 0", dict(P=1e-3)),
    (classical.optical_susceptibility, "kappa", "> 0", dict(omega=0.5, Delta=-1.0, kappa=0.15)),
    *(
        (classical.mechanical_susceptibility, name, "> 0", dict(omega=0.5, m=1.0, omega_m=1.0, gamma=0.01))
        for name in ("m", "omega_m", "gamma")
    ),
    *(
        (entry, name, "> 0", RATES)
        for entry in (classical.optomechanical_damping, classical.optical_spring_shift)
        for name in ("kappa", "omega_m")
    ),
    *((classical.lorentzian_comb_model, name, "> 0", COMB) for name in ("k_HO", "wavelength", "finesse")),
    (classical.lorentzian_comb_model, "F0", ">= 0", COMB),
    (classical.mean_output_field, "kappa", "> 0", dict(alpha_s=1 + 1j, kappa=0.15)),
    (stability_map_amplitude, "A_l", ">= 0", dict(A_l=5.0)),
    *((quantum.rwa_interaction, name, bound, RWA) for name, bound in (
        ("Delta", ""), ("omega_m", "> 0"), ("kappa", "> 0"), ("g_s", ">= 0"),
    )),
    *(
        (entry, name, "> 0", dict(t_end=1.0, dt=0.01))
        for entry in (unit_rate_step_times, mean_field_run, covariance_run)
        for name in ("t_end", "dt")
    ),
]
SITE_IDS = [f"{entry.__name__}-{name}" for entry, name, _, _ in SCALAR_SITES]
VIOLATORS = {"> 0": [0.0, -1.0], ">= 0": [-5e-324, -1.0], "": []}


class TestScalarInputCheck:
    """Every scalar input must be finite and meet its bound, else a ValueError names it."""

    @pytest.mark.parametrize("entry, name, bound, valid", SCALAR_SITES, ids=SITE_IDS)
    def test_rejected_input_is_named(self, entry, name, bound, valid):
        clause = f" and {bound}" if bound else ""
        for value in [math.nan, math.inf, -math.inf, *VIOLATORS[bound]]:
            message = f"{name} must be finite{clause} (got {value!r})"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                entry(**{**valid, name: value})

    @pytest.mark.parametrize("entry, name, bound, valid", SCALAR_SITES, ids=SITE_IDS)
    def test_valid_input_passes(self, entry, name, bound, valid):
        for value in (valid[name], 0.0) if bound == ">= 0" else (valid[name],):
            entry(**{**valid, name: value})
