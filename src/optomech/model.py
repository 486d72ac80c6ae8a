"""Core parameter types and single-photon radiation-pressure helpers.

The simulation modules work in dimensionless units: the mechanical frequency
sets the time scale (omega_m = 1 by default) and quadratures are defined so
that vacuum variance is 1/2.  SI units enter only through the helpers that
map cavity geometry and bath temperature onto the dimensionless parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# CODATA 2018 / SI 2019: c, h and k_B are exact by definition.
_c = 299792458.0                        # speed of light, m/s
_hbar = 6.62607015e-34 / (2 * math.pi)  # reduced Planck constant, J s
_k_B = 1.380649e-23                     # Boltzmann constant, J/K


@dataclass(frozen=True)
class SystemParams:
    """Dimensionless parameters of a driven single-mode optomechanical cavity.

    Rates and detunings are expressed in units of the mechanical frequency,
    the drive amplitude in units such that |alpha|^2 is a photon number.
    """

    kappa: float          # optical amplitude decay rate (> 0)
    gamma: float          # mechanical damping rate (> 0)
    g0: float             # single-photon optomechanical coupling (>= 0)
    Delta0: float         # bare detuning omega_l - omega_o (any sign)
    A_l: float            # laser drive amplitude (>= 0, real)
    omega_m: float = 1.0  # mechanical resonance frequency (> 0)
    n_th: float = 0.0     # mean thermal phonon occupancy of the bath (>= 0)
    m: float = 1.0        # effective mass for dimensionful susceptibilities (> 0)


@dataclass(frozen=True)
class CavityGeometry:
    """SI-unit description of a Fabry-Perot cavity with one movable mirror."""

    L: float           # cavity length [m]
    lambda_l: float    # laser wavelength [m]
    m_eff: float       # effective mirror mass [kg]
    omega_m_si: float  # mechanical angular frequency [rad/s]


@dataclass(frozen=True)
class GeometryCoupling:
    """Derived coupling constants for a CavityGeometry."""

    G: float     # frequency pull per displacement omega_o / L [rad/s/m]
    x_zp: float  # zero-point displacement sqrt(hbar / 2 m omega_m) [m]
    g0: float    # single-photon coupling G * x_zp [rad/s]
    fsr: float   # free spectral range pi c / L [rad/s]


@dataclass(frozen=True)
class SteadyState:
    """Classical fixed point of the mean-field equations."""

    alpha_s: complex   # intracavity field amplitude
    beta_s: complex    # mechanical amplitude
    N_o: float         # intracavity photon number |alpha_s|^2
    Delta_eff: float   # effective detuning Delta0 + 2 g0 Re(beta_s)
    stable: bool       # Routh-Hurwitz verdict for the linearization


_POSITIVE_FIELDS = ("kappa", "gamma", "omega_m", "m")
_NONNEGATIVE_FIELDS = ("g0", "A_l", "n_th")


def validate_params(params: SystemParams) -> SystemParams:
    """Check physical-admissibility of a SystemParams instance.

    Returns the validated instance unchanged; raises ValueError naming the
    offending field otherwise.  Non-finite values are rejected everywhere.
    """
    for name in _POSITIVE_FIELDS + _NONNEGATIVE_FIELDS + ("Delta0",):
        value = getattr(params, name)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"{name} must be a real number (got {value!r})")
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite (got {value!r})")
    for name in _POSITIVE_FIELDS:
        value = getattr(params, name)
        if not value > 0:
            raise ValueError(f"{name} must be > 0 (got {value!r})")
    for name in _NONNEGATIVE_FIELDS:
        value = getattr(params, name)
        if value < 0:
            raise ValueError(f"{name} must be >= 0 (got {value!r})")
    return params


def mean_thermal_occupancy(omega_m: float, T: float) -> float:
    """Bose-Einstein occupancy 1 / (exp(hbar omega_m / k_B T) - 1).

    omega_m is an SI angular frequency [rad/s], T a temperature [K].
    T = 0 returns exactly 0.  An occupancy beyond the float range (k_B T
    above ~1e308 hbar omega_m) raises ValueError.
    """
    if not (math.isfinite(omega_m) and omega_m > 0):
        raise ValueError(f"omega_m must be > 0 and finite (got {omega_m!r})")
    if not (math.isfinite(T) and T >= 0):
        raise ValueError(f"T must be >= 0 and finite (got {T!r})")
    if T == 0:
        return 0.0
    denom = _k_B * T
    if denom == 0.0:  # k_B T underflows for T below ~1e-300 K
        return 0.0
    x = _hbar * omega_m / denom
    if x > 700.0:  # expm1 would overflow; occupancy is e^-x to ~e^-700
        return math.exp(-x)
    occupancy = 1.0 / math.expm1(x) if x > 0.0 else math.inf
    if occupancy == math.inf:
        raise ValueError(f"occupancy at omega_m = {omega_m!r}, T = {T!r} is not finite")
    return occupancy


def coupling_from_geometry(geometry: CavityGeometry) -> GeometryCoupling:
    """Map cavity geometry to frequency pull, zero-point motion and g0."""
    for name in ("L", "lambda_l", "m_eff", "omega_m_si"):
        value = getattr(geometry, name)
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be > 0 and finite (got {value!r})")
    omega_o = 2.0 * math.pi * _c / geometry.lambda_l
    G = omega_o / geometry.L
    x_zp = math.sqrt(_hbar / (2.0 * geometry.m_eff * geometry.omega_m_si))
    return GeometryCoupling(G=G, x_zp=x_zp, g0=G * x_zp, fsr=math.pi * _c / geometry.L)


def photon_momentum_kick(E_photon: float) -> float:
    """Momentum transferred to a perfect mirror by one reflected photon, 2E/c."""
    if not (math.isfinite(E_photon) and E_photon >= 0):
        raise ValueError(f"E_photon must be >= 0 and finite (got {E_photon!r})")
    return 2.0 * E_photon / _c


def beam_radiation_force(P: float) -> float:
    """Time-averaged radiation force of a beam of power P on a perfect mirror, 2P/c."""
    if not (math.isfinite(P) and P >= 0):
        raise ValueError(f"P must be >= 0 and finite (got {P!r})")
    return 2.0 * P / _c
