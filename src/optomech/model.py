"""Core parameter types and single-photon radiation-pressure helpers.

The simulation modules work in dimensionless units: the mechanical frequency
sets the time scale (omega_m = 1 by default) and quadratures are defined so
that vacuum variance is 1/2.  SI units enter only through the helpers that
map cavity geometry and bath temperature onto the dimensionless parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SimulationError

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


def _checked_number(name: str, value, bound: str = ""):
    """value, if it is finite and meets bound: "> 0", ">= 0" or "" for none.

    Otherwise ValueError "<name> must be finite and <bound> (got <value>)".
    """
    if not math.isfinite(value) or (bound and not (value > 0 or (value == 0 and bound == ">= 0"))):
        raise ValueError(f"{name} must be finite{' and ' + bound if bound else ''} (got {value!r})")
    return value


# The bound of each SystemParams field (_checked_number).
_FIELD_BOUNDS = dict(kappa="> 0", gamma="> 0", omega_m="> 0", m="> 0",
                     g0=">= 0", A_l=">= 0", n_th=">= 0", Delta0="")


def validate_params(params: SystemParams) -> SystemParams:
    """Check physical-admissibility of a SystemParams instance.

    Returns the validated instance unchanged; raises ValueError naming the
    first offending field otherwise.  Non-finite values are rejected everywhere.
    """
    for name, bound in _FIELD_BOUNDS.items():
        value = getattr(params, name)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"{name} must be a real number (got {value!r})")
        _checked_number(name, value, bound)
    return params


def mean_thermal_occupancy(omega_m: float, T: float) -> float:
    """Bose-Einstein occupancy 1 / (exp(hbar omega_m / k_B T) - 1).

    omega_m is an SI angular frequency [rad/s], T a temperature [K].
    T = 0 returns exactly 0.  An occupancy beyond the float range (k_B T
    above ~1e308 hbar omega_m) raises ValueError.
    """
    _checked_number("omega_m", omega_m, "> 0")
    _checked_number("T", T, ">= 0")
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
    """Map cavity geometry to frequency pull, zero-point motion and g0.

    SimulationError names the geometry where G, g0 or fsr has no finite value.
    """
    for name in ("L", "lambda_l", "m_eff", "omega_m_si"):
        _checked_number(name, getattr(geometry, name), "> 0")
    omega_o = 2.0 * math.pi * _c / geometry.lambda_l
    G = omega_o / geometry.L
    denominator = 2.0 * geometry.m_eff * geometry.omega_m_si
    if denominator == 0.0:
        raise SimulationError(f"2 m_eff omega_m_si underflows to 0 for {geometry!r}")
    x_zp = math.sqrt(_hbar / denominator)
    g0, fsr = G * x_zp, math.pi * _c / geometry.L
    if not all(map(math.isfinite, (G, g0, fsr))):
        raise SimulationError(
            "G = 2 pi c / (lambda_l L), g0 = G x_zp or fsr = pi c / L"
            f" is not finite for {geometry!r}"
        )
    return GeometryCoupling(G=G, x_zp=x_zp, g0=g0, fsr=fsr)


def photon_momentum_kick(E_photon: float) -> float:
    """Momentum transferred to a perfect mirror by one reflected photon, 2E/c.

    E / (c/2) is 2E/c rounded once (c/2 is exact), and finite where 2E overflows.
    """
    return _checked_number("E_photon", E_photon, ">= 0") / (_c / 2.0)


def beam_radiation_force(P: float) -> float:
    """Time-averaged radiation force of a beam of power P on a perfect mirror, 2P/c."""
    return _checked_number("P", P, ">= 0") / (_c / 2.0)
