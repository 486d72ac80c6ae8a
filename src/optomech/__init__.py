"""Classical and linearized-quantum dynamics of a driven optomechanical cavity."""

from types import ModuleType as _ModuleType

from .model import (
    CavityGeometry,
    GeometryCoupling,
    SteadyState,
    SystemParams,
    beam_radiation_force,
    coupling_from_geometry,
    mean_thermal_occupancy,
    photon_momentum_kick,
    validate_params,
)
from .stability import characteristic_coefficients, routh_hurwitz_stable
from .classical import (
    BistabilityBranch,
    MeanFieldTrajectory,
    RegimeSummary,
    StaticPotentialModel,
    StaticPotentialResult,
    SteadyStateGrid,
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
from .quantum import (
    CovarianceTrajectory,
    QuadratureVariances,
    RegimeReport,
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

# the imports above also bind the submodules, which are not part of the API
__all__ = [n for n in dir() if not n.startswith("_") and not isinstance(globals()[n], _ModuleType)]
