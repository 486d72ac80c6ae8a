"""Classical and linearized-quantum dynamics of a driven optomechanical cavity."""

from importlib import import_module as _import_module

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
from .stability import (
    characteristic_coefficients,
    hurwitz_quantities,
    routh_hurwitz_stable,
)
from .classical import (
    BistabilityBranch,
    CubicProblem,
    MeanFieldTrajectory,
    RegimeSummary,
    ResponseQuantities,
    StabilityMap,
    StaticPotentialModel,
    StaticPotentialResult,
    SteadyStateGrid,
    classify_regime,
    cubic_discriminant,
    cubic_value,
    effective_susceptibility,
    hysteresis_traces,
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
    static_equilibria,
    static_potential,
    steady_state,
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

# The cli module and its names load on first use (PEP 562), so that
# `python -m optomech.cli` does not find optomech.cli already imported.
_CLI_EXPORTS = ("GridSpec", "ResultTable", "RunSpec", "emit_csv", "load_config", "run_command")

__all__ = [name for name in dir() if not name.startswith("_")] + ["cli", *_CLI_EXPORTS]


def __getattr__(name: str):
    if name == "cli" or name in _CLI_EXPORTS:
        cli = _import_module(".cli", __name__)
        return cli if name == "cli" else getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
