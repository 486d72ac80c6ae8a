"""Exception hierarchy shared across the package.

ConfigError covers everything wrong with user-supplied configuration and maps
to CLI exit code 1.  SimulationError and its subclasses cover numerical
failures during a run and map to exit code 2.  I/O problems are left to the
built-in OSError (exit code 3).
"""


class ConfigError(Exception):
    """Invalid or malformed run configuration."""


class SimulationError(Exception):
    """Base class for numerical failures during a simulation run."""


class RootSolveError(SimulationError):
    """Cubic root finding failed to converge to the requested residual."""


class UnstableSystemError(SimulationError):
    """The drift matrix is not strictly stable, so no steady state exists."""


class SingularSystemError(SimulationError):
    """The Lyapunov system is singular or too ill-conditioned to solve."""


class StepSizeError(SimulationError):
    """Requested integrator step exceeds the stability bound for the system."""


class DivergenceError(SimulationError):
    """A trajectory left the trust region (runaway amplitude)."""


class PoleError(SimulationError):
    """Response function evaluated on top of a pole."""


class AmbiguousRegimeError(SimulationError):
    """Resonance tolerance so large that both sideband conditions hold."""
