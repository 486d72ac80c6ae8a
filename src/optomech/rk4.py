"""Time grid and step bound shared by the fixed-step RK4 integrators."""

from __future__ import annotations

import numpy as np

from .errors import StepSizeError

# Fraction of the fastest system time scale a single step may cover.
STEP_BOUND_FACTOR = 0.05


def step_times(t_end: float, dt: float, fastest: float) -> np.ndarray:
    """Output grid 0, dt, 2 dt, ..., ending exactly at t_end.

    dt must satisfy dt <= STEP_BOUND_FACTOR / fastest, the fastest rate of
    the system (StepSizeError otherwise; no bound applies when fastest is
    not > 0).  If dt does not divide t_end, a shorter final step closes the
    gap; if no full step fits, the grid is [0, t_end].
    """
    if fastest > 0 and dt > STEP_BOUND_FACTOR / fastest:
        raise StepSizeError(
            f"dt = {dt:g} exceeds the step bound {STEP_BOUND_FACTOR / fastest:g} "
            f"for the fastest rate {fastest:g}"
        )
    if not dt > 0:
        raise ValueError(f"dt must be > 0 (got {dt!r})")
    if not t_end > 0:
        raise ValueError(f"t_end must be > 0 (got {t_end!r})")
    n = int(np.floor(t_end / dt + 1e-9))
    times = dt * np.arange(n + 1, dtype=float)
    if n and t_end - times[-1] <= 1e-12 * max(1.0, t_end):
        times[-1] = t_end
    else:
        times = np.append(times, t_end)
    return times
