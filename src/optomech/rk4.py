"""Time grid and step bound shared by the fixed-step RK4 integrators."""

from __future__ import annotations

import numpy as np

from .errors import StepSizeError
from .model import _checked_number

# Fraction of the fastest system time scale a single step may cover.
STEP_BOUND_FACTOR = 0.05


def step_times(t_end: float, dt: float, fastest: float) -> np.ndarray:
    """Output grid 0, dt, 2 dt, ..., ending exactly at t_end.

    ValueError unless t_end and dt are finite and > 0; StepSizeError unless
    dt <= STEP_BOUND_FACTOR / fastest, the fastest rate of the system (no
    bound applies when fastest is not > 0), and t_end / dt is finite.  A
    shorter final step closes any gap to t_end; with no full step, [0, t_end].
    """
    _checked_number("dt", dt, "> 0")
    _checked_number("t_end", t_end, "> 0")
    if fastest > 0 and dt > STEP_BOUND_FACTOR / fastest:
        raise StepSizeError(
            f"dt = {dt:g} exceeds the step bound {STEP_BOUND_FACTOR / fastest:g} "
            f"for the fastest rate {fastest:g}"
        )
    steps = float(t_end) / float(dt)  # Python floats: an overflow gives inf, no warning
    if not np.isfinite(steps):
        raise StepSizeError(f"t_end / dt overflows for t_end = {t_end!r}, dt = {dt!r}")
    n = int(np.floor(steps + 1e-9))
    times = dt * np.arange(n + 1, dtype=float)
    if n and t_end - times[-1] <= 1e-12 * max(1.0, t_end):
        times[-1] = t_end
    else:
        times = np.append(times, t_end)
    return times
