#!/usr/bin/env python3
"""Console summary of sideband cooling across the detuning axis.

For a fixed enhanced coupling, sweep the effective detuning and report the
light-induced damping, the optical spring shift, and the steady mechanical
quadrature variance from the Lyapunov solution.  Rows where the linearized
system is unstable are marked instead of reporting a variance.
"""

import argparse
import sys

import numpy as np

from optomech import (
    SystemParams,
    diffusion_matrix,
    drift_matrix_from_rates,
    optical_spring_shift,
    optomechanical_damping,
    routh_hurwitz_stable,
    steady_covariance,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kappa", type=float, default=0.15)
    parser.add_argument("--gamma", type=float, default=0.005)
    parser.add_argument("--g-s", dest="g_s", type=float, default=0.05)
    parser.add_argument("--n-th", dest="n_th", type=float, default=10.0)
    parser.add_argument("--points", type=int, default=17)
    args = parser.parse_args(argv)

    omega_m = 1.0
    D = diffusion_matrix(
        SystemParams(
            kappa=args.kappa, gamma=args.gamma, g0=0.0, Delta0=0.0, A_l=0.0,
            n_th=args.n_th,
        )
    )
    thermal_qq = args.n_th + 0.5

    print(
        f"kappa = {args.kappa}, gamma = {args.gamma}, g_s = {args.g_s}, "
        f"n_th = {args.n_th} (thermal <dQ^2> = {thermal_qq})"
    )
    print(f"{'Delta':>8} {'gamma_om':>12} {'d_omega_m':>12} {'<dQ^2>':>10}")
    for Delta in np.linspace(-2.0, 2.0, args.points):
        gam = optomechanical_damping(args.g_s, Delta, args.kappa, omega_m)
        spring = optical_spring_shift(args.g_s, Delta, args.kappa, omega_m)
        A = drift_matrix_from_rates(args.kappa, args.gamma, omega_m, Delta, args.g_s)
        if routh_hurwitz_stable(A):
            v_qq = f"{steady_covariance(A, D)[2, 2]:10.4f}"
        else:
            v_qq = f"{'unstable':>10}"
        print(f"{Delta:8.3f} {gam:12.3e} {spring:12.3e} {v_qq}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
