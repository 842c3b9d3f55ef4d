#!/usr/bin/env python3
"""Track the discrete state multiplier on manufactured problems.

Solves a seeded manufactured problem with an exactly active mean
constraint on a sequence of uniformly refined meshes and prints the
recovered multiplier against the designed one.
"""

import argparse

from morley_ocp import (initial_mesh, manufactured, solve_on_mesh,
                        uniform_refine)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=13)
    ap.add_argument("--levels", type=int, default=5)
    args = ap.parse_args()

    prob = manufactured(args.seed, active_state=True)
    mu_star = prob.multipliers["mu"]
    print(f"designed multiplier mu* = {mu_star:.12f}")
    mesh = initial_mesh(0.0, 1.0, 2)
    for level in range(args.levels):
        sol, *_ = solve_on_mesh(prob, mesh)
        print(f"level {level}: dofs={sol.coefficients.size:7d} "
              f"mu_h={sol.mu:.12f} "
              f"|mu_h - mu*|={abs(sol.mu - mu_star):.3e} "
              f"state_active={bool(sol.active[0])}")
        mesh = uniform_refine(mesh, 1)


if __name__ == "__main__":
    main()
