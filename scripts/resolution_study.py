#!/usr/bin/env python3
"""Grid-resolution study of the two computed critical values.

For each resolution: the global minimum of the coercive form at twice the
measured threshold parameter, and the saddle level of the mountain form at
parameter 1, each followed by its solver's iteration count and termination,
so grid independence of both levels and iteration counts shows at a glance.
Prints a small table; no files are written.
"""
import time

import numpy as np

import doublephase as dp
from doublephase.solvers import (
    SolverOptions,
    SubBox,
    bump_function,
    lambda_star_search,
    minimize_energy,
    mountain_pass,
)
from doublephase.spaces import sobolev_norm

RESOLUTIONS = (8, 12, 16, 20)
LAM_GRID = np.geomspace(1e-2, 1e4, 361)

def _run(result) -> str:
    return f"{result.iterations}/{result.termination}"


if __name__ == "__main__":
    print(f"{'res':>4} {'lam_star':>10} {'min energy':>12} {'min run':>14} "
          f"{'saddle':>10} {'saddle run':>14} {'|u_min|':>9} {'|u_mp|':>9} {'time':>6}")
    for res in RESOLUTIONS:
        t0 = time.time()
        grid = dp.DomainGrid(3, (res,) * 3)
        exps = dp.build_exponent_set("2", "2 + 0.5*sin(pi*x1)", "4", grid)
        bump = bump_function(grid, 2.0, SubBox.centered((0.5, 0.5, 0.5), 0.5))
        star = lambda_star_search(exps, bump, LAM_GRID)
        low = minimize_energy(2.0 * star.lam_star, exps, bump.fn, SolverOptions())
        saddle = mountain_pass(1.0, exps, bump.fn, SolverOptions())
        print(
            f"{res:>4} {star.lam_star:>10.4f} {low.energy.total:>12.2f} {_run(low):>14} "
            f"{saddle.energy.total:>10.4f} {_run(saddle):>14} "
            f"{sobolev_norm(low.u, exps.pmax):>9.3f} "
            f"{sobolev_norm(saddle.u, exps.pmax):>9.3f} {time.time() - t0:>5.1f}s"
        )
