#!/usr/bin/env python3
"""Grid-resolution study of the two computed critical values.

The experiment is ``scripts/default.cfg`` (exponents, bump, lambda grid and
solver options), read by :func:`load_config`; only the resolution varies.
For each resolution: the global minimum of the coercive form at twice the
measured threshold parameter, and the saddle level of the mountain form at
parameter 1 from the bump, each followed by its solver's iteration count
and termination, so grid independence of both levels and iteration counts
shows at a glance.  Prints a small table; no files are written.
"""
import dataclasses
import time
from pathlib import Path

from doublephase.config import load_config
from doublephase.solvers import bump_function, lambda_star_search, minimize_energy, mountain_pass
from doublephase.spaces import sobolev_norm

RESOLUTIONS = (8, 12, 16, 20)
CONFIG = Path(__file__).resolve().parent / "default.cfg"


def _run(result) -> str:
    return f"{result.iterations}/{result.termination}"


if __name__ == "__main__":
    default = load_config(CONFIG)
    print(f"{'res':>4} {'lam_star':>10} {'min energy':>12} {'min run':>14} "
          f"{'saddle':>10} {'saddle run':>14} {'|u_min|':>9} {'|u_mp|':>9} {'time':>6}")
    for res in RESOLUTIONS:
        t0 = time.time()
        cfg = dataclasses.replace(default, res=(res,) * default.dim)
        exps = cfg.exponents()
        bump = bump_function(exps.grid, cfg.t0, cfg.bump_box())
        star = lambda_star_search(exps, bump, cfg.lam_grid())
        low = minimize_energy(2.0 * star.lambda_star, exps, bump.fn, cfg.solver_options())
        saddle = mountain_pass(1.0, exps, bump.fn, cfg.solver_options())
        print(
            f"{res:>4} {star.lambda_star:>10.4f} {low.energy.total:>12.2f} {_run(low):>14} "
            f"{saddle.energy.total:>10.4f} {_run(saddle):>14} "
            f"{sobolev_norm(low.u, exps.pmax):>9.3f} "
            f"{sobolev_norm(saddle.u, exps.pmax):>9.3f} {time.time() - t0:>5.1f}s"
        )
