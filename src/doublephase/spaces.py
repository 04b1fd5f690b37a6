"""Variable-exponent Lebesgue machinery on the cell measure space.

Modulars integrate the cell-averaged absolute value, so the norm-modular
relations, the Hoelder pairing and the embedding bound hold exactly in the
discrete model (up to roundoff), not just asymptotically; :mod:`verification`
samples them, and this module keeps only the modulars and the norms.  The
Luxemburg norm is a root of the decreasing function log rho(a/e^x), found by
the package's one one-dimensional root finder, :func:`decreasing_root`
(safeguarded Newton in a sign bracket), which also finds the solvers' ray
peaks.  Each norm takes one log pass over the cells and then one exp pass
per Newton step; a constant exponent takes one power pass, and its steps run
on a single term.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NormBracketError
from .exponents import ExponentField
from .grid import DomainGrid, GridFunction, cell_quadrature, gradient_values, node_to_cell

__all__ = [
    "NORM_TOL",
    "NormSolveTrace",
    "decreasing_root",
    "modular",
    "modular_cells",
    "luxemburg_norm",
    "luxemburg_norm_cells",
    "sobolev_norm",
]

# asserted bound on the root residual |rho(a/nu) - 1| of the normalized field;
# the Newton iteration stops at an exact zero of log rho or at a rounding-size
# step, so the realized residual is ~1e-15
NORM_TOL = 1e-10
# cap on the evaluations of one decreasing_root search
_MAX_ITER = 200
# a Newton step landing within this share of the bracket width of the
# bracket's far end (the end the current point is not) takes the midpoint
_END_SHARE = 1e-3
# the largest served field scale is float-max / _SCALE_HEADROOM, so that the
# norm mu = scale * nu stays finite for a normalized norm nu up to 2**60
_SCALE_HEADROOM = 2.0**60


@dataclass
class NormSolveTrace:
    """How a Luxemburg norm was solved.

    ``root`` is the norm, in the units of the field.  ``iterations`` counts
    the evaluations of log rho in :func:`decreasing_root`; each is a pass over
    the cells, except for a constant exponent, whose evaluations read one
    term.
    ``residual`` is |rho(a/nu) - 1| certified on the normalized field
    a = |w|/max|w|, whose norm nu = root/max|w| is what the iteration solves
    for.
    """

    root: float
    iterations: int
    residual: float


def decreasing_root(f) -> tuple[float, float, int]:
    """Root of a decreasing function by safeguarded Newton, from x = 0.

    ``f(x)`` returns (value, slope) with the value decreasing in x; a value
    of +inf or NaN counts as left of the root, -inf as right of it.  Every
    evaluation narrows the sign bracket (lo, hi), which starts open at
    (-inf, inf).  The Newton step -value/slope is kept only inside the
    bracket and away from its far end, the end the current point is not: a
    step within ``_END_SHARE`` of the bracket width of that end would
    evaluate again, nearly, a point already known not to be the root (an
    overflowing one, say, whose Newton model led there before).  Otherwise
    the next point is the bracket midpoint or, while one end is still open,
    a move of 1, 2, 4, ... towards that end.  The search
    stops at an exact zero, at a Newton step or a move of rounding size
    (4 eps max(1, |x|); a Newton step below half an ulp of x would land on x
    itself), or after ``_MAX_ITER`` evaluations.  Newton steps are not
    limited in size: both callers pass a log form (log rho, log(P/N)), on
    which Newton is nearly exact far from the root too.  Returns the
    evaluated x with the smallest |value|, that value and the number of
    evaluations.
    """
    rounding = 4.0 * np.finfo(float).eps
    x, lo, hi = 0.0, -math.inf, math.inf
    best, best_value = x, math.inf
    move = 1.0
    for evals in range(1, _MAX_ITER + 1):
        value, slope = f(x)
        if abs(value) < abs(best_value):
            best, best_value = x, value
        if value == 0.0:
            break
        if value < 0.0:
            hi = x
        else:
            lo = x
        step = -value / slope if slope and math.isfinite(slope) else math.nan
        x_new = x + step
        far = hi if value > 0.0 else lo
        if not lo < x_new < hi or abs(x_new - far) < _END_SHARE * (hi - lo):
            if hi == math.inf:
                x_new, move = lo + move, 2.0 * move
            elif lo == -math.inf:
                x_new, move = hi - move, 2.0 * move
            else:
                x_new = 0.5 * (lo + hi)
        tol = rounding * max(1.0, abs(x))
        if abs(step) <= tol or abs(x_new - x) <= tol:
            break
        x = x_new
    return best, best_value, evals


def modular_cells(grid: DomainGrid, w: np.ndarray, p: ExponentField) -> float:
    """Integral of |w|^p over the cells."""
    with np.errstate(over="ignore"):
        return cell_quadrature(grid, np.abs(w) ** p.values)


def modular(u: GridFunction, p: ExponentField) -> float:
    """Integral of the cell-averaged |u| raised to the cell exponent."""
    return modular_cells(u.grid, node_to_cell(u), p)


def luxemburg_norm_cells(
    grid: DomainGrid, w: np.ndarray, p: ExponentField
) -> tuple[float, NormSolveTrace]:
    """Smallest mu > 0 with modular(w/mu) <= 1, by safeguarded Newton in log mu.

    The scaled modular is continuous and strictly decreasing in mu for w != 0,
    so the root with modular = 1 is unique; w == 0 returns 0 by convention.

    By absolute homogeneity mu = scale * nu, where scale = max|w| and nu is
    the norm of the normalized field a = |w|/scale (max a = 1).  The root is
    solved in x = log nu, so no iterate underflows or overflows:
    :func:`decreasing_root` runs from x = 0 on log rho(a/e^x), which is
    convex and decreasing in x.  The modular is read from a table of terms,
    rho(a/e^x) = vol * sum_k exp(c_k - x p_k), built in one pass over the
    cells: one term per cell, c = p log a (-inf on a zero cell), or, for a
    constant exponent p, the single term c = log(sum a^p).  Each evaluation
    takes t = exp(c - x p) in one exp pass, then rho = vol * sum(t) and
    d log rho/dx = -sum(p t)/sum(t); a constant exponent's evaluations touch
    no cells.  A rho that overflows counts as left of the root, one that
    underflows to 0 as right of it.  Cells are not grouped by exponent value
    before the root is known: a group's sum of a^p can underflow where its
    sum of (a/nu)^p does not.  The constant exponent's single sum holds the
    cell a = 1, so a cell whose a^p underflows is below its rounding.

    |rho(a/nu) - 1| <= NORM_TOL is certified before returning.  Every scale
    from the smallest subnormal double up to float-max/2**60 (about 1.5e290)
    is served; a larger or non-finite scale raises NormBracketError.  A true
    norm below the smallest subnormal double rounds to 0, and a subnormal
    norm carries only the precision of a subnormal.
    """
    a = np.abs(np.asarray(w, dtype=float)).ravel()
    scale = float(a.max())
    if scale == 0.0:
        return 0.0, NormSolveTrace(0.0, 0, 0.0)
    if not math.isfinite(scale * _SCALE_HEADROOM):
        raise NormBracketError(
            f"field scale {scale:.3e} exceeds the served limit "
            f"{np.finfo(float).max / _SCALE_HEADROOM:.3e}"
        )

    a /= scale
    vol = grid.cell_volume
    if p.is_constant():
        exps = np.array([p.lo])
        coefs = np.array([math.log(float(np.sum(a**p.lo)))])
    else:
        exps = p.values.ravel()
        with np.errstate(divide="ignore"):
            coefs = np.log(a, out=a)
        coefs *= exps

    def log_rho(x: float) -> tuple[float, float]:
        """log rho(a/e^x) and its slope in x, from the terms exp(c - x p)."""
        terms = np.exp(coefs - x * exps)
        total = float(terms.sum())
        r = vol * total
        if not 0.0 < r < math.inf:
            return (math.inf if r else -math.inf), math.nan
        # einsum, not a BLAS dot: OpenBLAS splits a long dot across its
        # threads, and the rounding would follow the thread count
        return math.log(r), -float(np.einsum("i,i->", exps, terms)) / total

    with np.errstate(over="ignore"):
        x, value, iters = decreasing_root(log_rho)
    res = abs(math.expm1(value))
    if not res <= NORM_TOL:
        raise NormBracketError(
            f"norm root residual {res:.3e} exceeds {NORM_TOL} after {iters} iterations"
        )
    mu = scale * float(np.exp(x))
    return mu, NormSolveTrace(mu, iters, res)


def luxemburg_norm(u: GridFunction, p: ExponentField) -> tuple[float, NormSolveTrace]:
    return luxemburg_norm_cells(u.grid, node_to_cell(u), p)


def sobolev_norm(u: GridFunction, p: ExponentField) -> float:
    """Luxemburg norm of the cellwise gradient magnitude; a field with a
    nonzero boundary value is refused with ``ValueError``."""
    if not u.zero_on_boundary:
        raise ValueError("sobolev_norm requires a zero-boundary grid function")
    g = gradient_values(u.grid, u.values)
    value, _ = luxemburg_norm_cells(u.grid, np.sqrt(np.sum(g * g, axis=0)), p)
    return value

