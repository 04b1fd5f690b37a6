"""Variable-exponent Lebesgue machinery on the cell measure space.

Modulars integrate the cell-averaged absolute value, so the norm-modular
relations and the Hoelder pairing hold exactly in the discrete model (up to
roundoff), not just asymptotically.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NormBracketError
from .exponents import ExponentField, conjugate_exponent
from .grid import DomainGrid, GridFunction, cell_quadrature, discrete_gradient, node_to_cell

__all__ = [
    "NORM_TOL",
    "NormSolveTrace",
    "modular",
    "modular_cells",
    "luxemburg_norm",
    "luxemburg_norm_cells",
    "sobolev_norm",
    "check_holder",
    "check_modular_norm_relations",
    "check_inclusion_bound",
]

# asserted bound on the root residual |rho(a/nu) - 1| of the normalized field;
# the Newton iteration stops at |rho - 1| <= 8 eps or at a rounding-size step,
# so the realized residual is ~1e-15
NORM_TOL = 1e-10
_MAX_ITER = 200
_BRACKET_SPAN = 2.0**60
_LOG_SPAN = float(np.log(_BRACKET_SPAN))
_EXPAND_LIMIT = 3

_REL_SLACK = 1e-12


@dataclass
class NormSolveTrace:
    """How a Luxemburg norm was solved.

    ``root`` and the verified bracket the iteration started in are in the
    units of the field; for subnormal-scale fields the bracket ends may round
    to 0.  ``iterations`` counts passes over the cells (safeguarded Newton
    steps in log nu, not counting the two bracket checks).  ``residual`` is
    |rho(a/nu) - 1| certified on the normalized field a = |w|/max|w|, whose
    norm nu = root/max|w| is what the iteration solves for.
    """

    root: float
    bracket_lo: float
    bracket_hi: float
    iterations: int
    residual: float


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
    solved in x = log nu, so no bracket end underflows or overflows: after a
    sign change of rho - 1 is verified on a bracket in x, Newton steps on
    log rho(a/e^x), which is convex and decreasing in x, start from x = 0.
    Each pass over the cells gives rho = vol * sum(w) and
    d log rho/dx = -sum(p w)/sum(w) from the same powers w = (a/e^x)^p; a
    step that leaves the open bracket, or a rho that is not finite and
    positive, is replaced by the bracket midpoint.  |rho(a/nu) - 1| <=
    NORM_TOL is certified before returning.  Every scale from the smallest
    subnormal double up to float-max/2**60 (about 1.5e290) is served; a
    larger or non-finite scale raises NormBracketError.  A true norm below
    the smallest subnormal double rounds to 0, and a subnormal norm carries
    only the precision of a subnormal.
    """
    absw = np.abs(np.asarray(w, dtype=float))
    scale = float(absw.max())
    if scale == 0.0:
        return 0.0, NormSolveTrace(0.0, 0.0, 0.0, 0, 0.0)
    if not np.isfinite(scale * _BRACKET_SPAN):
        raise NormBracketError(
            f"field scale {scale:.3e} exceeds the served limit "
            f"{np.finfo(float).max / _BRACKET_SPAN:.3e}"
        )

    a = absw / scale
    pv = p.values
    vol = grid.cell_volume

    def powers(log_nu: float) -> tuple[np.ndarray, float]:
        """w = (a/nu)^p at nu = e^log_nu, and sum(w)."""
        with np.errstate(over="ignore"):
            wx = (a / np.exp(log_nu)) ** pv
            return wx, float(np.sum(wx))

    def rho(log_nu: float) -> float:
        return vol * powers(log_nu)[1]

    lo, hi = -_LOG_SPAN, _LOG_SPAN
    for _ in range(_EXPAND_LIMIT):
        if rho(lo) >= 1.0 and rho(hi) <= 1.0:
            break
        lo -= _LOG_SPAN
        hi += _LOG_SPAN
    else:
        raise NormBracketError(
            f"could not bracket the norm root (scale {scale:.3e})"
        )
    bracket = (scale * float(np.exp(lo)), scale * float(np.exp(hi)))

    eps = np.finfo(float).eps
    x, best, res = 0.0, 0.0, np.inf
    iters = 0
    for iters in range(1, _MAX_ITER + 1):
        wx, total = powers(x)
        r = vol * total
        if abs(r - 1.0) < res:
            best, res = x, abs(r - 1.0)
        if res <= 8.0 * eps:
            break
        if r > 1.0:
            lo = x
        else:
            hi = x
        step = np.nan
        if np.isfinite(r) and r > 0.0:
            # -log rho / (d log rho/dx), with d log rho/dx = -sum(p w)/sum(w)
            with np.errstate(over="ignore"):
                step = np.log(r) * total / float(np.sum(pv * wx))
        x_new = x + step
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        # a Newton step or a bisection move of rounding size ends the search
        # (a Newton step below half an ulp of x would land on x itself)
        tol = 4.0 * eps * max(1.0, abs(x))
        if abs(step) <= tol or abs(x_new - x) <= tol:
            break
        x = x_new
    if res > NORM_TOL:
        raise NormBracketError(
            f"norm root residual {res:.3e} exceeds {NORM_TOL} after {iters} iterations"
        )
    mu = scale * float(np.exp(best))
    return mu, NormSolveTrace(mu, *bracket, iters, res)


def luxemburg_norm(u: GridFunction, p: ExponentField) -> tuple[float, NormSolveTrace]:
    return luxemburg_norm_cells(u.grid, node_to_cell(u), p)


def sobolev_norm(u: GridFunction, p: ExponentField) -> float:
    """Luxemburg norm of the cellwise gradient magnitude (zero-boundary u)."""
    if not u.bc_zero:
        raise ValueError("sobolev_norm requires a zero-boundary grid function")
    mag = discrete_gradient(u).magnitude()
    value, _ = luxemburg_norm_cells(u.grid, mag, p)
    return value


@dataclass
class HolderReport:
    lhs: float
    rhs: float
    norm_u: float
    norm_v: float
    constant: float
    passed: bool


def check_holder(u: GridFunction, v: GridFunction, p: ExponentField) -> HolderReport:
    """Pairing bound |int u v| <= (1/p.lo + 1/p'.lo) |u|_p |v|_p'."""
    pc = conjugate_exponent(p)
    lhs = abs(cell_quadrature(u.grid, node_to_cell(u) * node_to_cell(v)))
    nu, _ = luxemburg_norm(u, p)
    nv, _ = luxemburg_norm(v, pc)
    const = 1.0 / p.lo + 1.0 / pc.lo
    rhs = const * nu * nv
    return HolderReport(lhs, rhs, nu, nv, const, lhs <= rhs + _REL_SLACK * rhs)


@dataclass
class SandwichReport:
    norm: float
    modular: float
    side: str  # "above_one", "below_one", "at_one"
    lower: float
    upper: float
    passed: bool


def check_modular_norm_relations(u: GridFunction, p: ExponentField) -> SandwichReport:
    """Norm-modular sandwich: the modular sits between norm^lo and norm^hi,
    with the exponents swapping roles on either side of norm = 1."""
    nu, trace = luxemburg_norm(u, p)
    rho = modular(u, p)
    if abs(nu - 1.0) <= NORM_TOL:
        ok = abs(rho - 1.0) <= NORM_TOL
        return SandwichReport(nu, rho, "at_one", 1.0, 1.0, ok)
    if nu > 1.0:
        lower, upper = nu**p.lo, nu**p.hi
        side = "above_one"
    else:
        lower, upper = nu**p.hi, nu**p.lo
        side = "below_one"
    ok = lower * (1.0 - _REL_SLACK) <= rho <= upper * (1.0 + _REL_SLACK)
    return SandwichReport(nu, rho, side, lower, upper, ok)


@dataclass
class InclusionReport:
    lhs: float
    rhs: float
    constant: float
    passed: bool


def check_inclusion_bound(
    u: GridFunction, r1: ExponentField, r2: ExponentField
) -> InclusionReport:
    """Embedding bound |u|_{r1} <= (|domain|+1) |u|_{r2} for r1 <= r2 pointwise."""
    if np.any(r1.values > r2.values):
        raise ValueError("inclusion bound requires r1 <= r2 at every cell")
    const = u.grid.volume + 1.0
    n1, _ = luxemburg_norm(u, r1)
    n2, _ = luxemburg_norm(u, r2)
    rhs = const * n2
    return InclusionReport(n1, rhs, const, n1 <= rhs + _REL_SLACK * rhs)
