"""Solvers realizing the two existence mechanisms at desk scale.

The plateau-bump construction and the threshold-parameter search that makes
the coercive minimum negative, and one descent core shared by both energy
forms.  The core (:func:`_descent`) takes Barzilai-Borwein steps along the
Sobolev gradient P^-1 g, where P is the p = 2 operator of the energies and
its exact inverse is a sine transform (:func:`gradient_gram_inverse`), so
its iteration counts do not grow with the grid.  One evaluation hook maps
each trial field to its candidate point with that point's energy and
gradient: :func:`energy_and_gradient` of the field itself for global
minimization of the coercive form, the ray-peak projection for the saddle
search on the mountain form (descent on the set of ray maxima, started from
the peak of the seed's ray).  A saddle trial takes one pass over the cells
(:class:`RayEnergy`): the ray's polynomial gives the peak, a safeguarded
Newton root of its slope, and the kept pass the energy and gradient there;
:func:`find_endpoint` scans the polynomial's doublings.  Every accepted step
is certified, by an Armijo energy decrease while that is resolvable above
summation roundoff or else by a strict residual decrease, and the
certificate is recorded per step.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .energy import (
    EnergyReport, RayEnergy, coefficients, energy_and_gradient, eval_energy, ray_energy,
    ray_polynomial, residual_norm,
)
from .errors import (
    EndpointScheduleError,
    HypothesisGateError,
    LambdaGridError,
    PathCollapseError,
    SubdomainBoundsError,
)
from .exponents import ExponentSet, validate_hypotheses
from .grid import DomainGrid, GridFunction, gradient_gram_inverse
from .spaces import sobolev_norm

__all__ = [
    "SolverOptions",
    "SolveResult",
    "SubBox",
    "PlateauBump",
    "LambdaStarReport",
    "bump_function",
    "minimize_energy",
    "lambda_star_search",
    "find_endpoint",
    "mountain_pass",
    "dedupe_with_negatives",
    "multi_solution_search",
    "distinctness_matrix",
]


# line search of the descent core: sufficient-decrease factor, first trial
# step, cap on the spectral step, backtracking factor
ARMIJO = 1e-4
STEP_INIT = 1.0
STEP_MAX = 1e6
STEP_SHRINK = 0.5


@dataclass
class SolverOptions:
    tol: float = 1e-6
    max_iter: int = 5000


@dataclass
class SolveResult:
    u: GridFunction
    energy: EnergyReport
    residual: float
    iterations: int
    history: list[tuple[float, float]]  # (energy, residual) per iteration
    termination: str  # "converged" | "max_iter" | "stagnated"
    # certificate per history row: "start", then "armijo" or "residual"
    kinds: list[str] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.termination == "converged"


@dataclass(frozen=True)
class SubBox:
    """Axis-aligned closed sub-box, used as the bump plateau."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        lo = tuple(float(x) for x in self.lo)
        hi = tuple(float(x) for x in self.hi)
        if len(lo) != len(hi) or any(a >= b for a, b in zip(lo, hi)):
            raise SubdomainBoundsError(f"degenerate sub-box {lo} .. {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def centered(cls, center, side) -> "SubBox":
        c = np.asarray(center, dtype=float)
        s = np.broadcast_to(np.asarray(side, dtype=float), c.shape)
        return cls(tuple(c - s / 2), tuple(c + s / 2))

    @property
    def volume(self) -> float:
        return float(np.prod([b - a for a, b in zip(self.lo, self.hi)]))

    def gap_to(self, grid: DomainGrid) -> float:
        """Smallest distance from the box to the domain boundary."""
        gaps = []
        for a, b, e in zip(self.lo, self.hi, grid.extent):
            gaps.append(a - 0.0)
            gaps.append(e - b)
        return float(min(gaps))


@dataclass
class PlateauBump:
    """Zero-boundary field equal to ``t0`` on the plateau box."""

    fn: GridFunction
    t0: float
    box: SubBox
    plateau_volume: float


def bump_function(grid: DomainGrid, t0: float, box: SubBox) -> PlateauBump:
    """Plateau value ``t0`` on the box, cubic-smoothstep ramp of the distance
    to the box, exactly zero on the domain boundary."""
    if t0 <= 1.0:
        raise ValueError(f"plateau height must exceed 1, got {t0}")
    if len(box.lo) != grid.dim:
        raise SubdomainBoundsError("sub-box dimension does not match the grid")
    gap = box.gap_to(grid)
    if gap <= 0.0:
        raise SubdomainBoundsError(
            f"sub-box must be strictly interior (gap {gap:.3e})"
        )
    mesh = grid.node_mesh()
    d2 = np.zeros(grid.node_shape)
    for x, a, b in zip(mesh, box.lo, box.hi):
        out = np.maximum(np.maximum(a - x, x - b), 0.0)
        d2 += out * out
    ramp = 1.0 - np.clip(np.sqrt(d2) / gap, 0.0, 1.0)
    vals = t0 * (3.0 * ramp * ramp - 2.0 * ramp * ramp * ramp)
    vals[grid.boundary_mask()] = 0.0
    return PlateauBump(GridFunction(grid, vals, bc_zero=True), float(t0), box, box.volume)


def _gate(s: ExponentSet, form: str, override: bool):
    report = validate_hypotheses(s, form)
    if not report.passed and not override:
        failing = [c.name for c in report.conditions if not c.satisfied]
        raise HypothesisGateError(
            f"{form} hypotheses fail ({', '.join(failing)}); pass override to proceed"
        )
    return report


def _fp_energy_floor(rep: EnergyReport) -> float:
    """Smallest energy decrease distinguishable from summation roundoff."""
    scale = sum(abs(c) * t for c, t in zip(coefficients(rep.lam, rep.form), rep.terms))
    return 64.0 * np.finfo(float).eps * max(scale, 1.0)


def _descent(z0: GridFunction, evaluate, opts: SolverOptions) -> SolveResult:
    """Preconditioned Barzilai-Borwein descent with an evaluation hook.

    ``evaluate(z)`` maps a trial field z to (point, energy report, gradient)
    of its candidate point; the run starts at ``evaluate(z0)``.  The search
    direction is the Sobolev gradient d = P^-1 g, P = G^T G the p = 2
    operator, inverted exactly by :func:`gradient_gram_inverse`; the first
    trial step is ``STEP_INIT``, later ones the spectral length s'Ps / s'y
    of the last step s = -t d_prev before the hook (capped at
    ``STEP_MAX``), where Ps = -t g_prev needs no transform.  Each accepted
    step carries one certificate:

    * ``armijo``: the energy falls below both the current and the last
      certified level by ARMIJO * t * vol * sum(g d), a decrease required to
      exceed the summation-roundoff floor;
    * ``residual``: otherwise, the residual strictly decreases while the
      energy stays within 1e3 floors of the last certified level.

    Trial steps shrink by ``STEP_SHRINK`` until one is certified; when the
    step falls 18 decades below its first trial the run ends ``stagnated``.
    The energy column of the history repeats the last certified level on
    residual steps, so it never increases.
    """
    u, rep, g = evaluate(z0)
    grid = u.grid
    vol = grid.cell_volume
    res = residual_norm(g)
    certified = rep.total
    history = [(certified, res)]
    kinds = ["start"]
    step = STEP_INIT
    termination = "max_iter"
    iterations = 0

    for _ in range(opts.max_iter):
        if res <= opts.tol:
            termination = "converged"
            break
        d = gradient_gram_inverse(grid, g.values)
        gd = float(np.sum(g.values * d))
        floor = _fp_energy_floor(rep)
        accepted = None
        trial = min(step, STEP_MAX)
        stop = 1e-18 * trial
        while trial > stop:
            try:
                u_new, rep_new, g_new = evaluate(
                    GridFunction(grid, u.values - trial * d, bc_zero=True)
                )
            except PathCollapseError:
                trial *= STEP_SHRINK
                continue
            required = ARMIJO * trial * vol * gd
            if required > floor and rep_new.total <= min(rep.total, certified) - required:
                kind = "armijo"
            elif rep_new.total <= certified + 1e3 * floor:
                kind = "residual"
            else:
                trial *= STEP_SHRINK
                continue
            res_new = residual_norm(g_new)
            if kind == "armijo" or res_new < res:
                accepted = kind
                break
            trial *= STEP_SHRINK
        if accepted is None:
            termination = "stagnated"
            break

        sy = trial * float(np.sum(d * (g.values - g_new.values)))
        step = trial * trial * gd / sy if sy > 0.0 else trial
        u, rep, g, res = u_new, rep_new, g_new, res_new
        if accepted == "armijo":
            certified = rep.total
        history.append((certified, res))
        kinds.append(accepted)
        iterations += 1

    if res <= opts.tol:
        termination = "converged"
    return SolveResult(u, rep, res, iterations, history, termination, kinds)


def minimize_energy(
    lam: float,
    s: ExponentSet,
    init: GridFunction,
    opts: SolverOptions | None = None,
    override_hypotheses: bool = False,
) -> SolveResult:
    """Global minimization of the coercive form by the preconditioned
    descent core, evaluating each trial field itself.

    Every accepted step is certified by an Armijo energy decrease or, once
    decreases fall below summation roundoff, by a strict residual decrease
    (see :func:`_descent`); the history's energy column is non-increasing.
    """
    opts = opts or SolverOptions()
    _gate(s, "coercive", override_hypotheses)
    if not init.bc_zero:
        raise ValueError("initial iterate must be zero on the boundary")
    return _descent(
        init.copy(), lambda z: (z, *energy_and_gradient(z, lam, s, "coercive")), opts
    )


@dataclass
class LambdaStarReport:
    lam_star: float
    lam_star_exact: float
    analytic_bound: float
    constant_L: float
    t0: float
    plateau_volume: float
    pmax_hi: float
    pmax_lo: float
    bump: PlateauBump

    def to_dict(self) -> dict:
        return {
            "lambda_star": self.lam_star,
            "lambda_star_exact": self.lam_star_exact,
            "analytic_bound": self.analytic_bound,
            "constant_L": self.constant_L,
            "t0": self.t0,
            "plateau_volume": self.plateau_volume,
            "pmax_hi": self.pmax_hi,
            "pmax_lo": self.pmax_lo,
        }


def lambda_star_search(
    s: ExponentSet, bump: PlateauBump, lam_grid
) -> LambdaStarReport:
    """Smallest grid value of the parameter making the coercive energy of the
    bump negative, with the proof-style analytic upper bound."""
    lam_grid = np.sort(np.asarray(lam_grid, dtype=float))
    if lam_grid.size == 0 or lam_grid[0] <= 0.0:
        raise ValueError("lambda grid must be positive")
    rep = eval_energy(bump.fn, 1.0, s, "coercive")
    big_l = rep.term_grad_p1 + rep.term_grad_p2 + rep.term_q
    tm = rep.term_pmax
    if tm <= 0.0:
        raise ValueError("bump has vanishing bulk term; cannot search")
    # energy is affine decreasing in the parameter: big_l - lam * tm
    values = big_l - lam_grid * tm
    neg = np.nonzero(values < 0.0)[0]
    if neg.size == 0:
        raise LambdaGridError(
            f"no grid value makes the bump energy negative (need > {big_l / tm:.6g})"
        )
    lam_star = float(lam_grid[neg[0]])
    lam_exact = big_l / tm
    bound = big_l * s.pmax.hi / (bump.t0**s.pmax.lo * bump.plateau_volume)
    if lam_star > bound:
        raise LambdaGridError(
            f"grid answer {lam_star:.6g} overshoots the analytic bound {bound:.6g}; refine the grid"
        )
    return LambdaStarReport(
        lam_star, lam_exact, bound, big_l, bump.t0, bump.plateau_volume,
        s.pmax.hi, s.pmax.lo, bump,
    )


def find_endpoint(
    lam: float, s: ExponentSet, u0: GridFunction, max_doublings: int = 60
) -> tuple[GridFunction, float]:
    """Scale ``u0`` by doubling until the mountain-form energy goes negative;
    the doublings t = 1, 2, 4, ... are scanned on the ray polynomial of ``u0``."""
    if float(np.max(np.abs(u0.values))) == 0.0:
        raise ValueError("direction must be nonzero")
    ts = 2.0 ** np.arange(max_doublings + 1)
    negative = np.flatnonzero(ray_energy(ray_polynomial(u0, lam, s, "mountain"), ts) < 0.0)
    if negative.size == 0:
        raise EndpointScheduleError(
            f"energy stayed nonnegative through {max_doublings} doublings"
        )
    t = float(ts[negative[0]])
    return t * u0, t


class _RaySlope:
    """Slope and curvature of t -> energy(t*z) along a fixed ray (mountain form).

    Read off the ray polynomial E(t) = sum c_k t^p_k of z
    (:attr:`RayEnergy.poly`), built once from one pass over the cells: a call
    returns E'(t) = sum c_k p_k t^(p_k-1) and E''(t) from the same powers, so
    each evaluation costs a few dozen terms, not a pass over the cells.
    """

    def __init__(self, poly: tuple[np.ndarray, np.ndarray]):
        p, c = poly
        self.expo = p - 1.0
        self.d1 = c * p
        self.d2 = self.d1 * self.expo

    def __call__(self, t: float) -> tuple[float, float]:
        with np.errstate(over="ignore", invalid="ignore"):
            powers = t**self.expo
            return float(self.d1 @ powers), float(self.d2 @ powers) / t


# window of the ray-peak search around the first trial t, in doublings
_PEAK_DOUBLINGS = 90
_PEAK_HALVINGS = 400
_LN2 = float(np.log(2.0))


def _ray_peak(z: GridFunction, lam, s, t_init: float = 1.0, rel_tol: float = 1e-13):
    """Maximizer of the mountain energy along the ray through ``z``, with its
    energy report and gradient, from one pass over the cells of ``z``.

    The slope is positive near the origin (the barrier rises) and negative
    far out (the focusing term wins), so a sign change exists for a nonzero
    direction.  Its root is found by safeguarded Newton in x = log t on the
    ray polynomial (:class:`_RaySlope`), in the manner of
    :func:`luxemburg_norm_cells`: every evaluation narrows the sign bracket
    [lo, hi] in x, and the Newton step -E'/(t E'') is kept only inside it.
    Otherwise the bracket midpoint is taken, or, while no slope of one sign
    has been seen, a doubling (halving) of t; a search that leaves the
    window of 90 doublings above and 400 halvings below ``t_init`` raises
    PathCollapseError.  Stops at a move below ``rel_tol`` in log t; inside
    the descent, whose trial points lie near the peak at t = 1, that takes
    about three evaluations.  Returns (t * z, report, gradient), the last
    two from the cell pass the polynomial was built from
    (:meth:`RayEnergy.at`); they match :func:`energy_and_gradient` of
    t * z to rounding.
    """
    ray = RayEnergy(z, lam, s, "mountain")
    slope_of = _RaySlope(ray.poly)
    x = float(np.log(max(t_init, np.finfo(float).tiny)))
    lo, hi = x - _PEAK_HALVINGS * _LN2, x + _PEAK_DOUBLINGS * _LN2
    seen_lo = seen_hi = False
    # enough to walk the whole window and then bisect it to rounding
    for _ in range(_PEAK_DOUBLINGS + _PEAK_HALVINGS + 200):
        t = float(np.exp(x))
        slope, curv = slope_of(t)
        if slope > 0.0:
            lo, seen_lo = x, True
        else:  # a slope that is not finite counts as past the peak
            hi, seen_hi = x, True
        with np.errstate(divide="ignore", invalid="ignore"):
            step = -slope / (t * curv)
        # a Newton step of rounding size ends the search; it may land on x
        # itself, that is on a bracket end
        if abs(step) <= rel_tol:
            x += step
            break
        x_new = x + step
        if not lo < x_new < hi:
            if seen_lo and seen_hi:
                x_new = 0.5 * (lo + hi)
            else:
                x_new = x + (_LN2 if seen_lo else -_LN2)
                if not lo < x_new < hi:
                    raise PathCollapseError(
                        "no interior energy peak along the ray" if seen_lo
                        else "ray energy has no barrier (degenerate direction)"
                    )
        done = abs(x_new - x) <= rel_tol
        x = x_new
        if done:
            break
    t = float(np.exp(x))
    return (t * z, *ray.at(t))


def mountain_pass(
    lam: float,
    s: ExponentSet,
    direction: GridFunction,
    opts: SolverOptions | None = None,
    override_hypotheses: bool = False,
) -> SolveResult:
    """Saddle search on the mountain form: descent projected onto ray peaks.

    Starts at the energy peak of the ray through ``direction`` (any nonzero
    zero-boundary field; only its ray matters).  From there the
    preconditioned descent core runs with :func:`_ray_peak` as its
    evaluation hook, so every iterate is the energy maximum along its ray (a
    point of the ray-peak set, in the manner of Li and Zhou's minimax
    method) and each accepted step is certified by an Armijo decrease of the
    peak level or a strict residual decrease.  Each trial takes one pass
    over the cells for its peak, energy and gradient.  The peak level stays
    above zero, so the search can neither tunnel to the trivial solution nor
    plunge into the unbounded-below region.  Stops when the full residual
    meets the tolerance.

    The returned energy and residual are the kernel's own at the returned
    field (one closing :func:`energy_and_gradient`), so they equal
    :func:`eval_energy` and :func:`grad_energy` of it bitwise, and the
    termination is decided from that residual.
    """
    opts = opts or SolverOptions()
    _gate(s, "mountain", override_hypotheses)
    if float(np.max(np.abs(direction.values))) == 0.0:
        raise ValueError("direction must be nonzero")
    result = _descent(direction, lambda z: _ray_peak(z, lam, s), opts)
    rep, g = energy_and_gradient(result.u, lam, s, "mountain")
    res = residual_norm(g)
    # the on-ray residual the descent stopped on differs from the kernel's
    # by rounding; a stop it counted converged that the kernel does not
    # certify is reported as stagnated
    if res <= opts.tol:
        termination = "converged"
    elif result.converged:
        termination = "stagnated"
    else:
        termination = result.termination
    return replace(result, energy=rep, residual=res, termination=termination)


def _negated(result: SolveResult, lam: float, s: ExponentSet) -> SolveResult:
    u = -result.u
    return SolveResult(
        u,
        eval_energy(u, lam, s, "mountain"),
        result.residual,
        result.iterations,
        list(result.history),
        result.termination,
        list(result.kinds),
    )


def dedupe_with_negatives(
    results: list[SolveResult],
    lam: float,
    s: ExponentSet,
    delta: float | None = None,
) -> list[SolveResult]:
    """Add the sign-flipped copy of every converged saddle (the energy is
    even) and merge near-duplicates by the gradient-norm distance."""
    found: list[SolveResult] = []
    for result in results:
        if result.converged:
            found.append(result)
            found.append(_negated(result, lam, s))
    if not found:
        return []
    norms = [sobolev_norm(r.u, s.pmax) for r in found]
    if delta is None:
        delta = 1e-2 * max(norms)
    distinct: list[SolveResult] = []
    for cand in found:
        dup = any(
            sobolev_norm(cand.u - kept.u, s.pmax) <= delta for kept in distinct
        )
        if not dup:
            distinct.append(cand)
    return distinct


def multi_solution_search(
    lam: float,
    s: ExponentSet,
    seeds: list[GridFunction],
    delta: float | None = None,
    opts: SolverOptions | None = None,
    override_hypotheses: bool = False,
) -> list[SolveResult]:
    """Saddle search per seed direction, then sign-mirroring and dedup."""
    found = [mountain_pass(lam, s, seed, opts, override_hypotheses) for seed in seeds]
    return dedupe_with_negatives(found, lam, s, delta)


def distinctness_matrix(results: list[SolveResult], s: ExponentSet) -> np.ndarray:
    """Pairwise gradient-norm distances between solution fields."""
    n = len(results)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = sobolev_norm(results[i].u - results[j].u, s.pmax)
            out[i, j] = out[j, i] = d
    return out
