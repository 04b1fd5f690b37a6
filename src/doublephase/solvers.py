"""Solvers realizing the two existence mechanisms at desk scale.

The plateau-bump construction and the threshold-parameter search that makes
the coercive minimum negative, and one descent core shared by both energy
forms.  The core (:func:`_descent`) takes Barzilai-Borwein steps along the
Sobolev gradient P^-1 g, where P is the p = 2 operator of the energies and
its exact inverse is a sine transform (:func:`gradient_gram_inverse`), so
its iteration counts do not grow with the grid.  One evaluation hook maps
each trial field to its candidate point with that point's report (the core
reads only its level ``total`` and its ``roundoff``) and gradient:
:func:`energy_and_gradient` of the field itself for global
minimization of the coercive form, the ray-peak projection for the saddle
search on the mountain form (descent on the set of ray maxima, started from
the peak of the seed's ray).  A saddle trial takes one pass over the cells
(:class:`RayEnergy`): the ray's polynomial gives the peak, where the
rising and falling parts of its slope balance (:func:`decreasing_root` on
their log ratio), and the kept pass the energy and gradient there;
:func:`find_endpoint` scans doublings on :attr:`RayEnergy.poly`.  A step
is accepted by one test: the nonmonotone Armijo test of Grippo, Lampariello
and Lucidi against the highest of the last ``LOOKBACK`` accepted levels, as in
Raydan's globalized Barzilai-Borwein method, relaxed by the report's
``roundoff``, so most spectral steps are taken as they come, and once
decreases are no longer resolvable any step without a resolvable rise above
that level is taken.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .energy import (
    EnergyReport, RayEnergy, energy_and_gradient, eval_energy, ray_energy, residual_norm,
)
from .errors import (
    EndpointScheduleError,
    LambdaGridError,
    NonFiniteError,
    PathCollapseError,
    SubdomainBoundsError,
)
from .exponents import ExponentSet, validate_hypotheses
from .grid import DomainGrid, GridFunction, gradient_gram_inverse
from .spaces import decreasing_root, sobolev_norm

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
]


# line search of the descent core: sufficient-decrease factor, first trial
# step, cap on the spectral step, backtracking factor, and the number of
# accepted levels the nonmonotone test compares against
ARMIJO = 1e-4
STEP_INIT = 1.0
STEP_MAX = 1e6
STEP_SHRINK = 0.5
LOOKBACK = 10


@dataclass
class SolverOptions:
    tol: float = 1e-6
    max_iter: int = 5000


@dataclass
class SolveResult:
    """The end of a :func:`_descent` run; ``history`` holds (best, residual)
    per iteration, ``best`` the lowest level accepted so far."""

    u: GridFunction
    energy: EnergyReport
    residual: float
    iterations: int
    history: list[tuple[float, float]]
    termination: str  # "converged" | "max_iter" | "stagnated"

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
        if len(lo) != len(hi) or not all(a < b for a, b in zip(lo, hi)):
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

    def interior_gap(self, grid: DomainGrid) -> float:
        """Smallest distance from the box to the domain boundary; a box of
        another dimension, or not strictly inside the domain, is refused."""
        if len(self.lo) != grid.dim:
            raise SubdomainBoundsError("sub-box dimension does not match the grid")
        gap = min(min(a, e - b) for a, b, e in zip(self.lo, self.hi, grid.extent))
        if not gap > 0.0:
            raise SubdomainBoundsError(
                f"sub-box must be strictly interior (gap {gap:.3e})"
            )
        return gap


@dataclass
class PlateauBump:
    """Zero-boundary field equal to ``t0`` on the plateau box."""

    fn: GridFunction
    t0: float
    box: SubBox


def bump_function(grid: DomainGrid, t0: float, box: SubBox) -> PlateauBump:
    """Plateau value ``t0`` on the box, cubic-smoothstep ramp of the distance
    to the box, exactly zero on the domain boundary."""
    if t0 <= 1.0:
        raise ValueError(f"plateau height must exceed 1, got {t0}")
    gap = box.interior_gap(grid)
    mesh = grid.node_mesh()
    d2 = np.zeros(grid.node_shape)
    for x, a, b in zip(mesh, box.lo, box.hi):
        out = np.maximum(np.maximum(a - x, x - b), 0.0)
        d2 += out * out
    ramp = 1.0 - np.clip(np.sqrt(d2) / gap, 0.0, 1.0)
    vals = t0 * (3.0 * ramp * ramp - 2.0 * ramp * ramp * ramp)
    vals[grid.boundary_mask()] = 0.0
    return PlateauBump(GridFunction(grid, vals), float(t0), box)


def _descent(z0: GridFunction, evaluate, opts: SolverOptions) -> SolveResult:
    """Preconditioned Barzilai-Borwein descent with an evaluation hook.

    ``evaluate(z)`` maps a trial field z to (point, report, gradient) of its
    candidate point, or rejects z by raising PathCollapseError (the step
    then shrinks, as for a field, level or residual that is not finite); the
    run starts at ``evaluate(z0)`` (NonFiniteError if not finite).  Of a report, an
    :class:`EnergyReport` or any other object, the core reads only the level
    ``total`` and its ``roundoff``; it returns the last accepted point, and
    its report unchanged as ``SolveResult.energy``.  The search direction is
    the Sobolev gradient d = P^-1 g, P = G^T G the p = 2 operator, inverted
    exactly by :func:`gradient_gram_inverse`; the first trial step is
    ``STEP_INIT``, later ones the spectral length s'Ps / s'y of the last
    step s = -t d_prev before the hook (capped at ``STEP_MAX``), where
    Ps = -t g_prev needs no transform.  A trial step t is accepted when

        E_new <= max(levels) - ARMIJO * t * vol * sum(g d) + floor,

    ``levels`` the last ``LOOKBACK`` accepted levels (the start's included)
    and ``floor`` the current report's ``roundoff``, an allowance
    proportional to |E| as in the CG_DESCENT line search of Hager and Zhang.
    Comparing against the highest recent level rather than the lowest one so
    far is the nonmonotone test of Grippo, Lampariello and Lucidi that
    Raydan's globalized Barzilai-Borwein method uses: the spectral step,
    which does not lower the level at every step, is taken as it comes far
    more often, while the highest of the last ``LOOKBACK`` levels never
    rises by more than the floor.  Once decreases are not resolvable the
    test accepts any step without a resolvable rise above that level.  Trial
    steps shrink by ``STEP_SHRINK`` until one is accepted; when the step
    falls 18 decades below its first trial the run ends ``stagnated``.  The
    history's level column is ``best``, the lowest level accepted so far.
    """
    try:
        u, rep, g = evaluate(z0)
        res = residual_norm(g)
        if not (math.isfinite(rep.total) and math.isfinite(res)):
            raise NonFiniteError(f"energy level {rep.total!r} with residual {res!r}")
    except NonFiniteError as exc:
        raise NonFiniteError(f"the descent cannot start: {exc}") from None
    grid = u.grid
    vol = grid.cell_volume
    best = rep.total
    levels = deque([best], maxlen=LOOKBACK)
    history = [(best, res)]
    step = STEP_INIT
    termination = "max_iter"
    for _ in range(opts.max_iter):
        if res <= opts.tol:
            break
        d = gradient_gram_inverse(grid, g.values)
        gd = float(np.sum(g.values * d))
        floor = rep.roundoff
        trial = min(step, STEP_MAX)
        stop = 1e-18 * trial
        while trial > stop:
            try:
                u_new, rep_new, g_new = evaluate(GridFunction(grid, u.values - trial * d))
            except (PathCollapseError, NonFiniteError):
                trial *= STEP_SHRINK
                continue
            res_new = residual_norm(g_new)
            bound = max(levels) - ARMIJO * trial * vol * gd + floor
            if math.isfinite(rep_new.total) and rep_new.total <= bound and math.isfinite(res_new):
                break
            trial *= STEP_SHRINK
        else:
            termination = "stagnated"
            break

        sy = trial * float(np.sum(d * (g.values - g_new.values)))
        step = trial * trial * gd / sy if sy > 0.0 else trial
        u, rep, g, res = u_new, rep_new, g_new, res_new
        levels.append(rep.total)
        best = min(best, rep.total)
        history.append((best, res))

    if res <= opts.tol:
        termination = "converged"
    return SolveResult(u, rep, res, len(history) - 1, history, termination)


def minimize_energy(
    lam: float,
    s: ExponentSet,
    init: GridFunction,
    opts: SolverOptions | None = None,
    override_hypotheses: bool = False,
) -> SolveResult:
    """Global minimization of the coercive form by the preconditioned
    descent core, evaluating each trial field itself.  An ``init`` with a
    nonzero boundary value is refused with ``ValueError`` by its first
    energy evaluation.

    Every accepted step passes the core's one test, an Armijo decrease of
    the highest of the last ``LOOKBACK`` accepted levels relaxed by the
    summation roundoff of the energy (see :func:`_descent`); the history's
    energy column, the lowest level so far, is non-increasing.  Failing
    coercive hypotheses raise HypothesisGateError unless overridden.
    """
    opts = opts or SolverOptions()
    validate_hypotheses(s, "coercive").require(override_hypotheses)
    return _descent(
        init.copy(), lambda z: (z, *energy_and_gradient(z, lam, s, "coercive")), opts
    )


@dataclass
class LambdaStarReport:
    """The threshold search's result; its fields are the keys of ``lambda_star.json``."""

    lambda_star: float
    lambda_star_exact: float
    analytic_bound: float
    constant_L: float
    t0: float
    plateau_volume: float
    pmax_hi: float
    pmax_lo: float


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
    bound = big_l * s.pmax.hi / (bump.t0**s.pmax.lo * bump.box.volume)
    if lam_star > bound:
        raise LambdaGridError(
            f"grid answer {lam_star:.6g} overshoots the analytic bound {bound:.6g}; refine the grid"
        )
    return LambdaStarReport(
        lam_star, lam_exact, bound, big_l, bump.t0, bump.box.volume, s.pmax.hi, s.pmax.lo
    )


def find_endpoint(
    lam: float, s: ExponentSet, u0: GridFunction, max_doublings: int = 60
) -> tuple[GridFunction, float]:
    """Scale ``u0`` by doubling until the mountain-form energy goes negative;
    the doublings t = 1, 2, 4, ... are scanned on the ray polynomial of ``u0``."""
    if float(np.max(np.abs(u0.values))) == 0.0:
        raise ValueError("direction must be nonzero")
    ts = 2.0 ** np.arange(max_doublings + 1)
    negative = np.flatnonzero(ray_energy(RayEnergy(u0, lam, s, "mountain").poly, ts) < 0.0)
    if negative.size == 0:
        raise EndpointScheduleError(
            f"energy stayed nonnegative through {max_doublings} doublings"
        )
    t = float(ts[negative[0]])
    return t * u0, t


class _RaySlope:
    """log(P/N) of a generalized polynomial sum_k w_k t^p_k in x = log t,
    with its derivative in x: P sums the terms with w_k > 0, N the others
    with their sign flipped, so the root is the sign change of the sum.

    Along the ray of z the mountain energy is the polynomial
    E(t) = sum c_k t^p_k (:attr:`RayEnergy.poly`, built once from one pass
    over the cells), and its peak is the sign change of t E'(t), whose
    weights are w_k = c_k p_k (:func:`_ray_peak`); the sphere barrier of
    :func:`verification.check_mp_geometry` is that of its scalar profile.
    The log ratio is nearly linear in x when the exponents vary little, so
    Newton on it is nearly exact from any start.  A call takes one ``exp``
    of p x shifted by its maximum, so nothing overflows; the value is
    log P - log N, so a ratio below the smallest double does not underflow,
    and a part that underflows to 0 gives an infinite value of the correct
    sign.

    The constructor raises PathCollapseError when a weight is not finite
    (the direction is too large for its ray polynomial), or when the sum has
    no barrier (the net weight at the lowest power is not positive) or no
    peak (the net weight at the highest power is not negative); otherwise
    log(P/N) runs from positive to negative, and the root exists.
    """

    def __init__(self, p, w):
        p, w = np.asarray(p, dtype=float), np.asarray(w, dtype=float)
        if not np.isfinite(w).all():
            raise PathCollapseError("ray energy polynomial overflows (direction too large)")
        lo, hi = p.min(initial=np.inf), p.max(initial=-np.inf)
        if not w[p == lo].sum() > 0.0:
            raise PathCollapseError("ray energy has no barrier (degenerate direction)")
        if not w[p == hi].sum() < 0.0:
            raise PathCollapseError("no interior energy peak along the ray")
        rise = np.maximum(w, 0.0)
        fall = rise - w
        self.parts = np.array([rise, fall, rise * p, fall * p])
        # p x - max(p x) is (p - max p) x for x > 0 and (p - min p) x below
        self.below_max, self.above_min = p - hi, p - lo

    def __call__(self, x: float) -> tuple[float, float]:
        shifted = (self.below_max if x > 0.0 else self.above_min) * x
        pos, neg, d_pos, d_neg = (self.parts @ np.exp(shifted)).tolist()
        if not pos:
            return -math.inf, math.nan
        if not neg:
            return math.inf, math.nan
        return math.log(pos) - math.log(neg), d_pos / pos - d_neg / neg


def _ray_peak(z: GridFunction, lam, s):
    """Maximizer of the mountain energy along the ray through ``z``, with its
    energy report and gradient, from one pass over the cells of ``z``.

    The peak t is the root of log(P/N) in x = log t (:class:`_RaySlope`),
    found by :func:`decreasing_root` from t = 1; inside the descent, whose
    trial points lie near their peak at t = 1, that takes about three
    evaluations, and a start 1e6 times too close or too far about five.  A
    ray without barrier or peak, a search whose best log(P/N) is not finite,
    or a peak t that is not a finite positive double raises
    PathCollapseError.  Returns (t * z, report, gradient),
    the last two from the cell pass the polynomial was built from
    (:meth:`RayEnergy.at`); they match :func:`energy_and_gradient` of t * z
    to rounding.
    """
    ray = RayEnergy(z, lam, s, "mountain")
    p, c = ray.poly
    x, value, _ = decreasing_root(_RaySlope(p, c * p))
    with np.errstate(over="ignore"):
        t = float(np.exp(x))
    if not (math.isfinite(value) and 0.0 < t < math.inf):
        raise PathCollapseError(f"no ray peak found: log t = {x:.3e}, log(P/N) = {value:.3e}")
    rep, g = ray.at(t)
    return t * z, rep, g


def mountain_pass(
    lam: float,
    s: ExponentSet,
    direction: GridFunction,
    opts: SolverOptions | None = None,
    override_hypotheses: bool = False,
) -> SolveResult:
    """Saddle search on the mountain form: descent projected onto ray peaks.

    Starts at the energy peak of the ray through ``direction`` (any
    zero-boundary field; only its ray matters, and the first ray peak
    refuses a ray without barrier, the zero direction's included, with
    PathCollapseError).  From there the
    preconditioned descent core runs with :func:`_ray_peak` as its
    evaluation hook, so every iterate is the energy maximum along its ray (a
    point of the ray-peak set, in the manner of Li and Zhou's minimax
    method) and each accepted step passes the core's test, an Armijo
    decrease of the highest of the last ``LOOKBACK`` accepted peak levels
    relaxed by its summation roundoff.  Each trial takes one pass over the
    cells for its peak, energy and gradient.  The peak level stays above
    zero, so the search can neither tunnel to the trivial solution nor
    plunge into the unbounded-below region.  Stops when the full residual
    meets the tolerance.

    The returned energy and residual are the kernel's own at the returned
    field (one closing :func:`energy_and_gradient`), so they equal
    :func:`eval_energy` and :func:`grad_energy` of it bitwise, and the
    termination is decided from that residual.  Failing mountain
    hypotheses raise HypothesisGateError unless overridden.
    """
    opts = opts or SolverOptions()
    validate_hypotheses(s, "mountain").require(override_hypotheses)
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


def dedupe_with_negatives(
    results: list[SolveResult], s: ExponentSet
) -> tuple[list[SolveResult], list[float], np.ndarray]:
    """Add the sign-flipped copy of every converged saddle (the energy is
    even and negation exact, so the copy keeps the energy report) and keep
    each candidate whose gradient-norm distance to every one kept before it
    exceeds 1e-2 of the largest gradient norm.

    Returns the kept saddles, their gradient norms and the symmetric matrix
    of their pairwise distances, zero on the diagonal.  A mirror's norm is
    its saddle's bitwise, so each seed's is solved once, and the distances
    are those the merge test solved.
    """
    found: list[SolveResult] = []
    norms: list[float] = []
    for result in results:
        if result.converged:
            found += [result, replace(result, u=-result.u)]
            norms += [sobolev_norm(result.u, s.pmax)] * 2
    delta = 1e-2 * max(norms, default=0.0)
    dist = np.zeros((len(found), len(found)))
    kept: list[int] = []
    for i, cand in enumerate(found):
        for k in kept:
            dist[i, k] = dist[k, i] = sobolev_norm(cand.u - found[k].u, s.pmax)
            if dist[i, k] <= delta:
                break
        else:
            kept.append(i)
    return [found[k] for k in kept], [norms[k] for k in kept], dist[np.ix_(kept, kept)]
