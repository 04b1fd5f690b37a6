"""Named checks for every inequality and geometric fact the arguments use.

Each check samples (deterministically, given a seed), measures its
existential constants, and reports failures.  Constants are measured and
reported, never asserted to equal a specific value.  :func:`run_all_checks`
runs the whole battery, each check at its default size; the sample count is
the only size a caller sets.

Every sampled check goes through one loop, ``_sampled``, which counts the
samples and failures and keeps the smallest margin: the pointwise,
auxiliary and monotonicity checks judge a block of rows per ``trial`` call,
the other five one sample.  The ray checks (ray boundedness and the
coercivity floor) read each sampled direction from one
:class:`RayEnergy` pass over its cells, never from the cells of a scaled
copy.  The Hoelder pairing, norm-modular sandwich and embedding bounds are
decided and measured here from the modulars and norms of :mod:`spaces`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .energy import RayEnergy, ray_energy
from .errors import DoublePhaseError, HypothesisGateError, NonFiniteError, SphereGeometryError
from .exponents import ExponentField, ExponentSet, conjugate_exponent, validate_hypotheses
from .grid import GridFunction, cell_quadrature, node_to_cell
from .solvers import SubBox, _RaySlope, bump_function
from .spaces import NORM_TOL, decreasing_root, luxemburg_norm_cells, modular_cells

__all__ = [
    "CheckReport",
    "check_pointwise_inequalities",
    "check_auxiliary_inequality",
    "check_strong_monotonicity",
    "check_mp_geometry",
    "check_ray_boundedness",
    "check_coercivity",
    "check_holder_random",
    "check_sandwich_random",
    "check_inclusion_random",
    "run_all_checks",
]

_REL_SLACK = 1e-12  # generic inequality slack
_EXACT_SLACK = 1e-15  # slack for exact-arithmetic pointwise facts
# sample-by-point values evaluated at once by the vectorized checks; the
# auxiliary check draws its samples first, the monotonicity check draws
# them block by block and so holds about 1.1 MiB at 100 000 x 3 samples
_BLOCK_ELEMENTS = 1 << 14
_T_POINTS = 64  # t-grid points per auxiliary-inequality sample
_ETA_GRID = np.geomspace(1e-3, 1.0, 13)  # sphere radii of the mountain geometry
_SUBSPACE_DIM = 4  # bumps spanning the ray-boundedness subspace
_MAX_DOUBLINGS = 40  # ray-boundedness scan t = 1, 2, ..., 2^_MAX_DOUBLINGS


@dataclass
class CheckReport:
    name: str
    samples: int
    failures: int
    worst_margin: float  # smallest normalized slack seen; negative = violation
    constants: dict = field(default_factory=dict)
    notes: str = ""
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = self.failures == 0


def _sample_magnitudes(rng, n):
    """Nonnegative sample points concentrated near 0 and 1 plus uniform [0, 10]."""
    third = n // 3
    near0 = 10.0 ** rng.uniform(-8.0, 0.0, size=third)
    near1 = 1.0 + rng.choice((-1.0, 1.0), size=third) * 10.0 ** rng.uniform(-8.0, -0.3, size=third)
    rest = rng.uniform(0.0, 10.0, size=n - 2 * third)
    out = np.concatenate([near0, np.abs(near1), rest])
    out[0] = 0.0  # always include the origin
    return out


def check_pointwise_inequalities(n_samples: int = 10_000, seed=0) -> CheckReport:
    """Max-exponent domination s^p1 + s^p2 >= s^max(p1,p2) and endpoint
    domination s^qlo + s^qhi >= s^q; exact facts, 1e-15 relative slack.
    Each sample counts twice, once per domination."""
    rng = np.random.default_rng(seed)
    s = _sample_magnitudes(rng, n_samples)
    p1 = rng.uniform(1.01, 8.0, size=n_samples)
    p2 = rng.uniform(1.01, 8.0, size=n_samples)
    m = np.maximum(p1, p2)
    qlo = rng.uniform(1.01, 8.0, size=n_samples)
    qhi = qlo + rng.uniform(0.0, 4.0, size=n_samples)
    q = rng.uniform(qlo, qhi)

    def trial(rows):
        margins = []
        for lo, hi, top in ((p1, p2, m), (qlo, qhi, q)):
            lhs, rhs = s[rows] ** lo[rows] + s[rows] ** hi[rows], s[rows] ** top[rows]
            margins.append((lhs - rhs) / np.maximum(np.maximum(lhs, rhs), 1.0))
        margins = np.concatenate(margins)
        return margins, ~(margins < -_EXACT_SLACK)

    report = _sampled("pointwise_inequalities", n_samples, trial, width=1)
    report.notes = "both dominations sampled on [0, 10] with log focus at 0 and 1"
    return report


def check_auxiliary_inequality(n_samples: int = 10_000, seed=0) -> CheckReport:
    """Power-difference bound a t^k - b t^l <= a (a/b)^(k/(l-k)) for t >= 0,
    over a t-grid covering twice the crossing radius.  The samples are
    drawn at once and evaluated in row blocks; the report does not depend
    on the block size."""
    rng = np.random.default_rng(seed)
    a = 10.0 ** rng.uniform(-3.0, 3.0, size=n_samples)
    b = 10.0 ** rng.uniform(-3.0, 3.0, size=n_samples)
    k = rng.uniform(0.1, 4.0, size=n_samples)
    l = k + rng.uniform(0.1, 4.0, size=n_samples)
    unit = np.linspace(0.0, 1.0, _T_POINTS)[None, :]

    def trial(rows):
        t = unit * t_hi[rows, None]
        lhs = a[rows, None] * t ** k[rows, None] - b[rows, None] * t ** l[rows, None]
        margin = (rhs[rows, None] - lhs) / np.maximum(rhs[rows, None], 1.0)
        return margin, ~np.any(margin < -_REL_SLACK, axis=1)

    with np.errstate(over="ignore"):
        rhs = a * (a / b) ** (k / (l - k))
        t_hi = 2.0 * (a / b) ** (1.0 / (l - k))
        report = _sampled("auxiliary_inequality", n_samples, trial, width=_T_POINTS)
    report.notes = f"{_T_POINTS} t-points per sample, grid reaches twice the crossing radius"
    return report


def check_strong_monotonicity(
    r: float, n_samples: int = 100_000, dim: int = 3, seed=0
) -> CheckReport:
    """Vector monotonicity (|x|^(r-2) x - |y|^(r-2) y).(x - y) >= C |x - y|^r
    for r >= 2; measures the empirical C and asserts nonnegativity.  xi and
    psi come from two independent streams, the two children of
    ``SeedSequence(seed)``.  The samples are drawn one row block at a time,
    so the check holds about 1.1 MiB at 100 000 x 3 samples; each stream is
    drawn in order, so each block's rows equal those of drawing xi and psi
    whole: the report does not depend on the block size."""
    if r < 2.0:
        raise ValueError(f"exponent must be at least 2, got {r}")
    xi_rng, psi_rng = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    ratios = []

    def trial(rows):
        shape = (rows.stop - rows.start, dim)
        xi, psi = xi_rng.normal(size=shape), psi_rng.normal(size=shape)
        nxi = np.linalg.norm(xi, axis=1)
        npsi = np.linalg.norm(psi, axis=1)
        diff = xi - psi
        ndiff = np.linalg.norm(diff, axis=1)
        keep = ndiff > 0.0
        lhs = np.einsum(
            "ij,ij->i", nxi[:, None] ** (r - 2.0) * xi - npsi[:, None] ** (r - 2.0) * psi, diff
        )[keep]
        scale, ndiff = ((nxi + npsi) ** r + 1.0)[keep], ndiff[keep]
        ratios.append(np.min(lhs / ndiff**r, initial=math.inf))
        return lhs / scale, ~(lhs < -_REL_SLACK * scale)

    report = _sampled(f"strong_monotonicity_r{r:g}", n_samples, trial, width=dim)
    c_hat = float(np.min(ratios))
    skipped = n_samples - report.samples
    report.constants = {"C_hat": c_hat, "r": float(r), "skipped_degenerate": skipped}
    if c_hat <= 0.0:  # a constant that is not positive fails even when every sample holds
        report = replace(report, failures=report.failures + 1)
    return report


def _random_direction(grid, rng) -> GridFunction:
    vals = rng.standard_normal(grid.node_shape)
    for face in grid.boundary_faces:
        vals[face] = 0.0
    return GridFunction(grid, vals)


def check_mp_geometry(
    lam: float, s: ExponentSet, n_directions: int = 8, seed=0
) -> CheckReport:
    """Sphere barrier of the mountain form: find the largest tested radius
    whose energy minimum over random directions stays positive, and check the
    scalar barrier profile built from measured embedding ratios.

    The sphere of radius eta meets the ray of a direction d at
    t = eta / |d|, so all radii are scanned on the directions' ray
    polynomials; one :class:`RayEnergy` pass per direction gives the
    polynomial, the gradient magnitude of the norm |d| and the corner
    average of the q-norms of d.  The reported level alpha is the scan's
    minimum over the directions at the chosen radius.

    The scalar barrier profile g(t) = beta - gamma t^a - delta t^b, with
    a = q.hi - pmax.hi and b = q.lo - pmax.hi (both positive under the
    gate), falls through zero once; its root, ``barrier_positive_radius``,
    is found by :func:`decreasing_root` on log beta - log(gamma t^a +
    delta t^b) in x = log t, the log ratio :class:`solvers._RaySlope` of
    the weights (beta, -gamma, -delta) at the powers (0, a, b).  The check
    fails when the profile is not positive at t = 1e-6."""
    if not validate_hypotheses(s, "mountain").passed:
        raise HypothesisGateError("mountain hypotheses fail; geometry check skipped")
    rng = np.random.default_rng(seed)
    grid = s.grid
    dirs = [_random_direction(grid, rng) for _ in range(n_directions)]
    qlo_field = ExponentField.from_values(grid, s.q.lo)
    qhi_field = ExponentField.from_values(grid, s.q.hi)
    scans = []
    c1_samples = []
    c2_samples = []
    for d in dirs:
        ray = RayEnergy(d, lam, s, "mountain")
        nm, _ = luxemburg_norm_cells(grid, ray.gradient_magnitude, s.pmax)
        scans.append(ray_energy(ray.poly, _ETA_GRID / nm))
        avg = ray.corner_average
        nqhi, _ = luxemburg_norm_cells(grid, avg, qhi_field)
        nqlo, _ = luxemburg_norm_cells(grid, avg, qlo_field)
        c1_samples.append(nm / nqhi)
        c2_samples.append(nm / nqlo)
    c1 = float(min(c1_samples))
    c2 = float(min(c2_samples))

    low = np.min(scans, axis=0)
    positive = np.flatnonzero(low > 0.0)
    if positive.size == 0:
        raise SphereGeometryError("no tested radius kept the energy positive")
    best_eta = float(_ETA_GRID[positive[-1]])
    best_alpha = float(low[positive[-1]])

    # scalar barrier profile from the measured embedding ratios
    beta = 1.0 / s.pmax.hi
    gamma = 1.0 / (s.q.lo * c1**s.q.hi)
    delta = 1.0 / (s.q.lo * c2**s.q.lo)
    a, b = s.q.hi - s.pmax.hi, s.q.lo - s.pmax.hi
    x, _, _ = decreasing_root(_RaySlope([0.0, a, b], [beta, -gamma, -delta]))
    with np.errstate(over="ignore"):
        g_radius = float(np.exp(x))
    failures = 0 if g_radius > 1e-6 else 1
    return CheckReport(
        "mountain_geometry",
        int(len(_ETA_GRID) * n_directions),
        failures,
        best_alpha,
        constants={
            "eta": best_eta,
            "alpha": best_alpha,
            "C1": c1,
            "C2": c2,
            "beta": beta,
            "gamma": gamma,
            "delta": delta,
            "barrier_positive_radius": g_radius,
        },
    )


def check_ray_boundedness(
    lam: float, s: ExponentSet, n_rays: int = 50, seed=0
) -> CheckReport:
    """Every ray in a random bump-spanned subspace eventually has negative
    mountain-form energy; reports the smallest and largest crossing radius.

    Each ray is scanned at the doublings t = 1, 2, ..., T = 2^_MAX_DOUBLINGS
    on its polynomial (:attr:`RayEnergy.poly`), one pass over the cells per
    ray; the crossing is the first doubling after the last nonnegative
    energy.  A ray whose energy at T is still nonnegative is a failure, with
    crossing +inf.  The margin of a ray is -E / sum_k |c_k| t^p_k at its
    crossing (at T on a failure), the energy over the size of its terms
    there: in (0, 1] on a ray that crosses, in [-1, 0] on a failure.  A ray
    whose term size at that doubling is not finite (a coefficient or a power
    overflows), or whose energy at T is NaN, raises NonFiniteError: an
    overflow is a check that did not run, not a ray that never crosses."""
    rng = np.random.default_rng(seed)
    grid = s.grid
    basis = []
    for _ in range(_SUBSPACE_DIM):
        center = rng.uniform(0.3, 0.7, size=grid.dim) * np.asarray(grid.extent)
        side = rng.uniform(0.15, 0.3) * min(grid.extent)
        t0 = rng.uniform(1.5, 3.0)
        basis.append(bump_function(grid, t0, SubBox.centered(center, side)).fn.values)
    ts = 2.0 ** np.arange(_MAX_DOUBLINGS + 1)
    crossings = []

    def trial(_):
        coeff = rng.standard_normal(_SUBSPACE_DIM)
        coeff /= np.linalg.norm(coeff)
        w = GridFunction(grid, sum(c * b for c, b in zip(coeff, basis)))
        expos, coeffs = RayEnergy(w, lam, s, "mountain").poly
        energy = ray_energy((expos, coeffs), ts)
        nonneg = np.flatnonzero(energy >= 0.0)
        k = min(nonneg[-1] + 1 if nonneg.size else 0, ts.size - 1)
        size = ray_energy((expos, np.abs(coeffs)), ts[k])
        if not math.isfinite(size) or math.isnan(energy[-1]):
            raise NonFiniteError(f"the ray energy overflows at lambda = {lam!r}")
        crossings.append(ts[k] if energy[-1] < 0.0 else math.inf)
        return float(-energy[k] / size), energy[-1] < 0.0

    report = _sampled("ray_boundedness", n_rays, trial)
    report.constants = {
        "inf_T": float(min(crossings)),
        "sup_T": float(max(crossings)),
        "subspace_dim": _SUBSPACE_DIM,
    }
    return report


def check_coercivity(
    lam: float,
    s: ExponentSet,
    n_samples: int = 500,
    seed=0,
) -> CheckReport:
    """Coercivity floor of the coercive form on fields with gradient norm > 1,
    together with the uniform bulk-difference bound that drives it.

    Each sample u = t*w is read from one :class:`RayEnergy` pass of the
    random direction w: its gradient magnitude gives |w|, so t = target/|w|,
    and the bulk modulars and the energy of u come from the pass's group
    sums and polynomial at t."""
    if not validate_hypotheses(s, "coercive").passed:
        raise HypothesisGateError("coercive hypotheses fail; coercivity check skipped")
    rng = np.random.default_rng(seed)
    grid = s.grid
    mlo, mhi = s.pmax.lo, s.pmax.hi
    qlo, qhi = s.q.lo, s.q.hi
    base = np.float64(lam * qhi / mlo)
    with np.errstate(over="ignore"):
        c_const = float((lam / mlo) * (base ** (mhi / (qlo - mhi)) + base ** (mlo / (qhi - mlo))))
    if not math.isfinite(c_const):
        raise NonFiniteError(f"the constant C overflows at lambda = {lam!r}")
    d_const = c_const * grid.volume
    log_lo, log_hi = np.log10(1.01), np.log10(50.0)

    def trial(_):
        w = _random_direction(grid, rng)
        target = 10.0 ** rng.uniform(log_lo, log_hi)
        ray = RayEnergy(w, lam, s, "coercive")
        norm, _ = luxemburg_norm_cells(grid, ray.gradient_magnitude, s.pmax)
        t = target / norm
        lhs = (lam / mlo) * ray.modular("term_pmax", t) - (1.0 / qhi) * ray.modular("term_q", t)
        scale = max(1.0, abs(lhs), d_const)
        m1 = (d_const - lhs) / scale
        total = float(ray_energy(ray.poly, t))
        floor = (1.0 / mhi) * target**mlo - d_const
        scale2 = max(1.0, abs(total), abs(floor))
        m2 = (total - floor) / scale2
        return min(m1, m2), not (m1 < -_REL_SLACK or m2 < -_REL_SLACK)

    report = _sampled("coercivity_floor", n_samples, trial)
    report.constants = {"C": c_const, "D": d_const}
    return report


def _sampled(name: str, n: int, trial, width: int | None = None) -> CheckReport:
    """The battery's one sample loop: it counts the samples and failures and
    keeps the smallest margin.  Without ``width``, ``trial(i)`` returns
    scalars (margin, passed) for sample i < n; with it, ``trial(rows)``
    returns arrays for a slice of max(1, ``_BLOCK_ELEMENTS // width``) rows:
    margins, and one passed flag per sample judged."""
    worst, samples, failures = math.inf, 0, 0
    if width is None:
        for i in range(n):
            margin, passed = trial(i)
            worst = min(worst, margin)
            failures += not passed
        return CheckReport(name, n, failures, float(worst))
    rows = max(1, _BLOCK_ELEMENTS // width)
    for start in range(0, n, rows):
        margins, passed = trial(slice(start, min(start + rows, n)))
        worst = np.min(margins, initial=worst)
        samples += passed.size
        failures += passed.size - int(np.count_nonzero(passed))
    return CheckReport(name, samples, failures, float(worst))


def _holder(u: GridFunction, v: GridFunction, p: ExponentField) -> tuple[float, bool]:
    """Pairing bound lhs = |int u v| <= rhs = (1/p.lo + 1/p'.lo) |u|_p |v|_p';
    returns ((rhs - lhs)/rhs, passed)."""
    pc = conjugate_exponent(p)
    au, av = node_to_cell(u), node_to_cell(v)
    lhs = abs(cell_quadrature(u.grid, au * av))
    nu, _ = luxemburg_norm_cells(u.grid, au, p)
    nv, _ = luxemburg_norm_cells(u.grid, av, pc)
    rhs = (1.0 / p.lo + 1.0 / pc.lo) * nu * nv
    return (rhs - lhs) / max(rhs, 1e-300), lhs <= rhs + _REL_SLACK * rhs


def _sandwich(u: GridFunction, p: ExponentField) -> tuple[float, bool]:
    """Norm-modular sandwich: the modular rho sits between lower and upper,
    norm^lo and norm^hi in the order of their size (both 1 at norm 1, where rho
    must be 1 to ``NORM_TOL``); returns (min(rho - lower, upper - rho)/upper, passed)."""
    a = node_to_cell(u)
    nu, _ = luxemburg_norm_cells(u.grid, a, p)
    rho = modular_cells(u.grid, a, p)
    if abs(nu - 1.0) <= NORM_TOL:
        lower = upper = 1.0
        passed = abs(rho - 1.0) <= NORM_TOL
    else:
        lower, upper = (nu**p.lo, nu**p.hi) if nu > 1.0 else (nu**p.hi, nu**p.lo)
        passed = lower * (1.0 - _REL_SLACK) <= rho <= upper * (1.0 + _REL_SLACK)
    top = max(upper, 1e-300)
    return min((rho - lower) / top, (upper - rho) / top), passed


def _inclusion(u: GridFunction, r1: ExponentField, r2: ExponentField) -> tuple[float, bool]:
    """Embedding bound lhs = |u|_{r1} <= rhs = (|domain|+1) |u|_{r2} for
    r1 <= r2 pointwise; returns ((rhs - lhs)/rhs, passed)."""
    if np.any(r1.values > r2.values):
        raise ValueError("inclusion bound requires r1 <= r2 at every cell")
    a = node_to_cell(u)
    n1, _ = luxemburg_norm_cells(u.grid, a, r1)
    n2, _ = luxemburg_norm_cells(u.grid, a, r2)
    rhs = (u.grid.volume + 1.0) * n2
    return (rhs - n1) / max(rhs, 1e-300), n1 <= rhs + _REL_SLACK * rhs


def check_holder_random(s: ExponentSet, n_samples: int = 200, seed=0) -> CheckReport:
    """Randomized pairing bound on the p1 exponent field."""
    rng = np.random.default_rng(seed)
    grid = s.grid

    def trial(_):
        u = GridFunction(grid, rng.standard_normal(grid.node_shape) * rng.uniform(0.1, 5.0))
        v = GridFunction(grid, rng.standard_normal(grid.node_shape) * rng.uniform(0.1, 5.0))
        return _holder(u, v, s.p1)

    return _sampled("holder_pairing", n_samples, trial)


def check_sandwich_random(s: ExponentSet, n_samples: int = 200, seed=0) -> CheckReport:
    """Randomized norm-modular sandwich on the p2 exponent field, both sides of 1."""
    rng = np.random.default_rng(seed)
    grid = s.grid

    def trial(i):
        amp = rng.uniform(0.05, 0.5) if i % 2 else rng.uniform(1.0, 20.0)
        return _sandwich(GridFunction(grid, amp * rng.standard_normal(grid.node_shape)), s.p2)

    return _sampled("norm_modular_sandwich", n_samples, trial)


def check_inclusion_random(s: ExponentSet, n_samples: int = 200, seed=0) -> CheckReport:
    """Randomized embedding bound with the p1 <= pmax pairing."""
    rng = np.random.default_rng(seed)
    grid = s.grid

    def trial(_):
        u = GridFunction(grid, rng.standard_normal(grid.node_shape) * rng.uniform(0.1, 10.0))
        return _inclusion(u, s.p1, s.pmax)

    return _sampled("inclusion_bound", n_samples, trial)


def run_all_checks(s: ExponentSet, lam: float = 1.0, seed=0) -> list[CheckReport]:
    """The full battery, in a fixed order, each check at its default size and
    seeded independently.  A check that refuses to run (for example because
    the hypotheses it assumes fail) becomes a failed ``did not run`` report,
    and the battery goes on to the next check."""
    battery = [
        ("pointwise_inequalities", lambda: check_pointwise_inequalities(seed=seed)),
        ("auxiliary_inequality", lambda: check_auxiliary_inequality(seed=seed + 1)),
        ("strong_monotonicity_r2", lambda: check_strong_monotonicity(2.0, 10_000, dim=s.dim, seed=seed + 2)),
        ("strong_monotonicity_r3", lambda: check_strong_monotonicity(3.0, dim=s.dim, seed=seed + 3)),
        ("holder_pairing", lambda: check_holder_random(s, seed=seed + 4)),
        ("norm_modular_sandwich", lambda: check_sandwich_random(s, seed=seed + 5)),
        ("inclusion_bound", lambda: check_inclusion_random(s, seed=seed + 6)),
        ("mountain_geometry", lambda: check_mp_geometry(lam, s, seed=seed + 7)),
        ("ray_boundedness", lambda: check_ray_boundedness(lam, s, seed=seed + 8)),
        ("coercivity_floor", lambda: check_coercivity(lam, s, seed=seed + 9)),
    ]
    reports = []
    for name, thunk in battery:
        try:
            reports.append(thunk())
        except DoublePhaseError as exc:
            reports.append(
                CheckReport(name, 0, 1, float("-inf"), notes=f"did not run: {exc}")
            )
    return reports
