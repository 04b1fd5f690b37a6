import math
from dataclasses import replace

import numpy as np
import pytest

from doublephase import solvers
from doublephase.energy import RayEnergy, eval_energy, grad_energy, residual_norm
from doublephase.errors import (
    EndpointScheduleError,
    HypothesisGateError,
    LambdaGridError,
    NonFiniteError,
    PathCollapseError,
    SubdomainBoundsError,
)
from doublephase.exponents import build_exponent_set
from doublephase.grid import (
    DomainGrid,
    GridFunction,
    fill_pad,
    gradient_gram_inverse,
    pairing,
    transfer,
    transfer_adjoint,
)
from doublephase.solvers import (
    PlateauBump,
    SolverOptions,
    _descent,
    _ray_peak,
    SubBox,
    bump_function,
    dedupe_with_negatives,
    find_endpoint,
    lambda_star_search,
    minimize_energy,
    mountain_pass,
)
from doublephase.spaces import sobolev_norm

from conftest import default_set, level, random_field

LAM_GRID = np.geomspace(1e-2, 1e4, 361)


@pytest.fixture(scope="module")
def s8():
    return default_set(8)


@pytest.fixture(scope="module")
def bump8(s8):
    return bump_function(s8.grid, 2.0, SubBox.centered((0.5, 0.5, 0.5), 0.5))


def test_bump_plateau_and_boundary(s8):
    g = s8.grid
    bump = bump_function(g, 2.0, SubBox.centered((0.5, 0.5, 0.5), 0.5))
    mesh = g.node_mesh()
    inside = np.ones(g.node_shape, dtype=bool)
    for x in mesh:
        inside &= (x >= 0.25) & (x <= 0.75)
    assert np.all(bump.fn.values[inside] == 2.0)
    assert np.all(bump.fn.values[g.boundary_mask()] == 0.0)
    assert bump.fn.values.min() >= 0.0
    assert bump.fn.values.max() == 2.0
    assert abs(bump.box.volume - 0.125) < 1e-15


def test_bump_random_boxes(s8, rng):
    g = s8.grid
    # sides at least one node spacing so the plateau contains grid nodes
    for _ in range(5):
        center = rng.uniform(0.4, 0.6, size=3)
        side = rng.uniform(0.2, 0.35)
        bump = bump_function(g, rng.uniform(1.5, 4.0), SubBox.centered(center, side))
        assert bump.fn.values.min() >= 0.0
        assert abs(bump.fn.values.max() - bump.t0) < 1e-12


def test_bump_rejects_bad_geometry(s8):
    g = s8.grid
    with pytest.raises(SubdomainBoundsError):
        bump_function(g, 2.0, SubBox.centered((0.1, 0.5, 0.5), 0.4))  # touches x1 = 0
    with pytest.raises(SubdomainBoundsError):
        bump_function(g, 2.0, SubBox((0.3, 0.3), (0.6, 0.6)))  # wrong dimension
    with pytest.raises(SubdomainBoundsError):
        SubBox.centered((np.nan, 0.5, 0.5), 0.25)  # bounds that do not order
    with pytest.raises(ValueError):
        bump_function(g, 0.9, SubBox.centered((0.5, 0.5, 0.5), 0.25))  # plateau <= 1


def test_lambda_star_search_report(s8, bump8):
    report = lambda_star_search(s8, bump8, LAM_GRID)
    # the coercive energy is affine and decreasing in the parameter
    rep = eval_energy(bump8.fn, 1.0, s8, "coercive")
    assert rep.term_pmax > 0.0
    vals = [eval_energy(bump8.fn, lam, s8, "coercive").total for lam in (0.5, 1.0, 2.0)]
    assert vals[0] > vals[1] > vals[2]
    # grid answer sits within one grid step above the closed form
    assert report.lambda_star >= report.lambda_star_exact
    below = LAM_GRID[LAM_GRID < report.lambda_star]
    assert below.size and below[-1] <= report.lambda_star_exact
    # negative energy at the reported value, analytic bound respected
    assert eval_energy(bump8.fn, report.lambda_star, s8, "coercive").total < 0.0
    assert report.lambda_star <= report.analytic_bound
    assert report.lambda_star_exact <= report.analytic_bound


def test_lambda_star_grid_exhausted(s8, bump8):
    with pytest.raises(LambdaGridError):
        lambda_star_search(s8, bump8, np.array([1e-3, 2e-3]))


@pytest.mark.parametrize(
    "lam_grid, zero_bump, error, match",
    [
        ([], False, ValueError, "lambda grid must be positive"),
        ([0.0, 1.0], False, ValueError, "lambda grid must be positive"),
        (LAM_GRID, True, ValueError, "bump has vanishing bulk term"),
        # the one grid value that makes the energy negative lies past the bound
        ([1e-2, 1e6], False, LambdaGridError, "overshoots the analytic bound"),
    ],
    ids=["empty", "non-positive", "zero-bump", "overshoot"],
)
def test_lambda_star_search_refuses(s8, bump8, lam_grid, zero_bump, error, match):
    bump = PlateauBump(GridFunction.zeros(s8.grid), bump8.t0, bump8.box) if zero_bump else bump8
    with pytest.raises(error, match=match):
        lambda_star_search(s8, bump, lam_grid)


def test_find_endpoint(s8, bump8):
    e, t = find_endpoint(1.0, s8, bump8.fn)
    assert np.isfinite(t)
    assert eval_energy(e, 1.0, s8, "mountain").total < 0.0
    assert eval_energy(2.0 * e, 1.0, s8, "mountain").total < 0.0
    with pytest.raises(ValueError):
        find_endpoint(1.0, s8, GridFunction.zeros(s8.grid))


def test_find_endpoint_schedule_exhausted(s8, bump8):
    with pytest.raises(EndpointScheduleError):
        find_endpoint(1.0, s8, bump8.fn, max_doublings=1)


def test_minimize_lambda_zero(s8, rng):
    init = random_field(s8.grid, rng, amp=0.2)
    result = minimize_energy(0.0, s8, init, SolverOptions(max_iter=200))
    assert result.energy.total >= -1e-12
    assert result.energy.total <= result.history[0][0]


def test_minimize_refuses_a_nonzero_boundary_start(s8, bump8):
    # the first energy evaluation reads the boundary of the start
    init = bump8.fn.copy()
    init.values[0, 3, 3] = 0.5
    with pytest.raises(ValueError, match="zero-boundary"):
        minimize_energy(1.0, s8, init, SolverOptions(max_iter=1))


def test_minimize_monotone_and_certificates(s8, bump8):
    report = lambda_star_search(s8, bump8, LAM_GRID)
    lam = 2.0 * report.lambda_star
    result = minimize_energy(lam, s8, bump8.fn, SolverOptions())
    assert result.converged and result.residual <= 1e-6
    assert result.energy.total < 0.0
    assert sobolev_norm(result.u, s8.pmax) > 0.0
    # exact monotone history
    energies = [e for e, _ in result.history]
    assert all(a >= b for a, b in zip(energies, energies[1:]))
    # stored residual is the recomputed one
    recomputed = residual_norm(grad_energy(result.u, lam, s8, "coercive"))
    assert abs(recomputed - result.residual) <= 1e-12 * max(1.0, result.residual)
    # weak-solution certificate against random test functions
    rng = np.random.default_rng(7)
    r = grad_energy(result.u, lam, s8, "coercive")
    for _ in range(20):
        v = random_field(s8.grid, rng)
        assert abs(pairing(r, v)) <= 10.0 * 1e-6 * residual_norm(v)
    # coercivity floor on the segment from the bump to the minimizer, at
    # points with gradient norm above one
    mlo, mhi = s8.pmax.lo, s8.pmax.hi
    qlo, qhi = s8.q.lo, s8.q.hi
    base = lam * qhi / mlo
    d_const = (lam / mlo) * (
        base ** (mhi / (qlo - mhi)) + base ** (mlo / (qhi - mlo))
    ) * s8.grid.volume
    checked = 0
    for t in np.linspace(0.0, 1.0, 20):
        it = bump8.fn + float(t) * (result.u - bump8.fn)
        norm = sobolev_norm(it, s8.pmax)
        if norm > 1.0:
            total = eval_energy(it, lam, s8, "coercive").total
            floor = norm**mlo / mhi - d_const
            assert total >= floor - 1e-9 * max(1.0, abs(floor))
            checked += 1
    assert checked > 0


def test_minimize_restart_is_fixed_point(s8, bump8):
    report = lambda_star_search(s8, bump8, LAM_GRID)
    lam = 2.0 * report.lambda_star
    first = minimize_energy(lam, s8, bump8.fn, SolverOptions())
    again = minimize_energy(lam, s8, first.u, SolverOptions())
    assert again.converged and again.iterations <= 2


def test_minimize_gate(s8):
    bad = default_set(8)
    bad = type(bad)(bad.p1, bad.p2, bad.pmax, bad.q)
    # supercritical source exponent: gate must refuse without the override
    bad = build_exponent_set("2", "2 + 0.5*sin(pi*x1)", "7", DomainGrid(3, (8, 8, 8)))
    with pytest.raises(HypothesisGateError):
        minimize_energy(1.0, bad, GridFunction.zeros(bad.grid), SolverOptions(max_iter=1))
    minimize_energy(
        1.0, bad, GridFunction.zeros(bad.grid), SolverOptions(max_iter=1),
        override_hypotheses=True,
    )


@pytest.mark.parametrize("res", [8, 12, 16])
def test_iterations_do_not_grow_with_the_grid(res):
    s = default_set(res)
    bump = bump_function(s.grid, 2.0, SubBox.centered((0.5, 0.5, 0.5), 0.5))
    lam = 2.0 * lambda_star_search(s, bump, LAM_GRID).lambda_star
    low = minimize_energy(lam, s, bump.fn, SolverOptions())
    assert low.converged and low.iterations <= 150
    saddle = mountain_pass(1.0, s, bump.fn, SolverOptions())
    assert saddle.converged and saddle.iterations <= 150


def _trial_passes_per_step(monkeypatch, hook, run):
    """Run ``run()`` counting the calls of the solvers' evaluation ``hook``:
    the first evaluates the start, each other one a trial step."""
    calls = []
    fn = getattr(solvers, hook)

    def counted(*args):
        calls.append(None)
        return fn(*args)

    monkeypatch.setattr(solvers, hook, counted)
    result = run()
    assert result.converged
    return (len(calls) - 1) / result.iterations


def test_minimizer_accepts_most_spectral_steps(monkeypatch):
    # the spectral step is mostly taken as it comes; an Armijo test against
    # the lowest level so far halves it often here (75 trials for 54 steps)
    s = default_set(12)
    bump = bump_function(s.grid, 2.0, SubBox.centered((0.5, 0.5, 0.5), 0.5))
    lam = 2.0 * lambda_star_search(s, bump, LAM_GRID).lambda_star
    ratio = _trial_passes_per_step(
        monkeypatch, "energy_and_gradient",
        lambda: minimize_energy(lam, s, bump.fn, SolverOptions()),
    )
    assert ratio <= 1.2


def test_saddle_search_accepts_most_spectral_steps(monkeypatch):
    # the same on the ray-peak set, from the off-centre default seed (82
    # trials for 59 steps against the lowest level so far)
    s = default_set(12)
    seed = bump_function(s.grid, 2.0, SubBox.centered((0.3, 0.3, 0.3), 0.25))
    ratio = _trial_passes_per_step(
        monkeypatch, "_ray_peak", lambda: mountain_pass(1.0, s, seed.fn, SolverOptions())
    )
    assert ratio <= 1.2


def test_saddle_search_leaves_the_symmetric_saddle():
    # the centred bump's saddle is symmetric under x1 -> 1 - x1 and unstable
    # along an antisymmetric direction; a restart perturbed by a relative
    # 1e-6 along sin(2 pi x1) must descend to a lower level, not stagnate
    s = default_set(16)
    bump = bump_function(s.grid, 2.0, SubBox.centered((0.5, 0.5, 0.5), 0.5))
    sym = mountain_pass(1.0, s, bump.fn, SolverOptions())
    assert sym.converged and abs(sym.energy.total - 1138.417079) < 1e-6
    x1 = s.grid.node_mesh()[0]
    start = GridFunction(s.grid, sym.u.values * (1 + 1e-6 * np.sin(2 * np.pi * x1)))
    low = mountain_pass(1.0, s, start, SolverOptions())
    assert low.converged
    assert low.energy.total < sym.energy.total


def test_saddle_search_reports_a_stop_the_closing_pass_does_not_certify(s8, bump8, monkeypatch):
    # the descent stops on the on-ray residual; the closing kernel pass, the
    # one call of solvers.energy_and_gradient on this path, here reads a
    # residual 1e9 times larger, so the run the descent counted converged
    # ends stagnated with the closing pass's residual
    closing = solvers.energy_and_gradient

    def inflated(*args):
        rep, g = closing(*args)
        return rep, g * 1e9

    monkeypatch.setattr(solvers, "energy_and_gradient", inflated)
    opts = SolverOptions()
    result = mountain_pass(1.0, s8, bump8.fn, opts)
    assert result.termination == "stagnated"
    assert result.residual > 1e6 * opts.tol


def test_saddle_search_converges_at_a_tight_tolerance():
    s = default_set(24)
    bump = bump_function(s.grid, 2.0, SubBox.centered((0.5, 0.5, 0.5), 0.5))
    saddle = mountain_pass(1.0, s, bump.fn, SolverOptions(tol=1e-9))
    assert saddle.converged and saddle.residual <= 1e-9


def _gradient_gram(grid, vals):
    """G^T G of a node field, G the cell gradient, from the gradient rows of
    the transfer maps and their adjoint (the average row zeroed)."""
    maps = fill_pad(grid, transfer(grid, vals), 0.0)
    maps[-1] = 0.0
    return transfer_adjoint(grid, maps).reshape(grid.node_shape)


def test_descent_minimizes_a_quadratic(rng):
    # the core with an objective of its own: 1/2 vol u'Au - vol b'u on the
    # interior nodes, A = G^T G + I, whose gradient in the node pairing is
    # Au - b; its report carries only the level and its roundoff
    grid = DomainGrid(3, (8, 8, 8))
    vol = grid.cell_volume
    interior = ~grid.boundary_mask()
    b = np.where(interior, rng.standard_normal(grid.node_shape), 0.0)

    def evaluate(z):
        au = np.where(interior, _gradient_gram(grid, z.values) + z.values, 0.0)
        quad, lin = 0.5 * vol * float(np.sum(z.values * au)), vol * float(np.sum(b * z.values))
        return z, level(quad, -lin), GridFunction(grid, au - b)

    result = _descent(GridFunction.zeros(grid), evaluate, SolverOptions(tol=1e-10))
    assert result.converged
    assert result.energy == evaluate(result.u)[1]
    # the dense interior solve: A from the unit vectors of the interior nodes
    units = np.zeros((interior.sum(),) + grid.node_shape)
    units[(np.arange(len(units)), *np.nonzero(interior))] = 1.0
    dense = np.stack([_gradient_gram(grid, unit)[interior] for unit in units])
    dense += np.eye(len(units))
    exact = np.linalg.solve(dense, b[interior])
    assert np.max(np.abs(result.u.values[interior] - exact)) <= 1e-8 * np.max(np.abs(exact))


def test_descent_rejects_a_trial_that_is_not_finite(rng):
    # a level that is nan, and a gradient whose residual overflows, are
    # refused like a collapsed ray: the step shrinks and the run goes on; a
    # start that is not finite is refused
    grid = DomainGrid(3, (8, 8, 8))
    b = np.where(~grid.boundary_mask(), rng.standard_normal(grid.node_shape), 0.0)
    calls = []

    def evaluate(z):
        calls.append(len(calls))
        g = GridFunction(grid, np.where(~grid.boundary_mask(), z.values - b, 0.0))
        if len(calls) == 2:
            return z, level(math.nan), g
        if len(calls) == 3:
            return z, level(0.0), GridFunction(grid, np.full(grid.node_shape, 1e200))
        return z, level(0.5 * float(np.sum(z.values * z.values)), -float(np.sum(b * z.values))), g

    with np.errstate(over="ignore"):
        result = _descent(GridFunction.zeros(grid), evaluate, SolverOptions(tol=1e-10))
    assert result.converged and len(calls) > 3
    assert all(math.isfinite(e) and math.isfinite(r) for e, r in result.history)
    with pytest.raises(NonFiniteError, match="the descent cannot start: energy level nan"):
        _descent(GridFunction.zeros(grid), lambda z: (z, level(math.nan), z), SolverOptions())


def test_descent_shrinks_a_step_whose_trial_collapses(rng):
    # the hook refuses, as a collapsed ray, every field beyond 1.5 times the
    # size of the minimizer of 2 vol u'Pu - vol b'u (P = G^T G): the first
    # two trials, 4 and 2 times the minimizer, are refused, the step shrinks
    # and the run converges
    grid = DomainGrid(3, (8, 8, 8))
    vol = grid.cell_volume
    interior = ~grid.boundary_mask()
    b = np.where(interior, rng.standard_normal(grid.node_shape), 0.0)
    exact = 0.25 * gradient_gram_inverse(grid, b)
    cap = 1.5 * np.max(np.abs(exact))
    refused = []

    def evaluate(z):
        if np.max(np.abs(z.values)) > cap:
            refused.append(z)
            raise PathCollapseError("beyond the cap")
        au = np.where(interior, 4.0 * _gradient_gram(grid, z.values), 0.0)
        quad, lin = 0.5 * vol * float(np.sum(z.values * au)), vol * float(np.sum(b * z.values))
        return z, level(quad, -lin), GridFunction(grid, au - b)

    result = _descent(GridFunction.zeros(grid), evaluate, SolverOptions(tol=1e-10))
    assert result.converged and len(refused) == 2
    assert np.max(np.abs(result.u.values - exact)) <= 1e-12 * np.max(np.abs(exact))


def test_descent_stagnates_when_no_trial_lowers_the_level(rng):
    # every trial lies far above the start's level, beyond its roundoff, so
    # the step shrinks until it falls 18 decades below its first trial (60
    # halvings of 1) and the run ends stagnated at the start
    grid = DomainGrid(3, (8, 8, 8))
    g = random_field(grid, rng)
    calls = []

    def evaluate(z):
        calls.append(z)
        return z, level(0.0 if len(calls) == 1 else 1.0), g

    result = _descent(GridFunction.zeros(grid), evaluate, SolverOptions())
    assert result.termination == "stagnated" and result.iterations == 0
    assert len(calls) == 1 + 60 and np.all(result.u.values == 0.0)


def test_ray_slope_is_infinite_where_a_part_underflows():
    # log(P/N) of 1 - t: P = exp(-x) underflows to 0 far above the root,
    # N = exp(x) far below it
    slope = solvers._RaySlope([0.0, 1.0], [1.0, -1.0])
    assert slope(0.0) == (0.0, -1.0)
    for x, value in ((800.0, -math.inf), (-800.0, math.inf)):
        got, d_got = slope(x)
        assert got == value and math.isnan(d_got)


def test_mountain_pass_refuses_a_start_whose_level_overflows():
    # at lambda = 1e150 the energy terms of the 16^3 default seed's ray peak
    # overflow and its level is nan; the search is refused instead of
    # spending its trial budget there
    s = default_set(16)
    seed = bump_function(s.grid, 2.0, SubBox.centered((0.3, 0.3, 0.3), 0.25)).fn
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError, match="the descent cannot start"):
            mountain_pass(1e150, s, seed, SolverOptions())


@pytest.fixture(scope="module")
def mp8(s8, bump8):
    return mountain_pass(1.0, s8, bump8.fn, SolverOptions())


def test_mountain_pass_converges_to_positive_saddle(s8, mp8):
    assert mp8.converged
    assert mp8.residual <= 1e-6
    assert mp8.energy.total > 0.0
    recomputed = residual_norm(grad_energy(mp8.u, 1.0, s8, "mountain"))
    assert abs(recomputed - mp8.residual) <= 1e-12 * max(1.0, mp8.residual)


def test_mountain_pass_output_above_certified_sphere(s8, mp8):
    from doublephase.verification import check_mp_geometry

    report = check_mp_geometry(1.0, s8, seed=3)
    assert sobolev_norm(mp8.u, s8.pmax) >= report.constants["eta"]


def test_mountain_pass_mirror_symmetry(s8, mp8):
    minus = -mp8.u
    assert eval_energy(minus, 1.0, s8, "mountain").total == mp8.energy.total
    assert residual_norm(grad_energy(minus, 1.0, s8, "mountain")) == pytest.approx(
        mp8.residual, rel=0, abs=0
    )


def test_mountain_pass_depends_only_on_the_ray(s8, bump8, mp8):
    # the search starts at the ray peak, so any positive multiple of the
    # direction, the negative-energy endpoint included, gives the same run
    d = bump8.fn
    endpoint, _ = find_endpoint(1.0, s8, d)
    for direction in (0.01 * d, 37.0 * d, endpoint):
        other = mountain_pass(1.0, s8, direction, SolverOptions())
        assert other.converged and other.iterations == mp8.iterations
        rel = abs(other.energy.total - mp8.energy.total) / abs(mp8.energy.total)
        assert rel <= 1e-12


def test_mountain_pass_rejects_zero_direction(s8):
    # refused by its first ray peak, like any ray without a barrier
    with pytest.raises(PathCollapseError, match="no barrier"):
        mountain_pass(1.0, s8, GridFunction.zeros(s8.grid))


def test_mountain_pass_weak_certificate(s8, mp8):
    rng = np.random.default_rng(11)
    r = grad_energy(mp8.u, 1.0, s8, "mountain")
    for _ in range(20):
        v = random_field(s8.grid, rng)
        assert abs(pairing(r, v)) <= 10.0 * 1e-6 * residual_norm(v)


def test_mountain_pass_starts_at_the_ray_peak(s8, bump8):
    # with no descent step the result is the energy peak along the ray of
    # the direction, where the ray derivative pairing(grad E(u), u) vanishes
    rng = np.random.default_rng(5)
    directions = [bump8.fn] + [random_field(s8.grid, rng) for _ in range(3)]
    for d in directions:
        start = mountain_pass(1.0, s8, d, SolverOptions(max_iter=0))
        assert start.iterations == 0
        u = start.u
        rep = eval_energy(u, 1.0, s8, "mountain")
        assert start.energy == rep and rep.total > 0.0
        slope = pairing(grad_energy(u, 1.0, s8, "mountain"), u)
        assert abs(slope) <= 1e-9 * sum(rep.terms)


def _zero_ray_slope(peak, s):
    """The slope sum_k c_k p_k of the ray polynomial of ``peak`` at t = 1
    vanishes relative to the sum of its terms' magnitudes."""
    expos, coeffs = RayEnergy(peak, 1.0, s, "mountain").poly
    slope = coeffs * expos
    return abs(slope.sum()) <= 1e-12 * np.abs(slope).sum()


def test_ray_peak_zeroes_the_ray_slope(s8, bump8, monkeypatch):
    # from starts below, near and far above the peak, and from 1e-40 * bump,
    # whose peak lies about 133 doublings out; a start 1e6 times too close or
    # too far takes at most six slope evaluations
    evals = []
    slope = solvers._RaySlope.__call__

    def counted(self, x):
        evals[-1] += 1
        return slope(self, x)

    monkeypatch.setattr(solvers._RaySlope, "__call__", counted)
    rng = np.random.default_rng(7)
    directions = [bump8.fn] + [random_field(s8.grid, rng) for _ in range(3)]
    cases = [(scale, d) for d in directions for scale in (1e-6, 1.0, 1e6)]
    for scale, d in cases + [(1e-40, bump8.fn)]:
        evals.append(0)
        peak, _, _ = _ray_peak(scale * d, 1.0, s8)
        assert _zero_ray_slope(peak, s8), scale
        if scale != 1.0:
            assert evals[-1] <= 6, (scale, evals[-1])


def test_ray_peak_with_overlapping_powers():
    # p2 reaches 3 and q starts at 2.8, so rising and falling powers overlap
    # (the mountain hypotheses fail; --override-hypotheses admits this set)
    s = build_exponent_set("2", "2 + sin(pi*x1)", "2.8 + 0.5*x1", DomainGrid(3, (8, 8, 8)))
    rng = np.random.default_rng(13)
    bump = bump_function(s.grid, 2.0, SubBox.centered((0.5, 0.5, 0.5), 0.5)).fn
    for d in (bump, random_field(s.grid, rng)):
        peak, _, _ = _ray_peak(d, 1.0, s)
        assert _zero_ray_slope(peak, s)


@pytest.mark.parametrize(
    "p1, p2, q, reason",
    [("3", "3", "2.5", "no barrier"), ("2", "4", "3", "no interior energy peak")],
    ids=["no-barrier", "no-peak"],
)
def test_ray_peak_collapse(bump8, p1, p2, q, reason):
    # q = 2.5 lies below the gradient powers, so a falling term leads at
    # small t (no barrier); p2 = 4 lies above q, so a rising term leads at
    # large t (no peak)
    s = build_exponent_set(p1, p2, q, bump8.fn.grid)
    with pytest.raises(PathCollapseError, match=reason):
        _ray_peak(bump8.fn, 1.0, s)


@pytest.mark.parametrize("scale", [1e100, 1e200])
def test_ray_peak_of_an_overflowing_direction(s8, bump8, scale):
    # the ray polynomial of so large a direction has infinite coefficients
    with pytest.raises(PathCollapseError, match="overflow"):
        _ray_peak(scale * bump8.fn, 1.0, s8)


def test_ray_peak_rejects_a_search_without_finite_values(s8, bump8, monkeypatch):
    # when no evaluation of log(P/N) is finite, the search returns its start
    # t = 1 with an infinite value, which is no peak
    monkeypatch.setattr(solvers._RaySlope, "__call__", lambda self, x: (math.nan, math.nan))
    with pytest.raises(PathCollapseError, match="no ray peak"):
        _ray_peak(bump8.fn, 1.0, s8)


def test_ray_slope_far_right_of_the_peak():
    # E = t^2 - 1e10 t^3: at x = log t = 740 the rising part P = 2 e^-740 is
    # subnormal and P/N underflows to 0, but log P - log N stays finite
    slope = solvers._RaySlope([2.0, 3.0], [2.0, -3e10])
    value, d_value = slope(740.0)
    assert abs(value - (math.log(2.0) - 740.0 - math.log(3e10))) <= 0.05
    assert d_value == -1.0


@pytest.mark.parametrize(
    "beta, gamma, delta, a, b, x",
    [(0.25, 0.05, 2.0, 0.9, 0.3, x) for x in (-50.0, 0.0, 3.0, 700.0)]
    + [(0.25, 3.0, 0.5, 25.0, 0.5, -50.0)],
    ids=["x=-50", "x=0", "x=3", "x=700", "gamma-part-underflows"],
)
def test_ray_slope_of_a_weighted_sum(beta, gamma, delta, a, b, x):
    # the sphere-barrier profile beta - gamma t^a - delta t^b in x = log t:
    # log beta - log(gamma e^(ax) + delta e^(bx)) and its slope, the mean of
    # a and b weighted by the two falling parts; at x = -50 with a = 25 the
    # gamma part e^(-1250) underflows to 0 after the shift
    la, lb = math.log(gamma) + a * x, math.log(delta) + b * x
    top = max(la, lb)
    wa, wb = math.exp(la - top), math.exp(lb - top)
    want = math.log(beta) - np.logaddexp(la, lb)
    value, d_value = solvers._RaySlope([0.0, a, b], [beta, -gamma, -delta])(x)
    assert value == pytest.approx(want, rel=1e-13, abs=1e-13)
    assert d_value == pytest.approx(-(a * wa + b * wb) / (wa + wb), rel=1e-13)


def test_multi_solution_single_seed_gives_mirror_pair(s8, mp8):
    sols, _, _ = dedupe_with_negatives([mp8], s8)
    assert len(sols) >= 2
    norms = [sobolev_norm(r.u, s8.pmax) for r in sols]
    delta = 1e-2 * max(norms)
    assert sobolev_norm(sols[0].u - sols[1].u, s8.pmax) > delta
    # the energy is even and negation exact: the mirror keeps the report
    mirrored = eval_energy(-sols[0].u, 1.0, s8, "mountain")
    assert sols[1].energy.to_dict() == mirrored.to_dict()


def test_multi_solution_duplicate_seeds_dedup(s8, bump8):
    found = [
        mountain_pass(1.0, s8, seed, SolverOptions()) for seed in (bump8.fn, bump8.fn.copy())
    ]
    sols, _, _ = dedupe_with_negatives(found, s8)
    assert len(sols) == 2  # the mirror pair only, duplicates merged


def test_dedupe_drops_unconverged(s8, mp8):
    from doublephase.solvers import SolveResult

    fake = SolveResult(
        mp8.u, mp8.energy, mp8.residual, mp8.iterations, list(mp8.history), "max_iter"
    )
    sols, norms, distances = dedupe_with_negatives([fake], s8)
    assert sols == [] and norms == [] and distances.shape == (0, 0)


def test_dedupe_table_matches_fresh_norms(s8, mp8, rng):
    # converged stand-ins at random fields: three seeds, six distinct candidates
    results = [mp8] + [
        replace(mp8, u=random_field(s8.grid, rng, amp=amp)) for amp in (0.5, 2.0)
    ]
    sols, norms, m = dedupe_with_negatives(results, s8)
    assert len(sols) == 6
    assert norms == [sobolev_norm(r.u, s8.pmax) for r in sols]
    assert m.shape == (6, 6)
    assert np.array_equal(m, m.T)
    assert np.all(np.diag(m) == 0.0)
    for i in range(6):
        for j in range(6):
            if i != j:
                assert m[i, j] == sobolev_norm(sols[i].u - sols[j].u, s8.pmax)
