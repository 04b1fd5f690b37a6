"""The coercive form at lambda = 0 against a manufactured exact solution.

u* = A sin(pi x1) sin(pi x2) sin(pi x3) solves

    -div sum_{p in (p1, p2)} |grad u*|^(p-2) grad u* + |u*|^(q-2) u* = f

for the source f built here, which is the Euler-Lagrange equation of the
coercive form at lambda = 0 with the pairing against f subtracted.  That
energy is strictly convex, so the descent core, run with it as its own
objective, approaches the discrete minimizer, and the max nodal error against
u* measures the discretization alone (the method of manufactured solutions;
P. J. Roache, J. Fluids Eng. 124 (2002) 4-10).  It falls like h^2,
h = 1/(res - 1).  The errors are pinned from both sides: exponents sampled at
each cell's lowest corner instead of its centre raise them and lower the
order, while corner-average weights 1% too large on one axis lower them and
raise the order.
"""
import numpy as np
import pytest

from doublephase.energy import energy_and_gradient
from doublephase.exponents import build_exponent_set
from doublephase.fieldexpr import parse_field_expression
from doublephase.grid import DomainGrid, GridFunction
from doublephase.solvers import SolverOptions, _descent

from conftest import level

DEFAULT = ("2", "2 + 0.5*sin(pi*x1)", "4")
# the exponents at spec shapes the default does not reach, (n, 1, n) for p2
# and (1, n, 1) for q
SHAPES = ("2", "2 + 0.5*sin(pi*x1)*sin(pi*x3)", "4 + 0.2*x2")
RESOLUTIONS = (12, 16, 24)
STEP = 1e-30  # of the complex-step derivative


def _exact(mesh, amp):
    return amp * np.sin(np.pi * mesh[0]) * np.sin(np.pi * mesh[1]) * np.sin(np.pi * mesh[2])


def _flux(mesh, amp, exponents, axis):
    """Component ``axis`` of sum_p |grad u*|^(p-2) grad u*, written with
    (g.g)^((p-2)/2) so that it is analytic in complex coordinates."""
    sin = [np.sin(np.pi * x) for x in mesh]
    cos = [np.cos(np.pi * x) for x in mesh]
    g = [amp * np.pi * cos[a] * sin[a - 1] * sin[a - 2] for a in range(3)]
    gg = g[0] * g[0] + g[1] * g[1] + g[2] * g[2]
    return sum(gg ** ((p(*mesh) - 2) / 2) for p in exponents) * g[axis]


def _source(grid, spec, amp):
    """f at the nodes, zero on the boundary; the divergence of the flux is
    taken by complex step."""
    p1, p2, q = (parse_field_expression(e, grid.dim) for e in spec)
    mesh = grid.node_mesh()
    # with p < 2 the flux is nan where grad u* = 0, on boundary edges only
    with np.errstate(invalid="ignore"):
        div = sum(
            np.imag(_flux([x + 1j * STEP * (a == i) for a, x in enumerate(mesh)], amp, (p1, p2), i))
            for i in range(grid.dim)
        ) / STEP
    u = _exact(mesh, amp)
    f = -div + np.abs(u) ** (q(*mesh) - 2) * u
    f[grid.boundary_mask()] = 0.0
    return f


def _solve(res, spec, amp, max_iter=5000):
    """Max nodal error against u* of the descent on E_h(u) - vol sum f u,
    from zero, and the run."""
    grid = DomainGrid(3, (res,) * 3)
    s = build_exponent_set(*spec, grid)
    f = _source(grid, spec, amp)

    def evaluate(z):
        rep, r = energy_and_gradient(z, 0.0, s, "coercive")
        work = grid.cell_volume * float(np.sum(f * z.values))
        # at lambda = 0 every term of the coercive form is nonnegative, so
        # |total| is the summed size of its terms
        return z, level(rep.total, -work), GridFunction(grid, r.values - f)

    opts = SolverOptions(tol=1e-10, max_iter=max_iter)
    result = _descent(GridFunction.zeros(grid), evaluate, opts)
    error = float(np.max(np.abs(result.u.values - _exact(grid.node_mesh(), amp))))
    return error, result


@pytest.mark.parametrize(
    "spec, errors",
    [
        (DEFAULT, (2.0707e-1, 1.1288e-1, 4.7281e-2)),
        (SHAPES, (2.1895e-1, 1.1951e-1, 5.0124e-2)),
    ],
    ids=["default", "shapes"],
)
def test_second_order_against_the_exact_solution(spec, errors):
    # at amplitude 5 the source term |u*|^(q-2) u* is comparable to the flux,
    # so the corner average is seen as well as the gradient
    runs = [_solve(res, spec, 5.0) for res in RESOLUTIONS]
    for (error, result), pinned in zip(runs, errors):
        assert result.converged and result.iterations <= 30
        assert abs(error / pinned - 1.0) <= 0.05
    for (coarse, _), (fine, _), n0, n1 in zip(runs, runs[1:], RESOLUTIONS, RESOLUTIONS[1:]):
        order = np.log(coarse / fine) / np.log((n1 - 1) / (n0 - 1))
        assert abs(order - 2.0) <= 0.2


def test_the_error_settles_long_before_the_residual():
    # with p1 = 1.5 the run ends max_iter, but the error it reaches after 50
    # iterations (4.3263756e-2) is the one after 1000 (4.3263927e-2)
    spec = ("1.5",) + DEFAULT[1:]
    (early, short), (late, long) = (_solve(12, spec, 1.0, max_iter=n) for n in (50, 1000))
    assert short.termination == long.termination == "max_iter"
    assert abs(early - late) <= 1e-4 * late
