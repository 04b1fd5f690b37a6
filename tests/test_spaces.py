import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from doublephase import spaces
from doublephase.exponents import ExponentField, build_exponent_set
from doublephase.grid import DomainGrid, GridFunction, gradient_values, node_to_cell
from doublephase.spaces import (
    NORM_TOL,
    decreasing_root,
    luxemburg_norm,
    luxemburg_norm_cells,
    modular,
    sobolev_norm,
)
from doublephase.verification import _holder, _inclusion, _sandwich

from conftest import random_field

EXACT_CONST_TWO = 4.0 / np.log(2.0)  # closed form of the variable-exponent modular below


def unit_square_set(res):
    g = DomainGrid(2, (res, res))
    return g, build_exponent_set("2", "2 + x1", "5", g)


def test_modular_constants():
    g = DomainGrid(2, (12, 12))
    p2 = ExponentField.from_values(g, 2.0)
    one = GridFunction(g, np.ones(g.node_shape))
    assert abs(modular(one, p2) - 1.0) <= 1e-14
    assert modular(GridFunction.zeros(g), p2) == 0.0


def test_modular_variable_exponent_converges_to_closed_form():
    # integrand 2^(2+x1) integrates to 4/ln 2 over the unit square
    errs = []
    for res in (9, 17, 33):
        g, s = unit_square_set(res)
        u = GridFunction(g, np.full(g.node_shape, 2.0))
        errs.append(abs(modular(u, s.p2) - EXACT_CONST_TWO))
    assert errs[1] <= errs[0] / 3.0
    assert errs[2] <= errs[1] / 3.0
    assert errs[2] <= 1e-3


def test_luxemburg_zero_field():
    g = DomainGrid(2, (8, 8))
    p = ExponentField.from_values(g, 2.0)
    value, trace = luxemburg_norm(GridFunction.zeros(g), p)
    assert value == 0.0 and trace.root == 0.0 and trace.iterations == 0


def test_luxemburg_constant_exponent_closed_form(rng):
    g = DomainGrid(3, (10, 10, 10))
    p = ExponentField.from_values(g, 2.0)
    u = random_field(g, rng, zero_boundary=False)
    value, trace = luxemburg_norm(u, p)
    assert abs(value - np.sqrt(modular(u, p))) <= 1e-10 * max(1.0, value)
    assert trace.residual <= NORM_TOL


def test_luxemburg_constant_exponent_of_known_modular():
    # modular(u, 2) = 4 on the unit box forces norm 2
    g = DomainGrid(2, (12, 12))
    p = ExponentField.from_values(g, 2.0)
    u = GridFunction(g, np.full(g.node_shape, 2.0))
    assert abs(modular(u, p) - 4.0) <= 1e-12
    value, _ = luxemburg_norm(u, p)
    assert abs(value - 2.0) <= 1e-10


def test_luxemburg_norm_of_constant_two_is_two():
    # modular(2/mu) = 1 at mu = 2 for any exponent on a unit-volume box
    g, s = unit_square_set(17)
    u = GridFunction(g, np.full(g.node_shape, 2.0))
    value, trace = luxemburg_norm(u, s.p2)
    assert abs(value - 2.0) <= 1e-10
    assert trace.residual <= NORM_TOL


def test_luxemburg_self_consistency_on_fine_grid():
    # independent midpoint quadrature of |2/mu|^(2+x1) must hit 1
    g, s = unit_square_set(65)
    u = GridFunction(g, np.full(g.node_shape, 2.0))
    mu, _ = luxemburg_norm(u, s.p2)
    centers = g.cell_axes()[0]
    x = centers[:, None] * np.ones((1, g.cell_shape[1]))
    rho = g.cell_volume * np.sum((2.0 / mu) ** (2.0 + x))
    assert abs(rho - 1.0) <= 1e-8


def test_luxemburg_homogeneity(rng):
    g = DomainGrid(3, (8, 8, 8))
    s = build_exponent_set("2", "2 + 0.5*sin(pi*x1)", "4", g)
    for _ in range(10):
        u = random_field(g, rng, amp=rng.uniform(0.1, 5.0), zero_boundary=False)
        c = rng.uniform(-8.0, 8.0)
        if c == 0.0:
            continue
        base, _ = luxemburg_norm(u, s.p2)
        scaled, _ = luxemburg_norm(c * u, s.p2)
        assert abs(scaled - abs(c) * base) <= 1e-8 * max(1.0, abs(c) * base)


def test_luxemburg_triangle_inequality(rng):
    g = DomainGrid(2, (9, 9))
    s = build_exponent_set("2", "2 + x1", "5", g)
    for _ in range(100):
        u = random_field(g, rng, amp=rng.uniform(0.1, 3.0), zero_boundary=False)
        v = random_field(g, rng, amp=rng.uniform(0.1, 3.0), zero_boundary=False)
        nu, _ = luxemburg_norm(u, s.p2)
        nv, _ = luxemburg_norm(v, s.p2)
        nuv, _ = luxemburg_norm(u + v, s.p2)
        assert nuv <= nu + nv + 1e-10


def test_scaled_modular_strictly_decreasing(rng):
    g = DomainGrid(2, (9, 9))
    s = build_exponent_set("2", "2 + x1", "5", g)
    u = random_field(g, rng, zero_boundary=False)
    from doublephase.grid import node_to_cell
    from doublephase.spaces import modular_cells

    cells = node_to_cell(u)
    mus = np.geomspace(0.05, 50.0, 24)
    rhos = [modular_cells(g, cells / mu, s.p2) for mu in mus]
    assert all(a > b for a, b in zip(rhos, rhos[1:]))


def test_norm_modular_equivalence_along_damping(rng):
    # the norm and the modular of u_n - u fall below 1e-6 together
    g = DomainGrid(2, (9, 9))
    s = build_exponent_set("2", "2 + x1", "5", g)
    u = random_field(g, rng, zero_boundary=False)
    noise = random_field(g, rng, zero_boundary=False)
    norms, mods = [], []
    for n in range(60):
        delta = (0.5**n) * noise
        norms.append(luxemburg_norm(delta, s.p2)[0])
        mods.append(modular(delta, s.p2))
    first_norm = next(i for i, v in enumerate(norms) if v < 1e-6)
    first_mod = next(i for i, v in enumerate(mods) if v < 1e-6)
    start = max(first_norm, first_mod)
    assert all(v < 1e-6 for v in norms[start:])
    assert all(v < 1e-6 for v in mods[start:])


def test_luxemburg_large_scales_and_overflow_signal():
    g = DomainGrid(2, (6, 6))
    p = ExponentField.from_values(g, 3.0)
    # huge but representable scales still solve cleanly
    u = GridFunction(g, np.full(g.node_shape, 1e30))
    value, trace = luxemburg_norm(u, p)
    assert trace.residual <= NORM_TOL and value > 0.0
    # overflow-scale input is refused rather than silently wrong
    from doublephase.errors import NormBracketError

    huge = GridFunction(g, np.full(g.node_shape, 1e300))
    with pytest.raises(NormBracketError):
        luxemburg_norm(huge, p)


@pytest.mark.parametrize("c", [9.32e-159, 1e-300, 1e155, 1e290])
def test_luxemburg_extreme_scales_solve_exactly(c):
    # the norm of a constant field c on the unit square is c for any exponent;
    # warnings as errors also catch a modular evaluated at mu = 0
    g = DomainGrid(2, (6, 6))
    p = ExponentField.from_values(g, 2.5)
    u = GridFunction(g, np.full(g.node_shape, c))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, trace = luxemburg_norm(u, p)
    assert abs(value - c) <= 1e-10 * c
    assert trace.residual <= NORM_TOL


def bisected_norm(grid, w, pv):
    """Reference norm: plain bisection of x = log nu for vol*sum((a/e^x)^p) = 1
    on a = |w|/max|w|, run until the bracket stops shrinking."""
    scale = np.abs(w).max()
    a = np.abs(w) / scale

    def rho(x):
        with np.errstate(over="ignore"):
            return grid.cell_volume * np.sum((a / np.exp(x)) ** pv)

    lo, hi = -1.0, 1.0
    while rho(lo) < 1.0:
        lo *= 2.0
    while rho(hi) > 1.0:
        hi *= 2.0
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if rho(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return scale * np.exp(min((lo, hi), key=lambda x: abs(rho(x) - 1.0)))


def _certified(g, w, pv):
    """Norm of the cell field w, with its certificate and iteration count checked."""
    value, trace = luxemburg_norm_cells(g, w, ExponentField.from_values(g, pv))
    rho = g.cell_volume * np.sum((np.abs(w) / value) ** pv)
    assert trace.residual <= NORM_TOL and abs(rho - 1.0) <= NORM_TOL
    assert trace.iterations <= 8
    return value


def test_luxemburg_newton_matches_bisection():
    g = DomainGrid(3, (16, 16, 16))
    rng = np.random.default_rng(9)
    for scale in (1e-300, 1e-150, 1e-20, 1.0, 1e20, 1e150, 1e289):
        for sparse in (False, True):
            w = rng.standard_normal(g.cell_shape)
            if sparse:
                w *= rng.random(g.cell_shape) < 0.01
            w *= scale / np.abs(w).max()
            pv = rng.uniform(1.05, 5.05, g.cell_shape)
            value = _certified(g, w, pv)
            ref = bisected_norm(g, w, pv)
            assert abs(value - ref) <= 4e-15 * ref, (scale, sparse)


def test_luxemburg_single_nonzero_cell():
    # rho(w/mu) = vol*(c/mu)^p at the one cell, so mu = c*vol^(1/p)
    g = DomainGrid(3, (16, 16, 16))
    rng = np.random.default_rng(3)
    for c, p0 in ((1e-300, 1.01), (3.7, 5.05), (1e289, 20.0)):
        w = np.zeros(g.cell_shape)
        w[tuple(rng.integers(0, 15, 3))] = -c
        pv = rng.uniform(1.05, 5.05, g.cell_shape)
        pv[w != 0.0] = p0
        value = _certified(g, w, pv)
        assert abs(value - c * g.cell_volume ** (1.0 / p0)) <= 1e-14 * value


@pytest.mark.parametrize("p0", [1.01, 8.0])
def test_luxemburg_constant_exponent_power_mean(p0):
    g = DomainGrid(3, (16, 16, 16))
    rng = np.random.default_rng(4)
    for scale in (1e-300, 1.0, 1e289):
        w = scale * rng.uniform(0.0, 1.0, g.cell_shape)
        pv = np.full(g.cell_shape, p0)
        value = _certified(g, w, pv)
        closed = np.max(w) * (g.cell_volume * np.sum((w / np.max(w)) ** p0)) ** (1.0 / p0)
        assert abs(value - closed) <= 1e-14 * closed


@pytest.mark.parametrize("p0", [1.05, 2.0, 2.5, 4.0, 20.0])
def test_luxemburg_constant_exponent_single_term(p0):
    # a constant exponent's log rho is linear in log nu, so the root is one
    # Newton step from the closed form scale*(vol*sum a^p)^(1/p)
    g = DomainGrid(3, (16, 16, 16))
    rng = np.random.default_rng(6)
    p = ExponentField.from_values(g, p0)
    for scale in (1e-300, 1e-150, 1e-20, 1.0, 1e20, 1e150, 1e289):
        for sparse in (False, True):
            w = rng.standard_normal(g.cell_shape)
            if sparse:
                w *= rng.random(g.cell_shape) < 0.01
            a = np.abs(w) / np.abs(w).max()
            w = scale * a
            value, trace = luxemburg_norm_cells(g, w, p)
            closed = scale * (g.cell_volume * np.sum(a**p0)) ** (1.0 / p0)
            assert abs(value - closed) <= 4e-15 * closed, (scale, sparse)
            assert trace.iterations <= 2 and trace.residual <= NORM_TOL


def test_luxemburg_default_exponents_iterations(set16):
    # the verify battery's norms: cell averages and gradient magnitudes of
    # random zero-boundary fields under the default experiment's exponents
    g = set16.p1.grid
    rng = np.random.default_rng(7)
    expected = {"p1": 2, "p2": 4, "pmax": 4, "q": 2}
    for _ in range(4):
        u = random_field(g, rng)
        grad = gradient_values(g, u.values)
        for w in (node_to_cell(u), np.sqrt(np.sum(grad * grad, axis=0))):
            for name, iters in expected.items():
                p = getattr(set16, name)
                value, trace = luxemburg_norm_cells(g, w, p)
                assert trace.iterations == iters, name
                ref = bisected_norm(g, w, p.values)
                assert abs(value - ref) <= 4e-15 * ref, name


def test_luxemburg_spread_exponent():
    # exponents over [1.01, 20]: log rho is most curved in log nu here
    g = DomainGrid(3, (16, 16, 16))
    rng = np.random.default_rng(5)
    for scale in (1e-300, 1.0, 1e289):
        for sparse in (False, True):
            w = scale * np.exp(rng.uniform(-40.0, 0.0, g.cell_shape))
            if sparse:
                w *= rng.random(g.cell_shape) < 0.01
            pv = rng.uniform(1.01, 20.0, g.cell_shape)
            value = _certified(g, w, pv)
            ref = bisected_norm(g, w, pv)
            assert abs(value - ref) <= 1e-14 * ref


def _safeguard_case(log_rho0, c):
    """Eight cells a = 1 at p = 1.01 and one a = e^-c at p = 20, with
    8 vol = e^log_rho0."""
    h = np.exp(0.5 * (log_rho0 - np.log(8.0)))
    g = DomainGrid(2, (4, 4), extent=3.0 * h)
    w = np.ones(g.cell_shape)
    w[1, 1] = np.exp(-c)
    pv = np.full(g.cell_shape, 1.01)
    pv[1, 1] = 20.0
    return g, w, pv


@pytest.mark.parametrize("log_rho0, c", [(-48.0, 30.0), (-82.0, 40.0)])
def test_luxemburg_newton_safeguard(log_rho0, c):
    # tiny cells (_safeguard_case).  The first Newton step, from right of the
    # root, follows the p = 1.01 cells to x = log_rho0/1.01, far left of the
    # root, where the p = 20 cell makes rho huge (first case) or overflow
    # (second case, which counts as left of the root); the sign bracket must
    # take over.
    g, w, pv = _safeguard_case(log_rho0, c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = _certified(g, w, pv)
    assert abs(value - bisected_norm(g, w, pv)) <= 1e-14 * value


def test_luxemburg_newton_step_skips_the_overflowing_end():
    # from the midpoint of the bracket the Newton model of the p = 1.01
    # cells leads back to within 2e-11 of the overflowing end; the search
    # takes the midpoint instead of evaluating that end again
    g, w, pv = _safeguard_case(-82.0, 40.0)
    _, trace = luxemburg_norm_cells(g, w, ExponentField.from_values(g, pv))
    assert trace.iterations == 5


def _flat(x):
    """tanh(5 - x): from x = 0 the slope is -1.8e-4, so the first Newton step
    lands 5500 out, on a plateau whose slope rounds to 0."""
    t = math.tanh(5.0 - x)
    return t, t * t - 1.0


def _overflow(x):
    """log(2 e^-x + e^(-30 (x + 20))), whose value overflows left of -43.6."""
    try:
        a, b = 2.0 * math.exp(-x), math.exp(-30.0 * (x + 20.0))
    except OverflowError:
        return math.inf, math.nan
    return math.log(a + b), -(a + 30.0 * b) / (a + b)


def _overshoot(x):
    """-atan(x - 1): Newton diverges from any start more than 1.39 away."""
    return -math.atan(x - 1.0), -1.0 / (1.0 + (x - 1.0) ** 2)


@pytest.mark.parametrize(
    "f, x0, root",
    [(_flat, 0.0, 5.0), (_overflow, -60.0, math.log(2.0)), (_overshoot, 3.0, 1.0),
     (_overshoot, -40.0, 1.0)],
)
def test_decreasing_root_safeguards(f, x0, root):
    # the search starts at x = 0, so f is shifted to start it at x0; the
    # root it searches for, and whose size sets its rounding, is root - x0
    x, value, evals = decreasing_root(lambda y: f(y + x0))
    tol = 8.0 * np.finfo(float).eps * max(1.0, abs(root - x0))
    assert evals < spaces._MAX_ITER
    assert abs(value) <= tol and abs(x - (root - x0)) <= tol
    assert value == f(x + x0)[0]


def test_sobolev_norm_requires_zero_boundary(rng):
    g = DomainGrid(2, (8, 8))
    p = ExponentField.from_values(g, 2.0)
    with pytest.raises(ValueError):
        sobolev_norm(GridFunction(g, np.ones(g.node_shape)), p)
    assert sobolev_norm(GridFunction.zeros(g), p) == 0.0


def test_sobolev_norm_against_direct_quadrature(rng):
    g = DomainGrid(3, (9, 9, 9))
    p = ExponentField.from_values(g, 2.0)
    u = random_field(g, rng)
    # independent route: straight numpy forward differences and midpoint sums
    vals = u.values
    h = g.h
    acc = np.zeros(g.cell_shape)
    diffs = [np.diff(vals, axis=a) / h[a] for a in range(3)]
    avg = [
        0.25
        * (
            d[:, :-1, :-1] + d[:, 1:, :-1] + d[:, :-1, 1:] + d[:, 1:, 1:]
        )
        if a == 0
        else (
            0.25 * (d[:-1, :, :-1] + d[1:, :, :-1] + d[:-1, :, 1:] + d[1:, :, 1:])
            if a == 1
            else 0.25 * (d[:-1, :-1, :] + d[1:, :-1, :] + d[:-1, 1:, :] + d[1:, 1:, :])
        )
        for a, d in enumerate(diffs)
    ]
    acc = sum(a * a for a in avg)
    direct = np.sqrt(g.cell_volume * np.sum(acc))
    assert abs(sobolev_norm(u, p) - direct) <= 1e-10 * max(1.0, direct)


def test_sobolev_scaling(rng):
    g = DomainGrid(3, (8, 8, 8))
    s = build_exponent_set("2", "2 + 0.5*sin(pi*x1)", "4", g)
    u = random_field(g, rng)
    base = sobolev_norm(u, s.pmax)
    for c in (2.0, -3.5, 0.25):
        assert abs(sobolev_norm(c * u, s.pmax) - abs(c) * base) <= 1e-8 * max(1.0, abs(c) * base)


def test_holder_zero_and_equality_cases():
    g = DomainGrid(2, (10, 10))
    p2 = ExponentField.from_values(g, 2.0)
    zero = GridFunction.zeros(g)
    one = GridFunction(g, np.ones(g.node_shape))
    assert _holder(zero, one, p2) == (0.0, True)
    # Cauchy-Schwarz equality at u = v with the constant exponent 2
    margin, passed = _holder(one, one, p2)
    assert passed
    assert abs(margin) <= 1e-12


def test_holder_randomized(rng):
    g = DomainGrid(2, (9, 9))
    s = build_exponent_set("2", "2 + x1", "5", g)
    failures = 0
    for _ in range(200):
        u = random_field(g, rng, amp=rng.uniform(0.05, 5.0), zero_boundary=False)
        v = random_field(g, rng, amp=rng.uniform(0.05, 5.0), zero_boundary=False)
        if not _holder(u, v, s.p2)[1]:
            failures += 1
    assert failures == 0


def test_sandwich_at_norm_one(rng):
    g = DomainGrid(2, (9, 9))
    s = build_exponent_set("2", "2 + x1", "5", g)
    u = random_field(g, rng, zero_boundary=False)
    nu, _ = luxemburg_norm(u, s.p2)
    u1 = (1.0 / nu) * u
    margin, passed = _sandwich(u1, s.p2)
    assert passed
    assert margin >= -NORM_TOL


def test_sandwich_constant_exponent_equality(rng):
    g = DomainGrid(2, (9, 9))
    p2 = ExponentField.from_values(g, 2.0)
    u = random_field(g, rng, zero_boundary=False)
    nu, _ = luxemburg_norm(u, p2)
    u3 = (3.0 / nu) * u
    margin, passed = _sandwich(u3, p2)
    assert passed
    # both ends are 9, so the margin is -|modular - 9| / 9
    assert -9.0 * margin <= 1e-8


def test_sandwich_randomized(rng):
    g = DomainGrid(2, (9, 9))
    s = build_exponent_set("2", "2 + x1", "5", g)
    failures = 0
    for i in range(200):
        amp = rng.uniform(0.01, 0.3) if i % 2 else rng.uniform(1.0, 30.0)
        u = random_field(g, rng, amp=amp, zero_boundary=False)
        if not _sandwich(u, s.p2)[1]:
            failures += 1
    assert failures == 0


def test_inclusion_examples_and_precondition():
    g = DomainGrid(2, (10, 10))
    r1 = ExponentField.from_values(g, 2.0)
    r2 = ExponentField.from_values(g, 3.0)
    zero = GridFunction.zeros(g)
    assert _inclusion(zero, r1, r2)[1]
    one = GridFunction(g, np.ones(g.node_shape))
    # |one| = 1 in both spaces and |domain| + 1 = 2
    margin, passed = _inclusion(one, r1, r2)
    assert passed
    assert abs(margin - 0.5) <= 1e-9
    with pytest.raises(ValueError):
        _inclusion(one, r2, r1)


def test_inclusion_randomized(rng):
    g = DomainGrid(2, (9, 9))
    s = build_exponent_set("2", "2 + x1", "5", g)
    failures = 0
    for _ in range(200):
        u = random_field(g, rng, amp=rng.uniform(0.05, 10.0), zero_boundary=False)
        if not _inclusion(u, s.p1, s.pmax)[1]:
            failures += 1
    assert failures == 0


_THREAD_PROBE = """
import numpy as np
from doublephase.energy import RayEnergy, ray_energy
from doublephase.exponents import build_exponent_set
from doublephase.grid import DomainGrid, GridFunction, gradient_values
from doublephase.solvers import _RaySlope
from doublephase.spaces import luxemburg_norm_cells

g = DomainGrid(3, (48, 48, 48))
s = build_exponent_set("2 + 0.3*x1 + 0.11*x2 + 0.013*x3", "2 + 0.5*sin(pi*x1)", "4 + 0.1*x2", g)
rng = np.random.default_rng(1)
rng.standard_normal(g.cell_shape)
vals = rng.standard_normal(g.node_shape)
for face in g.boundary_faces:
    vals[face] = 0.0
u = GridFunction(g, vals)
grad = gradient_values(g, u.values)
print(repr(luxemburg_norm_cells(g, np.sqrt(np.sum(grad * grad, axis=0)), s.pmax)[0]))
poly = RayEnergy(u, 1.0, s, "mountain").poly
print(poly[0].size)
slope = _RaySlope(poly)
print([slope(x) for x in (-2.0, 0.0, 0.7)])
print(ray_energy(poly, np.array([0.1, 1.0, 3.0])).tolist())
"""


def test_norm_and_ray_sums_do_not_depend_on_blas_threads():
    # OpenBLAS splits a long dot product across its threads, which changes
    # the summation order; the 48^3 norm of an all-distinct exponent field
    # must print the same digits under one thread and under two, and so
    # must the ray slope and ray energy of its 51870-term ray polynomial
    src = str(Path(spaces.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0].splitlines()[1] == "51870"
    assert outs[0] == outs[1]
