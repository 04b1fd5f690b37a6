import itertools

import numpy as np
import pytest

from doublephase.energy import (
    REG_EPS,
    TERMS,
    RayEnergy,
    _powers,
    coefficients,
    energy_and_gradient,
    eval_energy,
    eval_energy_many,
    grad_energy,
    ray_energy,
    residual_norm,
)
from doublephase.exponents import ExponentField, ExponentSet, build_exponent_set
from doublephase.grid import (
    DomainGrid,
    GridFunction,
    cell_quadrature,
    cells,
    discrete_gradient_adjoint,
    gradient_values,
    node_to_cell_adjoint,
    node_to_cell_values,
    pairing,
)
from doublephase.solvers import SubBox, bump_function
from doublephase.spaces import sobolev_norm

from conftest import default_set, random_field


def test_zero_field_energy_and_gradient(set12):
    g = set12.grid
    zero = GridFunction.zeros(g)
    for form in ("mountain", "coercive"):
        rep = eval_energy(zero, 1.0, set12, form)
        assert rep.total == 0.0
        assert rep.term_grad_p1 == rep.term_grad_p2 == rep.term_pmax == rep.term_q == 0.0
        assert np.all(grad_energy(zero, 1.0, set12, form).values == 0.0)


def test_report_identity_and_nonnegative_terms(set12, rng):
    u = random_field(set12.grid, rng)
    for form, sgn_m, sgn_q in (("mountain", 1.0, -1.0), ("coercive", -1.0, 1.0)):
        rep = eval_energy(u, 0.7, set12, form)
        recon = (
            rep.term_grad_p1
            + rep.term_grad_p2
            + sgn_m * rep.lam * rep.term_pmax
            + sgn_q * rep.term_q
        )
        assert rep.total == recon
        assert min(rep.term_grad_p1, rep.term_grad_p2, rep.term_pmax, rep.term_q) >= 0.0


def test_roundoff_counts_every_term_by_its_size(set12, rng):
    eps64 = 64.0 * np.finfo(float).eps
    u = random_field(set12.grid, rng)
    for form in ("mountain", "coercive"):
        rep = eval_energy(u, 0.7, set12, form)
        size = rep.term_grad_p1 + rep.term_grad_p2 + 0.7 * rep.term_pmax + rep.term_q
        assert size > abs(rep.total) and rep.roundoff == pytest.approx(eps64 * size, rel=1e-14)
        # below a summed size of 1 the roundoff is that of 1
        assert eval_energy(1e-3 * u, 0.7, set12, form).roundoff == eps64


def test_rejects_bad_arguments(set12):
    g = set12.grid
    u = GridFunction(g, np.ones(g.node_shape))
    with pytest.raises(ValueError):
        eval_energy(u, 1.0, set12, "mountain")  # boundary not zero
    zero = GridFunction.zeros(g)
    with pytest.raises(ValueError):
        eval_energy(zero, -1.0, set12, "mountain")
    with pytest.raises(ValueError):
        eval_energy(zero, 1.0, set12, "bogus")


def test_a_field_zero_on_the_boundary_is_accepted_however_built(set12, rng):
    # no flag: the values alone place u in the zero-boundary space
    g = set12.grid
    vals = rng.standard_normal(g.node_shape)
    vals[g.boundary_mask()] = 0.0
    u = GridFunction(g, vals)
    rep = eval_energy(u, 1.0, set12, "mountain")
    rep_g, r = energy_and_gradient(u, 1.0, set12, "mountain")
    assert rep_g == rep and r.zero_on_boundary
    ray_rep, _ = RayEnergy(u, 1.0, set12, "mountain").at(1.0)
    assert abs(ray_rep.total - rep.total) <= 1e-12 * abs(rep.total)
    assert sobolev_norm(u, set12.pmax) > 0.0
    assert u.zero_on_boundary


def test_a_boundary_value_written_after_construction_is_refused(set12, rng):
    # the boundary is read when the energy is taken, not when u is built
    g = set12.grid
    u = GridFunction.zeros(g)
    u.values[~g.boundary_mask()] = rng.standard_normal(np.count_nonzero(~g.boundary_mask()))
    eval_energy(u, 1.0, set12, "mountain")
    u.values[0, 5, 5] = 1.0
    with pytest.raises(ValueError, match="zero-boundary"):
        eval_energy(u, 1.0, set12, "mountain")
    with pytest.raises(ValueError, match="zero-boundary"):
        RayEnergy(u, 1.0, set12, "mountain")


def test_evenness_and_oddness_bitwise(set12, rng):
    for _ in range(10):
        u = random_field(set12.grid, rng, amp=rng.uniform(0.1, 3.0))
        for form in ("mountain", "coercive"):
            e_plus = eval_energy(u, 1.3, set12, form)
            e_minus = eval_energy(-u, 1.3, set12, form)
            assert e_plus.total == e_minus.total
            assert e_plus.term_q == e_minus.term_q
            g_plus = grad_energy(u, 1.3, set12, form)
            g_minus = grad_energy(-u, 1.3, set12, form)
            assert np.array_equal(g_minus.values, -g_plus.values)


def test_gradient_matches_central_differences(set12, rng):
    eps = 1e-6
    for form in ("mountain", "coercive"):
        for _ in range(3):
            u = random_field(set12.grid, rng, amp=0.8)
            v = random_field(set12.grid, rng, amp=0.8)
            lam = rng.uniform(0.2, 2.0)
            analytic = pairing(grad_energy(u, lam, set12, form), v)
            fd = (
                eval_energy(u + eps * v, lam, set12, form).total
                - eval_energy(u - eps * v, lam, set12, form).total
            ) / (2 * eps)
            assert abs(fd - analytic) <= 1e-5 * max(1.0, abs(analytic))


def test_gradient_matches_dense_jacobian(rng):
    # node-by-node finite differences on a tiny grid: the nodal residual is
    # the full derivative of the discrete energy divided by the cell volume
    s = default_set(5)
    g = s.grid
    u = random_field(g, rng, amp=0.7)
    lam = 0.8
    eps = 1e-6
    r = grad_energy(u, lam, s, "mountain").values
    interior = ~g.boundary_mask()
    dense = np.zeros(g.node_shape)
    for idx in np.argwhere(interior):
        bump = np.zeros(g.node_shape)
        bump[tuple(idx)] = eps
        plus = eval_energy(GridFunction(g, u.values + bump), lam, s, "mountain").total
        minus = eval_energy(GridFunction(g, u.values - bump), lam, s, "mountain").total
        dense[tuple(idx)] = (plus - minus) / (2 * eps) / g.cell_volume
    err = np.max(np.abs(dense - r))
    assert err <= 1e-4 * max(1.0, np.max(np.abs(r)))


def test_batched_matches_single(set12, rng):
    g = set12.grid
    stack = rng.standard_normal((4,) + g.node_shape)
    stack[..., g.boundary_mask()] = 0.0
    singles = [GridFunction(g, stack[i]) for i in range(4)]
    for form in ("mountain", "coercive"):
        tot = eval_energy_many(g, stack, 0.9, set12, form)
        for i, u in enumerate(singles):
            rep = eval_energy(u, 0.9, set12, form)
            assert tot[i] == rep.total
            # the one-pass value and gradient equal the separate shells bitwise
            fused, grad = energy_and_gradient(u, 0.9, set12, form)
            assert fused == rep
            assert np.array_equal(grad.values, grad_energy(u, 0.9, set12, form).values)


def _all_distinct_set(grid, rng):
    # every cell exponent distinct, so grouping by value compresses nothing
    def field(lo, hi):
        return ExponentField.from_values(grid, rng.uniform(lo, hi, grid.cell_shape))

    p1, p2 = field(2.0, 2.4), field(2.0, 2.5)
    pmax = ExponentField.from_values(grid, np.maximum(p1.values, p2.values))
    return ExponentSet(p1, p2, pmax, field(3.5, 4.0))


@pytest.mark.parametrize("grouped", [True, False])
def test_ray_polynomial_matches_the_energy(set12, rng, grouped):
    s = set12 if grouped else _all_distinct_set(set12.grid, rng)
    ncells = int(np.prod(set12.grid.cell_shape))
    sizes = [f.groups[0].size for f in (s.p1, s.p2, s.pmax, s.q)]
    if grouped:
        assert sum(sizes) < 30  # the exponents depend on x1 only
    else:
        assert sizes == [ncells] * 4
    u = random_field(set12.grid, rng)
    for form in ("mountain", "coercive"):
        poly = RayEnergy(u, 0.9, s, form).poly
        assert poly[0].size <= sum(sizes)
        for t in (1e-3, 1.0, 1e3):
            rep = eval_energy(t * u, 0.9, s, form)
            got = float(ray_energy(poly, t))
            assert abs(got - rep.total) <= 1e-12 * abs(rep.total)
        ts = np.array([1e-3, 1.0, 1e3])
        scalar = [float(ray_energy(poly, t)) for t in ts]
        assert np.allclose(ray_energy(poly, ts), scalar, rtol=1e-14, atol=0.0)


def _low_p1_set(grid, rng, constant):
    # p1 below 2 on some cells (crossing 2) or on all (constant 1.5), so the
    # regularized weights take their own power
    p1_values = 1.5 if constant else rng.uniform(1.5, 2.5, grid.cell_shape)
    p1 = ExponentField.from_values(grid, p1_values)
    p2 = ExponentField.from_values(grid, rng.uniform(2.0, 2.5, grid.cell_shape))
    pmax = ExponentField.from_values(grid, np.maximum(p1.values, p2.values))
    return ExponentSet(p1, p2, pmax, ExponentField.from_values(grid, 4.0))


@pytest.mark.parametrize("kind", ["grouped", "distinct", "p1-crossing-2", "p1-constant-1.5"])
def test_ray_energy_matches_the_kernel_on_the_ray(set12, rng, kind):
    grid = set12.grid
    s = {
        "grouped": lambda: set12,
        "distinct": lambda: _all_distinct_set(grid, rng),
        "p1-crossing-2": lambda: _low_p1_set(grid, rng, constant=False),
        "p1-constant-1.5": lambda: _low_p1_set(grid, rng, constant=True),
    }[kind]()
    vals = random_field(grid, rng).values
    vals[2:5, 2:5, 2:5] = 0.0  # cells with zero gradient and zero average
    vals[6:10, 6:10, 6:10] = 0.5  # cells with zero gradient only
    u = GridFunction(grid, vals)
    for form in ("mountain", "coercive"):
        ray = RayEnergy(u, 0.9, s, form)
        for t in (0.3, 1.0, 7.0):
            rep, r = ray.at(t)
            want, r_want = energy_and_gradient(t * u, 0.9, s, form)
            assert (rep.form, rep.lam) == (want.form, want.lam)
            for got, ref in zip(rep.terms, want.terms):
                assert abs(got - ref) <= 1e-12 * ref
            # relative to the terms' sum, as the signed total may cancel
            assert abs(rep.total - want.total) <= 1e-12 * sum(want.terms)
            assert np.max(np.abs(r.values - r_want.values)) <= 1e-12 * np.max(np.abs(r_want.values))
        # at t = 1 both passes assemble the same weights on the same maps
        rep, r = ray.at(1.0)
        want, r_want = energy_and_gradient(u, 0.9, s, form)
        assert np.array_equal(r.values, r_want.values)
        for got, ref in zip(rep.terms, want.terms):
            assert abs(got - ref) <= 1e-15 * ref


# Reference: the energy kernel on compact cell arrays, rebuilt from the
# public compact maps (grid.gradient_values, grid.node_to_cell_values and their
# adjoints).  The package runs the kernel on the flat node layout; every
# number it returns must be bitwise equal to this one.  Each term sums b^p
# over the axes its exponent repeats along (one sum per entry of p.compact),
# then the entry sums over p; the ray groups the entry sums by the distinct
# values of p.compact.


def _entry_sums(grid, bp, p):
    axes = tuple(a - grid.dim for a, n in enumerate(p.compact.shape) if n == 1)
    return bp.sum(axis=axes, keepdims=True)


def _compact_powers(x2, p):
    e = p.lo if p.is_constant() else p.values
    expo = 0.5 * (e - 2.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if p.is_constant() and e == 2.0:
            return 1.0, x2
        if p.is_constant() and e == 4.0:
            return x2, x2 * x2
        if p.is_constant() and e < 2.0:
            return (x2 + REG_EPS * REG_EPS) ** expo, x2 ** (0.5 * e)
        w = np.power(x2, expo)
        bp = w * x2
        if p.lo >= 2.0:
            return w, bp
        low = p.values < 2.0
        x2_low, expo_low = x2[..., low], expo[low]
        w[..., low] = (x2_low + REG_EPS * REG_EPS) ** expo_low
        bp[..., low] = x2_low ** (expo_low + 1.0)
    return w, bp


def _compact_pass(grid, vals, lam, s, form):
    g = gradient_values(grid, vals)
    a = node_to_cell_values(grid, vals)
    with np.errstate(over="ignore"):
        x2 = {"grad": np.sum(g * g, axis=-(grid.dim + 1)), "avg": a * a}
    rows = []
    for (_, name, kind), c in zip(TERMS, coefficients(lam, form)):
        p = getattr(s, name)
        rows.append((p, c, kind, x2[kind]) + _compact_powers(x2[kind], p))
    return g, a, rows


def _compact_residual(grid, g, a, rows, weights):
    flux_w = sum(c * w for (_, c, kind, *_), w in zip(rows, weights) if kind == "grad")
    source_w = sum(c * w for (_, c, kind, *_), w in zip(rows, weights) if kind == "avg")
    r = discrete_gradient_adjoint(grid, flux_w * g) + node_to_cell_adjoint(grid, source_w * a)
    r[grid.boundary_mask()] = 0.0
    return r


def _compact_kernel(grid, vals, lam, s, form):
    g, a, rows = _compact_pass(grid, vals, lam, s, form)
    terms = [grid.cell_volume * np.sum(_entry_sums(grid, bp, p) / p.compact) for p, *_, bp in rows]
    total = sum(row[1] * t for row, t in zip(rows, terms))
    return terms, total, _compact_residual(grid, g, a, rows, [row[4] for row in rows])


def _compact_ray(grid, vals, lam, s, form, t):
    """poly, at(t) (terms, total, residual), gradient magnitude and modulars
    at t of the ray through vals."""
    g, a, rows = _compact_pass(grid, vals, lam, s, form)
    sums, weights = [], []
    for p, c, kind, x2, w, bp in rows:
        values, inverse = np.unique(p.compact, return_inverse=True)
        entry = _entry_sums(grid, bp, p).reshape(-1)
        sums.append((values, np.bincount(inverse.reshape(-1), weights=entry, minlength=values.size)))
        scale = np.take(t ** (values - 1.0), inverse).reshape(p.compact.shape)
        w = w * scale
        if p.lo < 2.0:
            low = p.values < 2.0
            expo = 0.5 * (p.values[low] - 2.0)
            w[low] = t * ((t * t) * x2[low] + REG_EPS * REG_EPS) ** expo
        weights.append(w)
    vol = grid.cell_volume
    expos = np.concatenate([values for values, _ in sums])
    coeffs = np.concatenate([
        (vol * row[1]) * total / values for row, (values, total) in zip(rows, sums)
    ])
    keep = coeffs != 0.0
    terms = [vol * float(np.sum(total * t**values / values)) for values, total in sums]
    at_total = sum(row[1] * term for row, term in zip(rows, terms))
    modulars = [vol * float(np.sum(total * t**values)) for values, total in sums]
    return {
        "poly": (expos[keep], coeffs[keep]),
        "at": (terms, at_total, _compact_residual(grid, g, a, rows, weights)),
        "gradient_magnitude": np.sqrt(rows[0][3]),
        "modular": modulars,
    }


_FLAT_GRIDS = {
    "16": DomainGrid(3, (16, 16, 16)),
    # more cells than numpy's reduction buffer (8192), so a sum over a
    # strided view would differ from the pairwise sum of a compact copy
    "32": DomainGrid(3, (32, 32, 32)),
    "9x12x7": DomainGrid(3, (9, 12, 7), (1.3, 0.7, 2.0)),
    "2d-33x20": DomainGrid(2, (33, 20), (0.5, 3.0)),
}
_FLAT_EXPONENTS = {
    "default": ("2", "2 + 0.5*sin(pi*x1)", "4"),
    "p1-below-2": ("1.5 + 0.3*x1", "2 + 0.5*sin(pi*x1)", "4"),
    # every cell value distinct on each grid (2 + 0.5*x1*x2*x3 repeats values
    # under permutations of the coordinates: 522 distinct of 3375 at 16^3)
    "all-distinct": ("2", "2 + 0.4*x1 + 0.01*x2 + 0.0003*x3", "4"),
}


@pytest.mark.parametrize("exponents", list(_FLAT_EXPONENTS))
@pytest.mark.parametrize("grid_id", list(_FLAT_GRIDS))
def test_flat_kernel_matches_the_compact_reference(grid_id, exponents, rng):
    grid = _FLAT_GRIDS[grid_id]
    specs = _FLAT_EXPONENTS[exponents]
    if grid.dim == 2:
        specs = tuple(spec.replace(" + 0.0003*x3", "") for spec in specs)
    s = build_exponent_set(*specs, grid)
    if exponents == "all-distinct":
        assert s.p2.groups[0].size == np.prod(grid.cell_shape)
    stack = rng.standard_normal((2,) + grid.node_shape)
    stack[:, grid.boundary_mask()] = 0.0
    stack[0][(slice(2, 5),) * grid.dim] = 0.0  # cells with zero gradient and average
    u = GridFunction(grid, stack[0])
    for form in ("mountain", "coercive"):
        terms, total, r = _compact_kernel(grid, u.values, 0.9, s, form)
        rep, grad = energy_and_gradient(u, 0.9, s, form)
        assert np.array_equal(rep.terms, terms)
        assert rep.total == total
        assert np.array_equal(grad.values, r)
        many = [_compact_kernel(grid, vals, 0.9, s, form)[1] for vals in stack]
        assert np.array_equal(eval_energy_many(grid, stack, 0.9, s, form), many)
        ray = RayEnergy(u, 0.9, s, form)
        ref = _compact_ray(grid, u.values, 0.9, s, form, 1.3)
        assert all(np.array_equal(got, want) for got, want in zip(ray.poly, ref["poly"]))
        at_rep, at_r = ray.at(1.3)
        ref_terms, ref_total, ref_r = ref["at"]
        assert np.array_equal(at_rep.terms, ref_terms)
        assert at_rep.total == ref_total
        assert np.array_equal(at_r.values, ref_r)
        assert np.array_equal(ray.gradient_magnitude, ref["gradient_magnitude"])
        modulars = [ray.modular(field, 1.3) for field, _, _ in TERMS]
        assert modulars == ref["modular"]


def _power_weight_reference(x2, p):
    # the weight before one power per term: both powers, merged per cell
    expo = 0.5 * (p - 2.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        plain = x2**expo
        reg = (x2 + REG_EPS * REG_EPS) ** expo
    return np.where(p < 2.0, reg, plain)


@pytest.mark.parametrize("exponent", [2.0, 4.0, 3.0, 1.5, "mixed"])
def test_one_power_weights_match_the_two_power_formulas(rng, exponent):
    grid = DomainGrid(3, (6, 6, 6))
    # a leading batch axis, on the flat node layout of the kernel
    x2 = rng.uniform(0.0, 3.0, (2,) + grid.node_shape) ** 4
    x2[:, ::2, 1, :] = 0.0
    x2 = x2.reshape(2, grid.node_count)
    if exponent == "mixed":  # cells below, at and above 2
        exponent = rng.choice([1.5, 1.9, 2.0, 2.3, 3.0, 4.0], grid.cell_shape)
    p = ExponentField.from_values(grid, exponent)
    w, bp = _powers(x2, p)
    x2_cells = cells(grid, x2)
    w_ref = _power_weight_reference(x2_cells, p.values)
    bp_ref = np.sqrt(x2_cells) ** p.values  # the cell value base^p before
    # zero cells are compared exactly (0, 1 at p = 2, regularized below 2)
    assert np.allclose(cells(grid, np.broadcast_to(w, x2.shape)), w_ref, rtol=1e-14, atol=0.0)
    assert np.allclose(cells(grid, bp), bp_ref, rtol=1e-14, atol=0.0)


def test_ray_polynomial_of_the_zero_field(set12):
    expos, coeffs = RayEnergy(GridFunction.zeros(set12.grid), 1.0, set12, "mountain").poly
    assert expos.size == coeffs.size == 0
    assert ray_energy((expos, coeffs), 2.0) == 0.0


def test_barrier_lower_bound_chain(set12, rng):
    # energy >= (1/pmax.hi) * grad modular - (1/q.lo) * (low + high bulk integrals)
    from doublephase.grid import gradient_values, node_to_cell
    from doublephase.spaces import sobolev_norm

    s = set12
    g = s.grid
    for _ in range(100):
        u = random_field(g, rng, amp=rng.uniform(0.001, 0.05))
        norm = sobolev_norm(u, s.pmax)
        if norm >= 1.0:
            u = (0.5 / norm) * u
        rep = eval_energy(u, 1.0, s, "mountain")
        gm = np.sqrt(np.sum(gradient_values(g, u.values) ** 2, axis=0))
        am = np.abs(node_to_cell(u))
        grad_mod = cell_quadrature(g, gm**s.pmax.values)
        bulk = cell_quadrature(g, am**s.q.lo) + cell_quadrature(g, am**s.q.hi)
        rhs = grad_mod / s.pmax.hi - bulk / s.q.lo
        assert rep.total >= rhs - 1e-12 * max(1.0, abs(rhs))


def test_gradient_terms_midpoint_convex(set12, rng):
    for _ in range(100):
        u = random_field(set12.grid, rng, amp=rng.uniform(0.01, 0.5))
        v = random_field(set12.grid, rng, amp=rng.uniform(0.01, 0.5))
        mid = 0.5 * (u + v)

        def lam_terms(w):
            rep = eval_energy(w, 1.0, set12, "mountain")
            return rep.term_grad_p1 + rep.term_grad_p2

        assert lam_terms(mid) <= 0.5 * lam_terms(u) + 0.5 * lam_terms(v) + 1e-12


def test_residual_norm_examples(rng):
    g = DomainGrid(3, (12, 12, 12))
    zero = GridFunction.zeros(g)
    assert residual_norm(zero) == 0.0
    r = random_field(g, rng)
    base = residual_norm(r)
    for c in (2.0, -0.5):
        assert abs(residual_norm(c * r) - abs(c) * base) <= 1e-13 * max(1.0, base)
    ones = np.zeros(g.node_shape)
    interior = ~g.boundary_mask()
    ones[interior] = 1.0
    r1 = GridFunction(g, ones)
    n_int = np.count_nonzero(interior)
    exact = np.sqrt(n_int * g.cell_volume)
    got = residual_norm(r1)
    assert abs(got - exact) <= 1e-13 * max(1.0, exact)
    # within O(h) of the square root of the full volume
    assert abs(got - 1.0) <= 2 * g.dim * g.h[0]


def _subdivided_total(grid, vals, s, lam, form, M=3):
    """Independent fine quadrature: trilinear interpolant of the same node
    values, M^3 midpoint subcells per cell, exponents at subcell centers."""
    h = grid.h[0]
    corners = {}
    for bits in itertools.product((0, 1), repeat=3):
        sl = tuple(slice(1, None) if b else slice(0, -1) for b in bits)
        corners[bits] = vals[sl]
    x0 = grid.node_axes()[0][:-1][:, None, None]
    t = (np.arange(M) + 0.5) / M
    terms = np.zeros(4)
    for a, b, c in itertools.product(t, t, t):
        def w(bit, s_):
            return s_ if bit else 1.0 - s_

        val = sum(
            corners[bits] * w(bits[0], a) * w(bits[1], b) * w(bits[2], c)
            for bits in corners
        )
        gx = sum(
            (corners[(1,) + bits[1:]] - corners[(0,) + bits[1:]])
            * w(bits[1], b) * w(bits[2], c)
            for bits in corners if bits[0] == 0
        ) / h
        gy = sum(
            (corners[(bits[0], 1, bits[2])] - corners[(bits[0], 0, bits[2])])
            * w(bits[0], a) * w(bits[2], c)
            for bits in corners if bits[1] == 0
        ) / h
        gz = sum(
            (corners[bits[:2] + (1,)] - corners[bits[:2] + (0,)])
            * w(bits[0], a) * w(bits[1], b)
            for bits in corners if bits[2] == 0
        ) / h
        gm = np.sqrt(gx * gx + gy * gy + gz * gz)
        x1 = x0 + a * h
        p1 = 2.0
        p2 = 2.0 + 0.5 * np.sin(np.pi * x1) * np.ones_like(val)
        m = np.maximum(p1, p2)
        q = 4.0
        V = h**3 / M**3
        terms[0] += V * np.sum(gm**p1 / p1)
        terms[1] += V * np.sum(gm**p2 / p2)
        terms[2] += V * np.sum(np.abs(val) ** m / m)
        terms[3] += V * np.sum(np.abs(val) ** q / q)
    if form == "mountain":
        return terms[0] + terms[1] + lam * terms[2] - terms[3]
    return terms[0] + terms[1] - lam * terms[2] + terms[3]


@pytest.mark.slow
def test_bump_energy_against_fine_quadrature():
    s = default_set(64)
    g = s.grid
    bump = bump_function(g, 2.0, SubBox.centered((0.5, 0.5, 0.5), 0.5))
    lam = 1.0
    lib = eval_energy(bump.fn, lam, s, "mountain").total
    fine = _subdivided_total(g, bump.fn.values, s, lam, "mountain")
    assert abs(lib - fine) <= 1e-3 * abs(fine)
