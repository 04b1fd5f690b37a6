import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from doublephase.energy import eval_energy
from doublephase.exponents import build_exponent_set
from doublephase.grid import (
    _dst1,
    _sine_matrix,
    DomainGrid,
    GridFunction,
    cell_quadrature,
    discrete_gradient_adjoint,
    gradient_gram_inverse,
    gradient_values,
    node_to_cell,
    node_to_cell_adjoint,
    node_to_cell_values,
    pairing,
)

from conftest import random_field

GRID_2D = DomainGrid(2, (7, 11), (0.5, 3.0))
GRID_3D = DomainGrid(3, (12, 10, 9), (1.3, 0.7, 2.0))

def test_grid_invariants():
    g = DomainGrid(2, (8, 12), (1.0, 2.0))
    assert g.h == (1.0 / 7, 2.0 / 11)
    assert g.node_count == 8 * 12
    assert g.cell_shape == (7, 11)
    assert abs(g.volume - 2.0) < 1e-15
    with pytest.raises(ValueError):
        DomainGrid(2, (3, 8))
    with pytest.raises(ValueError):
        DomainGrid(4, (8, 8, 8, 8))


@pytest.mark.parametrize("extent", [0.0, np.inf], ids=["zero", "inf"])
def test_grid_refuses_an_extent_that_is_not_finite_and_positive(extent):
    with pytest.raises(ValueError, match="extent must be finite and positive"):
        DomainGrid(3, (8, 8, 8), extent)


def test_gridfunction_validation():
    g = DomainGrid(2, (6, 6))
    with pytest.raises(ValueError):
        GridFunction(g, np.full(g.node_shape, np.nan))
    with pytest.raises(ValueError):
        GridFunction(g, np.ones((6, 7)))
    vals = np.ones(g.node_shape)
    assert not GridFunction(g, vals).zero_on_boundary
    vals[g.boundary_mask()] = 0.0
    u = GridFunction(g, vals)
    assert u.zero_on_boundary
    # read from the values, so a boundary value written later counts
    u.values[0, 3] = 1.0
    assert not u.zero_on_boundary


@pytest.mark.parametrize("grid", [GRID_2D, GRID_3D], ids=["2d", "3d"])
def test_boundary_faces_zero_the_boundary_mask(grid, rng):
    vals = rng.standard_normal(grid.node_shape)
    by_mask = vals.copy()
    by_mask[grid.boundary_mask()] = 0.0
    by_faces = vals.copy()
    for face in grid.boundary_faces:
        by_faces[face] = 0.0
    assert len(grid.boundary_faces) == 2 * grid.dim
    assert np.array_equal(by_faces, by_mask)
    # zero_on_boundary reads these faces: a field zeroed by the mask is zero
    # on the boundary, and one nonzero on any face makes it not and makes
    # the energy refuse it
    u = GridFunction(grid, by_mask)
    assert u.zero_on_boundary
    s = build_exponent_set("2", "2.5", "3", grid)
    for face in grid.boundary_faces:
        bad = u.values.copy()
        bad[face][(1,) * (grid.dim - 1)] = 1.0  # one node inside the face
        assert np.count_nonzero(bad) == np.count_nonzero(u.values) + 1
        assert not GridFunction(grid, bad).zero_on_boundary
        with pytest.raises(ValueError, match="zero-boundary"):
            eval_energy(GridFunction(grid, bad), 1.0, s, "mountain")


def test_gradient_zero_field():
    g = DomainGrid(3, (6, 6, 6))
    u = GridFunction.zeros(g)
    assert np.all(gradient_values(g, u.values) == 0.0)


def test_gradient_exact_on_affine():
    g = DomainGrid(2, (9, 9))
    u = GridFunction(g, g.node_mesh()[0])
    grad = gradient_values(g, u.values)
    assert np.max(np.abs(grad[0] - 1.0)) <= 1e-12
    assert np.max(np.abs(grad[1])) <= 1e-12
    # general affine field in 3D
    g3 = DomainGrid(3, (7, 7, 7), (1.0, 2.0, 0.5))
    x, y, z = g3.node_mesh()
    w = GridFunction(g3, 1.5 * x - 2.0 * y + 0.25 * z + 3.0)
    grad3 = gradient_values(g3, w.values)
    for a, coef in enumerate((1.5, -2.0, 0.25)):
        assert np.max(np.abs(grad3[a] - coef)) <= 1e-12


def test_gradient_linearity(rng):
    g = DomainGrid(3, (8, 8, 8))
    u = random_field(g, rng, zero_boundary=False)
    v = random_field(g, rng, zero_boundary=False)
    lhs = gradient_values(g, (u + v).values)
    rhs = gradient_values(g, u.values) + gradient_values(g, v.values)
    assert np.max(np.abs(lhs - rhs)) <= 1e-14 * max(1.0, np.max(np.abs(rhs)))


def test_quadrature_constants():
    g = DomainGrid(2, (10, 10))
    assert abs(cell_quadrature(g, np.ones(g.cell_shape)) - 1.0) <= 1e-14
    for c in (-3.5, 0.0, 7.25):
        got = cell_quadrature(g, np.full(g.cell_shape, c))
        assert abs(got - c) <= 1e-13 * max(1.0, abs(c))
    with pytest.raises(ValueError, match=r"cell data shape \(10, 10\) != \(9, 9\)"):
        cell_quadrature(g, np.ones(g.node_shape))


def test_quadrature_linear_integrand_exact():
    # midpoint rule integrates 2 + x1 exactly: closed form 2.5 on the unit square
    g = DomainGrid(2, (9, 9))
    x = np.meshgrid(*g.cell_axes(), indexing="ij")[0]
    assert abs(cell_quadrature(g, 2.0 + x) - 2.5) <= 1e-13


def test_quadrature_second_order_convergence():
    exact = (np.e - 1.0) * np.sin(1.0)

    def err(res):
        g = DomainGrid(2, (res, res))
        x, y = np.meshgrid(*g.cell_axes(), indexing="ij")
        return abs(cell_quadrature(g, np.exp(x) * np.cos(y)) - exact)

    e1, e2 = err(9), err(17)
    assert e2 < e1 / 3.0


def test_node_to_cell_constants():
    g = DomainGrid(3, (6, 6, 6))
    u = GridFunction(g, np.full(g.node_shape, 3.0))
    assert np.all(node_to_cell(u) == 3.0)
    assert np.all(node_to_cell(GridFunction.zeros(g)) == 0.0)


def test_node_to_cell_affine_hits_cell_center():
    g = DomainGrid(2, (8, 8))
    u = GridFunction(g, g.node_mesh()[0])
    got = node_to_cell(u)
    centers = np.meshgrid(*g.cell_axes(), indexing="ij")[0]
    assert np.max(np.abs(got - centers)) <= 1e-15


def test_quadrature_of_averaged_constant():
    g = DomainGrid(3, (7, 7, 7), (1.0, 1.0, 2.0))
    for c in (1.0, -2.5, 0.125):
        u = GridFunction(g, np.full(g.node_shape, c))
        got = cell_quadrature(g, node_to_cell(u))
        assert abs(got - c * g.volume) <= 1e-13 * max(1.0, abs(c) * g.volume)


@pytest.mark.parametrize(
    "grid", [DomainGrid(3, (7, 7, 7), (1.0, 0.5, 2.0)), GRID_2D], ids=["3d", "2d"]
)
def test_adjoint_identities(grid, rng):
    u = rng.standard_normal(grid.node_shape)
    cells = rng.standard_normal(grid.cell_shape)
    lhs = np.sum(node_to_cell_values(grid, u) * cells)
    rhs = np.sum(u * node_to_cell_adjoint(grid, cells))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    comps = rng.standard_normal((grid.dim,) + grid.cell_shape)
    lhs = np.sum(gradient_values(grid, u) * comps)
    rhs = np.sum(u * discrete_gradient_adjoint(grid, comps))
    assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))


# Reference: the transfer maps as plain sums over the 2^dim corners of each
# cell, with weight 2^-dim (average) and 2^(1-dim)/h_a with the corner's sign
# along axis a (gradient component a).


def _corners(dim):
    """(bits, index) per cell corner; bit 1 picks the upper node on that axis."""
    for bits in itertools.product((0, 1), repeat=dim):
        yield bits, (Ellipsis,) + tuple(slice(1, None) if b else slice(0, -1) for b in bits)


def corner_average(grid, vals):
    out = np.zeros(grid.cell_shape)
    for _, corner in _corners(grid.dim):
        out += 2.0 ** -grid.dim * vals[corner]
    return out


def corner_average_adjoint(grid, cells):
    out = np.zeros(grid.node_shape)
    for _, corner in _corners(grid.dim):
        out[corner] += 2.0 ** -grid.dim * cells
    return out


def corner_gradient(grid, vals):
    out = np.zeros((grid.dim,) + grid.cell_shape)
    for bits, corner in _corners(grid.dim):
        term = 2.0 ** (1 - grid.dim) * vals[corner]
        for a, h in enumerate(grid.h):
            out[a] += (1.0 if bits[a] else -1.0) * term / h
    return out


def corner_gradient_adjoint(grid, comps):
    out = np.zeros(grid.node_shape)
    for bits, corner in _corners(grid.dim):
        for a, h in enumerate(grid.h):
            sign = 1.0 if bits[a] else -1.0
            out[corner] += sign * 2.0 ** (1 - grid.dim) * comps[a] / h
    return out


@pytest.mark.parametrize("grid", [GRID_2D, GRID_3D], ids=["2d-single", "3d-single"])
def test_transfer_maps_match_corner_sums(grid, rng):
    vals = rng.standard_normal(grid.node_shape)
    cells = rng.standard_normal(grid.cell_shape)
    comps = rng.standard_normal((grid.dim,) + grid.cell_shape)
    for got, ref in (
        (node_to_cell_values(grid, vals), corner_average(grid, vals)),
        (node_to_cell_adjoint(grid, cells), corner_average_adjoint(grid, cells)),
        (gradient_values(grid, vals), corner_gradient(grid, vals)),
        (discrete_gradient_adjoint(grid, comps), corner_gradient_adjoint(grid, comps)),
    ):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


# Reference: the transfer maps with every pass scaled by its own weight.
# The package applies the average weights (powers of two) once per row, which
# commutes with rounding, so the results must agree bit for bit.


def _along(axis, index):
    """``index`` on the trailing axis ``axis`` (negative), all of the others."""
    return (Ellipsis, index) + (slice(None),) * (-1 - axis)


def _per_axis(x, row, out=None):
    for axis, (w_lo, w_hi) in zip(range(-len(row), 0), row):
        lo, hi = x[_along(axis, slice(0, -1))], x[_along(axis, slice(1, None))]
        op = np.add if w_lo == w_hi else np.subtract
        x = op(hi, lo, out=out if axis == -1 else None, dtype=float)
        x *= w_hi
    return x


def _per_axis_adjoint(y, row):
    for axis, (w_lo, w_hi) in zip(range(-len(row), 0), row):
        shape = list(y.shape)
        shape[axis] += 1
        x = np.empty(shape)
        lo, hi = y[_along(axis, slice(0, -1))], y[_along(axis, slice(1, None))]
        op = np.add if w_lo == w_hi else np.subtract
        op(lo, hi, out=x[_along(axis, slice(1, -1))])
        x[_along(axis, 0)] = (w_lo / w_hi) * y[_along(axis, 0)]
        x[_along(axis, -1)] = y[_along(axis, -1)]
        x *= w_hi
        y = x
    return y


@pytest.mark.parametrize(
    "grid",
    [DomainGrid(3, (16, 16, 16)), DomainGrid(3, (32, 32, 32)),
     DomainGrid(3, (9, 12, 7), (1.3, 0.7, 2.0)), DomainGrid(2, (33, 20), (0.5, 3.0))],
    ids=["16", "32", "9x12x7", "2d-33x20"],
)
def test_transfer_maps_match_per_axis_scaling(grid, rng):
    vals = rng.standard_normal(grid.node_shape)
    cells = rng.standard_normal(grid.cell_shape)
    comps = rng.standard_normal((grid.dim,) + grid.cell_shape)
    avg, grads = grid.stencils[0], grid.stencils[1:]
    ref_grad = np.stack([_per_axis(vals, row) for row in grads])
    ref_grad_adj = sum(_per_axis_adjoint(comps[a], row) for a, row in enumerate(grads))
    for got, ref in (
        (node_to_cell_values(grid, vals), _per_axis(vals, avg)),
        (node_to_cell_adjoint(grid, cells), _per_axis_adjoint(cells, avg)),
        (gradient_values(grid, vals), ref_grad),
        (discrete_gradient_adjoint(grid, comps), ref_grad_adj),
    ):
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("grid", [GRID_2D, GRID_3D])
def test_gradient_gram_inverse_is_exact(grid, rng):
    v = random_field(grid, rng).values
    gram_v = discrete_gradient_adjoint(grid, gradient_values(grid, v))
    back = gradient_gram_inverse(grid, gram_v)
    assert np.max(np.abs(back - v)) <= 1e-13 * np.max(np.abs(v))
    assert np.all(back[grid.boundary_mask()] == 0.0)
    # and the other way round on interior nodes
    inner = ~grid.boundary_mask()
    for c in (1.0, 3.0):
        x = gradient_gram_inverse(grid, c * v)
        again = discrete_gradient_adjoint(grid, gradient_values(grid, x))
        assert np.max(np.abs(again[inner] - c * v[inner])) <= c * 1e-12 * np.max(np.abs(v))


def _dst1_by_fft(x, axis):
    # DST-I read off the real FFT of the odd extension [0, x, 0, -reversed x]
    x = np.moveaxis(x, axis, -1)
    n = x.shape[-1]
    zero = np.zeros(x.shape[:-1] + (1,))
    odd = np.concatenate([zero, x, zero, -x[..., ::-1]], axis=-1)
    return np.moveaxis(-np.fft.rfft(odd, axis=-1).imag[..., 1 : n + 1], -1, axis)


@pytest.mark.parametrize("n", [6, 7])
def test_dst1_matches_the_fft_formula(n, rng):
    x = rng.standard_normal((2, n, n + 3, n))
    for axis in range(1, 4):
        got = _dst1(x, axis)
        ref = _dst1_by_fft(x, axis)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def _dst1_by_moveaxis(x, axis):
    # the sine-matrix product on np.moveaxis views
    y = np.moveaxis(x, axis, -1)
    return np.moveaxis(y @ _sine_matrix(y.shape[-1]), -1, axis)


@pytest.mark.parametrize("batch", [(), (2,)], ids=["single", "batch2"])
@pytest.mark.parametrize(
    "shape", [(14, 14, 14), (30, 30, 30), (46, 46, 46), (7, 10, 5), (31, 18)],
    ids=["16", "32", "48", "9x12x7", "2d-33x20"],
)
def test_dst1_is_the_moveaxis_product(shape, batch, rng):
    # interior-node blocks of the grids, as gradient_gram_inverse passes
    # them, and (batch2) the same behind a leading axis
    x = rng.standard_normal(batch + shape)
    for axis in range(len(batch), x.ndim):
        assert np.array_equal(_dst1(x, axis), _dst1_by_moveaxis(x, axis))


def test_pairing_symmetry(rng):
    g = DomainGrid(2, (9, 9))
    u = random_field(g, rng)
    v = random_field(g, rng)
    assert pairing(u, v) == pairing(v, u)


@given(
    data=arrays(
        np.float64,
        (6, 6),
        elements=st.floats(-10, 10, allow_nan=False),
    ),
    c=st.floats(-5, 5, allow_nan=False),
)
def test_gradient_scaling_property(data, c):
    g = DomainGrid(2, (6, 6))
    u = GridFunction(g, data)
    lhs = gradient_values(g, (c * u).values)
    rhs = c * gradient_values(g, u.values)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))
