import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from doublephase.grid import (
    CellVectorField,
    DomainGrid,
    GridFunction,
    cell_quadrature,
    discrete_gradient,
    discrete_gradient_adjoint,
    gradient_gram_inverse,
    gradient_values,
    node_to_cell,
    node_to_cell_adjoint,
    node_to_cell_values,
    pairing,
)

from conftest import random_field


def test_grid_invariants():
    g = DomainGrid(2, (8, 12), (1.0, 2.0))
    assert g.h == (1.0 / 7, 2.0 / 11)
    assert g.node_count == 8 * 12
    assert g.cell_count == 7 * 11
    assert abs(g.volume - 2.0) < 1e-15
    with pytest.raises(ValueError):
        DomainGrid(2, (3, 8))
    with pytest.raises(ValueError):
        DomainGrid(4, (8, 8, 8, 8))


def test_gridfunction_validation():
    g = DomainGrid(2, (6, 6))
    with pytest.raises(ValueError):
        GridFunction(g, np.full(g.node_shape, np.nan))
    vals = np.ones(g.node_shape)
    with pytest.raises(ValueError):
        GridFunction(g, vals, bc_zero=True)  # nonzero boundary
    vals[g.boundary_mask()] = 0.0
    GridFunction(g, vals, bc_zero=True)


def test_gradient_zero_field():
    g = DomainGrid(3, (6, 6, 6))
    u = GridFunction.zeros(g)
    assert np.all(discrete_gradient(u).comps == 0.0)


def test_gradient_exact_on_affine():
    g = DomainGrid(2, (9, 9))
    u = GridFunction.from_nodes(g, lambda x, y: x)
    grad = discrete_gradient(u).comps
    assert np.max(np.abs(grad[0] - 1.0)) <= 1e-12
    assert np.max(np.abs(grad[1])) <= 1e-12
    # general affine field in 3D
    g3 = DomainGrid(3, (7, 7, 7), (1.0, 2.0, 0.5))
    w = GridFunction.from_nodes(g3, lambda x, y, z: 1.5 * x - 2.0 * y + 0.25 * z + 3.0)
    grad3 = discrete_gradient(w).comps
    for a, coef in enumerate((1.5, -2.0, 0.25)):
        assert np.max(np.abs(grad3[a] - coef)) <= 1e-12


def test_gradient_linearity(rng):
    g = DomainGrid(3, (8, 8, 8))
    u = random_field(g, rng, bc_zero=False)
    v = random_field(g, rng, bc_zero=False)
    lhs = discrete_gradient(u + v).comps
    rhs = discrete_gradient(u).comps + discrete_gradient(v).comps
    assert np.max(np.abs(lhs - rhs)) <= 1e-14 * max(1.0, np.max(np.abs(rhs)))


def test_quadrature_constants():
    g = DomainGrid(2, (10, 10))
    assert abs(cell_quadrature(g, np.ones(g.cell_shape)) - 1.0) <= 1e-14
    for c in (-3.5, 0.0, 7.25):
        got = cell_quadrature(g, np.full(g.cell_shape, c))
        assert abs(got - c) <= 1e-13 * max(1.0, abs(c))


def test_quadrature_linear_integrand_exact():
    # midpoint rule integrates 2 + x1 exactly: closed form 2.5 on the unit square
    g = DomainGrid(2, (9, 9))
    x = g.cell_mesh()[0]
    assert abs(cell_quadrature(g, 2.0 + x) - 2.5) <= 1e-13


def test_quadrature_second_order_convergence():
    exact = (np.e - 1.0) * np.sin(1.0)

    def err(res):
        g = DomainGrid(2, (res, res))
        x, y = g.cell_mesh()
        return abs(cell_quadrature(g, np.exp(x) * np.cos(y)) - exact)

    e1, e2 = err(9), err(17)
    assert e2 < e1 / 3.0


def test_node_to_cell_constants():
    g = DomainGrid(3, (6, 6, 6))
    u = GridFunction(g, np.full(g.node_shape, 3.0))
    assert np.all(node_to_cell(u) == 3.0)
    assert np.all(node_to_cell(GridFunction.zeros(g, bc_zero=False)) == 0.0)


def test_node_to_cell_affine_hits_cell_center():
    g = DomainGrid(2, (8, 8))
    u = GridFunction.from_nodes(g, lambda x, y: x)
    got = node_to_cell(u)
    centers = g.cell_mesh()[0]
    assert np.max(np.abs(got - centers)) <= 1e-15


def test_quadrature_of_averaged_constant():
    g = DomainGrid(3, (7, 7, 7), (1.0, 1.0, 2.0))
    for c in (1.0, -2.5, 0.125):
        u = GridFunction(g, np.full(g.node_shape, c))
        got = cell_quadrature(g, node_to_cell(u))
        assert abs(got - c * g.volume) <= 1e-13 * max(1.0, abs(c) * g.volume)


GRID_2D = DomainGrid(2, (7, 11), (0.5, 3.0))
GRID_3D = DomainGrid(3, (12, 10, 9), (1.3, 0.7, 2.0))


@pytest.mark.parametrize(
    "grid, batch",
    [
        (DomainGrid(3, (7, 7, 7), (1.0, 0.5, 2.0)), ()),
        (GRID_2D, ()),
        (GRID_3D, (2,)),
    ],
    ids=["3d", "2d", "3d-batch2"],
)
def test_adjoint_identities(grid, batch, rng):
    def dot(a, b):  # one inner product per batch entry
        return np.sum((a * b).reshape(batch + (-1,)), axis=-1)

    u = rng.standard_normal(batch + grid.node_shape)
    cells = rng.standard_normal(batch + grid.cell_shape)
    lhs = dot(node_to_cell_values(grid, u), cells)
    rhs = dot(u, node_to_cell_adjoint(grid, cells))
    assert np.all(np.abs(lhs - rhs) <= 1e-12 * np.maximum(1.0, np.abs(lhs)))

    comps = rng.standard_normal(batch + (grid.dim,) + grid.cell_shape)
    lhs = dot(gradient_values(grid, u), comps)
    rhs = dot(u, discrete_gradient_adjoint(grid, comps))
    assert np.all(np.abs(lhs - rhs) <= 1e-11 * np.maximum(1.0, np.abs(lhs)))


# Reference: the transfer maps as plain sums over the 2^dim corners of each
# cell, with weight 2^-dim (average) and 2^(1-dim)/h_a with the corner's sign
# along axis a (gradient component a).


def _corners(dim):
    """(bits, index) per cell corner; bit 1 picks the upper node on that axis."""
    for bits in itertools.product((0, 1), repeat=dim):
        yield bits, (Ellipsis,) + tuple(slice(1, None) if b else slice(0, -1) for b in bits)


def _component(grid, a):
    return (Ellipsis, a) + (slice(None),) * grid.dim


def corner_average(grid, vals):
    out = np.zeros(vals.shape[: vals.ndim - grid.dim] + grid.cell_shape)
    for _, corner in _corners(grid.dim):
        out += 2.0 ** -grid.dim * vals[corner]
    return out


def corner_average_adjoint(grid, cells):
    out = np.zeros(cells.shape[: cells.ndim - grid.dim] + grid.node_shape)
    for _, corner in _corners(grid.dim):
        out[corner] += 2.0 ** -grid.dim * cells
    return out


def corner_gradient(grid, vals):
    out = np.zeros(vals.shape[: vals.ndim - grid.dim] + (grid.dim,) + grid.cell_shape)
    for bits, corner in _corners(grid.dim):
        term = 2.0 ** (1 - grid.dim) * vals[corner]
        for a, h in enumerate(grid.h):
            out[_component(grid, a)] += (1.0 if bits[a] else -1.0) * term / h
    return out


def corner_gradient_adjoint(grid, comps):
    out = np.zeros(comps.shape[: comps.ndim - grid.dim - 1] + grid.node_shape)
    for bits, corner in _corners(grid.dim):
        for a, h in enumerate(grid.h):
            sign = 1.0 if bits[a] else -1.0
            out[corner] += sign * 2.0 ** (1 - grid.dim) * comps[_component(grid, a)] / h
    return out


@pytest.mark.parametrize("batch", [(), (2,)], ids=["single", "batch2"])
@pytest.mark.parametrize("grid", [GRID_2D, GRID_3D], ids=["2d", "3d"])
def test_transfer_maps_match_corner_sums(grid, batch, rng):
    vals = rng.standard_normal(batch + grid.node_shape)
    cells = rng.standard_normal(batch + grid.cell_shape)
    comps = rng.standard_normal(batch + (grid.dim,) + grid.cell_shape)
    for got, ref in (
        (node_to_cell_values(grid, vals), corner_average(grid, vals)),
        (node_to_cell_adjoint(grid, cells), corner_average_adjoint(grid, cells)),
        (gradient_values(grid, vals), corner_gradient(grid, vals)),
        (discrete_gradient_adjoint(grid, comps), corner_gradient_adjoint(grid, comps)),
    ):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("grid", [GRID_2D, GRID_3D])
def test_gradient_gram_inverse_is_exact(grid, rng):
    v = random_field(grid, rng).values
    gram_v = discrete_gradient_adjoint(grid, gradient_values(grid, v))
    back = gradient_gram_inverse(grid, gram_v)
    assert np.max(np.abs(back - v)) <= 1e-13 * np.max(np.abs(v))
    assert np.all(back[grid.boundary_mask()] == 0.0)
    # and the other way round on interior nodes, with batch axes leading
    x = gradient_gram_inverse(grid, np.stack([v, 3.0 * v]))
    again = discrete_gradient_adjoint(grid, gradient_values(grid, x))
    inner = ~grid.boundary_mask()
    assert np.max(np.abs(again[0][inner] - v[inner])) <= 1e-12 * np.max(np.abs(v))
    assert np.max(np.abs(again[1][inner] - 3.0 * v[inner])) <= 3e-12 * np.max(np.abs(v))


def test_vector_field_magnitude():
    g = DomainGrid(2, (5, 5))
    comps = np.zeros((2,) + g.cell_shape)
    comps[0] = 3.0
    comps[1] = 4.0
    assert np.allclose(CellVectorField(g, comps).magnitude(), 5.0)


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
    lhs = discrete_gradient(c * u).comps
    rhs = c * discrete_gradient(u).comps
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))
