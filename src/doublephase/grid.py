"""Uniform box grids, grid functions, and the discrete calculus on them.

Scalars live on nodes, integrands and gradients live on cells, and every
map takes one node field.  Both transfer maps (corner average, averaged
forward-difference gradient) are tensor products of the per-axis two-point
stencils in :attr:`DomainGrid.stencils`.  They run on the flat node layout:
each cell value sits at the flat index of the cell's lowest corner node, so
a pass along axis a is one contiguous operation on entries
``DomainGrid.steps[a]`` apart (:func:`transfer`), and
the node entries with index n_a - 1 on some axis (the pad entries) hold no
cell.  Their adjoints apply the transposed passes on the same layout
(:func:`transfer_adjoint`), so energies are differentiated exactly at the
discrete level.  The compact maps (:func:`node_to_cell_values`,
:func:`gradient_values` and their adjoints) are read from the same passes.
The stencil table also gives the DST-I spectrum of the gradient map's Gram
operator on interior nodes, hence its exact inverse (the Sobolev
preconditioner of the descent solvers).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError

__all__ = [
    "DomainGrid",
    "GridFunction",
    "transfer",
    "transfer_adjoint",
    "cells",
    "fill_pad",
    "node_to_cell",
    "node_to_cell_values",
    "node_to_cell_adjoint",
    "gradient_values",
    "discrete_gradient_adjoint",
    "gradient_gram_inverse",
    "cell_quadrature",
    "pairing",
]


@dataclass(frozen=True)
class DomainGrid:
    """Uniform axis-aligned box grid in dimension 2 or 3.

    ``res`` counts nodes per axis (>= 4), so spacing is extent/(res-1).
    """

    dim: int
    res: tuple[int, ...]
    extent: tuple[float, ...] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        res = tuple(int(r) for r in np.broadcast_to(self.res, (self.dim,)))
        if any(r < 4 for r in res):
            raise ValueError(f"need at least 4 nodes per axis, got res={res}")
        extent = self.extent if self.extent is not None else 1.0
        extent = tuple(float(e) for e in np.broadcast_to(extent, (self.dim,)))
        if not all(0.0 < e < np.inf for e in extent):
            raise ValueError(f"extent must be finite and positive, got {extent}")
        object.__setattr__(self, "res", res)
        object.__setattr__(self, "extent", extent)

    # h, node_count and cell_volume sit on every quadrature and kernel call;
    # each is computed once per grid (cached in the instance dict, which
    # neither equality nor hashing reads)
    @functools.cached_property
    def h(self) -> tuple[float, ...]:
        return tuple(e / (r - 1) for e, r in zip(self.extent, self.res))

    @property
    def node_shape(self) -> tuple[int, ...]:
        return self.res

    @property
    def cell_shape(self) -> tuple[int, ...]:
        return tuple(r - 1 for r in self.res)

    @functools.cached_property
    def node_count(self) -> int:
        return int(np.prod(self.res))

    @functools.cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))

    @property
    def volume(self) -> float:
        return float(np.prod(self.extent))

    def node_axes(self) -> list[np.ndarray]:
        """1D node coordinates per axis."""
        return [np.linspace(0.0, e, r) for e, r in zip(self.extent, self.res)]

    def cell_axes(self) -> list[np.ndarray]:
        """1D cell-center coordinates per axis."""
        return [0.5 * (ax[:-1] + ax[1:]) for ax in self.node_axes()]

    def node_mesh(self) -> list[np.ndarray]:
        return list(np.meshgrid(*self.node_axes(), indexing="ij"))

    def boundary_mask(self) -> np.ndarray:
        mask = np.zeros(self.node_shape, dtype=bool)
        for face in self.boundary_faces:
            mask[face] = True
        return mask

    @functools.cached_property
    def boundary_faces(self) -> tuple[tuple, ...]:
        """Index of each of the 2*dim boundary faces of a node field:
        ``x[face] = 0`` zeroes one face by a slice assignment, far cheaper
        than indexing by the boolean mask."""
        return tuple(
            (slice(None),) * a + (end,) + (slice(None),) * (self.dim - 1 - a)
            for a in range(self.dim)
            for end in (0, -1)
        )

    @functools.cached_property
    def steps(self) -> tuple[int, ...]:
        """Flat index step of each node axis, step_a = prod_{b > a} res_b:
        cell (i_1, ..., i_d) sits at sum_a i_a step_a, the flat index of its
        lowest corner node (:func:`transfer`)."""
        return tuple(int(np.prod(self.res[a + 1 :])) for a in range(self.dim))

    @functools.cached_property
    def stencils(self) -> tuple[tuple[tuple[float, float], ...], ...]:
        """One row per transfer map of (w_lo, w_hi) stencils, one per axis:
        the corner average (1/2, 1/2) on every axis, then gradient component
        a, the difference (-1/h_a, 1/h_a) on axis a.  Always w_lo = +-w_hi."""
        avg = (0.5, 0.5)
        return ((avg,) * self.dim,) + tuple(
            tuple((-1.0 / h, 1.0 / h) if b == a else avg for b in range(self.dim))
            for a, h in enumerate(self.h)
        )


@dataclass
class GridFunction:
    """Scalar node samples.  Whether the field lies in the zero-boundary
    space of the Dirichlet problems is read from its values
    (:attr:`zero_on_boundary`) wherever it matters."""

    grid: DomainGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.node_shape:
            raise ValueError(
                f"values shape {vals.shape} != node shape {self.grid.node_shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise NonFiniteError("grid function values must be finite")
        self.values = vals

    @property
    def zero_on_boundary(self) -> bool:
        """No nonzero value on any of the ``grid.boundary_faces``."""
        return not any(np.count_nonzero(self.values[face]) for face in self.grid.boundary_faces)

    @classmethod
    def zeros(cls, grid: DomainGrid) -> "GridFunction":
        return cls(grid, np.zeros(grid.node_shape))

    def copy(self) -> "GridFunction":
        return GridFunction(self.grid, self.values.copy())

    def __neg__(self) -> "GridFunction":
        return GridFunction(self.grid, -self.values)

    def __add__(self, other: "GridFunction") -> "GridFunction":
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, c: float) -> "GridFunction":
        return GridFunction(self.grid, self.values * float(c))

    __rmul__ = __mul__


def cells(grid: DomainGrid, flat: np.ndarray) -> np.ndarray:
    """The cell entries of an array on the flat node layout (trailing axis of
    length ``grid.node_count``, each cell at its lowest corner node), as a
    view with ``grid.cell_shape`` in place of that axis.  A leading axis,
    where there is one, holds the map rows of :func:`transfer` or the
    gradient components."""
    nodes = flat.reshape(flat.shape[:-1] + grid.node_shape)
    return nodes[(Ellipsis,) + (slice(0, -1),) * grid.dim]


def fill_pad(grid: DomainGrid, flat: np.ndarray, value: float) -> np.ndarray:
    """Set, in place, the pad entries (node index n_a - 1 on some axis a) of
    a contiguous array on the flat node layout, by one slice per axis; a
    leading axis holds the map rows of :func:`transfer`."""
    nodes = flat.reshape(flat.shape[:-1] + grid.node_shape)
    for a in range(grid.dim):
        nodes[(Ellipsis, -1) + (slice(None),) * (grid.dim - 1 - a)] = value
    return flat


def _to_flat(grid: DomainGrid, cell_vals: np.ndarray) -> np.ndarray:
    """Cell values (cell shape, after a leading axis of gradient components
    where there is one) on the flat node layout, zero at the pad entries."""
    flat = np.zeros(cell_vals.shape[: cell_vals.ndim - grid.dim] + (grid.node_count,))
    cells(grid, flat)[...] = cell_vals
    return flat


@functools.lru_cache(maxsize=16)
def _transfer_plan(grid: DomainGrid, rows: tuple[int, ...]) -> tuple:
    """The passes of :func:`transfer`, worked out once per grid and rows
    (at 16^3 this bookkeeping took about as long as the passes): per
    map, in the lexicographic order of its passes, its index in ``rows``,
    the number of leading passes it shares with the map before it, and per
    remaining pass (step, op, whether it averages, w_hi, whether it is the
    last)."""
    kinds = [tuple(w_lo != w_hi for w_lo, w_hi in grid.stencils[r]) for r in rows]
    plan, prev = [], ()
    for k in sorted(range(len(rows)), key=kinds.__getitem__):
        row = grid.stencils[rows[k]]
        shared = 0
        while shared < grid.dim - 1 and row[: shared + 1] == prev[: shared + 1]:
            shared += 1
        passes = tuple(
            (step, np.add if w_lo == w_hi else np.subtract, w_lo == w_hi, w_hi, a == grid.dim - 1)
            for a, (step, (w_lo, w_hi)) in enumerate(zip(grid.steps, row))
        )
        plan.append((k, shared, passes[shared:]))
        prev = row
    return tuple(plan)


def transfer(grid: DomainGrid, vals: np.ndarray, rows=None) -> np.ndarray:
    """The maps of the ``grid.stencils`` rows ``rows`` of a node field, on
    the flat node layout: shape (len(rows), node_count).  The pad entries
    hold the passes' values across the pad nodes (:func:`fill_pad` sets
    them).  The default rows are the gradient components 0, 1, ..., then the
    corner average.

    A pass along axis a pairs the nodes step_a apart in the flattened field,
    one contiguous ``x[step_a:] +- x[:-step_a]``.  Rows are taken in the
    lexicographic order of their passes, so the rows that begin with the same
    passes share them (9 passes instead of 12 at d = 3).  As in the per-axis
    form, a difference scales by its w_hi = 1/h in place and the average
    weights (powers of two) are applied once, after the last pass."""
    rows = tuple(range(1, grid.dim + 1)) + (0,) if rows is None else tuple(rows)
    x = np.asarray(vals, dtype=float).reshape(grid.node_count)
    valid = x.size - sum(grid.steps)
    out = np.empty((len(rows), x.size))
    out[:, valid:] = 0.0
    path = [(x, 1.0)]  # path[a]: the passes on axes < a, pending scale
    for k, shared, passes in _transfer_plan(grid, rows):
        del path[shared + 1 :]
        y, scale = path[-1]
        for step, op, average, w_hi, last in passes:
            y = op(y[step:], y[:-step], out=out[k, :valid] if last else None)
            if average:
                scale *= w_hi
            else:
                y *= w_hi
            path.append((y, scale))
        y *= scale
    return out


def transfer_adjoint(grid: DomainGrid, ys, rows=None) -> np.ndarray:
    """Transpose of :func:`transfer`: the sum over k of the transposed map of
    row ``rows[k]`` applied to ``ys[k]``, in that order, as node values on
    the flat node layout.  Each ``ys[k]`` holds cell values on the flat node
    layout, zero at the pad entries; ``ys`` may be a generator, so that each
    is made only when its row is taken and dropped before the next one is
    made.  The ``ys[k]`` serve as scratch space and are overwritten.

    Per axis, each edge value goes back to its two nodes in one contiguous
    pass ``x[f] = y[f - step] +- y[f]``: the zero pad entries supply the end
    terms, and the first ``step`` entries take +-y[f] directly."""
    rows = tuple(range(1, grid.dim + 1)) + (0,) if rows is None else tuple(rows)
    out, ys = None, iter(ys)
    for k, r in enumerate(rows):
        y = next(ys)
        shape, y = y.shape, y.reshape(-1)
        if out is None:
            out, buf = np.empty(y.size), np.empty(y.size)
        bufs = (buf, y)
        scale = 1.0
        for a, (step, (w_lo, w_hi)) in enumerate(zip(grid.steps, grid.stencils[r])):
            x = out if k == 0 and a == grid.dim - 1 else bufs[a % 2]
            op = np.add if w_lo == w_hi else np.subtract
            op(y[:-step], y[step:], out=x[step:])
            np.multiply(y[:step], w_lo / w_hi, out=x[:step])
            if w_lo == w_hi:
                scale *= w_hi
            else:
                x *= w_hi
            y = x
        y *= scale
        if k:
            out += y
        del y, bufs  # so that ys[k] is freed before ys[k + 1] is made
    return out.reshape(shape)


def node_to_cell_values(grid: DomainGrid, vals: np.ndarray) -> np.ndarray:
    """Corner average of a node field: the cell view of the map's flat row,
    not a contiguous copy."""
    return cells(grid, transfer(grid, vals, rows=(0,))[0])


def node_to_cell(u: GridFunction) -> np.ndarray:
    """Corner average of node values: one scalar per cell.  Linear in u."""
    return node_to_cell_values(u.grid, u.values)


def node_to_cell_adjoint(grid: DomainGrid, cell_vals: np.ndarray) -> np.ndarray:
    """Transpose of :func:`node_to_cell`: scatter cell scalars to corner nodes."""
    nodes = transfer_adjoint(grid, [_to_flat(grid, cell_vals)], rows=(0,))
    return nodes.reshape(grid.node_shape)


def gradient_values(grid: DomainGrid, vals: np.ndarray) -> np.ndarray:
    """Cell gradients of a node field, shape (dim,) + cell shape.  Per axis,
    the mean forward difference over the cell's node pairs: exact for affine
    fields, linear in the values."""
    maps = transfer(grid, vals, rows=range(1, grid.dim + 1))
    return np.ascontiguousarray(cells(grid, maps))


def discrete_gradient_adjoint(grid: DomainGrid, comps: np.ndarray) -> np.ndarray:
    """Transpose of :func:`gradient_values` applied to per-cell vectors."""
    nodes = transfer_adjoint(grid, _to_flat(grid, comps), rows=range(1, grid.dim + 1))
    return nodes.reshape(grid.node_shape)


@functools.lru_cache(maxsize=16)
def _sine_matrix(n: int) -> np.ndarray:
    """The symmetric DST-I matrix 2 sin(pi j k / (n + 1)), j, k = 1..n."""
    k = np.arange(1, n + 1)
    mat = 2.0 * np.sin(np.pi * np.outer(k, k) / (n + 1))
    mat.flags.writeable = False
    return mat


def _dst1(x: np.ndarray, axis: int) -> np.ndarray:
    """Unnormalized DST-I along ``axis`` (its own inverse up to 2(n+1)), as
    a product with the cached sine matrix of that length, on the view that
    moves ``axis`` last."""
    perm = [a for a in range(x.ndim) if a != axis] + [axis]
    back = list(range(axis)) + [x.ndim - 1] + list(range(axis, x.ndim - 1))
    return (x.transpose(perm) @ _sine_matrix(x.shape[axis])).transpose(back)


@functools.lru_cache(maxsize=16)
def _gram_eigenvalues(grid: DomainGrid) -> np.ndarray:
    """Eigenvalues of G^T G on interior nodes, G = :func:`gradient_values`,
    times the DST-I normalization prod 2(res_a - 1), from the stencil table.

    With zero end nodes, DST-I mode k diagonalizes S^T S of a stencil
    S = (w_lo, w_hi) with eigenvalue (w_lo + w_hi)^2 cos^2(theta) +
    (w_hi - w_lo)^2 sin^2(theta), theta = pi k / (2 (res - 1)).  G^T G sums,
    over the gradient rows, the product of these factors over the axes.
    """
    thetas = [np.pi * np.arange(1, r - 1) / (2.0 * (r - 1)) for r in grid.res]
    eig = sum(
        functools.reduce(np.multiply.outer, [
            (w_lo + w_hi) ** 2 * np.cos(t) ** 2 + (w_hi - w_lo) ** 2 * np.sin(t) ** 2
            for (w_lo, w_hi), t in zip(row, thetas)
        ])
        for row in grid.stencils[1:]
    )
    eig *= float(np.prod([2.0 * (r - 1) for r in grid.res]))
    eig.flags.writeable = False
    return eig


def gradient_gram_inverse(grid: DomainGrid, vals: np.ndarray) -> np.ndarray:
    """Solve G^T G x = vals on interior nodes, x = 0 on the boundary, where
    G is :func:`gradient_values`; boundary entries of ``vals`` are ignored.

    This is the exact inverse of the p = 2 operator of the energies (the
    residual of |grad u|^2 / 2 is G^T G u), applied by a DST-I along each
    axis of a node field.
    """
    inner = (slice(1, -1),) * grid.dim
    x = vals[inner]
    for ax in range(grid.dim):
        x = _dst1(x, ax)
    x = x / _gram_eigenvalues(grid)
    for ax in range(grid.dim):
        x = _dst1(x, ax)
    out = np.zeros(grid.node_shape)
    out[inner] = x
    return out


def cell_quadrature(grid: DomainGrid, w: np.ndarray) -> float:
    """Box-rule integral: cell volume times the sum of per-cell values."""
    w = np.asarray(w)
    if w.shape != grid.cell_shape:
        raise ValueError(f"cell data shape {w.shape} != {grid.cell_shape}")
    return float(grid.cell_volume * np.sum(w))


def pairing(a: GridFunction, b: GridFunction) -> float:
    """Discrete L2 duality pairing on nodes: sum(a*b) * cell volume."""
    return a.grid.cell_volume * float(np.sum(a.values * b.values))

