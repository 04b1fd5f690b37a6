"""Uniform box grids, grid functions, and the discrete calculus on them.

Scalars live on nodes, integrands and gradients live on cells.  Both transfer
maps (corner average, averaged forward-difference gradient) are tensor
products of the per-axis two-point stencils in :attr:`DomainGrid.stencils`,
applied axis by axis; their adjoints apply the transposed passes, so energies
are differentiated exactly at the discrete level.  The same table gives the
DST-I spectrum of the gradient map's Gram operator on interior nodes, hence
its exact inverse (the Sobolev preconditioner of the descent solvers).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainGrid",
    "GridFunction",
    "CellVectorField",
    "node_to_cell",
    "node_to_cell_values",
    "node_to_cell_adjoint",
    "discrete_gradient",
    "gradient_values",
    "discrete_gradient_adjoint",
    "gradient_gram_inverse",
    "cell_quadrature",
    "cell_quadrature_values",
    "pairing",
    "l2_norm",
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
        if any(e <= 0 for e in extent):
            raise ValueError(f"extent must be positive, got {extent}")
        object.__setattr__(self, "res", res)
        object.__setattr__(self, "extent", extent)

    # h and cell_volume sit on every quadrature and kernel call; each is
    # computed once per grid (cached in the instance dict, which neither
    # equality nor hashing reads)
    @functools.cached_property
    def h(self) -> tuple[float, ...]:
        return tuple(e / (r - 1) for e, r in zip(self.extent, self.res))

    @property
    def node_shape(self) -> tuple[int, ...]:
        return self.res

    @property
    def cell_shape(self) -> tuple[int, ...]:
        return tuple(r - 1 for r in self.res)

    @property
    def node_count(self) -> int:
        return int(np.prod(self.res))

    @property
    def cell_count(self) -> int:
        return int(np.prod(self.cell_shape))

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

    def cell_mesh(self) -> list[np.ndarray]:
        return list(np.meshgrid(*self.cell_axes(), indexing="ij"))

    def boundary_mask(self) -> np.ndarray:
        mask = np.zeros(self.node_shape, dtype=bool)
        for a in range(self.dim):
            sl = [slice(None)] * self.dim
            sl[a] = 0
            mask[tuple(sl)] = True
            sl[a] = -1
            mask[tuple(sl)] = True
        return mask

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
    """Scalar node samples, optionally pinned to zero on the boundary."""

    grid: DomainGrid
    values: np.ndarray
    bc_zero: bool = False

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.node_shape:
            raise ValueError(
                f"values shape {vals.shape} != node shape {self.grid.node_shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function values must be finite")
        if self.bc_zero and np.any(vals[self.grid.boundary_mask()] != 0.0):
            raise ValueError("bc_zero grid function has nonzero boundary values")
        self.values = vals

    @classmethod
    def zeros(cls, grid: DomainGrid, bc_zero: bool = True) -> "GridFunction":
        return cls(grid, np.zeros(grid.node_shape), bc_zero=bc_zero)

    @classmethod
    def from_nodes(cls, grid: DomainGrid, fn, bc_zero: bool = False) -> "GridFunction":
        """Sample ``fn(x1, ..., xN)`` at the nodes; project to zero boundary if asked."""
        vals = np.asarray(fn(*grid.node_mesh()), dtype=float)
        vals = np.broadcast_to(vals, grid.node_shape).copy()
        if bc_zero:
            vals[grid.boundary_mask()] = 0.0
        return cls(grid, vals, bc_zero=bc_zero)

    def copy(self) -> "GridFunction":
        return GridFunction(self.grid, self.values.copy(), bc_zero=self.bc_zero)

    def __neg__(self) -> "GridFunction":
        return GridFunction(self.grid, -self.values, bc_zero=self.bc_zero)

    def __add__(self, other: "GridFunction") -> "GridFunction":
        return GridFunction(
            self.grid,
            self.values + other.values,
            bc_zero=self.bc_zero and other.bc_zero,
        )

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        return GridFunction(
            self.grid,
            self.values - other.values,
            bc_zero=self.bc_zero and other.bc_zero,
        )

    def __mul__(self, c: float) -> "GridFunction":
        return GridFunction(self.grid, self.values * float(c), bc_zero=self.bc_zero)

    __rmul__ = __mul__


@dataclass
class CellVectorField:
    """One vector per cell; component axis first."""

    grid: DomainGrid
    comps: np.ndarray

    def __post_init__(self):
        comps = np.asarray(self.comps, dtype=float)
        want = (self.grid.dim,) + self.grid.cell_shape
        if comps.shape != want:
            raise ValueError(f"component shape {comps.shape} != {want}")
        if not np.all(np.isfinite(comps)):
            raise ValueError("vector field entries must be finite")
        self.comps = comps

    def magnitude(self) -> np.ndarray:
        return np.sqrt(np.sum(self.comps * self.comps, axis=0))


def _along(axis: int, index) -> tuple:
    """``index`` on the trailing axis ``axis`` (negative), all of the others."""
    return (Ellipsis, index) + (slice(None),) * (-1 - axis)


def _apply(x: np.ndarray, row, out=None) -> np.ndarray:
    """One stencil row on the trailing node axes, one pass per axis: node
    pairs to edges, w_lo x_lo + w_hi x_hi, as one sum or difference and one
    in-place scale.  The last pass writes into ``out`` when given."""
    for axis, (w_lo, w_hi) in zip(range(-len(row), 0), row):
        lo, hi = x[_along(axis, slice(0, -1))], x[_along(axis, slice(1, None))]
        op = np.add if w_lo == w_hi else np.subtract
        x = op(hi, lo, out=out if axis == -1 else None, dtype=float)
        x *= w_hi
    return x


def _apply_adjoint(y: np.ndarray, row) -> np.ndarray:
    """Transpose of :func:`_apply` on the trailing cell axes: per axis, each
    edge value back to its two nodes."""
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


def node_to_cell_values(grid: DomainGrid, vals: np.ndarray) -> np.ndarray:
    """Corner average on the trailing node axes (leading axes are batch)."""
    return _apply(vals, grid.stencils[0])


def node_to_cell(u: GridFunction) -> np.ndarray:
    """Corner average of node values: one scalar per cell.  Linear in u."""
    return node_to_cell_values(u.grid, u.values)


def node_to_cell_adjoint(grid: DomainGrid, cells: np.ndarray) -> np.ndarray:
    """Transpose of :func:`node_to_cell`: scatter cell scalars to corner nodes."""
    return _apply_adjoint(cells, grid.stencils[0])


def gradient_values(grid: DomainGrid, vals: np.ndarray) -> np.ndarray:
    """Cell gradients on the trailing node axes; the component axis is
    inserted right before the cell axes."""
    comps = np.empty(vals.shape[: vals.ndim - grid.dim] + (grid.dim,) + grid.cell_shape)
    for comp, row in zip(np.moveaxis(comps, -grid.dim - 1, 0), grid.stencils[1:]):
        _apply(vals, row, out=comp)
    return comps


def discrete_gradient(u: GridFunction) -> CellVectorField:
    """Cellwise gradient: per axis, the mean forward difference over the cell's
    node pairs.  Exact for affine fields; linear in u."""
    return CellVectorField(u.grid, gradient_values(u.grid, u.values))


def discrete_gradient_adjoint(grid: DomainGrid, comps: np.ndarray) -> np.ndarray:
    """Transpose of :func:`gradient_values` applied to per-cell vectors."""
    comps = np.moveaxis(comps, -grid.dim - 1, 0)
    rows = grid.stencils[1:]
    out = _apply_adjoint(comps[0], rows[0])
    for comp, row in zip(comps[1:], rows[1:]):
        out += _apply_adjoint(comp, row)
    return out


def _dst1(x: np.ndarray, axis: int) -> np.ndarray:
    """Unnormalized DST-I along ``axis`` (its own inverse up to 2(n+1)),
    read off the real FFT of the odd extension [0, x, 0, -reversed x]."""
    x = np.moveaxis(x, axis, -1)
    n = x.shape[-1]
    zero = np.zeros(x.shape[:-1] + (1,))
    odd = np.concatenate([zero, x, zero, -x[..., ::-1]], axis=-1)
    out = -np.fft.rfft(odd, axis=-1).imag[..., 1 : n + 1]
    return np.moveaxis(out, -1, axis)


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
    axis; leading axes are batch.
    """
    inner = (Ellipsis,) + (slice(1, -1),) * grid.dim
    axes = range(vals.ndim - grid.dim, vals.ndim)
    x = vals[inner]
    for ax in axes:
        x = _dst1(x, ax)
    x = x / _gram_eigenvalues(grid)
    for ax in axes:
        x = _dst1(x, ax)
    out = np.zeros(vals.shape)
    out[inner] = x
    return out


def cell_quadrature_values(grid: DomainGrid, w: np.ndarray) -> np.ndarray:
    """Box-rule integral over the trailing cell axes (batch-aware)."""
    w = np.asarray(w)
    if w.shape[w.ndim - grid.dim :] != grid.cell_shape:
        raise ValueError(f"cell data shape {w.shape} != {grid.cell_shape}")
    return grid.cell_volume * np.sum(w, axis=tuple(range(-grid.dim, 0)))


def cell_quadrature(grid: DomainGrid, w: np.ndarray) -> float:
    """Box-rule integral: cell volume times the sum of per-cell values."""
    w = np.asarray(w)
    if w.shape != grid.cell_shape:
        raise ValueError(f"cell data shape {w.shape} != {grid.cell_shape}")
    return float(cell_quadrature_values(grid, w))


def pairing(a: GridFunction, b: GridFunction) -> float:
    """Discrete L2 duality pairing on nodes: sum(a*b) * cell volume."""
    return a.grid.cell_volume * float(np.sum(a.values * b.values))


def l2_norm(u: GridFunction) -> float:
    """Discrete L2 norm on nodes."""
    return float(np.sqrt(u.grid.cell_volume * np.sum(u.values * u.values)))
