"""Exponent fields and the hypothesis checks of the two existence results.

Field values are sampled at cell centers (co-located with the quadrature) and
kept at the shape the spec evaluates to on a sparse mesh: ``values`` is a
read-only broadcast view of that array onto the cell shape, so a constant
field holds one number and a field of x1 alone holds one per x1 cell.  The
cached infimum/supremum additionally probe a dense closed lattice of the
analytic spec, including the boundary, so the summaries reflect the continuous
field and always bracket the cell samples.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ExponentRangeError, HypothesisGateError
from .fieldexpr import as_field_function
from .grid import DomainGrid, cells

__all__ = [
    "ExponentField",
    "ExponentSet",
    "ConditionRow",
    "HypothesisReport",
    "build_exponent_set",
    "validate_hypotheses",
    "conjugate_exponent",
]

# minimum number of intervals per axis in the dense summary lattice
_DENSE_MIN = 64
# lattice points evaluated at once when reducing it to its range
_SLAB_POINTS = 1 << 16


def _dense_axes(grid: DomainGrid) -> list[np.ndarray]:
    axes = []
    for e, r in zip(grid.extent, grid.res):
        n = max(_DENSE_MIN, 4 * (r - 1))
        n += n % 2  # even interval count keeps midpoints on the lattice
        axes.append(np.linspace(0.0, e, n + 1))
    return axes


def _sample(fn, axes: list[np.ndarray]) -> np.ndarray:
    """``fn`` on the lattice of ``axes``, evaluated on a sparse (broadcast)
    mesh as in :func:`_dense_ranges`: a read-only view of the result, at the
    shape ``fn`` returns, broadcast onto the lattice (zero strides on the
    axes ``fn`` does not depend on)."""
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.array(fn(*mesh), dtype=float)
    return np.broadcast_to(out, tuple(len(ax) for ax in axes))


def _dense_ranges(fns: dict, grid: DomainGrid) -> dict[str, tuple[float, float]]:
    """(min, max) of each spec and of max(p1, p2) over the dense lattice.

    The lattice is evaluated one slab of x1 planes at a time and reduced as
    it goes, so no full lattice array is ever held.  Each slab is a sparse
    (broadcast) mesh: a spec that depends on few coordinates returns an
    array of only their extent, and since a broadcast repeats its operand's
    values, its min and max are the operand's.  A result that does not
    broadcast to the slab is refused.  Min and max are exact, so the result
    depends neither on the slab size nor on the mesh being sparse.  A spec
    that overflows or turns nan does so without a warning and gives a range
    that is not finite (a nan is kept), which :func:`build_exponent_set`
    refuses.
    """
    axes = _dense_axes(grid)
    plane = int(np.prod([len(ax) for ax in axes[1:]]))
    step = max(1, _SLAB_POINTS // plane)
    ranges = {}
    for i in range(0, len(axes[0]), step):
        slab_axes = [axes[0][i : i + step]] + axes[1:]
        shape = tuple(len(ax) for ax in slab_axes)
        mesh = np.meshgrid(*slab_axes, indexing="ij", sparse=True)
        vals = {}
        for name, fn in fns.items():
            with np.errstate(over="ignore", invalid="ignore"):
                v = np.asarray(fn(*mesh), dtype=float)
            if np.broadcast_shapes(v.shape, shape) != shape:
                raise ValueError(
                    f"exponent {name} of shape {v.shape} does not fit the lattice {shape}"
                )
            vals[name] = v
        vals["pmax"] = np.maximum(vals["p1"], vals["p2"])
        for name, v in vals.items():
            lo, hi = ranges.get(name, (np.inf, -np.inf))
            ranges[name] = (float(np.minimum(lo, v.min())), float(np.maximum(hi, v.max())))
    return ranges


@dataclass
class ExponentField:
    """One exponent value per cell with cached range summaries (lo, hi).
    ``values`` is a read-only broadcast onto the cells of the array it is
    given, which keeps the shape given or evaluated (:meth:`from_values`,
    :func:`build_exponent_set`): one number for a constant."""

    grid: DomainGrid
    values: np.ndarray
    lo: float
    hi: float

    def __post_init__(self):
        # read-only, no copy
        self.values = np.broadcast_to(np.asarray(self.values, dtype=float), self.grid.cell_shape)
        compact = self.compact
        if not np.all(np.isfinite(compact)):
            raise ExponentRangeError("exponent field must be finite")
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ExponentRangeError("exponent summaries must be finite")
        if self.lo <= 1.0:
            raise ExponentRangeError(
                f"exponent infimum must exceed 1, got {self.lo}"
            )
        if self.lo > self.hi:
            raise ExponentRangeError(f"lo {self.lo} > hi {self.hi}")
        if compact.min() < self.lo or compact.max() > self.hi:
            raise ExponentRangeError("cached summaries do not bracket the samples")

    @classmethod
    def from_values(cls, grid: DomainGrid, values) -> "ExponentField":
        """The field of ``values`` (any shape that broadcasts to the cells),
        from a copy at that shape."""
        vals = np.array(values, dtype=float)
        return cls(grid, vals, float(vals.min()), float(vals.max()))

    def is_constant(self) -> bool:
        return self.lo == self.hi

    @functools.cached_property
    def compact(self) -> np.ndarray:
        """The array that ``values`` broadcasts: a view of length 1 on each
        axis it repeats along (stride 0), (1, 1, 1) for a constant and
        (n1, 1, 1) for a field of x1 alone.  Exponent-weighted sums reduce here."""
        index = tuple(slice(0, 1) if st == 0 else slice(None) for st in self.values.strides)
        return self.values[index]

    @functools.cached_property
    def groups(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct values of :attr:`compact` and, at its shape, the index
        of each entry's value (``np.unique`` with ``return_inverse``).
        Computed on first use and kept: the ray polynomials of one field
        group their entry sums by it, and the on-ray weights gather from it,
        on every call."""
        values, inverse = np.unique(self.compact, return_inverse=True)
        return values, inverse.reshape(self.compact.shape)

    @functools.cached_property
    def flat_half_excess(self) -> np.ndarray:
        """(p - 2)/2 per cell on the flat node layout of :func:`grid.transfer`,
        0 on the pad entries: the exponent of the energy weights, computed on
        first use and kept."""
        flat = np.zeros(self.grid.node_count)
        cells(self.grid, flat)[...] = 0.5 * (self.values - 2.0)
        flat.flags.writeable = False
        return flat

    @functools.cached_property
    def _conjugate(self) -> "ExponentField":
        """The field of :func:`conjugate_exponent`, computed on first use and
        kept: the Hoelder check pairs every sample of one field with it."""
        vals = self.compact / (self.compact - 1.0)
        # the map is decreasing, so the summaries swap roles
        lo = self.hi / (self.hi - 1.0)
        hi = self.lo / (self.lo - 1.0)
        return ExponentField(
            self.grid, vals, min(lo, float(vals.min())), max(hi, float(vals.max()))
        )


@dataclass
class ExponentSet:
    """The two gradient exponents, their pointwise max, and the source exponent."""

    p1: ExponentField
    p2: ExponentField
    pmax: ExponentField
    q: ExponentField

    def __post_init__(self):
        if not np.array_equal(
            self.pmax.values, np.maximum(self.p1.values, self.p2.values)
        ):
            raise ValueError("pmax is not the pointwise max of p1 and p2")

    @property
    def grid(self) -> DomainGrid:
        return self.p1.grid

    @property
    def dim(self) -> int:
        return self.grid.dim


def build_exponent_set(p1_spec, p2_spec, q_spec, grid: DomainGrid) -> ExponentSet:
    """Sample the three exponent specs, each once on the cells; the cell
    values of the pointwise max field are the max of the sampled p1 and p2
    fields.  When p2 (else p1) has the values and the summaries of the max,
    ``pmax`` is that field itself.

    Raises ExponentRangeError, with the spec's name on ``key``, if any
    sampled value (cells or dense lattice) is not finite or is <= 1.
    """
    cell_axes = grid.cell_axes()
    fns = {
        name: as_field_function(spec, grid.dim)
        for name, spec in (("p1", p1_spec), ("p2", p2_spec), ("q", q_spec))
    }
    dense = _dense_ranges(fns, grid)
    fields = {}
    for name, fn in fns.items():
        cells = _sample(fn, cell_axes)
        lo = float(np.minimum(cells.min(), dense[name][0]))
        hi = float(np.maximum(cells.max(), dense[name][1]))
        if not (lo > 1.0 and hi < math.inf):  # also refuses a nan
            if math.isfinite(lo) and math.isfinite(hi):
                problem = f"exceed 1 everywhere (min sampled value {lo})"
            else:
                problem = f"be finite everywhere (sampled {lo} to {hi})"
            exc = ExponentRangeError(f"exponent {name} must {problem}")
            exc.key = name
            raise exc
        fields[name] = ExponentField(grid, cells, lo, hi)
    pm_cells = np.maximum(fields["p1"].compact, fields["p2"].compact)
    pm_cells = np.broadcast_to(pm_cells, grid.cell_shape)
    lo = float(min(pm_cells.min(), dense["pmax"][0]))
    hi = float(max(pm_cells.max(), dense["pmax"][1]))
    # a field equal to the max (p2 >= p1 everywhere, as by default) is the
    # max, with its caches: no second copy, grouping or weight exponent
    for pmax in (fields["p2"], fields["p1"]):
        if (pmax.lo, pmax.hi) == (lo, hi) and np.array_equal(pmax.values, pm_cells):
            break
    else:
        pmax = ExponentField(grid, pm_cells, lo, hi)
    return ExponentSet(fields["p1"], fields["p2"], pmax, fields["q"])


def conjugate_exponent(p: ExponentField) -> ExponentField:
    """Pointwise dual exponent p/(p-1).  Involutive to rounding.  Computed
    once per field and kept, so repeated calls return the same field."""
    return p._conjugate


@dataclass
class ConditionRow:
    """One hypothesis: require ``lhs op rhs`` with strict/exact comparison."""

    name: str
    lhs: float
    op: str  # "<" or ">="
    rhs: float
    satisfied: bool = field(init=False)

    def __post_init__(self):
        if self.op == "<":
            self.satisfied = self.lhs < self.rhs
        elif self.op == ">=":
            self.satisfied = self.lhs >= self.rhs
        else:
            raise ValueError(f"unsupported comparison {self.op!r}")


@dataclass
class HypothesisReport:
    form: str  # "mountain" or "coercive"
    conditions: list[ConditionRow]
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = all(c.satisfied for c in self.conditions)

    def require(self, override: bool = False) -> None:
        """The one hypothesis gate: HypothesisGateError naming the failing
        conditions, unless every condition holds or ``override`` is set."""
        if not (self.passed or override):
            failing = ", ".join(c.name for c in self.conditions if not c.satisfied)
            raise HypothesisGateError(f"{self.form} hypotheses fail: {failing}")


def validate_hypotheses(s: ExponentSet, form: str) -> HypothesisReport:
    """Check the hypothesis block for one of the two existence results.

    ``mountain``: saddle-point multiplicity (needs both gradient exponents
    bounded below by 2).  ``coercive``: global minimization.  Both need the
    max exponent strictly below the source exponent, global subcriticality,
    and dimension at least 3.
    """
    if form not in ("mountain", "coercive"):
        raise ValueError(f"form must be 'mountain' or 'coercive', got {form!r}")
    n = float(s.dim)
    rows = []
    if form == "mountain":
        rows.append(ConditionRow("p1.lo >= 2", s.p1.lo, ">=", 2.0))
        rows.append(ConditionRow("p2.lo >= 2", s.p2.lo, ">=", 2.0))
    rows.append(ConditionRow("pmax.hi < q.lo", s.pmax.hi, "<", s.q.lo))
    rows.append(ConditionRow("pmax.lo < dim", s.pmax.lo, "<", n))
    if s.pmax.lo < n:
        bound = n * s.pmax.lo / (n - s.pmax.lo)
    else:
        bound = float("inf")
    rows.append(ConditionRow("q.hi < dim*pmax.lo/(dim-pmax.lo)", s.q.hi, "<", bound))
    rows.append(ConditionRow("dim >= 3", n, ">=", 3.0))
    # pointwise versions, reported separately from the global summaries
    rows.append(
        ConditionRow(
            "pointwise max(pmax - q) < 0",
            float(np.max(s.pmax.values - s.q.values)),
            "<",
            0.0,
        )
    )
    if float(s.pmax.values.max()) < n:
        crit = n * s.pmax.values / (n - s.pmax.values)
        worst = float(np.max(s.q.values - crit))
    else:
        worst = float("inf")
    rows.append(ConditionRow("pointwise max(q - critical(pmax)) < 0", worst, "<", 0.0))
    return HypothesisReport(form, rows)
