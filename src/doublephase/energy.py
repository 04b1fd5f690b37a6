"""The two double-phase energies and their exact discrete gradients.

``mountain`` form:  grad terms + lam * bulk(pmax) - bulk(q)   (saddle geometry)
``coercive`` form:  grad terms - lam * bulk(pmax) + bulk(q)   (global minimum)

Both forms are signed sums of the same four modular terms, the cell integrals
of base^p / p listed in ``TERMS``; :func:`coefficients` gives their signs per
form.  One batch-aware kernel passes a stack of node fields (leading batch
axes) through the corner-average and cell-gradient maps once
(:func:`grid.transfer`) and returns the four terms, the total and, on
request, the nodal residual.  It works on the flat node layout of those
maps: the squared bases, the powers and the residual weights are flat
arrays, the pad entries (no cell) are cleared before the adjoint maps, and
each term sums a compact copy of its cell values.  Each term takes one
power per cell, of the squared base x2: the weight x2^((p-2)/2) of the
residual, whose product with x2 is the cell value base^p (p < 2 cells,
regularized, take a second; constant p = 2 and p = 4 take none).  The
residual is assembled by differentiating the discrete energy through those
same maps, so minimizers of the discrete energy are exact discrete weak
solutions and finite-difference checks pass to rounding-dominated tolerance.
The public functions are shells over the kernel; :func:`energy_and_gradient`
takes the value and the gradient from one pass.  The energies are defined on
the zero-boundary fields of the Dirichlet problem: a field with a nonzero
boundary value (:attr:`GridFunction.zero_on_boundary` false) is refused with
``ValueError``, once per field, by :func:`eval_energy`,
:func:`energy_and_gradient` and :class:`RayEnergy`.

Along a ray t -> t*u the energy is an exact generalized polynomial in t, one
term per distinct exponent value of each modular term.  :class:`RayEnergy`
builds it from one pass over the cells of u and keeps that pass, so the
energy and the gradient at any point t*u of the ray need no second pass: a
saddle-search trial finds its ray peak and evaluates there from one pass.
Every ray computation reads one such pass instead of the cells of t*u: the
ray peaks, the endpoint scan, and the checks of the verify battery, which
also take the gradient magnitude (for the Sobolev norm of u) and the bulk
modulars at t from it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exponents import ExponentField, ExponentSet
from .grid import (
    DomainGrid,
    GridFunction,
    cell_quadrature_values,
    cells,
    fill_pad,
    l2_norm,
    transfer,
    transfer_adjoint,
)

__all__ = [
    "FORMS",
    "REG_EPS",
    "TERMS",
    "EnergyReport",
    "coefficients",
    "eval_energy",
    "eval_energy_many",
    "grad_energy",
    "energy_and_gradient",
    "residual_norm",
    "RayEnergy",
    "ray_energy",
]

FORMS = ("mountain", "coercive")

# regularization of |g|^(p-2) g near g = 0, used only for exponents below 2
REG_EPS = 1e-10

# The four modular terms, each the cell integral of base^p / p: (EnergyReport
# field, exponent in the ExponentSet, cell base), the base being |grad u|
# ("grad") or the absolute corner average |u| ("avg").
TERMS = (
    ("term_grad_p1", "p1", "grad"),
    ("term_grad_p2", "p2", "grad"),
    ("term_pmax", "pmax", "avg"),
    ("term_q", "q", "avg"),
)


def _check_form(lam: float, form: str):
    if form not in FORMS:
        raise ValueError(f"form must be one of {FORMS}, got {form!r}")
    if lam < 0.0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")


def coefficients(lam: float, form: str) -> tuple[float, ...]:
    """Signed weight of each term of ``TERMS`` in the total of ``form``."""
    _check_form(lam, form)
    if form == "mountain":
        return (1.0, 1.0, lam, -1.0)
    return (1.0, 1.0, -lam, 1.0)


@dataclass
class EnergyReport:
    """Energy value with its term-by-term breakdown (all terms >= 0)."""

    form: str
    lam: float
    total: float
    term_grad_p1: float
    term_grad_p2: float
    term_pmax: float
    term_q: float

    @property
    def terms(self) -> tuple[float, ...]:
        """The four terms in ``TERMS`` order."""
        return tuple(getattr(self, field) for field, _, _ in TERMS)

    def to_dict(self) -> dict:
        fields = {field: getattr(self, field) for field, _, _ in TERMS}
        return {"form": self.form, "lambda": self.lam, "total": self.total, **fields}


class _Term(NamedTuple):
    """One row of ``TERMS`` on a cell pass: the exponent field, the signed
    coefficient, the base kind, the squared cell base x2 (|grad u|^2 or the
    squared corner average) and the weight w, on the flat node layout of
    :func:`grid.transfer`."""

    p: ExponentField
    c: float
    kind: str
    x2: np.ndarray
    w: np.ndarray | float


def _exponent(p: ExponentField):
    """The scalar exponent of a constant field, else the cell values."""
    return p.lo if p.is_constant() else p.values


def _powers(x2: np.ndarray, p: ExponentField):
    """Weight w = x2^((p-2)/2) and cell value b^p = w * x2 of one term, from
    one power of the squared base x2 = b^2 on the flat node layout.

    w * x is the derivative of |x|^p / p in the cell quantity x, with the
    extension by 0 at x = 0 for p >= 2 (0^0 = 1 covers p = 2).  A constant
    field takes p = 2 and p = 4 as products, without a power.  Cells with
    p < 2 take the weight of x2 + REG_EPS^2 and the value x2^(p/2) by a
    second power; that masked work is skipped when ``p.lo >= 2``.
    """
    # 0^expo is inf on the p < 2 cells with x2 = 0; they are overwritten
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if p.is_constant():
            e = p.lo
            if e == 2.0:
                return 1.0, x2
            if e == 4.0:
                return x2, x2 * x2
            expo = 0.5 * (e - 2.0)
            if e < 2.0:
                return (x2 + REG_EPS * REG_EPS) ** expo, x2 ** (0.5 * e)
        else:
            expo = p.flat_half_excess
        w = np.power(x2, expo)
        bp = w * x2
        if p.lo >= 2.0:
            return w, bp
        low = expo < 0.0
        x2_low, expo_low = x2[..., low], expo[low]
        w[..., low] = (x2_low + REG_EPS * REG_EPS) ** expo_low
        bp[..., low] = x2_low ** (expo_low + 1.0)
    return w, bp


def _cell_pass(grid: DomainGrid, vals: np.ndarray):
    """One pass of a node stack (leading batch axes) through the transfer
    maps (:func:`grid.transfer`, the gradient components then the average),
    zero at the pad entries, and the squared cell bases of the two kinds."""
    maps = fill_pad(grid, transfer(grid, vals), 0.0)
    g, a = maps[:-1], maps[-1]
    squares = np.empty((2,) + a.shape)
    with np.errstate(over="ignore"):
        np.multiply(g[0], g[0], out=squares[0])
        for comp in g[1:]:
            squares[0] += comp * comp
        np.multiply(a, a, out=squares[1])
    # a pad base of 1 keeps the powers off their slow path for 0
    fill_pad(grid, squares, 1.0)
    return maps, {"grad": squares[0], "avg": squares[1]}


def _terms(x2: dict, lam: float, s: ExponentSet, form: str):
    """One :class:`_Term` per row of ``TERMS``, each with its cell values
    b^p, made one row at a time so the caller can reduce b^p and drop it."""
    for (_, name, kind), c in zip(TERMS, coefficients(lam, form)):
        p = getattr(s, name)
        w, bp = _powers(x2[kind], p)
        yield _Term(p, c, kind, x2[kind], w), bp


def _weight_sums(rows, weights):
    """The flux and source weights of the residual, one weight per term
    summed with the signs of the form over the "grad" and the "avg" terms:
    w * x is |x|^(p-2) x in the term's cell quantity x (the gradient vector
    of a "grad" term, the average of an "avg" term)."""
    flux_w = sum(row.c * w for row, w in zip(rows, weights) if row.kind == "grad")
    source_w = sum(row.c * w for row, w in zip(rows, weights) if row.kind == "avg")
    return flux_w, source_w


def _residual(grid: DomainGrid, maps: np.ndarray, flux_w, source_w) -> np.ndarray:
    """Nodal residual: the flux weight times each gradient component and the
    source weight times the average, taken back to the nodes by the adjoint
    maps.  The pad entries of the maps are zero, so are those of the
    products."""
    row_w = [flux_w] * (len(maps) - 1) + [source_w]
    r = transfer_adjoint(grid, (w * m for w, m in zip(row_w, maps)))
    r = r.reshape(r.shape[:-1] + grid.node_shape)
    for face in grid.boundary_faces:
        r[face] = 0.0
    return r


def _kernel(
    grid: DomainGrid, vals: np.ndarray, lam: float, s: ExponentSet, form: str, residual: bool
):
    """Terms (``TERMS`` order), total and, if ``residual``, the nodal residual
    of a stack of zero-boundary node fields (leading batch axes).  Each term
    sums a compact copy of b^p / p over the cells."""
    maps, x2 = _cell_pass(grid, vals)
    rows, terms = [], []
    for row, bp in _terms(x2, lam, s, form):
        rows.append(row)
        terms.append(cell_quadrature_values(grid, cells(grid, bp) / _exponent(row.p)))
    total = sum(row.c * t for row, t in zip(rows, terms))
    if not residual:
        return terms, total, None
    flux_w, source_w = _weight_sums(rows, [row.w for row in rows])
    del rows, x2  # only the weight sums are read from here on
    return terms, total, _residual(grid, maps, flux_w, source_w)


def _evaluate(u: GridFunction, lam: float, s: ExponentSet, form: str, residual: bool):
    if not u.zero_on_boundary:
        raise ValueError("energy is defined on zero-boundary grid functions")
    terms, total, r = _kernel(u.grid, u.values, lam, s, form, residual)
    fields = {field: float(t) for (field, _, _), t in zip(TERMS, terms)}
    return EnergyReport(form, lam, float(total), **fields), r


def eval_energy(u: GridFunction, lam: float, s: ExponentSet, form: str) -> EnergyReport:
    """Evaluate the energy with exponents at cell centers; exact term identity."""
    return _evaluate(u, lam, s, form, residual=False)[0]


def eval_energy_many(
    grid: DomainGrid, stack: np.ndarray, lam: float, s: ExponentSet, form: str
) -> np.ndarray:
    """Energy totals for a stack of zero-boundary fields (leading batch axes)."""
    return _kernel(grid, stack, lam, s, form, residual=False)[1]


def energy_and_gradient(
    u: GridFunction, lam: float, s: ExponentSet, form: str
) -> tuple[EnergyReport, GridFunction]:
    """:func:`eval_energy` and :func:`grad_energy` of ``u`` from one pass
    through the transfer maps."""
    rep, r = _evaluate(u, lam, s, form, residual=True)
    return rep, GridFunction(u.grid, r)


def grad_energy(u: GridFunction, lam: float, s: ExponentSet, form: str) -> GridFunction:
    """Nodal residual r with pairing(r, v) equal to the discrete directional
    derivative of :func:`eval_energy` along any zero-boundary v."""
    return energy_and_gradient(u, lam, s, form)[1]


def residual_norm(r: GridFunction) -> float:
    """Discrete L2 norm of a residual field."""
    return l2_norm(r)


class RayEnergy:
    """The energy and gradient along the ray t -> t*u, from one pass over the
    cells of ``u``.

    The energy has no regularization, so each term of ``TERMS`` scales
    exactly: the cell value (t b)^p is t^p b^p.  Grouping the cells by
    exponent value (:attr:`ExponentField.groups`; a constant field is one
    group) collapses each term into one coefficient per distinct value, from
    one ``np.bincount`` per term over the flat node layout of the pass (the
    pad entries fall in one extra group, dropped; a constant field sums a
    compact copy); b^p itself is not kept.  This is the ray polynomial
    :attr:`poly`, with
    E(t*u) = sum_k c_k t^p_k and zero coefficients dropped.  The default
    experiment keeps 18 terms at 16^3 nodes against 3375 cells.  The worst
    case is a field whose cell exponents are all distinct: nothing
    compresses, and the cost is one energy pass plus one bincount per term.

    :meth:`at` gives the energy report and the residual at t*u from the kept
    transfer maps and weights: the maps scale by t and each weight by
    t^(p-2), gathered from the group values, so only the regularized cells
    (p < 2) take a fresh power.  Both agree with :func:`energy_and_gradient`
    of t*u to rounding.  :attr:`gradient_magnitude` and :meth:`modular` read
    the same pass for the norms and modulars of the verify battery.
    """

    def __init__(self, u: GridFunction, lam: float, s: ExponentSet, form: str):
        if not u.zero_on_boundary:
            raise ValueError("energy is defined on zero-boundary grid functions")
        self.grid, self.lam, self.form = u.grid, lam, form
        self._maps, x2 = _cell_pass(u.grid, u.values)
        self._rows, self._sums = [], []
        for row, bp in _terms(x2, lam, s, form):
            self._rows.append(row)
            if row.p.is_constant():
                total = np.ascontiguousarray(cells(self.grid, bp)).sum()
                self._sums.append((np.array([row.p.lo]), np.array([total])))
            else:
                values, index = row.p.groups
                sums = np.bincount(index, weights=bp, minlength=values.size + 1)
                self._sums.append((values, sums[:-1]))
        expos = np.concatenate([values for values, _ in self._sums])
        coeffs = np.concatenate([
            (self.grid.cell_volume * row.c) * sums / values
            for row, (values, sums) in zip(self._rows, self._sums)
        ])
        keep = coeffs != 0.0
        self.poly = (expos[keep], coeffs[keep])

    @property
    def gradient_magnitude(self) -> np.ndarray:
        """|grad u| on each cell, the field of the Sobolev norm of u."""
        grad2 = next(row.x2 for row in self._rows if row.kind == "grad")
        return np.sqrt(cells(self.grid, grad2))

    def modular(self, term: str, t: float) -> float:
        """Cell integral of base^p of the ``TERMS`` row named ``term`` (an
        :class:`EnergyReport` field, such as ``"term_pmax"``) at t*u, from
        its group sums: the term without its 1/p and its sign."""
        names = [name for name, _, _ in TERMS]
        values, sums = self._sums[names.index(term)]
        with np.errstate(over="ignore"):
            return self.grid.cell_volume * float(np.sum(sums * t**values))

    def _weight(self, row: _Term, t: float):
        """Weight of ``row`` at t*u times t, the scale of its cell quantity."""
        if row.p.is_constant():
            scale = t ** (row.p.lo - 1.0)
        else:
            values, index = row.p.groups
            scale = np.take(np.append(t ** (values - 1.0), 0.0), index)
        w = row.w * scale
        if row.p.lo < 2.0:
            if row.p.is_constant():
                expo = np.full(self.grid.node_count, 0.5 * (row.p.lo - 2.0))
            else:
                expo = row.p.flat_half_excess
            low = expo < 0.0
            w[low] = t * ((t * t) * row.x2[low] + REG_EPS * REG_EPS) ** expo[low]
        return w

    def at(self, t: float) -> tuple[EnergyReport, GridFunction]:
        """Energy report and residual of t*u, for t > 0."""
        vol = self.grid.cell_volume
        with np.errstate(over="ignore"):
            terms = [vol * float(np.sum(sums * t**values / values)) for values, sums in self._sums]
            weights = [self._weight(row, t) for row in self._rows]
        total = sum(row.c * term for row, term in zip(self._rows, terms))
        fields = {field: term for (field, _, _), term in zip(TERMS, terms)}
        r = _residual(self.grid, self._maps, *_weight_sums(self._rows, weights))
        rep = EnergyReport(self.form, self.lam, total, **fields)
        return rep, GridFunction(self.grid, r)


def ray_energy(poly: tuple[np.ndarray, np.ndarray], t) -> np.ndarray:
    """Energy sum_k c_k t^p_k of a ray polynomial (:attr:`RayEnergy.poly`)
    at each t >= 0."""
    expos, coeffs = poly
    with np.errstate(over="ignore", invalid="ignore"):
        return np.power.outer(np.asarray(t, dtype=float), expos) @ coeffs
