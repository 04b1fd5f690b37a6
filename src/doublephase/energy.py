"""The two double-phase energies and their exact discrete gradients.

``mountain`` form:  grad terms + lam * bulk(pmax) - bulk(q)   (saddle geometry)
``coercive`` form:  grad terms - lam * bulk(pmax) + bulk(q)   (global minimum)

Both forms are signed sums of the same four modular terms, the cell integrals
of base^p / p listed in ``TERMS``; :func:`coefficients` gives their signs per
form.  One pass (:func:`energy_and_gradient`) takes a node field once
through the corner-average and cell-gradient maps of :func:`grid.transfer`,
on their flat node layout (the pad entries, which hold no cell, are cleared
before the adjoint maps), and returns the report of the four terms and the
total, and the nodal residual.  Each term takes
one power per cell of the squared base x2: the residual weight
w = x2^((p-2)/2), whose product with x2 is b^p (p < 2 cells, regularized,
take a second power; constant p = 2 and p = 4 take none).  b^p is summed at
the exponent's own shape (:attr:`ExponentField.compact`), over the cell axes
along which p repeats, and only those entry sums are divided by p.  The rows
of ``TERMS`` come one at a time and free what they made once it is read, so
at 32^3 nodes a pass peaks near 9 node arrays above entry.  The residual
differentiates the discrete energy through the same maps, so minimizers of
the discrete energy are exact discrete weak solutions.  :func:`eval_energy`
and :func:`grad_energy` keep one half of that pass, and
:func:`eval_energy_many`, which no stage calls, takes one :func:`eval_energy`
per field of its stack (a loop over the fields is faster than one pass over
the stack).  The pass and :meth:`RayEnergy.at` assemble the report and the
residual in one place, from the terms and the two summed weights.  The
energies are defined on zero-boundary fields; the cell pass under every
evaluation refuses any other with ``ValueError``.

Along a ray t -> t*u the energy is an exact generalized polynomial in t, one
term per distinct exponent value of each modular term.  :class:`RayEnergy`
builds it from one pass over the cells of u and keeps that pass, so the
energy and the gradient anywhere on the ray need no second pass: the ray
peaks and the checks of the verify battery (which also read the gradient
magnitude and the bulk modulars from it) read one, as does the endpoint
scan, which no stage runs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exponents import ExponentField, ExponentSet
from .grid import (
    DomainGrid,
    GridFunction,
    cells,
    fill_pad,
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

    @property
    def roundoff(self) -> float:
        """Summation roundoff of ``total``: 64 eps max(sum |c_k| term_k, 1)."""
        scale = sum(abs(c) * t for c, t in zip(coefficients(self.lam, self.form), self.terms))
        return 64.0 * np.finfo(float).eps * max(scale, 1.0)

    def to_dict(self) -> dict:
        fields = {field: getattr(self, field) for field, _, _ in TERMS}
        return {"form": self.form, "lambda": self.lam, "total": self.total, **fields}


class _Term(NamedTuple):
    """One row of ``TERMS`` on a :class:`RayEnergy` pass: the exponent
    field, the signed coefficient, the base kind, the weight w on the flat
    node layout of :func:`grid.transfer`, and the squared cell base x2
    (|grad u|^2 or the squared corner average) where the weight at t*u reads
    it: on the regularized cells of a row with ``p.lo < 2``, else None.
    ``sums`` are its entry sums of b^p grouped by the exponent ``values``."""

    p: ExponentField
    c: float
    kind: str
    w: np.ndarray | float
    x2: np.ndarray | None
    values: np.ndarray
    sums: np.ndarray


def _powers(x2: np.ndarray, p: ExponentField):
    """Weight w = x2^((p-2)/2) and cell value b^p = w * x2 of one term, from
    one power of the squared base x2 = b^2 on the flat node layout.

    w * x is the derivative of |x|^p / p in the cell quantity x, with the
    extension by 0 at x = 0 for p >= 2 (0^0 = 1 covers p = 2).  A constant
    field takes p = 2 and p = 4 as products, without a power (p = 4 returns
    x2 itself as w).  Cells with p < 2 take the weight of x2 + REG_EPS^2 and
    the value x2^(p/2) by a second power; that masked work is skipped when
    ``p.lo >= 2``.
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


def _entry_sums(grid: DomainGrid, bp: np.ndarray, p: ExponentField) -> np.ndarray:
    """b^p (flat node layout) summed over the cell axes along which ``p``
    repeats, at ``p.compact.shape``; from a contiguous copy of the cells, so
    the order of the sum does not depend on the layout."""
    axes = tuple(a - grid.dim for a, n in enumerate(p.compact.shape) if n == 1)
    return np.ascontiguousarray(cells(grid, bp)).sum(axis=axes, keepdims=True)


def _squared_gradient(maps: np.ndarray) -> np.ndarray:
    """|grad u|^2 from the gradient components of :func:`_cell_pass`'s maps,
    a fresh array."""
    with np.errstate(over="ignore"):
        grad2 = np.multiply(maps[0], maps[0])
        for comp in maps[1:-1]:
            grad2 += comp * comp
    return grad2


def _cell_pass(u: GridFunction):
    """One pass of a zero-boundary field through the transfer maps
    (:func:`grid.transfer`, the gradient components then the average), zero
    at the pad entries, and the squared cell bases of the two kinds, two
    fresh arrays.  Any other field is refused with ``ValueError``."""
    if not u.zero_on_boundary:
        raise ValueError("energy is defined on zero-boundary grid functions")
    grid = u.grid
    maps = fill_pad(grid, transfer(grid, u.values), 0.0)
    with np.errstate(over="ignore"):
        x2 = {"grad": _squared_gradient(maps), "avg": maps[-1] * maps[-1]}
    # a pad base of 1 keeps the powers off their slow path for 0
    for squares in x2.values():
        fill_pad(grid, squares, 1.0)
    return maps, x2


def _row_powers(grid: DomainGrid, x2: dict, lam: float, s: ExponentSet, form: str):
    """Per row of ``TERMS``: its exponent field, coefficient, base kind,
    weight w (:func:`_powers`) and the entry sums of b^p
    (:func:`_entry_sums`), made one row at a time; b^p is dropped once
    summed, and the caller drops w before the next row is made.  Each
    squared base leaves ``x2`` after the last row of its kind."""
    kinds = [kind for _, _, kind in TERMS]
    for i, ((_, name, kind), c) in enumerate(zip(TERMS, coefficients(lam, form))):
        p = getattr(s, name)
        w, bp = _powers(x2[kind], p)
        sums = _entry_sums(grid, bp, p)
        del bp
        yield p, c, kind, w, sums
        del w
        if kind not in kinds[i + 1 :]:
            del x2[kind]


def _add(acc, term):
    """acc + term, as ``sum`` adds its items, in the array of ``term`` when
    it is one (a fresh array of the caller's)."""
    if isinstance(term, np.ndarray):
        term += acc
        return term
    return acc + term


def _residual(grid: DomainGrid, maps: np.ndarray, weights: dict, in_place: bool) -> np.ndarray:
    """Nodal residual: the flux weight ``weights["grad"]`` times each
    gradient component and the source weight ``weights["avg"]`` times the
    average, taken back to the nodes by the adjoint maps.  Each weight sums
    c * w over the rows of its kind, w * x being |x|^(p-2) x in the row's
    cell quantity x (the gradient vector of a "grad" row, the average of an
    "avg" row).  The products are made one at a time, into the maps
    themselves when ``in_place`` (the adjoint then uses them as scratch).
    The pad entries of the maps are zero, so are those of the products."""
    row_w = [weights["grad"]] * (len(maps) - 1) + [weights["avg"]]
    r = transfer_adjoint(
        grid, (np.multiply(m, w, out=m if in_place else None) for w, m in zip(row_w, maps))
    )
    r = r.reshape(grid.node_shape)
    for face in grid.boundary_faces:
        r[face] = 0.0
    return r


def _report(grid: DomainGrid, maps: np.ndarray, lam: float, form: str, terms, weights, in_place):
    """Energy report and residual from the terms (``TERMS`` order) and the
    two weights of a pass: the total sums c_k term_k, the residual is
    :func:`_residual` of the pass's maps."""
    total = sum(c * t for c, t in zip(coefficients(lam, form), terms))
    fields = {field: t for (field, _, _), t in zip(TERMS, terms)}
    r = _residual(grid, maps, weights, in_place)
    return EnergyReport(form, lam, float(total), **fields), GridFunction(grid, r)


def eval_energy(u: GridFunction, lam: float, s: ExponentSet, form: str) -> EnergyReport:
    """Evaluate the energy with exponents at cell centers; exact term identity."""
    return energy_and_gradient(u, lam, s, form)[0]


def eval_energy_many(
    grid: DomainGrid, stack: np.ndarray, lam: float, s: ExponentSet, form: str
) -> np.ndarray:
    """Energy totals for a stack of zero-boundary fields (leading batch axes),
    one :func:`eval_energy` per field.

    No stage calls it; the benchmark tracer (``perfbench/tracing.py``) wraps
    it by name until ROADMAP item 20 retires the tracer."""
    stack = np.asarray(stack, dtype=float)
    fields = stack.reshape((-1,) + grid.node_shape)
    totals = [eval_energy(GridFunction(grid, vals), lam, s, form).total for vals in fields]
    return np.array(totals).reshape(stack.shape[: stack.ndim - grid.dim])


def energy_and_gradient(
    u: GridFunction, lam: float, s: ExponentSet, form: str
) -> tuple[EnergyReport, GridFunction]:
    """:func:`eval_energy` and :func:`grad_energy` of ``u`` from one pass
    through the transfer maps.

    Each row takes its term from its entry sums; its signed weight c * w is
    added into the flux ("grad" rows) or the source ("avg" rows) weight and
    dropped, so one row's powers are alive at a time, and each squared base
    goes after the last row of its kind.  The residual weights the pass's
    own maps in place and takes them back to the nodes."""
    grid = u.grid
    maps, x2 = _cell_pass(u)
    terms, weights = [], {"grad": 0, "avg": 0}
    for p, c, kind, w, sums in _row_powers(grid, x2, lam, s, form):
        terms.append(grid.cell_volume * float(np.sum(sums / p.compact)))
        weights[kind] = _add(weights[kind], c * w)
        del w
    return _report(grid, maps, lam, form, terms, weights, in_place=True)


def grad_energy(u: GridFunction, lam: float, s: ExponentSet, form: str) -> GridFunction:
    """Nodal residual r with pairing(r, v) equal to the discrete directional
    derivative of :func:`eval_energy` along any zero-boundary v."""
    return energy_and_gradient(u, lam, s, form)[1]


def residual_norm(r: GridFunction) -> float:
    """Discrete L2 norm of a residual field on nodes."""
    return float(np.sqrt(r.grid.cell_volume * np.sum(r.values * r.values)))


class RayEnergy:
    """The energy and gradient along the ray t -> t*u, from one pass over the
    cells of ``u``.

    The energy has no regularization, so each term of ``TERMS`` scales
    exactly: the cell value (t b)^p is t^p b^p.  One ``np.bincount`` per term
    groups its entry sums (b^p summed at its exponent's shape, as in
    :func:`energy_and_gradient`) by exponent value
    (:attr:`ExponentField.groups`), constant or not, into the ray polynomial
    :attr:`poly`: E(t*u) = sum_k c_k t^p_k, one term per distinct value,
    zero coefficients dropped.  The default
    experiment keeps 18 terms at 16^3 nodes against 3375 cells; a field of
    all-distinct cell exponents compresses nothing.

    The pass keeps the transfer maps and one record per row of ``TERMS``:
    its weight w (for p = 4 the squared base itself, for p = 2 the scalar
    1), its squared base only where the row has p < 2, and its group values
    and sums.  :meth:`at` gives the energy report and the residual at t*u
    from them: the maps scale by t and each weight by t^(p-2), gathered at
    the exponent's shape and broadcast onto the cells, so only the
    regularized cells (p < 2) take a fresh power.  Both agree with
    :func:`energy_and_gradient` of t*u to rounding.  On the default
    exponents the pass keeps 7 node arrays, and :meth:`at` peaks near 5
    more.  :attr:`gradient_magnitude`, :attr:`corner_average` and
    :meth:`modular` read the same pass for the norms and modulars of the
    verify battery.
    """

    def __init__(self, u: GridFunction, lam: float, s: ExponentSet, form: str):
        self.grid, self.lam, self.form = u.grid, lam, form
        self._maps, x2 = _cell_pass(u)
        self._rows = []
        for p, c, kind, w, sums in _row_powers(self.grid, x2, lam, s, form):
            values, inverse = p.groups
            sums = np.bincount(inverse.reshape(-1), sums.reshape(-1), values.size)
            self._rows.append(_Term(p, c, kind, w, x2[kind] if p.lo < 2.0 else None, values, sums))
        expos = np.concatenate([row.values for row in self._rows])
        coeffs = np.concatenate([
            (self.grid.cell_volume * row.c) * row.sums / row.values for row in self._rows
        ])
        keep = coeffs != 0.0
        self.poly = (expos[keep], coeffs[keep])

    @property
    def gradient_magnitude(self) -> np.ndarray:
        """|grad u| on each cell, the field of the Sobolev norm of u."""
        return np.sqrt(cells(self.grid, _squared_gradient(self._maps)))

    @property
    def corner_average(self) -> np.ndarray:
        """The corner average of u on each cell, bitwise
        :func:`grid.node_to_cell` of u."""
        return cells(self.grid, self._maps[-1]).copy()

    def modular(self, term: str, t: float) -> float:
        """Cell integral of base^p of the ``TERMS`` row named ``term`` (an
        :class:`EnergyReport` field, such as ``"term_pmax"``) at t*u, from
        its group sums: the term without its 1/p and its sign."""
        row = self._rows[[name for name, _, _ in TERMS].index(term)]
        with np.errstate(over="ignore"):
            return self.grid.cell_volume * float(np.sum(row.sums * t**row.values))

    def _weight(self, row: _Term, t: float):
        """Signed weight c * w of ``row`` at t*u times t, the scale of its
        cell quantity, in a fresh array when it is one."""
        values, inverse = row.p.groups
        with np.errstate(over="ignore"):
            scale = t ** (values - 1.0)  # one per distinct exponent value
            if scale.size == 1:  # a constant, whose w may be the number 1
                w = row.w * float(scale[0])
            else:  # gathered at p's compact shape, 0 at the pad entries
                nodes = np.zeros(tuple(n + (n > 1) for n in inverse.shape))
                nodes[tuple(slice(0, n) for n in inverse.shape)] = scale[inverse]
                w = (row.w.reshape(self.grid.node_shape) * nodes).reshape(-1)
            if row.x2 is not None:
                expo = row.p.flat_half_excess
                low = expo < 0.0
                w[low] = t * ((t * t) * row.x2[low] + REG_EPS * REG_EPS) ** expo[low]
        return row.c * w if np.ndim(w) == 0 else np.multiply(w, row.c, out=w)

    def at(self, t: float) -> tuple[EnergyReport, GridFunction]:
        """Energy report and residual of t*u, for t > 0."""
        vol = self.grid.cell_volume
        with np.errstate(over="ignore"):
            terms = [vol * float(np.sum(r.sums * t**r.values / r.values)) for r in self._rows]
        weights = {"grad": 0, "avg": 0}
        for row in self._rows:
            weights[row.kind] = _add(weights[row.kind], self._weight(row, t))
        return _report(self.grid, self._maps, self.lam, self.form, terms, weights, in_place=False)


def ray_energy(poly: tuple[np.ndarray, np.ndarray], t) -> np.ndarray:
    """Energy sum_k c_k t^p_k of a ray polynomial (:attr:`RayEnergy.poly`)
    at each t >= 0."""
    expos, coeffs = poly
    with np.errstate(over="ignore", invalid="ignore"):
        return np.power.outer(np.asarray(t, dtype=float), expos) @ coeffs
