"""The two double-phase energies and their exact discrete gradients.

``mountain`` form:  grad terms + lam * bulk(pmax) - bulk(q)   (saddle geometry)
``coercive`` form:  grad terms - lam * bulk(pmax) + bulk(q)   (global minimum)

Both forms are signed sums of the same four modular terms, the cell integrals
of base^p / p listed in ``TERMS``; :func:`coefficients` gives their signs per
form.  One batch-aware kernel passes a stack of node fields (leading batch
axes) through the corner-average and cell-gradient maps once and returns the
four terms, the total and, on request, the nodal residual.  The residual is
assembled by differentiating the discrete energy through those same maps, so
minimizers of the discrete energy are exact discrete weak solutions and
finite-difference checks pass to rounding-dominated tolerance.  The public
functions are shells over the kernel; :func:`energy_and_gradient` takes the
value and the gradient from one pass.

Along a ray t -> t*u the energy is an exact generalized polynomial in t, one
term per distinct exponent value of each modular term; :func:`ray_polynomial`
builds it from one pass, and every ray computation (ray peaks, ray scans of
the checks) reads it instead of the cells.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exponents import ExponentSet
from .grid import (
    DomainGrid,
    GridFunction,
    cell_quadrature_values,
    discrete_gradient_adjoint,
    gradient_values,
    l2_norm,
    node_to_cell_adjoint,
    node_to_cell_values,
)

__all__ = [
    "FORMS",
    "REG_EPS",
    "TERMS",
    "EnergyReport",
    "coefficients",
    "term_table",
    "eval_energy",
    "eval_energy_many",
    "grad_energy",
    "energy_and_gradient",
    "residual_norm",
    "ray_polynomial",
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


def _cell_pass(grid: DomainGrid, vals: np.ndarray, lam: float, s: ExponentSet, form: str):
    """One pass of a node stack through the transfer maps: the cell gradients,
    their squared magnitudes, the cell averages and the term table."""
    g = gradient_values(grid, vals)
    mag2 = np.sum(g * g, axis=-(grid.dim + 1))
    a = node_to_cell_values(grid, vals)
    bases = {"grad": np.sqrt(mag2), "avg": np.abs(a)}
    table = [
        (getattr(s, name).values, kind, bases[kind], c)
        for (_, name, kind), c in zip(TERMS, coefficients(lam, form))
    ]
    return g, mag2, a, table


def term_table(grid: DomainGrid, vals: np.ndarray, lam: float, s: ExponentSet, form: str):
    """One row (exponent values, base kind, cell base, coefficient) per term
    of ``TERMS`` for a stack of node fields (leading batch axes)."""
    return _cell_pass(grid, vals, lam, s, form)[3]


def _power_weight(mag2: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Weight w with w*vec = |vec|^(p-2) vec, given the squared magnitude.

    For p >= 2 the continuous extension by 0 at the origin is used (0^0 = 1
    handles p = 2); for p < 2 the magnitude is shifted by REG_EPS.
    """
    expo = 0.5 * (p - 2.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        plain = mag2**expo
        reg = (mag2 + REG_EPS * REG_EPS) ** expo
    return np.where(p < 2.0, reg, plain)


def _kernel(
    grid: DomainGrid, vals: np.ndarray, lam: float, s: ExponentSet, form: str, residual: bool
):
    """Terms (``TERMS`` order), total and, if ``residual``, the nodal residual
    of a stack of zero-boundary node fields (leading batch axes)."""
    g, mag2, a, table = _cell_pass(grid, vals, lam, s, form)
    with np.errstate(over="ignore"):
        terms = [cell_quadrature_values(grid, base**p / p) for p, _, base, _ in table]
    total = sum(c * t for (_, _, _, c), t in zip(table, terms))
    if not residual:
        return terms, total, None
    # base^p / p differentiates to |x|^(p-2) x in its cell quantity x: the
    # gradient vector of a "grad" term (the flux), the average of an "avg" term
    a2 = a * a
    flux_w = sum(c * _power_weight(mag2, p) for p, kind, _, c in table if kind == "grad")
    source = sum(c * (_power_weight(a2, p) * a) for p, kind, _, c in table if kind == "avg")
    flux = np.expand_dims(flux_w, -(grid.dim + 1)) * g
    r = discrete_gradient_adjoint(grid, flux) + node_to_cell_adjoint(grid, source)
    r[..., grid.boundary_mask()] = 0.0
    return terms, total, r


def _evaluate(u: GridFunction, lam: float, s: ExponentSet, form: str, residual: bool):
    if not u.bc_zero:
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
    return rep, GridFunction(u.grid, r, bc_zero=True)


def grad_energy(u: GridFunction, lam: float, s: ExponentSet, form: str) -> GridFunction:
    """Nodal residual r with pairing(r, v) equal to the discrete directional
    derivative of :func:`eval_energy` along any zero-boundary v."""
    return energy_and_gradient(u, lam, s, form)[1]


def residual_norm(r: GridFunction) -> float:
    """Discrete L2 norm of a residual field."""
    return l2_norm(r)


def ray_polynomial(
    u: GridFunction, lam: float, s: ExponentSet, form: str
) -> tuple[np.ndarray, np.ndarray]:
    """Exponents p_k and coefficients c_k with eval_energy(t*u).total equal
    to sum_k c_k t^p_k for every t >= 0.

    The energy has no regularization, so each term of ``TERMS`` scales
    exactly: the cell integral of (t b)^p / p is vol * sum_cells t^p b^p / p.
    Grouping the cells by exponent value (:attr:`ExponentField.groups`)
    collapses each cell sum into one coefficient per distinct value, from one
    :func:`term_table` pass and one ``np.bincount`` per term; zero
    coefficients are dropped.  The default experiment keeps 18 terms at 16^3
    nodes against 3375 cells.  The worst case is a field whose cell exponents
    are all distinct: nothing compresses, and the cost is one energy pass
    plus one bincount per term.
    """
    if not u.bc_zero:
        raise ValueError("energy is defined on zero-boundary grid functions")
    grid = u.grid
    expos, coeffs = [], []
    table = term_table(grid, u.values, lam, s, form)
    with np.errstate(over="ignore"):
        for (_, name, _), (p, _, base, c) in zip(TERMS, table):
            values, inverse = getattr(s, name).groups
            sums = np.bincount(inverse, weights=(base**p).reshape(-1), minlength=values.size)
            expos.append(values)
            coeffs.append((grid.cell_volume * c) * sums / values)
    expos, coeffs = np.concatenate(expos), np.concatenate(coeffs)
    keep = coeffs != 0.0
    return expos[keep], coeffs[keep]


def ray_energy(poly: tuple[np.ndarray, np.ndarray], t) -> np.ndarray:
    """Energy sum_k c_k t^p_k of a :func:`ray_polynomial` at each t >= 0."""
    expos, coeffs = poly
    with np.errstate(over="ignore", invalid="ignore"):
        return np.power.outer(np.asarray(t, dtype=float), expos) @ coeffs
