"""The two double-phase energies and their exact discrete gradients.

``mountain`` form:  grad terms + lam * bulk(pmax) - bulk(q)   (saddle geometry)
``coercive`` form:  grad terms - lam * bulk(pmax) + bulk(q)   (global minimum)

The gradient is assembled by differentiating the discrete energy through the
corner-average and cell-gradient maps, so minimizers of the discrete energy
are exact discrete weak solutions and finite-difference checks pass to
rounding-dominated tolerance.  The ``*_many`` variants evaluate a whole stack
of fields at once (leading batch axes).
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
    "EnergyReport",
    "eval_energy",
    "eval_energy_many",
    "grad_energy",
    "grad_energy_many",
    "residual_norm",
]

FORMS = ("mountain", "coercive")

# regularization of |g|^(p-2) g near g = 0, used only for exponents below 2
REG_EPS = 1e-10


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

    def to_dict(self) -> dict:
        return {
            "form": self.form,
            "lambda": self.lam,
            "total": self.total,
            "term_grad_p1": self.term_grad_p1,
            "term_grad_p2": self.term_grad_p2,
            "term_pmax": self.term_pmax,
            "term_q": self.term_q,
        }


def _check_form(lam: float, form: str):
    if form not in FORMS:
        raise ValueError(f"form must be one of {FORMS}, got {form!r}")
    if lam < 0.0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")


def _terms(grid: DomainGrid, s: ExponentSet, vals: np.ndarray):
    """The four nonnegative energy terms; batch axes lead."""
    gm = np.sqrt(np.sum(gradient_values(grid, vals) ** 2, axis=-(grid.dim + 1)))
    am = np.abs(node_to_cell_values(grid, vals))
    with np.errstate(over="ignore"):
        tg1 = cell_quadrature_values(grid, gm ** s.p1.values / s.p1.values)
        tg2 = cell_quadrature_values(grid, gm ** s.p2.values / s.p2.values)
        tm = cell_quadrature_values(grid, am ** s.pmax.values / s.pmax.values)
        tq = cell_quadrature_values(grid, am ** s.q.values / s.q.values)
    return tg1, tg2, tm, tq


def _totals(tg1, tg2, tm, tq, lam: float, form: str):
    if form == "mountain":
        return tg1 + tg2 + lam * tm - tq
    return tg1 + tg2 - lam * tm + tq


def eval_energy(u: GridFunction, lam: float, s: ExponentSet, form: str) -> EnergyReport:
    """Evaluate the energy with exponents at cell centers; exact term identity."""
    _check_form(lam, form)
    if not u.bc_zero:
        raise ValueError("energy is defined on zero-boundary grid functions")
    tg1, tg2, tm, tq = (float(t) for t in _terms(u.grid, s, u.values))
    return EnergyReport(form, lam, _totals(tg1, tg2, tm, tq, lam, form), tg1, tg2, tm, tq)


def eval_energy_many(
    grid: DomainGrid, stack: np.ndarray, lam: float, s: ExponentSet, form: str
) -> np.ndarray:
    """Energy totals for a stack of zero-boundary fields (leading batch axes)."""
    _check_form(lam, form)
    return _totals(*_terms(grid, s, stack), lam, form)


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


def _grad_values(
    grid: DomainGrid, stack: np.ndarray, lam: float, s: ExponentSet, form: str
) -> np.ndarray:
    g = gradient_values(grid, stack)
    mag2 = np.sum(g * g, axis=-(grid.dim + 1))
    flux_w = _power_weight(mag2, s.p1.values) + _power_weight(mag2, s.p2.values)
    flux = np.expand_dims(flux_w, -(grid.dim + 1)) * g

    a = node_to_cell_values(grid, stack)
    a2 = a * a
    bulk_m = _power_weight(a2, s.pmax.values) * a
    bulk_q = _power_weight(a2, s.q.values) * a
    if form == "mountain":
        source = lam * bulk_m - bulk_q
    else:
        source = -lam * bulk_m + bulk_q

    r = discrete_gradient_adjoint(grid, flux) + node_to_cell_adjoint(grid, source)
    r[..., grid.boundary_mask()] = 0.0
    return r


def grad_energy(u: GridFunction, lam: float, s: ExponentSet, form: str) -> GridFunction:
    """Nodal residual r with pairing(r, v) equal to the discrete directional
    derivative of :func:`eval_energy` along any zero-boundary v."""
    _check_form(lam, form)
    if not u.bc_zero:
        raise ValueError("energy is defined on zero-boundary grid functions")
    r = _grad_values(u.grid, u.values, lam, s, form)
    return GridFunction(u.grid, r, bc_zero=True)


def grad_energy_many(
    grid: DomainGrid, stack: np.ndarray, lam: float, s: ExponentSet, form: str
) -> np.ndarray:
    """Nodal residual stack for a stack of zero-boundary fields."""
    _check_form(lam, form)
    return _grad_values(grid, stack, lam, s, form)


def residual_norm(r: GridFunction) -> float:
    """Discrete L2 norm of a residual field."""
    return l2_norm(r)
