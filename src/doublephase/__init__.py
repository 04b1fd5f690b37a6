"""Double-phase variable-exponent Dirichlet energies on uniform box grids.

Library layout:
    grid          -- uniform grids, discrete gradient/average/quadrature
    fieldexpr     -- the small expression grammar for analytic field specs
    exponents     -- exponent fields, summaries, hypothesis checks
    spaces        -- modulars, Luxemburg norms, gradient norms
    energy        -- the two energies and their exact discrete gradients
    solvers       -- bump, threshold search, minimization, saddle search
    verification  -- randomized oracles for every inequality the arguments use
    config/outputs/cli -- experiment front end
"""

__version__ = "0.1.0"

from .exponents import ExponentField, ExponentSet, build_exponent_set, validate_hypotheses
from .grid import DomainGrid, GridFunction
from .energy import EnergyReport, energy_and_gradient, eval_energy, grad_energy, residual_norm
from .solvers import (
    SolveResult,
    SolverOptions,
    SubBox,
    bump_function,
    dedupe_with_negatives,
    find_endpoint,
    lambda_star_search,
    minimize_energy,
    mountain_pass,
)
from .spaces import luxemburg_norm, modular, sobolev_norm

__all__ = [
    "__version__",
    "DomainGrid",
    "GridFunction",
    "ExponentField",
    "ExponentSet",
    "build_exponent_set",
    "validate_hypotheses",
    "EnergyReport",
    "energy_and_gradient",
    "eval_energy",
    "grad_energy",
    "residual_norm",
    "SolveResult",
    "SolverOptions",
    "SubBox",
    "bump_function",
    "dedupe_with_negatives",
    "find_endpoint",
    "lambda_star_search",
    "minimize_energy",
    "mountain_pass",
    "luxemburg_norm",
    "modular",
    "sobolev_norm",
]
