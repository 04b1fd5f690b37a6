import numpy as np
import pytest

from doublephase.energy import eval_energy
from doublephase.errors import HypothesisGateError, SphereGeometryError
from doublephase.exponents import build_exponent_set
from doublephase.grid import DomainGrid
from doublephase.solvers import SubBox, bump_function
from doublephase.verification import (
    check_auxiliary_inequality,
    check_coercivity,
    check_holder_random,
    check_inclusion_random,
    check_mp_geometry,
    check_pointwise_inequalities,
    check_ray_boundedness,
    check_sandwich_random,
    check_strong_monotonicity,
    run_all_checks,
)

from conftest import default_set


@pytest.fixture(scope="module")
def s8():
    return default_set(8)


def test_pointwise_inequalities_spot_values():
    # s = 0.5, exponents (2, 3): 0.25 + 0.125 >= 0.125; s = 1 gives 2 >= 1
    assert 0.5**2 + 0.5**3 >= 0.5 ** max(2, 3)
    rep = check_pointwise_inequalities(10_000, seed=0)
    assert rep.passed and rep.failures == 0
    assert rep.worst_margin >= -1e-15


def test_auxiliary_inequality_spot_and_random():
    # a = b = 1, k = 1, l = 2: max of t - t^2 is 1/4, bound is 1
    t = np.linspace(0, 2, 401)
    assert np.max(t - t * t) <= 1.0
    rep = check_auxiliary_inequality(10_000, seed=1)
    assert rep.passed and rep.failures == 0


def test_strong_monotonicity_identity_at_two():
    rep = check_strong_monotonicity(2.0, 10_000, dim=3, seed=2)
    assert rep.passed
    assert abs(rep.constants["C_hat"] - 1.0) <= 1e-12


def test_strong_monotonicity_r3():
    rep = check_strong_monotonicity(3.0, 100_000, dim=3, seed=3)
    assert rep.passed
    assert rep.constants["C_hat"] > 0.0
    with pytest.raises(ValueError):
        check_strong_monotonicity(1.5, 10, dim=3)


def test_mp_geometry_reports_positive_barrier(s8):
    rep = check_mp_geometry(1.0, s8, seed=0)
    assert rep.passed
    assert rep.constants["eta"] > 0.0
    assert rep.constants["alpha"] > 0.0
    assert rep.constants["beta"] == 1.0 / s8.pmax.hi
    assert rep.constants["barrier_positive_radius"] > 0.0
    assert rep.constants["C1"] > 0.0 and rep.constants["C2"] > 0.0


def test_mp_geometry_no_positive_sphere(s8):
    with pytest.raises(SphereGeometryError):
        check_mp_geometry(1.0, s8, eta_grid=np.array([1e4, 1e5]), seed=0)


def test_mp_geometry_gate():
    bad = build_exponent_set("2", "2 + 0.5*sin(pi*x1)", "7", DomainGrid(3, (8, 8, 8)))
    with pytest.raises(HypothesisGateError):
        check_mp_geometry(1.0, bad, seed=0)


def test_coercivity_gate():
    # the supercritical q = 7 fails the coercive hypotheses too
    bad = build_exponent_set("2", "2 + 0.5*sin(pi*x1)", "7", DomainGrid(3, (8, 8, 8)))
    with pytest.raises(HypothesisGateError):
        check_coercivity(1.0, bad, n_samples=5, seed=0)


def test_ray_boundedness(s8):
    rep = check_ray_boundedness(1.0, s8, subspace_dim=3, n_rays=20, seed=0)
    assert rep.passed
    assert np.isfinite(rep.constants["sup_T"])
    with pytest.raises(ValueError):
        check_ray_boundedness(1.0, s8, subspace_dim=9)


def test_coercivity_constant_formula(set16):
    # lam = 1, pmax in [2, 2.5], q = 4: C = (1/2) * (2^(5/3) + 2)
    rep = check_coercivity(1.0, set16, n_samples=20, seed=0)
    expect = 0.5 * (2.0 ** (2.5 / 1.5) + 2.0)
    assert abs(rep.constants["C"] - expect) <= 1e-12 * expect
    assert abs(rep.constants["D"] - expect * set16.grid.volume) <= 1e-12 * expect
    assert rep.passed


def test_coercivity_samples_pass(s8):
    rep = check_coercivity(1.0, s8, n_samples=200, seed=4)
    assert rep.passed and rep.failures == 0


def test_coercivity_floor_trend_along_bump_ray(s8):
    # (I(t*u0) + D)/t^pmax.lo stays bounded below by a positive constant
    rep = check_coercivity(1.0, s8, n_samples=5, seed=0)
    d_const = rep.constants["D"]
    bump = bump_function(s8.grid, 2.0, SubBox.centered((0.5, 0.5, 0.5), 0.5))
    ratios = []
    t = 2.0
    for _ in range(12):
        total = eval_energy(t * bump.fn, 1.0, s8, "coercive").total
        ratios.append((total + d_const) / t**s8.pmax.lo)
        t *= 2.0
    assert min(ratios) > 0.0


def test_randomized_space_checks(s8):
    assert check_holder_random(s8, 100, seed=5).passed
    assert check_sandwich_random(s8, 100, seed=6).passed
    assert check_inclusion_random(s8, 100, seed=7).passed


def test_run_all_checks_fast(s8):
    reports = run_all_checks(s8, lam=1.0, seed=0, fast=True)
    assert all(r.passed for r in reports)
    names = [r.name for r in reports]
    assert len(names) == len(set(names))


def test_reports_serialize(s8):
    rep = check_pointwise_inequalities(100, seed=0)
    d = rep.to_dict()
    assert d["passed"] is True and d["name"] == "pointwise_inequalities"
