"""Acceptance gate: one test per shipped criterion, each at its stated
tolerance on the default experiment (dim 3, 16^3 grid, p1 = 2,
p2 = 2 + 0.5 sin(pi x1), q = 4).  Run with ``pytest tests/test_acceptance.py -v -s``
to see one line per criterion.
"""
import json

import numpy as np
import pytest

from doublephase.cli import main
from doublephase.energy import eval_energy, grad_energy, residual_norm
from doublephase.grid import pairing
from doublephase.solvers import (
    SolverOptions,
    SubBox,
    bump_function,
    dedupe_with_negatives,
    lambda_star_search,
    minimize_energy,
    mountain_pass,
)
from doublephase.spaces import luxemburg_norm, modular, sobolev_norm
from doublephase.verification import (
    _holder,
    _sandwich,
    check_auxiliary_inequality,
    check_coercivity,
    check_inclusion_random,
    check_pointwise_inequalities,
    check_strong_monotonicity,
)

from conftest import default_set, random_field

LAM_GRID = np.geomspace(1e-2, 1e4, 361)


def report(n, text):
    print(f"PASS criterion {n}: {text}")


@pytest.fixture(scope="module")
def s16():
    return default_set(16)


@pytest.fixture(scope="module")
def s12():
    return default_set(12)


@pytest.fixture(scope="module")
def bump16(s16):
    return bump_function(s16.grid, 2.0, SubBox.centered((0.5, 0.5, 0.5), 0.5))


@pytest.fixture(scope="module")
def star16(s16, bump16):
    return lambda_star_search(s16, bump16, LAM_GRID)


@pytest.fixture(scope="module")
def min_result(s16, bump16, star16):
    return minimize_energy(2.0 * star16.lambda_star, s16, bump16.fn, SolverOptions())


@pytest.fixture(scope="module")
def mp_result(s16, bump16):
    return mountain_pass(1.0, s16, bump16.fn, SolverOptions())


def test_criterion_1_gradient_consistency(s12):
    rng = np.random.default_rng(101)
    eps = 1e-6
    worst = 0.0
    for form in ("mountain", "coercive"):
        for _ in range(20):
            u = random_field(s12.grid, rng, amp=rng.uniform(0.2, 1.0))
            v = random_field(s12.grid, rng, amp=rng.uniform(0.2, 1.0))
            lam = rng.uniform(0.2, 3.0)
            analytic = pairing(grad_energy(u, lam, s12, form), v)
            fd = (
                eval_energy(u + eps * v, lam, s12, form).total
                - eval_energy(u - eps * v, lam, s12, form).total
            ) / (2 * eps)
            rel = abs(fd - analytic) / max(1.0, abs(analytic))
            worst = max(worst, rel)
            assert rel <= 1e-4
    report(1, f"gradient vs central differences, worst relative error {worst:.2e}")


def test_criterion_2_luxemburg_norm(s16):
    rng = np.random.default_rng(102)
    worst_h = 0.0
    for _ in range(50):
        u = random_field(s16.grid, rng, amp=rng.uniform(0.1, 4.0), zero_boundary=False)
        c = rng.uniform(-10.0, 10.0)
        if c == 0.0:
            c = 1.0
        base, tr1 = luxemburg_norm(u, s16.p2)
        scaled, tr2 = luxemburg_norm(c * u, s16.p2)
        err = abs(scaled - abs(c) * base) / max(1.0, abs(c) * base)
        worst_h = max(worst_h, err)
        assert err <= 1e-8
        assert tr1.residual <= 1e-10 and tr2.residual <= 1e-10
    # constant-exponent closed form
    worst_c = 0.0
    for _ in range(20):
        u = random_field(s16.grid, rng, amp=rng.uniform(0.1, 4.0), zero_boundary=False)
        value, trace = luxemburg_norm(u, s16.p1)
        closed = modular(u, s16.p1) ** (1.0 / s16.p1.lo)
        err = abs(value - closed) / max(1.0, closed)
        worst_c = max(worst_c, err)
        assert err <= 1e-10
        assert trace.residual <= 1e-10
    report(2, f"homogeneity {worst_h:.2e}, closed form {worst_c:.2e}, residual <= 1e-10")


def test_criterion_3_sandwich_and_holder(s16):
    rng = np.random.default_rng(103)
    sandwich_failures = 0
    for i in range(200):
        amp = rng.uniform(0.01, 0.3) if i % 2 else rng.uniform(1.0, 25.0)
        u = random_field(s16.grid, rng, amp=amp, zero_boundary=False)
        if not _sandwich(u, s16.p2)[1]:
            sandwich_failures += 1
    holder_failures = 0
    for _ in range(200):
        u = random_field(s16.grid, rng, amp=rng.uniform(0.05, 5.0), zero_boundary=False)
        v = random_field(s16.grid, rng, amp=rng.uniform(0.05, 5.0), zero_boundary=False)
        if not _holder(u, v, s16.p2)[1]:
            holder_failures += 1
    assert sandwich_failures == 0 and holder_failures == 0
    report(3, "norm-modular sandwich and pairing bound, 200 cases each, 0 failures")


def test_criterion_4_inequality_suite(s16):
    reports = [
        check_pointwise_inequalities(10_000, seed=41),
        check_auxiliary_inequality(10_000, seed=42),
        check_strong_monotonicity(3.0, 100_000, dim=3, seed=43),
        check_strong_monotonicity(2.0, 10_000, dim=3, seed=44),
        check_coercivity(1.0, s16, n_samples=500, seed=45),
        check_inclusion_random(s16, 200, seed=46),
    ]
    for rep in reports:
        assert rep.passed and rep.failures == 0, rep.name
    r2 = reports[3]
    assert abs(r2.constants["C_hat"] - 1.0) <= 1e-12
    report(4, "pointwise, power-difference, monotonicity, coercivity, inclusion: 0 failures; "
              f"C_hat(r=2) = {r2.constants['C_hat']:.15f}")


def test_criterion_5_coercive_pipeline(s16, bump16, star16, min_result):
    assert star16.lambda_star <= star16.analytic_bound
    # within one grid step above the closed form
    assert star16.lambda_star >= star16.lambda_star_exact
    below = LAM_GRID[LAM_GRID < star16.lambda_star]
    assert below.size and below[-1] <= star16.lambda_star_exact
    lam = 2.0 * star16.lambda_star
    assert min_result.converged and min_result.residual <= 1e-6
    assert min_result.energy.total < 0.0
    assert sobolev_norm(min_result.u, s16.pmax) > 0.0
    rng = np.random.default_rng(105)
    r = grad_energy(min_result.u, lam, s16, "coercive")
    for _ in range(20):
        v = random_field(s16.grid, rng)
        assert abs(pairing(r, v)) <= 10.0 * 1e-6 * residual_norm(v)
    report(5, f"lambda_star = {star16.lambda_star:.4f} <= bound {star16.analytic_bound:.4f}; "
              f"minimum energy {min_result.energy.total:.2f} < 0, "
              f"residual {min_result.residual:.2e}, certified on 20 test functions")


def test_criterion_6_mountain_pipeline(s16, bump16, mp_result):
    assert mp_result.converged and mp_result.residual <= 1e-6
    assert mp_result.energy.total > 0.0
    minus = -mp_result.u
    assert eval_energy(minus, 1.0, s16, "mountain").total == mp_result.energy.total
    delta_ref = 1e-2 * sobolev_norm(mp_result.u, s16.pmax)
    assert sobolev_norm(mp_result.u - minus, s16.pmax) > delta_ref
    # the saddle depends only on the ray of the start direction; the last
    # start is the first doubling of the bump with a negative energy
    doublings = (2.0**k * bump16.fn for k in range(61))
    e = next(d for d in doublings if eval_energy(d, 1.0, s16, "mountain").total < 0.0)
    rel = 0.0
    for direction in (0.01 * bump16.fn, 37.0 * bump16.fn, e):
        other = mountain_pass(1.0, s16, direction, SolverOptions())
        assert other.converged and other.iterations == mp_result.iterations
        drift = abs(other.energy.total - mp_result.energy.total) / abs(mp_result.energy.total)
        rel = max(rel, drift)
    assert rel <= 1e-12
    # two seeds with disjoint supports: at least four distinct critical points
    seed_a = bump_function(s16.grid, 2.0, SubBox.centered((0.3, 0.3, 0.3), 0.25)).fn
    seed_b = bump_function(s16.grid, 2.0, SubBox.centered((0.7, 0.7, 0.7), 0.25)).fn
    found = [mountain_pass(1.0, s16, seed, SolverOptions()) for seed in (seed_a, seed_b)]
    solutions, _, _ = dedupe_with_negatives(found, s16)
    assert len(solutions) >= 4
    for sol in solutions:
        assert sol.residual <= 1e-6 and sol.energy.total > 0.0
    report(6, f"saddle energy {mp_result.energy.total:.4f} (ray-scaling drift {rel:.2e}), "
              f"{len(solutions)} distinct critical points from 2 seeds")


def test_criterion_7_parity(s16):
    rng = np.random.default_rng(107)
    for _ in range(50):
        u = random_field(s16.grid, rng, amp=rng.uniform(0.05, 3.0))
        lam = rng.uniform(0.1, 3.0)
        for form in ("mountain", "coercive"):
            assert eval_energy(-u, lam, s16, form).total == eval_energy(u, lam, s16, form).total
            assert np.array_equal(
                grad_energy(-u, lam, s16, form).values,
                -grad_energy(u, lam, s16, form).values,
            )
    report(7, "energy even and gradient odd, bitwise, 50 random fields")


def test_criterion_8_midpoint_convexity(s16):
    rng = np.random.default_rng(108)
    worst = np.inf
    for _ in range(100):
        u = random_field(s16.grid, rng, amp=rng.uniform(0.01, 0.5))
        v = random_field(s16.grid, rng, amp=rng.uniform(0.01, 0.5))

        def grad_terms(w):
            rep = eval_energy(w, 1.0, s16, "mountain")
            return rep.term_grad_p1 + rep.term_grad_p2

        lhs = grad_terms(0.5 * (u + v))
        rhs = 0.5 * grad_terms(u) + 0.5 * grad_terms(v)
        worst = min(worst, rhs - lhs)
        assert lhs <= rhs + 1e-12
    report(8, f"gradient terms midpoint convex on 100 pairs, smallest slack {worst:.3e}")


def test_criterion_9_cli_determinism(tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["solve-min", "--seed", "0", "--out", str(out1)]) == 0
    assert main(["solve-min", "--seed", "0", "--out", str(out2)]) == 0
    payload = sorted(p.name for p in out1.iterdir() if p.name != "manifest.json")
    assert payload
    for name in payload:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["outputs"] == m2["outputs"]
    report(9, f"{len(payload)} payload files byte-identical across repeated runs")
