import tracemalloc

import numpy as np
import pytest

import doublephase.energy
import doublephase.grid
import doublephase.spaces
import doublephase.verification
from doublephase.energy import RayEnergy, eval_energy
from doublephase.errors import HypothesisGateError, NonFiniteError, SphereGeometryError
from doublephase.exponents import build_exponent_set, validate_hypotheses
from doublephase.grid import DomainGrid, node_to_cell
from doublephase.outputs import jsonable
from doublephase.solvers import SubBox, bump_function
from doublephase.spaces import modular, sobolev_norm
from doublephase.verification import (
    CheckReport,
    _random_direction,
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


def _unblocked_pointwise(n_samples, seed):
    # the check as one full-width evaluation of both dominations
    rng = np.random.default_rng(seed)
    third = n_samples // 3
    near0 = 10.0 ** rng.uniform(-8.0, 0.0, size=third)
    near1 = 1.0 + rng.choice((-1.0, 1.0), size=third) * 10.0 ** rng.uniform(-8.0, -0.3, size=third)
    s = np.concatenate([near0, np.abs(near1), rng.uniform(0.0, 10.0, size=n_samples - 2 * third)])
    s[0] = 0.0
    p1 = rng.uniform(1.01, 8.0, size=n_samples)
    p2 = rng.uniform(1.01, 8.0, size=n_samples)
    qlo = rng.uniform(1.01, 8.0, size=n_samples)
    qhi = qlo + rng.uniform(0.0, 4.0, size=n_samples)
    q = rng.uniform(qlo, qhi)
    margins = []
    for lhs, rhs in ((s**p1 + s**p2, s ** np.maximum(p1, p2)), (s**qlo + s**qhi, s**q)):
        margins.append((lhs - rhs) / np.maximum(np.maximum(lhs, rhs), 1.0))
    return CheckReport(
        "pointwise_inequalities", 2 * n_samples,
        int(sum(np.sum(m < -1e-15) for m in margins)), float(min(m.min() for m in margins)),
        notes="both dominations sampled on [0, 10] with log focus at 0 and 1",
    )


@pytest.mark.parametrize(
    "n_samples, seed, block_elements",
    [(10_000, 0, None), (3, 1, None), (1000, 2, 7), (257, 3, 1)],
)
def test_pointwise_report_matches_the_whole_array_evaluation(
    n_samples, seed, block_elements, monkeypatch
):
    # row blocks of 7 and of 1 sample leave the report as one evaluation
    if block_elements is not None:
        monkeypatch.setattr(doublephase.verification, "_BLOCK_ELEMENTS", block_elements)
    got = check_pointwise_inequalities(n_samples, seed=seed)
    assert got == _unblocked_pointwise(n_samples, seed)


def _unblocked_auxiliary(n_samples, seed):
    # the check as one full-width evaluation, before row blocks
    rng = np.random.default_rng(seed)
    a = 10.0 ** rng.uniform(-3.0, 3.0, size=n_samples)
    b = 10.0 ** rng.uniform(-3.0, 3.0, size=n_samples)
    k = rng.uniform(0.1, 4.0, size=n_samples)
    l = k + rng.uniform(0.1, 4.0, size=n_samples)
    with np.errstate(over="ignore"):
        rhs = a * (a / b) ** (k / (l - k))
        t_hi = 2.0 * (a / b) ** (1.0 / (l - k))
        t = np.linspace(0.0, 1.0, 64)[None, :] * t_hi[:, None]
        lhs = a[:, None] * t ** k[:, None] - b[:, None] * t ** l[:, None]
        margin = (rhs[:, None] - lhs) / np.maximum(rhs[:, None], 1.0)
    failures = int(np.sum(np.any(margin < -1e-12, axis=1)))
    return CheckReport(
        "auxiliary_inequality", n_samples, failures, float(np.min(margin)),
        notes="64 t-points per sample, grid reaches twice the crossing radius",
    )


def _unblocked_monotonicity(r, n_samples, dim, seed):
    xi_rng, psi_rng = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    xi = xi_rng.normal(size=(n_samples, dim))
    psi = psi_rng.normal(size=(n_samples, dim))
    nxi, npsi = np.linalg.norm(xi, axis=1), np.linalg.norm(psi, axis=1)
    diff = xi - psi
    ndiff = np.linalg.norm(diff, axis=1)
    lhs = np.einsum(
        "ij,ij->i", nxi[:, None] ** (r - 2.0) * xi - npsi[:, None] ** (r - 2.0) * psi, diff
    )
    scale = (nxi + npsi) ** r + 1.0
    c_hat = float(np.min(lhs / ndiff**r))
    failures = int(np.sum(lhs < -1e-12 * scale)) + (c_hat <= 0.0)
    return CheckReport(
        f"strong_monotonicity_r{r:g}", n_samples, failures, float(np.min(lhs / scale)),
        constants={"C_hat": c_hat, "r": float(r), "skipped_degenerate": 0},
    )


def test_vectorized_checks_hold_bounded_temporaries():
    # full-width evaluation peaks at 20.1 MiB (aux) and 18.4 MiB (r = 3);
    # block-wise evaluation of whole draws at 5.55 MiB (r = 3); block-wise
    # draws at 1.10 MiB
    tracemalloc.start()
    try:
        aux = check_auxiliary_inequality(10_000, seed=1)
        aux_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        mono = check_strong_monotonicity(3.0, 100_000, dim=3, seed=3)
        mono_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert aux_peak <= 5 * 2**20 and mono_peak <= 1.5 * 2**20
    assert aux == _unblocked_auxiliary(10_000, 1)
    assert mono == _unblocked_monotonicity(3.0, 100_000, 3, 3)


@pytest.mark.parametrize("n_samples, block_rows", [(1, 64), (257, 64), (1000, 3)])
def test_auxiliary_report_does_not_depend_on_blocks(n_samples, block_rows, monkeypatch):
    # blocks of block_rows samples of 64 t-points each; every case ends on a
    # partial block
    monkeypatch.setattr(doublephase.verification, "_BLOCK_ELEMENTS", block_rows * 64)
    got = check_auxiliary_inequality(n_samples, seed=5)
    assert got == _unblocked_auxiliary(n_samples, 5)


@pytest.mark.parametrize(
    "r, n_samples, dim, block_elements",
    [(2.0, 1, 3, None), (3.0, 50, 2, None), (4.5, 30_000, 5, None), (3.0, 23, 3, 1), (2.5, 1000, 2, 14)],
    ids=["2.0-1-3", "3.0-50-2", "4.5-30000-5", "3.0-23-3-rows1", "2.5-1000-2-rows7"],
)
def test_monotonicity_report_does_not_depend_on_blocks(r, n_samples, dim, block_elements, monkeypatch):
    # xi and psi come from two streams drawn block by block; blocks of one
    # row (fewer elements than dim), and of 7 rows ending on a partial block
    # of 6, keep them aligned with the whole draws
    if block_elements is not None:
        monkeypatch.setattr(doublephase.verification, "_BLOCK_ELEMENTS", block_elements)
    got = check_strong_monotonicity(r, n_samples, dim=dim, seed=3)
    assert got == _unblocked_monotonicity(r, n_samples, dim, 3)


class _Normals:
    """A generator stand-in whose normals are the values of a fixed list, in order."""

    def __init__(self, values):
        self.values, self.at = np.asarray(values, dtype=float), 0

    def normal(self, size):
        n = int(np.prod(size))
        self.at += n
        return self.values[self.at - n : self.at].reshape(size)


@pytest.mark.parametrize("block_elements", [None, 3])
def test_monotonicity_skips_a_sample_with_xi_equal_to_psi(block_elements, monkeypatch):
    # xi rows (1, 0, 0) and (0, 1, 0), psi rows (1, 0, 0) and (0, 2, 0): the
    # first sample is skipped; the second has lhs = 3 and |xi - psi|^3 = 1,
    # so C = 3, and margin 3 / ((1 + 2)^3 + 1); with one row per block the
    # first block judges no sample
    if block_elements is not None:
        monkeypatch.setattr(doublephase.verification, "_BLOCK_ELEMENTS", block_elements)
    streams = iter([_Normals([1, 0, 0, 0, 1, 0]), _Normals([1, 0, 0, 0, 2, 0])])
    monkeypatch.setattr(np.random, "default_rng", lambda seed: next(streams))
    rep = check_strong_monotonicity(3.0, 2, dim=3)
    assert (rep.samples, rep.failures, rep.worst_margin) == (1, 0, 3.0 / 28.0)
    assert rep.constants == {"C_hat": 3.0, "r": 3.0, "skipped_degenerate": 1}


def test_mp_geometry_reports_positive_barrier(s8):
    rep = check_mp_geometry(1.0, s8, seed=0)
    assert rep.passed
    assert rep.constants["eta"] > 0.0
    assert rep.constants["alpha"] > 0.0
    assert rep.constants["beta"] == 1.0 / s8.pmax.hi
    assert rep.constants["barrier_positive_radius"] > 0.0
    assert rep.constants["C1"] > 0.0 and rep.constants["C2"] > 0.0


def test_mp_geometry_barrier_radius_is_the_profile_root(s8):
    # the radius is the root of g(t) = beta - gamma t^a - delta t^b, not the
    # end of a fixed t-grid: g vanishes there and is positive at half of it
    c = check_mp_geometry(1.0, s8, seed=0).constants
    a, b = s8.q.hi - s8.pmax.hi, s8.q.lo - s8.pmax.hi

    def g(t):
        return c["beta"] - c["gamma"] * t**a - c["delta"] * t**b

    r = c["barrier_positive_radius"]
    assert r > 1.0
    assert abs(g(r)) <= 1e-12 * c["beta"]
    assert g(r / 2) > 0.0


def test_mp_geometry_no_positive_sphere(s8, monkeypatch):
    monkeypatch.setattr(doublephase.verification, "_ETA_GRID", np.array([1e4, 1e5]))
    with pytest.raises(SphereGeometryError):
        check_mp_geometry(1.0, s8, seed=0)


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
    rep = check_ray_boundedness(1.0, s8, seed=0)
    assert rep.passed
    assert 1.0 <= rep.constants["inf_T"] <= rep.constants["sup_T"] < np.inf
    assert 0.0 < rep.worst_margin <= 1.0


def test_ray_boundedness_margin_from_the_polynomials(s8, monkeypatch):
    # the margin of each ray, recomputed from its polynomial by a plain scan:
    # -E / sum |c_k| t^p_k at the first doubling from which E stays negative
    polys = []

    class Recorded(RayEnergy):
        def __init__(self, *args):
            super().__init__(*args)
            polys.append(self.poly)

    monkeypatch.setattr(doublephase.verification, "RayEnergy", Recorded)
    rep = check_ray_boundedness(1.0, s8, n_rays=12, seed=3)
    assert len(polys) == 12
    margins = []
    for expos, coeffs in polys:
        ts = [2.0**j for j in range(41)]
        energy = [float(np.sum(coeffs * t**expos)) for t in ts]
        j = max([i + 1 for i, e in enumerate(energy) if e >= 0.0], default=0)
        assert j < len(ts)  # every ray crosses
        margins.append(-energy[j] / float(np.sum(np.abs(coeffs) * ts[j] ** expos)))
    assert 0.0 < min(margins) < 1.0
    assert abs(rep.worst_margin - min(margins)) <= 1e-12 * min(margins)


def test_ray_boundedness_counts_rays_that_stay_nonnegative():
    # q = 1.5 below both gradient exponents: the energy along every ray
    # stays positive, so every ray fails, and the check reports it rather
    # than refusing to run
    s = build_exponent_set("2", "2.5", "1.5", DomainGrid(3, (8, 8, 8)))
    rep = check_ray_boundedness(1.0, s, n_rays=6, seed=0)
    assert (rep.samples, rep.failures) == (6, 6)
    assert not rep.passed
    assert -1.0 <= rep.worst_margin <= 0.0
    assert rep.constants["inf_T"] == rep.constants["sup_T"] == np.inf


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


def _coercivity_by_cells(lam, s, n_samples, seed):
    # the check on the cells of each sample u = t*w: its gradient norm, then
    # both bulk modulars and the energy of u, four passes per sample
    rng = np.random.default_rng(seed)
    mlo, mhi = s.pmax.lo, s.pmax.hi
    qlo, qhi = s.q.lo, s.q.hi
    base = lam * qhi / mlo
    c_const = (lam / mlo) * (base ** (mhi / (qlo - mhi)) + base ** (mlo / (qhi - mlo)))
    d_const = c_const * s.grid.volume
    failures, worst = 0, np.inf
    for _ in range(n_samples):
        w = _random_direction(s.grid, rng)
        target = 10.0 ** rng.uniform(np.log10(1.01), np.log10(50.0))
        u = (target / sobolev_norm(w, s.pmax)) * w
        lhs = (lam / mlo) * modular(u, s.pmax) - (1.0 / qhi) * modular(u, s.q)
        m1 = (d_const - lhs) / max(1.0, abs(lhs), d_const)
        total = eval_energy(u, lam, s, "coercive").total
        floor = (1.0 / mhi) * target**mlo - d_const
        m2 = (total - floor) / max(1.0, abs(total), abs(floor))
        worst = min(worst, m1, m2)
        failures += m1 < -1e-12 or m2 < -1e-12
    return failures, worst


@pytest.mark.parametrize("p2", ["2 + 0.5*sin(pi*x1)", "2 + 0.5*x1*x2*x3"])
def test_coercivity_matches_the_cell_passes(p2):
    s = build_exponent_set("2", p2, "4", DomainGrid(3, (8, 8, 8)))
    assert validate_hypotheses(s, "coercive").passed
    rep = check_coercivity(1.3, s, n_samples=100, seed=3)
    failures, worst = _coercivity_by_cells(1.3, s, 100, 3)
    assert rep.failures == failures
    assert abs(rep.worst_margin - worst) <= 1e-12 * abs(worst)


def test_coercivity_takes_one_gradient_pass_per_sample(s8, monkeypatch):
    # every gradient, the compact one of grid.gradient_values included, is
    # taken by grid.transfer
    calls = []
    transfer = doublephase.grid.transfer

    def counted(*args, **kwargs):
        calls.append(1)
        return transfer(*args, **kwargs)

    for module in (doublephase.grid, doublephase.energy):
        monkeypatch.setattr(module, "transfer", counted)
    check_coercivity(1.0, s8, n_samples=7, seed=0)
    assert len(calls) == 7


def test_mp_geometry_takes_one_pass_per_direction(s8, monkeypatch):
    # the norm field, the polynomial and the corner average of a direction
    # all come from its RayEnergy pass
    calls = []
    transfer = doublephase.grid.transfer

    def counted(*args, **kwargs):
        calls.append(1)
        return transfer(*args, **kwargs)

    for module in (doublephase.grid, doublephase.energy):
        monkeypatch.setattr(module, "transfer", counted)
    check_mp_geometry(1.0, s8, n_directions=5, seed=2)
    assert len(calls) == 5


@pytest.mark.parametrize(
    "grid",
    [DomainGrid(3, (16, 16, 16)), DomainGrid(3, (9, 12, 7), (1.3, 0.7, 2.0)), DomainGrid(2, (33, 20))],
    ids=["16", "9x12x7", "2d-33x20"],
)
def test_ray_corner_average_is_node_to_cell_bitwise(grid):
    s = build_exponent_set("2", "2 + 0.5*sin(pi*x1)", "4", grid)
    d = _random_direction(grid, np.random.default_rng(4))
    avg = RayEnergy(d, 1.0, s, "mountain").corner_average
    want = node_to_cell(d)
    assert avg.shape == want.shape and avg.flags.c_contiguous
    assert avg.tobytes() == want.tobytes()


def test_mp_geometry_alpha_is_the_sphere_minimum(s8):
    rep = check_mp_geometry(1.0, s8, n_directions=5, seed=2)
    eta = rep.constants["eta"]
    rng = np.random.default_rng(2)
    dirs = [_random_direction(s8.grid, rng) for _ in range(5)]
    alpha = min(
        eval_energy((eta / sobolev_norm(d, s8.pmax)) * d, 1.0, s8, "mountain").total
        for d in dirs
    )
    assert abs(rep.constants["alpha"] - alpha) <= 1e-12 * abs(alpha)
    assert rep.worst_margin == rep.constants["alpha"]


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
    # the worst margins as measured when spaces decided the bounds and this
    # module read its reports back
    pinned = [
        (check_holder_random(s8, 100, seed=5), 0.7192026214539288),
        (check_sandwich_random(s8, 100, seed=6), 0.02664513108521332),
        (check_inclusion_random(s8, 100, seed=7), 0.5191341516447721),
    ]
    for rep, worst in pinned:
        assert rep.passed and rep.samples == 100
        assert rep.worst_margin == pytest.approx(worst, rel=1e-12)


def test_randomized_space_checks_on_a_variable_p1():
    # the default p1 = 2 is constant; here both the pairing and the
    # embedding bound meet a p1 that varies (and stays below pmax = 2.5)
    s = build_exponent_set("2 + 0.5*x1", "2.5", "4", DomainGrid(3, (8, 8, 8)))
    assert not s.p1.is_constant()
    holder = check_holder_random(s, 100, seed=5)
    inclusion = check_inclusion_random(s, 100, seed=7)
    assert holder.failures == 0 and inclusion.failures == 0
    assert holder.worst_margin == pytest.approx(0.7488757228634917, rel=1e-12)
    assert inclusion.worst_margin == pytest.approx(0.5111608817220213, rel=1e-12)


def test_run_all_checks_fast(s8):
    reports = run_all_checks(s8, lam=1.0, seed=0)
    assert all(r.passed for r in reports)
    names = [r.name for r in reports]
    assert len(names) == len(set(names))


def test_run_all_checks_reports_the_checks_that_did_not_run():
    # the supercritical q = 7 fails both forms' hypotheses, so the two
    # checks that assume them refuse and the rest of the battery still runs
    bad = build_exponent_set("2", "2 + 0.5*sin(pi*x1)", "7", DomainGrid(3, (8, 8, 8)))
    reports = run_all_checks(bad, lam=1.0, seed=0)
    assert len(reports) == 10
    refused = [r for r in reports if r.notes.startswith("did not run")]
    assert [r.name for r in refused] == ["mountain_geometry", "coercivity_floor"]
    assert all(not r.passed and r.samples == 0 for r in refused)
    assert all(r.passed for r in reports if r not in refused)


def test_coercivity_constant_that_overflows_does_not_run(s8):
    # C = (lam/mlo) ((lam qhi/mlo)^(mhi/(qlo-mhi)) + ...) overflows at 1e300;
    # the battery reports the check as not run and goes on
    with pytest.raises(NonFiniteError, match="the constant C overflows"):
        check_coercivity(1e300, s8, n_samples=1)


def test_ray_energy_that_overflows_does_not_run(s8):
    # at lambda = 1e300 the lambda t^pmax terms overflow within the 2^40
    # scan, so no ray's energy can be judged; an overflow is a check that
    # did not run, not 50 rays that never cross
    with pytest.raises(NonFiniteError, match="the ray energy overflows"):
        check_ray_boundedness(1e300, s8, n_rays=1)


@pytest.mark.parametrize(
    "specs, refused, why",
    [
        (("2.99", "2.99", "800"), "mountain_geometry", "the barrier constant gamma = 0.0"),
        (("2", "300", "400"), "norm_modular_sandwich", "the modular inf"),
    ],
    ids=["q800", "p2-300"],
)
def test_a_power_that_overflows_does_not_end_the_battery(specs, refused, why):
    # C1^q.hi of the barrier profile at q = 800, and the sandwich's bounds
    # nu^p2 at p2 = 300, are not doubles; each is a check that did not run,
    # and the battery still returns all ten reports
    s = build_exponent_set(*specs, DomainGrid(3, (8, 8, 8)))
    reports = run_all_checks(s, lam=1.0, seed=0)
    assert len(reports) == 10
    report = next(r for r in reports if r.name == refused)
    assert report.notes.startswith(f"did not run: {why}")
    assert not report.passed and report.samples == 0


def test_reports_serialize(s8):
    rep = check_pointwise_inequalities(100, seed=0)
    d = jsonable(rep)
    assert d["passed"] is True and d["name"] == "pointwise_inequalities"
    assert set(d) == {"name", "samples", "failures", "worst_margin", "constants", "notes", "passed"}
    refused = jsonable(CheckReport("ray_boundedness", 0, 1, float("-inf"), notes="did not run"))
    assert refused["worst_margin"] == "-inf" and refused["passed"] is False
