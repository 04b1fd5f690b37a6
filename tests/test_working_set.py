"""Working sets of the solve path at 32^3 nodes: tracemalloc peaks above
entry, in units of one node array N (256 KiB), and what an exponent set keeps.

The budgets are the figures this code reaches plus about half an N of
slack (numpy's reduction buffer alone is a quarter of one).  When a pass
held every row's weight and squared base to its end, RayEnergy.at copied
each row twice and pmax was a second copy of p2, the kernel read 14N,
RayEnergy.at 10N and a saddle trial 19N, and the default exponent set with
its caches kept 7.7N, peaking at 10.3N.  With one pmax but a full cell array
for each exponent, the constants p1 = 2 and q = 4 too, the set kept 4.76N,
peaking at 7.42N; with each field at its spec's shape but a grid-sized
grouping index, 2.03N, peaking at 4.69N, and the conjugates of p1 and p2,
divided out on the full cells, kept 1.82N.

The verify battery is measured at 16^3 nodes, in MiB: it peaks at 1.28 MiB
above entry; when the monotonicity check drew its samples whole, 5.55 MiB.
"""
import tracemalloc

import pytest

from doublephase import solvers
from doublephase.energy import RayEnergy, energy_and_gradient
from doublephase.exponents import build_exponent_set, conjugate_exponent
from doublephase.grid import DomainGrid
from doublephase.solvers import SubBox, bump_function
from doublephase.verification import run_all_checks

from conftest import DEFAULT_P1, DEFAULT_P2, DEFAULT_Q

GRID = DomainGrid(3, (32, 32, 32))
N = GRID.node_count * 8


@pytest.fixture(scope="module")
def traced():
    tracemalloc.start()
    yield
    tracemalloc.stop()


def _measure(fn):
    """fn(), its peak above entry and what it leaves allocated, in N."""
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    out = fn()
    current, peak = tracemalloc.get_traced_memory()
    return out, (peak - base) / N, (current - base) / N


def _cached(s):
    for p in (s.p1, s.p2, s.pmax, s.q):
        if not p.is_constant():
            p.groups, p.flat_half_excess
    return s


@pytest.fixture(scope="module")
def problem(traced):
    s = _cached(build_exponent_set(DEFAULT_P1, DEFAULT_P2, DEFAULT_Q, GRID))
    z = bump_function(GRID, 2.0, SubBox.centered((0.5,) * 3, 0.5)).fn
    solvers._ray_peak(z, 1.0, s)  # warm the per-grid plans
    return s, z


def test_exponent_set_with_caches(traced):
    build = lambda: _cached(build_exponent_set(DEFAULT_P1, DEFAULT_P2, DEFAULT_Q, GRID))
    build()  # first-call imports and plans
    s, peak, kept = _measure(build)
    assert kept <= 1.5 and peak <= 3.5, (kept, peak)
    assert s.pmax is s.p2  # p2 >= p1 = 2 everywhere: one field, one set of caches


def test_conjugates_and_groups_keep_the_spec_shape(traced):
    s = build_exponent_set(DEFAULT_P1, DEFAULT_P2, DEFAULT_Q, GRID)
    duals, _, kept = _measure(lambda: [conjugate_exponent(p) for p in (s.p1, s.p2)])
    assert kept <= 0.1, kept
    assert [p.compact.shape for p in duals] == [(1, 1, 1), (GRID.cell_shape[0], 1, 1)]
    for p in (s.p1, s.p2, s.q, *duals):
        assert p.groups[1].shape == p.compact.shape


@pytest.mark.parametrize("form", ["coercive", "mountain"])
def test_energy_and_gradient(problem, form):
    s, z = problem
    _, peak, _ = _measure(lambda: energy_and_gradient(z, 1.3, s, form))
    assert peak <= 10.0, peak


def test_ray_energy_keeps_and_at(problem):
    s, z = problem
    ray, _, kept = _measure(lambda: RayEnergy(z, 1.0, s, "mountain"))
    assert kept <= 7.5, kept
    _, peak, _ = _measure(lambda: ray.at(0.8))
    assert peak <= 5.5, peak


def test_saddle_trial(problem):
    s, z = problem
    _, peak, _ = _measure(lambda: solvers._ray_peak(z, 1.0, s))
    assert peak <= 12.5, peak


def test_verify_battery(traced):
    s = build_exponent_set(DEFAULT_P1, DEFAULT_P2, DEFAULT_Q, DomainGrid(3, (16, 16, 16)))
    run_all_checks(s)  # first-call imports, plans and caches
    _, peak, _ = _measure(lambda: run_all_checks(s))
    mib = peak * N / 2**20
    assert mib <= 2.0, mib
