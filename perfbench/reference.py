"""Independent checks of the CLI outputs, written from the definitions.

Nothing here imports doublephase.  The discrete energy is rebuilt with plain
numpy as the paper's discretization states it:

* node values on a uniform (N, ..., N) grid of the unit box, zero boundary;
* per cell, the average of its 2^d corner values (two-point averages along
  every axis in turn);
* per cell and axis, the forward difference along that axis averaged over
  the cell's 2^(d-1) parallel edges;
* exponents evaluated at cell centres from the config's formulas;
* the box rule: cell volume times the sum over cells.

Each ``check_*`` function returns a list of problems (empty when the output
is right) so the caller can count operations and report what went wrong.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# relative agreement required between a reported energy and the reference
# energy of the re-read field; the two differ only in summation order
ENERGY_RTOL = 1e-10
# 4th-order central-difference step along a unit-L2 test direction; the
# README derives it from the truncation/roundoff balance
FD_STEP = 1e-3
TEST_DIRECTIONS = 3
# two fields are distinct when their gradient L2 distance exceeds this share
# of the largest gradient L2 norm among them
DISTINCT_SHARE = 1e-2


def _lo(a: np.ndarray, axis: int) -> np.ndarray:
    return np.take(a, np.arange(a.shape[axis] - 1), axis=axis)


def _hi(a: np.ndarray, axis: int) -> np.ndarray:
    return np.take(a, np.arange(1, a.shape[axis]), axis=axis)


def cell_average(u: np.ndarray) -> np.ndarray:
    for a in range(u.ndim):
        u = 0.5 * (_lo(u, a) + _hi(u, a))
    return u


def cell_gradient(u: np.ndarray, h: float) -> list[np.ndarray]:
    comps = []
    for a in range(u.ndim):
        g = np.diff(u, axis=a) / h
        for b in range(u.ndim):
            if b != a:
                g = 0.5 * (_lo(g, b) + _hi(g, b))
        comps.append(g)
    return comps


@dataclass
class Problem:
    """The discrete double-phase energy on the unit box with N nodes per axis."""

    dim: int
    res: int
    p1: Callable
    p2: Callable
    q: Callable

    def __post_init__(self):
        self.h = 1.0 / (self.res - 1)
        self.vol = self.h**self.dim
        nodes = np.linspace(0.0, 1.0, self.res)
        centres = 0.5 * (nodes[:-1] + nodes[1:])
        self.nodes = nodes
        self.node_mesh = np.meshgrid(*[nodes] * self.dim, indexing="ij")
        cmesh = np.meshgrid(*[centres] * self.dim, indexing="ij")
        shape = cmesh[0].shape
        self.e1 = np.broadcast_to(np.asarray(self.p1(*cmesh), dtype=float), shape)
        self.e2 = np.broadcast_to(np.asarray(self.p2(*cmesh), dtype=float), shape)
        self.em = np.maximum(self.e1, self.e2)
        self.eq = np.broadcast_to(np.asarray(self.q(*cmesh), dtype=float), shape)
        boundary = np.zeros((self.res,) * self.dim, dtype=bool)
        for a in range(self.dim):
            idx = [slice(None)] * self.dim
            idx[a] = [0, -1]
            boundary[tuple(idx)] = True
        self.boundary = boundary

    def terms(self, u: np.ndarray) -> tuple[float, float, float, float]:
        """grad-p1, grad-p2, bulk-pmax and bulk-q terms, each >= 0."""
        gm = np.sqrt(sum(g * g for g in cell_gradient(u, self.h)))
        am = np.abs(cell_average(u))
        return tuple(
            self.vol * float(np.sum(base**e / e))
            for base, e in ((gm, self.e1), (gm, self.e2), (am, self.em), (am, self.eq))
        )

    def energy(self, u: np.ndarray, lam: float, form: str) -> float:
        tg1, tg2, tm, tq = self.terms(u)
        if form == "mountain":
            return tg1 + tg2 + lam * tm - tq
        return tg1 + tg2 - lam * tm + tq

    def l2(self, u: np.ndarray) -> float:
        return float(np.sqrt(self.vol * np.sum(u * u)))

    def grad_l2(self, u: np.ndarray) -> float:
        return float(np.sqrt(self.vol * sum(np.sum(g * g) for g in cell_gradient(u, self.h))))

    def test_directions(self, rng: np.random.Generator) -> list[np.ndarray]:
        """Smooth zero-boundary fields of unit L2 norm: random combinations of
        the 3^dim lowest sine modes, damped by 1/|k|^2."""
        dirs = []
        for _ in range(TEST_DIRECTIONS):
            v = np.zeros((self.res,) * self.dim)
            for k in np.ndindex(*(3,) * self.dim):
                k = np.asarray(k) + 1
                mode = np.prod([np.sin(np.pi * ka * x) for ka, x in zip(k, self.node_mesh)], axis=0)
                v += rng.standard_normal() / float(k @ k) * mode
            v[self.boundary] = 0.0
            dirs.append(v / self.l2(v))
        return dirs

    def read_field(self, path: Path) -> np.ndarray:
        """A field CSV (x1..xN,value rows in index order), coordinates checked."""
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if data.shape != (self.res**self.dim, self.dim + 1):
            raise ValueError(f"{path.name}: shape {data.shape}")
        for a, x in enumerate(self.node_mesh):
            if not np.array_equal(data[:, a], x.reshape(-1)):
                raise ValueError(f"{path.name}: column x{a + 1} is not the node lattice")
        return data[:, -1].reshape((self.res,) * self.dim)


def _close(a: float, b: float, scale: float, rtol: float = ENERGY_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(scale), 1.0)


def _energy_problems(prob: Problem, u: np.ndarray, report: dict, label: str) -> list[str]:
    terms = prob.terms(u)
    names = ("term_grad_p1", "term_grad_p2", "term_pmax", "term_q")
    lam, form = report["lambda"], report["form"]
    scale = terms[0] + terms[1] + lam * terms[2] + terms[3]
    out = [
        f"{label}: {n} {report[n]!r} != reference {t!r}"
        for n, t in zip(names, terms)
        if not _close(report[n], t, t)
    ]
    ref = prob.energy(u, lam, form)
    if not _close(report["total"], ref, scale):
        out.append(f"{label}: energy {report['total']!r} != reference {ref!r}")
    return out


def _stationarity_problems(
    prob: Problem, u: np.ndarray, lam: float, form: str, tol: float, dirs, label: str
) -> list[str]:
    out = []
    for i, v in enumerate(dirs):
        e = [prob.energy(u + c * FD_STEP * v, lam, form) for c in (-2, -1, 1, 2)]
        slope = (e[0] - 8.0 * e[1] + 8.0 * e[2] - e[3]) / (12.0 * FD_STEP)
        if not abs(slope) <= tol:
            out.append(f"{label}: slope {slope:.3e} along test direction {i} exceeds tol {tol}")
    return out


def manifest_problems(out_dir: Path) -> list[str]:
    listed = json.loads((out_dir / "manifest.json").read_text())["outputs"]
    present = {p.name for p in out_dir.iterdir() if p.is_file() and p.name != "manifest.json"}
    out = [] if set(listed) == present else [f"manifest lists {sorted(listed)}, dir holds {sorted(present)}"]
    for name, digest in listed.items():
        if hashlib.sha256((out_dir / name).read_bytes()).hexdigest() != digest:
            out.append(f"manifest checksum of {name} does not match")
    return out


def _json(path: Path) -> dict:
    return json.loads(path.read_text())


def bump(prob: Problem, t0: float, centre, side: float) -> np.ndarray:
    """Plateau t0 on the centred box, smoothstep ramp of the distance to it
    over the box's gap to the boundary, zero on the boundary."""
    lo = np.asarray(centre) - side / 2
    hi = np.asarray(centre) + side / 2
    gap = float(min(lo.min(), (1.0 - hi).min()))
    d2 = sum(np.maximum(np.maximum(a - x, x - b), 0.0) ** 2 for x, a, b in zip(prob.node_mesh, lo, hi))
    r = 1.0 - np.clip(np.sqrt(d2) / gap, 0.0, 1.0)
    vals = t0 * (3.0 * r * r - 2.0 * r * r * r)
    vals[prob.boundary] = 0.0
    return vals


def lambda_star_reference(prob: Problem, spec) -> tuple[float, float, float]:
    """(exact threshold L/T, first grid value above it, analytic bound)."""
    b = bump(prob, spec.t0, spec.bump_centre, spec.bump_side)
    tg1, tg2, tm, tq = prob.terms(b)
    big_l = tg1 + tg2 + tq
    exact = big_l / tm
    grid = np.geomspace(*spec.lambda_grid)
    first = float(grid[grid > exact][0])
    bound = big_l * spec.pmax_hi / (spec.t0**spec.pmax_lo * spec.bump_side**prob.dim)
    return exact, first, bound


def check_lambda_star(prob: Problem, spec, out_dir: Path) -> list[str]:
    rep = _json(out_dir / "lambda_star.json")
    exact, first, bound = lambda_star_reference(prob, spec)
    out = []
    if not np.array_equal(prob.read_field(out_dir / "bump.csv"), bump(prob, spec.t0, spec.bump_centre, spec.bump_side)):
        out.append("bump.csv differs from the reference bump")
    if not _close(rep["lambda_star_exact"], exact, exact):
        out.append(f"lambda_star_exact {rep['lambda_star_exact']!r} != L/T {exact!r}")
    if rep["lambda_star"] != first:
        out.append(f"lambda_star {rep['lambda_star']!r} is not the first grid value above L/T ({first!r})")
    if not rep["lambda_star"] <= rep["analytic_bound"] or not _close(rep["analytic_bound"], bound, bound):
        out.append(f"analytic_bound {rep['analytic_bound']!r} (reference {bound!r}) does not cap lambda_star")
    return out + manifest_problems(out_dir)


def check_solve_min(prob: Problem, spec, out_dir: Path, rng) -> list[str]:
    rep = _json(out_dir / "solve_min.json")
    u = prob.read_field(out_dir / "solution.csv")
    _, first, _ = lambda_star_reference(prob, spec)
    out = _energy_problems(prob, u, rep["energy"], "solution.csv")
    if rep["lambda"] != 2.0 * first:
        out.append(f"lambda {rep['lambda']!r} != 2 * lambda_star {2.0 * first!r}")
    if rep["termination"] != "converged" or not rep["residual"] <= spec.tol:
        out.append(f"solve-min exit 0 with {rep['termination']}, residual {rep['residual']!r}")
    out += _stationarity_problems(
        prob, u, rep["lambda"], "coercive", spec.tol, prob.test_directions(rng), "solution.csv"
    )
    return out + manifest_problems(out_dir)


def check_solve_mp(prob: Problem, spec, out_dir: Path, rng, min_saddles: int) -> list[str]:
    rep = _json(out_dir / "solve_mp.json")
    lam = rep["lambda"]
    dirs = prob.test_directions(rng)
    fields = []
    out = []
    for sol in rep["solutions"]:
        label = f"solution_{sol['index']:02d}.csv"
        u = prob.read_field(out_dir / label)
        fields.append(u)
        out += _energy_problems(prob, u, sol["energy"], label)
        e = prob.energy(u, lam, "mountain")
        if not e > 0.0:
            out.append(f"{label}: saddle energy {e!r} is not positive")
        if not (prob.energy(0.99 * u, lam, "mountain") < e > prob.energy(1.01 * u, lam, "mountain")):
            out.append(f"{label}: not a peak of its ray")
        if prob.energy(-u, lam, "mountain") != e:
            out.append(f"{label}: E(-u) != E(u)")
        if sol["termination"] != "converged" or not sol["residual"] <= spec.tol:
            out.append(f"{label}: {sol['termination']}, residual {sol['residual']!r}")
        out += _stationarity_problems(prob, u, lam, "mountain", spec.tol, dirs, label)
    if len(fields) < min_saddles:
        out.append(f"{len(fields)} saddles, want at least {min_saddles}")
    if fields:
        delta = DISTINCT_SHARE * max(prob.grad_l2(u) for u in fields)
        for i in range(len(fields)):
            for j in range(i):
                if not prob.grad_l2(fields[i] - fields[j]) > delta:
                    out.append(f"solutions {j} and {i} are not distinct")
    return out + manifest_problems(out_dir)


# sample counts the verification battery specifies for each check at full size
BATTERY_SAMPLES = {
    "pointwise_inequalities": 2 * 10_000,
    "auxiliary_inequality": 10_000,
    "strong_monotonicity_r2": 10_000,
    "strong_monotonicity_r3": 100_000,
    "holder_pairing": 200,
    "norm_modular_sandwich": 200,
    "inclusion_bound": 200,
    "mountain_geometry": 13 * 8,
    "ray_boundedness": 50,
    "coercivity_floor": 500,
}


def coercivity_constants(lam: float, spec) -> tuple[float, float]:
    """C and D of the coercivity floor from the exponent ranges; |domain| = 1."""
    mlo, mhi, qlo, qhi = spec.pmax_lo, spec.pmax_hi, spec.q_lo, spec.q_hi
    base = lam * qhi / mlo
    c = (lam / mlo) * (base ** (mhi / (qlo - mhi)) + base ** (mlo / (qhi - mlo)))
    return c, c * 1.0  # D = C |domain|, and the domain is the unit box


def check_verify_report(name: str, rep: dict, lam: float, spec) -> list[str]:
    """Problems with one check report of the verification battery."""
    out = []
    if rep["name"] != name:
        out.append(f"check_{name}.json names {rep['name']!r}")
    skipped = rep["constants"].get("skipped_degenerate", 0)
    if rep["samples"] + skipped != BATTERY_SAMPLES[name]:
        out.append(f"{name}: {rep['samples']} samples (+{skipped} skipped), battery specifies {BATTERY_SAMPLES[name]}")
    if rep["failures"] != 0 or not rep["passed"]:
        out.append(f"{name}: {rep['failures']} failures")
    if name == "strong_monotonicity_r2" and not _close(rep["constants"]["C_hat"], 1.0, 1.0, 1e-12):
        out.append(f"C_hat(r=2) {rep['constants']['C_hat']!r} != 1")
    if name == "coercivity_floor":
        c, d = coercivity_constants(lam, spec)
        if not (_close(rep["constants"]["C"], c, c, 1e-12) and _close(rep["constants"]["D"], d, d, 1e-12)):
            out.append(f"coercivity C, D {rep['constants']} != ({c!r}, {d!r})")
    return out
