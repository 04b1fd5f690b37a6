"""Spans around the public functions of doublephase, installed from outside.

A wrapper replaces a function in every doublephase module namespace that
holds it, because modules import each other's functions by name (``energy``
and ``solvers`` import the grid kernels, ``cli`` imports the solvers) and the
verification battery reaches its checks through module globals; a wrapper
only on the defining module would miss those calls.

Spans (name, start, end, parent) are kept in memory and written out once,
at the end of the run.  A span's self time is its duration minus the
durations of its direct children; calls are nested and single-threaded, so
children never overlap.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

GRID_KERNELS = ("gradient_values", "discrete_gradient_adjoint", "node_to_cell_values", "node_to_cell_adjoint")
ENERGY_FNS = ("eval_energy", "grad_energy", "eval_energy_many")
SOLVER_FNS = ("lambda_star_search", "find_endpoint", "dedupe_with_negatives", "minimize_energy", "mountain_pass")
CHECKS = (
    "pointwise_inequalities", "auxiliary_inequality", "strong_monotonicity_r2",
    "strong_monotonicity_r3", "holder_pairing", "norm_modular_sandwich",
    "inclusion_bound", "mountain_geometry", "ray_boundedness", "coercivity_floor",
)
CHECK_FNS = (
    "check_pointwise_inequalities", "check_auxiliary_inequality", "check_strong_monotonicity",
    "check_holder_random", "check_sandwich_random", "check_inclusion_random",
    "check_mp_geometry", "check_ray_boundedness", "check_coercivity",
)
WRITERS = ("write_field_csv", "write_history_csv", "write_path_profile_csv", "write_matrix_csv", "write_json")
STAGES = ("verify", "lambda_star", "solve_min", "solve_mp")
SETUP = (("config", "load_config"), ("exponents", "build_exponent_set"), ("exponents", "validate_hypotheses"))

# every per-layer metric, with its unit, in the order BENCHMARK.json lists them
PER_LAYER = (
    [(f"grid.{f}.{k}", u) for f in GRID_KERNELS for k, u in (("calls", "count"), ("self_s", "s"))]
    + [("grid.computed_bytes", "bytes")]
    + [(f"energy.{f}.{k}", u) for f in ENERGY_FNS for k, u in (("calls", "count"), ("self_s", "s"))]
    + [
        ("spaces.luxemburg_norm_cells.calls", "count"),
        ("spaces.luxemburg_norm_cells.self_s", "s"),
        ("spaces.norm_iters_per_solve", "count"),
        ("spaces.sobolev_norm.calls", "count"),
    ]
    + [(f"solvers.{f}.s", "s") for f in SOLVER_FNS[:3]]
    + [
        (f"solvers.{f}.{k}", u)
        for f in SOLVER_FNS[3:]
        for k, u in (("s", "s"), ("iters", "count"), ("accept_ratio", "ratio"))
    ]
    + [
        ("solvers.ray_peak.calls", "count"),
        ("solvers.ray_peak.self_s", "s"),
        ("solvers.ray_peak.slope_evals_per_call", "count"),
        ("solvers.ray_peak.collapses", "count"),
    ]
    + [(f"verification.{c}.s", "s") for c in CHECKS]
    + [("outputs.write_s", "s"), ("outputs.bytes_written", "bytes")]
    + [(f"cli.{s}.s", "s") for s in STAGES]
    + [(f"{m}.{f}.s", "s") for m, f in SETUP]
    + [("trace.overhead_s", "s")]
)


class Tracer:
    """In-memory span recorder plus the counters that spans cannot carry."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def span(self, name: str, fn, on_return=None):
        """Wrap ``fn`` so each call records a span; ``on_return(sid, args,
        result)`` may rename the span or add to the counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
            self.stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                self.spans[sid][2] = time.perf_counter()
                self.stack.pop()
            if on_return is not None:
                on_return(sid, args, result)
            return result

        return wrapper

    def children(self, sid: int, name: str) -> int:
        return sum(1 for s in self.spans[sid + 1 :] if s[3] == sid and s[0] == name)

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        lines = ["id,parent,name,start_s,end_s"]
        lines += [f"{i},{p},{n},{a - t0:.9f},{b - t0:.9f}" for i, (n, a, b, p) in enumerate(self.spans)]
        path.write_text("\n".join(lines) + "\n")

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for n, a, b, p in self.spans:
            if p >= 0:
                child[p] += b - a
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (n, a, b, _), c in zip(self.spans, child):
            agg = out[n]
            agg[0] += 1
            agg[1] += b - a
            agg[2] += b - a - c
        return out


def _replace_everywhere(orig, wrapper):
    for modname, mod in list(sys.modules.items()):
        if modname == "doublephase" or modname.startswith("doublephase."):
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)


def install(tracer: Tracer):
    """Wrap the traced functions of every layer in every namespace."""
    import doublephase.config as config
    import doublephase.energy as energy
    import doublephase.exponents as exponents
    import doublephase.grid as grid
    import doublephase.outputs as outputs
    import doublephase.solvers as solvers
    import doublephase.spaces as spaces
    import doublephase.verification as verification

    counts = tracer.counts

    def wrap(module, fn_name, span_name, on_return=None):
        orig = getattr(module, fn_name)
        _replace_everywhere(orig, tracer.span(span_name, orig, on_return))

    def kernel_bytes(sid, args, result):
        counts["grid.computed_bytes"] += np.asarray(args[1]).nbytes + result.nbytes

    for f in GRID_KERNELS:
        wrap(grid, f, f"grid.{f}", kernel_bytes)
    for f in ENERGY_FNS:
        wrap(energy, f, f"energy.{f}")

    def norm_iters(sid, args, result):
        counts["spaces.norm_iters"] += result[1].iterations

    wrap(spaces, "luxemburg_norm_cells", "spaces.luxemburg_norm_cells", norm_iters)
    wrap(spaces, "sobolev_norm", "spaces.sobolev_norm")

    def minimize_done(sid, args, result):
        # Armijo steps strictly lower the recorded energy; residual-certified
        # polish steps repeat it.  Each Armijo trial costs one eval_energy,
        # each polish trial one grad_energy; outside the trials the solver
        # evaluates the energy twice and the gradient once plus once per
        # accepted Armijo step.
        energies = [e for e, _ in result.history]
        armijo = sum(1 for a, b in zip(energies, energies[1:]) if b < a)
        trials = tracer.children(sid, "energy.eval_energy") - 2
        trials += tracer.children(sid, "energy.grad_energy") - 1 - armijo
        counts["solvers.minimize_energy.iters"] += result.iterations
        counts["solvers.minimize_energy.trials"] += trials

    def mountain_done(sid, args, result):
        # every trial step is one ray-peak projection; the first call places
        # the starting point
        counts["solvers.mountain_pass.iters"] += result.iterations
        counts["solvers.mountain_pass.trials"] += tracer.children(sid, "solvers.ray_peak") - 1

    for f in SOLVER_FNS:
        done = {"minimize_energy": minimize_done, "mountain_pass": mountain_done}.get(f)
        wrap(solvers, f, f"solvers.{f}", done)

    wrap(solvers, "_ray_peak", "solvers.ray_peak")
    slope = solvers._RaySlope.__call__

    def slope_counted(self, t):
        counts["solvers.ray_peak.slope_evals"] += 1
        return slope(self, t)

    solvers._RaySlope.__call__ = slope_counted

    def name_check(sid, args, result):
        tracer.spans[sid][0] = f"verification.{result.name}"

    for f in CHECK_FNS:
        wrap(verification, f, f"verification.{f}", name_check)

    def written(sid, args, result):
        counts["outputs.bytes_written"] += Path(result).stat().st_size

    for f in WRITERS:
        wrap(outputs, f, f"outputs.{f}", written)
    wrap(outputs, "write_manifest", "outputs.write_manifest")
    for modname, f in SETUP:
        wrap({"config": config, "exponents": exponents}[modname], f, f"{modname}.{f}")


def per_layer(tracer: Tracer, rounds: int, overhead_s: float) -> dict[str, float]:
    """Per-round values of every per-layer metric (0 where a layer is idle)."""
    tot = tracer.totals()
    c = tracer.counts
    n = float(rounds)

    def calls(name):
        return tot[name][0] / n

    def incl(name):
        return tot[name][1] / n

    def self_s(name):
        return tot[name][2] / n

    def per(num, den):
        return num / den if den else 0.0

    m = {}
    for f in GRID_KERNELS:
        m[f"grid.{f}.calls"] = calls(f"grid.{f}")
        m[f"grid.{f}.self_s"] = self_s(f"grid.{f}")
    m["grid.computed_bytes"] = c["grid.computed_bytes"] / n
    for f in ENERGY_FNS:
        m[f"energy.{f}.calls"] = calls(f"energy.{f}")
        m[f"energy.{f}.self_s"] = self_s(f"energy.{f}")
    m["spaces.luxemburg_norm_cells.calls"] = calls("spaces.luxemburg_norm_cells")
    m["spaces.luxemburg_norm_cells.self_s"] = self_s("spaces.luxemburg_norm_cells")
    m["spaces.norm_iters_per_solve"] = per(c["spaces.norm_iters"], tot["spaces.luxemburg_norm_cells"][0])
    m["spaces.sobolev_norm.calls"] = calls("spaces.sobolev_norm")
    for f in SOLVER_FNS[:3]:
        m[f"solvers.{f}.s"] = incl(f"solvers.{f}")
    for f in SOLVER_FNS[3:]:
        m[f"solvers.{f}.s"] = incl(f"solvers.{f}")
        m[f"solvers.{f}.iters"] = c[f"solvers.{f}.iters"] / n
        m[f"solvers.{f}.accept_ratio"] = per(c[f"solvers.{f}.iters"], c[f"solvers.{f}.trials"])
    m["solvers.ray_peak.calls"] = calls("solvers.ray_peak")
    m["solvers.ray_peak.self_s"] = self_s("solvers.ray_peak")
    m["solvers.ray_peak.slope_evals_per_call"] = per(c["solvers.ray_peak.slope_evals"], tot["solvers.ray_peak"][0])
    # collapses propagate to mountain_pass, which retries with a shorter step
    m["solvers.ray_peak.collapses"] = c["solvers.ray_peak.raised.PathCollapseError"] / n
    for check in CHECKS:
        m[f"verification.{check}.s"] = incl(f"verification.{check}")
    m["outputs.write_s"] = sum(v[2] for k, v in tot.items() if k.startswith("outputs.")) / n
    m["outputs.bytes_written"] = c["outputs.bytes_written"] / n
    for stage in STAGES:
        m[f"cli.{stage}.s"] = incl(f"cli.{stage}")
    for module, f in SETUP:
        m[f"{module}.{f}.s"] = incl(f"{module}.{f}")
    m["trace.overhead_s"] = overhead_s
    return m
