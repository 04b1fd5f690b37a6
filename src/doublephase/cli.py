"""Command-line front end.

One subcommand per entry of ``_COMMANDS``.
Exit codes: 0 success, 1 check/solve failure, 2 usage or config error.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .config import line_of, load_config
from .energy import REG_EPS
from .errors import (
    ConfigError, DoublePhaseError, ExponentRangeError, FieldShapeError, HypothesisGateError,
)
from .exponents import validate_hypotheses
from .outputs import (
    read_field_csv,
    write_field_csv,
    write_history_csv,
    write_json,
    write_manifest,
    write_matrix_csv,
)
from .solvers import (
    bump_function,
    dedupe_with_negatives,
    lambda_star_search,
    minimize_energy,
    mountain_pass,
)
from .spaces import luxemburg_norm, modular, sobolev_norm
from .verification import run_all_checks

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _seed(text: str) -> int:
    """A sampling seed: an integer that is 0 or more, as in the config."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doublephase",
        description="Double-phase variable-exponent energies: checks, minimizers, saddle points.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (_, _, help_line) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        p.add_argument("--config", type=Path, default=None, help="INI config file")
        p.add_argument("--seed", type=_seed, default=None, help="override sampling seed")
        p.add_argument("--out", type=Path, default=None, help="override output directory")
        p.add_argument(
            "--override-hypotheses",
            action="store_true",
            help="run even when the theorem hypotheses fail (logged in the manifest)",
        )
    sub.choices["norm"].add_argument("field", type=Path, help="field CSV (x1..xN,value rows)")
    return parser


def _prepare(args, form):
    """The config with the flag overrides, its exponent set, both hypothesis
    reports and the output directory.  ``None`` when the ``form``
    hypotheses fail without an override: the reports are written and the
    gate's message, which names the failing conditions, printed."""
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = str(args.out)
    if args.override_hypotheses:
        cfg.override_hypotheses = True
    try:
        exps = cfg.exponents()
    except ExponentRangeError as exc:
        raise ConfigError(f"{line_of(args.config, 'exponents', exc.key)}{exc}") from None
    out_dir = Path(cfg.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {out_dir}: {exc.strerror}") from None
    hyps = {f: validate_hypotheses(exps, f) for f in ("mountain", "coercive")}
    try:
        if form is not None:
            hyps[form].require(cfg.override_hypotheses)
    except HypothesisGateError as exc:
        write_json(out_dir / "hypothesis_reports.json", hyps)
        print(exc, file=sys.stderr)
        print(f"report written to {out_dir / 'hypothesis_reports.json'}", file=sys.stderr)
        return None
    return cfg, out_dir, exps, hyps


# A stage takes the parsed arguments and what _prepare returns, writes its
# payload files and returns (success, the files written, manifest extras).


def cmd_verify(args, cfg, out_dir, exps, hyps):
    lam = cfg.lam if cfg.lam is not None else 1.0
    reports = run_all_checks(exps, lam=lam, seed=cfg.seed)
    written = []
    for rep in reports:
        written.append(write_json(out_dir / f"check_{rep.name}.json", rep))
        status = "pass" if rep.passed else "FAIL"
        print(f"{status}  {rep.name}  samples={rep.samples} failures={rep.failures}")
    written.append(write_json(out_dir / "hypothesis_reports.json", hyps))
    for form in ("mountain", "coercive"):
        status = "pass" if hyps[form].passed else "FAIL"
        print(f"{status}  hypotheses[{form}]")
    ok = bool(reports) and all(r.passed for r in reports) and all(h.passed for h in hyps.values())
    return ok, written, {"lambda": lam}


def _bump_and_star(cfg, exps):
    """The plateau bump and the lambda* search along it."""
    bump = bump_function(exps.grid, cfg.t0, cfg.bump_box())
    return bump, lambda_star_search(exps, bump, cfg.lam_grid())


def cmd_lambda_star(args, cfg, out_dir, exps, hyps):
    bump, report = _bump_and_star(cfg, exps)
    written = [
        write_field_csv(out_dir / "bump.csv", bump.fn),
        write_json(out_dir / "lambda_star.json", report),
    ]
    print(
        f"lambda_star={report.lambda_star!r} exact={report.lambda_star_exact!r} "
        f"bound={report.analytic_bound!r}"
    )
    return True, written, {}


def cmd_solve_min(args, cfg, out_dir, exps, hyps):
    bump, star = _bump_and_star(cfg, exps)
    if cfg.lam is None:
        lam = 2.0 * star.lambda_star
        lam_source = "auto: 2 * lambda_star"
    else:
        lam = cfg.lam
        lam_source = "config"
    result = minimize_energy(
        lam, exps, bump.fn, cfg.solver_options(), override_hypotheses=cfg.override_hypotheses
    )
    summary = {
        "lambda": lam,
        "lambda_source": lam_source,
        "termination": result.termination,
        "iterations": result.iterations,
        "residual": result.residual,
        "energy": result.energy.to_dict(),
        "solution_grad_norm": sobolev_norm(result.u, exps.pmax),
    }
    written = [
        write_json(out_dir / "lambda_star.json", star),
        write_field_csv(out_dir / "solution.csv", result.u),
        write_history_csv(out_dir / "history.csv", result.history),
        write_json(out_dir / "solve_min.json", summary),
    ]
    print(
        f"{result.termination}: iterations={result.iterations} "
        f"residual={result.residual!r} energy={result.energy.total!r}"
    )
    return result.converged, written, {"lambda": lam, "lambda_source": lam_source}


def cmd_solve_mp(args, cfg, out_dir, exps, hyps):
    lam = cfg.lam if cfg.lam is not None else 1.0
    seeds = [bump_function(exps.grid, cfg.seed_t0, box).fn for box in cfg.seed_boxes()]
    opts = cfg.solver_options()
    found = [mountain_pass(lam, exps, seed, opts, cfg.override_hypotheses) for seed in seeds]
    solutions, norms, distances = dedupe_with_negatives(found, exps)

    written = []
    summary = []
    for j, (sol, norm) in enumerate(zip(solutions, norms)):
        written.append(write_field_csv(out_dir / f"solution_{j:02d}.csv", sol.u))
        written.append(write_history_csv(out_dir / f"history_{j:02d}.csv", sol.history))
        summary.append(
            {
                "index": j,
                "energy": sol.energy.to_dict(),
                "residual": sol.residual,
                "iterations": sol.iterations,
                "termination": sol.termination,
                "grad_norm": norm,
            }
        )
    if solutions:
        written.append(write_matrix_csv(out_dir / "distinct_matrix.csv", distances))
    written.append(write_json(out_dir / "solve_mp.json", {"lambda": lam, "solutions": summary}))
    print(f"distinct solutions: {len(solutions)} (lambda={lam!r})")
    return bool(solutions), written, {"lambda": lam}


def cmd_norm(args, cfg, out_dir, exps, hyps):
    u = read_field_csv(args.field, exps.grid)
    rows = {}
    for name, p in (("p1", exps.p1), ("p2", exps.p2), ("pmax", exps.pmax), ("q", exps.q)):
        mod = modular(u, p)
        lux, _ = luxemburg_norm(u, p)
        grad = sobolev_norm(u, p) if u.zero_on_boundary else None
        rows[name] = {"modular": mod, "luxemburg": lux, "gradient_luxemburg": grad}
        grad_txt = repr(grad) if grad is not None else "n/a (nonzero boundary)"
        print(f"{name}: modular={mod!r} luxemburg={lux!r} gradient_luxemburg={grad_txt}")
    written = [write_json(out_dir / "norms.json", {"field": str(args.field), "norms": rows})]
    return True, written, {}


# each stage, in --help order, with the form gating it (None: not gated) and its help line
_COMMANDS = {
    "verify": (cmd_verify, None, "run every inequality/geometry check"),
    "solve-min": (cmd_solve_min, "coercive", "bump, threshold search, global minimization"),
    "solve-mp": (cmd_solve_mp, "mountain", "saddle search per seed, multi-solution sweep"),
    "lambda-star": (cmd_lambda_star, "coercive", "threshold-parameter search only"),
    "norm": (cmd_norm, None, "norms of a stored field under the configured exponents"),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    stage, form, _ = _COMMANDS[args.command]
    try:
        prepared = _prepare(args, form)
        if prepared is None:
            return EXIT_FAIL
        cfg, out_dir, _, hyps = prepared
        ok, written, extra = stage(args, *prepared)
        write_manifest(out_dir, written, cfg, hyps, extra={**extra, "reg_eps": REG_EPS})
        return EXIT_OK if ok else EXIT_FAIL
    except DoublePhaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, (ConfigError, FieldShapeError)) else EXIT_FAIL
