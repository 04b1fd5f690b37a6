"""One benchmark run of one workload, in its own single-threaded process.

Started by run.py as ``worker.py --workload W --seed N --seconds S --trace T``
(or ``--setup-probe`` to time set-up alone).  It drives
``doublephase.cli.main`` in-process, one fresh output directory per stage,
repeats whole rounds of the workload's stages until ``--seconds`` have
passed, checks every stage's outputs with reference.py, and prints one JSON
object as its last line.
"""
from __future__ import annotations

import argparse
import configparser
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # relative to the checkout root
    stages: tuple[str, ...]
    res: int
    min_saddles: int  # distinct solve-mp solutions each round must yield


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-16", "scripts/default.cfg", ("verify",), 16, 0),
        Workload("solve-16", "scripts/default.cfg", ("lambda-star", "solve-min", "solve-mp"), 16, 4),
        Workload("solve-32", "perfbench/solve32.cfg", ("solve-min", "solve-mp"), 32, 2),
    )
}


@dataclass(frozen=True)
class Experiment:
    """The experiment both configs describe, as the reference computes it.

    The exponent formulas are restated here as numpy functions; the config
    must carry exactly the matching expression strings.
    """

    p1: str = "2"
    p2: str = "2 + 0.5*sin(pi*x1)"
    q: str = "4"
    # ranges of pmax = max(p1, p2) and q over the closed unit box
    pmax_lo: float = 2.0
    pmax_hi: float = 2.5
    q_lo: float = 4.0
    q_hi: float = 4.0
    t0: float = 2.0
    bump_centre: tuple[float, ...] = (0.5, 0.5, 0.5)
    bump_side: float = 0.5
    lambda_grid: tuple[float, float, int] = (1e-2, 1e4, 361)
    tol: float = 1e-6

    def problem(self, res: int):
        import numpy as np

        from reference import Problem

        return Problem(
            3, res,
            lambda *x: np.full_like(x[0], 2.0),
            lambda x1, x2, x3: 2.0 + 0.5 * np.sin(np.pi * x1),
            lambda *x: np.full_like(x[0], 4.0),
        )


def check_config(path: Path, wl: Workload, exp: Experiment):
    """Refuse a config that describes another experiment than the reference."""
    ini = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    ini.read(path)
    text = {
        ("exponents", "p1"): exp.p1,
        ("exponents", "p2"): exp.p2,
        ("exponents", "q"): exp.q,
        ("problem", "lambda"): "auto",
    }
    numbers = {
        ("grid", "dim"): [3],
        ("grid", "res"): [wl.res],
        ("grid", "extent"): [1.0],
        ("problem", "lambda_grid"): list(exp.lambda_grid),
        ("bump", "t0"): [exp.t0],
        ("bump", "center"): list(exp.bump_centre),
        ("bump", "side"): [exp.bump_side],
        ("solver", "tol"): [exp.tol],
    }
    for (section, key), value in {**text, **numbers}.items():
        got = ini.get(section, key, fallback=None)
        if got is not None and (section, key) in numbers:
            got = [float(x) for x in got.split()]
        if got != value:
            raise SystemExit(f"{path}: [{section}] {key} = {got!r}, the reference assumes {value!r}")


def setup(wl: Workload):
    """Import the package from this checkout and set the experiment up, as
    every CLI stage does: config, grid, exponent set, both hypothesis reports."""
    sys.path.insert(0, str(ROOT / "src"))
    import doublephase.cli
    from doublephase.config import load_config
    from doublephase.exponents import build_exponent_set, validate_hypotheses

    if Path(doublephase.cli.__file__).resolve().parents[1] != ROOT / "src":
        raise SystemExit(f"doublephase imported from {doublephase.cli.__file__}, not from {ROOT / 'src'}")
    cfg = load_config(ROOT / wl.config)
    grid = cfg.grid()
    exps = build_exponent_set(cfg.p1, cfg.p2, cfg.q, grid)
    for form in ("mountain", "coercive"):
        if not validate_hypotheses(exps, form).passed:
            raise SystemExit(f"{wl.config}: {form} hypotheses fail")
    return doublephase.cli


@dataclass
class Round:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # operations the program reported done but whose outputs fail a check


def run_round(cli, wl, seed, exp, prob, out_dir: Path, tracer=None) -> Round:
    # numpy and the modules that import it load only after set-up is timed,
    # so setup_s includes numpy's import as a CLI user pays it
    import numpy as np

    import reference as ref
    from tracing import CHECKS

    rnd = Round()
    for stage in wl.stages:
        out = out_dir / stage
        argv = [stage, "--config", str(ROOT / wl.config), "--seed", str(seed), "--out", str(out)]
        main = tracer.span(f"cli.{stage.replace('-', '_')}", cli.main) if tracer else cli.main
        with contextlib.redirect_stdout(io.StringIO()):
            w0, c0 = time.perf_counter(), time.process_time()
            rc = main(argv)
            rnd.wall_s += time.perf_counter() - w0
            rnd.cpu_s += time.process_time() - c0

        rng = np.random.default_rng(seed)
        if stage == "verify":
            # one operation per check report; stage-level problems fail them all
            hyps = json.loads((out / "hypothesis_reports.json").read_text())
            reports = {c: json.loads((out / f"check_{c}.json").read_text()) for c in CHECKS}
            done = {c: r["failures"] == 0 for c, r in reports.items()}
            common = ref.manifest_problems(out)
            if rc != (0 if all(done.values()) and all(h["passed"] for h in hyps.values()) else 1):
                common.append(f"verify exit code {rc} disagrees with its reports")
            # lambda = auto runs the battery at lambda = 1
            problems = {c: common + ref.check_verify_report(c, r, 1.0, exp) for c, r in reports.items()}
        else:
            check = {
                "lambda-star": lambda: ref.check_lambda_star(prob, exp, out),
                "solve-min": lambda: ref.check_solve_min(prob, exp, out, rng),
                "solve-mp": lambda: ref.check_solve_mp(prob, exp, out, rng, wl.min_saddles),
            }[stage]
            done = {stage: rc == 0}
            problems = {stage: check() if rc == 0 else []}
        for op, ok in done.items():
            rnd.attempted += 1
            if not ok or problems[op]:
                rnd.failed += 1
            if ok and problems[op]:
                rnd.wrong += 1
                print(f"{wl.name} {op}: " + "; ".join(problems[op][:5]), file=sys.stderr)
        shutil.rmtree(out)
    return rnd


def run_rounds(cli, wl, seed, exp, prob, seconds, out_dir, tracer=None) -> list[Round]:
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(cli, wl, seed, exp, prob, out_dir, tracer))
    return rounds


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help="time set-up only")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    exp = Experiment()
    check_config(ROOT / wl.config, wl, exp)

    t0 = time.perf_counter()
    cli = setup(wl)
    setup_s = time.perf_counter() - t0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return

    import tracing

    prob = exp.problem(wl.res)
    out_dir = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    rounds = run_rounds(cli, wl, args.seed, exp, prob, args.seconds, out_dir)
    wall_s = statistics.median(r.wall_s for r in rounds)
    metrics = {
        "wall_s": {"value": wall_s, "unit": "s"},
        "cpu_s": {"value": statistics.median(r.cpu_s for r in rounds), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced = run_rounds(cli, wl, args.seed, exp, prob, args.seconds, out_dir, tracer)
        overhead = statistics.median(r.wall_s for r in traced) - wall_s
        layer = tracing.per_layer(tracer, len(traced), overhead)
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in tracing.PER_LAYER}
        tracer.write(OUT / f"spans-{wl.name}-seed{args.seed}.csv")
        rounds += traced
    shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps({
        "correct": not any(r.wrong for r in rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "rounds": len(rounds),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
