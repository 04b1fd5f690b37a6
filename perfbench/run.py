"""Benchmark of the doublephase CLI workloads verify-16, solve-16 and solve-32.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own single-threaded process (worker.py); with
--trace 0, SETUP_PROBES more processes time set-up alone.  For each workload
the benchmark prints a "# name: N rounds" line and one JSON object with the
operations attempted and failed and the metrics: end to end (wall_s, cpu_s,
setup_s, peak_rss_mb) with --trace 0, per layer with --trace 1.  The last
line is the last workload's object.  The exit code is 0 only when every
workload ran and every output passed its checks.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7
DEADLINE_S = 170.0  # per workload run, which must end within 180 s
SINGLE_THREAD = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}


def _worker(args: list[str], deadline: float) -> dict:
    """Run worker.py once and return the JSON object on its last line."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            env={**os.environ, **SINGLE_THREAD},
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker {' '.join(args)} overran the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0:
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", name, "--seed", str(seed)]
    result = _worker([*common, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    if not trace:
        probes = [_worker([*common, "--setup-probe"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        result["metrics"]["setup_s"] = {"value": statistics.median(probes), "unit": "s"}
    return {"workload": name, **result}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "doublephase" / "cli.py").is_file():
        print(f"no doublephase source under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(n, args.seed, args.seconds, args.trace) for n in names]
    for res in results:
        print(f"# {res['workload']}: {res['rounds']} rounds")
        print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
