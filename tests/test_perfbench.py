"""Contract between the package and the benchmark harness under perfbench/.

``perfbench/tracing.py`` wraps package functions by name, so deleting or
renaming one of them breaks ``python3 perfbench/run.py --trace 1``.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_the_package():
    # in a subprocess, so no other test sees the wrapped modules
    code = 'import sys; sys.path[:0] = ["perfbench", "src"]; import tracing; tracing.install(tracing.Tracer())'
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
