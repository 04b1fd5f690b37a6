import importlib.util
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports(path):
    # every script guards its entry point, so importing it only resolves the
    # package names it uses
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))


def test_scripts_are_found():
    assert {p.name for p in SCRIPTS} >= {"resolution_study.py", "run_experiments.py"}
