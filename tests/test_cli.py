import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import doublephase
from doublephase import cli, solvers
from doublephase.cli import main
from doublephase.config import ExperimentConfig, load_config
from doublephase.errors import ConfigError, FieldShapeError
from doublephase.grid import DomainGrid, GridFunction
from doublephase.outputs import read_field_csv, sha256_of, write_field_csv
from doublephase.spaces import sobolev_norm

SMALL = """
[grid]
dim = 3
res = 8

[exponents]
p1 = 2
p2 = 2 + 0.5*sin(pi*x1)
q = 4

[mountain]
seed_centers = 0.35 0.35 0.35 | 0.65 0.65 0.65
seed_side = 0.3

[solver]
tol = 1e-6
max_iter = 4000
"""


@pytest.fixture()
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL)
    return path


def test_defaults_match_shipped_experiment():
    cfg = ExperimentConfig()
    assert cfg.dim == 3 and cfg.res == (16, 16, 16)
    assert cfg.p2 == "2 + 0.5*sin(pi*x1)" and cfg.q == "4"
    assert cfg.t0 == 2.0 and cfg.bump_side == 0.5
    assert cfg.tol == 1e-6 and cfg.max_iter == 5000


def test_config_round_trip(small_cfg):
    cfg = load_config(small_cfg)
    assert cfg.res == (8, 8, 8)
    grid = cfg.grid()
    assert grid.node_count == 512


def test_config_names_each_unread_key(tmp_path):
    path = tmp_path / "typo.cfg"
    path.write_text("[grid]\nress = 8\n\n[solver]\ntolerance = 1e-12\nmax_iters = 3\n")
    with pytest.warns(UserWarning) as record:
        cfg = load_config(path)
    messages = [str(w.message) for w in record]
    assert messages == [
        f"{path}:2: unread key [grid] ress: no setting reads it",
        f"{path}:5: unread key [solver] tolerance: no setting reads it",
        f"{path}:6: unread key [solver] max_iters: no setting reads it",
    ]
    assert (cfg.res, cfg.tol, cfg.max_iter) == ((16, 16, 16), 1e-6, 5000)


def test_shipped_config_loads_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        load_config(Path(__file__).parents[1] / "scripts" / "default.cfg")


def test_config_malformed_expression(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[exponents]\np2 = 2+\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "bad.cfg" in str(err.value)


def test_config_bad_value_locates_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[grid]\ndim = 3\nres = eight\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "bad.cfg:3" in str(err.value)


@pytest.mark.parametrize(
    "section, line",
    [("[bump]\ncenter = 0.5 0.5\n", 2), ("[mountain]\nseed_centers = 0.3 0.3 0.3 | 0.3 0.3\n", 2)],
    ids=["bump-center", "seed-centers"],
)
def test_config_refuses_a_centre_of_the_wrong_length(tmp_path, capsys, section, line):
    path = tmp_path / "centre.cfg"
    path.write_text("[grid]\ndim = 3\n\n" + section)
    with pytest.raises(ConfigError, match=f"centre.cfg:{line + 3}: .* has 2 entries for dim 3"):
        load_config(path)
    for stage in ("lambda-star", "solve-mp"):
        assert main([stage, "--config", str(path), "--out", str(tmp_path / stage)]) == 2


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("bump", "t0", "0.5"),
        ("bump", "t0", "inf"),
        ("mountain", "seed_t0", "1.0"),
        ("bump", "side", "-0.5"),
        ("mountain", "seed_side", "0"),
        ("solver", "tol", "nan"),
        ("solver", "tol", "-1"),
        ("solver", "tol", "inf"),
        ("solver", "max_iter", "0"),
        ("sampling", "seed", "-3"),
    ],
)
def test_config_refuses_a_value_the_stages_refuse(tmp_path, capsys, section, key, value):
    path = tmp_path / "range.cfg"
    path.write_text(f"[grid]\ndim = 3\n\n[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=f"range.cfg:5: bad value for \\[{section}\\] {key}"):
        load_config(path)
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


DEFAULT_CFG = Path(__file__).parents[1] / "scripts" / "default.cfg"


def _line_numbers(rows, key):
    return [i for i, row in enumerate(rows, start=1) if row.startswith(f"{key} = ")]


@pytest.mark.parametrize(
    "line, section, key, stage",
    [
        ("lambda = nan", "problem", "lambda", "solve-min"),
        ("lambda = inf", "problem", "lambda", "solve-min"),
        ("lambda_grid = 1e-2 inf 361", "problem", "lambda_grid", "lambda-star"),
        ("lambda_grid = 1e-2 nan 361", "problem", "lambda_grid", "lambda-star"),
        ("lambda_grid = 1e-2 1e4 361.9", "problem", "lambda_grid", "lambda-star"),
        ("extent = inf", "grid", "extent", "verify"),
        ("extent = nan", "grid", "extent", "verify"),
        ("center = 0.1 0.5 0.5", "bump", "center", "lambda-star"),
        ("side = 1.5", "bump", "center", "lambda-star"),
        ("seed_centers = 0.05 0.3 0.3 | 0.7 0.7 0.7", "mountain", "seed_centers", "solve-mp"),
        ("seed_centers = |", "mountain", "seed_centers", "solve-mp"),
        ("lambda_grid = 1e-2 1e4 1e9", "problem", "lambda_grid", "lambda-star"),
        ("res = 3", "grid", "res", "verify"),
        ("dim = 4", "grid", "dim", "verify"),
    ],
)
def test_config_refuses_at_load_what_a_stage_refuses_later(tmp_path, capsys, line, section, key, stage):
    # default.cfg with one line changed; each value used to pass the loader
    # and end the stage with exit 1, or for the 10^9-value lambda grid (8 GB)
    # run it out of memory.  A box is located at its centre key.  The grid
    # rows were refused at load, but without a line (res = 3) or at the
    # bump centre, whose length no longer matched (dim = 4).
    rows = DEFAULT_CFG.read_text().splitlines()
    [changed] = _line_numbers(rows, line.split(" = ")[0])
    rows[changed - 1] = line
    path = tmp_path / "late.cfg"
    path.write_text("\n".join(rows) + "\n")
    [located] = _line_numbers(rows, key)
    with pytest.raises(ConfigError, match=f"late.cfg:{located}: bad value for \\[{section}\\] {key}"):
        load_config(path)
    assert main([stage, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_cli_refuses_a_negative_seed(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["verify", "--seed", "-3", "--out", str(tmp_path / "out")])
    assert exit_.value.code == 2
    assert "--seed: must be 0 or more, got -3" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_exit_2_on_malformed_config(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("[exponents]\nq = 4 +\n")
    code = main(["verify", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_cli_refuses_a_config_it_cannot_read(tmp_path, capsys):
    # ConfigParser.read skips a path it cannot open, which used to run the
    # built-in experiment
    with pytest.raises(ConfigError, match="cannot read config file .*: Is a directory"):
        load_config(tmp_path)
    assert main(["lambda-star", "--config", str(tmp_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: cannot read config file")
    assert not (tmp_path / "out").exists()


def test_cli_refuses_an_out_that_names_a_file(tmp_path, small_cfg, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["lambda-star", "--config", str(small_cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot make output directory {out}: File exists\n"


def test_cli_refuses_an_exponent_that_reaches_1(tmp_path, capsys):
    rows = DEFAULT_CFG.read_text().replace("\np1 = 2\n", "\np1 = 0.5\n")
    path = tmp_path / "low.cfg"
    path.write_text(rows)
    [line] = _line_numbers(rows.splitlines(), "p1")
    for stage in ("verify", "lambda-star", "solve-mp"):
        assert main([stage, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {path}:{line}: exponent p1 must exceed 1 everywhere")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, line", [("p1", "p1 = 2 + exp(exp(exp(3*x1)))"), ("q", "q = 4 + 0*exp(1000)")]
)
def test_cli_refuses_a_non_finite_exponent_at_its_line(tmp_path, key, line):
    # the overflow (inf) and the 0*inf (nan) are refused by key, without a
    # RuntimeWarning, even where one would be an error
    rows = [line if r.startswith(f"{key} = ") else r for r in DEFAULT_CFG.read_text().splitlines()]
    path = tmp_path / "overflow.cfg"
    path.write_text("\n".join(rows) + "\n")
    [at] = _line_numbers(rows, key)
    paths = [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    cmd = ["-W", "error::RuntimeWarning", "-m", "doublephase", "verify"]
    proc = subprocess.run(
        [sys.executable, *cmd, "--config", str(path), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: {path}:{at}: exponent {key} must be finite everywhere")
    assert proc.stderr.count("\n") == 1 and "RuntimeWarning" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_cmd_norm_refuses_a_missing_field_file(tmp_path, small_cfg, capsys):
    f = tmp_path / "missing.csv"
    assert main(["norm", str(f), "--config", str(small_cfg), "--out", str(tmp_path / "n")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {f}: cannot read the field file: No such file or directory\n"


def test_cmd_norm_examples(tmp_path, small_cfg, capsys):
    grid = DomainGrid(3, (8, 8, 8))
    zero = GridFunction.zeros(grid)
    f = tmp_path / "zero.csv"
    write_field_csv(f, zero)
    code = main(["norm", str(f), "--config", str(small_cfg), "--out", str(tmp_path / "n1")])
    assert code == 0
    out = capsys.readouterr().out
    assert "modular=0.0" in out

    one = GridFunction(grid, np.ones(grid.node_shape))
    f2 = tmp_path / "one.csv"
    write_field_csv(f2, one)
    code = main(["norm", str(f2), "--config", str(small_cfg), "--out", str(tmp_path / "n2")])
    assert code == 0
    report = json.loads((tmp_path / "n2" / "norms.json").read_text())
    assert abs(report["norms"]["p1"]["modular"] - 1.0) < 1e-12
    assert abs(report["norms"]["p1"]["luxemburg"] - 1.0) < 1e-9
    # nonzero boundary: no gradient norm
    assert report["norms"]["p1"]["gradient_luxemburg"] is None
    manifest = json.loads((tmp_path / "n2" / "manifest.json").read_text())
    assert manifest["outputs"] == {"norms.json": sha256_of(tmp_path / "n2" / "norms.json")}
    assert manifest["hypothesis_reports"]["coercive"]["passed"]


def test_cmd_norm_wrong_node_count(tmp_path, small_cfg):
    f = tmp_path / "short.csv"
    f.write_text("x1,x2,x3,value\n0.0,0.0,0.0,1.0\n")
    code = main(["norm", str(f), "--config", str(small_cfg), "--out", str(tmp_path / "n3")])
    assert code == 2


@pytest.mark.parametrize("value", ["abc", "nan"])
def test_cmd_norm_rejects_a_bad_value(tmp_path, small_cfg, capsys, value):
    grid = DomainGrid(3, (8, 8, 8))
    f = tmp_path / "bad.csv"
    write_field_csv(f, GridFunction.zeros(grid))
    lines = f.read_text().splitlines()
    lines[5] = lines[5].rsplit(",", 1)[0] + "," + value
    f.write_text("\n".join(lines) + "\n")
    code = main(["norm", str(f), "--config", str(small_cfg), "--out", str(tmp_path / "n4")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "bad.csv: row 6" in err and repr(value) in err


def test_field_csv_error_counts_rows_without_a_header(tmp_path):
    grid = DomainGrid(3, (4, 4, 4))
    f = tmp_path / "bare.csv"
    f.write_text("0,0,0,inf\n" + "0,0,0,1.0\n" * (grid.node_count - 1))
    with pytest.raises(FieldShapeError, match="bare.csv: row 1 value 'inf'"):
        read_field_csv(f, grid)


@pytest.mark.parametrize(
    "row, want", [(None, "empty field file"), ("0.0,0.0,1.0", "row 3 has 3 columns, want 4")],
    ids=["empty", "short-row"],
)
def test_field_csv_refuses_an_empty_file_and_a_row_of_another_width(tmp_path, row, want):
    grid = DomainGrid(3, (4, 4, 4))
    f = write_field_csv(tmp_path / "f.csv", GridFunction.zeros(grid))
    lines = f.read_text().splitlines()
    if row is None:
        lines = [" "]
    else:
        lines[2] = row
    f.write_text("\n".join(lines) + "\n")
    with pytest.raises(FieldShapeError, match=f"f.csv: {want}"):
        read_field_csv(f, grid)


def test_field_csv_round_trip(tmp_path, rng):
    grid = DomainGrid(3, (6, 6, 6))
    vals = rng.standard_normal(grid.node_shape)
    u = GridFunction(grid, vals)
    path = tmp_path / "field.csv"
    write_field_csv(path, u)
    back = read_field_csv(path, grid)
    assert np.array_equal(back.values, u.values)  # repr round-trip is bit exact
    with pytest.raises(FieldShapeError):
        read_field_csv(path, DomainGrid(3, (7, 7, 7)))


@pytest.mark.parametrize(
    "grid, row",
    # with a header, line 18 is the first node of the 8x32x16 grid (0, 1/31, 0)
    # off the 16^3 one (0, 1/15, 0), and line 3 the first of extent 2 (0, 0, 2/15)
    [(DomainGrid(3, (8, 32, 16)), 18), (DomainGrid(3, (16, 16, 16), 2.0), 3)],
    ids=["res-8-32-16", "extent-2"],
)
def test_cmd_norm_rejects_a_field_of_another_grid(tmp_path, capsys, grid, row):
    # the same 4096 nodes as the default 16^3 unit grid, at other coordinates
    f = write_field_csv(tmp_path / "other.csv", GridFunction(grid, np.ones(grid.node_shape)))
    with pytest.raises(FieldShapeError, match=f"other.csv: row {row} coordinates"):
        read_field_csv(f, DomainGrid(3, (16, 16, 16)))
    code = main(["norm", str(f), "--out", str(tmp_path / "n")])
    assert code == 2
    assert f"row {row} coordinates" in capsys.readouterr().err


def test_cmd_norm_reads_a_field_it_wrote(tmp_path, rng):
    grid = DomainGrid(3, (16, 16, 16))
    vals = rng.standard_normal(grid.node_shape)
    vals[grid.boundary_mask()] = 0.0
    f = write_field_csv(tmp_path / "u.csv", GridFunction(grid, vals))
    assert np.array_equal(read_field_csv(f, grid).values, vals)
    assert main(["norm", str(f), "--out", str(tmp_path / "n")]) == 0


def _field_csv_row_by_row(grid, values):
    # one repr per coordinate and value, row by row
    flat = [m.reshape(-1) for m in grid.node_mesh()] + [values.reshape(-1)]
    lines = [",".join(f"x{k + 1}" for k in range(grid.dim)) + ",value"]
    lines += [",".join(repr(float(x)) for x in row) for row in zip(*flat)]
    return ("\n".join(lines) + "\n").encode()


# rows are written 4096 at a time: the last two grids fill exactly one
# chunk, and two chunks and a part
@pytest.mark.parametrize("grid", [
    DomainGrid(2, (4, 5), (1.0, 3.0)), DomainGrid(3, (4, 5, 6)),
    DomainGrid(3, (16, 16, 16)), DomainGrid(3, (20, 20, 21)),
])
def test_field_csv_matches_row_by_row_writer(tmp_path, rng, grid):
    vals = rng.standard_normal(grid.node_shape) * 10.0 ** rng.uniform(-300, 300, grid.node_shape)
    vals.flat[:3] = (-0.0, 5e-324, 1.0)
    path = write_field_csv(tmp_path / "field.csv", GridFunction(grid, vals))
    assert path.read_bytes() == _field_csv_row_by_row(grid, vals)


def test_cmd_verify_small(tmp_path, small_cfg):
    out = tmp_path / "verify"
    code = main(["verify", "--config", str(small_cfg), "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    for name, digest in manifest["outputs"].items():
        assert sha256_of(out / name) == digest
    assert manifest["hypothesis_reports"]["mountain"]["passed"]


def test_cmd_verify_rejects_supercritical(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(SMALL.replace("q = 4", "q = 7"))
    out = tmp_path / "verify"
    code = main(["verify", "--config", str(path), "--out", str(out)])
    assert code == 1
    reports = json.loads((out / "hypothesis_reports.json").read_text())
    assert not reports["mountain"]["passed"]


def test_cmd_lambda_star(tmp_path, small_cfg):
    out = tmp_path / "star"
    code = main(["lambda-star", "--config", str(small_cfg), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "lambda_star.json").read_text())
    assert report["lambda_star"] >= report["lambda_star_exact"]
    assert report["lambda_star"] <= report["analytic_bound"]
    # the report's fields are the payload's keys, so a new field shows here
    assert set(report) == {
        "lambda_star", "lambda_star_exact", "analytic_bound", "constant_L",
        "t0", "plateau_volume", "pmax_hi", "pmax_lo",
    }
    out_min = tmp_path / "min"
    assert main(["solve-min", "--config", str(small_cfg), "--out", str(out_min)]) == 0
    assert (out_min / "lambda_star.json").read_bytes() == (out / "lambda_star.json").read_bytes()


def test_cmd_solve_min_auto_lambda(tmp_path, small_cfg):
    out = tmp_path / "min"
    code = main(["solve-min", "--config", str(small_cfg), "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "solve_min.json").read_text())
    assert summary["lambda_source"] == "auto: 2 * lambda_star"
    assert summary["termination"] == "converged"
    assert summary["energy"]["total"] < 0.0
    assert (out / "solution.csv").exists() and (out / "history.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    for name, digest in manifest["outputs"].items():
        assert sha256_of(out / name) == digest


def test_help_lists_the_commands_in_order(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert "{verify,solve-min,solve-mp,lambda-star,norm}" in out
    rows = [line.split(None, 1) for line in out.splitlines() if line.startswith("    ")]
    listed = [row for row in rows if row[0] in cli._COMMANDS]
    assert listed == [
        ["verify", "run every inequality/geometry check"],
        ["solve-min", "bump, threshold search, global minimization"],
        ["solve-mp", "saddle search per seed, multi-solution sweep"],
        ["lambda-star", "threshold-parameter search only"],
        ["norm", "norms of a stored field under the configured exponents"],
    ]


@pytest.mark.parametrize("stage", ["verify", "solve-min", "solve-mp"])
def test_a_lambda_that_overflows_ends_without_a_traceback(tmp_path, stage):
    # at lambda = 1e300 the coercivity constant and the ray energies overflow
    # (verify reports both checks as not run, with no RuntimeWarning) and the
    # descent start is not finite (the solve stages refuse it with an error
    # line); both exit 1
    path = tmp_path / "big.cfg"
    path.write_text(DEFAULT_CFG.read_text().replace("\nlambda = auto\n", "\nlambda = 1e300\n"))
    assert "lambda = 1e300" in path.read_text().splitlines()
    paths = [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    cmd = [sys.executable, "-m", "doublephase", stage, "--config", str(path)]
    proc = subprocess.run(
        [*cmd, "--out", str(tmp_path / "out")], capture_output=True, text=True, timeout=300, env=env
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    if stage == "verify":
        assert "FAIL  coercivity_floor  samples=0 failures=1" in proc.stdout
        report = json.loads((tmp_path / "out" / "check_coercivity_floor.json").read_text())
        assert report["notes"] == "did not run: the constant C overflows at lambda = 1e+300"
        rays = json.loads((tmp_path / "out" / "check_ray_boundedness.json").read_text())
        assert rays["notes"].startswith("did not run")
        assert "RuntimeWarning" not in proc.stderr
    else:
        assert proc.stderr.splitlines()[-1].startswith("error: the descent cannot start: ")


def test_version_has_one_source():
    # pyproject.toml reads the version from doublephase.__version__
    from setuptools.config.pyprojecttoml import read_configuration

    path = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # [tool.setuptools] is flagged as beta
        static = read_configuration(path, expand=False)["project"]
        expanded = read_configuration(path, expand=True)["project"]
    assert "version" not in static and "version" in static["dynamic"]
    assert expanded["version"] == doublephase.__version__


def test_manifest_lists_only_the_stage_files(tmp_path, small_cfg):
    out = tmp_path / "shared"
    assert main(["lambda-star", "--config", str(small_cfg), "--out", str(out)]) == 0
    assert main(["solve-min", "--config", str(small_cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["version"] == doublephase.__version__
    assert sorted(manifest["outputs"]) == [
        "history.csv", "lambda_star.json", "solution.csv", "solve_min.json",
    ]
    for name, digest in manifest["outputs"].items():
        assert sha256_of(out / name) == digest
    header, *rows = (out / "history.csv").read_text().splitlines()
    assert header == "iteration,energy,residual"
    assert rows and all(len(r.split(",")) == 3 for r in rows)


def test_coercive_gate_allows_low_exponent(tmp_path):
    path = tmp_path / "low.cfg"
    path.write_text(SMALL.replace("p1 = 2", "p1 = 1.5"))
    out = tmp_path / "star"
    # coercive form has no lower bound of 2 on the gradient exponents
    code = main(["lambda-star", "--config", str(path), "--out", str(out)])
    assert code == 0


def test_cmd_solve_mp_refuses_low_exponent(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(SMALL.replace("p1 = 2", "p1 = 1.5"))
    out = tmp_path / "mp"
    code = main(["solve-mp", "--config", str(path), "--out", str(out)])
    assert code == 1
    reports = json.loads((out / "hypothesis_reports.json").read_text())
    assert not reports["mountain"]["passed"]


def test_cmd_solve_mp_small(tmp_path, small_cfg):
    out = tmp_path / "mp"
    code = main(["solve-mp", "--config", str(small_cfg), "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "solve_mp.json").read_text())
    # two disjoint seeds and their mirror images
    assert len(summary["solutions"]) >= 4
    assert not list(out.glob("path_profile_seed*.csv"))
    assert (out / "distinct_matrix.csv").exists()
    for sol in summary["solutions"]:
        assert sol["energy"]["total"] > 0.0
        assert sol["residual"] <= 1e-6


def test_cmd_solve_mp_solves_each_norm_once(tmp_path, small_cfg, monkeypatch):
    calls = []

    def counted(u, p):
        calls.append(1)
        return sobolev_norm(u, p)

    monkeypatch.setattr(solvers, "sobolev_norm", counted)
    monkeypatch.setattr(cli, "sobolev_norm", counted)
    out = tmp_path / "mp"
    assert main(["solve-mp", "--config", str(small_cfg), "--out", str(out)]) == 0
    n = len(json.loads((out / "solve_mp.json").read_text())["solutions"])
    # both seeds converge and all four saddles are kept: one norm per seed,
    # one distance per pair
    assert n == 4
    assert len(calls) <= 2 + n * (n - 1) // 2


def test_cmd_solve_mp_2d_needs_override(tmp_path):
    path = tmp_path / "flat.cfg"
    path.write_text(
        "[grid]\ndim = 2\nres = 12\n\n[exponents]\np1 = 2\np2 = 2.2\nq = 4\n\n"
        "[mountain]\nseed_centers = 0.5 0.5\nseed_side = 0.4\n"
    )
    out = tmp_path / "mp2d"
    # 2D is outside the stated hypotheses: refused by default, runs with override
    assert main(["solve-mp", "--config", str(path), "--out", str(out)]) == 1
    code = main([
        "solve-mp", "--config", str(path), "--out", str(out), "--override-hypotheses",
    ])
    assert code == 0
    summary = json.loads((out / "solve_mp.json").read_text())
    assert len(summary["solutions"]) >= 2


def test_verify_override_does_not_reach_the_gated_checks(tmp_path):
    # the mountain-geometry and coercivity-floor checks always need their own
    # hypotheses, which dimension 2 fails; the override runs the rest
    text = DEFAULT_CFG.read_text()
    for old, new in (
        ("dim = 3", "dim = 2"),
        ("center = 0.5 0.5 0.5", "center = 0.5 0.5"),
        ("seed_centers = 0.3 0.3 0.3 | 0.7 0.7 0.7", "seed_centers = 0.3 0.3 | 0.7 0.7"),
    ):
        text = text.replace(f"\n{old}\n", f"\n{new}\n")
        assert new in text.splitlines()
    path = tmp_path / "dim2.cfg"
    path.write_text(text)
    out = tmp_path / "verify"
    code = main(["verify", "--config", str(path), "--out", str(out), "--override-hypotheses"])
    assert code == 1
    assert json.loads((out / "manifest.json").read_text())["config"]["override_hypotheses"]
    for name, form in (("mountain_geometry", "mountain"), ("coercivity_floor", "coercive")):
        notes = json.loads((out / f"check_{name}.json").read_text())["notes"]
        assert notes.startswith(f"did not run: {form} hypotheses fail: ")
        assert "dim >= 3" in notes


def test_cmd_lambda_star_grid_exhausted(tmp_path, small_cfg):
    path = tmp_path / "short.cfg"
    path.write_text(SMALL + "\n[problem]\nlambda_grid = 1e-4 2e-4 2\n")
    out = tmp_path / "star"
    assert main(["lambda-star", "--config", str(path), "--out", str(out)]) == 1


def test_cli_determinism(tmp_path, small_cfg):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve-min", "--config", str(small_cfg), "--seed", "5", "--out", str(out1)]) == 0
    assert main(["solve-min", "--config", str(small_cfg), "--seed", "5", "--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir() if p.name != "manifest.json")
    assert names
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["outputs"] == m2["outputs"]
