"""Serialized outputs: field/history CSV, JSON reports, and the run manifest.

All payload files are deterministic for a fixed config and seed (floats are
written with shortest round-trip repr).  The manifest carries a timestamp and
the payload checksums; it is the one file that differs between identical runs.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import asdict, is_dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import FieldShapeError
from .grid import DomainGrid, GridFunction

__all__ = [
    "write_field_csv",
    "read_field_csv",
    "write_history_csv",
    "write_matrix_csv",
    "write_json",
    "sha256_of",
    "write_manifest",
    "jsonable",
]


# rows of a field CSV formatted and written at a time
_CSV_CHUNK = 4096


def _fmt(x: float) -> str:
    return repr(float(x))


def write_field_csv(path: Path, u: GridFunction) -> Path:
    """One node per row in lexicographic index order, coordinates first.

    Each row prefix "x1,...,xN," is joined from the per-axis coordinate
    strings, and each value is formatted by ``repr`` of its Python float.
    Rows are written ``_CSV_CHUNK`` at a time, so the file is never held in
    memory whole."""
    grid = u.grid
    header = ",".join(f"x{k + 1}" for k in range(grid.dim)) + ",value"
    axes = [[repr(x) + "," for x in ax.tolist()] for ax in grid.node_axes()]
    prefixes = map("".join, itertools.product(*axes))
    flat = u.values.reshape(-1)
    path = Path(path)
    with path.open("w") as f:
        f.write(header + "\n")
        for start in range(0, flat.size, _CSV_CHUNK):
            values = map(repr, flat[start : start + _CSV_CHUNK].tolist())
            rows = map(str.__add__, itertools.islice(prefixes, _CSV_CHUNK), values)
            f.write("\n".join(rows) + "\n")
    return path


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def read_field_csv(path: Path, grid: DomainGrid) -> GridFunction:
    """Re-ingest a field CSV; the node count must match the grid, every value
    must be a finite number, and each row's coordinates must be those of its
    node in lexicographic order (:meth:`DomainGrid.node_axes`), to a
    millionth of the node spacing."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise FieldShapeError(f"{path}: cannot read the field file: {exc.strerror}") from None
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FieldShapeError(f"{path}: empty field file")
    skip = 1 if lines[0][0].isalpha() else 0  # a header row
    rows = lines[skip:]
    if len(rows) != grid.node_count:
        raise FieldShapeError(
            f"{path}: {len(rows)} rows but the grid has {grid.node_count} nodes"
        )
    table = np.empty((grid.node_count, grid.dim + 1))
    for i, row in enumerate(rows):
        parts = row.split(",")
        if len(parts) != table.shape[1]:
            raise FieldShapeError(
                f"{path}: row {i + 1 + skip} has {len(parts)} columns, want {table.shape[1]}"
            )
        table[i] = [_float(part) for part in parts]
        if not math.isfinite(table[i, -1]):
            raise FieldShapeError(
                f"{path}: row {i + 1 + skip} value {parts[-1]!r} is not a finite number"
            )
    nodes = np.stack(grid.node_mesh(), axis=-1).reshape(grid.node_count, grid.dim)
    # a coordinate that is no number (nan) compares false, so counts as off
    off = ~(np.abs(table[:, :-1] - nodes) <= 1e-6 * np.array(grid.h))
    if off.any():
        i = int(np.flatnonzero(off.any(axis=1))[0])
        raise FieldShapeError(
            f"{path}: row {i + 1 + skip} coordinates {rows[i].rsplit(',', 1)[0]} are not "
            f"node {tuple(nodes[i].tolist())} of the grid of {grid.res} nodes over {grid.extent}"
        )
    return GridFunction(grid, np.ascontiguousarray(table[:, -1]).reshape(grid.node_shape))


def _write_table(path: Path, header: str, rows) -> Path:
    """A small CSV table: the header and one line per row, each ended by a
    newline, written at once."""
    path = Path(path)
    path.write_text("\n".join(itertools.chain([header], rows)) + "\n")
    return path


def write_history_csv(path: Path, history) -> Path:
    """One row per history entry: iteration, energy, residual."""
    rows = (f"{i},{_fmt(energy)},{_fmt(residual)}" for i, (energy, residual) in enumerate(history))
    return _write_table(path, "iteration,energy,residual", rows)


def write_path_profile_csv(path: Path, snapshots) -> Path:
    """Long-format path energies: one row per (snapshot iteration, path index).

    No stage calls it; the benchmark tracer (``perfbench/tracing.py``) wraps
    it by name until ROADMAP item 20 retires the tracer."""
    rows = (f"{it},{k},{_fmt(e)}" for it, energies in snapshots for k, e in enumerate(energies))
    return _write_table(path, "iteration,k,energy", rows)


def write_matrix_csv(path: Path, matrix: np.ndarray) -> Path:
    header = ",".join(f"u{j}" for j in range(matrix.shape[1]))
    return _write_table(path, header, (",".join(map(_fmt, row)) for row in matrix))


def jsonable(obj):
    """Recursively convert dataclasses to plain JSON types, non-finite floats to their repr."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return jsonable(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def write_json(path: Path, obj) -> Path:
    path = Path(path)
    path.write_text(json.dumps(jsonable(obj), indent=2, sort_keys=True) + "\n")
    return path


def sha256_of(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(out_dir: Path, files, config, hypothesis_reports, extra: dict) -> Path:
    """Checksum the payload files the calling stage wrote (``files``); other
    files already in the output directory are not listed.  The config, the
    hypothesis reports (dataclasses, or dicts of them) and the ``extra``
    entries, which follow them, are written by :func:`jsonable`."""
    out_dir = Path(out_dir)
    checksums = {Path(p).name: sha256_of(p) for p in files}
    manifest = {
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": jsonable(config),
        "hypothesis_reports": jsonable(hypothesis_reports),
        "outputs": checksums,
    }
    manifest.update(jsonable(extra))
    return write_json(out_dir / "manifest.json", manifest)
