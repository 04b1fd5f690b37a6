"""Experiment configuration: INI-style sections, strict validation.

Every solver-facing default lives here; a config file overrides fields
selectively.  Parse failures carry the file line when it can be located, and
a key the loader does not read (a misspelling, a retired setting) is named in
a ``UserWarning`` with its line, section and key.
"""
from __future__ import annotations

import configparser
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, SubdomainBoundsError
from .exponents import ExponentSet, build_exponent_set
from .fieldexpr import parse_field_expression
from .grid import DomainGrid
from .solvers import SolverOptions, SubBox

__all__ = ["ExperimentConfig", "line_of", "load_config"]

# the most values a lambda_grid may ask for: 10^6 doubles are 8 MB
LAM_GRID_MAX_COUNT = 10**6


@dataclass
class ExperimentConfig:
    dim: int = 3
    res: tuple[int, ...] = (16, 16, 16)
    extent: tuple[float, ...] = (1.0, 1.0, 1.0)

    p1: str = "2"
    p2: str = "2 + 0.5*sin(pi*x1)"
    q: str = "4"

    lam: float | None = None  # None = auto: 2*lambda_star for solve-min, 1.0 for solve-mp/verify
    lam_grid_lo: float = 1e-2
    lam_grid_hi: float = 1e4
    lam_grid_count: int = 361

    t0: float = 2.0
    bump_center: tuple[float, ...] = (0.5, 0.5, 0.5)
    bump_side: float = 0.5

    seed_centers: tuple[tuple[float, ...], ...] = ((0.3, 0.3, 0.3), (0.7, 0.7, 0.7))
    seed_side: float = 0.25
    seed_t0: float = 2.0

    tol: float = 1e-6
    max_iter: int = 5000

    seed: int = 0
    out_dir: str = "out"
    override_hypotheses: bool = False

    def grid(self) -> DomainGrid:
        return DomainGrid(self.dim, self.res, self.extent)

    def exponents(self) -> ExponentSet:
        return build_exponent_set(self.p1, self.p2, self.q, self.grid())

    def solver_options(self) -> SolverOptions:
        return SolverOptions(tol=self.tol, max_iter=self.max_iter)

    def lam_grid(self) -> np.ndarray:
        return np.geomspace(self.lam_grid_lo, self.lam_grid_hi, self.lam_grid_count)

    def bump_box(self) -> SubBox:
        return SubBox.centered(self.bump_center, self.bump_side)

    def seed_boxes(self) -> list[SubBox]:
        return [SubBox.centered(c, self.seed_side) for c in self.seed_centers]


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def _checked(conv, ok, need: str):
    """``conv``, refusing a value that fails ``ok`` with ``ValueError(need)``."""
    def parse(raw):
        if not ok(value := conv(raw)):
            raise ValueError(need)
        return value
    return parse


_ABOVE_1 = _checked(float, lambda v: 1.0 < v < np.inf, "must be finite and exceed 1")
_POSITIVE = _checked(float, lambda v: v > 0.0, "must be positive")
_FINITE_POSITIVE = _checked(float, lambda v: 0.0 < v < np.inf, "must be finite and positive")
_ALL_FINITE_POSITIVE = _checked(
    _floats, lambda v: all(0.0 < e < np.inf for e in v), "must be finite and positive"
)


def line_of(path: Path, section: str, key: str) -> str:
    """Best-effort line locator for diagnostics."""
    try:
        lines = path.read_text().splitlines()
    except OSError:
        return ""
    in_section = False
    for i, line in enumerate(lines, start=1):
        stripped = line.strip()
        if stripped.startswith("["):
            in_section = stripped == f"[{section}]"
        elif in_section and re.split("[=:]", stripped)[0].strip().lower() == key:
            return f"{path}:{i}: "
    return f"{path}: "


def _lam_grid(raw: str) -> tuple[float, float, int]:
    """lo, hi and the whole count of the geometric lambda grid."""
    v = _floats(raw)
    if len(v) != 3:
        raise ValueError("lambda_grid wants: lo hi count")
    lo, hi, count = v
    if not (0.0 < lo < hi < np.inf and 2 <= count <= LAM_GRID_MAX_COUNT and count.is_integer()):
        raise ValueError(
            f"lambda_grid needs 0 < lo < hi < inf and a whole count from 2 to {LAM_GRID_MAX_COUNT}"
        )
    return lo, hi, int(count)


# every key the loader reads, in reading order: (section, key) -> (the field
# it sets, or the fields set from the parsed tuple, and the value's parser)
_KEYS = {
    ("grid", "dim"): ("dim", _checked(int, lambda v: v in (2, 3), "must be 2 or 3")),
    ("grid", "res"): (
        "res", _checked(_ints, lambda v: all(n >= 4 for n in v), "needs 4 or more nodes per axis")),
    ("grid", "extent"): ("extent", _ALL_FINITE_POSITIVE),
    ("exponents", "p1"): ("p1", str),
    ("exponents", "p2"): ("p2", str),
    ("exponents", "q"): ("q", str),
    ("problem", "lambda"): (
        "lam", lambda raw: None if raw.strip().lower() == "auto" else _FINITE_POSITIVE(raw)),
    ("problem", "lambda_grid"): (("lam_grid_lo", "lam_grid_hi", "lam_grid_count"), _lam_grid),
    ("bump", "t0"): ("t0", _ABOVE_1),
    ("bump", "center"): ("bump_center", _floats),
    ("bump", "side"): ("bump_side", _POSITIVE),
    ("mountain", "seed_centers"): (
        "seed_centers",
        _checked(
            lambda raw: tuple(_floats(part) for part in raw.split("|") if part.strip()),
            len, "needs at least one centre",
        ),
    ),
    ("mountain", "seed_side"): ("seed_side", _POSITIVE),
    ("mountain", "seed_t0"): ("seed_t0", _ABOVE_1),
    ("solver", "tol"): ("tol", _FINITE_POSITIVE),
    ("solver", "max_iter"): ("max_iter", _checked(int, lambda v: v >= 1, "must be 1 or more")),
    ("sampling", "seed"): ("seed", _checked(int, lambda v: v >= 0, "must be 0 or more")),
    ("output", "dir"): ("out_dir", str),
}


def load_config(path: str | Path | None) -> ExperimentConfig:
    """Read an INI config; missing file fields keep their defaults.  Each key
    of the file that sets no field is named in one ``UserWarning``."""
    cfg = ExperimentConfig()
    if path is None:
        return cfg
    path = Path(path)
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    # one res or extent entry, as by default, fits any dim
    cfg.res, cfg.extent = (16,), (1.0,)
    for (section, key), (fields, parse) in _KEYS.items():
        if not parser.has_option(section, key):
            continue
        raw = parser.get(section, key)
        try:
            value = parse(raw)
        except Exception as exc:
            raise ConfigError(
                f"{line_of(path, section, key)}bad value for [{section}] {key}: {raw!r} ({exc})"
            ) from None
        for name, v in zip(fields, value) if isinstance(fields, tuple) else [(fields, value)]:
            setattr(cfg, name, v)
    for name in ("res", "extent"):
        if len(getattr(cfg, name)) == 1:
            setattr(cfg, name, getattr(cfg, name) * cfg.dim)
    # the other defaults sized by dim adapt unless the file sets them
    if not parser.has_option("bump", "center"):
        cfg.bump_center = (0.5,) * cfg.dim
    if not parser.has_option("mountain", "seed_centers"):
        cfg.seed_centers = ((0.3,) * cfg.dim, (0.7,) * cfg.dim)
    sized = [("grid", "res", cfg.res), ("grid", "extent", cfg.extent)]
    sized += [("bump", "center", cfg.bump_center)]
    sized += [("mountain", "seed_centers", center) for center in cfg.seed_centers]
    for section, key, value in sized:
        if len(value) != cfg.dim:
            raise ConfigError(
                f"{line_of(path, section, key)}{key} has {len(value)} entries for dim {cfg.dim}"
            )

    _warn_unread(path, parser)

    # eager validation so bad expressions fail at load time with a location
    for key in ("p1", "p2", "q"):
        try:
            parse_field_expression(getattr(cfg, key), cfg.dim)
        except ConfigError as exc:
            raise ConfigError(f"{line_of(path, 'exponents', key)}{exc}") from None
    grid = cfg.grid()
    # the boxes bump_function would refuse, located at their centre key
    boxes = [("bump", "center", cfg.bump_center, cfg.bump_side)]
    boxes += [("mountain", "seed_centers", c, cfg.seed_side) for c in cfg.seed_centers]
    for section, key, center, side in boxes:
        try:
            SubBox.centered(center, side).interior_gap(grid)
        except SubdomainBoundsError as exc:
            raise ConfigError(
                f"{line_of(path, section, key)}bad value for [{section}] {key}: "
                f"box at {center} of side {side}: {exc}"
            ) from None
    return cfg


def _warn_unread(path: Path, parser: configparser.ConfigParser):
    """One ``UserWarning`` per key of the file that no row of ``_KEYS`` reads;
    a ``[DEFAULT]`` key counts as read when some section's key of that name is."""
    defaults = set(parser.defaults())
    taken = {key for _, key in _KEYS}
    unread = [(configparser.DEFAULTSECT, key) for key in defaults if key not in taken]
    for section in parser.sections():
        unread += [
            (section, key) for key in parser.options(section)
            if key not in defaults and (section, key) not in _KEYS
        ]
    for section, key in unread:
        warnings.warn(
            f"{line_of(path, section, key)}unread key [{section}] {key}: no setting reads it",
            UserWarning,
            stacklevel=3,
        )
