"""Tiny expression grammar for analytic field specs.

Accepted: numeric literals, the constant ``pi``, coordinates ``x1..xN``,
``+``, ``-``, ``*`` (binary and unary sign), and the functions ``sin``,
``cos``, ``exp``.  Anything else is rejected with a position diagnostic.
"""
from __future__ import annotations

import ast

import numpy as np

from .errors import ConfigError

__all__ = ["parse_field_expression", "as_field_function"]

_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult)
_ALLOWED_UNARY = (ast.UAdd, ast.USub)


def _reject(text: str, node: ast.AST, what: str):
    col = getattr(node, "col_offset", 0) + 1
    raise ConfigError(f"bad field expression {text!r}: {what} at column {col}")


def _check(node: ast.AST, names: set[str], text: str):
    if isinstance(node, ast.Expression):
        _check(node.body, names, text)
    elif isinstance(node, ast.BinOp):
        if not isinstance(node.op, _ALLOWED_BINOPS):
            _reject(text, node, f"operator {type(node.op).__name__} not allowed")
        _check(node.left, names, text)
        _check(node.right, names, text)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, _ALLOWED_UNARY):
            _reject(text, node, f"operator {type(node.op).__name__} not allowed")
        _check(node.operand, names, text)
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS:
            _reject(text, node, "only sin, cos, exp may be called")
        if len(node.args) != 1 or node.keywords:
            _reject(text, node, "functions take exactly one argument")
        _check(node.args[0], names, text)
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            _reject(text, node, f"literal {node.value!r} not numeric")
    elif isinstance(node, ast.Name):
        if node.id not in names:
            _reject(text, node, f"unknown name {node.id!r}")
    else:
        _reject(text, node, f"syntax element {type(node).__name__} not allowed")


def parse_field_expression(text: str, dim: int):
    """Compile ``text`` into a function of the coordinate arrays x1..xN."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        col = exc.offset or 0
        raise ConfigError(
            f"bad field expression {text!r}: {exc.msg} at column {col}"
        ) from None
    names = {f"x{k + 1}" for k in range(dim)} | {"pi"} | set(_FUNCS)
    _check(tree, names, text)
    code = compile(tree, "<field expression>", "eval")

    def fn(*coords):
        if len(coords) != dim:
            raise ValueError(f"expected {dim} coordinate arrays, got {len(coords)}")
        env = {f"x{k + 1}": coords[k] for k in range(dim)}
        env["pi"] = np.pi
        env.update(_FUNCS)
        return eval(code, {"__builtins__": {}}, env)

    return fn


def as_field_function(spec, dim: int):
    """Normalize a field spec (number, expression string, or callable).  A
    number evaluates, like the expression of that number, to one value."""
    if callable(spec):
        return spec
    if isinstance(spec, (int, float)):
        value = float(spec)
        return lambda *coords: value
    if isinstance(spec, str):
        return parse_field_expression(spec, dim)
    raise ConfigError(f"field spec must be a number, string, or callable: {spec!r}")
