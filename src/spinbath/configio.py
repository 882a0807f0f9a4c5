"""Flat key = value configuration format used by the command line.

One assignment per line, dotted keys for sections, '#' starts a comment:

    bath.family = ohmic
    bath.lambda = 0.01
    bath.s = 2
    bath.omega_c = 10
    beta = 1
    h = 0
    init.theta1 = pi/2
    init.theta2 = pi/2
    grid.t_start = 0
    grid.t_end = 40
    grid.n_points = 251

Numeric values may be simple arithmetic over numbers, pi and e (useful for
Bloch angles); everything else is kept as a bare string (the bath family
tag).  The same parser handles --set overrides and sweep value lists.
"""

from __future__ import annotations

import ast
import math
import operator

from .errors import ConfigError

__all__ = ["parse_value", "parse_text", "format_flat", "flatten", "unflatten",
           "set_path"]

_BIN_OPS = {ast.Add: operator.add, ast.Sub: operator.sub,
            ast.Mult: operator.mul, ast.Div: operator.truediv,
            ast.Pow: operator.pow}
_UNARY_OPS = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_NAMES = {"pi": math.pi, "e": math.e}


def _eval_node(node):
    if isinstance(node, ast.Expression):
        return _eval_node(node.body)
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return node.value
    if isinstance(node, ast.Name) and node.id in _NAMES:
        return _NAMES[node.id]
    if isinstance(node, ast.BinOp) and type(node.op) in _BIN_OPS:
        return _BIN_OPS[type(node.op)](_eval_node(node.left), _eval_node(node.right))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY_OPS:
        return _UNARY_OPS[type(node.op)](_eval_node(node.operand))
    raise ValueError(f"unsupported expression element {ast.dump(node)}")


def parse_value(text: str):
    """int | float | str from a config value token; 'pi/2' style allowed."""
    text = text.strip()
    if not text:
        raise ConfigError("empty value")
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    try:
        val = _eval_node(ast.parse(text, mode="eval"))
        return float(val)
    except (ValueError, SyntaxError, ArithmeticError):
        return text


def parse_text(text: str) -> dict:
    """Config text to a nested dict; raises ConfigError on malformed lines."""
    flat = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        flat[key] = parse_value(value)
    return unflatten(flat)


def flatten(nested: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in nested.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(flatten(value, f"{path}."))
        else:
            flat[path] = value
    return flat


def unflatten(flat: dict) -> dict:
    nested: dict = {}
    for path, value in flat.items():
        parts = path.split(".")
        node = nested
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"key {path!r} clashes with a scalar entry")
        node[parts[-1]] = value
    return nested


def _format_value(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def format_flat(nested: dict) -> str:
    """Deterministic (sorted) flat text rendering of a nested config dict."""
    flat = flatten(nested)
    return "\n".join(f"{k} = {_format_value(flat[k])}" for k in sorted(flat))


def set_path(nested: dict, path: str, value) -> None:
    """Assign through a dotted path, creating sections as needed.

    ``init.theta`` fans out to both spins' polar angles, matching the
    identical-spin preparation of the angle studies.
    """
    if path in ("init.theta", "theta"):
        set_path(nested, "init.theta1", value)
        set_path(nested, "init.theta2", value)
        return
    parts = path.split(".")
    node = nested
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot descend into scalar at {part!r} in {path!r}")
    node[parts[-1]] = value
