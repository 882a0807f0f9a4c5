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
tag).  The same parser handles --set overrides and sweep value lists, and
every key, from a file line, --set or a sweep, lands through ``set_path``:
``init.theta`` sets both polar angles, and a value over a section
(``bath = 7`` beside ``bath.family``) or a section under a value is a
ConfigError (exit 2).  A key set twice in one file, directly or through
``init.theta``, is a ConfigError naming both lines; --set and sweep values
override a file's keys.
"""

from __future__ import annotations

import ast
import math
import operator
import sys

from .errors import ConfigError

__all__ = ["parse_value", "parse_text", "format_flat", "flatten", "set_path",
           "as_integer", "reject_unknown"]


def _power(base, exponent):
    # an exact integer power past 2^16384 overflows, not runs on (9**9**9)
    if (isinstance(base, int) and isinstance(exponent, int) and abs(base) > 1
            and exponent * math.log2(abs(base)) > 1 << 14):
        raise OverflowError(f"({base})**({exponent}) is too large")
    return base ** exponent


_BIN_OPS = {ast.Add: operator.add, ast.Sub: operator.sub,
            ast.Mult: operator.mul, ast.Div: operator.truediv,
            ast.Pow: _power}
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
        value = int(text)
    except ValueError:
        pass
    else:
        if abs(value) > sys.float_info.max:   # float(value) would raise
            raise ConfigError(f"integer {text[:20]}... is beyond the float "
                              f"range")
        return value
    try:
        return float(text)
    except ValueError:
        pass
    try:
        val = _eval_node(ast.parse(text, mode="eval"))
        return float(val)
    except (ValueError, SyntaxError, ArithmeticError, TypeError):
        return text   # TypeError: a complex value, as of (-8)**0.5


def parse_text(text: str) -> dict:
    """Config text to a nested dict; raises ConfigError, naming the line, on
    a malformed line, a clash with a section and a key set twice."""
    nested, line_of = {}, {}
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
        try:
            leaves = set_path(nested, key, parse_value(value))
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
        for leaf in leaves:
            if leaf in line_of:
                raise ConfigError(f"line {lineno}: key {leaf!r} is already "
                                  f"set on line {line_of[leaf]}")
            line_of[leaf] = lineno
    return nested


def flatten(nested: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in nested.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(flatten(value, f"{path}."))
        else:
            flat[path] = value
    return flat


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


def set_path(nested: dict, path: str, value) -> tuple:
    """Assign through a dotted path, creating sections as needed, and return
    the dotted paths of the values set.

    ``init.theta`` fans out to both spins' polar angles, matching the
    identical-spin preparation of the angle studies.  A value over a section,
    or a section under a value, raises ConfigError.
    """
    leaves = (("init.theta1", "init.theta2") if path in ("init.theta", "theta")
              else (path,))
    for leaf in leaves:
        *sections, key = leaf.split(".")
        node = nested
        for part in sections:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"key {leaf!r} clashes with a scalar entry")
        if isinstance(node.get(key), dict):
            raise ConfigError(f"key {leaf!r} clashes with a section")
        node[key] = value
    return leaves


def as_integer(value, name: str) -> int:
    """value as an int if it is integral (1e3 passes, 2.9 does not)."""
    if not float(value).is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(float(value))


def reject_unknown(section: dict, known, prefix: str = "") -> None:
    """ConfigError naming every key of ``section`` outside ``known``."""
    unknown = sorted(set(section) - set(known))
    if unknown:
        raise ConfigError(f"unknown config keys {[prefix + k for k in unknown]}")
