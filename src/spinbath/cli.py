"""Command-line front end: run scenarios, sweeps, spectra, state dumps.

Subcommands
-----------
run          evaluate one scenario, emit its record as CSV or JSON
preset       print a builtin preset as editable config text
list-presets list builtin preset names
sweep        re-run a scenario over a list of values for one config field
spectrum     tabulate the bath spectral density J(omega)
state-dump   emit the evolved two-spin state at one time as JSON

Exit codes: 0 success, 2 configuration or usage error, 3 compute error,
4 I/O error.  Data goes to stdout (or --output), diagnostics to stderr.  An
output is computed in full before its file is opened, so an error leaves no
partial file; CSV rows are then streamed, and a file whose write fails is
removed.  Numbers print with 17 significant digits and re-parse to identical
values; a divergent dephasing exponent is ``inf`` in CSV and the string
``"inf"`` in JSON, which never holds NaN.  A CSV cell is the text of
"%.17g", made in numpy for a block of cells at once from the exact 17-digit
integer of each value; a cell whose digits that cannot prove (a tie at the
17th digit, |x| outside [1e-280, 1e280), nan) goes through Python's
"%.17g" on its own.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import stat
import sys

import numpy as np

from . import __version__, configio
from .decoherence import BathConditions, factors
from .dynamics import FieldConfig, bloch_product_to_general, evolve
from .errors import ComputeError, ConfigError, NotPointwise, SpinBathError
from .scenario import (
    MAX_POINTS,
    RunRecord,
    ScenarioConfig,
    builtin_presets,
    run,
)
from .spectral import evaluate

#: rows a CSV table formats at a time
_BLOCK_ROWS = 2048
#: rows of one string of CSV text
_TEXT_ROWS = 1024
#: bytes of one cell in a block: its text, NUL padding, then the separator
_CELL = 32
#: decimal exponents of the tables; |x| in [1e-280, 1e280) with slack
_K0, _K1 = -282, 281


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf"
    if x == 0.0:
        return "0"
    return f"{x:.17g}"


@functools.cache
def _tables():
    """The tables of ``_cells``, built from exact integers on the first call.

    Per decimal exponent k: 10^(16-k) as an unevaluated sum hi + lo of
    doubles (hi correctly rounded, lo the rounded remainder) with hi's
    Veltkamp halves.  Per (k, trailing zeros of D): the row of the masks
    and the frame, but for its sign.  The masks, per (q digits before the
    point, 18 for none; digits printed): digit i kept at byte 7 + i, or at
    8 + i after the point.  The frames, per (k, point or not, sign) and for
    0 and inf: the sign and any "0.00" ending at byte 6, the point at byte
    7 + q and the exponent from byte 25.  Per 4-digit group: its ASCII
    bytes and its trailing zeros.
    """
    ks = np.arange(_K0, _K1 + 1, dtype=np.int32)
    pows = []
    for k in ks.tolist():
        if k <= 16:
            n = 10 ** (16 - k)
            hi = float(n)
            pows.append((hi, float(n - int(hi))))
        else:
            n = 10 ** (k - 16)
            hi = 1 / n
            a, b = hi.as_integer_ratio()
            pows.append((hi, (b - a * n) / (b * n)))
    hi, lo = np.array(pows).T
    c = hi * 134217729.0
    hh = c - (c - hi)
    pows = np.stack([hi, hh, hi - hh, lo], axis=1)
    fixed = (ks >= -4) & (ks < 17)
    q = np.where(fixed, np.where(ks < 0, 18, ks + 1), 1)[:, None]
    printed = np.maximum(17 - np.arange(17, dtype=np.int32),
                         np.where(fixed & (ks >= 0), ks + 1, 1)[:, None])
    index = np.stack([18 * q + printed,
                      4 * (ks - _K0)[:, None] + 2 * (printed > q)])
    frames = bytearray()
    for k, point in zip(ks.tolist(), q[:, 0].tolist()):
        head = "0." + "0" * (-k - 1) if -4 <= k < 0 else ""
        tail = "" if -4 <= k < 17 else f"e{k:+03d}"
        for dot in ("\0", "."):
            for sign in ("", "-"):
                row = (sign + head).rjust(7, "\0") + "\0" * 18 + tail
                if point < 18:
                    row = row[:7 + point] + dot + row[8 + point:]
                frames += row.ljust(_CELL, "\0").encode()
    frames += b"0".ljust(_CELL, b"\0") + b"inf".ljust(_CELL, b"\0")
    q, printed = np.divmod(np.arange(19 * 18), 18)
    i = np.arange(17)
    masks = np.zeros((2, 19 * 18, _CELL), np.uint8)
    masks[0, :, 7:24] = 255 * ((i < q[:, None]) & (i < printed[:, None]))
    masks[1, :, 8:25] = 255 * ((i >= q[:, None]) & (i < printed[:, None]))
    d = np.arange(10000, dtype=np.int16)
    quads = np.empty((10000, 4), np.uint8)
    for j in range(4):
        quads[:, 3 - j] = d // 10 ** j % 10 + 48
    zeros = (d % 10 == 0).astype(np.int8)
    zeros += d % 100 == 0
    zeros += d % 1000 == 0
    zeros[0] = 4
    return (pows, index.reshape(2, -1).astype(np.int32),
            np.frombuffer(frames, np.uint8).reshape(-1, _CELL), masks,
            quads.view(np.uint32).ravel(), zeros)


def _digits(x: np.ndarray):
    """The 17 significant digits D of each |x| as an integer in [10^16,
    10^17), the index of its decimal exponent k = floor(log10|x|) in the
    tables, whether the cell must go through ``_fmt``, and whether |x| lies
    in [1e-280, 1e280), the only cells whose D and k hold.

    There y = |x| 10^(16-k) is formed as p + e, Dekker's product of |x| and
    the two doubles of 10^(16-k): exact but for 2^-46 of e, and D is y
    rounded to the nearest integer, an exact tie to even.  Where 10^(16-k)
    is a double (-6 <= k <= 16) y is exact.  ``_fmt`` takes over where D is
    not certain: elsewhere when the fraction of y lies within 2^-20 of 1/2,
    and when floor(y) < 10^16 or D > 10^17 (log10 was off by one; D = 10^17
    is 10^16 of the next decade).  It takes every cell
    outside the range too; ``_cells`` writes 0 and inf itself.
    """
    a = np.abs(x)
    fast = (a >= 1e-280) & (a < 1e280)
    a[~fast] = 1.0
    k = np.floor(np.log10(a)).astype(np.intp)
    k -= _K0
    hi, hh, hl, lo = _tables()[0].take(k, axis=0).T
    ah = a * 134217729.0
    ah -= ah - a
    al = a - ah
    p = a * hi
    e = ah * hh
    e -= p
    e += ah * hl
    e += al * hh
    e += al * hl
    e += a * lo
    whole = np.floor(e)
    e -= whole
    up = e > 0.5
    e -= 0.5
    tie = e == 0.0
    bad = np.abs(e, out=e) <= 2.0 ** -20
    bad &= lo != 0.0
    bad |= ~fast
    d = p.astype(np.int64)
    d += whole.astype(np.int64)
    bad |= d < 10 ** 16
    up |= tie & (d % 2 == 1)
    d += up
    bad |= d > 10 ** 17
    over = d == 10 ** 17
    d -= 9 * 10 ** 16 * over
    k += over
    return d, k, bad, fast


def _cells(x: np.ndarray) -> np.ndarray:
    """The ``_fmt`` text of each float64 of ``x``, as rows of ``_CELL`` bytes
    with NUL where there is no byte; the last byte is always NUL.

    The digits come from ``_digits``, four at a time from a table, and the
    tables place them, the point, the sign, any leading "0.00" and the
    exponent as "%.17g" does, without its trailing zeros.
    """
    _, index, frames, masks, quads, zeros = _tables()
    d, k, bad, fast = _digits(x)
    top = d // 10 ** 8
    d -= 10 ** 8 * top
    g1 = top // 10 ** 4
    g0 = g1 // 10 ** 4
    groups = (g0, g1 - 10 ** 4 * g0, top - 10 ** 4 * g1, d // 10 ** 4,
              d % 10 ** 4)
    # digit 0 at byte 7, the others from byte 8 on
    words = np.zeros((len(x), _CELL // 4), np.uint32)
    for j, g in enumerate(groups):
        words[:, 1 + j] = quads.take(g)
    tz = zeros.take(groups[1])
    for g in groups[2:]:
        t = zeros.take(g)
        tz = np.where(t == 4, tz + 4, t)
    k *= 17
    k += tz
    mask, frame = index.take(k, axis=1)
    frame += np.signbit(x)
    if not fast.all():
        zero, inf = x == 0, np.isinf(x)
        frame[zero] = len(frames) - 2
        frame[inf] = len(frames) - 1
        mask[~fast] = 0
        bad &= ~(zero | inf)
    out = words.view(np.uint8)
    after = np.empty_like(out)
    after.ravel()[1:] = out.ravel()[:-1]
    out &= masks[0].take(mask, axis=0)
    after &= masks[1].take(mask, axis=0)
    out |= after
    out |= frames.take(frame, axis=0)
    for i in np.flatnonzero(bad):
        text = _fmt(float(x[i])).encode()
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
    return out


def _json_num(x: float):
    return "inf" if math.isinf(x) else float(x)


def _load_config(args) -> ScenarioConfig:
    if getattr(args, "preset", None):
        presets = builtin_presets()
        if args.preset not in presets:
            raise ConfigError(f"unknown preset {args.preset!r}; "
                              f"see 'spinbath list-presets'")
        nested = presets[args.preset].to_dict()
    elif getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise _IoFailure(f"cannot read config {args.config!r}: {exc}")
        nested = configio.parse_text(text)
    else:
        raise ConfigError("one of --preset or --config is required")
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        configio.set_path(nested, key.strip(), configio.parse_value(value))
    return ScenarioConfig.from_dict(nested)


class _IoFailure(SpinBathError):
    pass


def _emit(chunks, output: str | None) -> None:
    """Write the strings of ``chunks`` to stdout or ``output`` as they come;
    a regular file that a write fails on is removed."""
    where = "stdout" if output in (None, "-") else repr(output)
    regular = False
    try:
        if where == "stdout":
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        else:
            with open(output, "w", encoding="utf-8") as fh:
                regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
                fh.writelines(chunks)
    except OSError as exc:
        if where == "stdout":
            # the reader may have gone (| head): no second failure at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        elif regular:
            # no partial file; a device such as /dev/null is left alone
            with contextlib.suppress(OSError):
                os.remove(output)
        raise _IoFailure(f"cannot write {where}: {exc}")


def _json(obj) -> list[str]:
    return [json.dumps(obj, sort_keys=True, indent=1) + "\n"]


def _comments(cfg: ScenarioConfig, *extra: str) -> str:
    lines = [f"spinbath {__version__}",
             *configio.format_flat(cfg.to_dict()).splitlines(), *extra]
    return "".join(f"# {line}\n" for line in lines)


def _csv(comments: str, names, groups):
    """CSV text: the comment block, the header, then each group's rows.

    ``groups`` is a list of ``(lead, columns)`` pairs, one per group of
    rows: ``lead`` holds the cells that are constant over the group (a
    sweep's value, or none), ``columns`` one array per remaining name.  A
    ``run`` or ``spectrum`` table is one group; a sweep is one group per
    value.

    The cells are made ``_BLOCK_ROWS`` rows at a time, and the rows come
    as strings of ``_TEXT_ROWS`` rows, made from one ``_CELL``-byte slot per
    cell with its NUL padding removed.  At these sizes no buffer of a table
    passes about 230 KB, so that formatting adds little to the peak RSS of
    a sweep.  Each lead cell is formatted once per group.  A column whose
    bits are equal in every group (the grid t of any sweep over equal
    grids; gamma, Delta and negativity_ideal too when only the initial
    state or h changes) is formatted once per block, and its slots are kept
    only while a later group still needs them: 32 B per cell, held once per
    sweep, not once per group.  A single-group table holds one block at a
    time.
    """
    yield comments
    yield ",".join(names) + "\n"
    first, later = groups[0][1], groups[1:]
    same_length = all(len(cols[0]) == len(first[0]) for _, cols in later)
    shared = [same_length and all(np.array_equal(col.view(np.uint64),
                                                 cols[j].view(np.uint64))
                                  for _, cols in later)
              for j, col in enumerate(first)]
    kept = {}
    text = bytearray()
    for g, (lead, columns) in enumerate(groups):
        heads = [_fmt(v) for v in lead]
        keep = any(shared) and g + 1 < len(groups)
        n = len(columns[0])
        for start in range(0, n, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n)
            common = kept.pop(start, None)
            if common is None:
                common = {j: _cells(col[start:stop])
                          for j, col in enumerate(columns) if shared[j]}
            if keep:
                kept[start] = common
            cells = [common[j] if shared[j] else _cells(col[start:stop])
                     for j, col in enumerate(columns)]
            for at in range(0, stop - start, _TEXT_ROWS):
                part = [c[at:at + _TEXT_ROWS] for c in cells]
                size = len(part[0]) * (len(heads) + len(part)) * _CELL
                if len(text) < size:
                    text = bytearray(size)
                yield _rows(text, heads, part)


def _rows(text: bytearray, heads, cells) -> str:
    """CSV rows: the cells ``heads`` in every row, then the ``_cells`` of
    each column.

    Each cell fills one ``_CELL``-byte slot of ``text`` that ends in its
    separator, the slots past the rows are NUL, and the rows are ``text``
    without its NUL bytes.  One ``text`` serves a whole table, so a string
    of rows makes no new buffer and no copy of it to bytes.
    """
    slot = np.dtype((np.void, _CELL))
    used = len(cells[0]) * (len(heads) + len(cells)) * _CELL
    raw = np.frombuffer(text, np.uint8)
    raw[used:] = 0
    block = raw[:used].view(slot).reshape(len(cells[0]), -1)
    block[:, :len(heads)] = np.frombuffer(
        "".join(h.ljust(_CELL, "\0") for h in heads).encode(), slot)
    for j, c in enumerate(cells, len(heads)):
        block[:, j] = c.view(slot)[:, 0]
    raw = block.view(np.uint8).reshape(len(block), -1)
    raw[:, _CELL - 1::_CELL] = ord(",")
    raw[:, -1] = ord("\n")
    return text.translate(None, b"\0").decode("ascii")


def _json_rows(names, columns) -> list[dict]:
    return [dict(zip(names, map(_json_num, row)))
            for row in zip(*(col.tolist() for col in columns))]


def _record_json_obj(rec: RunRecord) -> dict:
    return {
        "version": rec.version,
        "config": rec.config.to_dict(),
        "tolerances": rec.tolerances,
        "rows": _json_rows(RunRecord.COLUMNS, rec.columns()),
    }


def _cmd_run(args) -> int:
    rec = run(_load_config(args))
    if args.format == "csv":
        _emit(_csv(_comments(rec.config), RunRecord.COLUMNS,
                   [((), rec.columns())]), args.output)
    else:
        _emit(_json(_record_json_obj(rec)), args.output)
    return 0


def _parse_sweep_values(args) -> list[float]:
    values: list[float] = []
    if args.values:
        for tok in filter(None, map(str.strip, args.values.split(","))):
            v = configio.parse_value(tok)
            if not isinstance(v, (int, float)):
                raise ConfigError(f"sweep value {tok!r} is not numeric")
            values.append(float(v))
    elif args.range:
        try:
            lo_s, hi_s, n_s = args.range.split(":")
            lo, hi, n = float(lo_s), float(hi_s), int(n_s)
        except ValueError as exc:
            raise ConfigError(f"--range expects lo:hi:n, got {args.range!r}") from exc
        if not 1 <= n <= MAX_POINTS:
            raise ConfigError(f"--range n must lie in [1, 1e7], got {n}")
        step = (hi - lo) / (n - 1) if n > 1 else 0.0
        values = [lo + k * step for k in range(n)]
    if not values:
        raise ConfigError("sweep needs a non-empty value list")
    return values


def _cmd_sweep(args) -> int:
    """One run per value; in CSV one table, one ``_csv`` group per value.

    The groups keep each record's own columns: the sweep value is formatted
    once per group, and a column that every group shares once per sweep.
    """
    base = _load_config(args)
    values = _parse_sweep_values(args)
    recs = []
    for v in values:
        nested = base.to_dict()
        configio.set_path(nested, args.field, v)
        recs.append(run(ScenarioConfig.from_dict(nested)))
    if args.format == "csv":
        note = f"sweep {args.field} = " + ",".join(_fmt(v) for v in values)
        _emit(_csv(_comments(base, note), ("sweep_value", *RunRecord.COLUMNS),
                   [((v,), rec.columns()) for v, rec in zip(values, recs)]),
              args.output)
    else:
        _emit(_json({
            "version": __version__,
            "sweep_field": args.field,
            "base_config": base.to_dict(),
            "groups": [{"sweep_value": v, **_record_json_obj(rec)}
                       for v, rec in zip(values, recs)],
        }), args.output)
    return 0


def _cmd_spectrum(args) -> int:
    cfg = _load_config(args)
    omega_c = cfg.bath.omega_c
    lo = args.omega_min if args.omega_min is not None else omega_c / 1000.0
    hi = args.omega_max if args.omega_max is not None else 2.0 * omega_c
    if not 0.0 < lo < hi < math.inf:
        raise ConfigError(f"need finite 0 < omega-min < omega-max, "
                          f"got [{lo}, {hi}]")
    if not 2 <= args.n <= MAX_POINTS:
        raise ConfigError(f"spectrum --n must lie in [2, 1e7], got {args.n}")
    omegas = np.linspace(lo, hi, args.n)
    with np.errstate(all="ignore"):
        js = evaluate(cfg.bath, omegas)
    bad = ~np.isfinite(js)
    if bad.any():
        raise ComputeError(f"J(omega) is not finite at omega = "
                           f"{omegas[bad][0]:.17g}")
    names = ("omega", "J")
    if args.format == "csv":
        _emit(_csv(_comments(cfg), names, [((), (omegas, js))]), args.output)
    else:
        _emit(_json({"version": __version__, "config": cfg.to_dict(),
                     "rows": _json_rows(names, (omegas, js))}), args.output)
    return 0


def _cmd_state_dump(args) -> int:
    cfg = _load_config(args)
    try:
        t = float(args.t)
    except ValueError:
        t = math.nan
    if not (math.isfinite(t) and t >= 0):
        raise ConfigError(f"--t expects a finite time >= 0, got {args.t!r}")
    df = factors(cfg.bath, BathConditions(cfg.beta), t)
    state = evolve(bloch_product_to_general(cfg.init), df, FieldConfig(cfg.h), t)
    _emit(_json({
        "version": __version__,
        "config": cfg.to_dict(),
        "t": t,
        "gamma": _json_num(df.gamma),
        "delta": _json_num(df.delta),
        "gamma_divergent": math.isinf(df.gamma),
        "rho": state.to_json_obj(),
    }), args.output)
    return 0


def _cmd_preset(args) -> int:
    presets = builtin_presets()
    if args.name not in presets:
        raise ConfigError(f"unknown preset {args.name!r}")
    _emit([configio.format_flat(presets[args.name].to_dict()) + "\n"],
          args.output)
    return 0


def _cmd_list_presets(args) -> int:
    _emit((f"{name}\n" for name in sorted(builtin_presets())), args.output)
    return 0


def _add_config_args(sub, with_format=True):
    sub.add_argument("--preset", help="builtin preset name")
    sub.add_argument("--config", help="path to a key = value config file")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override a config field (repeatable)")
    sub.add_argument("--output", "-o", default=None,
                     help="output path (default: stdout)")
    if with_format:
        sub.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinbath",
        description="Dephasing dynamics and entanglement negativity of two "
                    "spins in a common bosonic bath (natural units).")
    parser.add_argument("--version", action="version",
                        version=f"spinbath {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("run", help="run one scenario")
    _add_config_args(sub)
    sub.set_defaults(func=_cmd_run)

    sub = subs.add_parser("sweep", help="run a scenario for several values "
                                        "of one field")
    _add_config_args(sub)
    sub.add_argument("--field", required=True,
                     help="dotted config field, e.g. bath.q or init.theta")
    sub.add_argument("--values", help="comma-separated values (pi allowed)")
    sub.add_argument("--range", help="lo:hi:n linear value range")
    sub.set_defaults(func=_cmd_sweep)

    sub = subs.add_parser("spectrum", help="tabulate J(omega) for the bath")
    _add_config_args(sub)
    sub.add_argument("--omega-min", type=float, default=None)
    sub.add_argument("--omega-max", type=float, default=None)
    sub.add_argument("--n", type=int, default=1001)
    sub.set_defaults(func=_cmd_spectrum)

    sub = subs.add_parser("state-dump", help="evolved density matrix at one "
                                             "time, as JSON [re, im] pairs")
    _add_config_args(sub, with_format=False)
    sub.add_argument("--t", required=True, help="evolution time")
    sub.set_defaults(func=_cmd_state_dump)

    sub = subs.add_parser("preset", help="print a builtin preset as config text")
    sub.add_argument("name")
    sub.add_argument("--output", "-o", default=None)
    sub.set_defaults(func=_cmd_preset)

    sub = subs.add_parser("list-presets", help="list builtin preset names")
    sub.add_argument("--output", "-o", default=None)
    sub.set_defaults(func=_cmd_list_presets)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 2 on a usage error, 0 on --help
        return exc.code
    try:
        return args.func(args)
    except SpinBathError as exc:
        print(f"spinbath: {exc}", file=sys.stderr)
        if isinstance(exc, _IoFailure):
            return 4
        return 2 if isinstance(exc, (ConfigError, NotPointwise)) else 3


if __name__ == "__main__":
    sys.exit(main())
