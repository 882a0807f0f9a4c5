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
``"inf"`` in JSON, which never holds NaN.
"""

from __future__ import annotations

import argparse
import contextlib
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
_BLOCK_ROWS = 4096


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf"
    if x == 0.0:
        return "0"
    return f"{x:.17g}"


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


def _block(columns, start: int, rows: int) -> np.ndarray:
    """Rows ``start:start + rows`` of ``columns`` as a (rows, k) array, brought
    to the two values that "%.17g" writes unlike ``_fmt``: + 0.0 turns -0.0
    into 0, and -inf becomes inf."""
    block = np.empty((rows, len(columns)))
    for j, col in enumerate(columns):
        block[:, j] = col[start:start + rows]
    block += 0.0
    block[block == -np.inf] = np.inf
    return block


def _csv(comments: str, names, groups):
    """CSV text: the comment block, the header, then each group's rows.

    ``groups`` is a list of ``(lead, columns)`` pairs, one per group of
    rows: ``lead`` holds the cells that are constant over the group (a
    sweep's value, or none), ``columns`` one array per remaining name.  A
    ``run`` or ``spectrum`` table is one group; a sweep is one group per
    value.

    The rows come ``_BLOCK_ROWS`` at a time, each block as one string.  Each
    lead cell is formatted once per group.  A column whose bits are equal
    in every group (the grid t of any sweep over equal grids; gamma, Delta
    and negativity_ideal too when only the initial state or h changes) is
    formatted once per block, into a row template in which every other
    cell is a placeholder; each group then fills in its own cells in one
    "%" operation.  A template is kept only while a later group still
    needs it: about 100 B per grid point, held once per sweep, not once
    per group.  A single-group table holds one block at a time.
    """
    yield comments
    yield ",".join(names) + "\n"
    first, later = groups[0][1], groups[1:]
    same_length = all(len(cols[0]) == len(first[0]) for _, cols in later)
    shared = [same_length and all(np.array_equal(col.view(np.uint64),
                                                 cols[j].view(np.uint64))
                                  for _, cols in later)
              for j, col in enumerate(first)]
    line = ",".join(["%%s"] * len(groups[0][0]) +
                    ["%.17g" if s else "%%.17g" for s in shared]) + "\n"
    templates = {}
    for g, (lead, columns) in enumerate(groups):
        heads = [_fmt(v) for v in lead]
        common = [col for col, s in zip(columns, shared) if s]
        own = [col for col, s in zip(columns, shared) if not s]
        keep = bool(common) and g + 1 < len(groups)
        n = len(columns[0])
        for start in range(0, n, _BLOCK_ROWS):
            rows = min(_BLOCK_ROWS, n - start)
            template = templates.pop(start, None)
            if template is None:
                template = (line * rows) % tuple(
                    _block(common, start, rows).ravel().tolist())
            if keep:
                templates[start] = template
            if not (heads or own):
                yield template
                continue
            cells = np.empty((rows, len(heads) + len(own)), dtype=object)
            cells[:, :len(heads)] = heads
            cells[:, len(heads):] = _block(own, start, rows)
            yield template % tuple(cells.ravel().tolist())


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
