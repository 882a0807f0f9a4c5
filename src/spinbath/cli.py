"""Command-line front end: run scenarios, sweeps, spectra, state dumps.

Subcommands
-----------
run          evaluate one scenario, emit its record as CSV or JSON
preset       print a builtin preset as editable config text
list-presets list builtin preset names
sweep        re-run a scenario over a list of values for one config field
spectrum     tabulate the bath spectral density J(omega)
state-dump   emit the evolved two-spin state at one time as JSON

Exit codes: 0 success, 2 configuration error, 3 compute error, 4 I/O error.
Data goes to stdout (or --output); diagnostics go to stderr.  Numbers are
printed with 17 significant digits so files re-parse to identical values; a
divergent dephasing exponent prints as ``inf``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__, configio
from .decoherence import BathConditions, factors
from .dynamics import FieldConfig, bloch_product_to_general, evolve
from .errors import ComputeError, ConfigError, NotPointwise, SpinBathError
from .scenario import RunRecord, ScenarioConfig, builtin_presets, run
from .spectral import SingleMode, evaluate

_EXIT_CONFIG = 2
_EXIT_COMPUTE = 3
_EXIT_IO = 4


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf"
    if x == 0.0:
        return "0"
    return f"{float(x):.17g}"


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


def _emit(text: str, output: str | None) -> None:
    if output in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _IoFailure(f"cannot write {output!r}: {exc}")


def _config_comment_lines(cfg: ScenarioConfig) -> list[str]:
    lines = [f"# spinbath {__version__}"]
    lines += [f"# {line}" for line in configio.format_flat(cfg.to_dict()).splitlines()]
    return lines


def _record_csv(rec: RunRecord, sweep_header: str | None = None,
                sweep_value: float | None = None,
                include_comments: bool = True) -> list[str]:
    lines = []
    if include_comments:
        lines += _config_comment_lines(rec.config)
    header = ",".join(RunRecord.COLUMNS)
    if sweep_header is not None:
        header = "sweep_value," + header
    lines.append(header)
    cols = rec.columns()
    for i in range(len(rec.t)):
        row = ",".join(_fmt(col[i]) for col in cols)
        if sweep_value is not None:
            row = _fmt(sweep_value) + "," + row
        lines.append(row)
    return lines


def _record_json_obj(rec: RunRecord) -> dict:
    rows = []
    for i in range(len(rec.t)):
        rows.append({name: _json_num(col[i])
                     for name, col in zip(RunRecord.COLUMNS, rec.columns())})
    obj = {
        "version": rec.version,
        "config": rec.config.to_dict(),
        "tolerances": rec.tolerances,
        "rows": rows,
    }
    if rec.states is not None:
        obj["states"] = rec.states
    return obj


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    rec = run(cfg)
    if args.format == "csv":
        _emit("\n".join(_record_csv(rec)) + "\n", args.output)
    else:
        _emit(json.dumps(_record_json_obj(rec), sort_keys=True, indent=1) + "\n",
              args.output)
    return 0


def _parse_sweep_values(args) -> list[float]:
    values: list[float] = []
    if args.values:
        for tok in args.values.split(","):
            tok = tok.strip()
            if not tok:
                continue
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
        if n < 1:
            raise ConfigError("--range needs n >= 1")
        step = (hi - lo) / (n - 1) if n > 1 else 0.0
        values = [lo + k * step for k in range(n)]
    if not values:
        raise ConfigError("sweep needs a non-empty value list")
    return values


def _cmd_sweep(args) -> int:
    base = _load_config(args)
    values = _parse_sweep_values(args)
    groups = []
    for v in values:
        nested = base.to_dict()
        configio.set_path(nested, args.field, v)
        groups.append((v, run(ScenarioConfig.from_dict(nested))))
    if args.format == "csv":
        lines = _config_comment_lines(base)
        lines.append(f"# sweep {args.field} = "
                     + ",".join(_fmt(v) for v in values))
        first = True
        for v, rec in groups:
            block = _record_csv(rec, sweep_header=args.field, sweep_value=v,
                                include_comments=False)
            lines += block if first else block[1:]
            first = False
        _emit("\n".join(lines) + "\n", args.output)
    else:
        obj = {
            "version": __version__,
            "sweep_field": args.field,
            "base_config": base.to_dict(),
            "groups": [{"sweep_value": v, **_record_json_obj(rec)}
                       for v, rec in groups],
        }
        _emit(json.dumps(obj, sort_keys=True, indent=1) + "\n", args.output)
    return 0


def _cmd_spectrum(args) -> int:
    cfg = _load_config(args)
    if isinstance(cfg.bath, SingleMode):
        raise NotPointwise("a single-mode (delta) bath has no pointwise "
                           "spectral density to tabulate")
    omega_c = cfg.bath.omega_c
    lo = args.omega_min if args.omega_min is not None else omega_c / 1000.0
    hi = args.omega_max if args.omega_max is not None else 2.0 * omega_c
    if not (0.0 < lo < hi):
        raise ConfigError(f"need 0 < omega-min < omega-max, got [{lo}, {hi}]")
    if args.n < 2:
        raise ConfigError("spectrum needs at least 2 points")
    import numpy as np
    omegas = np.linspace(lo, hi, args.n)
    js = evaluate(cfg.bath, omegas)
    if args.format == "csv":
        lines = _config_comment_lines(cfg) + ["omega,J"]
        lines += [f"{_fmt(w)},{_fmt(j)}" for w, j in zip(omegas, js)]
        _emit("\n".join(lines) + "\n", args.output)
    else:
        obj = {"version": __version__, "config": cfg.to_dict(),
               "rows": [{"omega": float(w), "J": float(j)}
                        for w, j in zip(omegas, js)]}
        _emit(json.dumps(obj, sort_keys=True, indent=1) + "\n", args.output)
    return 0


def _cmd_state_dump(args) -> int:
    cfg = _load_config(args)
    try:
        t = float(args.t)
    except ValueError as exc:
        raise ConfigError(f"--t expects a number, got {args.t!r}") from exc
    df = factors(cfg.bath, BathConditions(cfg.beta), t)
    state = evolve(bloch_product_to_general(cfg.init), df, FieldConfig(cfg.h), t)
    obj = {
        "version": __version__,
        "config": cfg.to_dict(),
        "t": t,
        "gamma": _json_num(df.gamma),
        "delta": _json_num(df.delta),
        "gamma_divergent": df.gamma_divergent,
        "rho": state.to_json_obj(),
    }
    _emit(json.dumps(obj, sort_keys=True, indent=1) + "\n", args.output)
    return 0


def _cmd_preset(args) -> int:
    presets = builtin_presets()
    if args.name not in presets:
        raise ConfigError(f"unknown preset {args.name!r}")
    _emit(configio.format_flat(presets[args.name].to_dict()) + "\n", args.output)
    return 0


def _cmd_list_presets(args) -> int:
    _emit("\n".join(sorted(builtin_presets())) + "\n", args.output)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _IoFailure as exc:
        print(f"spinbath: {exc}", file=sys.stderr)
        return _EXIT_IO
    except (ConfigError, NotPointwise) as exc:
        print(f"spinbath: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except ComputeError as exc:
        print(f"spinbath: {exc}", file=sys.stderr)
        return _EXIT_COMPUTE
    except SpinBathError as exc:
        print(f"spinbath: {exc}", file=sys.stderr)
        return _EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
