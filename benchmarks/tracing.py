"""Spans around calls into the program's layer functions.

``Tracer.install`` replaces each public layer function under the name its
caller imported it by (``spinbath.scenario.factors``,
``spinbath.decoherence.integrate_on_interval``, ...) with a wrapper that
records a span: name, start, end, parent span and a few counts taken from
the arguments or the result.  Nothing inside the program is changed, and
``uninstall`` puts the original functions back.

Spans live in memory until ``dump`` writes them out.  A span opened in a
scenario worker thread, with no open span of its own thread, takes the
innermost span open in the main thread (the ``scenario.run`` that started
the pool) as its parent.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
import time

import numpy as np


#: per-layer metric -> unit; every traced run reports all of them (lower is better)
LAYER_METRICS = {
    "spectral.evaluate.calls": "count",
    "spectral.evaluate.points": "count",
    "spectral.evaluate.s": "s",
    "quadrature.calls": "count",
    "quadrature.evals": "count",
    "quadrature.unconverged": "count",
    "quadrature.self_s": "s",
    "decoherence.factors.calls": "count",
    "decoherence.factors.self_s": "s",
    "decoherence.factors.p50_ms": "ms",
    "decoherence.factors.p90_ms": "ms",
    "dynamics.evolve.calls": "count",
    "dynamics.evolve.s": "s",
    "entanglement.pt_spectra.matrices": "count",
    "entanglement.pt_spectra.s": "s",
    "entanglement.closed_form.calls": "count",
    "entanglement.closed_form.s": "s",
    "entanglement.ideal.calls": "count",
    "entanglement.ideal.s": "s",
    "scenario.run.calls": "count",
    "scenario.run.self_s": "s",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.uncovered_share": "fraction",
    "trace.spans": "count",
}

# (module, attribute, span name, count from (args, kwargs, result))
_LAYER_FUNCTIONS = [
    ("spectral", "evaluate", "spectral.evaluate",
     lambda a, k, r: {"points": int(np.size(a[1] if len(a) > 1 else k["omega"]))}),
    ("decoherence", "integrate_on_interval", "quadrature",
     lambda a, k, r: {"evals": r.evals, "unconverged": int(not r.converged)}),
    ("decoherence", "integrate_semi_infinite", "quadrature",
     lambda a, k, r: {"evals": r.evals, "unconverged": int(not r.converged)}),
    ("scenario", "factors", "decoherence.factors", None),
    ("scenario", "evolve", "dynamics.evolve", None),
    ("scenario", "pt_spectra", "entanglement.pt_spectra",
     lambda a, k, r: {"matrices": int(np.shape(r)[0]) if np.ndim(r) == 2 else 1}),
    ("scenario", "negativity_closed_form", "entanglement.closed_form", None),
    ("scenario", "ideal_negativity", "entanglement.ideal", None),
    ("scenario", "run", "scenario.run", None),
    ("cli", "run", "scenario.run", None),
    ("cli", "main", "cli.main", None),
]


class Tracer:
    def __init__(self):
        self.spans: dict[int, tuple] = {}  # id -> (name, start, end, parent, counts)
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._saved: list[tuple] = []

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, counts=None):
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = (counts(args, kwargs, result)
                         if counts is not None and result is not None else {})
                self.spans[sid] = (name, start, end, parent, extra)
        return traced

    def install(self, package) -> None:
        for mod_name, attr, name, counts in _LAYER_FUNCTIONS:
            module = getattr(package, mod_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, counts))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def dump(self, path) -> None:
        rows = [{"id": sid, "name": n, "start": s, "end": e, "parent": p, **c}
                for sid, (n, s, e, p, c) in sorted(self.spans.items())]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


def _union_length(intervals, lo=-math.inf, hi=math.inf) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def layer_metrics(spans: dict, wall_s: float) -> dict:
    """Per-layer counts and times from one traced pass.

    Self time is a span's duration minus the part of its interval that its
    child spans cover; children running on two threads at once are covered
    once.  Totals (``.s``) add span durations, so layer time spent in two
    threads at once counts twice.
    """
    children: dict[int, list] = {}
    roots = []
    for sid, (_, s, e, parent, _) in spans.items():
        if parent is None:
            roots.append((s, e))
        else:
            children.setdefault(parent, []).append((s, e))

    agg: dict[str, dict] = {}
    factor_ms = []
    for sid, (name, s, e, _, counts) in spans.items():
        a = agg.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        a["calls"] += 1
        a["s"] += e - s
        a["self_s"] += (e - s) - _union_length(children.get(sid, ()), s, e)
        for key, value in counts.items():
            a[key] = a.get(key, 0) + value
        if name == "decoherence.factors":
            factor_ms.append(1e3 * (e - s))

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    p50, p90 = (np.percentile(factor_ms, [50, 90]).tolist()
                if factor_ms else (0.0, 0.0))
    return {
        "spectral.evaluate.calls": get("spectral.evaluate", "calls"),
        "spectral.evaluate.points": get("spectral.evaluate", "points"),
        "spectral.evaluate.s": get("spectral.evaluate", "s"),
        "quadrature.calls": get("quadrature", "calls"),
        "quadrature.evals": get("quadrature", "evals"),
        "quadrature.unconverged": get("quadrature", "unconverged"),
        "quadrature.self_s": get("quadrature", "self_s"),
        "decoherence.factors.calls": get("decoherence.factors", "calls"),
        "decoherence.factors.self_s": get("decoherence.factors", "self_s"),
        "decoherence.factors.p50_ms": p50,
        "decoherence.factors.p90_ms": p90,
        "dynamics.evolve.calls": get("dynamics.evolve", "calls"),
        "dynamics.evolve.s": get("dynamics.evolve", "s"),
        "entanglement.pt_spectra.matrices": get("entanglement.pt_spectra", "matrices"),
        "entanglement.pt_spectra.s": get("entanglement.pt_spectra", "s"),
        "entanglement.closed_form.calls": get("entanglement.closed_form", "calls"),
        "entanglement.closed_form.s": get("entanglement.closed_form", "s"),
        "entanglement.ideal.calls": get("entanglement.ideal", "calls"),
        "entanglement.ideal.s": get("entanglement.ideal", "s"),
        "scenario.run.calls": get("scenario.run", "calls"),
        "scenario.run.self_s": get("scenario.run", "self_s"),
        "cli.main.self_s": get("cli.main", "self_s"),
        "trace.spans": len(spans),
        "trace.uncovered_share": 1.0 - _union_length(roots) / wall_s,
    }
