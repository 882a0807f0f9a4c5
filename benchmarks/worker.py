"""One workload in a fresh interpreter: timed passes, outputs, layer spans.

Started by ``run.py`` with ``src/`` on PYTHONPATH.  Prints one JSON object
as its last stdout line: pass wall times, operations attempted, failures
with their error class, output digests per pass, peak RSS and, with
``--trace 1``, the per-layer metrics of one traced pass.  The outputs of the
first pass go to ``--out`` for ``checks.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

import spinbath
import spinbath.cli
import spinbath.scenario
from tracing import Tracer, layer_metrics
import workloads

_COLUMNS = ("t", "gamma", "delta", "negativity", "negativity_ideal", "purity")


def _prepare(op, out_dir):
    """A zero-argument callable for the operation, built outside the timing."""
    if op["kind"] == "run":
        cfg = spinbath.scenario.ScenarioConfig.from_dict(op["config"])
        # looked up per call, so a traced pass goes through the wrapper
        return lambda: spinbath.scenario.run(cfg)
    path = os.path.join(out_dir, f"{op['name']}.csv")
    argv = op["argv"] + ["--output", path]

    def call():
        rc = spinbath.cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"exit code {rc}")
        return path
    return call


def _digest(op, result) -> str:
    h = hashlib.sha256()
    if op["kind"] == "run":
        for name in _COLUMNS:
            h.update(np.ascontiguousarray(getattr(result, name)).tobytes())
    else:
        with open(result, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _save(op, result, out_dir) -> None:
    if op["kind"] == "run":
        np.savez(os.path.join(out_dir, f"{op['name']}.npz"),
                 **{name: getattr(result, name) for name in _COLUMNS})
    else:
        os.replace(result, os.path.join(out_dir, f"{op['name']}.first.csv"))


def _one_pass(calls, ops):
    """Run every operation once.

    Returns wall and CPU seconds of the pass, the wall seconds of each
    operation, the results and the failures.
    """
    results, failures, op_walls = [], [], []
    cpu = time.process_time()
    start = time.perf_counter()
    for op, call in zip(ops, calls):
        op_start = time.perf_counter()
        try:
            results.append(call())
        # a benchmark boundary: any failure is recorded, not raised
        except Exception as exc:  # noqa: BLE001
            results.append(None)
            failures.append({"op": op["name"], "error": type(exc).__name__,
                             "message": str(exc)[:200]})
        op_walls.append(time.perf_counter() - op_start)
    wall = time.perf_counter() - start
    return wall, time.process_time() - cpu, op_walls, results, failures


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    spec = workloads.make(args.workload, args.seed)
    ops = spec["ops"]
    calls = [_prepare(op, args.out) for op in ops]
    walls, cpus, failures, digests = [], [], [], []
    tracer = Tracer()

    while True:
        # with --trace 1: one untraced pass, then one traced pass
        traced = bool(args.trace) and len(walls) == 1
        if traced:
            tracer.install(spinbath)
        try:
            wall, cpu, op_walls, results, fails = _one_pass(calls, ops)
        finally:
            tracer.uninstall()
        walls.append(wall)
        cpus.append(cpu)
        failures += fails
        digests.append({op["name"]: _digest(op, r)
                        for op, r in zip(ops, results) if r is not None})
        if len(walls) == 1:
            first_op_walls = dict(zip((op["name"] for op in ops), op_walls))
            for op, r in zip(ops, results):
                if r is not None:
                    _save(op, r, args.out)
        if traced:
            cli_bytes = sum(os.path.getsize(r) for op, r in zip(ops, results)
                            if r is not None and op["kind"] == "cli")
            break
        # whole passes only, so failed/attempted is the same in every run
        if not args.trace and sum(walls) + statistics.median(walls) > args.seconds:
            break

    out = {
        "walls": walls,
        "cpus": cpus,
        "op_walls": first_op_walls,
        "attempted": len(walls) * len(ops),
        "failures": failures,
        "digests": digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "threads": os.environ.get("DEPHASE_THREADS"),
        "spec": spec,
    }
    if args.trace:
        metrics = layer_metrics(tracer.spans, walls[1])
        metrics["cli.output_bytes"] = cli_bytes
        metrics["trace.wall_s"] = walls[1]
        metrics["trace.overhead_s"] = walls[1] - walls[0]
        out["layer_metrics"] = metrics
        tracer.dump(os.path.join(args.out, "spans.json"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
