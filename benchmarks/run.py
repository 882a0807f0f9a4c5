"""Benchmark entry point: checked workload runs, one JSON result line.

    python3 benchmarks/run.py --workload ohmic_figures --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root.  ``--trace 0`` reports the end-to-end metrics
(setup_s, wall_s, peak_rss_mb); ``--trace 1`` reports the per-layer metrics
of one traced pass and the tracing overhead.  Both check every output and
count attempted and failed operations.  Each workload runs in its own fresh
interpreter (``worker.py``) with DEPHASE_THREADS set to the number of usable
cores; set-up is timed in further fresh interpreters.  Scratch files go to
``.bench_out/`` and are removed at the end, except the last trace's spans.
With ``--workload all`` the last line sums the counts and prefixes each
metric with its workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

#: fresh interpreters timed for setup_s before and again after the
#: workload, so that a slow spell of the machine moves only some of them;
#: an untimed run first warms the file cache and, unless
#: PYTHONDONTWRITEBYTECODE is set, writes the bytecode cache
SETUP_RUNS = 8
SETUP_CODE = ("import spinbath, spinbath.cli, spinbath.scenario; "
              "spinbath.scenario.builtin_presets(); spinbath.cli.build_parser()")
#: per workload, inside the 180 s a run may take
RUN_LIMIT_S = 170.0


class BenchmarkError(Exception):
    pass


def _setup_times(env, runs) -> list[float]:
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], env=env,
                                stdout=subprocess.DEVNULL)
        # a blocking wait returns when the child exits; wait(timeout) would
        # poll and round the time up to its 50 ms sleep steps
        watchdog = threading.Timer(60.0, proc.kill)
        watchdog.start()
        try:
            rc = proc.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - start)
        if rc != 0:
            raise BenchmarkError(f"set-up interpreter exited with {rc}")
    return times


def _host_reference_s() -> float:
    """Seconds for a fixed numpy loop that does not touch spinbath.

    Printed before and after the workload so that a slow spell of a shared
    host can be told apart from a slower program."""
    import numpy as np
    x = np.linspace(0.0, 1.0, 4096)
    for k in range(200):  # warm-up, untimed
        np.sum(np.sin(x * k))
    start = time.perf_counter()
    for k in range(2000):
        np.sum(np.sin(x * k))
    return time.perf_counter() - start


def _check_outputs(result, out_dir) -> list[str]:
    import numpy as np
    import checks

    spec = result["spec"]
    ops = {op["name"]: op for op in spec["ops"]}
    problems = []
    failed = {f["op"] for f in result["failures"]}
    for f in result["failures"]:
        if f["error"] != ops[f["op"]]["expect"]:
            problems.append(f"{f['op']}: unexpected {f['error']}: {f['message']}")
    first = result["digests"][0]
    for k, digests in enumerate(result["digests"][1:], start=2):
        for name, digest in digests.items():
            if name in first and digest != first[name]:
                problems.append(f"{name}: pass {k} output differs from pass 1")
    records = {}
    for name, op in ops.items():
        if name in failed:
            continue
        path = os.path.join(out_dir, name)
        if op["kind"] == "run":
            with np.load(path + ".npz") as z:
                records[name] = {key: z[key] for key in z.files}
            problems += checks.check_record(name, op["config"], records[name])
        else:
            with open(path + ".first.csv", encoding="utf-8") as fh:
                problems += checks.check_sweep_csv(name, op, fh.read())
    for k, index in spec["mp_samples"]:
        op = spec["ops"][k]
        if op["name"] in records:
            problems += checks.check_mpmath(op["name"], op["config"],
                                            records[op["name"]], index)
    return problems


def run_workload(root, env, workload, seed, seconds, trace) -> dict:
    """One checked workload run; prints its summary, returns the result."""
    t_begin = time.perf_counter()
    out_dir = os.path.join(root, ".bench_out", f"run-{os.getpid()}-{workload}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        host = [_host_reference_s()]
        setup = [] if trace else _setup_times(env, SETUP_RUNS + 1)[1:]
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out", out_dir]
        try:
            proc = subprocess.run(
                cmd, env=env, capture_output=True, text=True,
                timeout=RUN_LIMIT_S - (time.perf_counter() - t_begin))
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"{workload} exceeded {RUN_LIMIT_S:.0f} s")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            raise BenchmarkError(f"{workload} worker exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        host.append(_host_reference_s())
        if not trace:
            setup += _setup_times(env, SETUP_RUNS)
        problems = _check_outputs(result, out_dir)
        if trace:
            shutil.move(os.path.join(out_dir, "spans.json"),
                        os.path.join(root, ".bench_out", f"spans-{workload}.json"))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for problem in problems:
        print(f"CHECK FAILED {problem}")
    walls = result["walls"]
    print(f"workload {workload} seed {seed}: {len(walls)} passes, "
          f"DEPHASE_THREADS={result['threads']}, "
          f"pass wall s {', '.join(f'{w:.3f}' for w in walls)}, "
          f"pass cpu s {', '.join(f'{c:.3f}' for c in result['cpus'])}, "
          f"host reference s {host[0]:.3f} before, {host[1]:.3f} after")
    print("first pass, wall s per operation: " + ", ".join(
        f"{name} {w:.3f}" for name, w in result["op_walls"].items()))
    for f in result["failures"][:len(result["failures"]) // len(walls)]:
        print(f"failed op {f['op']}: {f['error']}: {f['message']}")
    if trace:
        metrics = {name: {"value": result["layer_metrics"][name], "unit": unit}
                   for name, unit in LAYER_METRICS.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  attempted = {result['attempted']}, failed = {len(result['failures'])}")
    return {"correct": not problems, "attempted": result["attempted"],
            "failed": len(result["failures"]), "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    try:
        if not os.path.isfile(os.path.join(src, "spinbath", "__init__.py")):
            raise BenchmarkError(f"no spinbath source under {src}; "
                                 f"run from the repository root")
        try:
            import mpmath  # noqa: F401
            import numpy  # noqa: F401
        except ImportError as exc:
            raise BenchmarkError(f"missing dependency: {exc}")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["DEPHASE_THREADS"] = str(len(os.sched_getaffinity(0)))
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        results = {name: run_workload(root, env, name, args.seed, args.seconds,
                                      args.trace)
                   for name in names}
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2

    if len(results) == 1:
        (out,) = results.values()
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{name}.{metric}": m
                           for name, r in results.items()
                           for metric, m in r["metrics"].items()}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
