"""landau_td benchmark entry point.

    python3 bench/run.py --workload dynamics --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Workloads: dynamics, coherent, moments, cli
(see bench/README.md).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separate traced run.  The last
stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the full result (inputs digest, per-op records, failure
reasons, environment) is written under ``.bench_out/``.

This process only orchestrates and imports no numerical code.  It starts
``SETUP_STARTS`` fresh worker processes one after another; each reports the
CPU time it took to reach its first timed op and its speed factor
(speed.py), and the median of those CPU times, each divided by its factor,
is ``setup_s``.  Op times are normalised the same way (``end_to_end`` in
worker.py).  The last worker goes on to run the op list.  A traced run
starts one worker and reports no ``setup_s``.  Every process it
starts runs with BLAS/OpenMP pools capped at one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from time import perf_counter

from workloads import GENERATORS, KNOWN_DEFECTS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_STARTS = 3
RUN_TIMEOUT_S = 170.0
THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "LANDAU_TD_THREADS": "1",
}
LIMITS = (
    "No CPU pinning, page-cache dropping, cgroup or other machine setting is "
    "used; the only knobs are the thread caps of this process tree.",
    "The known Tier-1 failure tests/test_cli.py::TestEnvironment::"
    "test_version_and_help (--version needs installed package metadata) is "
    "outside the benchmark, which never calls --version.",
)


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class WorkerFailed(RuntimeError):
    pass


def run_worker(args, env, setup_only: bool, deadline: float):
    """Run one worker to its end; return (its CPU seconds until ready, its
    speed factor, wall seconds until ready, the rest of its stdout).  A watchdog kills it at the run deadline."""
    cmd = [
        sys.executable,
        os.path.join(BENCH_DIR, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", OUT_DIR,
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, env=env, cwd=ROOT, text=True)
    watchdog = threading.Timer(max(0.0, deadline - t0), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready = perf_counter() - t0
        line += proc.stdout.readline()
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    words = line.split()
    if len(words) != 4 or words[0] != "ready" or words[2] != "speed":
        raise WorkerFailed(f"worker did not reach its first op (exit {proc.returncode})")
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with {proc.returncode}")
    return float(words[1]), float(words[3]), ready, rest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    if not os.path.isfile(os.path.join(SRC, "landau_td", "__init__.py")):
        print(f"error: no landau_td sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=SRC, **THREAD_CAPS)
    deadline = perf_counter() + RUN_TIMEOUT_S
    starts = 1 if args.trace else SETUP_STARTS
    setup, setup_cpu, setup_wall = [], [], []
    try:
        for i in range(starts):
            cpu, factor, wall, out = run_worker(args, env, i < starts - 1, deadline)
            setup.append(cpu / factor)
            setup_cpu.append(cpu)
            setup_wall.append(wall)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    payload = json.loads(out.strip().splitlines()[-1])
    metrics = payload["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup)
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    records = payload["records"]
    failed = [r for r in records if not r["passed"]]
    unexplained = [r for r in failed if r["known_defect"] is None]
    known = sorted({r["known_defect"] for r in failed if r["known_defect"]})
    payload.update(
        trace=args.trace,
        seconds=args.seconds,
        setup_samples_s=setup,
        setup_cpu_samples_s=setup_cpu,
        setup_wall_samples_s=setup_wall,
        units=units,
        limits=LIMITS,
        failures={
            "count": len(failed),
            "unexplained": len(unexplained),
            "known_defects": {k: KNOWN_DEFECTS[k] for k in known},
        },
    )
    result_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)

    for name in sorted(metrics):
        print(f"{args.workload} {name} = {metrics[name]!r} {units[name]}")
    notes = payload["notes"]
    if not args.trace:
        print(
            f"{args.workload}: {notes['ops']} ops, norm_latency_tail_ms is p{notes['tail_percentile']} "
            f"({notes['tail_samples_beyond']} samples beyond); {len(failed)} failed "
            f"({len(unexplained)} unexplained); inputs {payload['inputs_digest'][:16]}"
        )
        print(f"{args.workload} residual_ratio_max = {notes['residual_ratio_max']!r} ratio (recorded, not gated)")
        for prefix in ("cpu", "wall"):
            for name, unit in (("ops_per_s", "1/s"), ("latency_p50_ms", "ms"), ("latency_tail_ms", "ms")):
                value = notes[f"{prefix}_{name}"]
                print(f"{args.workload} {prefix}_{name} = {value!r} {unit} (recorded, not gated)")
        print(f"{args.workload} cpu_setup_s = {statistics.median(setup_cpu)!r} s (recorded, not gated)")
        print(f"{args.workload} wall_setup_s = {statistics.median(setup_wall)!r} s (recorded, not gated)")
        print(f"{args.workload} speed_factor = {notes['speed_factor']!r} (> 1: slower than nominal)")
    print(f"result: {os.path.relpath(result_path, ROOT)}")
    print(
        json.dumps(
            {
                "correct": not unexplained,
                "attempted": len(records),
                "failed": len(failed),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
