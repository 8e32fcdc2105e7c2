"""specoord benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload dsl_sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload

Each workload runs in a process of its own (perfbench/worker.py), one at a
time, with BLAS and OpenMP pinned to one thread.  ``--trace 0`` reports the
end-to-end metrics; set-up is measured in ``SETUP_REPEATS`` processes and
its median reported.  ``--trace 1`` is a separate run that reports the
per-layer metrics and the tracing overhead.  The last line of stdout is one
JSON object: correct, attempted, failed and metrics.  The exit code is 0
when every op's output passed its check, 1 when one did not, and 2 when the
benchmark could not run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dsl_sweep", "iwf_binder", "two_user_study")
SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0

# The metrics of the result line, as listed in BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Printed with each run but left out of the result line: the median and
# tail of a run's op times jump between the machine's fast and slow
# states, so two sets of runs of the same code disagree on them by more
# than a regression bound (see README.md).
PRINTED_ONLY = {
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
}


class BenchmarkError(Exception):
    """The benchmark itself could not run."""


def _worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker timed out: {' '.join(args)}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker exited {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> dict:
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if trace:
        return _worker(base, deadline)
    setups = [_worker(base + ["--setup-only"], deadline)["setup_s"]
              for _ in range(SETUP_REPEATS - 1)]
    result = _worker(base, deadline)
    setups.append(result["setup_s"])
    result["setup_runs"] = setups
    result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def _units(trace: int) -> dict:
    if not trace:
        return END_TO_END
    import tracer
    return dict(tracer.PER_LAYER + tracer.RUN_METRICS)


def report(result: dict, units: dict) -> None:
    """Human-readable lines for one workload run."""
    name, m = result["workload"], result["metrics"]
    failed, attempted = result["failed"], result["attempted"]
    print(f"== {name}  seed {result['seed']}  inputs sha256 "
          f"{result['inputs_sha256'][:16]}")
    if "spans_file" in result:
        print(f"   traced {result['ops']} ops; spans in "
              f"{os.path.relpath(result['spans_file'], ROOT)}")
    else:
        print(f"   {result['ops']} ops in {result['wall_s']:.1f} s, closed loop, "
              f"1 client; set-up runs (s): "
              + " ".join(f"{s:.3f}" for s in result["setup_runs"]))
    for key, unit in units.items():
        note = ""
        if key == "op_ms_tail":
            note = (f"  (p{result['tail_pct']:g} of {result['ops']} ops, "
                    f"{result['tail_beyond']} beyond)")
        elif key == "setup_s":
            note = f"  (median of {len(result['setup_runs'])} set-ups)"
        value = m[key]
        text = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
        print(f"   {key:46s} {text:>16s} {unit}{note}")
    print(f"   {'failed_frac':46s} {failed / attempted:>16.6g} ratio"
          f"  ({failed} of {attempted} ops)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measured time per untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "specoord", "__init__.py")):
        print("specoord sources not found under src/; run from a full checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    units = _units(args.trace)
    shown = units if args.trace else {**units, **PRINTED_ONLY}
    try:
        results = [run_workload(n, args.seed, args.seconds, args.trace, deadline)
                   for n in names]
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    for result in results:
        report(result, shown)
    prefix = len(results) > 1
    metrics = {(f"{r['workload']}.{key}" if prefix else key):
               {"value": r["metrics"][key], "unit": unit}
               for r in results for key, unit in units.items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
