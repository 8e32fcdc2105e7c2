"""Run one benchmark workload in this process; print the result as JSON.

run.py starts this script once per workload run (and once per extra
set-up measurement), with the checkout's src/ as PYTHONPATH and BLAS and
OpenMP pinned to one thread.  The last line of stdout is a JSON object.

Untraced (``--trace 0``): import specoord and build the inputs (timed as
set-up), run one warm-up op, then run ops back to back, one client in a
closed loop, in whole rounds until ``--seconds`` have passed.  Every op's
output, the warm-up's too, is checked.

Traced (``--trace 1``): build the inputs with the tracer installed, then
run the workload's fixed list of ``trace_ops`` ops twice each, once
untraced and once traced, alternating which goes first.  The per-layer
metrics come from the traced passes; the difference of the two passes'
op time is the tracing overhead.  A fixed op list, rather than a time
limit, makes the counts repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
MAX_REPORTED_FAILURES = 3


def _percentile(sorted_values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


class Runner:
    """Runs and checks ops of one workload, counting the failures.

    With a tracer, ``op(i, traced=True)`` installs it for the op's run only;
    preparing and checking the op stay untraced.
    """

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0

    def op(self, i: int, traced: bool = False) -> float:
        """Run op i once; return its wall time in seconds."""
        wl = self.workload
        wl.prepare(i)
        self.attempted += 1
        error = None
        if traced:
            self.tracer.op = i
            self.tracer.install()
        start = time.perf_counter()
        try:
            out = wl.run(i)
        except Exception as exc:  # a failed op is counted, the run goes on
            error = exc
        elapsed = time.perf_counter() - start
        if traced:
            self.tracer.uninstall()
        if error is None:
            try:
                wl.check(i, out)
            except Exception as exc:
                error = exc
        if error is not None:
            self.failed += 1
            if self.failed <= MAX_REPORTED_FAILURES:
                print(f"op {i} failed:", file=sys.stderr)
                traceback.print_exception(error, file=sys.stderr)
        return elapsed


def measure(runner: Runner, seconds: float) -> dict:
    wl = runner.workload
    runner.op(0)  # warm-up: checked, not timed
    times = []
    begin = time.perf_counter()
    i = 0
    while not times or time.perf_counter() - begin < seconds:
        for _ in range(wl.round_size):
            times.append(runner.op(i))
            i += 1
    wall = time.perf_counter() - begin
    tail = _percentile(sorted(times), wl.tail_pct)
    return {
        "ops": len(times),
        "wall_s": wall,
        "tail_pct": wl.tail_pct,
        "tail_beyond": sum(t > tail for t in times),
        "metrics": {
            "op_ms_p50": statistics.median(times) * 1e3,
            "op_ms_tail": tail * 1e3,
            "ops_per_s": len(times) / sum(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }


def traced(runner: Runner) -> dict:
    wl = runner.workload
    seconds = {False: 0.0, True: 0.0}
    for i in range(wl.trace_ops):
        for use_trace in ((False, True) if i % 2 == 0 else (True, False)):
            seconds[use_trace] += runner.op(i, traced=use_trace)
    metrics = runner.tracer.metrics()
    metrics["trace.ops"] = wl.trace_ops
    metrics["trace.spans"] = len(runner.tracer.span_name)
    metrics["trace.untraced_s"] = seconds[False]
    metrics["trace.overhead_s"] = seconds[True] - seconds[False]
    spans = os.path.join(WORK_DIR, f"spans_{wl.name}_seed{wl.seed}.npz")
    runner.tracer.write_spans(spans)
    return {"ops": wl.trace_ops, "metrics": metrics, "spans_file": spans}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report its time")
    args = parser.parse_args(argv)
    os.makedirs(WORK_DIR, exist_ok=True)

    start = time.perf_counter()
    import specoord  # noqa: E402  (import time is part of set-up)
    import workloads
    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(specoord.__file__).startswith(src):
        print(f"specoord was imported from {specoord.__file__}, not {src}",
              file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer(specoord)
        tracer.install()
    try:
        wl = cls(args.seed, WORK_DIR)
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_s = time.perf_counter() - start

    result = {"workload": wl.name, "seed": args.seed, "setup_s": setup_s}
    if not args.setup_only:
        runner = Runner(wl, tracer)
        result.update(traced(runner) if args.trace
                      else measure(runner, args.seconds))
        result.update(attempted=runner.attempted, failed=runner.failed,
                      inputs_sha256=wl.digest())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
