"""Span tracer for the specoord benchmark.

The tracer wraps the public functions of each specoord module, plus a few
class-level hooks, under every name that binds them, so that calls made
through another module's ``from .x import f`` binding are caught too.  Each
call becomes one span (name, start, end, parent span, op id) kept in flat
in-memory arrays and written out once, when the run ends.  Counts such as
IWF sweeps or cutoff probes are taken at the same call boundaries.

The program's source is not touched: ``install`` swaps the wrappers into
the module namespaces at run time and ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from array import array

# Module functions to wrap: (span name, module, attribute).
FUNCTIONS = [
    ("waterfilling.effective_noise", "waterfilling", "effective_noise"),
    ("waterfilling.waterfill_ra", "waterfilling", "waterfill_ra"),
    ("waterfilling.waterfill_fm", "waterfilling", "waterfill_fm"),
    ("waterfilling.achievable_rate", "waterfilling", "achievable_rate"),
    ("waterfilling.iterate_iwf", "waterfilling", "iterate_iwf"),
    ("game.power_matrix", "game", "power_matrix"),
    ("game.capacity", "game", "capacity"),
    ("game.sinr_per_tone", "game", "sinr_per_tone"),
    ("game.is_nash_equilibrium", "game", "is_nash_equilibrium"),
    ("channel.build", "channel", "synthetic_dsl_channel"),
    ("dfdm.find_cutoff", "dfdm", "find_cutoff"),
    ("dfdm.dfdm_allocate", "dfdm", "dfdm_allocate"),
    ("scenario.run_scenario", "scenario", "run_scenario"),
    ("scenario.build_channel", "scenario", "build_channel"),
    ("scenario.emit_region_map", "scenario", "emit_region_map"),
    ("symmetric.classify_game", "symmetric", "classify_game"),
    ("symmetric.h_lim2", "symmetric", "h_lim2"),
    ("symmetric.payoff_quad", "symmetric", "payoff_quad"),
    ("oracle.brute_force_pareto", "oracle", "brute_force_pareto"),
    ("oracle.pareto_front", "oracle", "_pareto_front"),
    ("nearfar.rr_iwf_bounds", "nearfar", "rr_iwf_bounds"),
    ("nearfar.dfdm_rate_bounds", "nearfar", "dfdm_rate_bounds"),
    ("cli.main", "cli", "main"),
]

# Hooks set on a class: (span name, module, class, attribute, kind).
CLASS_HOOKS = [
    ("waterfilling.EffectiveNoise", "waterfilling", "EffectiveNoise", "__post_init__", "method"),
    ("game.PowerAllocation", "game", "PowerAllocation", "__post_init__", "method"),
    ("channel.FrequencyGrid.widths", "channel", "FrequencyGrid", "widths", "property"),
    ("channel.build", "channel", "NoiseProfile", "from_psd_dbm_hz", "classmethod"),
]

# Per-layer metrics in report order: (metric name, unit).  The part before
# the last dot names the span or counter it comes from.
PER_LAYER = [
    ("waterfilling.effective_noise.calls", "count"),
    ("waterfilling.effective_noise.self_s", "s"),
    ("waterfilling.effective_noise.bytes_computed", "B"),
    ("waterfilling.waterfill_ra.calls", "count"),
    ("waterfilling.waterfill_ra.self_s", "s"),
    ("waterfilling.waterfill_fm.calls", "count"),
    ("waterfilling.waterfill_fm.self_s", "s"),
    ("waterfilling.waterfill_fm.infeasible", "count"),
    ("waterfilling.achievable_rate.calls", "count"),
    ("waterfilling.achievable_rate.self_s", "s"),
    ("waterfilling.iterate_iwf.calls", "count"),
    ("waterfilling.iterate_iwf.self_s", "s"),
    ("waterfilling.iterate_iwf.sweeps", "count"),
    ("waterfilling.iterate_iwf.nonconverged", "count"),
    ("waterfilling.iterate_iwf.shortfall_users", "count"),
    ("waterfilling.EffectiveNoise.constructed", "count"),
    ("waterfilling.EffectiveNoise.init_s", "s"),
    ("waterfilling.fm_useful_frac", "ratio"),
    ("game.power_matrix.calls", "count"),
    ("game.power_matrix.self_s", "s"),
    ("game.capacity.calls", "count"),
    ("game.capacity.self_s", "s"),
    ("game.sinr_per_tone.calls", "count"),
    ("game.sinr_per_tone.self_s", "s"),
    ("game.is_nash_equilibrium.calls", "count"),
    ("game.is_nash_equilibrium.self_s", "s"),
    ("game.is_nash_equilibrium.worst_gain", "bit/s"),
    ("game.PowerAllocation.constructed", "count"),
    ("game.PowerAllocation.init_s", "s"),
    ("channel.build.self_s", "s"),
    ("channel.FrequencyGrid.widths.calls", "count"),
    ("channel.FrequencyGrid.widths.self_s", "s"),
    ("dfdm.find_cutoff.calls", "count"),
    ("dfdm.find_cutoff.self_s", "s"),
    ("dfdm.find_cutoff.probes", "count"),
    ("dfdm.dfdm_allocate.calls", "count"),
    ("dfdm.dfdm_allocate.self_s", "s"),
    ("scenario.run_scenario.self_s", "s"),
    ("scenario.build_channel.self_s", "s"),
    ("scenario.emit_region_map.self_s", "s"),
    ("scenario.bytes_written", "B"),
    ("symmetric.classify_game.calls", "count"),
    ("symmetric.classify_game.self_s", "s"),
    ("symmetric.h_lim2.calls", "count"),
    ("symmetric.h_lim2.self_s", "s"),
    ("symmetric.payoff_quad.calls", "count"),
    ("symmetric.payoff_quad.self_s", "s"),
    ("oracle.brute_force_pareto.calls", "count"),
    ("oracle.brute_force_pareto.self_s", "s"),
    ("oracle.pareto_front.self_s", "s"),
    ("oracle.pairs", "count"),
    ("oracle.frontier_points", "count"),
    ("oracle.frontier_frac", "ratio"),
    ("nearfar.rr_iwf_bounds.calls", "count"),
    ("nearfar.rr_iwf_bounds.self_s", "s"),
    ("nearfar.dfdm_rate_bounds.calls", "count"),
    ("nearfar.dfdm_rate_bounds.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
]

# Metrics of the traced run as a whole, filled in by worker.py.
RUN_METRICS = [
    ("trace.ops", "count"),
    ("trace.spans", "count"),
    ("trace.untraced_s", "s"),
    ("trace.overhead_s", "s"),
]

# Metrics that count work; two traced runs on one seed must agree on them.
COUNTED = ("calls", "constructed", "sweeps", "probes", "pairs",
           "bytes_computed", "bytes_written", "frontier_points", "infeasible",
           "nonconverged", "shortfall_users")


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    """Spans and counts for every call into the traced specoord functions.

    Create it after specoord is imported; ``install``/``uninstall`` may be
    called any number of times, and spans accumulate across installs.
    ``op`` is stamped on each span; -1 marks set-up work.
    """

    def __init__(self, package):
        self.op = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._calls: list[int] = []
        self._self_s: list[float] = []
        self._active: list[int] = []
        self._stack: list[list] = []
        self.counts = {name: 0 for name in ("bytes_computed", "infeasible",
                                            "sweeps", "nonconverged",
                                            "shortfall_users", "probes",
                                            "bytes_written", "pairs",
                                            "frontier_points")}
        self.worst_gain = 0.0
        self._patches = self._plan(package)

    # -- planning ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._calls.append(0)
            self._self_s.append(0.0)
            self._active.append(0)
        return self._ids[name]

    def _plan(self, package) -> list[tuple]:
        """(owner, attribute, original, wrapper) for every binding to patch."""
        prefix = package.__name__
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == prefix or key.startswith(prefix + "."))]
        hooks = {
            "waterfilling.effective_noise": self._count_effective_noise,
            "waterfilling.waterfill_ra": self._count_probe,
            "waterfilling.waterfill_fm": self._count_fm,
            "waterfilling.iterate_iwf": self._count_iwf,
            "game.is_nash_equilibrium": self._count_nash,
            "scenario.run_scenario": self._count_scenario_files,
            "scenario.emit_region_map": self._count_map_file,
            "oracle.brute_force_pareto": self._count_oracle,
        }
        patches = []
        for span, mod_name, attr in FUNCTIONS:
            original = getattr(getattr(package, mod_name), attr)
            wrapper = self._wrap(span, original, hooks.get(span))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, key, original, wrapper))
        for span, mod_name, cls_name, attr, kind in CLASS_HOOKS:
            cls = getattr(getattr(package, mod_name), cls_name)
            original = cls.__dict__[attr]
            if kind == "property":
                wrapper = property(self._wrap(span, original.fget))
            elif kind == "classmethod":
                wrapper = classmethod(self._wrap(span, original.__func__))
            else:
                wrapper = self._wrap(span, original)
            patches.append((cls, attr, original, wrapper))
        return patches

    def _wrap(self, name: str, fn, hook=None):
        nid = self._id(name)
        stack, active = self._stack, self._active
        calls, self_s = self._calls, self._self_s
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            ops.append(self.op)
            starts.append(0.0)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            active[nid] += 1
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                active[nid] -= 1
                starts[idx] = start
                ends[idx] = end
                duration = end - start
                calls[nid] += 1
                self_s[nid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if hook is not None:
                    hook(args, kwargs, result, error)

        return wrapper

    # -- counts taken at the span boundaries ------------------------------

    def _count_effective_noise(self, args, kwargs, result, error):
        # Bytes the call touches, from shapes: the (N, K) power matrix is
        # built and read, the (K, N) gain column is read, and the direct
        # gain, noise row and output are K values each.
        channel = _arg(args, kwargs, 2, "channel")
        n, k = channel.num_users, channel.num_tones
        self.counts["bytes_computed"] += 8 * (3 * n * k + 3 * k)

    def _count_probe(self, args, kwargs, result, error):
        if self._active[self._ids["dfdm.find_cutoff"]]:
            self.counts["probes"] += 1

    def _count_fm(self, args, kwargs, result, error):
        if error is not None:
            self.counts["infeasible"] += 1

    def _count_iwf(self, args, kwargs, result, error):
        if result is not None:
            self.counts["sweeps"] += result.iterations
            self.counts["nonconverged"] += not result.converged
            self.counts["shortfall_users"] += len(result.shortfall_users)

    def _count_nash(self, args, kwargs, result, error):
        if result is not None:
            self.worst_gain = max(self.worst_gain, result.worst_gain)

    def _count_scenario_files(self, args, kwargs, result, error):
        if result is not None:
            self.counts["bytes_written"] += sum(
                os.path.getsize(p) for p in result["files"].values())

    def _count_map_file(self, args, kwargs, result, error):
        if error is None:
            self.counts["bytes_written"] += os.path.getsize(
                _arg(args, kwargs, 3, "path"))

    def _count_oracle(self, args, kwargs, result, error):
        if result is not None:
            levels = _arg(args, kwargs, 3, "levels", 11)
            k = _arg(args, kwargs, 0, "channel").num_tones
            self.counts["pairs"] += math.comb(levels - 1 + k, k) ** 2
            self.counts["frontier_points"] += len(result.points)

    # -- install / report -------------------------------------------------

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def bindings(self) -> list[tuple]:
        """(owner, attribute, original, wrapper) of every patched name."""
        return list(self._patches)

    def metrics(self) -> dict[str, float]:
        """Per-layer metric values, keyed as in PER_LAYER."""
        values: dict[str, float] = {}
        # Every span gives calls and self time; for the class hooks on
        # __post_init__ these read as objects constructed and init time.
        for name, nid in self._ids.items():
            values[f"{name}.calls"] = self._calls[nid]
            values[f"{name}.self_s"] = self._self_s[nid]
            values[f"{name}.constructed"] = self._calls[nid]
            values[f"{name}.init_s"] = self._self_s[nid]
        c = self.counts
        values["waterfilling.effective_noise.bytes_computed"] = c["bytes_computed"]
        values["waterfilling.waterfill_fm.infeasible"] = c["infeasible"]
        fm_calls = values["waterfilling.waterfill_fm.calls"]
        values["waterfilling.fm_useful_frac"] = (
            (fm_calls - c["infeasible"]) / fm_calls if fm_calls else 0.0)
        for key in ("sweeps", "nonconverged", "shortfall_users"):
            values[f"waterfilling.iterate_iwf.{key}"] = c[key]
        values["game.is_nash_equilibrium.worst_gain"] = self.worst_gain
        values["dfdm.find_cutoff.probes"] = c["probes"]
        values["scenario.bytes_written"] = c["bytes_written"]
        values["oracle.pairs"] = c["pairs"]
        values["oracle.frontier_points"] = c["frontier_points"]
        values["oracle.frontier_frac"] = (
            c["frontier_points"] / c["pairs"] if c["pairs"] else 0.0)
        return {name: values[name] for name, _ in PER_LAYER}

    def write_spans(self, path: str) -> None:
        """Save every span to an .npz file: one row per span in call order,
        ``name`` indexing ``names`` and ``parent`` indexing the rows (-1 for
        a root span); times are perf_counter seconds."""
        import numpy as np

        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 op=np.frombuffer(self.span_op, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))
