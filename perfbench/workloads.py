"""The benchmark's three seeded workloads.

Each workload class builds all of its inputs from the seed in its
constructor (that is the set-up that ``setup_s`` times, together with the
import of specoord), then serves ops by index: ``prepare(i)`` clears the
op's output files, ``run(i)`` is the timed op, and ``check(i, out)`` raises
``CheckError`` when the op's output is wrong.  Op ``i`` uses input
``i % len(pool)``.

Inputs come in rounds of ``round_size``.  Within a round the seeded
parameters form a Latin-hypercube sample: each parameter puts one input in
each of ``round_size`` equal strata of its range.  A run measures whole
rounds, so every run sees the same spread of input sizes, and the medians
of two seeds differ by the inputs' spread within a stratum, not across the
whole range.

The program receives only the generated inputs: scenario configs on disk,
channel and noise objects, and CLI argument lists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass

import numpy as np

from specoord import channel, cli, game, oracle, symmetric, waterfilling

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
REFERENCE_SEED = 0


class CheckError(Exception):
    """An op's output failed its check."""


def strata(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Latin-hypercube sample in [0, 1): each column has one row in each of
    ``rows`` equal strata, in a random order."""
    return np.column_stack([(rng.permutation(rows) + rng.random(rows)) / rows
                            for _ in range(cols)])


def sliced_strata(rng: np.random.Generator, rounds: int, round_size: int,
                  cols: int) -> np.ndarray:
    """Sliced Latin-hypercube sample in [0, 1), ``rounds * round_size`` rows.

    Each block of ``round_size`` rows is a Latin-hypercube sample on
    ``round_size`` coarse strata, and all the rows together are one on
    ``rounds * round_size`` fine strata: each coarse stratum's fine strata
    are dealt out one per round."""
    out = np.empty((rounds * round_size, cols))
    for col in range(cols):
        deal = np.array([rng.permutation(rounds) for _ in range(round_size)])
        for r in range(rounds):
            coarse = rng.permutation(round_size)
            fine = coarse * rounds + deal[coarse, r]
            out[r * round_size:(r + 1) * round_size, col] = (
                fine + rng.random(round_size)) / (rounds * round_size)
    return out


def _quiet(argv: list[str]) -> int:
    """specoord's CLI in process, with its progress lines discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _read_csv(path: str) -> list[list[str]]:
    with open(path) as fh:
        return [line.rstrip("\n").split(",") for line in fh]


def _clear(*paths: str) -> None:
    for path in paths:
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif os.path.exists(path):
            os.remove(path)


# --- dsl_sweep --------------------------------------------------------------

DSL_FILES = ("rate_region.csv", "psd_ra_iwf.csv", "sinr_ra_iwf.csv",
             "psd_fm_iwf.csv", "sinr_fm_iwf.csv", "psd_dfdm.csv",
             "sinr_dfdm.csv")
DSL_TARGETS = 14
DSL_ROWS = {"ra-iwf": 1, "fm-iwf": DSL_TARGETS, "dfdm": DSL_TARGETS}


def dsl_config(u: np.ndarray) -> dict:
    """ADSL2+-sized two-group scenario from five uniforms in [0, 1)."""
    return {
        "name": "perfbench-dsl",
        "grid": {"f_start_hz": 0.0, "f_end_hz": 2.208e6, "num_tones": 512},
        "channel": {"kind": "synthetic",
                    "lengths_km": [2.5 + 1.5 * float(u[0]),
                                   0.5 + 0.7 * float(u[1])],
                    "group_sizes": [4 + int(13 * u[2]), 4 + int(13 * u[3])]},
        "band_plan_hz": [[[0.14e6, 1.104e6]], [[0.138e6, 2.2e6]]],
        "noise_psd_dbm_hz": -140.0 + 10.0 * float(u[4]),
        "budgets_mw": [30.0, 30.0],
        "methods": ["ra-iwf", "fm-iwf", "dfdm"],
        "sweep": {"count": DSL_TARGETS, "max_fraction": 0.98},
        "near_user": 1,
    }


class DslSweep:
    """One op: ``specoord run`` of a two-group DSL scenario, in process."""

    name = "dsl_sweep"
    round_size = 8
    rounds = 8
    trace_ops = 16
    tail_pct = 95.0

    def __init__(self, seed: int, work_dir: str, check_reference: bool = True):
        self.seed = seed
        base = os.path.join(work_dir, self.name)
        _clear(base)
        os.makedirs(os.path.join(base, "configs"))
        self.out_dir = os.path.join(base, "out")
        self.rerun_dir = os.path.join(base, "rerun")
        rng = np.random.default_rng(seed)
        self.texts, self.paths = [], []
        for _ in range(self.rounds):
            for u in strata(rng, self.round_size, 5):
                text = json.dumps(dsl_config(u), sort_keys=True)
                path = os.path.join(base, "configs", f"{len(self.paths):03d}.json")
                with open(path, "w") as fh:
                    fh.write(text)
                self.texts.append(text)
                self.paths.append(path)
        self.reference = (load_reference(self.name)
                          if check_reference and seed == REFERENCE_SEED
                          else None)

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.texts).encode()).hexdigest()

    def prepare(self, i: int) -> None:
        _clear(self.out_dir)

    def _argv(self, i: int, out_dir: str) -> list[str]:
        return ["run", "--config", self.paths[i % len(self.paths)],
                "--output-dir", out_dir]

    def run(self, i: int) -> int:
        return _quiet(self._argv(i, self.out_dir))

    def rows(self, out_dir: str) -> list[list[str]]:
        """rate_region.csv rows without the header."""
        return _read_csv(os.path.join(out_dir, "rate_region.csv"))[1:]

    def check(self, i: int, code: int) -> None:
        if code != 0:
            raise CheckError(f"specoord run exited {code}")
        missing = [f for f in DSL_FILES
                   if not os.path.isfile(os.path.join(self.out_dir, f))]
        if missing:
            raise CheckError(f"CSVs not written: {missing}")
        rows = self.rows(self.out_dir)
        per_method = {m: sum(r[0] == m for r in rows) for m in DSL_ROWS}
        if per_method != DSL_ROWS or len(rows) != sum(DSL_ROWS.values()):
            raise CheckError(f"rate_region rows per method {per_method}")
        for row in rows:
            rates = [float(v) for v in row[2:]]
            if not all(math.isfinite(r) and r >= 0 for r in rates):
                raise CheckError(f"bad rate in row {row}")
        if i == 0:
            # Determinism: the same config must write byte-identical CSVs.
            _clear(self.rerun_dir)
            if _quiet(self._argv(i, self.rerun_dir)) != 0:
                raise CheckError("rerun of the first config failed")
            for f in DSL_FILES:
                with open(os.path.join(self.out_dir, f), "rb") as a, \
                        open(os.path.join(self.rerun_dir, f), "rb") as b:
                    if a.read() != b.read():
                        raise CheckError(f"rerun wrote a different {f}")
        k = i % len(self.paths)
        if self.reference is not None and k < len(self.reference):
            self._check_reference(k, rows)

    def _check_reference(self, k: int, rows: list[list[str]]) -> None:
        ref = self.reference[k]
        if ref["config_sha256"] != hashlib.sha256(self.texts[k].encode()).hexdigest():
            raise CheckError(f"reference for config {k} is for other inputs")
        if len(rows) != len(ref["rows"]):
            raise CheckError(f"config {k}: {len(rows)} rows, reference has "
                             f"{len(ref['rows'])}")
        for row, want in zip(rows, ref["rows"]):
            if row[0] != want[0]:
                raise CheckError(f"config {k}: method {row[0]} != {want[0]}")
            for got, exp in zip(row[1:], want[1:]):
                if (got == "") != (exp == ""):
                    raise CheckError(f"config {k}: {row} != {want}")
                if got and abs(float(got) - exp) > 1e-9 * abs(exp):
                    raise CheckError(f"config {k}: {row} != {want}")

    def make_reference(self) -> list:
        out = []
        for k in range(self.round_size):
            self.prepare(k)
            if self.run(k) != 0:
                raise CheckError(f"config {k} failed")
            rows = [[r[0]] + [float(v) if v else "" for v in r[1:]]
                    for r in self.rows(self.out_dir)]
            out.append({"config_sha256":
                        hashlib.sha256(self.texts[k].encode()).hexdigest(),
                        "rows": rows})
        return out


# --- iwf_binder -------------------------------------------------------------

class IwfBinder:
    """One op: Gauss-Seidel rate-adaptive IWF on a 25-line binder, followed
    by the Nash certificate."""

    name = "iwf_binder"
    lines = 25
    tones = 4096
    f_end_hz = 17.664e6
    budget_mw = 20.0
    noise_dbm_hz = -140.0
    round_size = 1
    trace_ops = 3
    tail_pct = 75.0
    # Reference allocations are stored as per-user sums over blocks of
    # this many tones.
    block = 16

    def __init__(self, seed: int, work_dir: str, check_reference: bool = True):
        self.seed = seed
        rng = np.random.default_rng(seed)
        grid = channel.make_uniform_grid(0.0, self.f_end_hz, self.tones)
        # One binder per seed, one line length per stratum of the range.
        lengths = 0.3 + 2.7 * strata(rng, self.lines, 1)[:, 0]
        self.channel = channel.synthetic_dsl_channel(lengths, grid)
        self.noise = channel.NoiseProfile.from_psd_dbm_hz(
            self.noise_dbm_hz, grid, self.lines)
        self.budgets = [self.budget_mw] * self.lines
        self.reference = (load_reference(self.name)
                          if check_reference and seed == REFERENCE_SEED
                          else None)

    def digest(self) -> str:
        # Hash the arrays' buffers in place: a 20 MB copy would show in
        # peak_rss_mb on the reference seed, whose first check calls this.
        h = hashlib.sha256(self.channel.gains.data)
        h.update(self.noise.values.data)
        return h.hexdigest()

    def prepare(self, i: int) -> None:
        pass

    def run(self, i: int):
        report = waterfilling.iterate_iwf(self.channel, self.noise, self.budgets,
                                          mode="ra", tol=1e-10)
        nash = game.is_nash_equilibrium(report.allocations, self.channel,
                                        self.noise, tol=1e-6)
        return report, nash

    def blocks(self, report) -> np.ndarray:
        p = np.array([a.power for a in report.allocations])
        return p.reshape(self.lines, -1, self.block).sum(axis=2)

    def check(self, i: int, out) -> None:
        report, nash = out
        if not report.converged:
            raise CheckError(f"IWF did not converge in {report.iterations} sweeps")
        if not nash.is_nash:
            raise CheckError(f"not a Nash equilibrium: worst gain {nash.worst_gain}")
        for alloc in report.allocations:
            problems = game.validate_strategy(alloc)
            if problems:
                raise CheckError(f"user {alloc.user}: {problems}")
        if self.reference is not None:
            if i == 0 and str(self.reference["inputs_sha256"]) != self.digest():
                raise CheckError("reference is for other inputs")
            err = float(np.abs(self.blocks(report) - self.reference["blocks"]).max())
            if err > 1e-9 * self.budget_mw:
                raise CheckError(f"allocations differ from the reference by {err} mW")

    def make_reference(self) -> dict:
        return {"inputs_sha256": np.array(self.digest()),
                "blocks": self.blocks(self.run(0)[0])}


# --- two_user_study ---------------------------------------------------------

@dataclass(frozen=True)
class Study:
    h: float
    snr: float
    channel: object
    noise: object
    budgets: list
    start: list
    map_argv: list
    sweep_argv: list


class TwoUserStudy:
    """One op: a four-step study of one seeded symmetric two-user game:
    region map, Jacobi IWF from a skewed start, brute-force oracle and a
    near-far closed-form sweep."""

    name = "two_user_study"
    power = 1.0
    resolution = 50
    levels = 31
    sweep_count = 200
    round_size = 6
    rounds = 8
    trace_ops = 6
    tail_pct = 75.0

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        base = os.path.join(work_dir, self.name)
        _clear(base)
        os.makedirs(base)
        self.map_path = os.path.join(base, "map.csv")
        self.sweep_path = os.path.join(base, "sweep.csv")
        rng = np.random.default_rng(seed)
        p = self.power
        self.instances = []
        for u in sliced_strata(rng, self.rounds, self.round_size, 2):
            h = 0.93 + 0.06 * float(u[0])
            snr = 10.0 ** (2.0 * float(u[1]))
            chan, noise, budgets = symmetric.symmetric_game_instance(h, snr, p)
            start = [game.PowerAllocation(0, np.array([0.9 * p, 0.1 * p]), p),
                     game.PowerAllocation(1, np.array([0.1 * p, 0.9 * p]), p)]
            self.instances.append(Study(h, snr, chan, noise, budgets, start,
                                        self._map_argv(rng),
                                        self._sweep_argv(rng)))

    def _map_argv(self, rng) -> list[str]:
        h_min = 0.5 * rng.random()
        h_max = h_min + 0.45 + 0.04 * rng.random()
        snr_min = 10.0 ** (-1.0 + 2.0 * rng.random())
        snr_max = snr_min * 10.0 ** (1.0 + 2.0 * rng.random())
        return ["region-map", "--h-min", repr(h_min), "--h-max", repr(h_max),
                "--snr-min", repr(snr_min), "--snr-max", repr(snr_max),
                "--resolution", str(self.resolution), "--output", self.map_path]

    def _sweep_argv(self, rng) -> list[str]:
        params = {"alpha": 10.0 ** (-2.0 + 2.0 * rng.random()),
                  "beta": 0.05 + 0.95 * rng.random(),
                  "gamma": 0.2 * rng.random(),
                  "power": self.power,
                  "n1": 10.0 ** (-3.0 + 2.0 * rng.random()),
                  "n2": 10.0 ** (-3.0 + 2.0 * rng.random()),
                  "w1": 1.0,
                  "w2": 1.0 + 2.0 * rng.random()}
        # Targets around the rate at which static FDM starts to use band 1.
        threshold = params["w2"] * math.log2(
            1 + params["power"] / (params["w2"] * params["n2"]))
        argv = ["region-sweep"]
        for key, value in params.items():
            argv += [f"--{key}", repr(value)]
        return argv + ["--r2-min", repr(0.1 * threshold),
                       "--r2-max", repr(1.5 * threshold),
                       "--count", str(self.sweep_count),
                       "--output", self.sweep_path]

    def digest(self) -> str:
        h = hashlib.sha256()
        for s in self.instances:
            h.update(repr((s.h, s.snr, s.map_argv, s.sweep_argv)).encode())
            h.update(s.channel.gains.data)
            h.update(s.noise.values.data)
        return h.hexdigest()

    def prepare(self, i: int) -> None:
        _clear(self.map_path, self.sweep_path)

    def run(self, i: int):
        s = self.instances[i % len(self.instances)]
        map_code = _quiet(s.map_argv)
        report = waterfilling.iterate_iwf(s.channel, s.noise, s.budgets,
                                          schedule="jacobi", initial=s.start,
                                          tol=1e-12, max_iter=10_000)
        curve = oracle.brute_force_pareto(s.channel, s.noise, s.budgets,
                                          levels=self.levels)
        sweep_code = _quiet(s.sweep_argv)
        return map_code, report, curve, sweep_code

    def check(self, i: int, out) -> None:
        s = self.instances[i % len(self.instances)]
        map_code, report, curve, sweep_code = out
        if map_code != 0 or sweep_code != 0:
            raise CheckError(f"CLI exit codes {map_code}, {sweep_code}")

        rows = _read_csv(self.map_path)[1:]
        if len(rows) != self.resolution ** 2:
            raise CheckError(f"region map has {len(rows)} rows")
        for h, _, code, l1, l2 in rows:
            h, l1, l2 = float(h), float(l1), float(l2)
            want = "A" if h < l1 else "C" if h > l2 else "B"
            if code != want:
                raise CheckError(f"region {code} at h={h}, limits {l1}, {l2}")

        if not report.converged:
            raise CheckError(f"Jacobi IWF did not converge at h={s.h}")
        split = max(float(np.abs(a.power - 0.5 * self.power).max())
                    for a in report.allocations)
        if split > 1e-9:
            raise CheckError(f"Jacobi split is {split} off (0.5, 0.5)P")

        best = curve.points[np.argmax(curve.points.sum(axis=1))]
        quad = symmetric.payoff_quad(s.h, s.snr)
        flat = symmetric.recommend_strategy(s.h, s.snr) == "iwf"
        expect = (quad.P, quad.P) if flat else (quad.R, quad.R)
        if not np.allclose(best, expect, rtol=1e-9, atol=0.0):
            raise CheckError(f"oracle sum-rate point {best}, closed form {expect}")

        sweep = _read_csv(self.sweep_path)[1:]
        values = np.array(sweep, dtype=float)
        if values.shape != (self.sweep_count, 5) or not np.all(np.isfinite(values)):
            raise CheckError(f"region sweep shape {values.shape} or non-finite bounds")


WORKLOADS = {w.name: w for w in (DslSweep, IwfBinder, TwoUserStudy)}


# --- stored references ------------------------------------------------------

def reference_path(name: str) -> str:
    ext = "npz" if name == IwfBinder.name else "json"
    return os.path.join(REFERENCE_DIR, f"{name}_seed{REFERENCE_SEED}.{ext}")


def load_reference(name: str):
    path = reference_path(name)
    if path.endswith(".npz"):
        with np.load(path) as data:
            return {key: data[key] for key in data.files}
    with open(path) as fh:
        return json.load(fh)
