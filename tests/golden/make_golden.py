"""Write the golden outputs that tests/test_golden.py compares against.

Run from the repository root after a change that alters outputs on purpose,
and name the cause of the change in CHANGES.md:

    PYTHONPATH=src python tests/golden/make_golden.py

The set is small and fixed: `specoord run` on four scenarios (64 to 128
tones, a band plan, gap > 1, near user 0 and 1, and a 2-tone CSV channel
carrying all four methods), `specoord dfdm --json --psd-out` on a masked
channel at several targets, `specoord iwf --psd-out` (rate-adaptive under
both schedules, and fixed-margin) on the 2-tone channel and on an 8-tone
3-user channel whose first two users keep two and one usable tones, three
more rate-adaptive `specoord iwf` runs on the 2-tone channel (Jacobi at a
3 dB gap, a 5-sweep limit that stops short of convergence, and a copy with
one user's tone masked), `specoord oracle` on the 2-tone channel at 31
levels (the benchmark's size) and on a 3-tone channel at 11 levels, a
6-point `region-sweep` and a 20x20 `region-map`.  Each case's files go to
data/<case>/, with its exit code, stdout and stderr in io.txt.
data/manifest.json records each case's command line and the numpy version
that wrote the set.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

import numpy as np

from specoord import cli
from specoord.channel import (ChannelMatrixSet, FrequencyGrid, NoiseProfile,
                              make_uniform_grid, write_channel_csv,
                              write_noise_csv)
from specoord.waterfilling import achievable_rate, effective_noise, waterfill_ra

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
MANIFEST = "manifest.json"
# Placeholders in the recorded command lines and outputs.
INPUTS, OUT = "{inputs}", "{out}"


def _dsl(name, num_tones, near_user, gap_db, methods, plan=None):
    return {"name": name,
            "grid": {"f_start_hz": 0.0, "f_end_hz": 1.104e6,
                     "num_tones": num_tones},
            "channel": {"kind": "synthetic", "lengths_km": [2.8, 0.7],
                        "group_sizes": [6, 9]},
            "noise_psd_dbm_hz": -138.0, "budgets_mw": [20.0, 30.0],
            "methods": methods, "sweep": {"count": 4, "max_fraction": 0.98},
            "near_user": near_user, "gap_db": gap_db, "band_plan_hz": plan}


SCENARIOS = {
    "run_plan": _dsl("plan", 64, 1, 3.0, ["ra-iwf", "fm-iwf", "dfdm"],
                     [[[0.1e6, 0.6e6]], None]),
    "run_near0": _dsl("near0", 64, 0, 0.0, ["dfdm", "fm-iwf"]),
    "run_wide": _dsl("wide", 128, 1, 6.0, ["dfdm"],
                     [None, [[0.05e6, 0.3e6], [0.5e6, 1.1e6]]]),
    "run_csv": {"name": "csv", "grid": {"f_start_hz": 0.0, "f_end_hz": 2e5,
                                        "num_tones": 2},
                "channel": {"kind": "csv", "path": f"{INPUTS}/two_tone.csv"},
                "noise_psd_dbm_hz": -60.0, "budgets_mw": [20.0, 10.0],
                "methods": ["ra-iwf", "fm-iwf", "dfdm", "oracle"],
                "sweep": {"count": 3}, "near_user": 1, "oracle_levels": 6},
}
# The DFDM targets, as fractions of the near user's full-band rate: zero,
# cutoffs across the band, the full band itself and an infeasible one.
DFDM_FRACTIONS = (0.0, 0.2, 0.55, 0.9, 1.0, 1.01)


def _masked_channel() -> tuple:
    """A 16-tone 2-user channel with uneven widths, tones masked for each
    user and per-tone noise, built from closed forms only."""
    k = 16
    t = np.arange(k, dtype=float)
    upper = np.cumsum(1.0 + 0.5 * np.cos(t)) * 1e3
    # The CSVs carry upper tone edges only, and the reader rebuilds the
    # first lower edge from the first spacing; start the grid there.
    grid = FrequencyGrid(np.r_[2 * upper[0] - upper[1], upper])
    gains = np.empty((k, 2, 2))
    gains[:, 0, 0] = 2.0 * np.exp(-0.15 * t)
    gains[:, 1, 1] = 1.0 + 0.5 * np.sin(t)
    gains[:, 0, 1] = 0.05 + 0.02 * t / k
    gains[:, 1, 0] = 0.03 * (1.0 + np.cos(0.5 * t))
    gains[[3, 9, 10, 14], 0, 0] = 0.0
    gains[[0, 7, 12], 1, 1] = 0.0
    noise = NoiseProfile(np.vstack([0.01 + 0.002 * t, 0.02 + 0.001 * t[::-1]]))
    return ChannelMatrixSet(gains, grid), noise


def _sparse_channel() -> tuple:
    """An 8-tone 3-user channel on a uniform grid: user 1 keeps two usable
    tones, user 2 one and user 3 seven, with per-tone noise."""
    k, n = 8, 3
    t = np.arange(k, dtype=float)
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    gains = 0.02 * (1 + i + 2 * j) * (1 + 0.3 * np.cos(t[:, None, None] + i - j))
    gains[:, 0, 0] = 1.5 * np.exp(-0.1 * t)
    gains[:, 1, 1] = 0.8 + 0.4 * np.sin(t)
    gains[:, 2, 2] = 1.2 * np.exp(-0.05 * t)
    gains[[0, 1, 2, 4, 5, 7], 0, 0] = 0.0
    gains[[0, 1, 2, 3, 4, 6, 7], 1, 1] = 0.0
    gains[1, 2, 2] = 0.0
    noise = NoiseProfile(np.vstack([0.01 + 0.002 * t, 0.02 + 0.001 * t[::-1],
                                    np.full(k, 0.015)]))
    return ChannelMatrixSet(gains, make_uniform_grid(0, 8e3, k)), noise


def write_inputs(inputs: str) -> list[float]:
    """Write the input CSVs and scenario configs; return the DFDM targets
    in bit/s."""
    os.makedirs(inputs, exist_ok=True)
    for name, cfg in SCENARIOS.items():
        with open(os.path.join(inputs, f"{name}.json"), "w") as fh:
            fh.write(json.dumps(cfg).replace(INPUTS, inputs))
    g = np.array([[[0.9, 0.02], [0.3, 0.6]], [[0.7, 0.04], [0.2, 0.5]]])
    two = make_uniform_grid(0, 2e5, 2)
    write_channel_csv(ChannelMatrixSet(g, two),
                      os.path.join(inputs, "two_tone.csv"))
    # The same channel with user 1's second tone masked.
    g = g.copy()
    g[1, 0, 0] = 0.0
    write_channel_csv(ChannelMatrixSet(g, two),
                      os.path.join(inputs, "two_tone_masked.csv"))
    g = np.array([[[0.8, 0.05], [0.25, 0.7]], [[0.6, 0.1], [0.3, 0.4]],
                  [[0.3, 0.15], [0.05, 0.9]]])
    write_channel_csv(ChannelMatrixSet(g, make_uniform_grid(0, 3e5, 3)),
                      os.path.join(inputs, "three_tone.csv"))
    masked = _masked_channel()
    for name, (channel, noise) in (("masked", masked),
                                   ("sparse", _sparse_channel())):
        write_channel_csv(channel, os.path.join(inputs, f"{name}.csv"))
        write_noise_csv(noise, channel.grid,
                        os.path.join(inputs, f"{name}_noise.csv"))
    channel, noise = masked
    budgets, near, gap = [4.0, 6.0], 1, 10 ** 0.2
    opening = waterfill_ra(effective_noise(0, (), channel, noise, gap),
                           budgets[0], channel.grid)[0]
    eff = effective_noise(near, [opening], channel, noise, gap)
    alloc, _ = waterfill_ra(eff, budgets[near], channel.grid)
    full = achievable_rate(alloc.power, eff, channel.grid)
    return [f * full for f in DFDM_FRACTIONS]


def commands(targets: list[float]) -> dict[str, list[str]]:
    """Each case's command line, with the placeholders unresolved."""
    cases = {name: ["run", "--config", f"{INPUTS}/{name}.json",
                    "--output-dir", OUT] for name in SCENARIOS}
    for i, rd in enumerate(targets):
        cases[f"dfdm_{i}"] = [
            "dfdm", "--channel", f"{INPUTS}/masked.csv",
            "--noise", f"{INPUTS}/masked_noise.csv", "--budgets", "4,6",
            "--gap-db", "2", "--rd", repr(rd), "--json",
            "--psd-out", f"{OUT}/psd.csv"]
    # Each iwf channel: its instance arguments and its fixed-margin targets.
    iwf = {"two_tone": (["--noise-psd-dbm-hz", "-60", "--budgets", "20,10"],
                        "1e6,none"),
           "sparse": (["--noise", f"{INPUTS}/sparse_noise.csv", "--budgets",
                       "4,6,5", "--gap-db", "2"], "2e3,none,8e3")}
    for chan, (instance, targets) in iwf.items():
        for play, extra in (("gs", ["--schedule", "gauss-seidel"]),
                            ("jacobi", ["--schedule", "jacobi"]),
                            ("fm", ["--mode", "fm", "--targets", targets])):
            cases[f"iwf_{chan}_{play}"] = [
                "iwf", "--channel", f"{INPUTS}/{chan}.csv", *instance, *extra,
                "--psd-out", f"{OUT}/psd.csv"]
    # Two-user rate-adaptive play on two tones: a gap, a sweep limit that
    # stops short of convergence (exit 3), and one user's tone masked.
    for name, chan, extra in (
            ("jacobi_gap", "two_tone", ["--schedule", "jacobi", "--gap-db", "3"]),
            ("max_iter", "two_tone", ["--schedule", "gauss-seidel",
                                      "--max-iter", "5"]),
            ("masked", "two_tone_masked", ["--schedule", "jacobi"])):
        cases[f"iwf_two_tone_{name}"] = [
            "iwf", "--channel", f"{INPUTS}/{chan}.csv", *iwf["two_tone"][0],
            *extra, "--psd-out", f"{OUT}/psd.csv"]
    # The oracle at the benchmark's grid on two tones, and on three tones.
    for chan, levels in (("two_tone", "31"), ("three_tone", "11")):
        cases[f"oracle_{chan}"] = [
            "oracle", "--channel", f"{INPUTS}/{chan}.csv",
            *iwf["two_tone"][0], "--levels", levels,
            "--output", f"{OUT}/frontier.csv"]
    cases["region_sweep"] = ["region-sweep", "--alpha", "0.5", "--beta", "0.3",
                             "--gamma", "0.1", "--r2-min", "0.2", "--r2-max",
                             "2.0", "--count", "6",
                             "--output", f"{OUT}/sweep.csv"]
    cases["region_map"] = ["region-map", "--resolution", "20",
                           "--output", f"{OUT}/region_map.csv"]
    return cases


def run_case(argv: list[str], inputs: str, out: str) -> None:
    """Run one command line, its outputs going to out."""
    os.makedirs(out, exist_ok=True)
    argv = [a.replace(INPUTS, inputs).replace(OUT, out) for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    text = f"exit {code}\n{stdout.getvalue()}{stderr.getvalue()}"
    with open(os.path.join(out, "io.txt"), "w") as fh:
        fh.write(text.replace(out, OUT))


def main() -> None:
    shutil.rmtree(DATA, ignore_errors=True)
    inputs = os.path.join(DATA, "inputs")
    cases = commands(write_inputs(inputs))
    for name, argv in cases.items():
        run_case(argv, inputs, os.path.join(DATA, name))
    shutil.rmtree(inputs)
    with open(os.path.join(DATA, MANIFEST), "w") as fh:
        json.dump({"numpy": np.__version__, "python": sys.version.split()[0],
                   "cases": cases}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
