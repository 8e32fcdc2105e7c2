"""Scenario runner: JSON-configured studies producing CSV artefacts.

A scenario describes a two-group DSL-like topology (or a channel CSV), a
noise floor, budgets, and a list of coordination methods to sweep over the
near user's rate target.  Each run emits a rate-region CSV plus per-method
PSD and SINR dumps, all byte-deterministic for a given configuration.

Group reduction: each homogeneous group of lines is represented by one
line of the group, and the crosstalk coupling into the other group is the
power sum over the group's members (size * pairwise coupling).  Crosstalk
between members of the same group is not modelled; it is the coordination
between the two groups that is under study.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import symmetric
from .channel import (ChannelMatrixSet, NoiseProfile, _write_rows,
                      format_float, load_channel_csv, make_uniform_grid,
                      synthetic_dsl_channel, write_psd_csv)
from .dfdm import dfdm_round, far_alone, near_fmiwf
from .game import capacity, sinr_per_tone
from .oracle import brute_force_pareto
from .waterfilling import effective_noise, iterate_iwf, waterfill_ra

VALID_METHODS = ("ra-iwf", "fm-iwf", "dfdm", "oracle")


class ConfigError(ValueError):
    """Configuration problem; carries the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _need(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigError(f"{path}.{key}" if path else key, "missing")
    return d[key]


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    grid_spec: dict
    channel_spec: dict
    noise_psd_dbm_hz: float
    budgets_mw: tuple
    methods: tuple
    sweep: dict
    near_user: int = 1
    gap_db: float = 0.0
    band_plan_hz: tuple | None = None
    detail_rd_bps: float | None = None
    oracle_levels: int = 11
    output_dir: str = "scenario_out"

    @property
    def gap(self) -> float:
        return 10.0 ** (self.gap_db / 10.0)


def load_config(source) -> ScenarioConfig:
    """Parse and validate a scenario config from a dict or a JSON file path."""
    if isinstance(source, (str, os.PathLike)):
        with open(source) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError("<file>", f"invalid JSON: {exc}") from None
    else:
        raw = source
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a JSON object")

    grid = _need(raw, "grid", "")
    for key in ("f_start_hz", "f_end_hz", "num_tones"):
        _need(grid, key, "grid")
    if grid["num_tones"] < 1:
        raise ConfigError("grid.num_tones", "must be >= 1")
    if not grid["f_end_hz"] > grid["f_start_hz"] >= 0:
        raise ConfigError("grid.f_end_hz", "need f_end_hz > f_start_hz >= 0")

    chan = _need(raw, "channel", "")
    kind = _need(chan, "kind", "channel")
    if kind == "synthetic":
        lengths = _need(chan, "lengths_km", "channel")
        if len(lengths) != 2 or any(l < 0 for l in lengths):
            raise ConfigError("channel.lengths_km", "need two non-negative lengths")
        sizes = chan.get("group_sizes", [1, 1])
        if len(sizes) != 2 or any(int(s) < 1 for s in sizes):
            raise ConfigError("channel.group_sizes", "need two sizes >= 1")
    elif kind == "csv":
        _need(chan, "path", "channel")
    else:
        raise ConfigError("channel.kind", "must be 'synthetic' or 'csv'")

    budgets = _need(raw, "budgets_mw", "")
    if len(budgets) != 2 or any(b <= 0 for b in budgets):
        raise ConfigError("budgets_mw", "need two positive budgets")

    methods = _need(raw, "methods", "")
    if not methods or any(m not in VALID_METHODS for m in methods):
        raise ConfigError("methods", f"must be a non-empty subset of {VALID_METHODS}")

    sweep = _need(raw, "sweep", "")
    if "rd_bps" in sweep:
        if not sweep["rd_bps"] or any(r < 0 for r in sweep["rd_bps"]):
            raise ConfigError("sweep.rd_bps", "need non-negative targets")
    else:
        count = sweep.get("count", 0)
        if count < 1:
            raise ConfigError("sweep.count", "must be >= 1")
        lo = sweep.get("min_fraction", 0.1)
        hi = sweep.get("max_fraction", 0.95)
        if not 0 < lo <= hi <= 1:
            raise ConfigError("sweep.min_fraction",
                              "need 0 < min_fraction <= max_fraction <= 1")

    near = raw.get("near_user", 1)
    if near not in (0, 1):
        raise ConfigError("near_user", "must be 0 or 1")

    plan = raw.get("band_plan_hz")
    if plan is not None:
        if len(plan) != 2:
            raise ConfigError("band_plan_hz", "need one entry (or null) per user")
        for u, ranges in enumerate(plan):
            if ranges is None:
                continue
            for r, pair in enumerate(ranges):
                if len(pair) != 2 or not pair[0] < pair[1]:
                    raise ConfigError(f"band_plan_hz[{u}][{r}]", "need [lo, hi] with lo < hi")
                if pair[0] < grid["f_start_hz"] or pair[1] > grid["f_end_hz"]:
                    raise ConfigError(f"band_plan_hz[{u}][{r}]", "outside the grid")
        plan = tuple(None if r is None else tuple(tuple(p) for p in r) for r in plan)

    if raw.get("gap_db", 0.0) < 0:
        raise ConfigError("gap_db", "must be >= 0")

    return ScenarioConfig(
        name=str(raw.get("name", "scenario")),
        grid_spec=dict(grid),
        channel_spec=dict(chan),
        noise_psd_dbm_hz=float(_need(raw, "noise_psd_dbm_hz", "")),
        budgets_mw=tuple(float(b) for b in budgets),
        methods=tuple(methods),
        sweep=dict(sweep),
        near_user=int(near),
        gap_db=float(raw.get("gap_db", 0.0)),
        band_plan_hz=plan,
        detail_rd_bps=raw.get("detail_rd_bps"),
        oracle_levels=int(raw.get("oracle_levels", 11)),
        output_dir=str(raw.get("output_dir", "scenario_out")),
    )


def build_channel(config: ScenarioConfig) -> ChannelMatrixSet:
    """Representative 2-user channel: synthetic topology or CSV, plus mask."""
    spec = config.channel_spec
    if spec["kind"] == "csv":
        channel = load_channel_csv(spec["path"])
        if channel.num_users != 2:
            raise ConfigError("channel.path", "scenario channels must have 2 users")
    else:
        grid = make_uniform_grid(config.grid_spec["f_start_hz"],
                                 config.grid_spec["f_end_hz"],
                                 int(config.grid_spec["num_tones"]))
        channel = synthetic_dsl_channel(
            spec["lengths_km"], grid,
            coupling_lengths_km=spec.get("coupling_lengths_km"),
            attenuation=spec.get("attenuation", 5e-4),
            fext_coeff=spec.get("fext_coeff", 1e-16))
        sizes = spec.get("group_sizes", [1, 1])
        gains = channel.gains.copy()
        for i in range(2):
            for j in range(2):
                if i != j:
                    gains[:, i, j] *= int(sizes[j])
        channel = ChannelMatrixSet(gains, grid)

    if config.band_plan_hz is not None:
        centers = channel.grid.centers
        gains = channel.gains.copy()
        for user, ranges in enumerate(config.band_plan_hz):
            if ranges is None:
                continue
            usable = np.zeros(centers.size, dtype=bool)
            for lo, hi in ranges:
                usable |= (centers >= lo) & (centers <= hi)
            gains[~usable, user, user] = 0.0
        channel = ChannelMatrixSet(gains, channel.grid)
    return channel


def _sweep_targets(config: ScenarioConfig, max_rate: float) -> list[float]:
    if "rd_bps" in config.sweep:
        return [float(r) for r in config.sweep["rd_bps"]]
    count = int(config.sweep["count"])
    lo = config.sweep.get("min_fraction", 0.1) * max_rate
    hi = config.sweep.get("max_fraction", 0.95) * max_rate
    return list(np.linspace(lo, hi, count))


def run_scenario(config: ScenarioConfig, output_dir: str | None = None) -> dict:
    """Execute a scenario and write its CSV artefacts.

    Returns a report dict with the emitted file paths and the rate-region
    rows (method, target, near rate, far rate).  Each method's PSD and SINR
    files hold its allocation at the detail target, computed by one more
    round when it is not one of the swept targets.  Raises ConfigError for
    configuration problems; infeasibility inside a method propagates as
    waterfilling.InfeasibleError.
    """
    out_dir = output_dir or config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    channel = build_channel(config)
    grid = channel.grid
    noise = NoiseProfile.from_psd_dbm_hz(config.noise_psd_dbm_hz, grid, 2)
    gap = config.gap
    budgets = list(config.budgets_mw)
    near, far = config.near_user, 1 - config.near_user

    far_initial = far_alone(channel, noise, far, budgets[far], gap)
    far_free = capacity(far, [far_initial], channel, noise, gap)
    near_eff0 = effective_noise(near, [far_initial], channel, noise, gap)
    near_full, _ = waterfill_ra(near_eff0, budgets[near], grid)
    near_max = capacity(near, [near_full, far_initial], channel, noise, gap)

    targets = _sweep_targets(config, near_max)
    detail_rd = (config.detail_rd_bps if config.detail_rd_bps is not None
                 else targets[len(targets) // 2])

    def fmiwf_allocs(rd: float):
        return near_fmiwf(channel, noise, budgets, rd, near, gap).allocations

    def dfdm_allocs(rd: float):
        return dfdm_round(channel, noise, budgets, rd, near, gap, far_initial)[1]

    def rate_row(method: str, target: str, allocs) -> tuple:
        return (method, target,
                format_float(capacity(near, allocs, channel, noise, gap)),
                format_float(capacity(far, allocs, channel, noise, gap)))

    rows = []
    details: dict[str, tuple] = {}
    for method in config.methods:
        if method == "oracle":
            curve = brute_force_pareto(channel, noise, budgets, gap=gap,
                                       levels=config.oracle_levels)
            for r2, r1 in curve.points:
                rows.append((method, "", format_float(r2), format_float(r1)))
            continue
        if method == "ra-iwf":
            allocs = iterate_iwf(channel, noise, budgets, mode="ra",
                                 gap=gap).allocations
            rows.append(rate_row(method, "", allocs))
            details[method] = allocs
            continue
        make = fmiwf_allocs if method == "fm-iwf" else dfdm_allocs
        for rd in targets:
            allocs = make(rd)
            rows.append(rate_row(method, format_float(rd), allocs))
            if rd == detail_rd:
                details[method] = allocs
        if method not in details:
            details[method] = make(detail_rd)

    files = {}
    region_path = os.path.join(out_dir, "rate_region.csv")
    with open(region_path, "w", newline="") as fh:
        fh.write("method,target_bps,near_bps,far_bps\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    files["rate_region"] = region_path

    for method, allocs in details.items():
        tag = method.replace("-", "_")
        psd_path = os.path.join(out_dir, f"psd_{tag}.csv")
        write_psd_csv([a.power for a in allocs], grid, psd_path)
        sinr_path = os.path.join(out_dir, f"sinr_{tag}.csv")
        sinrs = [sinr_per_tone(u, allocs, channel, noise) for u in (0, 1)]
        _write_rows(sinr_path, ["freq_hz", "sinr_1", "sinr_2"], grid.edges[1:],
                    np.column_stack(sinrs))
        files[f"psd_{method}"] = psd_path
        files[f"sinr_{method}"] = sinr_path

    return {"name": config.name, "files": files, "rows": rows,
            "near_user": near, "near_max_bps": near_max,
            "far_free_bps": far_free, "detail_rd_bps": detail_rd}


def emit_region_map(snr_range: tuple, h_range: tuple, resolution: int,
                    path: str) -> int:
    """Write a region-classification map over an (h, snr) grid.

    Rows are h,snr,region,h_lim1,h_lim2 with snr log-spaced over snr_range
    and h linear over h_range; returns the number of rows written.
    """
    if resolution < 1:
        raise ConfigError("resolution", "must be >= 1")
    lo, hi = snr_range
    if not 0 < lo <= hi:
        raise ConfigError("snr_range", "need 0 < lo <= hi")
    h_lo, h_hi = h_range
    if not 0 <= h_lo <= h_hi < 1:
        raise ConfigError("h_range", "need 0 <= lo <= hi < 1")
    snrs = (np.geomspace(lo, hi, resolution) if resolution > 1
            else np.array([lo]))
    hs = (np.linspace(h_lo, h_hi, resolution) if resolution > 1
          else np.array([h_lo]))
    # The limits depend on snr alone: one pair per row of the map.
    hs = hs.tolist()
    h_strs = [format_float(h) for h in hs]
    with open(path, "w", newline="") as fh:
        fh.write("h,snr,region,h_lim1,h_lim2\n")
        for snr in snrs.tolist():
            l1, l2 = symmetric.h_lim1(snr), symmetric.h_lim2(snr)
            snr_str = f",{format_float(snr)},"
            tail = f",{format_float(l1)},{format_float(l2)}\n"
            fh.writelines(h_str + snr_str + symmetric.region_between(h, l1, l2).code
                          + tail for h, h_str in zip(hs, h_strs))
    return len(snrs) * len(hs)
