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

import bisect
import json
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from . import symmetric
from .channel import (_FEXT_COEFF, ChannelMatrixSet, NoiseProfile, _from_db,
                      _texts, _write_psd, _write_rows, format_float,
                      load_channel_csv, make_uniform_grid,
                      synthetic_dsl_channel)
from .dfdm import _Sweep
from .game import _TOO_LARGE, _direct, _overflowing_budget
from .oracle import SearchSpaceError, brute_force_pareto
from .waterfilling import iterate_iwf

VALID_METHODS = ("ra-iwf", "fm-iwf", "dfdm", "oracle")
# The fields load_config reads per block, channel kind and sweep form.
_FIELDS = {
    "": {"name", "grid", "channel", "noise_psd_dbm_hz", "budgets_mw",
         "methods", "sweep", "near_user", "gap_db", "band_plan_hz",
         "oracle_levels", "output_dir"},
    "grid": {"f_start_hz", "f_end_hz", "num_tones"},
    "channel.synthetic": {"kind", "lengths_km", "group_sizes"},
    "channel.csv": {"kind", "path"},
    "sweep.rd_bps": {"rd_bps"},
    "sweep.count": {"count", "min_fraction", "max_fraction"},
}


class ConfigError(ValueError):
    """Configuration problem; carries the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _need(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigError(f"{path}.{key}" if path else key, "missing")
    return d[key]


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, "must be a JSON object")
    return value


def _known(block: dict, path: str, fields: str) -> None:
    """Refuse the first key of block that is not in _FIELDS[fields]."""
    for key in block:
        if key not in _FIELDS[fields]:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown field")


def _array(value, path: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(path, "must be a JSON array")
    return list(value)


def _number(value, path: str) -> float:
    # A bool is an int to Python but not a number here; nan and inf fail
    # too, and so does an int past the float range.
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:
            pass
    raise ConfigError(path, "must be a finite number")


def _numbers(value, path: str) -> list[float]:
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(_array(value, path))]


def _path(value, path: str):
    if not isinstance(value, (str, os.PathLike)):
        raise ConfigError(path, "must be a file path")
    return value


def _integer(value, path: str) -> int:
    # Checked, not truncated: int(2.5) would run 2 silently.
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(path, "must be an integer")
    return int(value)


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    grid_spec: dict
    channel_spec: dict
    noise_psd_dbm_hz: float
    budgets_mw: tuple
    methods: tuple
    sweep: dict
    near_user: int
    gap_db: float
    band_plan_hz: tuple | None
    oracle_levels: int
    output_dir: str

    @property
    def gap(self) -> float:
        return _from_db(self.gap_db)


def _read_json(path):
    """A config file's JSON value; bad JSON is a ConfigError naming the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(os.fspath(path), f"invalid JSON: {exc}") from None


def load_config(source) -> ScenarioConfig:
    """Parse and validate a scenario config from a dict or a JSON file path
    into a config that holds every default resolved."""
    raw = (_read_json(source) if isinstance(source, (str, os.PathLike))
           else source)
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    _known(raw, "", "")

    grid = _object(_need(raw, "grid", ""), "grid")
    _known(grid, "grid", "grid")
    f_start = _number(_need(grid, "f_start_hz", "grid"), "grid.f_start_hz")
    f_end = _number(_need(grid, "f_end_hz", "grid"), "grid.f_end_hz")
    num_tones = _integer(_need(grid, "num_tones", "grid"), "grid.num_tones")
    if num_tones < 1:
        raise ConfigError("grid.num_tones", "must be >= 1")
    if not f_end > f_start >= 0:
        raise ConfigError("grid.f_end_hz", "need f_end_hz > f_start_hz >= 0")

    chan = dict(_object(_need(raw, "channel", ""), "channel"))
    kind = _need(chan, "kind", "channel")
    if kind == "synthetic":
        _known(chan, "channel", "channel.synthetic")
        lengths = _numbers(_need(chan, "lengths_km", "channel"), "channel.lengths_km")
        if len(lengths) != 2 or any(l < 0 for l in lengths):
            raise ConfigError("channel.lengths_km", "need two non-negative lengths")
        sizes = chan["group_sizes"] = _array(chan.get("group_sizes", [1, 1]),
                                             "channel.group_sizes")
        if len(sizes) != 2 or any(
                _integer(s, f"channel.group_sizes[{i}]") < 1 for i, s in enumerate(sizes)):
            raise ConfigError("channel.group_sizes", "need two sizes >= 1")
        # The crosstalk is at most _FEXT_COEFF * f**2 at the tone centres,
        # f <= f_end, times the size of the group it comes from.
        if not f_end * f_end < math.inf:
            raise ConfigError("grid.f_end_hz", "is too large: f_end_hz ** 2 "
                              "overflows a float")
        fext = _FEXT_COEFF * (f_end * f_end)
        for i, s in enumerate(sizes):  # the gains are scaled by float(s)
            if not fext * _number(s, f"channel.group_sizes[{i}]") < math.inf:
                raise ConfigError(f"channel.group_sizes[{i}]", "is too large: "
                                  "fext_coeff * f_end_hz ** 2 * size overflows "
                                  "a float")
    elif kind == "csv":
        _known(chan, "channel", "channel.csv")
        _path(_need(chan, "path", "channel"), "channel.path")
    else:
        raise ConfigError("channel.kind", "must be 'synthetic' or 'csv'")

    budgets = _numbers(_need(raw, "budgets_mw", ""), "budgets_mw")
    if len(budgets) != 2 or any(b <= 0 for b in budgets):
        raise ConfigError("budgets_mw", "need two positive budgets")

    methods = _array(_need(raw, "methods", ""), "methods")
    if not methods or any(m not in VALID_METHODS for m in methods):
        raise ConfigError("methods", f"must be a non-empty subset of {VALID_METHODS}")
    if len(set(methods)) < len(methods):
        raise ConfigError("methods", "must not repeat a method")

    sweep = dict(_object(_need(raw, "sweep", ""), "sweep"))
    _known(sweep, "sweep", "sweep.rd_bps" if "rd_bps" in sweep else "sweep.count")
    if "rd_bps" in sweep:
        rd = _numbers(sweep["rd_bps"], "sweep.rd_bps")
        if not rd or any(r < 0 for r in rd):
            raise ConfigError("sweep.rd_bps", "need non-negative targets")
        sweep["rd_bps"] = rd
    else:
        if _integer(sweep.get("count", 0), "sweep.count") < 1:
            raise ConfigError("sweep.count", "must be >= 1")
        lo = _number(sweep.get("min_fraction", 0.1), "sweep.min_fraction")
        hi = _number(sweep.get("max_fraction", 0.95), "sweep.max_fraction")
        if not 0 < lo <= hi <= 1:
            raise ConfigError("sweep.min_fraction",
                              "need 0 < min_fraction <= max_fraction <= 1")
        sweep.update(min_fraction=lo, max_fraction=hi)

    near = _integer(raw.get("near_user", 1), "near_user")
    if near not in (0, 1):
        raise ConfigError("near_user", "must be 0 or 1")

    plan = raw.get("band_plan_hz")
    if plan is not None:
        plan = _array(plan, "band_plan_hz")
        if len(plan) != 2:
            raise ConfigError("band_plan_hz", "need one entry (or null) per user")
        for u, ranges in enumerate(plan):
            if ranges is None:
                continue
            for r, pair in enumerate(_array(ranges, f"band_plan_hz[{u}]")):
                path = f"band_plan_hz[{u}][{r}]"
                pair = _numbers(pair, path)
                if len(pair) != 2 or not pair[0] < pair[1]:
                    raise ConfigError(path, "need [lo, hi] with lo < hi")
                # A CSV channel brings its own grid: build_channel checks it.
                if kind == "synthetic" and (pair[0] < f_start or pair[1] > f_end):
                    raise ConfigError(path, "outside the grid")
        plan = tuple(None if r is None else tuple(tuple(p) for p in r) for r in plan)

    psd = _number(_need(raw, "noise_psd_dbm_hz", ""), "noise_psd_dbm_hz")
    if _from_db(psd) == math.inf:
        raise ConfigError("noise_psd_dbm_hz",
                          "is too large: the linear PSD overflows a float")
    gap_db = _number(raw.get("gap_db", 0.0), "gap_db")
    if gap_db < 0:
        raise ConfigError("gap_db", "must be >= 0")
    if _from_db(gap_db) == math.inf:
        raise ConfigError("gap_db", "is too large: the linear gap overflows a float")
    levels = _integer(raw.get("oracle_levels", 11), "oracle_levels")
    if levels < 2:
        raise ConfigError("oracle_levels", "must be >= 2")
    name = raw.get("name", "scenario")
    if not isinstance(name, str):
        raise ConfigError("name", "must be a string")

    return ScenarioConfig(
        name=name,
        grid_spec=dict(grid),
        channel_spec=chan,
        noise_psd_dbm_hz=psd,
        budgets_mw=tuple(budgets),
        methods=tuple(methods),
        sweep=sweep,
        near_user=near,
        gap_db=gap_db,
        band_plan_hz=plan,
        oracle_levels=levels,
        output_dir=str(_path(raw.get("output_dir", "scenario_out"), "output_dir")),
    )


def build_channel(config: ScenarioConfig) -> ChannelMatrixSet:
    """Representative 2-user channel: synthetic topology or CSV, plus mask.

    A CSV channel runs on the CSV's own grid, so its band plan is checked
    against that grid here, not against the config's grid block.  A plan
    must cover at least one tone centre of each user it restricts.
    """
    spec = config.channel_spec
    if spec["kind"] == "csv":
        channel = load_channel_csv(spec["path"])
        if channel.num_users != 2:
            raise ConfigError("channel.path", "scenario channels must have 2 users")
        if config.band_plan_hz is None:
            return channel
        gains = channel.gains.copy()
    else:
        grid = make_uniform_grid(config.grid_spec["f_start_hz"],
                                 config.grid_spec["f_end_hz"],
                                 int(config.grid_spec["num_tones"]))
        # A length past the float range gives exp(-inf) = 0.
        with np.errstate(over="ignore"):
            channel = synthetic_dsl_channel(spec["lengths_km"], grid)
        for user in (0, 1):
            if not channel.gains[:, user, user].any():
                raise ConfigError("channel.lengths_km", "underflows every direct "
                                  f"gain of user {user} to 0 on this grid and "
                                  "line length")
        # Crosstalk into each receiver is the other group's power sum.
        s0, s1 = spec["group_sizes"]
        gains = channel.gains * np.array([[1, s1], [s0, 1]])

    grid, centers = channel.grid, channel.grid.centers
    for user, ranges in enumerate(config.band_plan_hz or ()):
        if ranges is None:
            continue
        usable = np.zeros(centers.size, dtype=bool)
        for r, (lo, hi) in enumerate(ranges):
            if lo < grid.edges[0] or hi > grid.edges[-1]:
                raise ConfigError(f"band_plan_hz[{user}][{r}]", "outside the grid")
            usable |= (centers >= lo) & (centers <= hi)
        if not usable.any():
            raise ConfigError(f"band_plan_hz[{user}]",
                              "covers no tone centre of the grid")
        gains[~usable, user, user] = 0.0
    return ChannelMatrixSet(gains, grid)


def _sweep_targets(config: ScenarioConfig, max_rate: float) -> list[float]:
    if "rd_bps" in config.sweep:
        return list(config.sweep["rd_bps"])
    lo = config.sweep["min_fraction"] * max_rate
    hi = config.sweep["max_fraction"] * max_rate
    return list(np.linspace(lo, hi, config.sweep["count"]))


def run_scenario(config: ScenarioConfig, output_dir: str | None = None) -> dict:
    """Execute a scenario and write its CSV artefacts.

    Returns a report dict with the emitted file paths and the rate-region
    rows (method, target, near rate, far rate).  Every method but the
    oracle writes PSD and SINR files of its allocation at the middle swept
    target, the report's detail_rd_bps; RA-IWF has no target and writes its
    one allocation.  Raises ConfigError for configuration problems;
    infeasibility inside a method propagates as waterfilling.InfeasibleError.
    """
    channel = build_channel(config)
    grid = channel.grid
    try:
        noise = NoiseProfile.from_psd_dbm_hz(config.noise_psd_dbm_hz, grid, 2)
    except ValueError as exc:  # a tone's noise power out of range
        raise ConfigError("noise_psd_dbm_hz", str(exc)) from None
    gap = config.gap
    budgets = list(config.budgets_mw)
    i = _overflowing_budget(budgets, _direct(channel), noise.values, gap)
    if i is not None:
        raise ConfigError(f"budgets_mw[{i}]", f"{budgets[i]!r} {_TOO_LARGE}")
    sweep = _Sweep(channel, noise, budgets, config.near_user, gap)
    targets = _sweep_targets(config, sweep.search.full)
    detail_rd = targets[len(targets) // 2]

    def row(method: str, target: str, near_rate: float, far_rate: float) -> tuple:
        return method, target, format_float(near_rate), format_float(far_rate)

    rows = []
    details: dict[str, np.ndarray] = {}  # each method's (2, K) detail powers
    for method in config.methods:
        if method == "oracle":
            try:
                curve = brute_force_pareto(channel, noise, budgets, gap=gap,
                                           levels=config.oracle_levels)
            except SearchSpaceError as exc:  # the oracle's own cap rule
                raise ConfigError("oracle_levels", str(exc)) from None
            # The curve's columns are (user 1, user 0) rates.
            points = curve.points[:, [1 - sweep.near, 1 - sweep.far]]
            for near_rate, far_rate in points[points[:, 0].argsort(kind="stable")]:
                rows.append(row(method, "", near_rate, far_rate))
            continue
        if method == "ra-iwf":
            p = np.array([a.power for a in iterate_iwf(
                channel, noise, budgets, mode="ra", gap=gap).allocations])
            rows.append(row(method, "", *sweep.rated(p)))
            details[method] = p
            continue
        play = sweep.fmiwf if method == "fm-iwf" else sweep.round
        for rd in targets:
            p, near_rate, far_rate, _ = play(rd)
            rows.append(row(method, format_float(rd), near_rate, far_rate))
            if rd == detail_rd:
                details[method] = p

    # Made only now, so a run that fails leaves no directory behind.
    out_dir = output_dir or config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    files = {}
    region_path = os.path.join(out_dir, "rate_region.csv")
    with open(region_path, "w", newline="") as fh:
        fh.write("method,target_bps,near_bps,far_bps\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    files["rate_region"] = region_path

    freqs = _texts(grid.edges[1:])  # the first column of every PSD and SINR file
    for method, p in details.items():
        tag = method.replace("-", "_")
        psd_path = os.path.join(out_dir, f"psd_{tag}.csv")
        _write_psd(psd_path, freqs, p, grid.widths)
        sinr_path = os.path.join(out_dir, f"sinr_{tag}.csv")
        _write_rows(sinr_path, ["freq_hz", "sinr_1", "sinr_2"], freqs,
                    sweep.sinr(p).T)
        files[f"psd_{method}"] = psd_path
        files[f"sinr_{method}"] = sinr_path

    return {"name": config.name, "files": files, "rows": rows,
            "near_user": sweep.near, "near_max_bps": sweep.search.full,
            "far_free_bps": sweep.far_free, "detail_rd_bps": detail_rd}


def emit_region_map(snr_range: tuple, h_range: tuple, resolution: int,
                    path: str) -> int:
    """Write a region-classification map over an (h, snr) grid.

    Rows are h,snr,region,h_lim1,h_lim2 with snr log-spaced over snr_range
    and h linear over h_range; returns the number of rows written.
    """
    if resolution < 1:
        raise ConfigError("resolution", "must be >= 1")
    lo, hi = snr_range
    if not (0 < lo <= hi < math.inf and 1.0 / lo < math.inf):
        raise ConfigError("snr_range", "need finite 0 < lo <= hi, with a finite 1/lo")
    h_lo, h_hi = h_range
    if not 0 <= h_lo <= h_hi < 1:
        raise ConfigError("h_range", "need 0 <= lo <= hi < 1")
    snrs = np.geomspace(lo, hi, resolution)
    hs = np.linspace(h_lo, h_hi, resolution).tolist()
    # The limits depend on snr alone: one pair per row, all taken before
    # the file opens.
    rows = [(snr, symmetric.h_lim1(snr), symmetric.h_lim2(snr))
            for snr in snrs.tolist()]
    h_strs = [format_float(h) for h in hs]
    with open(path, "w", newline="") as fh:
        fh.write("h,snr,region,h_lim1,h_lim2\n")
        for snr, l1, l2 in rows:
            # hs ascends: the row is a run of A, B, then C (region_between).
            a = bisect.bisect_left(hs, l1)
            c = max(a, bisect.bisect_right(hs, l2))
            snr_str = f",{format_float(snr)},"
            tail = f",{format_float(l1)},{format_float(l2)}\n"
            for code, s, e in (("A", 0, a), ("B", a, c), ("C", c, len(hs))):
                if s < e:
                    mid = snr_str + code + tail
                    fh.write(mid.join(h_strs[s:e]) + mid)
    return len(rows) * len(hs)
