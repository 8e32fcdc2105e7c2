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
from types import MappingProxyType

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
# A sweep's first target, as a fraction of the near user's full-band rate.
_MIN_FRACTION = 0.1
# The default of a field that a config must set.
_REQUIRED = object()


class ConfigError(ValueError):
    """Configuration problem; carries the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


# Each parser takes a JSON value and its field path, and returns the value
# parsed or raises ConfigError naming the path.

def _typed(types, message: str):
    """A parser that passes a value of types through and refuses any other."""
    def parser(value, path: str):
        if not isinstance(value, types):
            raise ConfigError(path, message)
        return value
    return parser


_object = _typed(dict, "must be a JSON object")
_array = _typed((list, tuple), "must be a JSON array")
_string = _typed(str, "must be a string")
_path = _typed((str, os.PathLike), "must be a file path")


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


def _integer(value, path: str) -> int:
    # Checked, not truncated: int(2.5) would run 2 silently.
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(path, "must be an integer")
    return int(value)


def _each(parse):
    """A parser of a JSON array into the tuple of its items parsed by parse."""
    return lambda value, path: tuple(parse(v, f"{path}[{i}]")
                                     for i, v in enumerate(_array(value, path)))


_numbers, _integers = _each(_number), _each(_integer)


def _checked(parse, *rules):
    """parse, then refuse a parsed value that fails ok with message, for
    each (ok, message) rule in turn."""
    def parser(value, path: str):
        parsed = parse(value, path)
        for ok, message in rules:
            if not ok(parsed):
                raise ConfigError(path, message)
        return parsed
    return parser


def _block(value, path: str, fields: str) -> MappingProxyType:
    """The fields of _FIELDS[fields] parsed from the JSON object value, as
    a read-only mapping: its first unknown key is refused, then each field
    in table order, missing if required and absent, else by its parser; an
    absent field takes its default, parsed too."""
    block, schema = _object(value, path), _FIELDS[fields]
    prefix = f"{path}." if path else ""
    for key in block:
        if key not in schema:
            raise ConfigError(f"{prefix}{key}", "unknown field")
    parsed = {}
    for key, (parse, default) in schema.items():
        value = block.get(key, default)
        if value is _REQUIRED:
            raise ConfigError(f"{prefix}{key}", "missing")
        parsed[key] = parse(value, f"{prefix}{key}")
    return MappingProxyType(parsed)


def _channel(value, path: str) -> MappingProxyType:
    """A channel block, read with the fields of its kind."""
    kind = _object(value, path).get("kind")
    if kind not in ("synthetic", "csv"):
        raise ConfigError(f"{path}.kind", "must be 'synthetic' or 'csv'"
                          if "kind" in value else "missing")
    return _block(value, path, f"channel.{kind}")


def _band_plan(value, path: str) -> tuple | None:
    """null, or one entry per user: null or a list of [lo, hi] ranges."""
    if value is None:
        return None
    plan = _array(value, path)
    if len(plan) != 2:
        raise ConfigError(path, "need one entry (or null) per user")
    return tuple(None if ranges is None else _ranges(ranges, f"{path}[{u}]")
                 for u, ranges in enumerate(plan))


def _db(what: str):
    """A parser of a value in dB whose linear value is a finite float."""
    return _checked(_number, (lambda db: _from_db(db) < math.inf,
                              f"is too large: the linear {what} overflows a float"))


_ranges = _each(_checked(_numbers, (
    lambda b: len(b) == 2 and b[0] < b[1], "need [lo, hi] with lo < hi")))
_count = _checked(_integer, (lambda n: n >= 1, "must be >= 1"))
_budgets = _checked(_numbers, (lambda b: len(b) == 2 and min(b) > 0,
                               "need two positive budgets"))
_methods = _checked(lambda v, p: tuple(_array(v, p)),
                    (lambda m: m and all(x in VALID_METHODS for x in m),
                     f"must be a non-empty subset of {VALID_METHODS}"),
                    (lambda m: len(set(m)) == len(m), "must not repeat a method"))
_lengths = _checked(_numbers, (lambda km: len(km) == 2 and min(km) >= 0,
                               "need two non-negative lengths"))
_sizes = _checked(_integers, (lambda s: len(s) == 2 and min(s) >= 1,
                              "need two sizes >= 1"))

# The schema: each block's fields, in the order they are read, map to
# (parser, default); a channel reads the block of its kind.
_FIELDS = {
    "": {
        "grid": (lambda v, p: _block(v, p, "grid"), _REQUIRED),
        "channel": (_channel, _REQUIRED),
        "budgets_mw": (_budgets, _REQUIRED),
        "methods": (_methods, _REQUIRED),
        "sweep": (lambda v, p: _block(v, p, "sweep"), _REQUIRED),
        "near_user": (_checked(_integer, (lambda u: u in (0, 1), "must be 0 or 1")), 1),
        "band_plan_hz": (_band_plan, None),
        "noise_psd_dbm_hz": (_db("PSD"), _REQUIRED),
        "gap_db": (_checked(_db("gap"), (lambda db: db >= 0, "must be >= 0")), 0.0),
        "oracle_levels": (_checked(_integer, (lambda n: n >= 2, "must be >= 2")), 11),
        "name": (_string, "scenario"),
        "output_dir": (lambda v, p: str(_path(v, p)), "scenario_out"),
    },
    "grid": {"f_start_hz": (_number, _REQUIRED), "f_end_hz": (_number, _REQUIRED),
             "num_tones": (_count, _REQUIRED)},
    "channel.synthetic": {"kind": (_string, _REQUIRED),
                          "lengths_km": (_lengths, _REQUIRED),
                          "group_sizes": (_sizes, [1, 1])},
    "channel.csv": {"kind": (_string, _REQUIRED), "path": (_path, _REQUIRED)},
    "sweep": {"count": (_count, _REQUIRED),
              "max_fraction": (_checked(_number, (
                  lambda f: _MIN_FRACTION <= f <= 1,
                  f"must lie in [{_MIN_FRACTION}, 1]")), 0.95)},
}


@dataclass(frozen=True)
class ScenarioConfig:
    """A parsed config: one attribute per field of _FIELDS[""], every
    default resolved; blocks are read-only mappings and arrays tuples."""

    grid: MappingProxyType
    channel: MappingProxyType
    budgets_mw: tuple
    methods: tuple
    sweep: MappingProxyType
    near_user: int
    band_plan_hz: tuple | None
    noise_psd_dbm_hz: float
    gap_db: float
    oracle_levels: int
    name: str
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
    into a config that holds every default resolved.  _FIELDS parses each
    field on its own; the rules here tie fields together."""
    raw = (_read_json(source) if isinstance(source, (str, os.PathLike))
           else source)
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    fields = _block(raw, "", "")
    f_start, f_end = fields["grid"]["f_start_hz"], fields["grid"]["f_end_hz"]
    if not f_end > f_start >= 0:
        raise ConfigError("grid.f_end_hz", "need f_end_hz > f_start_hz >= 0")
    # A CSV channel brings its own grid: build_channel checks its plan.
    if fields["channel"]["kind"] == "synthetic":
        # The crosstalk is at most _FEXT_COEFF * f**2 at the tone centres,
        # f <= f_end, times the size of the group it comes from.
        if not f_end * f_end < math.inf:
            raise ConfigError("grid.f_end_hz", "is too large: f_end_hz ** 2 "
                              "overflows a float")
        fext = _FEXT_COEFF * (f_end * f_end)
        for i, s in enumerate(fields["channel"]["group_sizes"]):
            path = f"channel.group_sizes[{i}]"  # the gains are scaled by float(s)
            if not fext * _number(s, path) < math.inf:
                raise ConfigError(path, "is too large: fext_coeff * f_end_hz "
                                  "** 2 * size overflows a float")
        for u, ranges in enumerate(fields["band_plan_hz"] or ()):
            for r, (lo, hi) in enumerate(ranges or ()):
                if lo < f_start or hi > f_end:
                    raise ConfigError(f"band_plan_hz[{u}][{r}]", "outside the grid")
    return ScenarioConfig(**fields)


def build_channel(config: ScenarioConfig) -> ChannelMatrixSet:
    """Representative 2-user channel: synthetic topology or CSV, plus mask.

    A CSV channel runs on the CSV's own grid, so its band plan is checked
    against that grid here, not against the config's grid block.  A plan
    must cover at least one tone centre of each user it restricts.
    """
    spec = config.channel
    if spec["kind"] == "csv":
        channel = load_channel_csv(spec["path"])
        if channel.num_users != 2:
            raise ConfigError("channel.path", "scenario channels must have 2 users")
        if config.band_plan_hz is None:
            return channel
        gains = channel.gains.copy()
    else:
        grid = make_uniform_grid(config.grid["f_start_hz"], config.grid["f_end_hz"],
                                 config.grid["num_tones"])
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
        raise ConfigError(f"budgets_mw[{i}]",
                          f"{budgets[i]!r} {_TOO_LARGE.format('budget')}")
    sweep = _Sweep(channel, noise, budgets, config.near_user, gap)
    full, top = sweep.search.full, config.sweep["max_fraction"]
    targets = list(np.linspace(_MIN_FRACTION * full, top * full, config.sweep["count"]))
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
