"""Per-tone channel and noise descriptions.

Everything downstream works on squared-magnitude (power) gains: a channel is
a stack of K gain matrices, one per frequency interval ("tone"), with direct
gains on the diagonal and crosstalk couplings off it.  Noise is stored as
linear in-tone power per user.  Power units are arbitrary but must be
consistent across budgets and noise (the bundled scenarios use mW).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np


class ChannelCsvError(ValueError):
    """Raised when a channel or noise CSV file cannot be parsed."""


def _from_db(db: float) -> float:
    """The linear value of db decibels: inf where it overflows a float,
    for the caller to refuse by the name its user gave it."""
    try:
        return 10.0 ** (float(db) / 10.0)
    except OverflowError:
        return math.inf


def _lock(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _check_range(a: np.ndarray, message: str, positive: bool = False) -> None:
    """Raise ValueError(message) unless every entry of a is finite and >= 0
    (> 0 when positive); an empty a passes.  Two reductions and no
    full-size temporary: min and max are nan when any entry is, which fails
    both tests."""
    if a.size:
        low = np.minimum.reduce(a, axis=None)
        if not ((low > 0 if positive else low >= 0)
                and np.maximum.reduce(a, axis=None) < np.inf):
            raise ValueError(message)


@dataclass(frozen=True)
class FrequencyGrid:
    """Tone boundaries in Hz.  K tones are the intervals between K+1 edges."""

    edges: np.ndarray

    def __post_init__(self):
        edges = _lock(np.asarray(self.edges, dtype=float))
        object.__setattr__(self, "edges", edges)
        if edges.ndim != 1 or edges.size < 2:
            raise ValueError("grid needs at least two edges")
        # An infinite edge, or finite ones too far apart, gives an infinite
        # width; a nan edge or two infinite ones a nan width.
        with np.errstate(over="ignore", invalid="ignore"):
            widths = _lock(np.diff(edges))
        if not np.all(widths > 0):
            raise ValueError("grid edges must be strictly increasing")
        if not np.maximum.reduce(widths) < np.inf:
            raise ValueError("grid edges and tone widths must be finite")
        object.__setattr__(self, "_widths", widths)

    @property
    def num_tones(self) -> int:
        return self.edges.size - 1

    @property
    def widths(self) -> np.ndarray:
        """Tone widths in Hz, computed once; read-only."""
        return self._widths

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    @property
    def span(self) -> float:
        return float(self.edges[-1] - self.edges[0])


def make_uniform_grid(f_start: float, f_end: float, num_tones: int) -> FrequencyGrid:
    if num_tones < 1:
        raise ValueError("num_tones must be >= 1")
    return FrequencyGrid(np.linspace(float(f_start), float(f_end), num_tones + 1))


@dataclass(frozen=True)
class ChannelMatrixSet:
    """Stack of per-tone power-gain matrices, shape (K, N, N).

    gains[k, i, j] is the squared channel magnitude from transmitter j into
    receiver i on tone k; the diagonal holds direct gains.  A zero diagonal
    entry marks a band the user cannot transmit in (for example a band-plan
    mask); off-diagonal entries are crosstalk couplings and must be >= 0.
    """

    gains: np.ndarray
    grid: FrequencyGrid

    def __post_init__(self):
        gains = _lock(np.asarray(self.gains, dtype=float))
        object.__setattr__(self, "gains", gains)
        if gains.ndim != 3 or gains.shape[1] != gains.shape[2]:
            raise ValueError("gains must have shape (num_tones, N, N)")
        if gains.shape[0] != self.grid.num_tones:
            raise ValueError("gain stack does not match grid tone count")
        _check_range(gains, "gains must be finite and non-negative")

    @property
    def num_users(self) -> int:
        return self.gains.shape[1]

    @property
    def num_tones(self) -> int:
        return self.gains.shape[0]


@dataclass(frozen=True)
class NoiseProfile:
    """Linear in-tone noise power per user, shape (N, K).  Strictly positive."""

    values: np.ndarray

    def __post_init__(self):
        values = _lock(np.atleast_2d(np.asarray(self.values, dtype=float)))
        object.__setattr__(self, "values", values)
        _check_range(values, "noise must be finite and strictly positive",
                     positive=True)

    @property
    def num_users(self) -> int:
        return self.values.shape[0]

    @classmethod
    def white(cls, level: float, num_users: int, num_tones: int) -> "NoiseProfile":
        return cls(np.full((num_users, num_tones), float(level)))

    @classmethod
    def from_psd_dbm_hz(cls, psd_dbm_hz: float, grid: FrequencyGrid,
                        num_users: int) -> "NoiseProfile":
        """White noise at a PSD in dBm/Hz, integrated over each tone (mW).
        A PSD whose linear value or tone power overflows a float is refused."""
        with np.errstate(over="ignore"):
            per_tone = _from_db(psd_dbm_hz) * grid.widths
        if np.maximum.reduce(per_tone) == np.inf:
            raise ValueError(f"noise PSD {psd_dbm_hz!r} dBm/Hz is too large: "
                             "the noise power of a tone overflows a float")
        return cls(np.tile(per_tone, (num_users, 1)))


def symmetric_two_band_channel(h: float) -> ChannelMatrixSet:
    """Two users, two equal bands, identical cross coupling h on both.

    h is a squared magnitude and must satisfy 0 <= h < 1.  Band widths are
    one half each, so a full-band rate of w*log2(...) per band reproduces
    the usual half-log payoffs of the symmetric game.
    """
    if not 0 <= h < 1:
        raise ValueError("symmetric coupling h must satisfy 0 <= h < 1")
    m = np.array([[1.0, h], [h, 1.0]])
    return ChannelMatrixSet(np.stack([m, m]), FrequencyGrid(np.array([0.0, 0.5, 1.0])))


def nearfar_two_band_channel(alpha: float, beta: float, gamma: float,
                             delta: float = 0.0, epsilon: float = 0.0,
                             w1: float = 1.0, w2: float = 1.0) -> ChannelMatrixSet:
    """Two-band near-far channel: a weak user confined to the first band.

    Band 1 carries [[alpha, beta], [gamma, 1]]; band 2 carries
    [[0, delta], [epsilon, 1]].  User 0 is the weak (far) user with direct
    gain alpha in band 1 only; user 1 is the strong (near) user with unit
    direct gain everywhere.
    """
    for name, v in (("alpha", alpha), ("beta", beta), ("gamma", gamma),
                    ("delta", delta), ("epsilon", epsilon)):
        if v < 0:
            raise ValueError(f"{name} must be >= 0")
    if alpha == 0:
        raise ValueError("alpha must be > 0, otherwise the weak user has no channel")
    band1 = np.array([[alpha, beta], [gamma, 1.0]])
    band2 = np.array([[0.0, delta], [epsilon, 1.0]])
    grid = FrequencyGrid(np.array([0.0, w1, w1 + w2]))
    return ChannelMatrixSet(np.stack([band1, band2]), grid)


_FEXT_COEFF = 1e-16  # synthetic_dsl_channel's crosstalk coefficient


def synthetic_dsl_channel(lengths_km, grid: FrequencyGrid,
                          coupling_lengths_km=None,
                          attenuation: float = 5e-4,
                          fext_coeff: float = _FEXT_COEFF) -> ChannelMatrixSet:
    """Deterministic synthetic DSL-like channel for N lines.

    Direct gain follows the classic twisted-pair shape
    g(f, L) = exp(-attenuation * L_km * sqrt(f_Hz)), evaluated at tone
    centers.  Crosstalk coupling from line j into line i is
    fext_coeff * f^2 * g(f, Lc(i, j)) with Lc the coupling length, which
    defaults to the shorter of the two line lengths (the shared binder
    segment).  This is a stylised model, not a cable measurement; the
    constants are configuration, chosen to give DSL-like attenuation slopes.
    """
    lengths = np.asarray(lengths_km, dtype=float)
    if lengths.ndim != 1 or lengths.size < 1:
        raise ValueError("lengths_km must be a 1-D sequence")
    if np.any(lengths < 0):
        raise ValueError("line lengths must be >= 0")
    n = lengths.size
    if coupling_lengths_km is None:
        lc = np.minimum.outer(lengths, lengths)
    else:
        lc = np.asarray(coupling_lengths_km, dtype=float)
        if lc.shape != (n, n) or np.any(lc < 0):
            raise ValueError("coupling_lengths_km must be a non-negative (N, N) matrix")
    f = grid.centers
    root_f = np.sqrt(f)
    # One (K, N, N) array, filled in place: crosstalk everywhere, then the
    # direct gains on the diagonal.
    gains = np.multiply.outer(root_f, -attenuation * lc)
    np.exp(gains, out=gains)
    gains *= (fext_coeff * f ** 2)[:, None, None]
    users = np.arange(n)
    gains[:, users, users] = np.exp(-attenuation * np.outer(root_f, lengths))
    return ChannelMatrixSet(gains, grid)


# --- CSV interchange -------------------------------------------------------
#
# Channel files carry one row per tone, ascending in frequency, with the
# tone's upper edge in the first column:
#     freq_hz,g_1_1,g_1_2,...,g_N_N
# The lower edge of the first tone is recovered from the first spacing
# (exact for uniform grids); a single-tone file is assumed to start at 0.
# The writers refuse a grid whose first edge that rule would not give back.
# Noise files use the same frequency convention with columns n_1..n_N.


def _parse_float(cell: str, path, line: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ChannelCsvError(f"{path}: line {line}: not a number: {cell!r}") from None
    if not math.isfinite(value):
        raise ChannelCsvError(f"{path}: line {line}: not a finite number: {cell!r}")
    return value


def _read_table(path, header: tuple, value: tuple) -> tuple[FrequencyGrid, np.ndarray]:
    """Read an all-numeric CSV of the layout _write_rows writes: a header
    freq_hz,<names>, then one row per tone, its upper edge first.

    header is (rule, form): rule(names) accepts the names after freq_hz,
    and a refused header is reported as needing freq_hz,<form>.  value is
    (rule, message): rule(v) is true for a bad value after the edge.
    Returns the grid and the (tones, names) values.
    """
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if len(rows) < 2:
        raise ChannelCsvError(f"{path}: no tone rows")
    (header_ok, form), (bad, message) = header, value
    if rows[0][0] != "freq_hz" or not header_ok(rows[0][1:]):
        raise ChannelCsvError(f"{path}: header must be freq_hz,{form}")
    width = len(rows[0])
    table = []
    for ln, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise ChannelCsvError(f"{path}: line {ln}: expected {width} fields, got {len(row)}")
        vals = [_parse_float(c, path, ln) for c in row]
        if any(bad(v) for v in vals[1:]):
            raise ChannelCsvError(f"{path}: line {ln}: {message}")
        table.append(vals)
    table = np.array(table)
    freqs = table[:, 0]
    with np.errstate(over="ignore"):  # the grid refuses an infinite width
        steps = np.diff(freqs)
        f0 = 2 * freqs[0] - freqs[1] if freqs.size >= 2 else 0.0
    if np.any(steps <= 0):
        raise ChannelCsvError(f"{path}: frequencies must be strictly ascending")
    if f0 >= freqs[0]:
        raise ChannelCsvError(f"{path}: cannot reconstruct a positive first tone width")
    try:
        grid = FrequencyGrid(np.r_[f0, freqs])
    except ValueError as exc:
        raise ChannelCsvError(f"{path}: {exc}") from None
    return grid, table[:, 1:].copy()


def load_channel_csv(path) -> ChannelMatrixSet:
    def square(names):
        return names != [] and round(len(names) ** 0.5) ** 2 == len(names)
    grid, gains = _read_table(path, (square, "g_1_1,...,g_N_N"),
                              (lambda v: v < 0, "negative gain"))
    n = round(gains.shape[1] ** 0.5)
    return ChannelMatrixSet(gains.reshape(-1, n, n), grid)


def _check_csv_grid(grid: FrequencyGrid) -> None:
    """Refuse a grid the reader would rebuild otherwise: its first edge
    must lie within 1e-9 of the smallest width of 2 f1 - f2 (of 0 for a
    single tone), the same tolerance as the CLI's noise grid check."""
    edges = grid.edges[:3].tolist()
    rebuilt = 2 * edges[1] - edges[2] if len(edges) > 2 else 0.0
    if not abs(rebuilt - edges[0]) <= 1e-9 * grid.widths.min():
        raise ValueError(
            f"grid: first edge {edges[0]!r} Hz would read back as {rebuilt!r} "
            f"Hz; the CSV keeps upper edges only and rebuilds the first one "
            f"from the first spacing (as 0 for a single tone)")


def write_channel_csv(channel: ChannelMatrixSet, path) -> None:
    _check_csv_grid(channel.grid)
    n = channel.num_users
    header = ["freq_hz"] + [f"g_{i + 1}_{j + 1}" for i in range(n) for j in range(n)]
    _write_rows(path, header, _texts(channel.grid.edges[1:]),
                channel.gains.reshape(channel.num_tones, n * n))


def load_noise_csv(path) -> tuple[NoiseProfile, FrequencyGrid]:
    def numbered(names):
        return names != [] and names == [f"n_{i + 1}" for i in range(len(names))]
    grid, noise = _read_table(path, (numbered, "n_1,...,n_N"),
                              (lambda v: v <= 0, "noise must be > 0"))
    return NoiseProfile(noise.T), grid


def write_noise_csv(noise: NoiseProfile, grid: FrequencyGrid, path) -> None:
    _check_csv_grid(grid)
    header = ["freq_hz"] + [f"n_{i + 1}" for i in range(noise.num_users)]
    _write_rows(path, header, _texts(grid.edges[1:]), noise.values.T)


def write_psd_csv(power, grid: FrequencyGrid, path) -> None:
    """Per-Hz transmit PSDs, one column per user, from an (N, K) power matrix."""
    _write_psd(path, _texts(grid.edges[1:]), power, grid.widths)


def _write_psd(path, freqs: list[str], power, widths: np.ndarray) -> None:
    """write_psd_csv with the upper tone edges already as text (_texts)."""
    power = np.asarray(power)
    header = ["freq_hz"] + [f"psd_{i + 1}" for i in range(power.shape[0])]
    _write_rows(path, header, freqs, (power / widths).T)


# 17 significant digits read back as the same double; every CSV number uses it.
_FLOAT = "%.17g"


def format_float(value: float) -> str:
    return _FLOAT % value


def _texts(values) -> list[str]:
    """format_float of each number in a 1-D array."""
    return [_FLOAT % v for v in np.asarray(values, dtype=float).tolist()]


def _write_rows(path, header, first: list[str], rest) -> None:
    """Write a CSV: a first column, already as text (_texts), plus a
    (rows, cols) matrix of numbers.  Tables on one grid format their shared
    first column once."""
    rest = np.asarray(rest, dtype=float)
    cols = rest.shape[1]
    cells: list = [None] * (len(first) * (cols + 1))
    cells[::cols + 1] = first
    for j in range(cols):
        cells[j + 1::cols + 1] = rest[:, j].tolist()
    line = ",".join(["%s"] + [_FLOAT] * cols) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n" + (line * len(first)) % tuple(cells))
