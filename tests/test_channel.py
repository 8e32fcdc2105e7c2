import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from specoord.channel import (ChannelCsvError, ChannelMatrixSet, FrequencyGrid,
                              NoiseProfile, load_channel_csv, load_noise_csv,
                              make_uniform_grid, nearfar_two_band_channel,
                              symmetric_two_band_channel, synthetic_dsl_channel,
                              write_channel_csv, write_noise_csv, write_psd_csv)
from specoord.channel import _write_rows


class TestFrequencyGrid:
    def test_single_interval(self):
        grid = make_uniform_grid(0, 1, 1)
        assert list(grid.edges) == [0.0, 1.0]
        assert grid.widths[0] == 1.0

    def test_bisection(self):
        grid = make_uniform_grid(0, 12e6, 2)
        assert list(grid.widths) == [6e6, 6e6]

    def test_many_tones_width(self):
        grid = make_uniform_grid(3.75e6, 12e6, 4096)
        assert grid.num_tones == 4096
        assert np.allclose(grid.widths, (12e6 - 3.75e6) / 4096, rtol=1e-12)

    def test_widths_sum_to_span(self):
        grid = make_uniform_grid(0.3, 17.9, 777)
        assert np.isclose(grid.widths.sum(), grid.span, rtol=1e-9)

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            FrequencyGrid([1.0])
        with pytest.raises(ValueError):
            FrequencyGrid([0.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            make_uniform_grid(0, 1, 0)

    def test_immutable(self):
        grid = make_uniform_grid(0, 1, 4)
        with pytest.raises(ValueError):
            grid.edges[0] = 5.0

    def test_widths_computed_once_and_read_only(self):
        grid = FrequencyGrid([0.0, 1.0, 3.0, 3.5])
        assert grid.widths is grid.widths
        assert grid.widths.tolist() == [1.0, 2.0, 0.5]
        with pytest.raises(ValueError):
            grid.widths[0] = 5.0


class TestBuilders:
    def test_symmetric_identity_at_zero(self):
        ch = symmetric_two_band_channel(0.0)
        assert ch.num_tones == 2
        assert np.array_equal(ch.gains[0], np.eye(2))
        assert np.array_equal(ch.gains[1], np.eye(2))

    def test_symmetric_structure(self):
        ch = symmetric_two_band_channel(0.3)
        expected = np.array([[1.0, 0.3], [0.3, 1.0]])
        assert np.array_equal(ch.gains[0], expected)
        assert np.array_equal(ch.gains[1], expected)
        # unit-style game: two half-width bands spanning [0, 1]
        assert np.allclose(ch.grid.widths, [0.5, 0.5])

    def test_symmetric_rejects_h_one(self):
        with pytest.raises(ValueError):
            symmetric_two_band_channel(1.0)
        with pytest.raises(ValueError):
            symmetric_two_band_channel(-0.1)

    def test_nearfar_structure(self):
        ch = nearfar_two_band_channel(0.01, 0.5, 1e-6)
        assert np.array_equal(ch.gains[0], [[0.01, 0.5], [1e-6, 1.0]])
        assert np.array_equal(ch.gains[1], [[0.0, 0.0], [0.0, 1.0]])

    def test_nearfar_optional_couplings(self):
        ch = nearfar_two_band_channel(1.0, 0.2, 0.1, delta=0.05, epsilon=0.03,
                                      w1=2.0, w2=3.0)
        assert np.array_equal(ch.gains[1], [[0.0, 0.05], [0.03, 1.0]])
        assert np.allclose(ch.grid.widths, [2.0, 3.0])

    def test_nearfar_rejects_negative(self):
        with pytest.raises(ValueError):
            nearfar_two_band_channel(0.5, -0.1, 0.0)
        with pytest.raises(ValueError):
            nearfar_two_band_channel(0.0, 0.1, 0.0)


class TestSyntheticDsl:
    def grid(self):
        return make_uniform_grid(0, 12e6, 32)

    def test_zero_length_line_is_unit_gain(self):
        ch = synthetic_dsl_channel([0.0, 1.0], self.grid())
        assert np.allclose(ch.gains[:, 0, 0], 1.0)

    def test_longer_line_smaller_gain(self):
        ch = synthetic_dsl_channel([3.6, 0.9], self.grid())
        assert np.all(ch.gains[:, 0, 0] < ch.gains[:, 1, 1])

    def test_deterministic(self):
        a = synthetic_dsl_channel([3.6, 0.9], self.grid())
        b = synthetic_dsl_channel([3.6, 0.9], self.grid())
        assert np.array_equal(a.gains, b.gains)

    def test_fext_grows_with_frequency(self):
        ch = synthetic_dsl_channel([1.0, 1.0], make_uniform_grid(0, 1e6, 16))
        fext = ch.gains[:, 0, 1]
        assert np.all(np.diff(fext) > 0)

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError):
            synthetic_dsl_channel([-1.0, 1.0], self.grid())


class TestNoiseProfile:
    def test_psd_conversion(self):
        # -140 dBm/Hz over a 4.3125 kHz tone: 1e-14 mW/Hz * width
        grid = make_uniform_grid(0, 4312.5, 1)
        noise = NoiseProfile.from_psd_dbm_hz(-140.0, grid, 2)
        assert np.allclose(noise.values, 1e-14 * 4312.5, rtol=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            NoiseProfile(np.array([[1.0, 0.0]]))


class TestCsvRoundTrip:
    def test_channel_round_trip_matches_builder(self, tmp_path):
        path = tmp_path / "chan.csv"
        write_channel_csv(symmetric_two_band_channel(0.3), path)
        loaded = load_channel_csv(path)
        assert np.allclose(loaded.gains, symmetric_two_band_channel(0.3).gains,
                           rtol=1e-12)
        assert np.allclose(loaded.grid.edges, [0.0, 0.5, 1.0], rtol=1e-12)

    def test_noise_round_trip(self, tmp_path):
        grid = make_uniform_grid(0, 3, 3)
        noise = NoiseProfile(np.array([[0.1, 0.2, 0.3], [1.0, 2.0, 3.0]]))
        path = tmp_path / "noise.csv"
        write_noise_csv(noise, grid, path)
        loaded, lgrid = load_noise_csv(path)
        assert np.allclose(loaded.values, noise.values, rtol=1e-12)
        assert np.allclose(lgrid.edges, grid.edges, rtol=1e-12)

    def test_empty_body(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("freq_hz,g_1_1\n")
        with pytest.raises(ChannelCsvError, match="no tone"):
            load_channel_csv(path)

    def test_descending_frequency(self, tmp_path):
        path = tmp_path / "desc.csv"
        path.write_text("freq_hz,g_1_1\n2,1\n1,1\n")
        with pytest.raises(ChannelCsvError, match="ascending"):
            load_channel_csv(path)

    def test_error_names_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("freq_hz,g_1_1\n1,1\n2,oops\n")
        with pytest.raises(ChannelCsvError, match="line 3"):
            load_channel_csv(path)

    def test_negative_gain_rejected(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("freq_hz,g_1_1\n1,-0.5\n")
        with pytest.raises(ChannelCsvError, match="negative"):
            load_channel_csv(path)

    # The file format stores tone upper edges, so only uniform grids
    # recover their first lower edge exactly.
    @given(width=st.floats(min_value=1e-3, max_value=1e6),
           tones=st.integers(min_value=2, max_value=6),
           users=st.integers(min_value=1, max_value=3))
    def test_round_trip_any_gains(self, tmp_path_factory, width, tones, users):
        edges = width * np.arange(tones + 1)
        grid = FrequencyGrid(edges)
        rng = np.random.default_rng(tones * 7 + users)
        gains = rng.uniform(0.0, 5.0, (grid.num_tones, users, users))
        channel = ChannelMatrixSet(gains, grid)
        path = tmp_path_factory.mktemp("rt") / "c.csv"
        write_channel_csv(channel, path)
        loaded = load_channel_csv(path)
        assert np.allclose(loaded.gains, gains, rtol=1e-12, atol=0)
        assert np.allclose(loaded.grid.edges, edges, rtol=1e-9, atol=1e-9)


def per_cell_csv(header, rows):
    """Cell-by-cell reference for the CSV writers."""
    return "".join([",".join(header) + "\n"]
                   + [",".join("%.17g" % v for v in row) + "\n" for row in rows])


class TestWriteRows:
    def test_matches_per_cell_format(self, tmp_path, rng):
        special = [0.0, -0.0, 5e-324, 1e-300, 1 / 3, 2.0 ** 53 + 2, -1e308,
                   np.inf, -np.inf, np.nan]
        table = np.concatenate([rng.normal(size=(6, 3)) * 10.0 ** rng.integers(
            -20, 20, size=(6, 3)), np.reshape(special + special[:2], (4, 3))])
        path = tmp_path / "rows.csv"
        _write_rows(path, ["a", "b", "c"], table[:, 0], table[:, 1:])
        assert path.read_text() == per_cell_csv(["a", "b", "c"], table)

    def test_psd_is_power_over_width(self, tmp_path, rng):
        grid = FrequencyGrid(np.cumsum(np.r_[0.0, rng.random(7) + 0.1]))
        power = rng.random((3, 7))
        path = tmp_path / "psd.csv"
        write_psd_csv(power, grid, path)
        rows = [[grid.edges[k + 1]] + [power[u, k] / grid.widths[k] for u in range(3)]
                for k in range(7)]
        assert path.read_text() == per_cell_csv(
            ["freq_hz", "psd_1", "psd_2", "psd_3"], rows)
