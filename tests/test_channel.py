import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from specoord.channel import (ChannelCsvError, ChannelMatrixSet, FrequencyGrid,
                              NoiseProfile, load_channel_csv, load_noise_csv,
                              make_uniform_grid, nearfar_two_band_channel,
                              symmetric_two_band_channel, synthetic_dsl_channel,
                              write_channel_csv, write_noise_csv, write_psd_csv)
from specoord.channel import _ATTENUATION, _FEXT_COEFF, _texts, _write_rows


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

    # Edges 2e308 apart used to give an infinite width after numpy's
    # overflow warning, and capacity on the grid inf; a span of 2e308 over
    # finite widths made capacity overflow.  A warning fails the test; a
    # nan edge stays a non-increasing one.
    @pytest.mark.parametrize("edges,message", [
        ([-1e308, 1e308], "grid edges and tone widths must be finite"),
        ([0.0, 1.0, np.inf], "grid edges and tone widths must be finite"),
        ([-np.inf, 0.0], "grid edges and tone widths must be finite"),
        ([np.inf, np.inf], "grid edges must be strictly increasing"),
        ([0.0, np.nan], "grid edges must be strictly increasing"),
        ([-1e308, 0.0, 1e308],
         "grid span must be below float max / 1024, about 1.76e305 Hz"),
    ], ids=["2e308-apart", "inf-last", "inf-first", "inf-inf", "nan",
            "2e308-span"])
    def test_rejects_non_finite_edges_or_widths(self, edges, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            FrequencyGrid(np.array(edges))

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

    # A nan length used to be refused as a bad gain, and an infinite one
    # accepted with an all-zero direct gain.
    def test_rejects_negative_length(self):
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError,
                               match="^lengths_km must be finite and >= 0$"):
                synthetic_dsl_channel([bad, 1.0], self.grid())

    @pytest.mark.parametrize("lengths", [[], [[1.0, 2.0]]])
    def test_rejects_lengths_not_a_1d_sequence(self, lengths):
        with pytest.raises(ValueError, match="^lengths_km must be a 1-D sequence$"):
            synthetic_dsl_channel(lengths, self.grid())

    def test_matches_the_pairwise_formula(self, rng):
        # The docstring's formula, one (i, j) pair at a time, bit for bit:
        # random lengths, tied ones, a zero one and a single line.
        grid = self.grid()
        f = grid.centers
        for lengths in (rng.uniform(0.2, 4.0, 6), [1.0, 1.0, 0.5],
                        [0.0, 2.0, 0.0], [1.5]):
            ch = synthetic_dsl_channel(lengths, grid)
            assert ch.gains.flags.c_contiguous
            direct = np.exp(-_ATTENUATION * np.outer(np.sqrt(f), lengths))
            for i, li in enumerate(lengths):
                for j, lj in enumerate(lengths):
                    want = (direct[:, i] if i == j else
                            _FEXT_COEFF * f ** 2
                            * np.exp(-_ATTENUATION * min(li, lj) * np.sqrt(f)))
                    assert np.array_equal(ch.gains[:, i, j], want)


class TestChannelMatrixSet:
    @pytest.mark.parametrize("bad", [-1.0, np.inf, np.nan])
    def test_rejects_bad_gains(self, bad):
        gains = np.ones((2, 2, 2))
        gains[1, 0, 1] = bad
        with pytest.raises(ValueError,
                           match="^gains must be finite and non-negative$"):
            ChannelMatrixSet(gains, make_uniform_grid(0, 2, 2))

    @pytest.mark.parametrize("shape", [(2, 2), (2, 2, 3)])
    def test_rejects_a_stack_not_of_square_matrices(self, shape):
        with pytest.raises(ValueError,
                           match=r"^gains must have shape \(num_tones, N, N\)$"):
            ChannelMatrixSet(np.ones(shape), make_uniform_grid(0, 2, 2))

    def test_rejects_a_stack_of_another_tone_count(self):
        with pytest.raises(ValueError,
                           match="^gain stack does not match grid tone count$"):
            ChannelMatrixSet(np.ones((3, 2, 2)), make_uniform_grid(0, 2, 2))

    def test_accepts_zero_and_empty_gains(self):
        grid = make_uniform_grid(0, 2, 2)
        assert ChannelMatrixSet(np.zeros((2, 2, 2)), grid).num_users == 2
        assert ChannelMatrixSet(np.zeros((2, 0, 0)), grid).num_users == 0


class TestNoiseProfile:
    def test_psd_conversion(self):
        # -140 dBm/Hz over a 4.3125 kHz tone: 1e-14 mW/Hz * width
        grid = make_uniform_grid(0, 4312.5, 1)
        noise = NoiseProfile.from_psd_dbm_hz(-140.0, grid, 2)
        assert np.allclose(noise.values, 1e-14 * 4312.5, rtol=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            NoiseProfile(np.array([[1.0, 0.0]]))

    @pytest.mark.parametrize("bad", [-1.0, np.inf, np.nan])
    def test_rejects_negative_or_non_finite(self, bad):
        with pytest.raises(ValueError,
                           match="^noise must be finite and strictly positive$"):
            NoiseProfile(np.array([[1.0, 2.0], [3.0, bad]]))

    def test_accepts_empty(self):
        assert NoiseProfile(np.zeros((2, 0))).values.shape == (2, 0)

    # 10 ** 400 used to escape as an OverflowError (a numpy float as a
    # RuntimeWarning); 3080 dBm/Hz is a finite 1e308 mW/Hz, but its power
    # on a 1e5 Hz tone is not, and the multiply used to warn.  A numpy
    # warning fails the test.
    @pytest.mark.parametrize("psd", [4000.0, np.float64(4000.0), 3080.0, np.inf],
                             ids=["4000", "4000-numpy", "3080", "inf"])
    def test_refuses_a_psd_past_the_float_range(self, psd):
        grid = make_uniform_grid(0, 2e5, 2)
        with pytest.raises(ValueError, match="dBm/Hz is too large"):
            NoiseProfile.from_psd_dbm_hz(psd, grid, 2)


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

    # Upper edges 2e308 apart used to load, after numpy's overflow
    # warnings, as a grid of infinite widths.
    @pytest.mark.parametrize("load,body", [
        (load_channel_csv, "freq_hz,g_1_1\n-1e308,1\n1e308,1\n"),
        (load_noise_csv, "freq_hz,n_1\n-1e308,0.1\n1e308,0.1\n"),
        (load_noise_csv, "freq_hz,n_1\n-9e307,0.1\n0,0.1\n"),
    ], ids=["channel", "noise", "noise-first-edge"])
    def test_widths_past_the_float_range(self, tmp_path, load, body):
        path = tmp_path / "wide.csv"
        path.write_text(body)
        with pytest.raises(ChannelCsvError) as exc:
            load(path)
        assert str(exc.value) == (f"{path}: grid edges and tone widths must "
                                  "be finite")

    def test_error_names_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("freq_hz,g_1_1\n1,1\n2,oops\n")
        with pytest.raises(ChannelCsvError, match="line 3"):
            load_channel_csv(path)

    # nan passed the value rules (v < 0, v <= 0) and failed later in the
    # constructors, without the file or the line.
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_gain_rejected(self, tmp_path, cell):
        path = tmp_path / "chan.csv"
        path.write_text(f"freq_hz,g_1_1\n1,1\n2,{cell}\n")
        with pytest.raises(ChannelCsvError,
                           match=f"line 3: not a finite number: '{cell}'") as exc:
            load_channel_csv(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_noise_rejected(self, tmp_path, cell):
        path = tmp_path / "noise.csv"
        path.write_text(f"freq_hz,n_1\n1,0.1\n2,{cell}\n")
        with pytest.raises(ChannelCsvError,
                           match=f"line 3: not a finite number: '{cell}'") as exc:
            load_noise_csv(path)
        assert str(path) in str(exc.value)

    def test_negative_gain_rejected(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("freq_hz,g_1_1\n1,-0.5\n")
        with pytest.raises(ChannelCsvError, match="negative"):
            load_channel_csv(path)

    # Widths 1,500 then 1,270 Hz from edge 0: the reader would rebuild the
    # first edge as 2 * 1500 - 2770 = 230 Hz.
    UNEVEN = FrequencyGrid(np.array([0.0, 1500.0, 2770.0, 4040.0]))

    def test_channel_writer_refuses_a_grid_it_would_lose(self, tmp_path):
        channel = ChannelMatrixSet(np.ones((3, 1, 1)), self.UNEVEN)
        path = tmp_path / "c.csv"
        with pytest.raises(ValueError, match=r"grid: first edge 0\.0 Hz would "
                                             r"read back as 230\.0 Hz"):
            write_channel_csv(channel, path)
        assert not path.exists()

    def test_noise_writer_refuses_a_grid_it_would_lose(self, tmp_path):
        noise = NoiseProfile(np.ones((2, 3)))
        path = tmp_path / "n.csv"
        with pytest.raises(ValueError, match=r"grid: first edge 0\.0 Hz would "
                                             r"read back as 230\.0 Hz"):
            write_noise_csv(noise, self.UNEVEN, path)
        assert not path.exists()

    def test_uneven_grid_from_the_rebuilt_edge_round_trips(self, tmp_path):
        grid = FrequencyGrid(np.r_[230.0, self.UNEVEN.edges[1:]])
        gains = np.arange(1.0, 13.0).reshape(3, 2, 2)
        noise = NoiseProfile(np.arange(1.0, 7.0).reshape(2, 3))
        write_channel_csv(ChannelMatrixSet(gains, grid), tmp_path / "c.csv")
        write_noise_csv(noise, grid, tmp_path / "n.csv")
        loaded, (lnoise, lgrid) = (load_channel_csv(tmp_path / "c.csv"),
                                   load_noise_csv(tmp_path / "n.csv"))
        assert loaded.grid.edges.tobytes() == grid.edges.tobytes()
        assert lgrid.edges.tobytes() == grid.edges.tobytes()
        assert loaded.gains.tobytes() == gains.tobytes()
        assert lnoise.values.tobytes() == noise.values.tobytes()

    def test_single_tone_grid_must_start_at_zero(self, tmp_path):
        channel = ChannelMatrixSet(np.ones((1, 1, 1)), FrequencyGrid([100.0, 300.0]))
        with pytest.raises(ValueError, match=r"first edge 100\.0 Hz would read "
                                             r"back as 0\.0 Hz"):
            write_channel_csv(channel, tmp_path / "c.csv")
        write_channel_csv(ChannelMatrixSet(np.ones((1, 1, 1)),
                                           FrequencyGrid([0.0, 300.0])),
                          tmp_path / "c.csv")
        assert list(load_channel_csv(tmp_path / "c.csv").grid.edges) == [0.0, 300.0]

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
        _write_rows(path, ["a", "b", "c"], _texts(table[:, 0]), table[:, 1:])
        assert path.read_text() == per_cell_csv(["a", "b", "c"], table)

    def test_zero_rows_write_the_header_alone(self, tmp_path):
        path = tmp_path / "rows.csv"
        _write_rows(path, ["a", "b", "c"], _texts(np.empty(0)), np.empty((0, 2)))
        assert path.read_text() == "a,b,c\n"

    @staticmethod
    def one_percent_writer(path, header, first, rest):
        """The writer as it was before its first column came as text: one
        %.17g template over the whole stacked table."""
        table = np.column_stack((first, rest))
        line = ",".join(["%.17g"] * table.shape[1]) + "\n"
        body = (line * table.shape[0]) % tuple(table.ravel().tolist())
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n" + body)

    @pytest.mark.parametrize("rows,cols", [(0, 2), (0, 0), (5, 0), (1, 3)],
                             ids=["no-rows", "no-rows-or-columns",
                                  "no-value-columns", "one-row"])
    def test_edge_shapes_match_the_one_percent_writer(self, tmp_path, rng,
                                                       rows, cols):
        first, rest = rng.normal(size=rows) * 1e5, rng.normal(size=(rows, cols))
        header = ["f"] + [f"v{j}" for j in range(cols)]
        self.one_percent_writer(tmp_path / "old.csv", header, first, rest)
        _write_rows(tmp_path / "new.csv", header, _texts(first), rest)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_tables_on_two_grids_back_to_back(self, tmp_path, rng):
        # Each table keeps its own first column and width: nothing of the
        # first table's template or text carries over to the second.
        for name, k, cols in (("a", 6, 2), ("b", 9, 3), ("c", 6, 2)):
            grid = FrequencyGrid(np.cumsum(np.r_[rng.random(), rng.random(k) + 0.1]))
            rest = rng.random((k, cols))
            header = ["freq_hz"] + [f"v{j}" for j in range(cols)]
            self.one_percent_writer(tmp_path / f"{name}_old.csv", header,
                                    grid.edges[1:], rest)
            _write_rows(tmp_path / f"{name}.csv", header, _texts(grid.edges[1:]),
                        rest)
            write_psd_csv(rest.T, grid, tmp_path / f"{name}_psd.csv")
            self.one_percent_writer(
                tmp_path / f"{name}_psd_old.csv",
                ["freq_hz"] + [f"psd_{j + 1}" for j in range(cols)],
                grid.edges[1:], rest / grid.widths[:, None])
            for new, old in ((name, f"{name}_old"), (f"{name}_psd", f"{name}_psd_old")):
                assert ((tmp_path / f"{new}.csv").read_bytes()
                        == (tmp_path / f"{old}.csv").read_bytes())

    def test_psd_is_power_over_width(self, tmp_path, rng):
        grid = FrequencyGrid(np.cumsum(np.r_[0.0, rng.random(7) + 0.1]))
        power = rng.random((3, 7))
        path = tmp_path / "psd.csv"
        write_psd_csv(power, grid, path)
        rows = [[grid.edges[k + 1]] + [power[u, k] / grid.widths[k] for u in range(3)]
                for k in range(7)]
        assert path.read_text() == per_cell_csv(
            ["freq_hz", "psd_1", "psd_2", "psd_3"], rows)
