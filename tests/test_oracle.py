import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from specoord.channel import (ChannelMatrixSet, FrequencyGrid, NoiseProfile,
                              make_uniform_grid)
from specoord.dfdm import dfdm_vs_fmiwf_region
from specoord import oracle
from specoord.oracle import (RateRegionCurve, SearchSpaceError, _front,
                             _pareto_front, brute_force_pareto, dominates)
from specoord.symmetric import payoff_quad, symmetric_game_instance
from specoord.waterfilling import (achievable_rate, effective_noise,
                                   waterfill_ra)


def contains_point(curve, point, tol=1e-9):
    return bool(np.any(np.all(np.abs(curve.points - point) < tol, axis=1)))


def fm_iwf_curve(h, targets):
    channel, noise, budgets = symmetric_game_instance(h, 10)
    curves = dfdm_vs_fmiwf_region(channel, noise, budgets, targets,
                                  near_user=1)
    return curves


class TestCurve:
    def test_points_sorted_by_first_column(self):
        curve = RateRegionCurve("x", np.array([[2.0, 1.0], [1.0, 5.0]]))
        assert np.all(np.diff(curve.points[:, 0]) >= 0)

    def test_column_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RateRegionCurve("x", np.array([[1.0, 2.0, 3.0]]))


class TestBruteForce:
    def test_single_tone_no_crosstalk_single_point(self):
        grid = make_uniform_grid(0, 1, 1)
        gains = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        channel = ChannelMatrixSet(gains, grid)
        noise = NoiseProfile.white(0.1, 2, 1)
        curve = brute_force_pareto(channel, noise, [1.0, 1.0], levels=11)
        assert curve.points.shape == (1, 2)
        assert np.allclose(curve.points[0], np.log2(1 + 1 / 0.1), rtol=1e-12)

    def test_low_coupling_flat_point_on_frontier(self):
        channel, noise, budgets = symmetric_game_instance(0.05, 10)
        curve = brute_force_pareto(channel, noise, budgets, levels=11)
        q = payoff_quad(0.05, 10)
        assert contains_point(curve, (q.P, q.P))
        sums = curve.points.sum(axis=1)
        assert sums.max() == pytest.approx(2 * q.P, rel=1e-12)

    def test_high_coupling_fdm_point_dominates_flat(self):
        channel, noise, budgets = symmetric_game_instance(0.9, 10)
        curve = brute_force_pareto(channel, noise, budgets, levels=11)
        q = payoff_quad(0.9, 10)
        assert contains_point(curve, (q.R, q.R))
        assert not contains_point(curve, (q.P, q.P))
        assert q.R > q.P
        sums = curve.points.sum(axis=1)
        assert sums.max() == pytest.approx(2 * q.R, rel=1e-12)

    def test_frontier_is_sorted_and_mutually_undominated(self):
        channel, noise, budgets = symmetric_game_instance(0.3, 10)
        curve = brute_force_pareto(channel, noise, budgets, levels=7)
        pts = curve.points
        assert np.all(np.diff(pts[:, 0]) >= 0)
        assert np.all(pts >= 0)
        # Along increasing first coordinate the second must strictly fall.
        assert np.all(np.diff(pts[:, 1]) < 0) or len(pts) == 1

    def test_refining_grid_never_shrinks_frontier(self):
        channel, noise, budgets = symmetric_game_instance(0.3, 10)
        coarse = brute_force_pareto(channel, noise, budgets, levels=11)
        fine = brute_force_pareto(channel, noise, budgets, levels=21)
        assert dominates(fine, coarse, tol=1e-12)

    def test_search_space_cap(self):
        grid = make_uniform_grid(0, 8, 8)
        channel = ChannelMatrixSet(np.tile(np.eye(2), (8, 1, 1)), grid)
        noise = NoiseProfile.white(0.1, 2, 8)
        with pytest.raises(SearchSpaceError):
            brute_force_pareto(channel, noise, [1.0, 1.0], levels=3)

    def test_two_users_only(self):
        grid = make_uniform_grid(0, 1, 1)
        channel = ChannelMatrixSet(np.ones((1, 3, 3)), grid)
        noise = NoiseProfile.white(0.1, 3, 1)
        with pytest.raises(ValueError):
            brute_force_pareto(channel, noise, [1.0] * 3)

    def test_levels_validated(self):
        grid = make_uniform_grid(0, 1, 1)
        channel = ChannelMatrixSet(np.ones((1, 2, 2)), grid)
        noise = NoiseProfile.white(0.1, 2, 1)
        with pytest.raises(ValueError):
            brute_force_pareto(channel, noise, [1.0, 1.0], levels=1)


class TestDominates:
    def test_curve_dominates_itself(self):
        channel, noise, budgets = symmetric_game_instance(0.3, 10)
        curve = brute_force_pareto(channel, noise, budgets, levels=7)
        assert dominates(curve, curve)

    def test_oracle_dominates_fm_iwf(self):
        channel, noise, budgets = symmetric_game_instance(0.3, 10)
        oracle = brute_force_pareto(channel, noise, budgets, levels=11)
        curves = fm_iwf_curve(0.3, np.linspace(0.3, 1.4, 6))
        # 0.05 bits absorbs one power grid step of P/10 through capacity.
        assert dominates(oracle, curves["fm-iwf"], tol=0.05)
        assert dominates(oracle, curves["dfdm"], tol=0.05)

    def test_fm_iwf_does_not_dominate_oracle_when_coupled(self):
        channel, noise, budgets = symmetric_game_instance(0.9, 10)
        oracle = brute_force_pareto(channel, noise, budgets, levels=11)
        far_eff = effective_noise(0, [], channel, noise)
        far_init, _ = waterfill_ra(far_eff, budgets[0], channel.grid)
        near_eff = effective_noise(1, [far_init], channel, noise)
        best, _ = waterfill_ra(near_eff, budgets[1], channel.grid)
        near_max = achievable_rate(best.power, near_eff, channel.grid)
        curves = dfdm_vs_fmiwf_region(channel, noise, budgets,
                                      np.linspace(0.2, near_max * 0.9, 6),
                                      near_user=1)
        assert not dominates(curves["fm-iwf"], oracle, tol=0.01)
        assert dominates(oracle, curves["fm-iwf"], tol=0.05)


def pareto_front_loop(points):
    """Row-by-row Pareto filter: the reference for oracle._pareto_front."""
    order = np.lexsort((-points[:, 1], -points[:, 0]))
    keep = []
    best_y = -np.inf
    for row in points[order]:
        if row[1] > best_y:
            keep.append(row)
            best_y = row[1]
    return np.array(keep)


def split(points, sizes):
    """points cut into consecutive blocks of the given sizes, the last block
    holding whatever is left."""
    cuts = np.cumsum(sizes, dtype=int)
    return np.split(points, cuts[cuts < len(points)])


class TestParetoFront:
    # Few distinct integer values force ties in x, in y and whole duplicate
    # rows; the blocks split the cloud anywhere, empty blocks included.
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                    min_size=1, max_size=40),
           st.lists(st.integers(0, 12), max_size=6))
    def test_matches_loop_on_tie_heavy_clouds(self, rows, sizes):
        points = np.array(rows + rows[: len(rows) // 2], dtype=float)
        want = pareto_front_loop(points)
        assert np.array_equal(_pareto_front([points]), want)
        assert np.array_equal(_pareto_front(split(points, sizes)), want)

    def test_matches_loop_on_a_large_cloud(self, rng):
        points = np.round(rng.random((5000, 2)) * 50) / 7
        want = pareto_front_loop(points)
        for rows in (1, 7, 500, 5000):
            blocks = split(points, [rows] * (len(points) // rows))
            assert np.array_equal(_pareto_front(blocks), want)

    def test_matches_loop_with_frontier_duplicates(self, rng):
        # Ties in x, and every frontier row repeated, at the head of the
        # cloud and at every 16th row, so that a block's front holds some
        # of them.  Row 1 lies right of all others: its y must not be
        # compared with a staircase row left of it.
        cloud = np.round(rng.random((12_000, 2)) * 400) / 7
        front = pareto_front_loop(cloud)
        body = np.concatenate([cloud, np.repeat(front, 5, axis=0)])
        body = body[rng.permutation(len(body))]
        body[::16] = front[np.arange(len(body[::16])) % len(front)]
        far_right = [[cloud[:, 0].max() + 1.0, cloud[:, 1].min()]]
        points = np.concatenate([front[:1], far_right, body])
        assert len(np.unique(points[:, 0])) < len(points) // 4
        for sizes in ([len(points)], [1, 1, 2000], [3000] * 5):
            assert np.array_equal(_pareto_front(split(points, sizes)),
                                  pareto_front_loop(points))

    def test_matches_loop_when_the_best_sum_row_beats_almost_nothing(self, rng):
        # Two arms past the best x + y row at (1, 1): every arm row has the
        # larger x or the larger y, so that row's cut drops none of them and
        # the staircase search does all the work.
        t = np.round(0.001 + 0.98 * rng.random(6000), 3)
        low = np.round(0.9 * (1.0 - t) * rng.random(6000), 3)
        arms = np.column_stack((1.0 + t, low))
        arms[1::2] = arms[1::2, ::-1]
        points = np.concatenate([arms[:3000], [[1.0, 1.0]], arms[3000:]])
        x, y = points.T
        best = points[np.argmax(x + y)]
        assert np.array_equal(best, [1.0, 1.0])
        assert np.count_nonzero((x <= best[0]) & (y < best[1])) == 0
        want = pareto_front_loop(points)
        for rows in (64, 1000, len(points)):
            blocks = split(points, [rows] * (len(points) // rows))
            assert np.array_equal(_pareto_front(blocks), want)

    def test_whole_cloud_sort_matches_loop(self, rng):
        points = np.round(rng.random((3000, 2)) * 60) / 7
        assert np.array_equal(_front(points), pareto_front_loop(points))


class TestNoiseShape:
    def setup_method(self):
        gains = np.tile(np.array([[1.0, 0.2], [0.3, 1.0]]), (4, 1, 1))
        self.channel = ChannelMatrixSet(gains, make_uniform_grid(0, 4, 4))

    @pytest.mark.parametrize("shape", [(2, 3), (3, 4)])
    def test_rejects_mismatched_noise(self, shape):
        noise = NoiseProfile(np.full(shape, 0.1))
        with pytest.raises(ValueError, match=r"noise.*\(%d, %d\).*\(2, 4\)" % shape):
            brute_force_pareto(self.channel, noise, [1.0, 1.0], levels=3)

    @pytest.mark.parametrize("gap", [0.5, float("nan")])
    def test_rejects_bad_gap(self, gap):
        # A gap below 1 would report rates above capacity, and a nan gap
        # an empty frontier.
        noise = NoiseProfile.white(0.1, 2, 4)
        with pytest.raises(ValueError, match="gap"):
            brute_force_pareto(self.channel, noise, [1.0, 1.0], levels=3, gap=gap)


def broadcast_pareto(channel, noise, budgets, levels, gap=1.0):
    """Frontier from (na, nb, K) broadcast rate grids summed by einsum and
    filtered by one sort of the whole cloud: the reference for the per-tone
    tables and the blocks of oracle.brute_force_pareto."""
    steps = np.array(list(product(range(levels), repeat=channel.num_tones)))
    steps = steps[steps.sum(axis=1) <= levels - 1]
    grids = [steps * (float(b) / (levels - 1)) for b in budgets]
    w, g, nz = channel.grid.widths, channel.gains, noise.values

    def rates_for(user, own, other, other_user):
        sig = g[:, user, user] * own
        den = gap * (g[:, user, other_user] * other + nz[user])
        sinr = sig[:, None, :] / den[None, :, :]
        return np.einsum("k,abk->ab", w, np.log1p(sinr)) / np.log(2.0)

    r0 = rates_for(0, grids[0], grids[1], 1)
    r1 = rates_for(1, grids[1], grids[0], 0).T
    points = _front(np.column_stack([r1.ravel(), r0.ravel()]))
    return RateRegionCurve("oracle", points).points


def random_instance(rng, k, zero_tone):
    """Uneven tone widths, gains over three decades, noise over three; with
    zero_tone, tone 0 carries no crosstalk either way."""
    gains = rng.random((k, 2, 2)) * 10.0 ** rng.uniform(-2, 1, (k, 2, 2))
    if zero_tone:
        gains[0, 0, 1] = gains[0, 1, 0] = 0.0
    grid = FrequencyGrid(np.cumsum(np.r_[0.0, rng.uniform(0.5, 3.0, k)]))
    noise = NoiseProfile(10.0 ** rng.uniform(-3, 0, (2, k)))
    return ChannelMatrixSet(gains, grid), noise


class TestRateTables:
    @pytest.mark.parametrize("k,levels,gap,budgets,zero_tone", [
        (1, 2, 1.0, (1.0, 1.0), False),
        (1, 31, 3.5, (1.0, 0.3), True),
        (2, 2, 1.0, (1.0, 1.0), True),
        (2, 7, 1.0, (2.0, 0.5), False),
        (2, 17, 10.0, (1.0, 1.0), True),
        (2, 31, 1.0, (0.7, 1.3), False),
        (2, 31, 2.0, (1.0, 1.0), True),
    ])
    def test_bit_identical_to_broadcast_up_to_two_tones(
            self, rng, k, levels, gap, budgets, zero_tone):
        # einsum sums one or two tone terms in index order, as the tables do.
        channel, noise = random_instance(rng, k, zero_tone)
        got = brute_force_pareto(channel, noise, budgets, levels=levels, gap=gap)
        want = broadcast_pareto(channel, noise, budgets, levels, gap)
        assert got.points.tobytes() == want.tobytes()

    @pytest.mark.parametrize("levels,gap,zero_tone", [
        (2, 1.0, False), (7, 1.0, True), (11, 2.0, False), (11, 1.0, True)])
    def test_three_tones_agree_to_rounding(self, rng, levels, gap, zero_tone):
        # einsum's order over three or more terms depends on the numpy build.
        channel, noise = random_instance(rng, 3, zero_tone)
        got = brute_force_pareto(channel, noise, (1.0, 0.6), levels=levels,
                                 gap=gap).points
        want = broadcast_pareto(channel, noise, (1.0, 0.6), levels, gap)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


BLOCK = oracle._BLOCK_ROWS


class TestBlocks:
    @pytest.mark.parametrize("k,levels", [
        # S = levels steps at K = 1: below, at and just past one and two
        # blocks of user-0 steps.
        (1, BLOCK - 1), (1, BLOCK), (1, BLOCK + 1), (1, 2 * BLOCK),
        (1, 2 * BLOCK + 1),
        # S = levels (levels + 1) / 2 at K = 2: 28 and 36 steps, either
        # side of one block of 32.
        (2, 7), (2, 8),
    ])
    @pytest.mark.parametrize("gap", [1.0, 2.5])
    def test_bit_identical_to_broadcast_around_block_edges(
            self, rng, k, levels, gap):
        channel, noise = random_instance(rng, k, False)
        got = brute_force_pareto(channel, noise, (1.0, 0.8), levels=levels,
                                 gap=gap)
        want = broadcast_pareto(channel, noise, (1.0, 0.8), levels, gap)
        assert got.points.tobytes() == want.tobytes()

    def test_bit_identical_to_broadcast_at_the_benchmark_size(self):
        # A strongly coupled symmetric game at 31 levels, 496 steps per
        # user: 246,016 pairs in 16 blocks, the last one half full.
        channel, noise, budgets = symmetric_game_instance(
            0.9638948320155885, 70.00976239444783)
        got = brute_force_pareto(channel, noise, budgets, levels=31)
        want = broadcast_pareto(channel, noise, budgets, 31)
        assert got.points.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k,levels", [(2, 31), (3, 16)])
    def test_working_memory_stays_bounded(self, rng, k, levels):
        # The whole (S, S, 2) cloud took 8.0 MB at K = 2 and 31 levels and
        # 21.6 MB at K = 3 and 16 levels; the blocks and the per-tone column
        # gathers take 1.3 MB and 2.3 MB.
        channel, noise = random_instance(rng, k, False)
        brute_force_pareto(channel, noise, (1.0, 0.8), levels=levels)
        tracemalloc.start()
        try:
            brute_force_pareto(channel, noise, (1.0, 0.8), levels=levels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
