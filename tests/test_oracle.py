import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from specoord.channel import ChannelMatrixSet, NoiseProfile, make_uniform_grid
from specoord.dfdm import dfdm_vs_fmiwf_region
from specoord.oracle import (RateRegionCurve, SearchSpaceError,
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

    def test_custom_cap(self):
        grid = make_uniform_grid(0, 1, 1)
        channel = ChannelMatrixSet(np.ones((1, 2, 2)), grid)
        noise = NoiseProfile.white(0.1, 2, 1)
        with pytest.raises(SearchSpaceError):
            brute_force_pareto(channel, noise, [1.0, 1.0], levels=11, cap=10)

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


class TestParetoFront:
    # Few distinct integer values force ties in x, in y and whole duplicate rows.
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                    min_size=1, max_size=40))
    def test_matches_loop_on_tie_heavy_clouds(self, rows):
        points = np.array(rows + rows[: len(rows) // 2], dtype=float)
        assert np.array_equal(_pareto_front(points), pareto_front_loop(points))

    def test_matches_loop_on_a_large_cloud(self, rng):
        points = np.round(rng.random((5000, 2)) * 50) / 7
        assert np.array_equal(_pareto_front(points), pareto_front_loop(points))

    def test_matches_loop_with_frontier_duplicates(self, rng):
        # A cloud large enough for a sampled pre-filter, with ties in x and
        # every frontier row repeated, at the head of the cloud and at every
        # 16th row, so that a sample's front holds some of them.  Row 1 lies
        # right of all others and is in no strided sample: its y must not
        # be compared with a sample row left of it.
        cloud = np.round(rng.random((12_000, 2)) * 400) / 7
        front = pareto_front_loop(cloud)
        body = np.concatenate([cloud, np.repeat(front, 5, axis=0)])
        body = body[rng.permutation(len(body))]
        body[::16] = front[np.arange(len(body[::16])) % len(front)]
        far_right = [[cloud[:, 0].max() + 1.0, cloud[:, 1].min()]]
        points = np.concatenate([front[:1], far_right, body])
        assert len(np.unique(points[:, 0])) < len(points) // 4
        assert np.array_equal(_pareto_front(points), pareto_front_loop(points))


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
