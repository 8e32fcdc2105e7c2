"""Spectrum coordination for Gaussian interference channels.

Per-tone power games, exact water-filling best responses, iterative
water-filling, the symmetric two-band game taxonomy, closed-form near-far
rate bounds, dynamic FDM, a brute-force rate-region oracle, and a JSON
scenario runner.
"""

from .channel import (ChannelCsvError, ChannelMatrixSet, FrequencyGrid,
                      NoiseProfile, load_channel_csv, load_noise_csv,
                      make_uniform_grid, nearfar_two_band_channel,
                      symmetric_two_band_channel, synthetic_dsl_channel,
                      write_channel_csv, write_noise_csv, write_psd_csv)
from .dfdm import DfdmResult, dfdm_allocate, dfdm_vs_fmiwf_region, find_cutoff
from .game import (AT_MOST_POWER, FULL_POWER, NashResult, PowerAllocation,
                   capacity, is_nash_equilibrium, power_matrix, sinr_per_tone,
                   validate_strategy)
from .nearfar import (NearFarParams, RateBoundPair, bully_power_split,
                      compare_regions, dfdm_lambda_bounds, dfdm_r1,
                      dfdm_rate_bounds, fdm_threshold_rate,
                      fdm_weak_user_rate, geometric_mean_snr,
                      interference_min_p1, rr_iwf_bounds,
                      rr_iwf_exact_tau_r1, solve_lambda,
                      symmetric_nearfar_rates, tau_for_strong_rate)
from .oracle import (RateRegionCurve, SearchSpaceError, brute_force_pareto,
                     dominates)
from .scenario import (ConfigError, ScenarioConfig, build_channel,
                       emit_region_map, load_config, run_scenario)
from .symmetric import (DiscreteGame, GameRegion, PayoffQuad, Region,
                        classify_game, discrete_game_payoffs, h_lim1, h_lim2,
                        payoff_quad, recommend_strategy,
                        symmetric_game_instance, symmetric_iwf_iterates)
from .waterfilling import (EffectiveNoise, InfeasibleError, IwfReport,
                           achievable_rate, effective_noise, iterate_iwf,
                           waterfill_fm, waterfill_ra)

__version__ = "0.1.0"

__all__ = [
    "AT_MOST_POWER", "ChannelCsvError", "ChannelMatrixSet", "ConfigError",
    "DfdmResult", "DiscreteGame", "EffectiveNoise", "FULL_POWER",
    "FrequencyGrid", "GameRegion", "InfeasibleError", "IwfReport",
    "NashResult", "NearFarParams", "NoiseProfile", "PayoffQuad",
    "PowerAllocation", "RateBoundPair", "RateRegionCurve", "Region",
    "ScenarioConfig", "SearchSpaceError", "__version__", "achievable_rate",
    "brute_force_pareto", "build_channel", "bully_power_split", "capacity",
    "classify_game", "compare_regions", "dfdm_allocate",
    "dfdm_lambda_bounds", "dfdm_r1", "dfdm_rate_bounds",
    "dfdm_vs_fmiwf_region", "discrete_game_payoffs", "dominates",
    "effective_noise", "emit_region_map", "fdm_threshold_rate",
    "fdm_weak_user_rate", "find_cutoff", "geometric_mean_snr", "h_lim1",
    "h_lim2", "interference_min_p1", "is_nash_equilibrium", "iterate_iwf",
    "load_channel_csv", "load_config", "load_noise_csv",
    "make_uniform_grid", "nearfar_two_band_channel", "payoff_quad",
    "power_matrix", "recommend_strategy", "rr_iwf_bounds",
    "rr_iwf_exact_tau_r1", "run_scenario", "sinr_per_tone", "solve_lambda",
    "symmetric_game_instance", "symmetric_iwf_iterates",
    "symmetric_nearfar_rates", "symmetric_two_band_channel",
    "synthetic_dsl_channel", "tau_for_strong_rate", "validate_strategy",
    "waterfill_fm", "waterfill_ra", "write_channel_csv", "write_noise_csv",
    "write_psd_csv",
]
