import dataclasses
import itertools
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from specoord.channel import (ChannelMatrixSet, NoiseProfile, format_float,
                              load_channel_csv, make_uniform_grid,
                              write_channel_csv, write_noise_csv)
from specoord import dfdm, game, oracle, waterfilling
from specoord.cli import main
from specoord.dfdm import _Sweep, dfdm_vs_fmiwf_region
from specoord.game import PowerAllocation, sinr_per_tone
from specoord.scenario import (_FIELDS, _REQUIRED, ConfigError, ScenarioConfig,
                               build_channel, emit_region_map, load_config,
                               run_scenario)
from specoord.symmetric import classify_game, h_lim1, h_lim2


# Fields a scenario no longer reads (see test_field_errors_carry_paths).
REMOVED_FIELDS = ("detail_rd_bps", "attenuation", "fext_coeff",
                  "coupling_lengths_km", "rd_bps", "min_fraction")


def base_config(tmp_path, **overrides):
    cfg = {
        "name": "unit",
        "grid": {"f_start_hz": 0.0, "f_end_hz": 1.2e6, "num_tones": 12},
        "channel": {"kind": "synthetic", "lengths_km": [2.0, 0.6],
                    "group_sizes": [4, 4]},
        "noise_psd_dbm_hz": -140.0,
        "budgets_mw": [30.0, 30.0],
        "methods": ["fm-iwf", "dfdm", "ra-iwf"],
        "sweep": {"count": 3, "max_fraction": 0.8},
        "near_user": 1,
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    return cfg


class TestLoadConfig:
    def test_parses_dict(self, tmp_path):
        config = load_config(base_config(tmp_path, gap_db=3.0))
        assert config.name == "unit"
        assert config.budgets_mw == (30.0, 30.0)
        assert config.methods == ("fm-iwf", "dfdm", "ra-iwf")
        assert config.gap == pytest.approx(10 ** 0.3, rel=1e-12)

    def test_parses_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(tmp_path)))
        assert load_config(path).name == "unit"

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        # It used to be "<file>", where `specoord run` named the path.
        assert exc.value.path == str(path)

    @pytest.mark.parametrize("mutate,path", [
        (lambda c: c.pop("grid"), "grid"),
        (lambda c: c["grid"].pop("num_tones"), "grid.num_tones"),
        (lambda c: c["grid"].update(num_tones=0), "grid.num_tones"),
        (lambda c: c["grid"].update(f_end_hz=-1.0), "grid.f_end_hz"),
        (lambda c: c["channel"].update(kind="magic"), "channel.kind"),
        (lambda c: c["channel"].update(lengths_km=[1.0]), "channel.lengths_km"),
        (lambda c: c["channel"].update(group_sizes=[0, 1]), "channel.group_sizes"),
        (lambda c: c.update(budgets_mw=[30.0]), "budgets_mw"),
        (lambda c: c.update(budgets_mw=[30.0, -1.0]), "budgets_mw"),
        (lambda c: c.update(methods=["fm-iwf", "magic"]), "methods"),
        (lambda c: c.update(methods=[]), "methods"),
        (lambda c: c.update(sweep={}), "sweep.count"),
        # The first target is 0.1 of the full-band rate: the last may not
        # lie below it.
        (lambda c: c.update(sweep={"count": 3, "max_fraction": 0.05}),
         "sweep.max_fraction"),
        # A sweep has one form; the fields of the explicit-target form and
        # the first fraction are refused as unknown fields.
        (lambda c: c.update(sweep={"count": 3, "min_fraction": 0.9,
                                   "max_fraction": 0.5}), "sweep.min_fraction"),
        (lambda c: c.update(sweep={"rd_bps": []}), "sweep.rd_bps"),
        (lambda c: c.update(near_user=2), "near_user"),
        (lambda c: c.update(gap_db=-1.0), "gap_db"),
        (lambda c: c.update(band_plan_hz=[[[0.0, 2.0e6]], None]),
         "band_plan_hz[0][0]"),
        (lambda c: c.update(band_plan_hz=[[[0.5e6, 0.1e6]], None]),
         "band_plan_hz[0][0]"),
        # A value of the wrong JSON type, or a non-integer count, used to
        # escape as a raw TypeError or AttributeError, or to be truncated.
        *(pytest.param(mutate, path, id=name) for name, mutate, path in [
            ("num_tones-string", lambda c: c["grid"].update(num_tones="12"),
             "grid.num_tones"),
            ("num_tones-fraction", lambda c: c["grid"].update(num_tones=12.5),
             "grid.num_tones"),
            ("num_tones-bool", lambda c: c["grid"].update(num_tones=True),
             "grid.num_tones"),
            ("f_start-string", lambda c: c["grid"].update(f_start_hz="0"),
             "grid.f_start_hz"),
            ("grid-array", lambda c: c.update(grid=[]), "grid"),
            ("channel-string", lambda c: c.update(channel="dsl"), "channel"),
            ("lengths-null", lambda c: c["channel"].update(lengths_km=[2.0, None]),
             "channel.lengths_km[1]"),
            ("group_sizes-fraction",
             lambda c: c["channel"].update(group_sizes=[4, 2.5]),
             "channel.group_sizes[1]"),
            ("group_sizes-number", lambda c: c["channel"].update(group_sizes=4),
             "channel.group_sizes"),
            # Past the float range the gains' scaling used to raise a raw
            # OverflowError.
            ("group_sizes-past-float",
             lambda c: c["channel"].update(group_sizes=[1, 10 ** 320]),
             "channel.group_sizes[1]"),
            # Crosstalk times the size past the float range used to warn
            # and then fail in the channel, naming no field.
            ("group_sizes-crosstalk-overflows",
             lambda c: (c["grid"].update(f_end_hz=1e154),
                        c["channel"].update(group_sizes=[1, 10 ** 17])),
             "channel.group_sizes[1]"),
            ("group_sizes-overflow-default-fext",
             lambda c: (c["grid"].update(f_end_hz=1e150),
                        c["channel"].update(group_sizes=[10 ** 300, 1])),
             "channel.group_sizes[0]"),
            ("csv-path-number", lambda c: c.update(channel={"kind": "csv", "path": 3}),
             "channel.path"),
            ("budgets-string", lambda c: c.update(budgets_mw="ab"), "budgets_mw"),
            ("budgets-nan", lambda c: c.update(budgets_mw=[30.0, math.nan]),
             "budgets_mw[1]"),
            ("methods-number", lambda c: c.update(methods=3), "methods"),
            ("methods-repeat",
             lambda c: c.update(methods=["fm-iwf", "fm-iwf"]), "methods"),
            ("sweep-array", lambda c: c.update(sweep=[]), "sweep"),
            ("count-fraction", lambda c: c.update(sweep={"count": 2.5}),
             "sweep.count"),
            ("max_fraction-string",
             lambda c: c.update(sweep={"count": 3, "max_fraction": "0.8"}),
             "sweep.max_fraction"),
            ("noise-array", lambda c: c.update(noise_psd_dbm_hz=[-140.0]),
             "noise_psd_dbm_hz"),
            ("gap_db-string", lambda c: c.update(gap_db="3"), "gap_db"),
            ("band_plan-number", lambda c: c.update(band_plan_hz=5), "band_plan_hz"),
            ("band_plan-string-edge",
             lambda c: c.update(band_plan_hz=[[[0.1e6, "x"]], None]),
             "band_plan_hz[0][0][1]"),
            ("oracle_levels-fraction", lambda c: c.update(oracle_levels=11.5),
             "oracle_levels"),
            ("f_end-past-float-range", lambda c: c["grid"].update(f_end_hz=10 ** 400),
             "grid.f_end_hz"),
            ("output_dir-null", lambda c: c.update(output_dir=None), "output_dir"),
            ("name-array", lambda c: c.update(name=["unit"]), "name"),
            ("near_user-bool", lambda c: c.update(near_user=True), "near_user"),
        ]),
        # Values of the right type but out of range used to get past the
        # load and fail at run time under a library message, or to run.
        *(pytest.param(mutate, path, id=name) for name, mutate, path in [
            ("oracle_levels-one", lambda c: c.update(oracle_levels=1), "oracle_levels"),
            # 10 ** 400 used to raise OverflowError when the run took the gap.
            ("gap_db-overflow", lambda c: c.update(gap_db=4000.0), "gap_db"),
            # 10 ** 400 used to raise OverflowError when the run took the noise.
            ("noise-overflow", lambda c: c.update(noise_psd_dbm_hz=4000.0),
             "noise_psd_dbm_hz"),
            ("max_fraction-above-one", lambda c: c.update(sweep={
                "count": 3, "max_fraction": 1.5}), "sweep.max_fraction"),
        ]),
        # The detail target, the explicit targets, the first fraction and
        # the synthetic model's overrides are not scenario fields: any
        # value of them is refused as an unknown field, before it is read,
        # also beside fields a sweep reads.
        *(pytest.param(mutate, path, id=name) for name, mutate, path in [
            ("min_fraction-string",
             lambda c: c.update(sweep={"count": 3, "min_fraction": "0.2"}),
             "sweep.min_fraction"),
            ("rd_bps-string", lambda c: c.update(sweep={"rd_bps": ["1e6"]}),
             "sweep.rd_bps"),
            ("rd_bps-with-count", lambda c: c.update(sweep={
                "rd_bps": [1e5], "count": 9, "max_fraction": 7.0}), "sweep.rd_bps"),
            ("rd_bps-with-max_fraction", lambda c: c.update(sweep={
                "rd_bps": [1e5], "max_fraction": 7.0}), "sweep.rd_bps"),
            ("coupling-string",
             lambda c: c["channel"].update(coupling_lengths_km=[[0.5, "a"], [0.5, 0.5]]),
             "channel.coupling_lengths_km"),
            ("coupling-3x2",
             lambda c: c["channel"].update(coupling_lengths_km=[[0.5, 0.5]] * 3),
             "channel.coupling_lengths_km"),
            ("coupling-short-row",
             lambda c: c["channel"].update(coupling_lengths_km=[[0.5, 0.5], [0.5]]),
             "channel.coupling_lengths_km"),
            ("coupling-negative",
             lambda c: c["channel"].update(coupling_lengths_km=[[0.5, -0.1], [0.5, 0.5]]),
             "channel.coupling_lengths_km"),
            ("attenuation-string", lambda c: c["channel"].update(attenuation="x"),
             "channel.attenuation"),
            ("attenuation-negative", lambda c: c["channel"].update(attenuation=-5e-4),
             "channel.attenuation"),
            ("fext_coeff-negative", lambda c: c["channel"].update(fext_coeff=-1e-16),
             "channel.fext_coeff"),
            ("detail-string", lambda c: c.update(detail_rd_bps="1e6"),
             "detail_rd_bps"),
            ("detail-negative", lambda c: c.update(detail_rd_bps=-5.0),
             "detail_rd_bps"),
        ]),
    ])
    def test_field_errors_carry_paths(self, tmp_path, mutate, path):
        cfg = base_config(tmp_path)
        mutate(cfg)
        with pytest.raises(ConfigError) as exc:
            load_config(cfg)
        assert exc.value.path == path
        if path.split(".")[-1] in REMOVED_FIELDS:
            assert str(exc.value) == f"{path}: unknown field"

    def test_stores_resolved_defaults(self, tmp_path):
        cfg = base_config(tmp_path, sweep={"count": 2})
        cfg["channel"].pop("group_sizes")
        config = load_config(cfg)
        assert config.channel["group_sizes"] == (1, 1)
        assert config.sweep == {"count": 2, "max_fraction": 0.95}
        assert (config.near_user, config.gap_db, config.oracle_levels,
                config.band_plan_hz) == (1, 0.0, 11, None)
        cfg.pop("output_dir")
        assert load_config(cfg).output_dir == "scenario_out"

    # A block was a dict and an array a list, so a caller could change a
    # field after it was checked: a zero count then ended in a raw
    # IndexError, and a size past the float range in an OverflowError.
    @pytest.mark.parametrize("field,key,value", [
        (lambda c: c.sweep, "count", 0), (lambda c: c.grid, "num_tones", 0),
        (lambda c: c.channel["group_sizes"], 0, 10 ** 400),
        (lambda c: c.channel["lengths_km"], 0, -1.0)],
        ids=["sweep.count", "grid.num_tones", "channel.group_sizes[0]",
             "channel.lengths_km[0]"])
    def test_checked_fields_are_read_only(self, tmp_path, field, key, value):
        held = field(load_config(base_config(tmp_path)))
        with pytest.raises(TypeError):
            held[key] = value

    def test_csv_channel_requires_path(self, tmp_path):
        cfg = base_config(tmp_path, channel={"kind": "csv"})
        with pytest.raises(ConfigError) as exc:
            load_config(cfg)
        assert exc.value.path == "channel.path"


class TestSchema:
    """_FIELDS, ScenarioConfig and the README's field table list the same
    fields, and the table the same defaults."""

    def test_config_attributes_are_the_top_level_fields(self):
        assert ({f.name for f in dataclasses.fields(ScenarioConfig)}
                == set(_FIELDS[""]))

    def test_readme_table_lists_every_field(self):
        lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
        start = lines.index("| Field | Type | Default |") + 2
        table = {}
        for line in itertools.takewhile(lambda row: row.startswith("|"), lines[start:]):
            field, _, default = (cell.strip() for cell in line.strip("|").split("|"))
            table[field.strip("`")] = default
        schema = {}
        for block, fields in _FIELDS.items():
            for key, (_, default) in fields.items():
                path = f"{block.split('.')[0]}.{key}" if block else key
                schema[path] = ("required" if default is _REQUIRED
                                else f"`{json.dumps(default)}`")
        assert table == schema


class TestBuildChannel:
    def test_group_sizes_scale_crosstalk_only(self, tmp_path):
        ones = load_config(base_config(
            tmp_path, channel={"kind": "synthetic", "lengths_km": [2.0, 0.6],
                               "group_sizes": [1, 1]}))
        fours = load_config(base_config(tmp_path))
        small, big = build_channel(ones), build_channel(fours)
        assert np.allclose(big.gains[:, 0, 0], small.gains[:, 0, 0])
        assert np.allclose(big.gains[:, 1, 1], small.gains[:, 1, 1])
        assert np.allclose(big.gains[:, 0, 1], 4 * small.gains[:, 0, 1])
        assert np.allclose(big.gains[:, 1, 0], 4 * small.gains[:, 1, 0])

    def test_band_plan_masks_direct_gains(self, tmp_path):
        cfg = base_config(tmp_path,
                          band_plan_hz=[None, [[0.2e6, 0.7e6]]])
        masked = build_channel(load_config(cfg))
        plain = build_channel(load_config(base_config(tmp_path)))
        centers = masked.grid.centers
        inside = (centers >= 0.2e6) & (centers <= 0.7e6)
        assert np.all(masked.gains[~inside, 1, 1] == 0.0)
        assert np.allclose(masked.gains[inside, 1, 1],
                           plain.gains[inside, 1, 1])
        assert np.allclose(masked.gains[:, 0, 0], plain.gains[:, 0, 0])
        assert np.allclose(masked.gains[:, 0, 1], plain.gains[:, 0, 1])

    def test_csv_channel_must_have_two_users(self, tmp_path):
        grid = make_uniform_grid(0, 4, 4)
        solo = ChannelMatrixSet(np.ones((4, 1, 1)), grid)
        path = tmp_path / "solo.csv"
        write_channel_csv(solo, path)
        cfg = base_config(tmp_path, channel={"kind": "csv", "path": str(path)})
        with pytest.raises(ConfigError):
            build_channel(load_config(cfg))


    def csv_config(self, tmp_path, grid, plan):
        gains = np.array([[[0.9, 0.02], [0.3, 0.6]], [[0.7, 0.04], [0.2, 0.5]]])
        path = tmp_path / "two.csv"
        write_channel_csv(ChannelMatrixSet(gains, make_uniform_grid(0, 2e5, 2)),
                          path)
        return base_config(tmp_path, grid=grid, band_plan_hz=[plan, None],
                           channel={"kind": "csv", "path": str(path)})

    def test_csv_band_plan_is_checked_against_the_csv_grid(self, tmp_path):
        # The CSV's tones span 0-2e5 Hz; the config's grid block, which a
        # CSV channel ignores, spans 0-1 Hz and used to refuse the plan.
        cfg = self.csv_config(tmp_path, {"f_start_hz": 0.0, "f_end_hz": 1.0,
                                         "num_tones": 1}, [[0.0, 1.2e5]])
        channel = build_channel(load_config(cfg))
        assert channel.gains[0, 0, 0] == 0.9
        assert channel.gains[1, 0, 0] == 0.0
        assert channel.gains[1, 1, 1] == 0.5

    def test_csv_band_plan_outside_the_csv_grid_is_refused(self, tmp_path):
        # Inside the config's grid block but past the CSV's last tone edge.
        cfg = self.csv_config(tmp_path, {"f_start_hz": 0.0, "f_end_hz": 1e6,
                                         "num_tones": 4}, [[0.0, 3e5]])
        config = load_config(cfg)
        with pytest.raises(ConfigError) as exc:
            build_channel(config)
        assert exc.value.path == "band_plan_hz[0][0]"
        assert "outside the grid" in str(exc.value)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 2

    @pytest.mark.parametrize("kind,user", [("synthetic", 0), ("synthetic", 1),
                                           ("csv", 0)])
    def test_band_plan_covering_no_tone_centre_is_refused(self, tmp_path,
                                                          capsys, kind, user):
        # It used to reach the solvers and exit 3 with "no usable tones".
        # The synthetic grid's first centre is 50 kHz, and the CSV's tone
        # centres are 50 and 150 kHz.
        if kind == "csv":
            cfg = self.csv_config(tmp_path, {"f_start_hz": 0.0, "f_end_hz": 1.0,
                                             "num_tones": 1}, [[0.6e5, 1.4e5]])
        else:
            plan = [None, None]
            plan[user] = [[0.0, 1.0], [0.06e6, 0.14e6]]
            cfg = base_config(tmp_path, band_plan_hz=plan)
        with pytest.raises(ConfigError) as exc:
            build_channel(load_config(cfg))
        assert exc.value.path == f"band_plan_hz[{user}]"
        assert "covers no tone centre" in str(exc.value)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 2
        assert f"band_plan_hz[{user}]" in capsys.readouterr().err

    def test_band_plan_needs_only_one_range_to_cover_a_centre(self, tmp_path):
        cfg = base_config(tmp_path, band_plan_hz=[[[0.0, 1.0], [0.0, 0.1e6]],
                                                  None])
        channel = build_channel(load_config(cfg))
        assert channel.gains[0, 0, 0] > 0
        assert np.all(channel.gains[1:, 0, 0] == 0.0)


class TestRunScenario:
    def test_emits_expected_files_and_rows(self, tmp_path):
        config = load_config(base_config(tmp_path))
        report = run_scenario(config)
        region = tmp_path / "out" / "rate_region.csv"
        assert region.exists()
        lines = region.read_text().splitlines()
        assert lines[0] == "method,target_bps,near_bps,far_bps"
        assert len(lines) == 1 + 3 + 3 + 1  # two swept methods + one ra row
        for method in ("fm-iwf", "dfdm", "ra-iwf"):
            tag = method.replace("-", "_")
            assert (tmp_path / "out" / f"psd_{tag}.csv").exists()
            assert (tmp_path / "out" / f"sinr_{tag}.csv").exists()
        assert report["near_max_bps"] > 0
        assert report["far_free_bps"] > 0
        assert report["near_user"] == 1

    def test_refuses_a_tone_noise_power_past_the_float_range(self, tmp_path):
        # 3080 dBm/Hz is a finite 1e308 mW/Hz, so it loads; its power on the
        # 1e5 Hz tones overflows, which used to warn and fail unnamed.
        config = load_config(base_config(tmp_path, noise_psd_dbm_hz=3080.0))
        with pytest.raises(ConfigError) as exc:
            run_scenario(config)
        assert exc.value.path == "noise_psd_dbm_hz"

    def test_fm_rows_hit_their_targets(self, tmp_path):
        config = load_config(base_config(tmp_path))
        report = run_scenario(config)
        for method, target, near_bps, far_bps in report["rows"]:
            if method != "fm-iwf":
                continue
            assert float(near_bps) == pytest.approx(float(target), rel=1e-6)
            assert float(far_bps) > 0

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg_a = base_config(tmp_path, output_dir=str(tmp_path / "a"))
        cfg_b = base_config(tmp_path, output_dir=str(tmp_path / "b"))
        run_scenario(load_config(cfg_a))
        run_scenario(load_config(cfg_b))
        for name in ("rate_region.csv", "psd_fm_iwf.csv", "sinr_dfdm.csv"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_sinr_reproducible_from_emitted_psd(self, tmp_path):
        config = load_config(base_config(tmp_path))
        run_scenario(config)
        channel = build_channel(config)
        grid = channel.grid
        noise = NoiseProfile.from_psd_dbm_hz(config.noise_psd_dbm_hz, grid, 2)

        psd_rows = np.loadtxt(tmp_path / "out" / "psd_fm_iwf.csv",
                              delimiter=",", skiprows=1)
        allocs = [PowerAllocation(u, psd_rows[:, 1 + u] * grid.widths,
                                  config.budgets_mw[u], "at-most-power")
                  for u in (0, 1)]
        sinr_rows = np.loadtxt(tmp_path / "out" / "sinr_fm_iwf.csv",
                               delimiter=",", skiprows=1)
        for u in (0, 1):
            recomputed = sinr_per_tone(u, allocs, channel, noise)
            assert np.allclose(recomputed, sinr_rows[:, 1 + u], rtol=1e-9)

    def test_explicit_targets_and_detail(self, tmp_path):
        # The targets run from 0.1 to max_fraction of the full-band rate.
        # The PSD and SINR files hold the middle swept target: 3 and 5
        # targets share it bit for bit, and write the same bytes.
        reports = [run_scenario(load_config(base_config(
            tmp_path, sweep={"count": count, "max_fraction": 0.8},
            output_dir=str(tmp_path / str(count))))) for count in (3, 5)]
        full = reports[0]["near_max_bps"]
        for report, count in zip(reports, (3, 5)):
            targets = list(np.linspace(0.1 * full, 0.8 * full, count))
            swept = [r[1] for r in report["rows"] if r[0] == "fm-iwf"]
            assert swept == [format_float(t) for t in targets]
            assert report["detail_rd_bps"] == targets[count // 2]
        assert reports[0]["detail_rd_bps"] == reports[1]["detail_rd_bps"]
        names = [f"{kind}_{m}" for kind in ("psd", "sinr")
                 for m in ("fm-iwf", "dfdm", "ra-iwf")]
        assert sorted(reports[0]["files"]) == sorted(names + ["rate_region"])
        for name in names:
            three, five = (Path(r["files"][name]).read_bytes() for r in reports)
            assert three == five

    def test_oracle_method_appends_frontier(self, tmp_path):
        cfg = base_config(tmp_path,
                          grid={"f_start_hz": 0.0, "f_end_hz": 2e5,
                                "num_tones": 2},
                          methods=["oracle"], oracle_levels=5)
        report = run_scenario(load_config(cfg))
        oracle_rows = [r for r in report["rows"] if r[0] == "oracle"]
        assert oracle_rows and all(r[1] == "" for r in oracle_rows)


class TestRunCosts:
    """A run checks its instance once per solver and builds its channel
    twice; the sweep builds no dataclass per target, and no power matrix
    from dataclasses: the only PowerAllocations are the two ra-iwf
    returns."""

    @pytest.mark.parametrize("methods,checks", [
        # 8 checks and 3 channels while the scenario rebuilt the receivers
        # for every SINR file and the channel for its group sizes; 7
        # allocations and a power_matrix call while iterate_iwf started
        # from zero allocations and each DFDM round built a DfdmResult.
        (["ra-iwf", "fm-iwf", "dfdm"], 2),
        (["ra-iwf", "fm-iwf", "dfdm", "oracle"], 3),
    ])
    def test_counts(self, tmp_path, monkeypatch, methods, checks):
        calls, matrices, channels, allocations = [], [], [], []
        for name, log in (("_receivers", calls), ("power_matrix", matrices)):
            def counted(*args, inner=getattr(game, name), log=log, **kwargs):
                log.append(args)
                return inner(*args, **kwargs)

            for module in (game, waterfilling, dfdm, oracle):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        for cls, log in ((ChannelMatrixSet, channels),
                         (PowerAllocation, allocations)):
            def post_init(self, init=cls.__post_init__, log=log):
                log.append(self)
                init(self)
            monkeypatch.setattr(cls, "__post_init__", post_init)
        built = {"fmiwf": [], "round": []}  # new allocations per call
        for name, log in built.items():
            def play(self, target, inner=getattr(_Sweep, name), log=log):
                before = len(allocations)
                out = inner(self, target)
                log.append(allocations[before:])
                return out
            monkeypatch.setattr(_Sweep, name, play)

        cfg = base_config(tmp_path, methods=methods, oracle_levels=5,
                          grid={"f_start_hz": 0.0, "f_end_hz": 2e5,
                                "num_tones": 2},
                          band_plan_hz=[[[0.0, 1e5]], None])
        run_scenario(load_config(cfg))
        assert len(calls) == checks
        assert len(channels) == 2
        assert len(allocations) == 2 and matrices == []
        assert len(built["fmiwf"]) == len(built["round"]) == 3
        assert built["fmiwf"] + built["round"] == [[]] * 6


class TestScenarioRelabels:
    """Relabelling the two users (both gain axes, the noise rows and the
    budgets reversed) and flipping near_user gives the same dfdm, fm-iwf and
    oracle rows, near_max_bps and far_free_bps.  FM-IWF runs the far user
    first whatever its label.  ra-iwf is left out: its Gauss-Seidel loop
    updates users in index order, which does not relabel."""

    @pytest.mark.parametrize("seed", range(3))
    def test_rows_relabel(self, tmp_path, seed):
        # The oracle rows used to ignore near_user: (user 1, user 0) rates
        # under both roles.  The fm-iwf rows used to follow the users'
        # index order.
        rng = np.random.default_rng(seed)
        gains = rng.uniform(0.2, 1.0, (2, 2, 2))
        gains[:, 0, 1] *= 0.05
        gains[:, 1, 0] *= 0.4
        channel = ChannelMatrixSet(gains, make_uniform_grid(0, 2e5, 2))
        swapped = ChannelMatrixSet(gains[:, ::-1, ::-1].copy(), channel.grid)
        budgets = [float(b) for b in rng.uniform(10.0, 30.0, 2)]
        reports = []
        for label, ch, b, near in (("a", channel, budgets, 1),
                                   ("b", swapped, budgets[::-1], 0)):
            path = tmp_path / f"{label}.csv"
            write_channel_csv(ch, path)
            cfg = base_config(tmp_path, channel={"kind": "csv", "path": str(path)},
                              budgets_mw=b, methods=["dfdm", "fm-iwf", "oracle"],
                              near_user=near, noise_psd_dbm_hz=-60.0,
                              output_dir=str(tmp_path / label))
            reports.append(run_scenario(load_config(cfg)))
        a, b = reports
        assert {r[0] for r in a["rows"]} == {"dfdm", "fm-iwf", "oracle"}
        assert a["rows"] == b["rows"]
        assert a["near_max_bps"] == b["near_max_bps"]
        assert a["far_free_bps"] == b["far_free_bps"]


class TestCrossPath:
    """The scenario, the region sweep and the dfdm command share one round."""

    def test_paths_agree_bit_for_bit(self, tmp_path, capsys):
        config = load_config(base_config(tmp_path, methods=["fm-iwf", "dfdm"],
                                          sweep={"count": 5}))
        report = run_scenario(config)
        channel = build_channel(config)
        noise = NoiseProfile.from_psd_dbm_hz(config.noise_psd_dbm_hz,
                                             channel.grid, 2)

        curves = dfdm_vs_fmiwf_region(channel, noise, config.budgets_mw,
                                      [float(r[1]) for r in report["rows"]
                                       if r[0] == "dfdm"],
                                      near_user=config.near_user)
        for method in ("fm-iwf", "dfdm"):
            rows = np.array([[float(r[1]), float(r[3])]
                             for r in report["rows"] if r[0] == method])
            assert np.array_equal(curves[method].points, rows)

        chan_path, noise_path = tmp_path / "chan.csv", tmp_path / "noise.csv"
        write_channel_csv(channel, chan_path)
        write_noise_csv(noise, channel.grid, noise_path)
        assert np.array_equal(load_channel_csv(chan_path).grid.edges,
                              channel.grid.edges)
        psd_out = tmp_path / "psd.csv"
        code = main(["dfdm", "--channel", str(chan_path), "--noise", str(noise_path),
                     "--budgets", "30,30", "--near-user", str(config.near_user),
                     "--rd", repr(float(report["detail_rd_bps"])),
                     "--psd-out", str(psd_out)])
        assert code == 0
        assert (psd_out.read_bytes()
                == (tmp_path / "out" / "psd_dfdm.csv").read_bytes())


class TestRegionMap:
    def test_single_cell_values(self, tmp_path):
        path = tmp_path / "map.csv"
        count = emit_region_map((10.0, 10.0), (0.3, 0.3), 1, str(path))
        assert count == 1
        header, row = path.read_text().splitlines()
        assert header == "h,snr,region,h_lim1,h_lim2"
        h, snr, region, l1, l2 = row.split(",")
        assert float(h) == 0.3 and float(snr) == 10.0
        assert region == "B"
        assert float(l1) == pytest.approx(h_lim1(10.0), rel=1e-12)
        assert float(l2) == pytest.approx(h_lim2(10.0), rel=1e-12)

    def test_grid_rows_ordered_and_consistent(self, tmp_path):
        path = tmp_path / "map.csv"
        count = emit_region_map((1.0, 100.0), (0.05, 0.9), 5, str(path))
        assert count == 25
        lines = path.read_text().splitlines()[1:]
        assert len(lines) == 25
        lims1 = []
        for line in lines:
            h, snr, region, l1, l2 = line.split(",")
            assert region in ("A", "B", "C")
            assert float(l1) < float(l2)
            lims1.append((float(snr), float(l1)))
        # one h_lim1 per snr level, decreasing in snr
        per_snr = sorted(set(lims1))
        assert all(b[1] < a[1] for a, b in zip(per_snr, per_snr[1:]))

    @staticmethod
    def classified_map(snr_range, h_range, resolution):
        """The map written point by point through classify_game."""
        snrs = np.geomspace(*snr_range, resolution)
        hs = np.linspace(*h_range, resolution)
        lines = ["h,snr,region,h_lim1,h_lim2\n"]
        for snr in snrs:
            for h in hs:
                g = classify_game(float(h), float(snr))
                lines.append("%.17g,%.17g,%s,%.17g,%.17g\n" % (
                    h, snr, g.region.code, g.h_lim1, g.h_lim2))
        return "".join(lines).encode()

    @pytest.mark.parametrize("snr_range,h_range,resolution", [
        ((0.1, 1e4), (0.0, 0.99), 23),
        ((10.0, 10.0), (h_lim1(10.0), h_lim2(10.0)), 2),  # h on both limits
        ((1.0, 100.0), (0.0, 0.05), 7),  # wholly below h_lim1: all A
        ((1.0, 100.0), (0.95, 0.99), 7),  # wholly above h_lim2: all C
        ((3.0, 30.0), (0.4, 0.6), 1),
        ((10.0, 100.0), (h_lim2(10.0), h_lim2(10.0)), 5),  # a point range on a limit
    ])
    def test_matches_classify_game_bytes(self, tmp_path, snr_range, h_range,
                                         resolution):
        path = tmp_path / "map.csv"
        emit_region_map(snr_range, h_range, resolution, str(path))
        assert path.read_bytes() == self.classified_map(snr_range, h_range,
                                                        resolution)

    def test_h_on_either_limit_is_region_b(self, tmp_path):
        path = tmp_path / "map.csv"
        emit_region_map((10.0, 10.0), (h_lim1(10.0), h_lim2(10.0)), 2, str(path))
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert {float(r[0]) for r in rows} == {h_lim1(10.0), h_lim2(10.0)}
        assert [r[2] for r in rows] == ["B"] * 4

    def test_validation(self, tmp_path):
        path = str(tmp_path / "m.csv")
        with pytest.raises(ConfigError):
            emit_region_map((10.0, 10.0), (0.2, 0.2), 0, path)
        with pytest.raises(ConfigError):
            emit_region_map((0.0, 10.0), (0.2, 0.2), 2, path)
        with pytest.raises(ConfigError):
            emit_region_map((1.0, 10.0), (0.2, 1.0), 2, path)
        # Every row's limits are taken before the file opens: an snr that
        # is infinite, or whose 1/snr overflows, is refused by name and
        # leaves no partial map.
        for snr_range in ((1.0, math.inf), (5e-324, 1.0)):
            with pytest.raises(ConfigError, match="^snr_range: "):
                emit_region_map(snr_range, (0.1, 0.5), 4, path)
        assert not os.path.exists(path)
