import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from specoord import game, waterfilling
from specoord.channel import (ChannelMatrixSet, NoiseProfile,
                              load_channel_csv, load_noise_csv,
                              make_uniform_grid, write_channel_csv,
                              write_noise_csv)
from specoord.cli import _parser, build_parser, main
from specoord.nearfar import dfdm_rate_bounds, NearFarParams, rr_iwf_bounds
from specoord.waterfilling import (EffectiveNoise, achievable_rate,
                                   effective_noise, waterfill_ra)


def strict_loads(text: str):
    """json.loads that refuses NaN and Infinity, which RFC 8259 lacks."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


def coupled_csv(tmp_path, num_tones=8, h01=0.4, h10=0.3):
    grid = make_uniform_grid(0, num_tones, num_tones)
    gains = np.tile(np.array([[1.0, h01], [h10, 1.0]]), (num_tones, 1, 1))
    channel = ChannelMatrixSet(gains, grid)
    chan_path = tmp_path / "chan.csv"
    write_channel_csv(channel, chan_path)
    noise_path = tmp_path / "noise.csv"
    write_noise_csv(NoiseProfile.white(0.1, 2, num_tones), grid, noise_path)
    return str(chan_path), str(noise_path)


class TestClassify:
    def test_text_output(self, capsys):
        assert main(["classify", "--h", "0.3", "--snr", "10"]) == 0
        out = capsys.readouterr().out
        assert "region: B" in out and "recommendation: fdm" in out

    def test_json_output(self, capsys):
        assert main(["classify", "--h", "0.1", "--snr", "10", "--json"]) == 0
        data = strict_loads(capsys.readouterr().out)
        assert data["region"] == "A"
        assert data["recommendation"] == "iwf"
        assert data["payoffs"]["T"] > data["payoffs"]["P"]
        assert data["h_lim1"] < data["h_lim2"]
        assert not data["boundary"]

    @pytest.mark.parametrize("snr", ["inf", "nan", "5e-324"])
    def test_non_finite_snr_exits_2(self, snr, capsys):
        # An infinite snr used to end in a ZeroDivisionError traceback, and
        # a subnormal one to report region B with h_lim1=nan.
        assert main(["classify", "--h", "0.5", "--snr", snr]) == 2
        assert "snr must be finite" in capsys.readouterr().err


class TestRegionMap:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "map.csv"
        code = main(["region-map", "--h-min", "0.1", "--h-max", "0.8",
                     "--snr-min", "1", "--snr-max", "100",
                     "--resolution", "4", "--output", str(out)])
        assert code == 0
        assert "wrote 16 rows" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "h,snr,region,h_lim1,h_lim2"
        assert len(lines) == 17


class TestIwf:
    def test_ra_mode_converges(self, tmp_path, capsys):
        chan, noise = coupled_csv(tmp_path)
        psd_out = tmp_path / "psd.csv"
        code = main(["iwf", "--channel", chan, "--noise", noise,
                     "--budgets", "1,1", "--psd-out", str(psd_out)])
        assert code == 0
        out = capsys.readouterr().out
        assert "converged: True" in out and "nash: True" in out
        assert psd_out.exists()
        assert psd_out.read_text().startswith("freq_hz,psd_1,psd_2")

    def test_fm_mode_with_targets(self, tmp_path, capsys):
        chan, noise = coupled_csv(tmp_path)
        code = main(["iwf", "--channel", chan, "--noise", noise,
                     "--budgets", "1,1", "--mode", "fm",
                     "--targets", "none,2.0"])
        assert code == 0
        assert "converged: True" in capsys.readouterr().out

    def test_non_convergence_exits_3(self, tmp_path, capsys):
        chan, noise = coupled_csv(tmp_path, h01=0.5, h10=0.5)
        code = main(["iwf", "--channel", chan, "--noise", noise,
                     "--budgets", "1,1", "--max-iter", "1"])
        assert code == 3
        assert "converged: False" in capsys.readouterr().out

    def test_rates_come_from_the_certificate(self, tmp_path, monkeypatch):
        # One check in iterate_iwf and one matrix and check in the
        # certificate, whose rates are the users' rates.
        calls = []
        for module, name in ((game, "_check_inputs"), (game, "power_matrix"),
                             (waterfilling, "power_matrix")):
            def counted(*args, inner=getattr(module, name), name=name, **kw):
                calls.append(name)
                return inner(*args, **kw)
            monkeypatch.setattr(module, name, counted)
        chan, noise = coupled_csv(tmp_path)
        assert main(["iwf", "--channel", chan, "--noise", noise,
                     "--budgets", "1,1"]) == 0
        assert sorted(calls) == ["_check_inputs"] * 2 + ["power_matrix"]

    @pytest.mark.parametrize("users,edges,message", [
        # A noise file on 1-9 Hz has the channel's tone count, so it used
        # to run and exit 0.
        (2, (1, 9, 8), "tone edges"), (2, (0, 8, 4), "tone edges"),
        (3, (0, 8, 8), "noise has shape"),
    ])
    def test_noise_file_must_match_the_channel(self, tmp_path, capsys, users,
                                               edges, message):
        chan, _ = coupled_csv(tmp_path)
        grid = make_uniform_grid(*edges)
        noise = tmp_path / "other_noise.csv"
        write_noise_csv(NoiseProfile.white(0.1, users, grid.num_tones), grid,
                        noise)
        code = main(["iwf", "--channel", chan, "--noise", str(noise),
                     "--budgets", "1,1"])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("gap_db", ["4000", "inf"])
    def test_gap_past_the_float_range_exits_2(self, tmp_path, capsys, gap_db):
        # 4000 dB used to escape as an OverflowError traceback.
        chan, noise = coupled_csv(tmp_path)
        code = main(["iwf", "--channel", chan, "--noise", noise,
                     "--budgets", "1,1", "--gap-db", gap_db])
        assert code == 2
        assert "--gap-db" in capsys.readouterr().err

    @pytest.mark.parametrize("psd", ["4000", "3080", "inf"])
    def test_noise_psd_past_the_float_range_exits_2(self, tmp_path, capsys, psd):
        # 4000 dBm/Hz used to escape as an OverflowError traceback; 3080
        # dBm/Hz overflows only the power of a 1e5 Hz tone.
        chan = tmp_path / "chan.csv"
        write_channel_csv(ChannelMatrixSet(np.tile(np.eye(2), (2, 1, 1)),
                                           make_uniform_grid(0, 2e5, 2)), chan)
        code = main(["iwf", "--channel", str(chan), "--noise-psd-dbm-hz", psd,
                     "--budgets", "20,10"])
        assert code == 2
        assert "--noise-psd-dbm-hz" in capsys.readouterr().err

    def test_targets_without_fm_mode_exit_2(self, tmp_path, capsys):
        chan, noise = coupled_csv(tmp_path)
        code = main(["iwf", "--channel", chan, "--noise", noise,
                     "--budgets", "1,1", "--targets", "1,2"])
        assert code == 2
        assert "targets" in capsys.readouterr().err


class TestDfdm:
    def test_json_payload(self, tmp_path, capsys):
        chan, noise = coupled_csv(tmp_path)
        code = main(["dfdm", "--channel", chan, "--noise", noise,
                     "--budgets", "1,1", "--rd", "0.4", "--json"])
        assert code == 0
        data = strict_loads(capsys.readouterr().out)
        assert data["cutoff_index"] == 7
        assert data["f_c_hz"] == 7.0
        assert data["rate_bps"] == pytest.approx(0.4, rel=1e-9)
        assert data["target_bps"] == 0.4
        assert data["far_rate_bps"] > 0
        psd = data["psd"]
        assert len(psd) == 8 and all(v == 0 for v in psd[:7])
        assert data["power_mw"] == pytest.approx(sum(psd), rel=1e-12)

    def test_text_output_and_psd_file(self, tmp_path, capsys):
        chan, noise = coupled_csv(tmp_path)
        psd_out = tmp_path / "psd.csv"
        code = main(["dfdm", "--channel", chan, "--noise", noise,
                     "--budgets", "1,1", "--rd", "1.5",
                     "--psd-out", str(psd_out)])
        assert code == 0
        assert "cutoff: tone" in capsys.readouterr().out
        assert psd_out.exists()

    def test_infeasible_target_exits_3(self, tmp_path, capsys):
        chan, noise = coupled_csv(tmp_path)
        code = main(["dfdm", "--channel", chan, "--noise", noise,
                     "--budgets", "1,1", "--rd", "100"])
        assert code == 3
        err = capsys.readouterr().err
        assert "infeasible" in err and "best achievable" in err

    def test_target_within_the_tolerance_exits_0(self, tmp_path, capsys):
        # A target just above the rate of tones 4..7, within the cutoff
        # search's 1e-12 tolerance, used to exit 3.
        chan, noise_path = coupled_csv(tmp_path)
        channel, (noise, _) = load_channel_csv(chan), load_noise_csv(noise_path)
        opening = waterfill_ra(effective_noise(0, (), channel, noise), 1.0,
                               channel.grid)[0]
        eff = effective_noise(1, [opening], channel, noise)
        usable = eff.usable.copy()
        usable[:4] = False
        above = EffectiveNoise(1, eff.values, usable)
        alloc, _ = waterfill_ra(above, 1.0, channel.grid)
        rd = achievable_rate(alloc.power, above, channel.grid) * (1 + 5e-13)
        code = main(["dfdm", "--channel", chan, "--noise", noise_path,
                     "--budgets", "1,1", "--rd", repr(rd), "--json"])
        assert code == 0
        data = strict_loads(capsys.readouterr().out)
        assert data["cutoff_index"] == 4
        assert data["rate_bps"] >= rd * (1 - 1e-12)

    def test_negative_target_exits_2(self, tmp_path, capsys):
        # It used to exit 0, printing "rate 0 bit/s (target -1)".
        chan, noise = coupled_csv(tmp_path)
        code = main(["dfdm", "--channel", chan, "--noise", noise,
                     "--budgets", "1,1", "--rd", "-1"])
        assert code == 2
        assert "target_rate" in capsys.readouterr().err


class TestNearfarBounds:
    ARGS = ["--alpha", "0.01", "--beta", "0.5", "--power", "1",
            "--n1", "1e-4", "--n2", "1e-4"]

    def test_both_methods(self, capsys):
        code = main(["nearfar-bounds", *self.ARGS, "--r2", "10"])
        assert code == 0
        data = strict_loads(capsys.readouterr().out)
        params = NearFarParams(alpha=0.01, beta=0.5, power=1.0,
                               n1=1e-4, n2=1e-4)
        pair = rr_iwf_bounds(10.0, params)
        assert data["fm-iwf"]["lower"] == pytest.approx(pair.lower, rel=1e-12)
        assert data["fm-iwf"]["upper"] == pytest.approx(pair.upper, rel=1e-12)
        assert data["fm-iwf"]["flags"]["bandwidth_limited"]
        assert "exact_tau_estimate" in data["fm-iwf"]
        ref = dfdm_rate_bounds(10.0, params)
        assert data["dfdm"]["lower"] == pytest.approx(ref.lower, rel=1e-12)
        assert "lambda" in data["dfdm"]

    def test_single_method_prints_bare_object(self, capsys):
        code = main(["nearfar-bounds", *self.ARGS, "--r2", "10",
                     "--method", "fmiwf"])
        assert code == 0
        data = strict_loads(capsys.readouterr().out)
        assert set(data) == {"lower", "upper", "method", "flags",
                             "exact_tau_estimate"}

    def test_nan_alpha_exits_2(self, capsys):
        # A nan alpha used to exit 0 with NaN in the JSON.
        args = ["--alpha", "nan", "--beta", "0.5", "--r2", "2"]
        assert main(["nearfar-bounds", *args]) == 2
        captured = capsys.readouterr()
        assert "alpha must be finite" in captured.err and not captured.out

    def test_target_past_float_range_exits_0(self, capsys):
        # 2**(r2/(W1+W2)) used to raise a raw OverflowError (exit 1).  The
        # infinite tau is written as null: "Infinity" is not JSON.
        args = ["--alpha", "0.01", "--beta", "0.5", "--r2", "3000"]
        assert main(["nearfar-bounds", *args]) == 0
        fm = strict_loads(capsys.readouterr().out)["fm-iwf"]
        assert fm["flags"]["tau"] is None
        assert not fm["flags"]["feasible"]
        assert fm["lower"] == fm["upper"] == fm["exact_tau_estimate"] == 0.0

    def test_infeasible_dfdm_has_no_lambda(self, capsys):
        code = main(["nearfar-bounds", *self.ARGS, "--r2", "40",
                     "--method", "dfdm"])
        assert code == 0
        data = strict_loads(capsys.readouterr().out)
        assert not data["flags"]["feasible"]
        assert "lambda" not in data


class TestRegionSweep:
    def test_csv_contract(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["region-sweep", "--alpha", "0.01", "--beta", "0.5",
                     "--power", "1", "--n1", "1e-4", "--n2", "1e-4",
                     "--r2-min", "2", "--r2-max", "12", "--count", "6",
                     "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "r2,fmiwf_lo,fmiwf_hi,dfdm_lo,dfdm_hi"
        assert len(lines) == 7
        first = [float(c) for c in lines[1].split(",")]
        assert first[0] == 2.0
        assert first[1] <= first[2] and first[3] <= first[4]

    def test_targets_past_float_range(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["region-sweep", "--alpha", "0.01", "--beta", "0.5",
                     "--r2-min", "1", "--r2-max", "1e6", "--count", "3",
                     "--output", str(out)])
        assert code == 0
        last = [float(c) for c in out.read_text().splitlines()[-1].split(",")]
        assert last[:3] == [1e6, 0.0, 0.0]
        assert 0 < last[3] <= last[4]

    @pytest.mark.parametrize("lo,hi,message", [
        ("0", "1", "r2 must be finite and > 0"),
        ("-1", "1", "r2 must be finite and >= 0"),
        ("nan", "1", "r2 must be finite and >= 0"),
        # The first target that breaks a rule decides the message.
        ("1", "0", "r2 must be finite and > 0"),
        ("0", "-1", "r2 must be finite and > 0"),
        ("-1", "0", "r2 must be finite and >= 0"),
        # A non-finite end used to warn in linspace before the refusal.  It
        # starts the targets at nan, a ">= 0" refusal, even after a zero.
        ("1", "inf", "r2 must be finite and >= 0"),
        ("-inf", "1", "r2 must be finite and >= 0"),
        ("inf", "1", "r2 must be finite and >= 0"),
        ("1", "-inf", "r2 must be finite and >= 0"),
        ("0", "inf", "r2 must be finite and >= 0"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_refused_targets_write_no_file(self, tmp_path, capsys, lo, hi,
                                           message):
        out = tmp_path / "sweep.csv"
        # --r2-min=-inf: argparse reads a bare -inf as an option.
        code = main(["region-sweep", "--alpha", "0.01", "--beta", "0.5",
                     f"--r2-min={lo}", f"--r2-max={hi}", "--count", "3",
                     "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("count,hi", [("-1", "2"), ("0", "2"), ("0", "inf")])
    def test_refused_count_writes_no_file(self, tmp_path, capsys, count, hi):
        # -1 used to exit 2 with numpy's "Number of samples" message, and 0
        # to exit 0 with a header-only CSV, even with an infinite end.
        out = tmp_path / "sweep.csv"
        code = main(["region-sweep", "--alpha", "0.01", "--beta", "0.5",
                     "--r2-min", "1", f"--r2-max={hi}", f"--count={count}",
                     "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "config error: --count: must be >= 1\n"
        assert not out.exists()


class TestOracle:
    def test_writes_frontier(self, tmp_path, capsys):
        chan, noise = coupled_csv(tmp_path, num_tones=2)
        out = tmp_path / "frontier.csv"
        code = main(["oracle", "--channel", chan, "--noise", noise,
                     "--budgets", "1,1", "--levels", "7",
                     "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "r2,r1"
        assert len(lines) > 2

    @pytest.mark.parametrize("budgets", ["1", "1,1,1"])
    def test_budget_count_mismatch_exits_2(self, tmp_path, capsys, budgets):
        # One budget used to end in a traceback and exit 1, three in exit 0.
        chan, noise = coupled_csv(tmp_path, num_tones=2)
        code = main(["oracle", "--channel", chan, "--noise", noise,
                     "--budgets", budgets, "--output", str(tmp_path / "x.csv")])
        assert code == 2
        assert "budgets" in capsys.readouterr().err

    def test_search_space_cap_exits_2(self, tmp_path, capsys):
        chan, noise = coupled_csv(tmp_path, num_tones=8)
        code = main(["oracle", "--channel", chan, "--noise", noise,
                     "--budgets", "1,1", "--levels", "3",
                     "--output", str(tmp_path / "x.csv")])
        assert code == 2
        assert "config error" in capsys.readouterr().err


class TestRun:
    def write_config(self, tmp_path, **overrides):
        cfg = {
            "name": "cli-run",
            "grid": {"f_start_hz": 0.0, "f_end_hz": 1.2e6, "num_tones": 12},
            "channel": {"kind": "synthetic", "lengths_km": [2.0, 0.6],
                        "group_sizes": [4, 4]},
            "noise_psd_dbm_hz": -140.0,
            "budgets_mw": [30.0, 30.0],
            "methods": ["fm-iwf", "dfdm"],
            "sweep": {"count": 3},
            "output_dir": str(tmp_path / "out"),
        }
        cfg.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_runs_scenario(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        assert main(["run", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "scenario cli-run" in out
        assert (tmp_path / "out" / "rate_region.csv").exists()

    def test_set_overrides(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        code = main(["run", "--config", cfg, "--set", "name=\"patched\"",
                     "--set", "sweep.count=2",
                     "--output-dir", str(tmp_path / "alt")])
        assert code == 0
        assert "scenario patched" in capsys.readouterr().out
        lines = (tmp_path / "alt" / "rate_region.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 + 2

    def test_override_does_not_carry_to_the_next_call(self, tmp_path, capsys):
        # main parses every call with one parser.
        cfg = self.write_config(tmp_path)
        assert main(["run", "--config", cfg, "--set", "name=\"patched\""]) == 0
        assert "scenario patched" in capsys.readouterr().out
        assert main(["run", "--config", cfg]) == 0
        assert "scenario cli-run" in capsys.readouterr().out

    @pytest.mark.parametrize("override,field", [
        ("grid.num_tones=\"12\"", "grid.num_tones"),
        ("budgets_mw=\"ab\"", "budgets_mw"),
        ("channel.lengths_km=[2.0, null]", "channel.lengths_km[1]"),
        ("sweep=[]", "sweep"),
        ("sweep.count=2.5", "sweep.count")])
    def test_wrong_field_type_exits_2(self, tmp_path, capsys, override, field):
        # These used to end in a raw TypeError or AttributeError traceback
        # (exit 1), or, for a fractional count, to run int(count) targets.
        cfg = self.write_config(tmp_path)
        assert main(["run", "--config", cfg, "--set", override]) == 2
        assert f"config error: {field}: " in capsys.readouterr().err

    @pytest.mark.parametrize("override,code,err", [
        pytest.param("band_plan_hz=[[[0.0, 1.0]], null]", 2,  # covers no
                     "config error: band_plan_hz[0]: covers no tone centre",
                     id="band_plan_hz=[[[0.0, 1.0]], null]-2"),  # tone centre
        pytest.param("sweep.rd_bps=[1e12]", 3, "infeasible: ",  # unreachable
                     id="sweep.rd_bps=[1e12]-3"),
        # A budget past the finite-rate rule; it used to exit 0 with inf
        # far rates in rate_region.csv, then to be refused as the solver's
        # "budgets[0]" instead of the field the user wrote.
        pytest.param("budgets_mw=[1e308, 1e308]", 2,
                     "config error: budgets_mw[0]: 1e+308 is too large: ",
                     id="budget-overflows"),
        pytest.param("budgets_mw=[30.0, 1e308]", 2,
                     "config error: budgets_mw[1]: 1e+308 is too large: ",
                     id="second-budget-overflows"),
        # This one used to escape as a raw OverflowError.
        pytest.param(f"channel.group_sizes=[1, {10 ** 320}]", 2,
                     "config error: channel.group_sizes[1]: ",
                     id="group-size-past-float"),
        # Synthetic gains past the float range, or all zero.  The first two
        # used to exit 2 naming no field, f_end_hz after an overflow
        # warning; the third exited 3 with "no usable tones".
        pytest.param("channel.fext_coeff=1e308", 2,
                     "config error: channel.fext_coeff: ", id="fext-overflows"),
        pytest.param("grid.f_end_hz=1e308", 2,
                     "config error: grid.f_end_hz: ", id="f-end-overflows"),
        pytest.param("channel.attenuation=1e308", 2,
                     "config error: channel.attenuation: ",
                     id="attenuation-underflows"),
        # Crosstalk times a group size past the float range; it used to
        # exit 2 naming no field, after numpy's overflow warning.
        pytest.param(("channel.fext_coeff=1e100",
                      f"channel.group_sizes=[1, {10 ** 300}]"), 2,
                     "config error: channel.group_sizes[1]: is too large: ",
                     id="group-size-overflows"),
    ])
    def test_failed_run_leaves_the_output_dir_as_it_was(self, tmp_path, capsys,
                                                        override, code, err):
        cfg = self.write_config(tmp_path)
        argv = ["run", "--config", cfg]
        for assignment in [override] if isinstance(override, str) else override:
            argv += ["--set", assignment]
        out = tmp_path / "out"
        assert main(argv) == code
        assert capsys.readouterr().err.startswith(err)
        assert not out.exists()
        out.mkdir()
        (out / "keep.txt").write_text("kept")
        assert main(argv) == code
        assert [p.name for p in out.iterdir()] == ["keep.txt"]
        assert (out / "keep.txt").read_text() == "kept"

    def test_config_error_exits_2(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, methods=["sorcery"])
        assert main(["run", "--config", cfg]) == 2
        assert "methods" in capsys.readouterr().err


class TestParser:
    def test_unknown_command_raises_system_exit(self):
        with pytest.raises(SystemExit):
            main(["conjure"])

    def test_parser_serves_after_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--h", "0.3"])
        assert exc.value.code == 2
        assert main(["classify", "--h", "0.3", "--snr", "10"]) == 0
        assert "region: B" in capsys.readouterr().out

    def test_build_parser_is_fresh_and_main_reuses_one(self):
        assert build_parser() is not build_parser()
        assert _parser() is _parser()


# Console checks.  A row of CONSOLE_CHECKS runs one command line through
# main: its argv, its exit code, the start of its one stderr line (none on
# exit 0), and the paths that must not exist after it.  A refusal prints
# nothing on stdout.  {inputs} stands for the inputs fixture's directory,
# {out} for a fresh directory per row.
_spec = importlib.util.spec_from_file_location(
    "make_golden", Path(__file__).resolve().parent / "golden" / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The goldens' inputs, the 2-tone channel with its users relabelled
    and with a nan gain, and coupled_csv's 8-tone channel."""
    root = tmp_path_factory.mktemp("inputs")
    make_golden.write_inputs(str(root))
    two = load_channel_csv(root / "two_tone.csv")
    write_channel_csv(ChannelMatrixSet(two.gains[:, ::-1, ::-1].copy(), two.grid),
                      root / "two_tone_relabelled.csv")
    lines = (root / "two_tone.csv").read_text().split("\n")
    freq, _, *gains = lines[1].split(",")
    lines[1] = ",".join([freq, "nan", *gains])
    (root / "nan.csv").write_text("\n".join(lines))
    coupled_csv(root)
    return root


def _fill(text: str, inputs, out) -> str:
    return text.replace(make_golden.INPUTS, str(inputs)).replace(
        make_golden.OUT, str(out))


IWF = ["iwf", "--channel", "{inputs}/chan.csv"]
RUN = ["run", "--config", "{inputs}/run_plan.json", "--output-dir", "{out}/run"]
CONSOLE_CHECKS = [
    pytest.param(["classify", "--h", "1.5", "--snr", "10"], 2,
                 "error: h must satisfy 0 <= h < 1", [], id="classify-h-past-1"),
    pytest.param(["region-map", "--h-min", "0.1", "--h-max", "0.5", "--snr-min",
                  "1", "--snr-max", "inf", "--resolution", "4",
                  "--output", "{out}/m.csv"], 2, "config error: snr_range: ",
                 ["{out}/m.csv"],
                 id="region-map-infinite-snr"),
    # A strong-user SNR that underflows to 0 saturates the bounds.
    pytest.param(["nearfar-bounds", "--alpha", "1", "--beta", "0.1", "--power",
                  "1e-300", "--n2", "1e100", "--r2", "1"], 0, "", [],
                 id="nearfar-bounds-snr-underflows"),
    pytest.param([*IWF, "--budgets", "1,1"], 2,
                 "config error: need --noise or --noise-psd-dbm-hz", [],
                 id="iwf-no-noise"),
    pytest.param([*IWF, "--noise", "{inputs}/noise.csv", "--budgets", "1,1,1"],
                 2, "error: budgets: 3 given for 2 users", [],
                 id="iwf-budget-count"),
    pytest.param(["iwf", "--channel", "{inputs}/nan.csv", "--noise-psd-dbm-hz",
                  "-60", "--budgets", "20,10"], 2,
                 "config error: {inputs}/nan.csv: line 2: not a finite number",
                 [], id="iwf-nan-gain"),
    pytest.param(["run", "--config", "{out}/nope.json"], 2,
                 "error: [Errno 2] No such file or directory", [],
                 id="run-missing-config"),
    pytest.param([*RUN, "--set", "oops"], 2,
                 "config error: --set: expected key=value", ["{out}/run"],
                 id="run-set-without-value"),
    # A field that load_config does not read, at the top level, in the
    # grid, in the sweep and in each kind of channel.
    *(pytest.param([*RUN, "--set", assignment], 2,
                   f"config error: {field}: unknown field", ["{out}/run"],
                   id=f"run-unknown-field-{field}")
      for assignment, field in (("budgets_mW=[1,1]", "budgets_mW"),
                                ("grid.num_tone=3", "grid.num_tone"),
                                ("sweep.cuont=9", "sweep.cuont"),
                                ("channel.path=x.csv", "channel.path"),
                                ("channel.kind=csv", "channel.lengths_km"))),
]


@pytest.mark.parametrize("argv,code,err,absent", CONSOLE_CHECKS)
def test_console_check(inputs, tmp_path, capsys, argv, code, err, absent):
    assert main([_fill(a, inputs, tmp_path) for a in argv]) == code
    captured = capsys.readouterr()
    if code == 0:
        assert captured.err == ""
    else:
        assert captured.err.startswith(_fill(err, inputs, tmp_path))
        assert captured.err.count("\n") == 1 and captured.out == ""
    for path in absent:
        assert not os.path.exists(_fill(path, inputs, tmp_path))


def _rows(path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


# A relabelled pair's second command line runs the first on the 2-tone
# channel with its users, their budgets and the near user swapped.
RELABEL = (("two_tone.csv", "two_tone_relabelled.csv"), ("20,10", "10,20"),
           ("near_user=1", "near_user=0"))
TWO_TONE = ["--channel", "{inputs}/two_tone.csv", "--noise-psd-dbm-hz", "-60",
            "--budgets", "20,10"]


@pytest.mark.parametrize("argv,relabel,names,transform", [
    # A rerun writes the same bytes: stdout (in io.txt) and every file.
    pytest.param(["dfdm", *TWO_TONE, "--rd", "1e5", "--json"], False, ["io.txt"],
                 None, id="dfdm-json-rerun"),
    pytest.param(RUN[:-1] + ["{out}"], False, None, None, id="run-rerun"),
    pytest.param(["run", "--config", "{inputs}/run_csv.json", "--set",
                  'methods=["dfdm", "fm-iwf", "oracle"]', "--set",
                  "channel.path={inputs}/two_tone.csv", "--set",
                  "budgets_mw=[20,10]", "--set", "near_user=1",
                  "--output-dir", "{out}"], True, ["rate_region.csv"], None,
                 id="run-relabels"),
    # Two-user Jacobi IWF on two tones, which runs on Python floats,
    # relabels exactly: the PSD columns swap.
    pytest.param(["iwf", *TWO_TONE, "--schedule", "jacobi",
                  "--psd-out", "{out}/psd.csv"], True, ["psd.csv"],
                 lambda rows: [[f, b, a] for f, a, b in rows],
                 id="iwf-jacobi-relabels"),
    # So does the oracle's frontier: its columns swap, its order reverses.
    pytest.param(["oracle", *TWO_TONE, "--levels", "31",
                  "--output", "{out}/frontier.csv"], True, ["frontier.csv"],
                 lambda rows: [[b, a] for a, b in rows[::-1]],
                 id="oracle-relabels"),
])
def test_outputs_agree(inputs, tmp_path, argv, relabel, names, transform):
    """Both command lines exit 0, and the named files of the second (all
    of them when names is None) equal the first's: as text, or as data
    rows after transform."""
    a, b = tmp_path / "a", tmp_path / "b"
    second = list(argv)
    for old, new in RELABEL if relabel else ():
        second = [x.replace(old, new) for x in second]
    for args, out in ((argv, a), (second, b)):
        make_golden.run_case(args, str(inputs), str(out))
        assert (out / "io.txt").read_text().startswith("exit 0\n")
    assert names or sorted(os.listdir(a)) == sorted(os.listdir(b))
    for name in names or os.listdir(a):
        if transform is None:
            assert (b / name).read_text() == (a / name).read_text()
        else:
            assert transform(_rows(b / name)) == _rows(a / name)


def test_installed_entry_point(tmp_path):
    """The specoord script on PATH, run without PYTHONPATH so that it
    imports the installed package; without one, `python -m specoord.cli`
    on this checkout."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    command = [shutil.which("specoord")]
    if command[0] is None:
        command = [sys.executable, "-m", "specoord.cli"]
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    for h, code, out, err in (("0.3", 0, "region: B", ""),
                              ("1.5", 2, "", "error: h must satisfy")):
        done = subprocess.run([*command, "classify", "--h", h, "--snr", "10"],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True)
        assert done.returncode == code
        assert out in done.stdout and done.stderr.startswith(err)
