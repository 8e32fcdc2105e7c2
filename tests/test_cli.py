import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from specoord import dfdm, game, oracle, waterfilling
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
        for module in (game, waterfilling, dfdm, oracle):
            for name in ("_receivers", "power_matrix"):
                if hasattr(module, name):
                    def counted(*args, inner=getattr(module, name), name=name,
                                **kw):
                        calls.append(name)
                        return inner(*args, **kw)
                    monkeypatch.setattr(module, name, counted)
        chan, noise = coupled_csv(tmp_path)
        assert main(["iwf", "--channel", chan, "--noise", noise,
                     "--budgets", "1,1"]) == 0
        assert sorted(calls) == ["_receivers"] * 2 + ["power_matrix"]

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

class TestRun:
    def write_config(self, tmp_path):
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

    @pytest.mark.parametrize("override,code,err", [
        pytest.param("band_plan_hz=[[[0.0, 1.0]], null]", 2,  # covers no
                     "config error: band_plan_hz[0]: covers no tone centre",
                     id="band_plan_hz=[[[0.0, 1.0]], null]-2"),  # tone centre
        # An unreachable target; the whole sweep, as a count beside rd_bps
        # is refused.
        pytest.param('sweep={"rd_bps": [1e12]}', 3, "infeasible: ",
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
        # Synthetic gains past the float range, or all zero.  The first
        # used to exit 2 naming no field after an overflow warning; the
        # second exited 3 with "no usable tones".
        pytest.param("grid.f_end_hz=1e308", 2,
                     "config error: grid.f_end_hz: ", id="f-end-overflows"),
        pytest.param("channel.lengths_km=[1e5, 0.6]", 2,
                     "config error: channel.lengths_km: underflows every "
                     "direct gain of user 0 to 0 on this grid and line length",
                     id="lengths-underflow"),
        # Crosstalk times a group size past the float range; it used to
        # exit 2 naming no field, after numpy's overflow warning.
        pytest.param(("grid.f_end_hz=1e154",
                      f"channel.group_sizes=[1, {10 ** 17}]"), 2,
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

class TestParser:
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
# main: its argv, its exit code and its message.  On exit 0 a line of
# stdout is the message and stderr is empty.  A refusal prints nothing on
# stdout and one stderr line, the message; an argparse usage error (a
# SystemExit) prints its usage first.  No row leaves a file in {out}, a
# fresh directory per row; {inputs} is the inputs fixture's directory, and
# "..." in a message stands for any text.
_spec = importlib.util.spec_from_file_location(
    "make_golden", Path(__file__).resolve().parent / "golden" / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The goldens' inputs, the 2-tone channel with its users relabelled
    and with a nan gain, coupled_csv's 8-tone channel, noise files that do
    not fit it, 2-tone channels and noise whose upper edges are too far
    apart for a float ("wide") or for a finite rate ("huge"), and a config
    that is a JSON array."""
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
    for name, users, edges in (("noise_1_9_hz", 2, (1, 9, 8)),
                               ("noise_4_tones", 2, (0, 8, 4)),
                               ("noise_3_users", 3, (0, 8, 8))):
        grid = make_uniform_grid(*edges)
        write_noise_csv(NoiseProfile.white(0.1, users, grid.num_tones), grid,
                        root / f"{name}.csv")
    for name, header, values, edges in (
            ("wide", "g_1_1,g_1_2,g_2_1,g_2_2", "1,0.1,0.1,1", ("-1e308", "1e308")),
            ("wide_noise", "n_1,n_2", "0.1,0.1", ("-1e308", "1e308")),
            ("huge", "g_1_1,g_1_2,g_2_1,g_2_2", "1,0.1,0.1,1", ("1e306", "2e306")),
            ("huge_noise", "n_1,n_2", "1e-300,1e-300", ("1e306", "2e306"))):
        (root / f"{name}.csv").write_text(
            f"freq_hz,{header}\n" + "".join(f"{e},{values}\n" for e in edges))
    (root / "array.json").write_text("[]")
    return root


def _fill(text: str, inputs, out) -> str:
    return text.replace(make_golden.INPUTS, str(inputs)).replace(
        make_golden.OUT, str(out))


COUPLED = ["--channel", "{inputs}/chan.csv", "--noise", "{inputs}/noise.csv"]
INSTANCE = [*COUPLED, "--budgets", "1,1"]
TWO_TONE = ["--channel", "{inputs}/two_tone.csv", "--noise-psd-dbm-hz", "-60",
            "--budgets", "20,10"]
SWEEP = ["region-sweep", "--alpha", "0.01", "--beta", "0.5"]
RUN = ["run", "--config", "{inputs}/run_plan.json", "--output-dir", "{out}/run"]
CONSOLE_CHECKS = [
    pytest.param(["classify", "--h", "1.5", "--snr", "10"], 2,
                 "error: h must satisfy 0 <= h < 1", id="classify-h-past-1"),
    # An infinite snr used to end in a ZeroDivisionError traceback, and a
    # subnormal one to report region B with h_lim1=nan.
    *(pytest.param(["classify", "--h", "0.5", "--snr", snr], 2,
                   "error: snr must be finite and > 0, with a finite 1/snr",
                   id=f"classify-snr-{snr}") for snr in ("inf", "nan", "5e-324")),
    pytest.param(["region-map", "--h-min", "0.1", "--h-max", "0.5", "--snr-min",
                  "1", "--snr-max", "inf", "--resolution", "4", "--output",
                  "{out}/m.csv"], 2, "config error: snr_range: need finite "
                 "0 < lo <= hi, with a finite 1/lo",
                 id="region-map-infinite-snr"),
    # A strong-user SNR that underflows to 0 saturates the bounds.
    pytest.param(["nearfar-bounds", "--alpha", "1", "--beta", "0.1", "--power",
                  "1e-300", "--n2", "1e100", "--r2", "1"], 0,
                 '{"fm-iwf": {"lower": 0.0, "upper": 0.0, ..."dfdm": {"lower": '
                 '0.0, "upper": 0.0, ...', id="nearfar-bounds-snr-underflows"),
    # A nan alpha used to exit 0 with NaN in the JSON.
    pytest.param(["nearfar-bounds", "--alpha", "nan", "--beta", "0.5", "--r2",
                  "2"], 2, "error: alpha must be finite and > 0",
                 id="nearfar-bounds-nan-alpha"),
    # The first target that breaks a rule decides the message.  A
    # non-finite end used to warn in linspace; it starts the targets at nan,
    # a ">= 0" refusal even after a zero.  A bare -inf reads as an option.
    *(pytest.param([*SWEEP, f"--r2-min={lo}", f"--r2-max={hi}", "--count", "3",
                    "--output", "{out}/sweep.csv"], 2,
                   f"error: r2 must be finite and {rule} 0",
                   id=f"region-sweep-r2-{lo}-{hi}")
      for lo, hi, rule in map(str.split, (
          "0 1 >", "-1 1 >=", "nan 1 >=", "1 0 >", "0 -1 >", "-1 0 >=",
          "1 inf >=", "-inf 1 >=", "inf 1 >=", "1 -inf >=", "0 inf >="))),
    # -1 used to exit 2 with numpy's "Number of samples" message, and 0 to
    # exit 0 with a header-only CSV, even with an infinite end.
    *(pytest.param([*SWEEP, "--r2-min", "1", f"--r2-max={hi}",
                    f"--count={count}", "--output", "{out}/sweep.csv"], 2,
                   "config error: --count: must be >= 1",
                   id=f"region-sweep-count-{count}-{hi}")
      for count, hi in (("-1", "2"), ("0", "2"), ("0", "inf"))),
    pytest.param(["iwf", "--channel", "{inputs}/chan.csv", "--budgets", "1,1"],
                 2, "config error: need --noise or --noise-psd-dbm-hz",
                 id="iwf-no-noise"),
    pytest.param(["iwf", *COUPLED, "--budgets", "1,1,1"], 2,
                 "error: budgets: 3 given for 2 users", id="iwf-budget-count"),
    # Usage errors: argparse reads the budgets.
    *(pytest.param(["iwf", *COUPLED, "--budgets", budgets], 2,
                   f"specoord iwf: error: argument --budgets: {message}",
                   id=f"iwf-budgets-{budgets}")
      for budgets, message in (("a,b", "not a comma-separated float list: 'a,b'"),
                               ("0,1", "budgets must be positive"))),
    # A noise file on 1-9 Hz has the channel's tone count, so it used to
    # run and exit 0.
    *(pytest.param(["iwf", "--channel", "{inputs}/chan.csv", "--noise",
                    f"{{inputs}}/{name}.csv", "--budgets", "1,1"], 2,
                   message or f"config error: {{inputs}}/{name}.csv: tone edges "
                   "do not match the channel's", id=f"iwf-{name}")
      for name, message in (("noise_1_9_hz", ""), ("noise_4_tones", ""),
                            ("noise_3_users", "error: noise has shape (3, 8), "
                             "but the channel needs (users, tones) = (2, 8)"))),
    # 4000 dB used to escape as an OverflowError traceback.
    *(pytest.param(["iwf", *INSTANCE, "--gap-db", gap], 2, "error: --gap-db "
                   f"{float(gap)} is too large: the linear gap overflows a float",
                   id=f"iwf-gap-{gap}-db") for gap in ("4000", "inf")),
    # 4000 dBm/Hz used to escape as an OverflowError traceback; 3080 dBm/Hz
    # overflows only the power of a 1e5 Hz tone.
    *(pytest.param(["iwf", "--channel", "{inputs}/two_tone.csv",
                    "--noise-psd-dbm-hz", psd, "--budgets", "20,10"], 2,
                   f"error: --noise-psd-dbm-hz: noise PSD {float(psd)} dBm/Hz "
                   "is too large: the noise power of a tone overflows a float",
                   id=f"iwf-noise-psd-{psd}") for psd in ("4000", "3080", "inf")),
    # Upper edges 2e308 apart used to load, after numpy's overflow
    # warnings, as a grid of infinite widths; the run then blamed the
    # powers or the noise PSD.
    *(pytest.param(["iwf", "--channel", "{inputs}/wide.csv", *noise,
                    "--budgets", "1,1"], 2, "config error: {inputs}/wide.csv: "
                   "grid edges and tone widths must be finite",
                   id=f"iwf-wide-grid-{form}")
      for form, noise in (("noise-file", ["--noise", "{inputs}/wide_noise.csv"]),
                          ("noise-psd", ["--noise-psd-dbm-hz", "-140"]))),
    pytest.param(["iwf", "--channel", "{inputs}/nan.csv", *TWO_TONE[2:]], 2,
                 "config error: {inputs}/nan.csv: line 2: not a finite number: "
                 "'nan'", id="iwf-nan-gain"),
    pytest.param(["iwf", *INSTANCE, "--targets", "1,2"], 2,
                 "error: targets need mode 'fm'", id="iwf-targets-without-fm"),
    pytest.param(["iwf", *INSTANCE, "--mode", "fm", "--targets", "1"], 2,
                 "error: need one target (or None) per user",
                 id="iwf-target-count"),
    pytest.param(["iwf", *TWO_TONE, "--mode", "fm", "--targets", "1e9,none"], 0,
                 "targets unreachable for user(s) 1; fell back to full power",
                 id="iwf-target-falls-back"),
    pytest.param(["dfdm", *INSTANCE, "--rd", "100"], 3, "infeasible: target "
                 "100.0 exceeds full-band rate 7.46308643... (best achievable "
                 "7.46308643 bit/s)", id="dfdm-infeasible"),
    # It used to exit 0, printing "rate 0 bit/s (target -1)".
    pytest.param(["dfdm", *INSTANCE, "--rd", "-1"], 2,
                 "error: target_rate must be >= 0", id="dfdm-negative-target"),
    # One budget used to end in a traceback and exit 1, three in exit 0.
    *(pytest.param(["oracle", *COUPLED, "--budgets", budgets, "--output",
                    "{out}/x.csv"], 2, f"error: budgets: {n} given for 2 users",
                   id=f"oracle-budgets-{budgets}")
      for budgets, n in (("1", 1), ("1,1,1", 3))),
    # A span of 2e306 Hz used to exit 0 after numpy's overflow warning,
    # with an infinite frontier.
    pytest.param(["oracle", "--channel", "{inputs}/huge.csv", "--noise",
                  "{inputs}/huge_noise.csv", "--budgets", "1,1", "--output",
                  "{out}/x.csv"], 2, "config error: {inputs}/huge.csv: grid "
                 "span must be below float max / 1024, about 1.76e305 Hz",
                 id="oracle-huge-span"),
    pytest.param(["oracle", *INSTANCE, "--levels", "3", "--output",
                  "{out}/x.csv"], 2, "config error: 3**16 allocations exceed "
                 "the cap 20000000; reduce the tone count or the number of "
                 "levels", id="oracle-search-space-cap"),
    pytest.param(["run", "--config", "{out}/nope.json"], 2, "error: [Errno 2] "
                 "No such file or directory: '{out}/nope.json'",
                 id="run-missing-config"),
    pytest.param(["run", "--config", "{inputs}/array.json"], 2,
                 "config error: <root>: config must be a JSON object",
                 id="run-array-config"),
    # It used to end in a raw TypeError traceback.
    pytest.param(["run", "--config", "{inputs}/array.json", "--set", "x=1"], 2,
                 "config error: x: cannot override inside a non-object",
                 id="run-set-into-array-config"),
    pytest.param([*RUN, "--set", "oops"], 2, "config error: --set: expected "
                 "key=value, got 'oops'", id="run-set-without-value"),
    # A field that load_config does not read, at the top level, in the
    # grid, in the sweep and in each kind of channel or form of sweep, and
    # each field it no longer reads: the detail target (the middle swept
    # target now) and the synthetic model's overrides.
    *(pytest.param([*RUN, "--set", assignment], 2,
                   f"config error: {field}: unknown field",
                   id=f"run-unknown-field-{field}")
      for assignment, field in (("budgets_mW=[1,1]", "budgets_mW"),
                                ("grid.num_tone=3", "grid.num_tone"),
                                ("sweep.cuont=9", "sweep.cuont"),
                                ("channel.path=x.csv", "channel.path"),
                                ("channel.kind=csv", "channel.lengths_km"),
                                ('sweep={"rd_bps": [1e5], "count": 9, '
                                 '"max_fraction": 7.0}', "sweep.count"),
                                ("detail_rd_bps=1", "detail_rd_bps"),
                                ("channel.attenuation=1e-3",
                                 "channel.attenuation"),
                                ("channel.fext_coeff=1e-16",
                                 "channel.fext_coeff"),
                                ("channel.coupling_lengths_km=[[0.5, 0.5], "
                                 "[0.5, 0.5]]", "channel.coupling_lengths_km"))),
    # A field of the wrong type or shape.  The first five used to end in a
    # raw TypeError or AttributeError traceback (exit 1), or, for a
    # fractional count, to run int(count) targets.
    *(pytest.param([*RUN, "--set", assignment], 2,
                   f"config error: {field}: {message}", id=f"run-wrong-{field}")
      for assignment, field, message in (
          ('grid.num_tones="12"', "grid.num_tones", "must be an integer"),
          ('budgets_mw="ab"', "budgets_mw", "must be a JSON array"),
          ("channel.lengths_km=[2.0, null]", "channel.lengths_km[1]",
           "must be a finite number"),
          ("sweep=[]", "sweep", "must be a JSON object"),
          ("sweep.count=2.5", "sweep.count", "must be an integer"),
          ('methods=["sorcery"]', "methods", "must be a non-empty subset of "
           "('ra-iwf', 'fm-iwf', 'dfdm', 'oracle')"),
          ("band_plan_hz=[null]", "band_plan_hz",
           "need one entry (or null) per user"),
          ("name.x=1", "name.x", "cannot override inside a non-object"))),
    # levels**(2K) past the oracle's cap used to be refused without naming
    # oracle_levels: on the 2-tone config, and on 64 tones at the default 11.
    pytest.param(["run", "--config", "{inputs}/run_csv.json", "--set",
                  "oracle_levels=1000", "--output-dir", "{out}/run"], 2,
                 "config error: oracle_levels: 1000**4 allocations exceed the "
                 "cap 20000000; reduce the tone count or the number of levels",
                 id="run-oracle-levels-past-the-cap"),
    pytest.param([*RUN, "--set", 'methods=["oracle"]'], 2,
                 "config error: oracle_levels: 11**128 allocations exceed the "
                 "cap 20000000; ...", id="run-oracle-on-64-tones"),
    pytest.param(["conjure"], 2, "specoord: error: argument command: invalid "
                 "choice: 'conjure'...", id="unknown-command"),
]


@pytest.mark.parametrize("argv,code,message", CONSOLE_CHECKS)
def test_console_check(inputs, tmp_path, capsys, argv, code, message):
    usage, pattern = False, re.compile(".*".join(
        map(re.escape, _fill(message, inputs, tmp_path).split("..."))))
    try:
        assert main([_fill(a, inputs, tmp_path) for a in argv]) == code
    except SystemExit as exc:
        assert exc.code == code
        usage = True
    out, err = capsys.readouterr()
    if code == 0:
        assert err == "" and any(map(pattern.fullmatch, out.splitlines()))
    else:
        assert out == "" and pattern.fullmatch(err.splitlines()[-1])
        assert (err.count("\n") == 1
                or usage and err.startswith("usage: specoord"))
    assert not any(tmp_path.iterdir())


def _rows(path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


# A relabelled pair's second command line runs the first on the 2-tone
# channel with its users, their budgets and the near user swapped.
RELABEL = (("two_tone.csv", "two_tone_relabelled.csv"), ("20,10", "10,20"),
           ("near_user=1", "near_user=0"))


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
