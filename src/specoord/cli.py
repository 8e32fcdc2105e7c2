"""Command-line front end.

Subcommands mirror the library surface: game classification and region
maps, iterative water-filling on channel CSVs, dynamic FDM, the near-far
closed-form bounds and sweeps, the brute-force frontier, and the JSON
scenario runner.  Exit status is 0 on success, 2 for configuration or
input errors, 3 when a rate target is infeasible.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import nearfar, scenario, symmetric
from .channel import (ChannelCsvError, NoiseProfile, _from_db, _texts,
                      _write_rows, load_channel_csv, load_noise_csv,
                      write_psd_csv)
from .dfdm import _Sweep
from .game import is_nash_equilibrium
from .oracle import SearchSpaceError, brute_force_pareto
from .waterfilling import MAX_ITER, TOL, InfeasibleError, iterate_iwf

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3


def _budgets(text: str) -> list[float]:
    try:
        values = [float(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")
    if any(v <= 0 for v in values):
        raise argparse.ArgumentTypeError("budgets must be positive")
    return values


def _targets(text: str) -> list[float | None]:
    out: list[float | None] = []
    for part in text.split(","):
        part = part.strip().lower()
        out.append(None if part in ("none", "-", "") else float(part))
    return out


def _load_instance(args) -> tuple:
    channel = load_channel_csv(args.channel)
    if args.noise:
        noise, ngrid = load_noise_csv(args.noise)
        grid = channel.grid
        if ngrid.num_tones != grid.num_tones or not np.allclose(
                ngrid.edges, grid.edges, rtol=0, atol=1e-9 * grid.widths.min()):
            raise ChannelCsvError(f"{args.noise}: tone edges do not match the channel's")
    elif args.noise_psd_dbm_hz is not None:
        try:
            noise = NoiseProfile.from_psd_dbm_hz(args.noise_psd_dbm_hz,
                                                 channel.grid, channel.num_users)
        except ValueError as exc:
            raise ValueError(f"--noise-psd-dbm-hz: {exc}") from None
    else:
        raise ChannelCsvError("need --noise or --noise-psd-dbm-hz")
    return channel, noise


def _print_json(obj) -> None:
    """Print obj as strict (RFC 8259) JSON: a non-finite float becomes null."""
    def strict(value):
        if isinstance(value, dict):
            return {key: strict(v) for key, v in value.items()}
        if isinstance(value, list):
            return [strict(v) for v in value]
        if isinstance(value, float) and not math.isfinite(value):
            return None
        return value
    print(json.dumps(strict(obj), allow_nan=False))


def _gap(args) -> float:
    gap = _from_db(args.gap_db)
    if gap == math.inf:
        raise ValueError(f"--gap-db {args.gap_db!r} is too large: the linear "
                         "gap overflows a float")
    return gap


def _add_instance_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--channel", required=True, help="channel gain CSV")
    p.add_argument("--noise", help="noise CSV (freq_hz,n_1,...)")
    p.add_argument("--noise-psd-dbm-hz", type=float,
                   help="white noise PSD instead of a noise CSV")
    p.add_argument("--budgets", required=True, type=_budgets,
                   help="comma-separated per-user power budgets (mW)")
    p.add_argument("--gap-db", type=float, default=0.0, help="SNR gap in dB")


def cmd_classify(args) -> int:
    g = symmetric.classify_game(args.h, args.snr)
    q = symmetric.payoff_quad(args.h, args.snr)
    if args.json:
        _print_json({
            "h": args.h, "snr": args.snr, "region": g.region.code,
            "ordering": g.ordering, "boundary": g.boundary,
            "h_lim1": g.h_lim1, "h_lim2": g.h_lim2,
            "payoffs": {"T": q.T, "R": q.R, "P": q.P, "N": q.N},
            "recommendation": symmetric.recommend_strategy(args.h, args.snr),
        })
        return EXIT_OK
    print(f"region: {g.region.code} ({g.region.name.lower().replace('_', ' ')})")
    print(f"ordering: {g.ordering}" + ("  [on a boundary]" if g.boundary else ""))
    print(f"payoffs: T={q.T:.6g} R={q.R:.6g} P={q.P:.6g} N={q.N:.6g}")
    print(f"h_lim1={g.h_lim1:.6g} h_lim2={g.h_lim2:.6g}")
    print(f"recommendation: {symmetric.recommend_strategy(args.h, args.snr)}")
    return EXIT_OK


def cmd_region_map(args) -> int:
    rows = scenario.emit_region_map((args.snr_min, args.snr_max),
                                    (args.h_min, args.h_max),
                                    args.resolution, args.output)
    print(f"wrote {rows} rows to {args.output}")
    return EXIT_OK


def cmd_iwf(args) -> int:
    channel, noise = _load_instance(args)
    g = _gap(args)
    report = iterate_iwf(channel, noise, args.budgets, mode=args.mode,
                         targets=args.targets, max_iter=args.max_iter,
                         tol=args.tol, schedule=args.schedule, gap=g)
    nash = is_nash_equilibrium(report.allocations, channel, noise, gap=g)
    for alloc, rate in zip(report.allocations, nash.rates):
        spent = float(np.sum(alloc.power))
        print(f"user {alloc.user + 1}: rate {rate:.9g} bit/s, power {spent:.9g} mW")
    print(f"iterations: {report.iterations}  converged: {report.converged}"
          f"  schedule: {report.schedule}")
    if report.shortfall_users:
        users = ", ".join(str(u + 1) for u in report.shortfall_users)
        print(f"targets unreachable for user(s) {users}; fell back to full power")
    print(f"nash: {nash.is_nash}  worst unilateral gain: {nash.worst_gain:.3g} bit/s")
    if args.psd_out:
        write_psd_csv([a.power for a in report.allocations], channel.grid,
                      args.psd_out)
        print(f"wrote {args.psd_out}")
    if not report.converged:
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_dfdm(args) -> int:
    channel, noise = _load_instance(args)
    g = _gap(args)
    sweep = _Sweep(channel, noise, args.budgets, args.near_user, g)
    p, _, far_rate, (cutoff, achieved) = sweep.round(args.rd)
    cutoff_hz, power = float(channel.grid.edges[cutoff]), p[sweep.near]
    if args.json:
        _print_json({
            "f_c_hz": cutoff_hz, "cutoff_index": cutoff,
            "rate_bps": achieved, "target_bps": args.rd,
            "far_rate_bps": far_rate, "power_mw": float(np.sum(power)),
            "psd": list(power / channel.grid.widths),
        })
    else:
        print(f"cutoff: tone {cutoff} ({cutoff_hz:.6g} Hz)")
        print(f"near user {sweep.near + 1}: rate {achieved:.9g} bit/s "
              f"(target {args.rd:.9g}), power {float(np.sum(power)):.9g} mW")
        print(f"far user {sweep.far + 1}: rate {far_rate:.9g} bit/s")
    if args.psd_out:
        write_psd_csv(p, channel.grid, args.psd_out)
        if not args.json:
            print(f"wrote {args.psd_out}")
    return EXIT_OK


def _nearfar_params(args) -> nearfar.NearFarParams:
    return nearfar.NearFarParams(alpha=args.alpha, beta=args.beta,
                                 gamma=args.gamma, power=args.power,
                                 n1=args.n1, n2=args.n2,
                                 w1=args.w1, w2=args.w2)


def _add_nearfar_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, required=True,
                   help="weak user's direct gain in band 1")
    p.add_argument("--beta", type=float, required=True,
                   help="coupling from the strong into the weak receiver")
    p.add_argument("--gamma", type=float, default=0.0,
                   help="coupling from the weak into the strong receiver; "
                        "checked, but the banded bounds assume 0, so it does "
                        "not change the output")
    p.add_argument("--power", type=float, default=1.0, help="per-user budget")
    p.add_argument("--n1", type=float, default=1.0, help="weak receiver noise PSD")
    p.add_argument("--n2", type=float, default=1.0, help="strong receiver noise PSD")
    p.add_argument("--w1", type=float, default=1.0, help="band 1 width (Hz)")
    p.add_argument("--w2", type=float, default=1.0, help="band 2 width (Hz)")


def _bound_dict(pair: nearfar.RateBoundPair) -> dict:
    return {"lower": pair.lower, "upper": pair.upper, "method": pair.method,
            "flags": pair.flags}


def cmd_nearfar_bounds(args) -> int:
    params = _nearfar_params(args)
    out = {}
    if args.method in ("fmiwf", "both"):
        pair = nearfar.rr_iwf_bounds(args.r2, params)
        out["fm-iwf"] = _bound_dict(pair)
        out["fm-iwf"]["exact_tau_estimate"] = nearfar.rr_iwf_exact_tau_r1(
            args.r2, params)
    if args.method in ("dfdm", "both"):
        out["dfdm"] = _bound_dict(nearfar.dfdm_rate_bounds(args.r2, params))
        if out["dfdm"]["flags"]["feasible"]:
            out["dfdm"]["lambda"] = nearfar.solve_lambda(args.r2, params)
    _print_json(out if args.method == "both" else next(iter(out.values())))
    return EXIT_OK


def cmd_region_sweep(args) -> int:
    params = _nearfar_params(args)
    if args.count < 1:
        raise scenario.ConfigError("--count", "must be >= 1")
    # A non-finite end, or a span past the float range, makes linspace warn
    # and start the targets at nan, which the table refuses by this message.
    if not math.isfinite(args.r2_min - args.r2_max):
        raise ValueError("r2 must be finite and >= 0")
    r2 = np.linspace(args.r2_min, args.r2_max, args.count)
    _write_rows(args.output, ["r2", "fmiwf_lo", "fmiwf_hi", "dfdm_lo", "dfdm_hi"],
                _texts(r2), nearfar.rate_bounds_table(r2, params))
    print(f"wrote {len(r2)} rows to {args.output}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    channel, noise = _load_instance(args)
    curve = brute_force_pareto(channel, noise, args.budgets,
                               levels=args.levels, gap=_gap(args))
    _write_rows(args.output, curve.columns, _texts(curve.points[:, 0]),
                curve.points[:, 1:])
    print(f"wrote {curve.points.shape[0]} frontier points to {args.output}")
    return EXIT_OK


def _apply_override(raw: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise scenario.ConfigError("--set", f"expected key=value, got {assignment!r}")
    path, text = assignment.split("=", 1)
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text
    keys = path.split(".")
    node = raw
    for key in keys[:-1]:
        node = node.setdefault(key, {}) if isinstance(node, dict) else None
    if not isinstance(node, dict):  # the root too: a config may be an array
        raise scenario.ConfigError(path, "cannot override inside a non-object")
    node[keys[-1]] = value


def cmd_run(args) -> int:
    raw = scenario._read_json(args.config)
    for assignment in args.set or []:
        _apply_override(raw, assignment)
    config = scenario.load_config(raw)
    report = scenario.run_scenario(config, output_dir=args.output_dir)
    print(f"scenario {report['name']}: near user {report['near_user'] + 1}, "
          f"max near rate {report['near_max_bps']:.9g} bit/s")
    for name, path in sorted(report["files"].items()):
        print(f"  {name}: {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specoord",
        description="Spectrum coordination tools for interference channels.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify the symmetric two-band game")
    p.add_argument("--h", type=float, required=True, help="cross coupling (power gain)")
    p.add_argument("--snr", type=float, required=True, help="budget over noise PSD")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("region-map", help="CSV map of game regions over (h, snr)")
    p.add_argument("--h-min", type=float, default=0.0)
    p.add_argument("--h-max", type=float, default=0.99)
    p.add_argument("--snr-min", type=float, default=0.1)
    p.add_argument("--snr-max", type=float, default=1e4)
    p.add_argument("--resolution", type=int, default=50, help="points per axis")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_region_map)

    p = sub.add_parser("iwf", help="iterative water-filling on a channel CSV")
    _add_instance_args(p)
    p.add_argument("--mode", choices=("ra", "fm"), default="ra")
    p.add_argument("--targets", type=_targets,
                   help="comma-separated per-user rate targets for --mode fm; "
                        "'none' = full power")
    p.add_argument("--schedule", choices=("gauss-seidel", "jacobi"),
                   default="gauss-seidel")
    p.add_argument("--max-iter", type=int, default=MAX_ITER)
    p.add_argument("--tol", type=float, default=TOL)
    p.add_argument("--psd-out", help="write the final PSDs to this CSV")
    p.set_defaults(func=cmd_iwf)

    p = sub.add_parser("dfdm", help="dynamic FDM split on a 2-user channel CSV")
    _add_instance_args(p)
    p.add_argument("--rd", type=float, required=True,
                   help="near user's rate target (bit/s)")
    p.add_argument("--near-user", type=int, choices=(0, 1), default=1)
    p.add_argument("--json", action="store_true",
                   help="emit {f_c_hz, rate_bps, psd, ...} as JSON")
    p.add_argument("--psd-out", help="write the final PSDs to this CSV")
    p.set_defaults(func=cmd_dfdm)

    p = sub.add_parser("nearfar-bounds",
                       help="closed-form weak-user rate bounds at one target (JSON)")
    _add_nearfar_args(p)
    p.add_argument("--r2", type=float, required=True,
                   help="strong user's rate target (bit/s)")
    p.add_argument("--method", choices=("fmiwf", "dfdm", "both"), default="both")
    p.set_defaults(func=cmd_nearfar_bounds)

    p = sub.add_parser("region-sweep",
                       help="CSV sweep of the closed-form rate-region curves")
    _add_nearfar_args(p)
    p.add_argument("--r2-min", type=float, required=True)
    p.add_argument("--r2-max", type=float, required=True)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_region_sweep)

    p = sub.add_parser("oracle", help="brute-force Pareto frontier of a 2-user game")
    _add_instance_args(p)
    p.add_argument("--levels", type=int, default=11,
                   help="power levels per tone in the search grid")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("run", help="run a JSON scenario and emit its CSV artefacts")
    p.add_argument("--config", required=True, help="scenario JSON file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config field (dotted path, JSON value)")
    p.add_argument("--output-dir", help="override the scenario output directory")
    p.set_defaults(func=cmd_run)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: parse_args keeps no state between calls."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleError as exc:
        best = ("" if exc.max_achievable is None
                else f" (best achievable {exc.max_achievable:.9g} bit/s)")
        print(f"infeasible: {exc}{best}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (scenario.ConfigError, ChannelCsvError, SearchSpaceError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
