"""Tests of the benchmark itself: tracer coverage, counts, inputs, checks.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import specoord  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
import run  # noqa: E402


def _traced(name: str, seed: int, ops: int, work_dir: str) -> dict:
    """Per-layer metrics of `ops` traced ops, set-up included."""
    tracer = tracing.Tracer(specoord)
    tracer.install()
    try:
        wl = workloads.WORKLOADS[name](seed, work_dir)
        for i in range(ops):
            wl.prepare(i)
            tracer.op = i
            out = wl.run(i)
            tracer.uninstall()
            wl.check(i, out)
            tracer.install()
    finally:
        tracer.uninstall()
    return tracer.metrics()


def _counted(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items()
            if k.rsplit(".", 1)[-1] in tracing.COUNTED}


def test_wrappers_replace_every_binding_and_restore():
    originals = {id(original) for _, _, original, _ in
                 tracing.Tracer(specoord).bindings()}
    tracer = tracing.Tracer(specoord)
    modules = [m for k, m in sys.modules.items()
               if k == "specoord" or k.startswith("specoord.")]
    tracer.install()
    try:
        left = [(m.__name__, key) for m in modules
                for key, value in vars(m).items() if id(value) in originals]
        assert left == []
        # Names that several modules import from one another.
        for mod, attr in [("dfdm", "effective_noise"), ("scenario", "waterfill_ra"),
                          ("cli", "effective_noise"), ("waterfilling", "power_matrix"),
                          ("cli", "brute_force_pareto"), ("scenario", "dfdm_allocate")]:
            assert getattr(getattr(specoord, mod), attr).__wrapped__ is not None
    finally:
        tracer.uninstall()
    for owner, attr, original, _ in tracer.bindings():
        now = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert now is original


def test_dsl_sweep_reaches_indirect_paths(tmp_path):
    m = _traced("dsl_sweep", 3, 2, str(tmp_path))
    assert m["dfdm.find_cutoff.probes"] > 0
    assert m["dfdm.find_cutoff.calls"] == m["dfdm.dfdm_allocate.calls"] > 0
    assert m["waterfilling.waterfill_fm.calls"] > 0
    assert m["channel.FrequencyGrid.widths.calls"] > 0
    assert m["scenario.build_channel.self_s"] > 0
    assert m["scenario.bytes_written"] > 0
    assert m["cli.main.calls"] == 2  # checks, like the first op's rerun, are untraced
    assert m["game.is_nash_equilibrium.calls"] == 0


def test_iwf_binder_reaches_indirect_paths(tmp_path):
    m = _traced("iwf_binder", 3, 1, str(tmp_path))
    n = workloads.IwfBinder.lines
    sweeps = m["waterfilling.iterate_iwf.sweeps"]
    # One effective noise per user per sweep, plus one per user in the
    # certificate, which reaches it through the waterfilling module.
    assert m["waterfilling.effective_noise.calls"] == n * (sweeps + 1)
    assert m["game.power_matrix.calls"] > m["waterfilling.effective_noise.calls"]
    assert m["channel.build.self_s"] > 0
    assert m["game.is_nash_equilibrium.calls"] == 1


def test_two_user_study_reaches_every_layer_it_names(tmp_path):
    m = _traced("two_user_study", 3, 1, str(tmp_path))
    res = workloads.TwoUserStudy.resolution
    assert m["symmetric.classify_game.calls"] == res * res
    assert m["symmetric.h_lim2.calls"] == res * res
    assert m["oracle.pairs"] == 496 ** 2
    assert m["oracle.pareto_front.self_s"] > 0
    assert m["nearfar.rr_iwf_bounds.calls"] == workloads.TwoUserStudy.sweep_count
    assert m["waterfilling.iterate_iwf.sweeps"] > 300
    assert m["dfdm.find_cutoff.calls"] == 0


@pytest.mark.parametrize("name,ops", [("dsl_sweep", 2), ("two_user_study", 1)])
def test_counts_repeat_on_a_seed_and_follow_the_seed(name, ops, tmp_path):
    # iwf_binder is left out of the second half: every seed's binder takes
    # 9 sweeps, so its counts are the same on every seed.
    a = _counted(_traced(name, 5, ops, str(tmp_path)))
    b = _counted(_traced(name, 5, ops, str(tmp_path)))
    c = _counted(_traced(name, 6, ops, str(tmp_path)))
    assert a == b
    assert a != c


def test_sliced_strata_cover_coarse_strata_per_round_and_fine_strata_overall():
    import numpy as np
    rounds, size = 8, 6
    u = workloads.sliced_strata(np.random.default_rng(3), rounds, size, 2)
    for col in u.T:
        assert sorted((col * rounds * size).astype(int)) == list(range(rounds * size))
        for r in range(rounds):
            block = col[r * size:(r + 1) * size]
            assert sorted((block * size).astype(int)) == list(range(size))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    first = cls(7, str(tmp_path)).digest()
    assert cls(7, str(tmp_path)).digest() == first
    assert cls(8, str(tmp_path)).digest() != first


def test_checks_reject_wrong_output(tmp_path):
    wl = workloads.DslSweep(workloads.REFERENCE_SEED, str(tmp_path))
    wl.prepare(1)
    code = wl.run(1)
    wl.check(1, code)
    path = os.path.join(wl.out_dir, "rate_region.csv")
    with open(path) as fh:
        lines = fh.readlines()
    cells = lines[2].rstrip("\n").split(",")
    cells[3] = repr(float(cells[3]) * (1 + 1e-8))
    lines[2] = ",".join(cells) + "\n"
    with open(path, "w") as fh:
        fh.writelines(lines)
    with pytest.raises(workloads.CheckError, match="config 1"):
        wl.check(1, code)
    with pytest.raises(workloads.CheckError):
        wl.check(1, 3)

    study = workloads.TwoUserStudy(1, str(tmp_path))
    study.prepare(0)
    map_code, report, curve, sweep_code = study.run(0)
    study.check(0, (map_code, report, curve, sweep_code))
    with open(study.map_path) as fh:
        text = fh.read()
    with open(study.map_path, "w") as fh:
        fh.write(text.replace(",C,", ",B,", 1).replace(",A,", ",B,", 1))
    with pytest.raises(workloads.CheckError, match="region"):
        study.check(0, (map_code, report, curve, sweep_code))


def test_metric_names_match_benchmark_json():
    import json
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run._units(1)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "dsl_sweep", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
