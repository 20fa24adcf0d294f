"""Tests of the benchmark itself: metric names and units, the correctness
gate's tolerance, the coverage guard and the smoke mode.

Run from the repository root: python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from dpgbem import bem, cli, dpg_assembly, solver  # noqa: E402


def bench_run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py")]
                          + list(args), cwd=cwd, capture_output=True,
                          text=True, timeout=170)
    return proc


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.BENCHMARKED)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        spans.per_layer_metric_units()


def test_smoke_end_to_end_metrics():
    proc = bench_run("--workload", "square-both-5", "--smoke",
                     "--seconds", "1", "--seed", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_SETUP_SAMPLES
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for key in ["failure_rate"] + list(run.RAW_UNITS):
        assert key in proc.stdout


def test_smoke_traced_every_workload():
    proc = bench_run("--workload", "all", "--smoke", "--seconds", "1",
                     "--seed", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = last_json(proc)["metrics"]
    units = spans.per_layer_metric_units()
    assert set(metrics) == {"{}.{}".format(w, k) for w in run.BENCHMARKED
                            for k in units}
    for w in run.BENCHMARKED:
        for k, unit in units.items():
            assert metrics["{}.{}".format(w, k)]["unit"] == unit
    # The classical coupling reaches no DPG stage, and the DPG-only
    # workload reaches no stage of the coupling.
    for name in spans.DPG_SPANS:
        key = name + (".self_s" if name in spans.SELF_TIMED else ".s")
        assert metrics["lshape-jn-6." + key]["value"] == 0
        assert metrics["square-dpg-5." + key]["value"] > 0
    for name in spans.JN_SPANS:
        assert metrics["square-dpg-5." + name + ".s"]["value"] == 0
        assert metrics["lshape-jn-6." + name + ".s"]["value"] > 0
    assert metrics["square-dpg-5.bem.assemble_bem.calls"]["value"] == 2
    assert metrics["square-dpg-5.solver.solve_spd.rel_residual"]["value"] \
        < 1e-10


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "square-dpg-5",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def run_smoke_study(tmp_path, solver_name):
    out = tmp_path / "study.csv"
    cfg = cli.ExperimentConfig(domain="square", levels=run.SMOKE_LEVELS,
                               solver=solver_name, output_path=str(out))
    cli.run_convergence(cfg)
    stem = "square-{}-{}".format(solver_name, run.SMOKE_LEVELS)
    return gate.check_study(str(out), stem, run.SQUARE_RATES), out, stem


def test_gate_passes_at_solve_residual_level(tmp_path, monkeypatch):
    exact_solve = solver.solve_spd
    rng = np.random.default_rng(1)

    def perturbed_solve(A, b):
        e = rng.standard_normal(b.shape)
        e *= 1e-10 * np.linalg.norm(b) / np.linalg.norm(e)
        return exact_solve(A, b + e)

    monkeypatch.setattr(solver, "solve_spd", perturbed_solve)
    problems, out, stem = run_smoke_study(tmp_path, "both")
    assert problems == []
    with open(os.path.join(gate.REFERENCE_DIR, stem + ".csv")) as fh:
        assert out.read_text() != fh.read()


def test_gate_fails_wrong_dpg_assembly(tmp_path, monkeypatch):
    exact_load = dpg_assembly.assemble_load

    def wrong_load(*args, **kwargs):
        ell = exact_load(*args, **kwargs).copy()
        ell[0] *= 1.01
        return ell

    monkeypatch.setattr(dpg_assembly, "assemble_load", wrong_load)
    problems, _, _ = run_smoke_study(tmp_path, "dpg")
    assert problems


def test_gate_fails_wrong_bem_assembly(tmp_path, monkeypatch):
    exact_bem = bem.assemble_bem

    def wrong_bem(*args, **kwargs):
        mats = exact_bem(*args, **kwargs)
        mats.V_ps = mats.V_ps * (1.0 + 1e-3)
        return mats

    monkeypatch.setattr(bem, "assemble_bem", wrong_bem)
    problems, _, _ = run_smoke_study(tmp_path, "both")
    assert problems


def test_gate_rate_windows():
    ref = os.path.join(gate.REFERENCE_DIR, "lshape-jn-6.csv")
    assert gate.check_rates(ref, run.LSHAPE_SIGMA_RATE) == []
    assert gate.check_rates(ref, {"rate_sigma": (0.70, 0.78)})


def test_coverage_guard():
    fired = spans.expected_spans("both")
    assert spans.trace_problems("both", fired, 0.99) == []
    assert spans.trace_problems("both", fired, 0.90)
    missing = [n for n in fired if n != "solver.solve_spd"]
    assert spans.trace_problems("dpg", missing, 0.99) == [
        "span solver.solve_spd never fired"]
