import csv
import gc
import math
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import _oracles
import dpgbem
from dpgbem import ConfigError, NumericalError, boundary_loop, make_lshape_mesh
from dpgbem import cli, dpg_assembly


def test_manufactured_square_values():
    data, exact = cli.manufacture_data("square")
    assert data.f(np.array(0.0), np.array(0.0)) == pytest.approx(0.0, abs=1e-15)
    x = np.array(0.05)
    expected = 2 * np.pi ** 2 * np.sin(0.05 * np.pi) ** 2
    assert data.f(x, x) == pytest.approx(expected, rel=1e-14)
    assert data.u0(x, x) == pytest.approx(np.sin(0.05 * np.pi) ** 2, rel=1e-14)


def test_manufactured_lshape_harmonic():
    data, exact = cli.manufacture_data("lshape")
    x = np.array(0.1)
    assert np.all(data.f(x, x) == 0.0)
    # discrete Laplacian of samples near (0.1, 0.1) vanishes
    h = 1e-4
    x0, y0 = 0.1, 0.1
    stencil = (exact.u(np.array(x0 + h), np.array(y0))
               + exact.u(np.array(x0 - h), np.array(y0))
               + exact.u(np.array(x0), np.array(y0 + h))
               + exact.u(np.array(x0), np.array(y0 - h))
               - 4 * exact.u(np.array(x0), np.array(y0))) / h ** 2
    assert abs(stencil) < 1e-5
    # gradient callable is consistent with finite differences
    gx, gy = exact.grad(np.array(x0), np.array(y0))
    fx = (exact.u(np.array(x0 + h), np.array(y0))
          - exact.u(np.array(x0 - h), np.array(y0))) / (2 * h)
    fy = (exact.u(np.array(x0), np.array(y0 + h))
          - exact.u(np.array(x0), np.array(y0 - h))) / (2 * h)
    assert gx == pytest.approx(fx, abs=1e-7)
    assert gy == pytest.approx(fy, abs=1e-7)


def test_lshape_exact_vanishes_on_reentrant_legs():
    _, exact = cli.manufacture_data("lshape")
    xs = np.linspace(0.01, 0.25, 7)
    assert np.abs(exact.u(xs, np.zeros_like(xs))).max() < 1e-15
    assert np.abs(exact.u(np.zeros_like(xs), -xs)).max() < 1e-13


def test_compatibility_integrals():
    data, _ = cli.manufacture_data("square")
    mesh = cli.initial_mesh("square")
    assert abs(_oracles.compatibility_residual(mesh, data)) < 1e-12
    data, _ = cli.manufacture_data("lshape")
    mesh = cli.initial_mesh("lshape")
    assert abs(_oracles.compatibility_residual(mesh, data)) < 1e-9


def test_initial_mesh_sizes():
    assert cli.initial_mesh("square").num_triangles == 32
    assert cli.initial_mesh("lshape").num_triangles == 24


def test_probe_points_at_unit_distance():
    for domain in ("square", "lshape"):
        loop = boundary_loop(cli.initial_mesh(domain))
        d = _oracles.distance_to_boundary(loop, cli.probe_points(domain))
        assert np.allclose(d, 1.0, atol=1e-12)


def test_config_validation():
    with pytest.raises(ConfigError):
        cli.ExperimentConfig("disc", 5, "dpg", None).validate()
    with pytest.raises(ConfigError):
        cli.ExperimentConfig("square", 1, "dpg", None).validate()
    with pytest.raises(ConfigError):
        cli.ExperimentConfig("square", 10, "dpg", None).validate()
    with pytest.raises(ConfigError):
        cli.ExperimentConfig("square", 5, "fem", None).validate()
    cli.ExperimentConfig("square", 5, "dpg", None).validate()
    cli.ExperimentConfig("square", np.int64(3), "dpg", None).validate()


@pytest.mark.parametrize("levels", [3.0, "3", True, np.float64(3.0)])
def test_config_rejects_non_integer_levels(levels):
    # run_convergence passes levels to range(), which takes integers only
    with pytest.raises(ConfigError):
        cli.ExperimentConfig("square", levels, "dpg", None).validate()


# columns of a coupling that did not run
NAN_COLUMNS = {"dpg": ("agree_trace_l2", "agree_flux_l2", "jn_err_trace_l2"),
               "jn": ("err_energy_sq", "agree_trace_l2", "agree_flux_l2"),
               "both": ()}


def test_run_convergence_records_and_csv(tmp_path):
    for solver_name in ("dpg", "jn", "both"):
        out = tmp_path / "{}.csv".format(solver_name)
        cfg = cli.ExperimentConfig(domain="square", levels=2,
                                   solver=solver_name, output_path=str(out))
        records = cli.run_convergence(cfg)
        assert len(records) == 2
        assert records[1].N == 4 * records[0].N
        assert math.isnan(records[0].rate_u)
        assert records[1].rate_u > 0.0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(cli.COLUMNS)
        assert len(lines) == 3
        agreement = tmp_path / "{}_agreement.csv".format(solver_name)
        assert agreement.exists() == (solver_name == "both")
        for rec in records:
            values = {c: getattr(rec, c)
                      for c in cli.COLUMNS + cli.AGREEMENT_COLUMNS}
            for c in NAN_COLUMNS[solver_name]:
                assert math.isnan(values[c]), (solver_name, c)
            for c in set(values) - set(NAN_COLUMNS[solver_name]) - {
                    "rate_energy", "rate_u", "rate_sigma"}:
                assert math.isfinite(values[c]), (solver_name, c)
            assert rec.dpg_err_trace_l2 == rec.err_trace_l2
    assert math.isnan(records[0].rate_energy)
    assert records[1].rate_energy == pytest.approx(1.0, abs=0.2)
    assert records[0].dim_trial < records[0].dim_test
    agree = agreement.read_text().splitlines()
    assert agree[0] == ",".join(cli.AGREEMENT_COLUMNS)
    assert len(agree) == 3


def test_jn_only_records():
    for domain in ("square", "lshape"):
        cfg = cli.ExperimentConfig(domain=domain, levels=2, solver="jn",
                                   output_path=None)
        records = cli.run_convergence(cfg)
        for rec in records:
            for c in NAN_COLUMNS["jn"] + ("rate_energy",):
                assert math.isnan(getattr(rec, c)), (domain, c)
            assert rec.jn_err_trace_l2 == rec.err_trace_l2
            assert rec.dim_trial == rec.dim_test
        assert records[0].err_u_l2_sq > records[1].err_u_l2_sq


def test_determinism_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        cfg = cli.ExperimentConfig(domain="lshape", levels=2, solver="dpg",
                                   output_path=str(out))
        cli.run_convergence(cfg)
    assert out1.read_bytes() == out2.read_bytes()


def test_main_exit_codes(tmp_path, monkeypatch, capsys):
    out = tmp_path / "r.csv"
    code = cli.main(["--domain", "square", "--levels", "2", "--solver", "jn",
                     "--out", str(out)])
    assert code == 0
    assert out.exists()

    with pytest.raises(SystemExit) as exc:
        cli.main(["--domain", "disc"])
    assert exc.value.code == 2

    code = cli.main(["--domain", "square", "--levels", "1"])
    assert code == 2

    # the boundary quadrature order and the stabilization are fixed
    for extra in (["--quad-order", "4"], ["--no-stabilize"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--domain", "square", "--levels", "2"] + extra)
        assert exc.value.code == 2

    def boom(*args, **kwargs):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(cli.solver, "solve_dpg", boom)
    code = cli.main(["--domain", "square", "--levels", "2"])
    assert code == 3
    capsys.readouterr()

    # a stage that runs out of memory ends in one line, not a traceback
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli.solver, "solve_dpg", exhausted)
    code = cli.main(["--domain", "square", "--levels", "2"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == "out of memory: try fewer --levels"


def test_main_rejects_bad_out_before_first_level(tmp_path, monkeypatch,
                                                  capsys):
    def boom(*args, **kwargs):
        raise AssertionError("a study started")

    monkeypatch.setattr(cli.bem_mod, "assemble_bem", boom)
    # the agreement file of --solver both, x_agreement.csv, is a directory
    (tmp_path / "x_agreement.csv").mkdir()
    for out, solver_name in ((tmp_path / "missing" / "r.csv", "dpg"),
                             (tmp_path, "dpg"),
                             (tmp_path / "x.csv", "both")):
        code = cli.main(["--domain", "square", "--levels", "3",
                         "--solver", solver_name, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error")
        assert "done:" not in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [tmp_path / "x_agreement.csv"]
    assert list((tmp_path / "x_agreement.csv").iterdir()) == []
    cli.ExperimentConfig("square", 5, "dpg",
                         str(tmp_path / "x.csv")).validate()
    cli.ExperimentConfig("square", 5, "both",
                         str(tmp_path / "r.csv")).validate()
    assert list(tmp_path.iterdir()) == [tmp_path / "x_agreement.csv"]


def test_main_rejects_unwritable_existing_out(tmp_path, monkeypatch,
                                              capsys):
    # an existing main or agreement file that may not be written fails
    # before the first level; os.access is patched, as root may write
    # any file whatever its mode
    def boom(*args, **kwargs):
        raise AssertionError("a study started")

    monkeypatch.setattr(cli.bem_mod, "assemble_bem", boom)
    for name in ("r.csv", "r_agreement.csv"):
        (tmp_path / name).write_text("kept\n")
    real_access = os.access
    for locked in ("r.csv", "r_agreement.csv"):
        def access(path, mode, locked=str(tmp_path / locked)):
            return path != locked and real_access(path, mode)

        monkeypatch.setattr(cli.os, "access", access)
        code = cli.main(["--domain", "square", "--levels", "3",
                         "--solver", "both", "--out", str(tmp_path / "r.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and locked in err
        assert "Traceback" not in err
    for name in ("r.csv", "r_agreement.csv"):
        assert (tmp_path / name).read_text() == "kept\n"
    # a new file in a writable directory, or a writable one, still passes
    monkeypatch.setattr(cli.os, "access", real_access)
    cli.ExperimentConfig("square", 5, "both",
                         str(tmp_path / "r.csv")).validate()
    cli.ExperimentConfig("square", 5, "both",
                         str(tmp_path / "new.csv")).validate()


def test_main_writes_stdout_when_no_out(capsys):
    for solver_name in ("jn", "both"):
        code = cli.main(["--domain", "square", "--levels", "2",
                         "--solver", solver_name])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        # only the main CSV: the agreement file needs --out
        assert lines[0] == ",".join(cli.COLUMNS)
        assert len(lines) == 3
        assert ",".join(cli.AGREEMENT_COLUMNS) not in lines


GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "data")
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(dpgbem.__file__)))
INT_COLUMNS = ("level", "N", "dim_trial", "dim_test")
# Integer columns are exact.  Floats may move with the BLAS thread count,
# which changes the summation order: one thread against the default moved
# them by up to 3.2e-10 relative (agree_flux_l2).  1e-8 stays well below
# the 3e-8 that a solve perturbation at the 1e-10 residual level gives.
GOLDEN_RTOL = 1e-8


def read_columns(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def assert_matches_golden(out_dir, domain):
    for suffix in ("", "_agreement"):
        name = "{}_both_4{}.csv".format(domain, suffix)
        header, rows = read_columns(os.path.join(out_dir, name))
        want_header, want_rows = read_columns(os.path.join(GOLDEN_DIR, name))
        assert header == want_header
        assert len(rows) == len(want_rows)
        for row, want in zip(rows, want_rows):
            for col, got, ref in zip(header, row, want):
                if col in INT_COLUMNS:
                    assert got == ref, (name, col)
                elif math.isnan(float(ref)):
                    assert math.isnan(float(got)), (name, col)
                else:
                    assert math.isclose(float(got), float(ref),
                                        rel_tol=GOLDEN_RTOL, abs_tol=0.0), \
                        (name, col, got, ref)


@pytest.mark.parametrize("domain", ["square", "lshape"])
def test_csv_matches_golden_files(domain, tmp_path):
    # tests/data holds the CLI output of --solver both --levels 4 as written
    # before the element-geometry / quadrature / error-integrator refactor.
    out = tmp_path / "{}_both_4.csv".format(domain)
    assert cli.main(["--domain", domain, "--solver", "both", "--levels", "4",
                     "--out", str(out)]) == 0
    assert_matches_golden(tmp_path, domain)


@pytest.mark.parametrize("domain", ["square", "lshape"])
def test_csv_matches_golden_files_with_one_blas_thread(domain, tmp_path):
    # the summation order of BLAS depends on its thread count; one thread
    # must land within the same tolerance as the default
    path = [SRC_DIR] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(p for p in path if p))
    out = tmp_path / "{}_both_4.csv".format(domain)
    subprocess.run([sys.executable, "-m", "dpgbem.cli", "--domain", domain,
                    "--solver", "both", "--levels", "4", "--out", str(out)],
                   env=env, check=True)
    assert_matches_golden(tmp_path, domain)


def test_each_level_drops_the_previous_levels_assembly(monkeypatch):
    # only each coupling's solved spaces.Level passes from one level to
    # the next: when a level's BEM assembly starts, the BemMatrices and
    # OperatorBlocks of the levels before it are gone
    refs, alive = [], []

    def recorded(fn, check):
        def wrapper(*args):
            if check:
                gc.collect()
                alive.append([type(r()).__name__ for r in refs
                              if r() is not None])
            out = fn(*args)
            refs.append(weakref.ref(out))
            return out
        return wrapper

    monkeypatch.setattr(cli.bem_mod, "assemble_bem",
                        recorded(cli.bem_mod.assemble_bem, True))
    monkeypatch.setattr(dpg_assembly, "assemble_operator_blocks", recorded(
        dpg_assembly.assemble_operator_blocks, False))
    cli.run_convergence(cli.ExperimentConfig("square", 4, "both", None))
    assert len(refs) == 8
    assert alive == [[]] * 4


def study_peak(levels):
    """The tracemalloc peak of a square --solver both study, in bytes."""
    config = cli.ExperimentConfig("square", levels, "both", None)
    gc.collect()
    tracemalloc.start()
    try:
        cli.run_convergence(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_study_peak_memory_linear_in_elements():
    """The tracemalloc peaks of square --solver both studies at CLI
    --levels 5 and 6 (finest N = 8192 and 32768).  They count bytes, so
    they are the same on any host and with any BLAS thread count.

    Linear growth makes the ratio of the two peaks about 4; it may be
    20% off (measured 3.60).  The peak per finest element at --levels 6
    is a ratchet.  It was 3960 B (peaks 31.9 and 123.7 MiB) while
    BlockOperator kept per-element columns and signs and each level's
    assembly lived through the next level; it was 3528 B (30.7 and
    110.2 MiB) without them, with a bound of 3600 B.  It is 3423 B
    (107.0 MiB) since the load keeps no H(div) zeros and the geometry
    classes are keyed on the side vectors, bound 3500 B.  A change that
    lowers it lowers the bound, and none raises it."""
    small, large = study_peak(5), study_peak(6)
    assert 0.8 * 4 <= large / small <= 1.2 * 4
    n = cli.initial_mesh("square").num_triangles * 4 ** 5
    assert large / n <= 3500


def test_stage_peaks_reports_every_stage(monkeypatch):
    # tests/stage_peaks.py prints a line for every stage that a
    # --solver both study fires
    here = os.path.dirname(os.path.abspath(__file__))
    monkeypatch.syspath_prepend(os.path.join(here, os.pardir, "perfbench"))
    import spans
    out = subprocess.run([sys.executable, os.path.join(here, "stage_peaks.py"),
                          "square", "3", "both"],
                         capture_output=True, text=True, check=True).stdout
    reported = {line.split()[0] for line in out.splitlines()[1:]}
    assert set(spans.expected_spans("both")) <= reported
