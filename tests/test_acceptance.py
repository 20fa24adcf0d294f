"""Acceptance suite: one test per criterion, each printing a PASS line
(run with -s or -v to see them).  Criteria run at their stated tolerances
on the built-in experiments."""

import numpy as np
import pytest
from scipy.integrate import nquad

import _oracles
from dpgbem import (boundary_loop, make_lshape_mesh, make_square_mesh,
                    refine_uniform)
from dpgbem import bem, cli, dpg_assembly, solver, spaces


def report(num, name):
    print("ACCEPTANCE {} ({}): PASS".format(num, name))


@pytest.fixture(scope="module")
def square_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acc") / "square.csv"
    cfg = cli.ExperimentConfig(domain="square", levels=5, solver="both",
                               output_path=str(out))
    return cli.run_convergence(cfg), out


@pytest.fixture(scope="module")
def lshape_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acc") / "lshape.csv"
    cfg = cli.ExperimentConfig(domain="lshape", levels=5, solver="dpg",
                               output_path=str(out))
    return cli.run_convergence(cfg), out


def test_criterion_1_smooth_convergence(square_run):
    records, _ = square_run
    assert len(records) == 5
    last = records[-1]
    assert 0.85 <= last.rate_energy <= 1.15
    assert 0.85 <= last.rate_u <= 1.15
    assert 0.85 <= last.rate_sigma <= 1.15
    report(1, "smooth experiment decays like 1/N")


def test_criterion_2_nonsmooth_convergence(lshape_run):
    records, _ = lshape_run
    last = records[-1]
    assert 0.55 <= last.rate_energy <= 0.78
    assert 0.55 <= last.rate_sigma <= 0.78
    assert 0.85 <= last.rate_u <= 1.15  # improved order for the field u
    report(2, "non-smooth experiment: 2/3 rates, improved order for u")


def test_criterion_3_boundary_cauchy_data(square_run, lshape_run):
    for records, _ in (square_run, lshape_run):
        traces = [r.err_trace_l2 for r in records]
        fluxes = [r.err_flux_l2 for r in records]
        assert len(records) >= 4
        assert all(a > b for a, b in zip(traces[:-1], traces[1:]))
        assert all(a > b for a, b in zip(fluxes[:-1], fluxes[1:]))
        probes = np.array([np.abs(r.probe_values) for r in records])
        assert probes.shape[1] == 4
        assert np.all(probes[:-1] > probes[1:])
    report(3, "exterior Cauchy data and probe values vanish monotonically")


def test_criterion_4_oracle_equivalence(square_run):
    records, _ = square_run
    agree = [r.agree_trace_l2 for r in records]
    for r in records:
        assert r.agree_trace_l2 <= 2.0 * (r.err_trace_l2 + r.jn_err_trace_l2)
    assert all(a > b for a, b in zip(agree[:-1], agree[1:]))
    report(4, "coupled and classical solvers agree on the boundary")


def test_criterion_5_bem_unit_suite():
    # coincident single-layer entry: adaptive-quadrature oracle first,
    # then the closed form, then the implementation
    h = 0.05
    oracle, _ = nquad(lambda t, s: -np.log(abs(s - t)) / (2 * np.pi),
                      [[0, h], [0, h]],
                      opts=[lambda s: {"points": [s], "limit": 400,
                                       "epsabs": 1e-15, "epsrel": 1e-13},
                            {"limit": 400, "epsabs": 1e-15, "epsrel": 1e-13}])
    formula = (h ** 2 / (2 * np.pi)) * (1.5 - np.log(h))
    assert formula == pytest.approx(oracle, rel=1e-10)
    p = _oracles.BoundaryPanel.from_endpoints((0.0, 0.0), (h, 0.0))
    assert _oracles.slp_panel_integral(p, p, 0, 0)[0, 0] == pytest.approx(
        formula, rel=1e-10)

    # collinear double-layer blocks exactly zero
    q = _oracles.BoundaryPanel.from_endpoints((2 * h, 0.0), (3 * h, 0.0))
    assert np.all(_oracles.dlp_panel_integral(p, q, 1, 1) == 0.0)
    assert np.all(_oracles.dlp_panel_integral(p, p, 1, 1) == 0.0)

    # G_psi symmetric to 1e-13 and SPD on every mesh of both domains
    meshes = [make_square_mesh(0.1, 4), refine_uniform(make_square_mesh(0.1, 4)),
              make_lshape_mesh(0.25, 2), refine_uniform(make_lshape_mesh(0.25, 2))]
    for mesh in meshes:
        mats = bem.assemble_bem(boundary_loop(mesh))
        assert np.abs(mats.G_psi - mats.G_psi.T).max() < 1e-13
        assert np.linalg.eigvalsh(0.5 * (mats.G_psi + mats.G_psi.T)).min() > 0.0

    # dipole representation-formula residual decays by >= 1.8 per level
    from test_bem import dipole, dipole_residual_norm
    value, gradient = dipole((0.02, -0.01), (0.6, 0.8))
    mesh = make_square_mesh(0.1, 2)
    norms = []
    for _ in range(4):
        norms.append(dipole_residual_norm(boundary_loop(mesh), value, gradient))
        mesh = refine_uniform(mesh)
    ratios = np.array(norms[:-1]) / np.array(norms[1:])
    assert np.all(ratios >= 1.8)
    report(5, "bem unit suite")


def test_criterion_6_dpg_algebra_suite():
    data, exact = cli.manufacture_data("square")
    meshes = [make_square_mesh(0.1, 2), make_square_mesh(0.1, 4),
              make_lshape_mesh(0.25, 2)]
    exacts = [cli.manufacture_data("square")[1]] * 2 + \
             [cli.manufacture_data("lshape")[1]]
    datas = [data, data, cli.manufacture_data("lshape")[0]]
    for mesh, data_i, exact_i in zip(meshes, datas, exacts):
        trial = _oracles.TrialDofLayout.from_mesh(mesh)
        mats = bem.assemble_bem(boundary_loop(mesh))
        blocks = dpg_assembly.assemble_operator_blocks(mesh, mats, data_i)
        A, b = _oracles.normal_equations(blocks)
        Ad = A.toarray()
        assert np.abs(Ad - Ad.T).max() <= 1e-12 * np.abs(Ad).max()
        assert np.linalg.eigvalsh(0.5 * (Ad + Ad.T)).min() > 0.0
        x = solver.solve_spd(_oracles.level_operator(A), b)
        assert np.linalg.norm(b - A @ x) <= 1e-10 * np.linalg.norm(b)
        sol = solver.Solution(mesh=mesh, data=data_i, loop=mats.loop, x=x,
                               level=None)
        u, grad = _oracles.exact_parts(exact_i)
        c = _oracles.interpolate_trial(u, grad, grad, mesh, trial)
        assert (solver.energy_error(blocks, sol.x)
                <= solver.energy_error(blocks, c))

    # constant-data consistency solved exactly
    cdata = dpg_assembly.ProblemData(
        f=lambda x, y: np.zeros_like(x),
        u0=lambda x, y: np.ones_like(x),
        phi0=lambda x, y, nx, ny: np.zeros_like(x + nx),
        singular_vertex=None)
    cmesh = make_square_mesh(0.1, 2)
    sol, _ = solver.solve_dpg(cmesh, cdata, _oracles.mesh_bem(cmesh), None)
    trial = _oracles.TrialDofLayout.from_mesh(cmesh)
    ones = np.concatenate([np.zeros(2 * trial.n_tri), np.ones(trial.n_tri),
                           np.ones(trial.n_vert), np.zeros(trial.n_edge)])
    assert np.abs(sol.x - ones).max() < 1e-9
    report(6, "dpg algebra suite")


def test_criterion_7_determinism(tmp_path):
    outs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        cfg = cli.ExperimentConfig(domain="square", levels=3, solver="both",
                                   output_path=str(out))
        cli.run_convergence(cfg)
        outs.append(out)
    assert outs[0].read_bytes() == outs[1].read_bytes()
    a = outs[0].with_name("one_agreement.csv")
    b = outs[1].with_name("two_agreement.csv")
    assert a.read_bytes() == b.read_bytes()
    report(7, "byte-identical CSV for identical configuration")
