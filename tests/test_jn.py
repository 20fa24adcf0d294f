import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg

import _oracles
from dpgbem import boundary_loop, make_square_mesh, refine_uniform
from dpgbem import bem, cli, jn_reference as jn, solver, spaces
from dpgbem.dpg_assembly import ProblemData
from dpgbem.errors import NumericalError


def zero_data():
    return ProblemData(
        f=lambda x, y: np.zeros_like(x),
        u0=lambda x, y: np.zeros_like(x),
        phi0=lambda x, y, nx, ny: np.zeros_like(x + nx),
        singular_vertex=None)


def test_system_size_coarsest_square():
    mesh = make_square_mesh(0.1, 1)
    system = _oracles.jn_full_system(mesh, zero_data(), stabilized=False)
    assert system.matrix.shape == (8, 8)  # 4 vertices + 4 boundary panels


def test_zero_data_zero_rhs():
    mesh = make_square_mesh(0.1, 2)
    system = jn.assemble_jn(mesh, zero_data(), _oracles.mesh_bem(mesh), None)
    assert np.allclose(system.rhs, 0.0)


def test_stabilization_is_rank_one_from_column_sums():
    mesh = make_square_mesh(0.1, 2)
    mats = bem.assemble_bem(boundary_loop(mesh))
    data = zero_data()
    s0 = _oracles.jn_full_system(mesh, data, stabilized=False, bem_mats=mats)
    s1 = _oracles.jn_full_system(mesh, data, stabilized=True, bem_mats=mats)
    diff = (s1.matrix - s0.matrix).toarray()
    # reconstruct the functional vector entrywise from column sums
    loop = mats.loop
    nv = mesh.num_vertices
    g = np.zeros(nv + loop.num_panels)
    np.add.at(g[:nv], loop.vertex_ids,
              bem.p0_test_rows(mats.H).sum(axis=0))
    g[nv:] = bem.p0_test_rows(mats.V_ps).sum(axis=0)
    assert np.allclose(diff, np.outer(g, g), atol=1e-14)


def test_stabilization_assembled_without_dense_outer_product():
    # the rank-one term lives on the boundary vertices and panels only; a
    # dense (V+P)^2 temporary would dominate the assembly's peak memory
    data, _ = cli.manufacture_data("lshape")
    mesh = cli.initial_mesh("lshape")
    for _ in range(4):
        mesh = refine_uniform(mesh)
    mats = bem.assemble_bem(boundary_loop(mesh))
    n = mesh.num_vertices + mats.loop.num_panels
    tracemalloc.start()
    try:
        jn.assemble_jn(mesh, data, mats, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * n * n * 8


def test_constant_solution():
    c = 3.0
    data = ProblemData(
        f=lambda x, y: np.zeros_like(x),
        u0=lambda x, y: c * np.ones_like(x),
        phi0=lambda x, y, nx, ny: np.zeros_like(x + nx),
        singular_vertex=None)
    mesh = make_square_mesh(0.1, 2)
    u_n, phi = jn.solve_jn(jn.assemble_jn(mesh, data,
                                          _oracles.mesh_bem(mesh), None))
    assert np.abs(u_n - c).max() < 1e-10
    assert np.abs(phi).max() < 1e-10


def superlu_refined(system):
    # SuperLU with its own ordering and pivoting; the plain solve is off
    # by up to 7e-9 of max |x| at CLI level 4 (unstabilized), so two
    # steps of iterative refinement follow
    A = system.matrix.tocsc()
    lu = scipy.sparse.linalg.splu(A)
    x = lu.solve(system.rhs)
    for _ in range(2):
        x += lu.solve(system.rhs - A @ x)
    return x


def test_stabilized_matches_unstabilized():
    # the stabilization leaves the solution unchanged: the package's
    # (stabilized) solve against the plain full system of the oracle
    data, exact = cli.manufacture_data("square")
    mesh = make_square_mesh(0.1, 4)
    mats = bem.assemble_bem(boundary_loop(mesh))
    u1, p1 = jn.solve_jn(jn.assemble_jn(mesh, data, mats, None))
    plain = _oracles.jn_full_system(mesh, data, stabilized=False,
                                    bem_mats=mats)
    x0 = superlu_refined(plain)
    u0, p0 = x0[:plain.n_vert], x0[plain.n_vert:]
    assert np.abs(u1 - u0).max() < 1e-9
    assert np.abs(p1 - p0).max() < 1e-9


def test_smooth_convergence_rate_h1():
    data, exact = cli.manufacture_data("square")
    mesh = make_square_mesh(0.1, 4)
    errs = []
    for _ in range(3):
        u_n, _ = jn.solve_jn(jn.assemble_jn(mesh, data,
                                            _oracles.mesh_bem(mesh), None))
        errs.append(jn.jn_errors(mesh, u_n, exact, None)[1])
        mesh = refine_uniform(mesh)
    rates = np.log(np.array(errs[:-1]) / np.array(errs[1:])) / np.log(2.0)
    assert np.all(rates > 0.8) and np.all(rates < 1.2)


def test_cross_method_agreement_decreases():
    data, exact = cli.manufacture_data("square")
    mesh = make_square_mesh(0.1, 2)
    diffs, bounds = [], []
    for _ in range(3):
        mats = bem.assemble_bem(boundary_loop(mesh))
        sol, _ = solver.solve_dpg(mesh, data, mats, None)
        u_n, phi = jn.solve_jn(jn.assemble_jn(mesh, data, mats, None))
        loop = mats.loop
        d = solver.piecewise_linear_boundary_norm(
            loop, sol.uhat[loop.vertex_ids] - u_n[loop.vertex_ids])
        et_dpg, ef_dpg = solver.boundary_cauchy_errors(sol)
        et_jn, ef_jn = jn.jn_boundary_errors(loop, u_n, phi, data)
        diffs.append(d)
        bounds.append(et_dpg + et_jn)
        # flux agreement: both methods approximate the same exterior flux,
        # so their distance is bounded by the sum of their own errors
        dflux = np.sqrt((loop.lengths * (sol.flux_c - phi) ** 2).sum())
        assert dflux <= 2.0 * (ef_dpg + ef_jn)
        mesh = refine_uniform(mesh)
    assert diffs[0] > diffs[1] > diffs[2]
    assert all(d <= b for d, b in zip(diffs, bounds))


def test_boundary_errors_decrease():
    data, exact = cli.manufacture_data("square")
    mesh = make_square_mesh(0.1, 2)
    traces, fluxes = [], []
    for _ in range(3):
        loop = boundary_loop(mesh)
        u_n, phi = jn.solve_jn(jn.assemble_jn(mesh, data,
                                          _oracles.mesh_bem(mesh), None))
        et, ef = jn.jn_boundary_errors(loop, u_n, phi, data)
        traces.append(et)
        fluxes.append(ef)
        mesh = refine_uniform(mesh)
    assert traces[0] > traces[1] > traces[2]
    assert fluxes[0] > fluxes[1] > fluxes[2]


@pytest.mark.parametrize("level", [0, 1, 2, 3, 4, 5])
def test_coupling_matrix_unchanged_by_geometry_classes(level, monkeypatch):
    # stiffness blocks per geometry class against blocks per element
    mesh = cli.initial_mesh("lshape")
    for _ in range(level):
        mesh = refine_uniform(mesh)
    data, _ = cli.manufacture_data("lshape")
    mats = bem.assemble_bem(boundary_loop(mesh))
    got = jn.assemble_jn(mesh, data, mats, None).matrix
    monkeypatch.setattr(jn, "_p1_stiffness", _oracles.p1_stiffness)
    ref = jn.assemble_jn(mesh, data, mats, None).matrix
    assert np.array_equal(got.sparse.indptr, ref.sparse.indptr)
    assert np.array_equal(got.sparse.indices, ref.sparse.indices)
    assert np.array_equal(got.sparse.data, ref.sparse.data)
    assert np.array_equal(got.dense, ref.dense)


def cli_meshes(domain, levels):
    mesh = cli.initial_mesh(domain)
    for level in range(levels):
        yield level, mesh
        mesh = refine_uniform(mesh)



@pytest.mark.parametrize("domain", ["square", "lshape"])
def test_solve_matches_superlu_on_full_system(domain):
    # phi eliminated by Cholesky of the panel block, against SuperLU on
    # the full (nv + P) system, at CLI levels 0..4, each level solved on
    # the hierarchy of the levels below
    data, _ = cli.manufacture_data(domain)
    coarse = None
    for level, mesh in cli_meshes(domain, 5):
        mats = bem.assemble_bem(boundary_loop(mesh))
        want = superlu_refined(_oracles.jn_full_system(mesh, data, True,
                                                       mats))
        system = jn.assemble_jn(mesh, data, mats, coarse)
        u, phi = jn.solve_jn(system)
        got = np.concatenate([u, phi])
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), level
        coarse = spaces.Level(mesh, system.matrix, u)


def test_indefinite_panel_block_rejected():
    mesh = make_square_mesh(0.1, 2)
    mats = bem.assemble_bem(boundary_loop(mesh))
    mats = dataclasses.replace(mats, V_ps=-mats.V_ps)
    with pytest.raises(NumericalError):
        jn.assemble_jn(mesh, zero_data(), mats, None)


@pytest.mark.parametrize("domain", ["square", "lshape"])
def test_vertex_matrix_has_positive_definite_symmetric_part(domain):
    # restarted GMRES cannot stall on a matrix whose symmetric part is
    # positive definite (Elman, 1982)
    data, _ = cli.manufacture_data(domain)
    for level, mesh in cli_meshes(domain, 4):
        A = jn.assemble_jn(mesh, data,
                           _oracles.mesh_bem(mesh), None).matrix.toarray()
        assert np.linalg.eigvalsh(0.5 * (A + A.T))[0] > 0.0, level


@pytest.mark.parametrize("domain", ["square", "lshape"])
def test_solve_jn_residual(domain):
    # GMRES on the hierarchy of the CLI levels, in natural vertex order
    data, _ = cli.manufacture_data(domain)
    coarse = None
    for level, mesh in cli_meshes(domain, 5):
        system = jn.assemble_jn(mesh, data, _oracles.mesh_bem(mesh), coarse)
        u, phi = jn.solve_jn(system)
        res = np.linalg.norm(system.rhs - system.matrix @ u)
        assert res <= 1e-10 * np.linalg.norm(system.rhs), level
        assert np.array_equal(phi, system.recover(u)[1]), level
        coarse = spaces.Level(mesh, system.matrix, u)


def test_singular_vertex_system_rejected(monkeypatch):
    # without the stiffness, the interior vertices have empty rows
    data, _ = cli.manufacture_data("square")
    mesh = cli.initial_mesh("square")
    monkeypatch.setattr(jn, "_p1_stiffness",
                        lambda mesh: np.zeros((mesh.num_triangles, 3, 3)))
    system = jn.assemble_jn(mesh, data, _oracles.mesh_bem(mesh), None)
    with pytest.raises(NumericalError):
        jn.solve_jn(system)
