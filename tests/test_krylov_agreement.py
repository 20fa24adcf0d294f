"""The Krylov solves of both couplings, on the hierarchy of the CLI
levels, against SuperLU in its own fill-reducing orders."""

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

import _oracles
from dpgbem import bem, cli, dpg_assembly, jn_reference, solver, spaces
from dpgbem import refine_uniform
from dpgbem.mesh import boundary_loop


@pytest.fixture(scope="module", params=["square", "lshape"])
def level3(request):
    """CLI level 3 of a domain, its data and the solved level 2 of each
    coupling."""
    data, _ = cli.manufacture_data(request.param)
    mesh = cli.initial_mesh(request.param)
    dpg = jn = None
    for _ in range(3):
        mats = _oracles.mesh_bem(mesh)
        dpg = solver.solve_dpg(mesh, data, mats, dpg)[0].level
        system = jn_reference.assemble_jn(mesh, data, mats, jn)
        jn = spaces.Level(mesh, system.matrix,
                          jn_reference.solve_jn(system)[0])
        mesh = refine_uniform(mesh)
    return mesh, data, dpg, jn


def test_dpg_solve_matches_mmd_order(level3):
    mesh, data, coarse, _ = level3
    mats = bem.assemble_bem(boundary_loop(mesh))
    blocks = dpg_assembly.assemble_operator_blocks(mesh, mats, data)
    S, c, recover = dpg_assembly.build_normal_equations(blocks, None)
    A = scipy.sparse.csc_matrix(S.toarray())
    lu = scipy.sparse.linalg.splu(
        A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True))
    y = lu.solve(c)
    want = recover(y + lu.solve(c - A @ y))
    got = solver.solve_dpg(mesh, data, _oracles.mesh_bem(mesh), coarse)[0].x
    assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


def test_jn_solve_matches_colamd_order(level3):
    mesh, data, _, coarse = level3
    system = _oracles.jn_full_system(mesh, data)
    want = scipy.sparse.linalg.splu(system.matrix.tocsc()).solve(system.rhs)
    got = np.concatenate(jn_reference.solve_jn(jn_reference.assemble_jn(
        mesh, data, _oracles.mesh_bem(mesh), coarse)))
    assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()
