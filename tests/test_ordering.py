"""Nested-dissection order of the two direct solves."""

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

import _oracles
from dpgbem import bem, cli, dpg_assembly, jn_reference, solver, spaces
from dpgbem import refine_uniform
from dpgbem.mesh import boundary_loop
from dpgbem.spaces import ND_LEAF_SIZE, nested_dissection


def pairs(A):
    """The stored entries of a matrix, explicit zeros included, as
    2-cliques."""
    A = scipy.sparse.coo_matrix(A)
    return np.column_stack([A.row, A.col])


def natural(A, order):
    """A matrix whose row and column i are those of dof order[i], in
    natural dof order."""
    at = np.argsort(order)
    return scipy.sparse.csr_matrix(A)[at][:, at]


def cli_level_mesh(domain, level):
    mesh = cli.initial_mesh(domain)
    for _ in range(level):
        mesh = refine_uniform(mesh)
    return mesh


def skeleton_system(mesh, data):
    """The condensed DPG system in the order solve_dpg solves it, the
    coordinates of its dofs, its boundary dofs and that order."""
    mats = bem.assemble_bem(boundary_loop(mesh))
    blocks = dpg_assembly.assemble_operator_blocks(mesh, mats, data)
    xy = np.concatenate([mesh.vertices, mesh.edge_midpoints()])
    S, c, recover = dpg_assembly.build_normal_equations(
        blocks.B, blocks.G, blocks.ell, xy)
    nf = 3 * mesh.num_triangles
    last = blocks.B.gamma_cols - nf
    order = nested_dissection(blocks.B.cols[:, 3:] - nf, xy, last)
    return S, c, recover, xy, last, order


def jn_system(mesh, data):
    """The full (nv + P) coupling system, the coordinates of its dofs and
    its boundary dofs."""
    system = _oracles.jn_full_system(mesh, data)
    loop, nv = system.loop, system.n_vert
    xy = np.concatenate([mesh.vertices, (loop.points_a + loop.points_b) / 2])
    last = np.concatenate([loop.vertex_ids, nv + np.arange(loop.num_panels)])
    return system, xy, last


@pytest.fixture(scope="module", params=["square", "lshape"])
def level3(request):
    mesh = cli_level_mesh(request.param, 3)
    data, _ = cli.manufacture_data(request.param)
    return mesh, data


def orders(mesh, data):
    S, _, _, xy, last, order = skeleton_system(mesh, data)
    system, jxy, jlast = jn_system(mesh, data)
    return [(natural(S, order), xy, last), (system.matrix, jxy, jlast)]


def test_order_is_bijection_with_last_dofs_at_end(level3):
    for A, xy, last in orders(*level3):
        perm = nested_dissection(pairs(A), xy, last)
        n = A.shape[0]
        assert np.array_equal(np.sort(perm), np.arange(n))
        assert np.array_equal(perm[n - last.size:], last)


def top_split(A, xy, last):
    """The top-level bisection by the documented rule: the longer axis,
    the median with its whole coordinate line on the left, and the left
    dofs with a right neighbour as separator."""
    rest = np.ones(A.shape[0], dtype=bool)
    rest[last] = False
    node = np.flatnonzero(rest)
    span = np.ptp(xy[node], axis=0)
    x = xy[:, int(span[1] > span[0])]
    median = np.sort(x[node])[node.size // 2 - 1]
    left = rest & (x <= median)
    right = rest & (x > median)
    pattern = scipy.sparse.csr_matrix(A, copy=True)
    pattern.data[:] = 1.0
    sep = left & ((pattern + pattern.T) @ right.astype(float) > 0)
    return left & ~sep, right, sep


def test_top_split_separates_the_halves(level3):
    for A, xy, last in orders(*level3):
        perm = nested_dissection(pairs(A), xy, last)
        left, right, sep = top_split(A, xy, last)
        nl, nr, ns = left.sum(), right.sum(), sep.sum()
        n_int = A.shape[0] - last.size
        assert nl + nr + ns == n_int
        assert min(nl, nr) > 0.4 * n_int and ns < 0.05 * n_int
        # ordered [left, right, separator], then the last dofs
        assert np.all(left[perm[:nl]])
        assert np.all(right[perm[nl:nl + nr]])
        assert np.all(sep[perm[nl + nr:n_int]])
        # and no entry of the pattern couples the two halves
        Ap = scipy.sparse.csr_matrix(A)[perm][:, perm]
        assert Ap[:nl, nl:nl + nr].nnz == 0
        assert Ap[nl:nl + nr, :nl].nnz == 0


def test_small_system_is_one_leaf():
    n = ND_LEAF_SIZE
    A = scipy.sparse.diags([np.ones(n - 1), np.ones(n), np.ones(n - 1)],
                           [-1, 0, 1])
    xy = np.stack([np.arange(n, dtype=float), np.zeros(n)], axis=1)
    perm = nested_dissection(pairs(A), xy, [0, n - 1])
    assert np.array_equal(perm, np.r_[np.arange(1, n - 1), 0, n - 1])


def test_dpg_solve_matches_mmd_order(level3):
    mesh, data = level3
    S, c, recover = skeleton_system(mesh, data)[:3]
    lu = scipy.sparse.linalg.splu(
        S.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True))
    y = lu.solve(c)
    want = recover(y + lu.solve(c - S @ y))
    got = solver.solve_dpg(mesh, data, _oracles.mesh_bem(mesh))[0].x
    assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


def test_jn_solve_matches_colamd_order(level3):
    system = _oracles.jn_full_system(*level3)
    want = scipy.sparse.linalg.splu(system.matrix.tocsc()).solve(system.rhs)
    got = np.concatenate(jn_reference.solve_jn(
        jn_reference.assemble_jn(*level3, _oracles.mesh_bem(level3[0]))))
    assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


def test_jn_fill_below_colamd(level3):
    system, xy, last = jn_system(*level3)
    perm = nested_dissection(pairs(system.matrix), xy, last)
    nd = scipy.sparse.linalg.splu(system.matrix[perm][:, perm].tocsc(),
                                  permc_spec="NATURAL")
    colamd = scipy.sparse.linalg.splu(system.matrix.tocsc())
    assert nd.L.nnz < colamd.L.nnz


def test_superlu_factors_the_assembled_matrix(monkeypatch):
    # both systems are assembled in elimination order and in CSC, so
    # SuperLU factors the assembled matrix itself, not a permuted copy
    mesh = cli_level_mesh("lshape", 2)
    data, _ = cli.manufacture_data("lshape")
    mats = _oracles.mesh_bem(mesh)
    splu, build = scipy.sparse.linalg.splu, dpg_assembly.build_normal_equations
    factored, assembled = [], []

    def splu_spy(A, *args, **kwargs):
        factored.append(A)
        return splu(A, *args, **kwargs)

    def build_spy(*args):
        out = build(*args)
        assembled.append(out[0])
        return out

    monkeypatch.setattr(scipy.sparse.linalg, "splu", splu_spy)
    monkeypatch.setattr(dpg_assembly, "build_normal_equations", build_spy)
    solver.solve_dpg(mesh, data, mats)
    system = jn_reference.assemble_jn(mesh, data, mats)
    assembled.append(system.matrix)
    jn_reference.solve_jn(system)
    assert len(factored) == len(assembled) == 2
    assert factored[0] is assembled[0] and factored[1] is assembled[1]


def test_one_ordering_per_coupled_system(monkeypatch):
    # each level orders the DPG skeleton system and the JN vertex system
    # once each; nothing else, such as the boundary P1 projection, orders
    calls = []

    def spy(*args):
        calls.append(args)
        return nested_dissection(*args)

    monkeypatch.setattr(spaces, "nested_dissection", spy)
    cli.run_convergence(cli.ExperimentConfig("square", 3, "both", None))
    assert len(calls) == 6


@pytest.mark.parametrize("domain", ["square", "lshape"])
def test_element_cliques_order_as_assembled_pattern(domain):
    # the element-to-dof map gives the order the assembled pattern gives
    data, _ = cli.manufacture_data(domain)
    for level in range(5):
        mesh = cli_level_mesh(domain, level)
        mats = bem.assemble_bem(boundary_loop(mesh))
        blocks = dpg_assembly.assemble_operator_blocks(mesh, mats, data)
        B = blocks.B
        nf = 3 * mesh.num_triangles
        xy = np.concatenate([mesh.vertices, mesh.edge_midpoints()])
        S = dpg_assembly.build_normal_equations(B, blocks.G, blocks.ell,
                                                xy)[0]
        last = B.gamma_cols - nf
        order = nested_dissection(B.cols[:, 3:] - nf, xy, last)
        # the assembled pattern, in natural dof numbers
        assert np.array_equal(
            order, nested_dissection(order[pairs(S)], xy, last)), level
        system = jn_reference.assemble_jn(mesh, data, bem_mats=mats)
        vid, order = system.loop.vertex_ids, system.order
        assert np.array_equal(
            nested_dissection(mesh.triangles, mesh.vertices, vid), order), level
        assert np.array_equal(order, nested_dissection(
            order[pairs(system.matrix)], mesh.vertices, vid)), level


@pytest.mark.parametrize("domain", ["square", "lshape"])
def test_order_matches_oracle(domain):
    # the level-linear dissection returns the oracle's permutation at CLI
    # levels 0-5, for the DPG skeleton cliques and the JN triangles
    mesh = cli.initial_mesh(domain)
    for level in range(6):
        if level:
            mesh = refine_uniform(mesh)
        loop = boundary_loop(mesh)
        B = dpg_assembly.assemble_B(mesh, bem.assemble_bem(loop),
                                    mesh.element_classes())
        nf = 3 * mesh.num_triangles
        for args in ((B.cols[:, 3:] - nf,
                      np.concatenate([mesh.vertices, mesh.edge_midpoints()]),
                      B.gamma_cols - nf),
                     (mesh.triangles, mesh.vertices, loop.vertex_ids)):
            assert np.array_equal(nested_dissection(*args),
                                  _oracles.nested_dissection(*args)), level


@pytest.mark.parametrize("seed", range(6))
def test_ties_and_lines_match_oracle(seed):
    # dofs on a coarse lattice, so that many share a point or a coordinate
    # line (parts split by rank, separators that empty a side), random
    # cliques, dofs in no clique, and a `last` block in arbitrary order
    rng = np.random.default_rng(seed)
    n = 600
    xy = rng.integers(0, 6, (n, 2)) * np.array([1.0, 0.5])
    xy[rng.random(n) < 0.3, 0] = 2.0
    cliques = rng.integers(0, n - 20, (300, 3))
    last = rng.permutation(n)[:40]
    assert np.array_equal(nested_dissection(cliques, xy, last),
                          _oracles.nested_dissection(cliques, xy, last))


def coupling_args(mesh):
    """The (cliques, coords, last) with which clique_matrix orders the
    DPG skeleton system and the JN vertex system."""
    loop = boundary_loop(mesh)
    B = dpg_assembly.assemble_B(mesh, bem.assemble_bem(loop),
                                mesh.element_classes())
    nf = 3 * mesh.num_triangles
    return [(B.cols[:, 3:] - nf,
             np.concatenate([mesh.vertices, mesh.edge_midpoints()]),
             B.gamma_cols - nf),
            (mesh.triangles, mesh.vertices, loop.vertex_ids)]


def lattice_args(seed):
    """Dofs on a coarse lattice, so that many share a point or a
    coordinate line (parts split by rank, separators that empty a side),
    random cliques, dofs in no clique, and a `last` block in arbitrary
    order."""
    rng = np.random.default_rng(seed)
    n = 600
    xy = rng.integers(0, 6, (n, 2)) * np.array([1.0, 0.5])
    xy[rng.random(n) < 0.3, 0] = 2.0
    cliques = rng.integers(0, n - 20, (300, 3))
    last = rng.permutation(n)[:40]
    return cliques, xy, last


def scrambled(cliques, rng):
    """The same neighbours as cliques, with the rows shuffled, each row's
    columns permuted on its own and a quarter of the rows repeated."""
    t, k = cliques.shape
    rows = rng.permutation(np.r_[np.arange(t), rng.integers(0, t, t // 4)])
    cols = rng.permuted(np.tile(np.arange(k), (rows.size, 1)), axis=1)
    return np.take_along_axis(cliques[rows], cols, axis=1)


def test_order_depends_only_on_the_neighbours(level3):
    # the order is read from which dofs share a clique, not from how the
    # cliques are laid out
    rng = np.random.default_rng(0)
    cases = coupling_args(level3[0]) + [lattice_args(s) for s in range(6)]
    for cliques, xy, last in cases:
        assert np.array_equal(
            nested_dissection(scrambled(cliques, rng), xy, last),
            nested_dissection(cliques, xy, last))
