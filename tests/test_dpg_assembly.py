import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

import _oracles
from dpgbem import boundary_loop, make_lshape_mesh, make_square_mesh, refine_uniform
from dpgbem import bem, cli, dpg_assembly, jn_reference, solver, spaces
from dpgbem.errors import NumericalError
from dpgbem.mesh import build_mesh
from dpgbem.dpg_assembly import ProblemData


def constant_data(c=1.0):
    return ProblemData(
        f=lambda x, y: np.zeros_like(x),
        u0=lambda x, y: c * np.ones_like(x),
        phi0=lambda x, y, nx, ny: np.zeros_like(x + nx),
        singular_vertex=None)


def smooth_data():
    pi = np.pi
    u = lambda x, y: np.sin(pi * x) * np.sin(pi * y)
    grad = lambda x, y: (pi * np.cos(pi * x) * np.sin(pi * y),
                         pi * np.sin(pi * x) * np.cos(pi * y))
    data = ProblemData(
        f=lambda x, y: 2 * pi ** 2 * np.sin(pi * x) * np.sin(pi * y),
        u0=u,
        phi0=lambda x, y, nx, ny: grad(x, y)[0] * nx + grad(x, y)[1] * ny,
        singular_vertex=None)
    return data, u, grad


def assemble_all(mesh, data):
    mats = bem.assemble_bem(boundary_loop(mesh))
    trial = spaces.TrialDofLayout.from_mesh(mesh)
    test = _oracles.TestDofLayout.from_mesh(mesh)
    blocks = dpg_assembly.assemble_operator_blocks(mesh, mats, data)
    return mats, trial, test, blocks


def test_constant_field_consistency():
    mesh = make_square_mesh(0.1, 2)
    mats, trial, test, blocks = assemble_all(mesh, constant_data())
    ones = lambda x, y: np.ones_like(x)
    zg = lambda x, y: (np.zeros_like(x), np.zeros_like(x))
    c = _oracles.interpolate_trial(ones, zg, zg, mesh, trial)
    res = _oracles.sparse_B(blocks.B) @ c - _oracles.full_load(blocks)
    assert np.abs(res).max() < 1e-12


def test_zero_trial_vector():
    mesh = make_square_mesh(0.1, 1)
    _, trial, _, blocks = assemble_all(mesh, constant_data())
    assert np.all(_oracles.sparse_B(blocks.B) @ np.zeros(trial.dim) == 0.0)


def test_sigma_column_spot_check():
    # (sigma_x column, v-row) entries are int_T dN_i/dx; oracle by central
    # finite differences of the mapped basis under a high-order rule
    from dpgbem import quadrature
    mesh = make_lshape_mesh(0.25, 1)
    mats, trial, test, blocks = assemble_all(mesh, constant_data())
    B = _oracles.sparse_B(blocks.B)
    t = 2
    verts = mesh.triangle_vertices()[t]
    v0, e1, e2 = verts[0], verts[1] - verts[0], verts[2] - verts[0]
    Jinv = np.linalg.inv(np.stack([e1, e2], axis=1))

    def basis_phys(i, x, y):
        ref = Jinv @ (np.stack([x, y]) - v0[:, None]).reshape(2, -1)
        bary = np.stack([1 - ref[0] - ref[1], ref[0], ref[1]], axis=-1)
        return spaces.eval_p2_basis(bary)[0][..., i].reshape(np.shape(x))

    pts, w = quadrature.triangle_duffy(10)
    x, y = (c[0] for c in quadrature.map_to_physical(verts[None], pts))
    area2 = mesh.element_map()[1][t]
    eps = 1e-6
    for i in range(6):
        dref = (basis_phys(i, x + eps, y)
                - basis_phys(i, x - eps, y)) / (2 * eps)
        oracle = float(np.dot(w, dref) * area2)
        got = B[test.v(t, i), 2 * t]   # sigma_x of element t
        assert got == pytest.approx(oracle, abs=5e-9)


def test_gram_structure_and_spd():
    mesh = make_square_mesh(0.1, 2)
    mats, _, test, blocks = assemble_all(mesh, constant_data())
    cls, bem_mats = blocks.B.cls, blocks.B.bem
    # one H1 and one H(div) block per element, one boundary block
    assert cls.size == mesh.num_triangles
    assert blocks.Gv.shape[1:] == (6, 6) and blocks.Gtau.shape[1:] == (12, 12)
    assert bem_mats.G_psi.shape[0] == 2 * mesh.num_boundary_edges
    assert 18 * cls.size + bem_mats.G_psi.shape[0] == test.dim
    # constant function in the scalar block: energy = area of the element
    ones = np.ones(6)
    areas = 0.5 * mesh.element_map()[1]
    for t in (0, 5):
        assert ones @ blocks.Gv[cls[t]] @ ones == pytest.approx(areas[t],
                                                                rel=1e-12)
    # SPD of every block
    assert min(np.linalg.eigvalsh(blocks.Gv).min(),
               np.linalg.eigvalsh(blocks.Gtau).min()) > 0.0
    assert np.linalg.eigvalsh(0.5 * (mats.G_psi + mats.G_psi.T)).min() > 0.0
    # boundary block is exactly the bem Gram
    assert bem_mats is mats


def test_gram_not_spd_raises(monkeypatch):
    # negative volume weights make every element Gram block negative
    # definite, which the Cholesky check of assemble_gram rejects
    mesh = make_square_mesh(0.1, 1)
    monkeypatch.setattr(dpg_assembly, "_VOL_W", -dpg_assembly._VOL_W)
    with pytest.raises(NumericalError, match="test Gram block not SPD"):
        dpg_assembly.assemble_gram(mesh, mesh.element_classes())


def test_gram_apply_solve_roundtrip():
    # the energy error of x = 0 against the load ell = G v is
    # sqrt(v^T G v): its blockwise G^{-1} undoes gram_apply.  A load has
    # no H(div) rows, so v has a zero tau block, and so has G v
    mesh = make_square_mesh(0.1, 1)
    _, trial, test, blocks = assemble_all(mesh, constant_data())
    rng = np.random.default_rng(7)
    v = rng.standard_normal(test.dim)
    nt = mesh.num_triangles
    v[6 * nt:18 * nt] = 0.0
    Gv = _oracles.gram_apply(blocks, v)
    assert np.allclose(_oracles.gram_solve(blocks, Gv), v, atol=1e-10)
    err = solver.energy_error(
        dataclasses.replace(blocks, ell=np.r_[Gv[:6 * nt], Gv[18 * nt:]]),
        np.zeros(trial.dim))
    assert err ** 2 == pytest.approx(float(v @ Gv), rel=1e-10)


def test_gram_solve_matrix_matches_dense():
    mesh = make_square_mesh(0.1, 1)
    _, _, test, blocks = assemble_all(mesh, constant_data())
    B = _oracles.sparse_B(blocks.B)
    W = _oracles.gram_solve_matrix(blocks, B).toarray()
    # the dense G, one gram_apply per column
    G = np.column_stack([_oracles.gram_apply(blocks, e)
                         for e in np.eye(test.dim)])
    assert np.allclose(W, np.linalg.solve(G, B.toarray()), atol=1e-12)


def cli_level_mesh(domain, level):
    mesh = cli.initial_mesh(domain)
    for _ in range(level):
        mesh = refine_uniform(mesh)
    return mesh


def jittered_mesh(domain, level):
    """The CLI mesh with every interior vertex moved by up to 10% of h in
    each coordinate (fixed seed), so that every element with an interior
    vertex has a geometry of its own."""
    mesh = cli_level_mesh(domain, level)
    rng = np.random.default_rng(11)
    move = rng.uniform(-0.1, 0.1, mesh.vertices.shape) * mesh.mesh_size()
    move[mesh.boundary_tails] = 0.0
    return build_mesh(mesh.vertices + move, mesh.triangles)


def check_against_element_oracle(mesh, domain):
    # the class blocks, signed per element, against the blocks computed
    # element by element, and every output of the operator stages
    data, _ = cli.manufacture_data(domain)
    _, _, _, blocks = assemble_all(mesh, data)
    B, ell = blocks.B, _oracles.full_load(blocks)
    E = _oracles.ElementPipeline.from_mesh(mesh, blocks)
    assert np.array_equal(_oracles.signed_blocks(B), E.local)
    assert np.array_equal(blocks.Gv[B.cls], E.Gv)
    assert np.array_equal(blocks.Gtau[B.cls], E.Gtau)
    assert B.nnz == 162 * mesh.num_triangles + B.gamma_cols.size ** 2
    # the boundary block from the P0 rows against the W formula; the rest
    # of the pipeline is compared exactly, on the production block
    g = dpg_assembly._gram_products(blocks)[2]
    g0 = E.gram_products(ell)[2]
    assert np.abs(g - g0).max() <= 1e-15 * np.abs(g0).max()
    S, c, recover = dpg_assembly.build_normal_equations(blocks, None)
    S0, c0, recover0 = E.normal_equations(ell, g)
    assert S.sparse.format == "csr"
    assert np.array_equal(S.sparse.indptr, S0.indptr)
    assert np.array_equal(S.sparse.indices, S0.indices)
    assert np.array_equal(S.sparse.data, S0.data)
    assert np.array_equal(S.dense_dofs, B.gamma_cols - 3 * mesh.num_triangles)
    assert np.array_equal(S.dense, g[:, :-1])
    assert np.array_equal(c, c0)
    y = np.random.default_rng(5).standard_normal(c.size)
    x = recover(y)
    assert np.array_equal(x, recover0(y))
    assert solver.energy_error(blocks, x) == E.energy_error(ell, x)


@pytest.mark.parametrize("domain", ["square", "lshape"])
@pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
def test_geometry_classes_match_element_oracle(domain, level):
    check_against_element_oracle(cli_level_mesh(domain, level), domain)


@pytest.mark.parametrize("domain", ["square", "lshape"])
def test_geometry_classes_match_element_oracle_jittered(domain):
    # every element with a moved vertex is its own class; elements with
    # all three vertices on the boundary may still share their geometry
    mesh = jittered_mesh(domain, 2)
    cls, _ = mesh.element_classes()
    moved = ~np.isin(mesh.triangles, mesh.boundary_tails).all(axis=1)
    assert moved.sum() > 0.9 * mesh.num_triangles
    assert np.all(np.bincount(cls)[cls[moved]] == 1)
    check_against_element_oracle(mesh, domain)


@pytest.mark.parametrize("domain", ["square", "lshape"])
def test_boundary_sighat_rows_are_classical_p0_rows(domain):
    # G_psi^{-1} V_ps = E, so the sighat rows of the boundary block need no
    # solve: they are the classical coupling's unstabilized P0 rows of V
    # and of H = (1/2) M - K, with the loop signs applied
    mesh = cli_level_mesh(domain, 2)
    data, _ = cli.manufacture_data(domain)
    mats, _, _, blocks = assemble_all(mesh, data)
    g = dpg_assembly._gram_products(blocks)[2]
    jn = _oracles.jn_full_system(mesh, data, stabilized=False,
                                 bem_mats=mats).matrix.toarray()
    nv, P = mesh.num_vertices, mats.loop.num_panels
    s = mats.loop.signs
    assert np.any(s < 0) and np.any(s > 0)
    assert np.array_equal(g[:P, :P], s[:, None] * jn[nv:, nv:] * s)
    H = s[:, None] * jn[nv:, mats.loop.vertex_ids]
    assert np.array_equal(g[:P, P:-1], H)
    assert np.array_equal(g[P:, :P], H.T)


def test_boundary_rows_of_B_match_dense_block():
    # the boundary rows of the energy error's residual, V_ps (signs
    # sighat) + H uhat, against the dense block B_G: with the load B x on
    # the H1 rows (exact, the ElementPipeline's rows) and B_G x on the
    # boundary, only the rounding of the boundary rows is left.  A load
    # has no H(div) rows, so their residual, -B x there, is weighted by
    # 2^-200 through the Gram blocks 2^200 Gtau: below 1e-29 of err(0)
    mesh = cli_level_mesh("lshape", 2)
    data, _ = cli.manufacture_data("lshape")
    _, _, _, blocks = assemble_all(mesh, data)
    B = blocks.B
    x = np.random.default_rng(3).standard_normal(B.shape[1])
    ref = _oracles.boundary_block(B) @ x[B.gamma_cols]
    Bx = _oracles.ElementPipeline.from_mesh(mesh, blocks).apply_B(x)
    nt = 6 * mesh.num_triangles

    def err(ell_gamma):
        return solver.energy_error(dataclasses.replace(
            blocks, Gtau=2.0 ** 200 * blocks.Gtau,
            ell=np.r_[Bx[:nt], ell_gamma]), x)
    assert err(ref) <= 1e-14 * err(np.zeros_like(ref))


@pytest.mark.parametrize("domain", ["square", "lshape"])
def test_uniform_meshes_have_few_geometry_classes(domain):
    # measured: 166 classes of 8192 elements on the square, 6 of 6144 on
    # the L-shape
    mesh = cli_level_mesh(domain, 4)
    cls, rep = mesh.element_classes()
    assert np.array_equal(cls[rep], np.arange(rep.size))
    assert rep.size < mesh.num_triangles / 20


@pytest.mark.parametrize("domain", ["square", "lshape"])
def test_element_classes_match_sixteen_float_key(domain):
    # the side vectors partition the elements as J, the side lengths and
    # the outward normals did, on CLI levels 0-4 and a jittered mesh: cls
    # is a relabelling of the oracle's
    for mesh in [*(cli_level_mesh(domain, lvl) for lvl in range(5)),
                 jittered_mesh(domain, 2)]:
        cls, rep = mesh.element_classes()
        cls0, rep0 = _oracles.element_classes(mesh)
        assert rep.size == rep0.size
        assert np.array_equal(cls, cls[rep0][cls0])


def test_element_skeleton_matches_oracle_columns():
    # the skeleton map read from the mesh, whole and per batch, against
    # the oracle's per-element trial columns and signs
    mesh = cli_level_mesh("lshape", 2)
    _, _, _, blocks = assemble_all(mesh, cli.manufacture_data("lshape")[0])
    cols, signs = _oracles.trial_columns(blocks.B)
    nf = 3 * mesh.num_triangles
    for e in (slice(None), slice(0, 7), slice(7, 100), slice(90, None)):
        skel, s = spaces.element_skeleton(mesh, e)
        assert np.array_equal(skel, cols[e, 3:] - nf)
        assert np.array_equal(s, signs[e, 3:])


def test_assemble_B_peak_memory_within_its_blocks():
    # the blocks are kept as computed, so building them needs no more
    # than their element temporaries: no global scatter and no
    # per-element column map.  The classes are the caller's input, made
    # before the trace: their T-sized key rows would set the peak
    mesh = cli_level_mesh("square", 3)
    mats = bem.assemble_bem(boundary_loop(mesh))
    classes = mesh.element_classes()
    tracemalloc.start()
    try:
        B = dpg_assembly.assemble_B(mesh, mats, classes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(v.nbytes for v in (B.local, B.cls, B.gamma_cols))
    assert peak <= 2.5 * kept


def test_energy_error_peak_memory_within_chunks(monkeypatch):
    # the residual and its Gram solve are formed ELEMENT_CHUNK elements
    # at a time: above the indicators it returns (one double per
    # element), the peak is the class blocks of a batch, (18, 9) of B
    # and (6, 6) and (12, 12) of the inverse Grams, and a few vectors
    # per element: 1.6 KB measured, 4 KB allowed.  The pass over
    # all T elements that B @ x and the Gram solve made peaked at
    # 13.5 MiB here (T = 32768), above the bound at batches of 512
    monkeypatch.setattr(spaces, "ELEMENT_CHUNK", 512)
    mesh = cli_level_mesh("square", 5)
    data, _ = cli.manufacture_data("square")
    _, _, _, blocks = assemble_all(mesh, data)
    x = np.random.default_rng(9).standard_normal(blocks.B.shape[1])
    blocks.B.bem.G_psi_chol
    tracemalloc.start()
    try:
        solver.energy_error(blocks, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * mesh.num_triangles + 4096 * spaces.ELEMENT_CHUNK


def test_chunked_products_independent_of_chunk_size(monkeypatch):
    # the chunked class products (the load map and the field recovery of
    # the normal equations, and the energy error) give the same bits
    # for any chunk size; square CLI level 3 has 2048 elements, so
    # ELEMENT_CHUNK takes them at once
    mesh = cli_level_mesh("square", 3)
    data, _ = cli.manufacture_data("square")
    _, _, _, blocks = assemble_all(mesh, data)
    B = blocks.B
    rng = np.random.default_rng(4)
    x = rng.standard_normal(B.shape[1])
    y = rng.standard_normal(B.shape[1] - 3 * mesh.num_triangles)

    def outputs():
        _, c, recover = dpg_assembly.build_normal_equations(blocks, None)
        return c, recover(y), solver.energy_error(blocks, x)

    want = outputs()
    assert np.any(want[0] != 0.0)
    for chunk in (7, 1000):
        monkeypatch.setattr(spaces, "ELEMENT_CHUNK", chunk)
        for got, ref in zip(outputs(), want):
            assert np.array_equal(got, ref)


@pytest.mark.parametrize("domain", ["square", "lshape"])
def test_energy_error_independent_of_chunk_size(domain, monkeypatch):
    # every element's residual and Gram solve are einsums, so any batch
    # size, down to one element, gives the same per-element terms and
    # the same sum; CLI level 3 has 2048 (square) and 1536 (L-shape)
    # elements, which neither 7 nor 1000 divides
    mesh = cli_level_mesh(domain, 3)
    data, _ = cli.manufacture_data(domain)
    _, _, _, blocks = assemble_all(mesh, data)
    x = np.random.default_rng(10).standard_normal(blocks.B.shape[1])
    monkeypatch.setattr(spaces, "ELEMENT_CHUNK", mesh.num_triangles)
    want = solver.energy_error(blocks, x)
    for chunk in (1, 7, 1000):
        monkeypatch.setattr(spaces, "ELEMENT_CHUNK", chunk)
        assert solver.energy_error(blocks, x) == want


@pytest.mark.parametrize("domain", ["square", "lshape"])
def test_element_passes_independent_of_chunk_size(domain, monkeypatch):
    # both volume loads and both couplings' field errors give the same
    # bits for any batch size, as every per-element value is an einsum
    # or elementwise; CLI level 3 has 2048 (square) and 1536 (L-shape)
    # elements, which neither 7 nor 1000 divides, and on the L-shape the
    # graded corner groups hold 2, 2 and 1 elements.  With BLAS products
    # in their place ((du ** 2) @ w, uloc[tri] @ bary.T), batches of 1, 2,
    # 3 or 7 elements moved the errors by about 1e-16 relative for some
    # inputs: BLAS rounds a matrix row by its position in the call
    mesh = cli_level_mesh(domain, 3)
    data, exact = cli.manufacture_data(domain)
    rng = np.random.default_rng(6)
    sol = solver.Solution(mesh=mesh, data=data, loop=boundary_loop(mesh),
                          x=rng.standard_normal(
                              spaces.TrialDofLayout.from_mesh(mesh).dim),
                          level=None)
    u_nodal = rng.standard_normal(mesh.num_vertices)

    def outputs():
        return (spaces.element_load(
                    mesh, data.f, lambda b: spaces.eval_p2_basis(b)[0]),
                spaces.element_load(mesh, data.f, lambda b: b),
                solver.l2_errors(sol, exact.u, exact.grad),
                jn_reference.jn_errors(mesh, u_nodal, exact.u, exact.grad,
                                       data.singular_vertex))

    monkeypatch.setattr(spaces, "ELEMENT_CHUNK", mesh.num_triangles)
    want = outputs()
    for chunk in (1, 7, 1000):
        monkeypatch.setattr(spaces, "ELEMENT_CHUNK", chunk)
        for got, ref in zip(outputs(), want):
            assert np.array_equal(got, ref)


@pytest.mark.parametrize("pass_", ["element_load", "field_errors",
                                   "jn_errors"])
def test_element_passes_peak_memory_within_chunks(pass_, monkeypatch):
    # the volume load and both couplings' field errors map their rules
    # (q points) onto ELEMENT_CHUNK elements at a time: above the
    # returned array, the peak is a few (ELEMENT_CHUNK, q) arrays, plus
    # for the field errors what they keep per element, a group index and
    # two squared errors (24 bytes).  Mapping a rule onto all T = 32768
    # elements at once peaked at 31.5 (load) and 38.0 MiB (errors), one
    # BLAS thread; forming the P1 values and gradients of jn_errors on
    # all elements before its batches peaked at 4.75 MiB, above the
    # bound at batches of 1024 elements
    monkeypatch.setattr(spaces, "ELEMENT_CHUNK", 1024)
    mesh = cli_level_mesh("square", 5)
    data, exact = cli.manufacture_data("square")
    T = mesh.num_triangles
    rng = np.random.default_rng(8)
    u, sigma = rng.standard_normal(T), rng.standard_normal((T, 2))
    if pass_ == "element_load":
        q, kept = spaces.LOAD_W.size, 0

        def run():
            return spaces.element_load(
                mesh, data.f, lambda b: spaces.eval_p2_basis(b)[0])
    elif pass_ == "field_errors":
        q, kept = solver._error_rules(None, mesh)[0][1][1].size, 24 * T

        def run():
            return np.array(solver.field_errors(
                mesh, exact.u, exact.grad, lambda t, b: u[t, None],
                lambda t: sigma[t], None))
    else:
        q, kept = solver._error_rules(None, mesh)[0][1][1].size, 24 * T
        u_nodal = rng.standard_normal(mesh.num_vertices)

        def run():
            return np.array(jn_reference.jn_errors(
                mesh, u_nodal, exact.u, exact.grad, None))
    tracemalloc.start()
    try:
        out = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + kept + 16 * spaces.ELEMENT_CHUNK * q * 8


def test_load_zero_data():
    mesh = make_square_mesh(0.1, 1)
    _, _, _, blocks = assemble_all(mesh, ProblemData(
        f=lambda x, y: np.zeros_like(x),
        u0=lambda x, y: np.zeros_like(x),
        phi0=lambda x, y, nx, ny: np.zeros_like(x + nx),
        singular_vertex=None))
    assert np.all(blocks.ell == 0.0)


def test_load_volume_term_matches_oracle():
    from scipy.integrate import dblquad
    from dpgbem import quadrature
    mesh = make_square_mesh(0.1, 2)
    data, u, grad = smooth_data()
    mats, trial, test, blocks = assemble_all(mesh, data)
    t = 4
    verts = mesh.triangle_vertices()[t]
    v0, e1, e2 = verts[0], verts[1] - verts[0], verts[2] - verts[0]
    area2 = mesh.element_map()[1][t]
    for i in (0, 3, 5):
        def integrand(b, a, i=i):
            x = v0[0] + e1[0] * a * (1 - b) + e2[0] * b
            y = v0[1] + e1[1] * a * (1 - b) + e2[1] * b
            bary = np.array([1 - a * (1 - b) - b, a * (1 - b), b])
            Ni = spaces.eval_p2_basis(bary)[0][i]
            return float(data.f(np.array(x), np.array(y))) * Ni * (1 - b)

        val, _ = dblquad(integrand, 0, 1, 0, 1, epsabs=1e-14, epsrel=1e-12)
        oracle = val * area2
        assert blocks.ell[test.v(t, i)] == pytest.approx(oracle, rel=1e-10)


def test_load_constant_u0_linearity():
    c = 2.5
    mesh = make_square_mesh(0.1, 2)
    mats, _, test, blocks = assemble_all(mesh, constant_data(c))
    psi_rows = blocks.loads[1]
    expected = c * (mats.H @ np.ones(mats.loop.num_panels))
    assert np.allclose(psi_rows, expected, atol=1e-13)


def test_normal_equations_symmetric_spd_and_size():
    mesh = make_square_mesh(0.1, 1)
    _, trial, _, blocks = assemble_all(mesh, constant_data())
    A, b = _oracles.normal_equations(blocks)
    assert A.shape == (15, 15)  # 3*2 + 4 + 5
    Ad = A.toarray()
    assert np.abs(Ad - Ad.T).max() <= 1e-12 * np.abs(Ad).max()
    assert np.linalg.eigvalsh(0.5 * (Ad + Ad.T)).min() > 0.0
    S, c, _ = dpg_assembly.build_normal_equations(blocks, None)
    assert S.shape == (9, 9) and c.shape == (9,)  # 4 + 5


@pytest.mark.parametrize("domain", ["square", "lshape"])
@pytest.mark.parametrize("level", [0, 1, 2])
def test_normal_equations_match_sparse_product_oracle(domain, level):
    # the per-block products B_k^T G_k^{-1} [B_k | ell_k], put into the
    # full A, against the sparse product through the loop G^{-1} B
    data, _ = cli.manufacture_data(domain)
    _, _, _, blocks = assemble_all(cli_level_mesh(domain, level), data)
    B = blocks.B
    a, Z, g = dpg_assembly._gram_products(blocks)
    # the load columns B_T^T G_T^{-1} ell_T = signs * Z^T ell_v,T, since
    # ell has no H(div) rows: 6 per element and 2 per panel
    ev, eg = blocks.loads
    assert blocks.ell.size == ev.size + eg.size == B.shape[0] - 12 * B.cls.size
    loads = (_oracles.trial_columns(B)[1]
             * np.einsum("tji,tj->ti", Z[B.cls], ev))
    A, b = _oracles.scatter_products(
        B, _oracles.expand_products(B, a, loads), g)
    A0, b0 = _oracles.normal_equations(blocks)
    assert abs(A - A0).max() <= 1e-13 * abs(A0).max()
    assert np.abs(b - b0).max() <= 1e-13 * np.abs(b0).max()


@pytest.mark.parametrize("domain", ["square", "lshape"])
@pytest.mark.parametrize("level", [0, 1, 2])
def test_skeleton_system_matches_oracle(domain, level):
    # S and c against the dense Schur complement of the oracle A onto the
    # skeleton dofs, which follow the 3 T field dofs
    mesh = cli_level_mesh(domain, level)
    data, _ = cli.manufacture_data(domain)
    _, _, _, blocks = assemble_all(mesh, data)
    S, c, _ = dpg_assembly.build_normal_equations(blocks, None)
    A, b = _oracles.normal_equations(blocks)
    A = A.toarray()
    nf = 3 * mesh.num_triangles
    Y = np.linalg.solve(A[:nf, :nf], np.column_stack([A[:nf, nf:], b[:nf]]))
    S0 = A[nf:, nf:] - A[nf:, :nf] @ Y[:, :-1]
    c0 = b[nf:] - A[nf:, :nf] @ Y[:, -1]
    assert S.shape == S0.shape == (mesh.num_vertices + mesh.num_edges,) * 2
    assert np.abs(S.toarray() - S0).max() <= 1e-12 * np.abs(S0).max()
    assert np.abs(c - c0).max() <= 1e-12 * np.abs(c0).max()


@pytest.mark.parametrize("make,args", [(make_square_mesh, (0.1, 2)),
                                       (make_lshape_mesh, (0.25, 1))])
def test_normal_equations_spd_both_domains(make, args):
    mesh = make(*args)
    data, _, _ = smooth_data()
    _, _, _, blocks = assemble_all(mesh, data)
    A, _ = _oracles.normal_equations(blocks)
    assert np.linalg.eigvalsh(A.toarray()).min() > 0.0


def test_boundedness_surrogate_regression():
    # |b(u, v)| <= C * surrogate(u) * |v|_G with C fixed across levels;
    # surrogate: L2 field parts + H1 extension of uhat + single-layer
    # energy of the boundary flux (documented surrogate, not a norm from
    # the analysis)
    data, _, _ = smooth_data()
    rng = np.random.default_rng(42)
    mesh = make_square_mesh(0.1, 2)
    worst = 0.0
    for lvl in range(3):
        loop = boundary_loop(mesh)
        mats = bem.assemble_bem(loop)
        trial = spaces.TrialDofLayout.from_mesh(mesh)
        test = _oracles.TestDofLayout.from_mesh(mesh)
        blocks = dpg_assembly.assemble_operator_blocks(mesh, mats, data)
        B = _oracles.sparse_B(blocks.B)
        areas = 0.5 * mesh.element_map()[1]
        K1 = _oracles.clique_matrix(mesh.triangles,
                                    jn_reference._p1_stiffness(mesh), [], [],
                                    mesh.num_vertices)
        T = mesh.triangles
        mloc = np.array([[2.0, 1, 1], [1, 2, 1], [1, 1, 2]]) / 12.0
        rows = np.repeat(T[:, :, None], 3, axis=2).ravel()
        cols = np.repeat(T[:, None, :], 3, axis=1).ravel()
        M1 = scipy.sparse.coo_matrix(
            (np.einsum("t,ij->tij", areas, mloc).ravel(), (rows, cols))).tocsr()
        V00 = bem.p0_test_rows(mats.V_ps)
        nt = trial.n_tri

        def surrogate(uvec):
            sig = uvec[:2 * nt].reshape(nt, 2)
            uu = uvec[2 * nt:3 * nt]
            uh = uvec[3 * nt:3 * nt + trial.n_vert]
            sh = uvec[3 * nt + trial.n_vert:]
            s2 = float((areas * (sig ** 2).sum(1)).sum() + (areas * uu ** 2).sum())
            s2 += float(uh @ (K1 @ uh) + uh @ (M1 @ uh))
            sG = loop.signs * sh[loop.edge_ids]
            s2 += float(sG @ (V00 @ sG))
            return np.sqrt(s2)

        for _ in range(20):
            uvec = rng.standard_normal(trial.dim)
            vvec = rng.standard_normal(test.dim)
            num = abs(float(vvec @ (B @ uvec)))
            den = surrogate(uvec) * np.sqrt(
                float(vvec @ _oracles.gram_apply(blocks, vvec)))
            worst = max(worst, num / den)
        mesh = refine_uniform(mesh)
    assert worst <= 1.0  # measured ~0.05 and decreasing; guard non-explosion


def test_consistency_decay_of_interpolant_residual():
    data, u, grad = smooth_data()
    gradf = lambda x, y: grad(x, y)
    mesh = make_square_mesh(0.1, 2)
    res = []
    for lvl in range(3):
        _, trial, _, blocks = assemble_all(mesh, data)
        c = _oracles.interpolate_trial(u, gradf, gradf, mesh, trial)
        res.append(solver.energy_error(blocks, c))
        mesh = refine_uniform(mesh)
    ratios = np.array(res[:-1]) / np.array(res[1:])
    # O(h) decay: halving h roughly halves the residual
    assert np.all(ratios > 1.5) and np.all(ratios < 3.0)
