import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import dblquad

import _oracles
from dpgbem import boundary_loop, make_lshape_mesh, make_square_mesh
from dpgbem import build_mesh, refine_uniform
from dpgbem import bem, cli, dpg_assembly, spaces
from dpgbem import mesh as mesh_mod


def test_layout_dimensions():
    for mesh in (make_square_mesh(0.1, 2), make_lshape_mesh(0.25, 2)):
        trial = spaces.TrialDofLayout.from_mesh(mesh)
        B = dpg_assembly.assemble_B(mesh, bem.assemble_bem(boundary_loop(mesh)),
                                    mesh.element_classes())
        test_dim = B.shape[0]
        assert trial.dim == 3 * mesh.num_triangles + mesh.num_vertices + mesh.num_edges
        assert test_dim == 18 * mesh.num_triangles + 2 * mesh.num_boundary_edges
        assert test_dim >= trial.dim
        assert B.shape[1] == trial.dim


def test_layout_indices_disjoint_and_complete():
    mesh = make_square_mesh(0.1, 1)
    trial = spaces.TrialDofLayout.from_mesh(mesh)
    seen = set()
    # sigma_x, sigma_y at 2t, 2t + 1 and u at 2T + t: the 3T field dofs
    for t in range(trial.n_tri):
        seen.update({2 * t, 2 * t + 1, 2 * trial.n_tri + t})
    seen.update(trial.uhat(v) for v in range(trial.n_vert))
    seen.update(trial.sighat(e) for e in range(trial.n_edge))
    assert seen == set(range(trial.dim))


def test_p2_basis_lagrange_property():
    nodes = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1],
                      [.5, .5, 0], [0, .5, .5], [.5, 0, .5]], dtype=float)
    vals, _ = spaces.eval_p2_basis(nodes)
    assert np.allclose(vals, np.eye(6), atol=1e-14)


def test_p2_basis_partition_of_unity():
    rng = np.random.default_rng(3)
    pts = rng.dirichlet([1, 1, 1], size=40)
    vals, grads = spaces.eval_p2_basis(pts)
    assert np.allclose(vals.sum(axis=-1), 1.0, atol=1e-13)
    assert np.allclose(grads.sum(axis=-2), 0.0, atol=1e-13)


def test_trace_p1_values():
    assert np.allclose(_oracles.eval_trace_p1(0.0), [1.0, 0.0])
    assert np.allclose(_oracles.eval_trace_p1(1.0), [0.0, 1.0])
    assert np.allclose(_oracles.eval_trace_p1(0.5), [0.5, 0.5])


def test_side_bary_endpoints():
    for s in range(3):
        b0 = spaces.side_bary(s, np.array(0.0))
        b1 = spaces.side_bary(s, np.array(1.0))
        assert b0[s] == 1.0 and b1[(s + 1) % 3] == 1.0


def constant_one(x, y):
    return np.ones_like(x)


def zero_grad(x, y):
    z = np.zeros_like(x)
    return z, z


def test_interpolate_constant():
    mesh = make_square_mesh(0.1, 2)
    layout = spaces.TrialDofLayout.from_mesh(mesh)
    c = _oracles.interpolate_trial(constant_one, zero_grad, zero_grad, mesh,
                                   layout)
    nt = layout.n_tri
    assert np.allclose(c[:2 * nt], 0.0, atol=1e-14)
    assert np.allclose(c[2 * nt:3 * nt], 1.0, atol=1e-14)
    assert np.allclose(c[3 * nt:3 * nt + layout.n_vert], 1.0)
    assert np.allclose(c[3 * nt + layout.n_vert:], 0.0, atol=1e-13)


def test_interpolate_linear_exact():
    mesh = make_square_mesh(0.1, 2)
    layout = spaces.TrialDofLayout.from_mesh(mesh)
    u = lambda x, y: x
    grad = lambda x, y: (np.ones_like(x), np.zeros_like(x))
    c = _oracles.interpolate_trial(u, grad, grad, mesh, layout)
    nt = layout.n_tri
    sig = c[:2 * nt].reshape(nt, 2)
    assert np.allclose(sig[:, 0], 1.0, atol=1e-13)
    assert np.allclose(sig[:, 1], 0.0, atol=1e-13)
    # sighat on each edge equals the x component of its global normal
    sighat = c[3 * nt + layout.n_vert:]
    assert np.allclose(sighat, mesh.edge_normals[:, 0], atol=1e-12)


def test_interpolate_constant_vector_field_flux():
    mesh = make_lshape_mesh(0.25, 1)
    layout = spaces.TrialDofLayout.from_mesh(mesh)
    q = np.array([0.3, -0.7])
    grad = lambda x, y: (np.full_like(x, q[0]), np.full_like(x, q[1]))
    c = _oracles.interpolate_trial(lambda x, y: q[0] * x + q[1] * y, grad,
                                   grad, mesh, layout)
    sighat = c[3 * layout.n_tri + layout.n_vert:]
    assert np.allclose(sighat, mesh.edge_normals @ q, atol=1e-12)


def test_element_means_match_adaptive_quadrature():
    # mean of sin(pi x) sin(pi y) on a few elements, oracle via scipy dblquad
    # on the Duffy-parametrized reference square
    mesh = make_square_mesh(0.1, 2)
    layout = spaces.TrialDofLayout.from_mesh(mesh)
    u = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    c = _oracles.interpolate_trial(u, zero_grad, zero_grad, mesh, layout)
    means = c[2 * layout.n_tri:3 * layout.n_tri]
    for t in (0, 3, 7):
        v0, v1, v2 = mesh.triangle_vertices()[t]

        def duffy_integrand(b, a):
            x = v0[0] + (v1[0] - v0[0]) * a * (1 - b) + (v2[0] - v0[0]) * b
            y = v0[1] + (v1[1] - v0[1]) * a * (1 - b) + (v2[1] - v0[1]) * b
            return float(u(np.array(x), np.array(y))) * (1 - b)

        val, err = dblquad(duffy_integrand, 0, 1, 0, 1,
                           epsabs=1e-14, epsrel=1e-13)
        # full jacobian is 2*area*(1-b); the (1-b) factor sits in the
        # integrand, so mean = val * 2*area / area = 2*val
        assert means[t] == pytest.approx(2.0 * val, rel=1e-10)


def test_projection_p1_reproduces_piecewise_linear():
    mesh = make_square_mesh(0.1, 2)
    loop = boundary_loop(mesh)
    fn = lambda x, y: 2.0 * x - 3.0 * y + 0.5
    rule = spaces.boundary_quadrature(loop, spaces.ERROR_ORDER,
                                      spaces.ERROR_LEVELS, None)
    coefs = spaces.project_boundary_p1(loop, *spaces.hat_moments(
        rule, spaces.point_values(rule, lambda x, y, t: fn(x, y))))
    verts = mesh.vertices[loop.vertex_ids]
    assert np.allclose(coefs, fn(verts[:, 0], verts[:, 1]), atol=1e-12)


def check_projection_p1(loop):
    # against a dense solve of the cyclic tridiagonal P1 mass matrix
    h, k = loop.lengths, np.arange(loop.num_panels)
    nxt = (k + 1) % loop.num_panels
    mass = np.zeros((k.size, k.size))
    np.add.at(mass, (k, k), h / 3.0)
    np.add.at(mass, (nxt, nxt), h / 3.0)
    mass[k, nxt] = mass[nxt, k] = h / 6.0
    tail, head = np.cos(7.0 * k), np.sin(5.0 * k) + 2.0
    want = np.linalg.solve(mass, tail + head[k - 1])
    got = spaces.project_boundary_p1(loop, tail, head)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("domain", ["square", "lshape"])
def test_projection_p1_solves_cyclic_mass_system(domain):
    mesh = cli.initial_mesh(domain)
    for _ in range(4):
        check_projection_p1(boundary_loop(mesh))
        mesh = refine_uniform(mesh)


def test_projection_p1_solves_mass_system_with_unequal_panels():
    # an uneven grid, one triangle (P = 3, where the corners of the cyclic
    # mass matrix at offsets +-2 sit next to the bands at +-1) and one
    # rectangle cell of two triangles (P = 4), each loop started at every
    # vertex, so that the panels before and after the loop's first vertex
    # differ in length
    loops = [boundary_loop(mesh_mod._grid_mesh(
        np.array([-0.1, -0.08, -0.03, 0.05, 0.1]), np.ones((4, 4), bool)))]
    assert loops[0].lengths.min() < 0.5 * loops[0].lengths.max()
    for verts, tris in (([[0.0, 0.0], [0.3, 0.0], [0.1, 0.2]], [[0, 1, 2]]),
                        ([[0.0, 0.0], [0.3, 0.0], [0.3, 0.1], [0.0, 0.1]],
                         [[0, 1, 2], [0, 2, 3]])):
        loops.append(boundary_loop(build_mesh(np.array(verts),
                                              np.array(tris))))
        assert loops[-1].num_panels == len(verts)
        assert loops[-1].lengths.min() < 0.8 * loops[-1].lengths.max()
    for loop in loops:
        for shift in range(loop.num_panels):
            check_projection_p1(dataclasses.replace(loop, **{
                f.name: np.roll(getattr(loop, f.name), shift, axis=0)
                for f in dataclasses.fields(loop)}))


def project_boundary_p0(loop, fn, singular_vertex=None,
                        levels=spaces.ERROR_LEVELS):
    """Panelwise means of a scalar boundary function fn(x, y)."""
    rule = spaces.boundary_quadrature(loop, spaces.ERROR_ORDER, levels,
                                      singular_vertex)
    return spaces.panel_means(loop, rule, spaces.point_values(
        rule, lambda x, y, t: fn(x, y)))


def test_projection_p0_means():
    mesh = make_square_mesh(0.1, 1)
    loop = boundary_loop(mesh)
    assert np.allclose(project_boundary_p0(loop, constant_one), 1.0)
    # mean of x over the bottom/top edges is 0, over left/right +-0.1
    means = project_boundary_p0(loop, lambda x, y: x)
    mids = 0.5 * (loop.points_a + loop.points_b)
    assert np.allclose(means, mids[:, 0], atol=1e-13)


def test_projection_p0_flux_constant_field():
    mesh = make_square_mesh(0.1, 1)
    loop = boundary_loop(mesh)
    fn = lambda x, y, nx, ny: 2.0 * nx - 1.0 * ny
    rule = spaces.boundary_quadrature(loop, spaces.ERROR_ORDER,
                                      spaces.ERROR_LEVELS, None)
    means = spaces.panel_means(loop, rule, spaces.normal_flux(loop, fn, rule))
    assert np.allclose(means, 2.0 * loop.normals[:, 0] - loop.normals[:, 1],
                       atol=1e-13)


def test_projection_handles_endpoint_singularity():
    # integrable singularity at a panel endpoint, like the corner flux data
    mesh = make_lshape_mesh(0.25, 1)
    loop = boundary_loop(mesh)
    # panel starting at the origin lies on the positive x axis
    k = int(np.nonzero((np.abs(loop.points_a) < 1e-14).all(axis=1))[0][0])
    fn = lambda x, y: np.where(np.hypot(x, y) > 0,
                               np.hypot(x, y) ** (-1.0 / 3.0), 0.0)
    means = project_boundary_p0(loop, fn, (0.0, 0.0), levels=40)
    h = loop.lengths[k]
    exact = 1.5 * h ** (2.0 / 3.0) / h
    assert means[k] == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize("dense", [False, True])
def test_clique_matrix_sums_blocks_and_dense_block(dense):
    # random cliques with repeated dofs within and across elements and a
    # zero block, against an entrywise accumulation in natural order; the
    # dense block is added by a LevelOperator
    rng = np.random.default_rng(7)
    n, k = 60, 4
    cliques = rng.integers(0, n, size=(50, k))
    cliques[0, 1] = cliques[0, 0]
    blocks = rng.standard_normal((50, k, k))
    blocks[-1] = 0.0
    dofs = rng.choice(n, size=6, replace=False) if dense else []
    block = rng.standard_normal((len(dofs), len(dofs)))
    got = spaces.clique_matrix(cliques, blocks, n)
    op = spaces.LevelOperator(got, dofs, block, [], 0.0, None, None)
    want = np.zeros((n, n))
    covered = np.zeros((n, n), dtype=bool)
    rows = np.repeat(cliques[:, :, None], k, axis=2)
    cols = np.repeat(cliques[:, None, :], k, axis=1)
    np.add.at(want, (rows, cols), blocks)
    covered[rows, cols] = True
    # explicit zeros are kept, so the stored entries are the natural-order
    # sum's; perfbench counts them and the dense block's
    natural = _oracles.clique_matrix(cliques, blocks, [], [], n)
    assert np.any(got.data == 0.0)
    assert got.nnz == natural.nnz == covered.sum()
    assert op.nnz == got.nnz + len(dofs) ** 2
    assert got.format == "csr" and got.has_sorted_indices
    assert np.array_equal(got.indptr, np.r_[0, np.cumsum(covered.sum(1))])
    assert np.array_equal(got.indices, np.nonzero(covered)[1])
    if dense:
        np.add.at(want, np.ix_(dofs, dofs), block)
    natural = _oracles.clique_matrix(cliques, blocks, dofs, block, n)
    # the entrywise bound below, carried through a product
    y = rng.standard_normal(n)
    assert (np.abs(op @ y - natural @ y).max()
            <= 1e-15 * np.abs(want).max() * np.abs(y).sum())
    assert np.abs(op.toarray() - want).max() <= 1e-15 * np.abs(want).max()


def test_clique_matrix_peak_memory_within_its_blocks():
    # the COO values are a view of blocks, so whether the caller holds
    # blocks or passes a temporary, the peak above the blocks is the int32
    # indices, SciPy's sum into CSR and the result: 3.60 times the blocks
    # measured either way (t = 20000, k = 6), 4.60 for a held blocks while
    # the values were a copy
    rng = np.random.default_rng(8)
    t, k = 20000, 6
    cliques = rng.integers(0, t, size=(t, k))
    nbytes = 8 * t * k * k

    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def named():
        blocks = np.ones((t, k, k))
        return spaces.clique_matrix(cliques, blocks, t)

    assert peak(named) <= 3.7 * nbytes
    assert peak(lambda: spaces.clique_matrix(
        cliques, np.ones((t, k, k)), t)) <= 3.7 * nbytes


def rule_moments(loop, rule, data):
    """The hat moments of u0 and of phi0 and the panel means of phi0 by a
    boundary_quadrature rule."""
    phi0 = spaces.normal_flux(loop, data.phi0, rule)
    u0 = spaces.point_values(rule, lambda x, y, t: data.u0(x, y))
    return (*spaces.hat_moments(rule, u0),
            *spaces.hat_moments(rule, phi0),
            spaces.panel_means(loop, rule, phi0))


@pytest.mark.parametrize("domain", ["square", "lshape"])
@pytest.mark.parametrize("order, levels", [
    (spaces.PANEL_ORDER, spaces.DATA_LEVELS),
    (spaces.ERROR_ORDER, spaces.ERROR_LEVELS)])
def test_grouped_boundary_rule_matches_graded_rule(domain, order, levels):
    # Gauss on the panels farther than their own length from the data's
    # singular vertex, graded near it, against the graded rule on every
    # panel, at CLI levels 0-5
    data, _ = cli.manufacture_data(domain)
    mesh = cli.initial_mesh(domain)
    for level in range(6):
        loop = boundary_loop(mesh)
        rule = spaces.boundary_quadrature(loop, order, levels,
                                          data.singular_vertex)
        ref = _oracles.graded_boundary_rule(loop, order, levels)
        got, want = rule_moments(loop, rule, data), rule_moments(loop, ref,
                                                                 data)
        for g, w in zip(got, want):
            assert np.abs(g - w).max() <= 1e-15 * np.abs(w).max(), level
        # the graded panels, those with more than order nodes, keep the
        # graded rule, bit for bit: the two panels at the reentrant corner
        # and their two neighbours
        graded = np.flatnonzero(np.bincount(rule[0]) > order)
        assert graded.size == (4 if domain == "lshape" else 0)
        for g, w in zip(got, want):
            assert np.array_equal(g[graded], w[graded]), level
        mesh = refine_uniform(mesh)


def jittered_levels(domain, seed):
    """CLI levels 1 and 2 of a domain whose coarsest mesh has every
    interior vertex moved by up to 20% of h in each coordinate, so that
    no two elements share a geometry below level 1."""
    mesh = cli.initial_mesh(domain)
    rng = np.random.default_rng(seed)
    move = rng.uniform(-0.2, 0.2, mesh.vertices.shape) * mesh.mesh_size()
    move[mesh.boundary_tails] = 0.0
    coarse = refine_uniform(build_mesh(mesh.vertices + move, mesh.triangles))
    return coarse, refine_uniform(coarse)


@pytest.mark.parametrize("domain", ["square", "lshape"])
def test_p1_prolongation_reproduces_coarse_p1(domain):
    # random coarse vertex values, evaluated on each fine triangle's
    # corners from the barycentrics in its coarse parent t (child 4t + j)
    coarse, fine = jittered_levels(domain, 3)
    u = np.random.default_rng(4).standard_normal(coarse.num_vertices)
    got = spaces.p1_prolongation(coarse, fine) @ u
    parent = np.repeat(np.arange(coarse.num_triangles), 4)
    J, _, Jinv = coarse.element_map()
    corners = coarse.triangle_vertices()[parent]
    ref = np.einsum("tcd,tkd->tkc", Jinv[parent],
                    fine.triangle_vertices() - corners[:, :1])
    bary = np.concatenate([1.0 - ref.sum(axis=2, keepdims=True), ref], axis=2)
    want = np.einsum("tki,ti->tk", bary, u[coarse.triangles[parent]])
    assert np.abs(got[fine.triangles] - want).max() <= 1e-14 * np.abs(u).max()


@pytest.mark.parametrize("domain", ["square", "lshape"])
def test_flux_prolongation_reproduces_constant_field(domain):
    # the fluxes of a constant vector field through the global edge
    # normals, on the edge children and on the edges inside the parents
    coarse, fine = jittered_levels(domain, 5)
    field = np.array([0.7, -1.3])
    got = spaces.flux_prolongation(coarse, fine) @ (coarse.edge_normals
                                                    @ field)
    want = fine.edge_normals @ field
    assert np.abs(got - want).max() <= 1e-13 * np.abs(field).max()
