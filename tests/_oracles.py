"""Reference implementations that tests compare the package against.

`build_mesh` and `refine_uniform` are the original per-side dictionary
loops that derive the edge topology one triangle at a time.  They are
slow but obviously right, and the vectorized versions in `dpgbem.mesh`
must reproduce their arrays exactly.  `square_grid` and `lshape_grid`
are the per-cell loops that built the vertex and triangle arrays of
`make_square_mesh` and `make_lshape_mesh`.

`sparse_B` scatters a `dpg_assembly.BlockOperator` into the global CSR
matrix B, as `assemble_B` once returned it, with the dense 2P x 2P
boundary block of `boundary_block` that the BlockOperator once kept.  `gram_solve_matrix` is the
original per-block loop for G^{-1} B on that CSR matrix: it gathers each
Gram block's rows of B into a dense matrix over the union of their
columns, solves, and scatters back.  `normal_equations` forms the full
A = B^T G^{-1} B and b = B^T G^{-1} ell as one sparse product through
it; the per-block products and the condensed skeleton system of
`dpg_assembly.build_normal_equations` must match it to rounding, and
`scatter_products` puts those per-block products into a full A.
`solve_spd_dense` is the dense Cholesky solve that `solver.solve_spd`
had before it took sparse systems only.

`TestDofLayout` indexes the enriched test space, in the order of the
rows of B, and `gram_apply` multiplies a vector by the block test Gram.

`dpg_assembly` forms the element blocks once per geometry class
(`Mesh.element_classes`) and signs them per element.
`ElementPipeline` is the same DPG operator computed element by element,
as it was before the classes: the signed B blocks, the test Grams, the
products B_T^T G_T^{-1} B_T and G_v,T^{-1} B_v,T, the field condensation,
the load map, B @ x and the energy error.  The class path must reproduce
it exactly.  Its boundary product is the W formula W[:, :-1]^T W,
W = L^{-1} [B_G | ell_G], which `dpg_assembly` once used; the P0 rows
that replaced it must match it to rounding.
`signed_blocks` and `expand_products` expand class blocks and class
products to one per element, and `p1_stiffness` gives the classical
coupling's stiffness blocks formed element by element.
`clique_matrix` is the natural-order CSR sum of element blocks and one
dense block, as `dpgbem.spaces.clique_matrix` formed it before it summed
straight into its elimination order.

The pairwise panel-integral API (`BoundaryPanel`, `slp_panel_integral`,
`dlp_panel_integral` and their helpers) computes one Galerkin block per
panel pair, and `eval_potentials` evaluates layer potentials of callable
densities by adaptive panel subdivision.  Tests check the analytic
formulas and the assembled matrices of `dpgbem.bem` against them.
`slp_inner` and `dlp_inner` are the separate single- and double-layer
panel integrals (six logarithms and three angles per point and panel)
that the fused `dpgbem.bem._layer_inner` must match to rounding.
`eval_single_layer` and `eval_double_layer` take one layer each from
`dpgbem.bem.eval_layers`, and `distance_to_boundary` measures the
distance of points from a loop panel by panel.

`assemble_bem` applies the pair rule of `dpgbem.bem.assemble_bem` one
target panel at a time (the tensor rule on the separated pairs above the
diagonal, mirrored; the analytic inner integral on the near pairs and
the two neighbours); the batched version must reproduce its matrices
exactly.  `assemble_bem_analytic` is the loop it replaced, the analytic
inner integral on every pair, and `tensor_gauss_blocks` the blocks of
every pair by a tensor Gauss rule of any order with the point kernels.
Both assemblers return the double layer K on the hat columns next to
the matrices, which hold only H = M/2 - K, with `hat_mass` the closed
form of the hat masses M.

`jn_full_system` is the classical coupling's full (nv + P) system, as
`dpgbem.jn_reference.assemble_jn` built it before it eliminated the
panel unknowns, with or without the rank-one stabilization; the package
assembles the stabilized system only.

`compatibility_residual` checks that manufactured data satisfy the
compatibility condition int_Omega f + int_Gamma phi0 = 0, with its own
boundary rule (`COMPAT_ORDER`, `COMPAT_LEVELS`).

`map_to_physical` is the reference-to-physical map with the coordinates
on the last axis, (..., q, 2), as `dpgbem.quadrature.map_to_physical`
computed it before it returned the coordinates x and y one by one; the
values must agree exactly.  `graded_boundary_rule` is the boundary rule
that `dpgbem.spaces.boundary_quadrature` once gave every panel, graded
toward both panel ends: the rule graded only near the data's singular
vertex must match it to rounding, and bit for bit on its graded panels.

`interpolate_trial` puts an exact solution into the trial space
(element means, vertex values, edge-mean fluxes), and `eval_trace_p1` is
the linear Lagrange basis on an edge.

`dump_mesh` writes a mesh as plain text.  `mesh_bem` assembles the
boundary matrices of a mesh, which the stage functions take, and
`tangent_loop_geometry` is the boundary panel geometry computed from the
loop tangents, as `dpgbem.mesh.boundary_loop` once did.

`nested_dissection` is the geometric dissection as `dpgbem.solver`
(now `dpgbem.spaces`) first ran it: each level re-sorts every remaining dof by (part, axis
coordinate, other coordinate) and re-gathers every remaining coupling,
and the post-order comes from one final sort of the tree paths.  The
linear-time version must return the same permutation.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from dpgbem import bem, dpg_assembly as da, quadrature, spaces
from dpgbem import jn_reference as jn
from dpgbem.errors import MeshError, NumericalError
from dpgbem.mesh import Mesh, boundary_loop
from dpgbem.spaces import ND_LEAF_SIZE


def build_mesh(vertices, triangles):
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=int)
    v = vertices[triangles]
    d1 = v[:, 1] - v[:, 0]
    d2 = v[:, 2] - v[:, 0]
    areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    if np.any(areas <= 0.0):
        raise MeshError("triangle {} has non-positive area"
                        .format(int(np.argmin(areas))))

    ntri = triangles.shape[0]
    edge_index = {}
    edges = []
    tri_edges = np.empty((ntri, 3), dtype=int)
    tri_edge_signs = np.empty((ntri, 3), dtype=int)
    edge_tris = []
    for t in range(ntri):
        for s in range(3):
            a = int(triangles[t, s])
            b = int(triangles[t, (s + 1) % 3])
            key = (a, b) if a < b else (b, a)
            if key not in edge_index:
                edge_index[key] = len(edges)
                edges.append(key)
                edge_tris.append([t, -1])
            else:
                e = edge_index[key]
                if edge_tris[e][1] != -1:
                    raise MeshError("edge {} shared by >2 triangles"
                                    .format(key))
                edge_tris[e][1] = t
            e = edge_index[key]
            tri_edges[t, s] = e
            tri_edge_signs[t, s] = 1 if (a, b) == key else -1

    edges = np.array(edges, dtype=int)
    edge_tris = np.array(edge_tris, dtype=int)
    tang = vertices[edges[:, 1]] - vertices[edges[:, 0]]
    edge_lengths = np.hypot(tang[:, 0], tang[:, 1])
    tang = tang / edge_lengths[:, None]
    edge_normals = np.stack([tang[:, 1], -tang[:, 0]], axis=1)

    boundary_edges, boundary_tails, boundary_signs = _walk_boundary(
        triangles, edge_tris, tri_edges, tri_edge_signs)
    return Mesh(vertices=vertices, triangles=triangles, edges=edges,
                edge_normals=edge_normals, edge_lengths=edge_lengths,
                tri_edges=tri_edges, tri_edge_signs=tri_edge_signs,
                boundary_edges=boundary_edges,
                boundary_tails=boundary_tails, boundary_signs=boundary_signs)


def _walk_boundary(triangles, edge_tris, tri_edges, tri_edge_signs):
    bnd = np.nonzero(edge_tris[:, 1] < 0)[0]
    if bnd.size == 0:
        raise MeshError("mesh has no boundary")
    tail_of, head_of, sign_of = {}, {}, {}
    for e in bnd:
        t = int(edge_tris[e, 0])
        s = int(np.nonzero(tri_edges[t] == e)[0][0])
        tail_of[e] = int(triangles[t, s])
        head_of[e] = int(triangles[t, (s + 1) % 3])
        sign_of[e] = int(tri_edge_signs[t, s])
    start_at = {tail_of[e]: e for e in bnd}
    if len(start_at) != len(bnd):
        raise MeshError("boundary is not a simple closed loop")

    first = int(bnd.min())
    order = [first]
    cur = head_of[first]
    while cur != tail_of[first]:
        if cur not in start_at:
            raise MeshError("boundary loop is not closed")
        e = start_at[cur]
        order.append(e)
        cur = head_of[e]
    if len(order) != len(bnd):
        raise MeshError("boundary has more than one loop")
    order = np.array(order, dtype=int)
    tails = np.array([tail_of[e] for e in order], dtype=int)
    signs = np.array([sign_of[e] for e in order], dtype=int)
    return order, tails, signs


def square_grid(half_width, n):
    """(vertices, triangles) of the n x n cell square mesh."""
    coords = np.linspace(-half_width, half_width, n + 1)
    idx = lambda i, j: j * (n + 1) + i
    xx, yy = np.meshgrid(coords, coords, indexing="ij")
    vertices = np.stack([xx.ravel(order="F"), yy.ravel(order="F")], axis=1)
    tris = []
    for j in range(n):
        for i in range(n):
            p00, p10 = idx(i, j), idx(i + 1, j)
            p11, p01 = idx(i + 1, j + 1), idx(i, j + 1)
            tris.append((p00, p10, p11))
            tris.append((p00, p11, p01))
    return vertices, np.array(tris, dtype=int)


def lshape_grid(quarter, n):
    """(vertices, triangles) of the L-shape mesh, n x n cells per quarter
    square."""
    s = quarter / n
    index = {}
    vertices = []
    for j in range(-n, n + 1):
        for i in range(-n, n + 1):
            if i > 0 and j < 0:
                continue  # interior of the removed quadrant
            index[(i, j)] = len(vertices)
            vertices.append((i * s, j * s))
    tris = []
    for j in range(-n, n):
        for i in range(-n, n):
            if i >= 0 and j <= -1:
                continue  # cell inside the removed quadrant
            p00, p10 = index[(i, j)], index[(i + 1, j)]
            p11, p01 = index[(i + 1, j + 1)], index[(i, j + 1)]
            tris.append((p00, p10, p11))
            tris.append((p00, p11, p01))
    return np.array(vertices, dtype=float), np.array(tris, dtype=int)


def refine_uniform(mesh):
    vertices = [tuple(p) for p in mesh.vertices]
    mid_index = {}

    def midpoint(a, b):
        key = (a, b) if a < b else (b, a)
        m = mid_index.get(key)
        if m is None:
            m = len(vertices)
            mid_index[key] = m
            pa, pb = mesh.vertices[a], mesh.vertices[b]
            vertices.append(((pa[0] + pb[0]) / 2.0, (pa[1] + pb[1]) / 2.0))
        return m

    tris = []
    for (a, b, c) in mesh.triangles:
        mab = midpoint(a, b)
        mbc = midpoint(b, c)
        mca = midpoint(c, a)
        tris += [(a, mab, mca), (mab, b, mbc), (mca, mbc, c),
                 (mab, mbc, mca)]
    return build_mesh(np.array(vertices, dtype=float),
                      np.array(tris, dtype=int))


def mesh_bem(mesh):
    """The boundary matrices of the mesh's boundary loop, which the solve
    and assembly stages take; the CLI assembles them once per level."""
    return bem.assemble_bem(boundary_loop(mesh))


def tangent_loop_geometry(mesh):
    """Head points, lengths and outward normals of the boundary panels
    from the loop tangents pb - pa, as `dpgbem.mesh.boundary_loop`
    computed them before it read the mesh's edge data."""
    e, tails = mesh.boundary_edges, mesh.boundary_tails
    ends = mesh.edges[e]
    heads = np.where(ends[:, 0] == tails, ends[:, 1], ends[:, 0])
    pa, pb = mesh.vertices[tails], mesh.vertices[heads]
    tang = pb - pa
    lengths = np.hypot(tang[:, 0], tang[:, 1])
    tang = tang / lengths[:, None]
    return pb, lengths, np.stack([tang[:, 1], -tang[:, 0]], axis=1)


def boundary_block(B):
    """The dense boundary block [V_ps D | H] (2P, 2P) of a BlockOperator
    on its gamma_cols, D = diag(loop.signs): a global flux dof s_e
    restricts to sign * s_e on Gamma."""
    return np.column_stack([B.bem.V_ps * B.bem.loop.signs[None, :],
                            B.bem.H])


def sparse_B(B):
    """The global CSR matrix of a BlockOperator (rows: test dofs,
    columns: trial dofs), explicit zeros included."""
    local = signed_blocks(B)
    ntri = local.shape[0]
    tri = np.arange(ntri)
    rows = np.empty((ntri, 18), dtype=int)
    rows[:, 0:6] = 6 * tri[:, None] + np.arange(6)[None, :]
    rows[:, 6:18] = 6 * ntri + 12 * tri[:, None] + np.arange(12)[None, :]
    r = np.repeat(rows[:, :, None], 9, axis=2).ravel()
    c = np.repeat(B.cols[:, None, :], 18, axis=1).ravel()
    n = B.gamma_cols.size
    rb = np.repeat(18 * ntri + np.arange(n), n)
    return scipy.sparse.coo_matrix(
        (np.concatenate([local.ravel(), boundary_block(B).ravel()]),
         (np.concatenate([r, rb]),
          np.concatenate([c, np.tile(B.gamma_cols, n)]))),
        shape=B.shape).tocsr()


@dataclass(frozen=True)
class TestDofLayout:
    """Index map for the enriched test space (v, tau, psi).

    Global ordering: 6 scalar P2 dofs per triangle, then 12 vector P2 dofs
    per triangle (node-major, components interleaved), then 2 boundary-trace
    dofs per boundary panel in loop order.
    """

    n_tri: int
    n_bedge: int

    @classmethod
    def from_mesh(cls, mesh):
        return cls(mesh.num_triangles, mesh.num_boundary_edges)

    @property
    def dim(self):
        return 18 * self.n_tri + 2 * self.n_bedge

    def v(self, tri, node):
        return 6 * tri + node

    def tau(self, tri, node, comp):
        return 6 * self.n_tri + 12 * tri + 2 * node + comp

    def psi(self, panel, node):
        return 18 * self.n_tri + 2 * panel + node


def gram_apply(G, vec):
    """G @ vec for a dpg_assembly.BlockGram."""
    rv, rt, rp = G._parts(np.asarray(vec, dtype=float))
    return np.concatenate([
        np.einsum("tij,tj->ti", G.Gv[G.cls], rv).ravel(),
        np.einsum("tij,tj->ti", G.Gtau[G.cls], rt).ravel(),
        G.bem.G_psi @ rp])


def gram_solve_matrix(G, B):
    B = B.tocsr()
    nt = G.n_tri
    rows, cols, data = [], [], []

    def solve_block(solve, r0, bs):
        i0, i1 = B.indptr[r0], B.indptr[r0 + bs]
        if i0 == i1:
            return
        uniq, inv = np.unique(B.indices[i0:i1], return_inverse=True)
        loc = np.zeros((bs, uniq.size))
        rep = np.repeat(np.arange(bs), np.diff(B.indptr[r0:r0 + bs + 1]))
        loc[rep, inv] = B.data[i0:i1]
        rr, cc = np.meshgrid(np.arange(r0, r0 + bs), uniq, indexing="ij")
        rows.append(rr.ravel())
        cols.append(cc.ravel())
        data.append(solve(loc).ravel())

    for t in range(nt):
        solve_block(lambda loc: np.linalg.solve(G.Gv[G.cls[t]], loc),
                    6 * t, 6)
    for t in range(nt):
        solve_block(lambda loc: np.linalg.solve(G.Gtau[G.cls[t]], loc),
                    6 * nt + 12 * t, 12)
    solve_block(G.bem.solve_gpsi, 18 * nt, G.bem.G_psi.shape[0])
    W = scipy.sparse.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=B.shape)
    return W.tocsr()


def normal_equations(B, G, ell):
    """Full (A, b) of a BlockOperator B through the loop G^{-1} B."""
    Bs = sparse_B(B)
    return (Bs.T @ gram_solve_matrix(G, Bs)).tocsr(), Bs.T @ G.solve_vec(ell)


def solve_spd_dense(A, b):
    """Dense Cholesky solve with one step of iterative refinement, as
    `solver.solve_spd` once did for dense input (its residual checks are
    left out); an indefinite A raises NumericalError ('system not SPD')."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    try:
        cho = scipy.linalg.cho_factor(A)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError("system not SPD") from exc
    x = scipy.linalg.cho_solve(cho, b)
    return x + scipy.linalg.cho_solve(cho, b - A @ x)


def scatter_products(B, a, g):
    """Full (A, b) from the per-element products a (T, 9, 10) and the
    boundary product g (2P, 2P + 1) of B^T G^{-1} [B | ell]."""
    n = B.shape[1]
    gc = B.gamma_cols
    A = scipy.sparse.coo_matrix(
        (np.concatenate([a[..., :9].ravel(), g[:, :-1].ravel()]),
         (np.concatenate([np.repeat(B.cols, 9, axis=1).ravel(),
                          np.repeat(gc, gc.size)]),
          np.concatenate([np.tile(B.cols, 9).ravel(), np.tile(gc, gc.size)]))),
        shape=(n, n)).tocsr()
    b = np.bincount(np.concatenate([B.cols.ravel(), gc]), minlength=n,
                    weights=np.concatenate([a[..., 9].ravel(), g[:, -1]]))
    return A, b


def signed_blocks(B):
    """The (T, 18, 9) B block of every element of a BlockOperator: its
    class block with the sighat columns times the element's edge signs."""
    return B.local[B.cls] * B.signs[:, None, :]


def expand_products(B, a, b):
    """Per-element products (T, 9, 10) of B_T^T G_T^{-1} [B_T | ell_T]
    from the class products a (C, 9, 9) and the load columns b (T, 9)."""
    s = B.signs
    return np.concatenate([a[B.cls] * s[:, :, None] * s[:, None, :],
                           b[..., None]], axis=2)


# ----------------------------------------------------------------------
# the DPG element pipeline, element by element
# ----------------------------------------------------------------------

@dataclass
class ElementPipeline:
    """The DPG operator kept per element, as `dpg_assembly` computed it
    before it grouped the elements into geometry classes: the signed B
    block of every element (T, 18, 9), its test Grams (T, 6, 6) and
    (T, 12, 12), and the trial columns and boundary block of the
    BlockOperator B it stands for."""

    local: np.ndarray
    Gv: np.ndarray
    Gtau: np.ndarray
    B: object
    bem: object

    @classmethod
    def from_mesh(cls, mesh, B, G):
        detJ, Jinv = mesh.element_map()[1:]
        gphys = np.einsum("qid,tdc->tqic", da._P2_GRADS, Jinv)
        ntri = mesh.num_triangles
        loc = np.zeros((ntri, 18, 9))
        int_grad = (np.einsum("q,tqic->tic", da._VOL_W, gphys)
                    * detJ[:, None, None])
        int_val = (np.einsum("q,qi->i", da._VOL_W, da._P2_VALS)[None, :]
                   * detJ[:, None])
        loc[:, 0:6, 0] = int_grad[:, :, 0]
        loc[:, 0:6, 1] = int_grad[:, :, 1]
        loc[:, 6:18:2, 0] = int_val
        loc[:, 7:18:2, 1] = int_val
        loc[:, 6:18, 2] = int_grad.reshape(ntri, 12)
        h_e = mesh.edge_lengths[mesh.tri_edges]
        n_e = mesh.edge_normals[mesh.tri_edges]
        sgn = mesh.tri_edge_signs.astype(float)
        n_out = sgn[:, :, None] * n_e
        mom_v = np.einsum("q,sqi->si", da._EDGE_W, da._P2_EDGE)
        mom_hv = np.einsum("q,sqj,sqi->sji", da._EDGE_W, da._HAT_EDGE,
                           da._P2_EDGE)
        loc[:, 0:6, 6:9] = -(sgn * h_e)[:, None, :] * mom_v.T[None]
        for s in range(3):
            contrib = h_e[:, s, None, None] * mom_hv[s].T[None]
            loc[:, 6:18, 3:6] -= (contrib[:, :, None, :]
                                  * n_out[:, s, None, :, None]
                                  ).reshape(ntri, 12, 3)

        w = da._VOL_W
        mass = np.einsum("q,qi,qj->ij", w, da._P2_VALS, da._P2_VALS)
        Gv = (np.einsum("q,tqic,tqjc->tij", w, gphys, gphys)
              + mass[None]) * detJ[:, None, None]
        div = gphys.reshape(ntri, w.size, 12)
        Gtau = (np.kron(mass, np.eye(2))[None] * detJ[:, None, None]
                + np.einsum("q,tqa,tqb->tab", w, div, div)
                * detJ[:, None, None])
        return cls(local=loc, Gv=Gv, Gtau=Gtau, B=B, bem=G.bem)

    def _parts(self, vec):
        nt = self.local.shape[0]
        return (vec[:6 * nt].reshape(nt, 6),
                vec[6 * nt:18 * nt].reshape(nt, 12),
                vec[18 * nt:])

    def apply_B(self, x):
        """B @ x; the boundary rows as the BlockOperator forms them."""
        x = np.asarray(x, dtype=float)
        y = np.einsum("tij,tj->ti", self.local, x[self.B.cols])
        xg, P = x[self.B.gamma_cols], self.bem.loop.num_panels
        return np.concatenate([
            y[:, :6].ravel(), y[:, 6:].ravel(),
            self.bem.V_ps @ (self.bem.loop.signs * xg[:P])
            + self.bem.H @ xg[P:]])

    def quadratic(self, vec):
        """vec . G^{-1} vec, with the inverse of each element's own Gram
        blocks."""
        rv, rt, rp = self._parts(np.asarray(vec, dtype=float))
        sv = np.einsum("tij,tj->ti", np.linalg.inv(self.Gv), rv)
        st = np.einsum("tij,tj->ti", np.linalg.inv(self.Gtau), rt)
        return float(np.dot(vec, np.concatenate([
            sv.ravel(), st.ravel(), self.bem.solve_gpsi(rp)])))

    def energy_error(self, ell, x):
        r = ell - self.apply_B(x)
        return float(np.sqrt(max(self.quadratic(r), 0.0)))

    def gram_products(self, ell):
        """B_T^T G_T^{-1} B_T (T, 9, 9) and Z_T = G_v,T^{-1} B_v,T
        (T, 6, 9) per element, and B_G^T G_G^{-1} [B_G | ell_G]
        (2P, 2P + 1) for the boundary."""
        eg = self._parts(np.asarray(ell, dtype=float))[2]
        bv, bt = self.local[:, :6], self.local[:, 6:]
        Z = np.linalg.solve(self.Gv, bv)
        a = np.swapaxes(bv, 1, 2) @ Z
        a += np.swapaxes(bt, 1, 2) @ np.linalg.solve(self.Gtau, bt)
        # the boundary block through W = L^{-1} [B_G | ell_G]
        w = scipy.linalg.solve_triangular(
            self.bem.G_psi_chol, np.column_stack([boundary_block(self.B), eg]),
            lower=True)
        return a, Z, w[:, :-1].T @ w

    def normal_equations(self, ell, g, order):
        """(S, c, recover) as `build_normal_equations` returns them, with
        the field condensation and the load map done per element, on the
        boundary product g (2P, 2P + 1), in the elimination order `order`
        of the skeleton dofs: the indices are mapped into it before the
        sum, as `spaces.clique_matrix` does.  The H(div) block of ell is
        zero, so element t's field values and condensed load are
        [A_ff^{-1} Z_f^T ; Z_s^T - Y^T Z_f^T] ell_v,T with its own Z_T
        and Y_T = A_ff^{-1} A_fs."""
        B = self.B
        ev, et, _ = self._parts(np.asarray(ell, dtype=float))
        assert not et.any()
        a, Z, _ = self.gram_products(ell)
        Y = np.linalg.solve(a[:, :3, :3], a[:, :3, 3:])
        loc = a[:, 3:, 3:] - np.einsum("tfi,tfj->tij", a[:, :3, 3:], Y)
        zT = np.swapaxes(Z, 1, 2)
        load = np.einsum("tij,tj->ti", np.concatenate([
            np.linalg.solve(a[:, :3, :3], zT[:, :3]),
            zT[:, 3:] - np.swapaxes(Y, 1, 2) @ zT[:, :3]], axis=1), ev)
        nf = 3 * self.local.shape[0]
        ns = B.shape[1] - nf
        skel = B.cols[:, 3:] - nf
        gcols = B.gamma_cols - nf
        at = np.argsort(order)
        S = scipy.sparse.coo_matrix(
            (np.concatenate([loc.ravel(), g[:, :-1].ravel()]),
             (np.concatenate([np.repeat(at[skel], 6, axis=1).ravel(),
                              np.repeat(at[gcols], gcols.size)]),
              np.concatenate([np.tile(at[skel], 6).ravel(),
                              np.tile(at[gcols], gcols.size)]))),
            shape=(ns, ns)).tocsc()
        c = np.bincount(np.concatenate([skel.ravel(), gcols]), minlength=ns,
                        weights=np.concatenate([load[:, 3:].ravel(),
                                                g[:, -1]]))[order]
        fld = B.cols[:, :3]

        def recover(y):
            x = np.empty(B.shape[1])
            x[nf + order] = y
            x[fld] = load[:, :3] - np.einsum("tfj,tj->tf", Y, x[nf + skel])
            return x

        return S, c, recover


def clique_matrix(cliques, blocks, dense_dofs, dense, n):
    """CSR matrix of order n: element t adds blocks[t] (k, k) on its dofs
    cliques[t] (k,), and dense (m, m) is added on the m dofs dense_dofs,
    summed in natural dof order."""
    cliques = np.asarray(cliques, dtype=np.int32)
    dense_dofs = np.asarray(dense_dofs, dtype=np.int32)
    k, m = cliques.shape[1], dense_dofs.size
    return scipy.sparse.coo_matrix(
        (np.concatenate([blocks.ravel(), np.ravel(dense)]),
         (np.concatenate([np.repeat(cliques, k, axis=1).ravel(),
                          np.repeat(dense_dofs, m)]),
          np.concatenate([np.tile(cliques, k).ravel(),
                          np.tile(dense_dofs, m)]))),
        shape=(n, n)).tocsr()


def p1_stiffness(mesh):
    """P1 stiffness blocks (T, 3, 3) formed element by element, as
    `jn_reference._p1_stiffness` did before the geometry classes."""
    g = mesh.hat_gradients()
    return (np.einsum("tic,tjc->tij", g, g)
            * (0.5 * mesh.element_map()[1])[:, None, None])


@dataclass(frozen=True)
class BoundaryPanel:
    """One straight boundary panel with its outward unit normal."""

    a: np.ndarray
    b: np.ndarray
    length: float
    normal: np.ndarray
    global_index: int = -1

    @classmethod
    def from_endpoints(cls, a, b, global_index=-1):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        d = b - a
        length = float(np.hypot(*d))
        if length <= 0.0:
            raise MeshError("degenerate panel")
        t = d / length
        return cls(a=a, b=b, length=length,
                   normal=np.array([t[1], -t[0]]), global_index=global_index)


def panels_from_loop(loop):
    """Panels of a boundary loop, in loop order."""
    return [BoundaryPanel(a=loop.points_a[k], b=loop.points_b[k],
                          length=float(loop.lengths[k]),
                          normal=loop.normals[k],
                          global_index=int(loop.edge_ids[k]))
            for k in range(loop.num_panels)]


def _panel_relation(p, q, tol=1e-12):
    """Classify a panel pair: 'coincident', 'shared' (+ which endpoint of p),
    'overlap' (invalid), or 'separate'."""
    scale = max(p.length, q.length)
    same = (np.allclose(p.a, q.a, atol=tol * scale) and
            np.allclose(p.b, q.b, atol=tol * scale))
    flipped = (np.allclose(p.a, q.b, atol=tol * scale) and
               np.allclose(p.b, q.a, atol=tol * scale))
    if same or flipped:
        return "coincident", None
    d = p.b - p.a
    cr_a = d[0] * (q.a[1] - p.a[1]) - d[1] * (q.a[0] - p.a[0])
    cr_b = d[0] * (q.b[1] - p.a[1]) - d[1] * (q.b[0] - p.a[0])
    collinear = max(abs(cr_a), abs(cr_b)) <= tol * scale * scale
    if collinear:
        t = d / p.length ** 2
        ta = float((q.a - p.a) @ t) * p.length
        tb = float((q.b - p.a) @ t) * p.length
        lo, hi = min(ta, tb), max(ta, tb)
        if lo < p.length - tol * scale and hi > tol * scale:
            raise MeshError("overlapping, non-identical panels")
    for end, pt in ((0, p.a), (1, p.b)):
        if (np.allclose(pt, q.a, atol=tol * scale)
                or np.allclose(pt, q.b, atol=tol * scale)):
            return "shared", end
    return "separate", None


def _panels_collinear(p, q, tol=1e-12):
    scale = max(p.length, q.length)
    d = p.b - p.a
    cr_a = d[0] * (q.a[1] - p.a[1]) - d[1] * (q.a[0] - p.a[0])
    cr_b = d[0] * (q.b[1] - p.a[1]) - d[1] * (q.b[0] - p.a[0])
    return max(abs(cr_a), abs(cr_b)) <= tol * scale * scale


def _outer_rule(relation, shared_end, p, q, order):
    if relation == "shared":
        x, w = quadrature.graded01(order, bem.NEIGHBOUR_LEVELS)
        return (1.0 - x if shared_end == 1 else x), w
    gap = _panel_gap(p, q)
    if gap < max(p.length, q.length):
        return quadrature.gauss01(2 * order)
    return quadrature.gauss01(max(order, 8))


def _panel_gap(p, q):
    t, _ = quadrature.gauss01(4)
    xs = p.a + t[:, None] * (p.b - p.a)
    ys = q.a + t[:, None] * (q.b - q.a)
    d = xs[:, None, :] - ys[None, :, :]
    return float(np.sqrt((d ** 2).sum(-1)).min())


def coincident_slp_block(h, order_a, order_b):
    # from int_0^1 int_0^1 log|s-t| s^m t^n = -3/2, -3/4, -3/4, -7/16
    L = np.log(h)
    c = h * h / bem.TWO_PI
    if order_a == 0 and order_b == 0:
        return np.array([[c * (1.5 - L)]])
    if order_a == 0 and order_b == 1:
        return np.full((1, 2), c * (0.75 - 0.5 * L))
    if order_a == 1 and order_b == 0:
        return np.full((2, 1), c * (0.75 - 0.5 * L))
    diag = c * (7.0 / 16.0 - 0.25 * L)
    off = c * (5.0 / 16.0 - 0.25 * L)
    return np.array([[diag, off], [off, diag]])


def _test_weights(order, t, w, h):
    if order == 0:
        return np.ones((1, t.size)) * (w * h)
    return np.stack([1.0 - t, t]) * (w * h)


def slp_inner(u, v, h):
    """Exact integrals of log|x - y(t)| and t*log|x - y(t)| for t in [0, h].

    y(t) runs along the panel; (u, v) are the local coordinates of x.
    Returns (J0, J1); the physical single-layer moments are -J/(2 pi).
    """
    vsafe = np.where(v != 0.0, v, 1.0)

    def F(s):
        R = s * s + v * v
        Rsafe = np.where(R > 0.0, R, 1.0)
        slog = np.where(R > 0.0, s * np.log(Rsafe), 0.0)
        at = np.where(v != 0.0, v * np.arctan(s / vsafe), 0.0)
        return slog - 2.0 * s + 2.0 * at

    def G2(s):
        R = s * s + v * v
        lg = np.log(np.where(R > 0.0, R, 1.0))
        return 0.5 * (R * lg - s * s)

    sb, sa = h - u, -u
    J0 = 0.5 * (F(sb) - F(sa))
    J1 = 0.5 * (G2(sb) - G2(sa)) + u * J0
    return J0, J1


def dlp_inner(u, v, h):
    """Exact integrals of the double-layer kernel times 1 and t over a
    panel: kernel (x - y).n(y) / (2 pi |x - y|^2).

    Returns (D0, D1) already including the 1/(2 pi) factor.  For v == 0
    (x on the panel's line) the principal value is zero.
    """
    theta = np.arctan2(v * h, v * v - u * (h - u))
    Ra = u * u + v * v
    Rb = (h - u) ** 2 + v * v
    ok = (Ra > 0.0) & (Rb > 0.0)
    # log Rb - log Ra: the quotient Rb / Ra overflows near a vertex
    lr = np.where(ok, np.log(np.where(Rb > 0.0, Rb, 1.0))
                  - np.log(np.where(Ra > 0.0, Ra, 1.0)), 0.0)
    Q0 = theta
    Q1 = 0.5 * v * lr + u * theta
    on_line = (v == 0.0)
    D0 = np.where(on_line, 0.0, Q0 / bem.TWO_PI)
    D1 = np.where(on_line, 0.0, Q1 / bem.TWO_PI)
    return D0, D1


def assemble_bem_analytic(loop, quad_order=8):
    """The analytic inner integral on every panel pair, one target panel
    at a time.  Returns the matrices and the double layer K on the hat
    columns (2P, P)."""
    P = loop.num_panels
    pa, pb = loop.points_a, loop.points_b
    lengths = loop.lengths
    order_far = max(16, 2 * quad_order)
    t_far, w_far = quadrature.gauss01(order_far)
    t_gr, w_gr = quadrature.graded01(quad_order, bem.NEIGHBOUR_LEVELS)

    G = np.zeros((2 * P, 2 * P))
    K = np.zeros((2 * P, P))
    nb = np.arange(P)
    prev = (nb - 1) % P
    nxt = (nb + 1) % P

    for i in range(P):
        # far-field pass for all source panels at the target's Gauss nodes
        xs = pa[i] + t_far[:, None] * (pb[i] - pa[i])
        Sb, Db = bem._layer_basis(xs, pa, pb, lengths)   # (q, P, 2)
        tw = _test_weights(1, t_far, w_far, lengths[i])  # (2, q)
        Gblk = np.einsum("aq,qjb->ajb", tw, Sb)
        Kblk = np.einsum("aq,qjb->ajb", tw, Db)

        # graded fix-up for the neighbours sharing a vertex with panel i
        for j, end in ((int(prev[i]), 0), (int(nxt[i]), 1)):
            tt = t_gr if end == 0 else 1.0 - t_gr
            xs_n = pa[i] + tt[:, None] * (pb[i] - pa[i])
            Sn, Dn = (m[:, 0, :] for m in bem._layer_basis(
                xs_n, pa[j][None], pb[j][None], lengths[j][None]))
            twn = _test_weights(1, tt, w_gr, lengths[i])
            Gblk[:, j, :] = twn @ Sn
            Kblk[:, j, :] = twn @ Dn

        # closed form on the panel itself; own double layer vanishes
        Gblk[:, i, :] = coincident_slp_block(lengths[i], 1, 1)
        Kblk[:, i, :] = 0.0

        rows = slice(2 * i, 2 * i + 2)
        G[rows, :] = Gblk.reshape(2, 2 * P)
        np.add.at(K[rows, :], (slice(None), nb), Kblk[:, :, 0])
        np.add.at(K[rows, :], (slice(None), nxt), Kblk[:, :, 1])
    return bem_matrices(loop, G, K), K


def assemble_bem(loop):
    """The pair rule of `dpgbem.bem.assemble_bem`, one target panel at a
    time: the tensor rule on the separated pairs (j > i, mirrored), the
    analytic inner integral on the near pairs and on the two neighbours,
    the closed form on the panel itself; then the mean of both
    orientations on the near and neighbour single-layer blocks.  Returns
    the matrices and the double layer K on the hat columns (2P, P)."""
    P = loop.num_panels
    pa, pb, lengths = loop.points_a, loop.points_b, loop.lengths
    idx = np.arange(P)
    prev, nxt = (idx - 1) % P, (idx + 1) % P
    mid, half = np.ascontiguousarray(0.5 * (pa + pb).T), 0.5 * lengths
    t4, w4 = quadrature.gauss01(bem.FAR_ORDER)
    nodes = pa.T[:, None] + t4[:, None] * (pb - pa).T[:, None]
    t16, w16 = quadrature.gauss01(2 * spaces.PANEL_ORDER)
    t_gr, w_gr = quadrature.graded01(spaces.PANEL_ORDER,
                                      bem.NEIGHBOUR_LEVELS)
    rules = [(t, bem._basis_weights(t, w)) for t, w in
             ((t4, w4), (t16, w16), (t_gr, w_gr), (1.0 - t_gr, w_gr))]

    G = np.zeros((P, 2, P, 2))
    D = np.zeros((P, 2, P, 2))
    paired = np.zeros((P, P), dtype=bool)       # near pairs and neighbours
    for i in range(P):
        s = bem._separation(mid, half, lengths, i, idx)
        far = np.flatnonzero((s >= bem.FAR_RATIO) & (idx > i))
        if far.size:
            g, dij, dji = bem._far_blocks(nodes, rules[0][1], loop,
                                          slice(i, i + 1), far)
            G[i, :, far] = g[:, :, 0].transpose(2, 0, 1)
            G[far, :, i] = g[:, :, 0].transpose(2, 1, 0)
            D[i, :, far] = dij[:, :, 0].transpose(2, 0, 1)
            D[far, :, i] = dji[:, :, 0].transpose(2, 1, 0)
        near = np.flatnonzero((s < bem.FAR_RATIO) & (idx != i)
                              & (idx != prev[i]) & (idx != nxt[i]))
        for (t, bw), j in ((rules[1], near), (rules[2], prev[i:i + 1]),
                           (rules[3], nxt[i:i + 1])):
            if j.size:
                g, dl = bem._inner_blocks(t, bw, loop, np.full(j.size, i), j)
                G[i, :, j] = g
                D[i, :, j] = dl
                paired[i, j] = True
        G[i, :, i] = bem._coincident_slp_block(lengths[i])
        D[i, :, i] = 0.0

    A = G.copy()
    for i, j in zip(*np.nonzero(paired)):
        G[i, :, j] = 0.5 * (A[i, :, j] + A[j, :, i].T)
    K = np.empty((2 * P, P))
    for i in range(P):
        for a in range(2):
            K[2 * i + a] = D[i, a, :, 0] + D[i, a, prev, 1]
    return bem_matrices(loop, G.reshape(2 * P, 2 * P), K), K


def hat_mass(loop):
    """The hat masses M (2P, P), <uhat_j, psi_i> for the 2P
    discontinuous-P1 test functions psi_i and the P boundary vertex hats
    uhat_j: h/3 at the panel end of the test function, h/6 at the other."""
    P = loop.num_panels
    idx = np.arange(P)
    nxt = (idx + 1) % P
    M = np.zeros((2 * P, P))
    M[2 * idx, idx] = loop.lengths / 3.0
    M[2 * idx, nxt] = loop.lengths / 6.0
    M[2 * idx + 1, idx] = loop.lengths / 6.0
    M[2 * idx + 1, nxt] = loop.lengths / 3.0
    return M


def bem_matrices(loop, G, K):
    """The boundary matrices from the single-layer Gram G (2P, 2P) and
    the double layer K on the hat columns (2P, P): V_ps sums G's hat
    pairs, and H = M/2 - K."""
    return bem.BemMatrices(loop=loop, V_ps=G[:, 0::2] + G[:, 1::2],
                           H=0.5 * hat_mass(loop) - K, G_psi=G)


def tensor_gauss_blocks(loop, order):
    """Single- and double-layer Galerkin blocks of every panel pair by the
    order x order tensor Gauss rule with the point kernels, one target
    panel at a time: G[i, a, j, b] and D[i, a, j, b] for target i with
    basis a and source j with basis b.  Accurate for separated pairs only;
    the coincident pairs come out infinite."""
    P = loop.num_panels
    pa, pb, lengths, normals = (loop.points_a, loop.points_b, loop.lengths,
                                loop.normals)
    t, w = quadrature.gauss01(order)
    basis = np.stack([1.0 - t, t]) * w
    ys = pa[:, None] + t[None, :, None] * (pb - pa)[:, None]     # (P, q, 2)
    G = np.empty((P, 2, P, 2))
    D = np.empty((P, 2, P, 2))
    for i in range(P):
        xs = pa[i] + t[:, None] * (pb[i] - pa[i])                 # (q, 2)
        r = xs[:, None, None, :] - ys[None]                       # (q, P, q, 2)
        r2 = (r * r).sum(axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            slp = -np.log(r2) / (2.0 * bem.TWO_PI)
            dlp = (r * normals[None, :, None, :]).sum(axis=-1) / (bem.TWO_PI * r2)
        hh = lengths[i] * lengths[None, :, None]
        G[i] = np.einsum("ap,pjq,bq->ajb", basis, slp, basis) * hh
        D[i] = np.einsum("ap,pjq,bq->ajb", basis, dlp, basis) * hh
    return G, D


def slp_panel_integral(panel_a, panel_b, order_a, order_b):
    """Galerkin single-layer block between two panels,
    entries int_a int_b G(x - y) test_i(x) trial_j(y).

    order 0 is the constant basis (one function), order 1 the two linear
    Lagrange functions along the panel.
    """
    relation, end = _panel_relation(panel_a, panel_b)
    if relation == "coincident":
        return coincident_slp_block(panel_a.length, order_a, order_b)
    t, w = _outer_rule(relation, end, panel_a, panel_b, 8)
    xs = panel_a.a + t[:, None] * (panel_a.b - panel_a.a)
    inner = bem._layer_basis(xs, panel_b.a[None, :], panel_b.b[None, :],
                             np.array([panel_b.length]))[0][:, 0, :]
    if order_b == 0:
        inner = inner.sum(axis=1, keepdims=True)
    tw = _test_weights(order_a, t, w, panel_a.length)
    return tw @ inner


def dlp_panel_integral(panel_x, panel_y, order_x=1, order_y=1):
    """Galerkin double-layer block: entries
    int_x int_y [(x - y).n(y) / (2 pi |x - y|^2)] test_i(x) trial_j(y).

    Exactly zero for collinear (including coincident) panel pairs.
    """
    relation, end = _panel_relation(panel_x, panel_y)
    nx = 1 if order_x == 0 else 2
    ny = 1 if order_y == 0 else 2
    if relation == "coincident" or _panels_collinear(panel_x, panel_y):
        return np.zeros((nx, ny))
    t, w = _outer_rule(relation, end, panel_x, panel_y, 8)
    xs = panel_x.a + t[:, None] * (panel_x.b - panel_x.a)
    inner = bem._layer_basis(xs, panel_y.a[None, :], panel_y.b[None, :],
                             np.array([panel_y.length]))[1][:, 0, :]
    if order_y == 0:
        inner = inner.sum(axis=1, keepdims=True)
    tw = _test_weights(order_x, t, w, panel_x.length)
    return tw @ inner


def eval_potentials(loop, density_slp, density_dlp, point, side,
                    quad_order=8):
    """Evaluate S(density_slp)(x) + D(density_dlp)(x) at a point off the
    boundary.

    Densities may be panelwise coefficient arrays ((P,) constants for the
    single layer, (P, 2) linear endpoint values for the double layer) or
    callables f(x, y), which are integrated panelwise with Gauss rules,
    subdividing panels that are closer to the point than their own
    length.  A density of None contributes nothing.

    Raises ValueError if the point lies on the boundary or on the side
    other than the one stated.
    """
    point = np.asarray(point, dtype=float)
    loc = bem.point_location(loop, point[None])[0]
    if loc == "boundary":
        raise ValueError("evaluation point lies on the boundary")
    if side not in ("interior", "exterior"):
        raise ValueError("side must be 'interior' or 'exterior'")
    if loc != side:
        raise ValueError("point is {} but side='{}' was stated".format(loc, side))
    total = 0.0
    for density, kind in ((density_slp, "slp"), (density_dlp, "dlp")):
        if density is None:
            continue
        if callable(density):
            total += _numeric_layer_eval(loop, density, point, kind, quad_order)
        else:
            fn = eval_single_layer if kind == "slp" else eval_double_layer
            total += float(fn(loop, density, point[None, :])[0])
    return float(total)


def eval_single_layer(loop, density, points):
    """Single-layer potential of panel constants (P,), see
    bem.eval_layers."""
    return bem.eval_layers(loop, density, np.zeros((density.size, 2)),
                           points)[0]


def eval_double_layer(loop, density, points):
    """Double-layer potential of panel endpoint values (P, 2), see
    bem.eval_layers."""
    return bem.eval_layers(loop, np.zeros(len(density)), density, points)[1]


def distance_to_boundary(loop, points):
    """Distance of each point (n, 2) from the loop: the nearest point of
    each panel segment, the closest of them."""
    points = np.asarray(points, dtype=float)
    pa, d = loop.points_a, loop.points_b - loop.points_a
    r = points[:, None, :] - pa[None]
    s = np.clip((r * d).sum(axis=-1) / (d * d).sum(axis=-1), 0.0, 1.0)
    return np.linalg.norm(r - s[..., None] * d, axis=-1).min(axis=1)


def _numeric_layer_eval(loop, fn, point, kind, order):
    total = 0.0
    for k in range(loop.num_panels):
        pa, pb = loop.points_a[k], loop.points_b[k]
        nrm = loop.normals[k]
        pieces = [(pa, pb)]
        # split panels lying closer than their own length
        for _ in range(40):
            new = []
            again = False
            for (a, b) in pieces:
                ln = float(np.hypot(*(b - a)))
                mid = 0.5 * (a + b)
                dist = min(np.hypot(*(point - a)), np.hypot(*(point - b)),
                           np.hypot(*(point - mid)))
                if dist < ln:
                    new += [(a, mid), (mid, b)]
                    again = True
                else:
                    new.append((a, b))
            pieces = new
            if not again:
                break
        t, w = quadrature.gauss01(max(order, 8))
        for (a, b) in pieces:
            ln = float(np.hypot(*(b - a)))
            ys = a + t[:, None] * (b - a)
            vals = fn(ys[:, 0], ys[:, 1])
            d = point[None, :] - ys
            r2 = (d ** 2).sum(axis=1)
            if kind == "slp":
                ker = -np.log(r2) / (2.0 * bem.TWO_PI)
            else:
                ker = (d @ nrm) / (bem.TWO_PI * r2)
            total += ln * np.dot(w, vals * ker)
    return total


def eval_trace_p1(t):
    """Linear Lagrange basis on an edge, parameter t in [0, 1]: (1-t, t)."""
    t = np.asarray(t, dtype=float)
    return np.stack([1.0 - t, t], axis=-1)


def map_to_physical(verts, pts):
    """Reference points pts (q, 2) mapped into the triangles verts
    (..., 3, 2); points of shape (..., q, 2)."""
    verts = np.asarray(verts, dtype=float)
    v0 = verts[..., 0, :]
    e1 = verts[..., 1, :] - v0
    e2 = verts[..., 2, :] - v0
    return (v0[..., None, :]
            + pts[:, 0, None] * e1[..., None, :]
            + pts[:, 1, None] * e2[..., None, :])


def graded_boundary_rule(loop, order, levels):
    """The rule graded toward both panel ends, quadrature.graded01_both,
    on every panel of a loop, as a boundary_quadrature node set."""
    t, w = quadrature.graded01_both(order, levels)
    panel = np.repeat(np.arange(loop.num_panels), t.size)
    t = np.tile(t, loop.num_panels)
    pa, pb = loop.points_a.T[:, panel], loop.points_b.T[:, panel]
    x, y = pa + t * (pb - pa)
    return panel, x, y, loop.lengths[panel] * np.tile(w, loop.num_panels), t


def interpolate_trial(exact_u, exact_grad_u, exact_flux, mesh, layout,
                      volume_rule=None, edge_order=6, edge_levels=24):
    """Interpolate an exact solution into the trial space.

    sigma and u are elementwise mean values (sigma from exact_flux), uhat
    interpolates exact_u at the vertices, and sighat is the edge mean of
    exact_grad_u dotted with the global edge normal.

    exact_u(x, y) -> scalar, exact_grad_u(x, y) and exact_flux(x, y) ->
    pair of arrays (gx, gy); all numpy-vectorized.
    """
    if volume_rule is None:
        volume_rule = quadrature.triangle_duffy(6)
    pts, w = volume_rule
    coeffs = np.zeros(layout.dim)

    x, y = quadrature.map_to_physical(mesh.triangle_vertices(), pts)
    wsum = w.sum()
    uvals = exact_u(x, y)
    coeffs[2 * layout.n_tri:3 * layout.n_tri] = uvals @ w / wsum
    gx, gy = exact_flux(x, y)
    gx = np.broadcast_to(gx, x.shape)
    gy = np.broadcast_to(gy, x.shape)
    sig = np.stack([gx @ w, gy @ w], axis=1) / wsum
    coeffs[:2 * layout.n_tri] = sig.ravel()

    vx, vy = mesh.vertices[:, 0], mesh.vertices[:, 1]
    off = 3 * layout.n_tri
    coeffs[off:off + layout.n_vert] = exact_u(vx, vy)

    t, wt = quadrature.graded01_both(edge_order, edge_levels)
    pa = mesh.vertices[mesh.edges[:, 0]]
    pb = mesh.vertices[mesh.edges[:, 1]]
    epts = pa[:, None, :] + t[None, :, None] * (pb - pa)[:, None, :]
    gx, gy = exact_grad_u(epts[..., 0], epts[..., 1])
    gx = np.broadcast_to(gx, epts[..., 0].shape)
    gy = np.broadcast_to(gy, epts[..., 0].shape)
    gn = gx * mesh.edge_normals[:, None, 0] + gy * mesh.edge_normals[:, None, 1]
    off = 3 * layout.n_tri + layout.n_vert
    coeffs[off:] = gn @ wt
    return coeffs


def dump_mesh(mesh, stream):
    """Write the mesh in the plain-text debug format: one 'v x y' line per
    vertex, one 't i j k' line per triangle (0-based indices)."""
    for p in mesh.vertices:
        stream.write("v {:.17g} {:.17g}\n".format(p[0], p[1]))
    for t in mesh.triangles:
        stream.write("t {} {} {}\n".format(t[0], t[1], t[2]))


@dataclass
class FullJnSystem:
    """The classical coupling system with u at all vertices and phi on
    the boundary panels as unknowns, in that order."""

    matrix: scipy.sparse.csr_matrix
    rhs: np.ndarray
    n_vert: int
    vertices: np.ndarray
    loop: object


def jn_full_system(mesh, data, stabilized=True, bem_mats=None):
    """The full (nv + P) coupling system as `jn_reference.assemble_jn`
    assembled it before it eliminated phi: one CSR matrix from `bmat`,
    with the stabilization as a COO outer product."""
    if bem_mats is None:
        bem_mats = bem.assemble_bem(boundary_loop(mesh))
    loop = bem_mats.loop
    P = loop.num_panels
    nv = mesh.num_vertices
    nxt = (np.arange(P) + 1) % P

    A_uu = clique_matrix(mesh.triangles, jn._p1_stiffness(mesh), [], [], nv)

    # -<phi, v>_Gamma: each panel loads its two endpoint hats with h/2
    rows = np.concatenate([loop.vertex_ids, loop.vertex_ids[nxt]])
    cols = np.concatenate([np.arange(P), np.arange(P)])
    vals = np.concatenate([loop.lengths, loop.lengths]) * (-0.5)
    C = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(nv, P))

    # <(1/2 - K) u, psi> and <V phi, psi> with panelwise-constant tests
    D_bd = bem.p0_test_rows(bem_mats.H)              # (P, P) vertex cols
    V00 = bem.p0_test_rows(bem_mats.V_ps)            # (P, P)
    rr = np.repeat(np.arange(P), P)
    D = scipy.sparse.coo_matrix(
        (D_bd.ravel(), (rr, np.tile(loop.vertex_ids, P))), shape=(P, nv))

    mat = scipy.sparse.bmat([[A_uu, C], [D, V00]], format="csr")

    rhs = np.zeros(nv + P)
    rhs[:nv] = jn._p1_load(mesh, data.f)
    # <phi0, v>_Gamma against the boundary hats
    rule = spaces.boundary_quadrature(loop, spaces.PANEL_ORDER,
                                      spaces.DATA_LEVELS, data.singular_vertex)
    tail, head = spaces.hat_moments(rule, spaces.normal_flux(
        loop, data.phi0, rule))
    np.add.at(rhs[:nv], loop.vertex_ids, tail)
    np.add.at(rhs[:nv], loop.vertex_ids[nxt], head)
    # <(1/2 - K) u0, psi>: mass part directly, kernel part via projection,
    # with K = M/2 - H
    tail, head = spaces.hat_moments(rule, spaces.point_values(
        rule, lambda x, y, t: data.u0(x, y)))
    mass_u0 = tail + head
    u0_hat = spaces.project_boundary_p1(loop, tail, head)
    K00 = bem.p0_test_rows(0.5 * hat_mass(loop) - bem_mats.H)
    rhs[nv:] = 0.5 * mass_u0 - K00 @ u0_hat

    if stabilized:
        g = np.zeros(nv + P)
        g_u = D_bd.sum(axis=0)                        # <1, (1/2-K) hat_j>
        np.add.at(g[:nv], loop.vertex_ids, g_u)
        g[nv:] = V00.sum(axis=0)                      # <1, V chi_q>
        lam_total = rhs[nv:].sum()                    # <1, (1/2-K) u0>
        # g g^T on the support of g (boundary vertices and panels only)
        idx = np.flatnonzero(g)
        mat = mat + scipy.sparse.coo_matrix(
            (np.outer(g[idx], g[idx]).ravel(),
             (np.repeat(idx, idx.size), np.tile(idx, idx.size))),
            shape=mat.shape).tocsr()
        rhs = rhs + lam_total * g
    return FullJnSystem(matrix=mat, rhs=rhs, n_vert=nv,
                        vertices=mesh.vertices, loop=loop)


# boundary rule of the data-compatibility residual
COMPAT_ORDER, COMPAT_LEVELS = 8, 40


def compatibility_residual(mesh, data):
    """Quadrature value of int_Omega f + int_Gamma phi0 (must be ~0)."""
    pts, w = quadrature.triangle_duffy(6)
    x, y = quadrature.map_to_physical(mesh.triangle_vertices(), pts)
    fv = np.broadcast_to(data.f(x, y), x.shape)
    vol = float((fv @ w * mesh.element_map()[1]).sum())
    loop = boundary_loop(mesh)
    rule = spaces.boundary_quadrature(loop, COMPAT_ORDER, COMPAT_LEVELS,
                                      data.singular_vertex)
    bnd = float(np.dot(loop.lengths, spaces.panel_means(
        loop, rule, spaces.normal_flux(loop, data.phi0, rule))))
    return vol + bnd


def nested_dissection(cliques, coords, last):
    """Fill-reducing elimination order for a sparse system on a 2-D mesh.

    Geometric nested dissection (George, "Nested dissection of a regular
    finite element mesh", SIAM J. Numer. Anal. 1973).  The dofs not in
    `last` are bisected at the median of the longer axis of their
    bounding box, with coords (n, 2) the position of each dof.  Dofs on
    the median's coordinate line go left, unless that leaves the right
    empty; then the part splits by rank.  Two dofs are neighbours if a
    row of cliques (T, k), such as an element's dofs, holds both; the
    pattern of a COO matrix is np.column_stack([A.row, A.col]).  A left
    dof with a right neighbour joins the separator, so on a structured
    mesh the separator is that line.  Each part is ordered
    [left, right, separator], and parts of at most ND_LEAF_SIZE dofs
    stay whole, swept along their longer axis.  The dofs in `last` (a
    dense block such as the boundary-integral clique) come at the end,
    in the given order.  All parts of one level are split by one sort.

    Returns perm, so that A[perm][:, perm] is the reordered matrix.
    dpgbem.spaces.nested_dissection must return the same perm.
    """
    last = np.asarray(last, dtype=int)
    coords = np.asarray(coords, dtype=float)
    n = coords.shape[0]
    rest = np.ones(n, dtype=bool)
    rest[last] = False
    # each coupling of two dofs not in `last`, once, as an edge (ei < ej)
    i, j = np.triu_indices(cliques.shape[1], 1)
    a, b = cliques[:, i].ravel(), cliques[:, j].ravel()
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    keep = (lo != hi) & rest[lo] & rest[hi]
    edges = scipy.sparse.csr_matrix(
        (np.ones(keep.sum(), dtype=np.int8), (lo[keep], hi[keep])),
        shape=(n, n)).tocoo()
    ei, ej = edges.row.astype(np.int32), edges.col.astype(np.int32)

    # code: 2 * part + side while a dof is being split, then -1 - dof
    code = np.zeros(n, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)  # tree depth of the dof's part
    path = np.zeros(n, dtype=np.int64)   # tree path of the dof's part
    seq = np.zeros(n, dtype=np.int64)    # position within its part
    active = np.flatnonzero(rest)        # kept sorted by part
    level = 0
    while active.size:
        part = path[active]
        start = np.flatnonzero(np.r_[True, part[1:] != part[:-1]])
        size = np.diff(np.r_[start, active.size])
        seg = np.repeat(np.arange(start.size), size)
        xy = coords[active]
        span = (np.maximum.reduceat(xy, start)
                - np.minimum.reduceat(xy, start))
        axis = (span[:, 1] > span[:, 0]).astype(int)[seg]
        at = np.arange(active.size)
        order = np.lexsort((xy[at, 1 - axis], xy[at, axis], part))
        active = active[order]
        depth[active] = level
        seq[active] = at
        # the median's whole coordinate line goes left, so that the
        # separator is that line; a part that is one line splits by rank
        xa = xy[order, axis]
        right = xa > xa[start + np.maximum(size // 2 - 1, 0)][seg]
        line = np.bincount(seg, right, minlength=start.size) == 0
        right |= line[seg] & (at - start[seg] >= size[seg] // 2)
        code[active] = 2 * part + right
        # a left dof with a right neighbour in its own part: separator
        a, b = code[ei], code[ej]
        sep = np.zeros(n, dtype=bool)
        sep[ei[(a + 1 == b) & ((a & 1) == 0)]] = True
        sep[ej[(b + 1 == a) & ((b & 1) == 0)]] = True
        go_on = (size > ND_LEAF_SIZE)[seg] & ~sep[active]
        done = active[~go_on]
        code[done] = -1 - done
        active = active[go_on]
        path[active] = code[active]
        # keep only the couplings inside a part that is split further
        stay = code[ei] == code[ej]
        ei, ej = ei[stay], ej[stay]
        level += 1
    # post-order of the dissection tree: the part with path q at depth d
    # comes after every part below it and before the next subtree
    node = np.flatnonzero(rest)
    top = int(depth.max()) + 1
    key = ((path[node] + 1) << (top - depth[node])) - 1
    perm = node[np.lexsort((seq[node], -depth[node], key))]
    return np.concatenate([perm, last])
