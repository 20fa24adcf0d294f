"""Reference implementations that tests compare the package against.

`build_mesh` and `refine_uniform` are the original per-side dictionary
loops that derive the edge topology one triangle at a time.  They are
slow but obviously right, and the vectorized versions in `dpgbem.mesh`
must reproduce their arrays exactly.

`gram_solve_matrix` is the original per-block loop for G^{-1} B: it
gathers each Gram block's rows of B into a dense matrix over the union
of their columns, solves, and scatters back.  The batched
`BlockGram.solve_matrix` must reproduce its CSR arrays exactly.
"""

import numpy as np
import scipy.sparse

from dpgbem.errors import MeshError
from dpgbem.mesh import Mesh


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
                edge_tris=edge_tris, boundary_edges=boundary_edges,
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
        solve_block(lambda loc: np.linalg.solve(G.Gv[t], loc), 6 * t, 6)
    for t in range(nt):
        solve_block(lambda loc: np.linalg.solve(G.Gtau[t], loc),
                    6 * nt + 12 * t, 12)
    solve_block(G.bem.solve_gpsi, 18 * nt, G.n_psi)
    W = scipy.sparse.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=B.shape)
    return W.tocsr()
