"""Discrete trial and test spaces.

Trial space: piecewise-constant field variables (vector sigma and scalar u),
continuous piecewise-linear skeleton traces (one dof per mesh vertex) and
edgewise-constant normal fluxes (one dof per edge, with respect to the
fixed global edge normal).

Test space: scalar P2 and vector P2 per element, plus discontinuous P1 on
the boundary edges.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from . import quadrature
from .mesh import REF_HAT_GRADS


@dataclass(frozen=True)
class TrialDofLayout:
    """Index map for the trial unknowns (sigma, u, uhat, sighat).

    Global ordering: 2 sigma components per triangle (interleaved), then u
    per triangle, then one uhat per mesh vertex, then one sighat per edge.
    """

    n_tri: int
    n_vert: int
    n_edge: int

    @classmethod
    def from_mesh(cls, mesh):
        return cls(mesh.num_triangles, mesh.num_vertices, mesh.num_edges)

    @property
    def dim(self):
        return 3 * self.n_tri + self.n_vert + self.n_edge

    def sigma(self, tri, comp):
        return 2 * tri + comp

    def u(self, tri):
        return 2 * self.n_tri + tri

    def uhat(self, vert):
        return 3 * self.n_tri + vert

    def sighat(self, edge):
        return 3 * self.n_tri + self.n_vert + edge


def eval_p2_basis(bary):
    """Quadratic Lagrange basis on the reference triangle.

    Parameters
    ----------
    bary : (..., 3) array
        Barycentric coordinates (lambda0, lambda1, lambda2).

    Returns
    -------
    vals : (..., 6) array
    grads : (..., 6, 2) array
        Gradients with respect to the reference coordinates (xi, eta) with
        lambda = (1 - xi - eta, xi, eta).  Node order: vertices 0,1,2 then
        edge midpoints (0,1), (1,2), (2,0).
    """
    bary = np.asarray(bary, dtype=float)
    l0, l1, l2 = bary[..., 0], bary[..., 1], bary[..., 2]
    vals = np.stack([l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
                     4 * l0 * l1, 4 * l1 * l2, 4 * l2 * l0], axis=-1)
    dl = REF_HAT_GRADS
    g = [
        (4 * l0 - 1)[..., None] * dl[0],
        (4 * l1 - 1)[..., None] * dl[1],
        (4 * l2 - 1)[..., None] * dl[2],
        4 * (l1[..., None] * dl[0] + l0[..., None] * dl[1]),
        4 * (l2[..., None] * dl[1] + l1[..., None] * dl[2]),
        4 * (l0[..., None] * dl[2] + l2[..., None] * dl[0]),
    ]
    return vals, np.stack(g, axis=-2)


def side_bary(side, t):
    """Barycentric coordinates along local side s (from local vertex s to
    s+1 mod 3) at edge parameter t."""
    t = np.asarray(t, dtype=float)
    z = np.zeros_like(t)
    cols = {0: (1.0 - t, t, z), 1: (z, 1.0 - t, t), 2: (t, z, 1.0 - t)}[side]
    return np.stack(cols, axis=-1)


# Gauss order of the panel rules of the boundary matrices and of both
# solvers' load vectors; the graded levels of the rule that integrates the
# transmission data into the load vectors; and the rule of the boundary
# error norms and of the exterior flux of a coupled solution.  The graded
# rules serve only the panels near the data's singular vertex
# (boundary_quadrature)
PANEL_ORDER = 8
DATA_LEVELS = 30
ERROR_ORDER, ERROR_LEVELS = 8, 24

# the element rule of both solvers' volume loads (f, v)
LOAD_PTS, LOAD_W = quadrature.triangle_duffy(5)


def element_load(mesh, f, basis):
    """(f, v_i) on every element, shape (T, k), for a basis given by
    basis(bary) -> (q, k), its values at barycentric points (q, 3)."""
    detJ = mesh.element_map()[1]
    x, y = quadrature.map_to_physical(mesh.triangle_vertices(), LOAD_PTS)
    fv = np.broadcast_to(f(x, y), x.shape)
    vals = basis(quadrature.barycentric(LOAD_PTS))
    return np.einsum("q,tq,qi->ti", LOAD_W, fv, vals) * detJ[:, None]


def clique_matrix(cliques, blocks, dense_dofs, dense, n):
    """Sparse matrix of order n from element blocks and one dense block.

    Element t adds its block blocks[t] (k, k) on its dofs cliques[t] (k,),
    and dense (m, m) is added on the m dofs dense_dofs.  Both couplings
    have this form: an element-local part plus a boundary-integral block.
    Entries are summed in (t, i, j) order, then the dense block row-major.
    Returns CSR.
    """
    # int32 indices (dof counts here are far below 2^31), which coo_matrix
    # keeps without a copy; no name holds the triplets, so that tocsr runs
    # with the COO alone
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


def boundary_quadrature(loop, order, levels, singular_vertex):
    """Quadrature on all panels of a boundary loop, as panel groups
    (panels, pts, wts, t): the panel indices (n,), the physical nodes
    (2, n, q), coordinate-major, their arc-length weights (n, q) and
    their panel parameters t (q,), at which the hat functions of a
    panel's tail and head take the values 1 - t and t.

    A panel whose distance to singular_vertex (a point, or None) is at
    most its own length takes the composite Gauss rule of the given
    order graded toward both panel ends over the given levels (> 0),
    which integrates data with a singularity at the vertex accurately.
    Every other panel takes the plain Gauss rule of that order, which
    integrates the data, smooth there, to rounding.  Empty groups are
    left out.  The helpers below read the groups, one array (n, q) of
    node values per group.
    """
    near = np.zeros(loop.num_panels, dtype=bool)
    if singular_vertex is not None:
        pa, d = loop.points_a, loop.points_b - loop.points_a
        r = np.asarray(singular_vertex, dtype=float) - pa
        s = np.clip((r * d).sum(axis=1) / loop.lengths ** 2, 0.0, 1.0)
        near = np.hypot(*(r - s[:, None] * d).T) <= loop.lengths
    groups = []
    for panels, (t, w) in (
            (np.flatnonzero(~near), quadrature.gauss01(order)),
            (np.flatnonzero(near), quadrature.graded01_both(order, levels))):
        if panels.size:
            pa, pb = loop.points_a[panels].T, loop.points_b[panels].T
            groups.append((panels, pa[..., None] + t * (pb - pa)[..., None],
                           loop.lengths[panels, None] * w, t))
    return groups


def point_values(rule, fn, *panel_data):
    """Values at the nodes of a boundary_quadrature rule, one array
    (n, q) per group: fn(x, y, t, *d) with the node coordinates x, y
    (n, q), their panel parameters t (q,) and each array of panel_data
    (P,) on the group's panels as a column (n, 1)."""
    return [fn(*pts, t, *(d[p, None] for d in panel_data))
            for p, pts, _, t in rule]


def normal_flux(loop, fn, rule):
    """A normal-flux function fn(x, y, nx, ny) at the nodes of a
    boundary_quadrature rule, taken with the outward panel normal."""
    return point_values(rule, lambda x, y, t, nx, ny: fn(x, y, nx, ny),
                        *loop.normals.T)


def panel_means(loop, rule, vals):
    """Panelwise means (P,) of values at the nodes of a
    boundary_quadrature rule."""
    out = np.empty(loop.num_panels)
    for (p, _, w, _), v in zip(rule, vals):
        out[p] = (w * v).sum(axis=1)
    return out / loop.lengths


def hat_moments(loop, rule, vals):
    """Integrals of values at the nodes of a boundary_quadrature rule
    against the tail and the head hat of each panel, each (P,)."""
    tail, head = np.empty(loop.num_panels), np.empty(loop.num_panels)
    for (p, _, w, t), v in zip(rule, vals):
        wv = w * v
        tail[p] = (wv * (1.0 - t)).sum(axis=1)
        head[p] = (wv * t).sum(axis=1)
    return tail, head


def project_boundary_p1(loop, tail, head):
    """L2 projection onto the continuous piecewise linears on the boundary
    loop, from the hat moments (tail, head) of the projected function;
    returns one coefficient per loop vertex.

    The P1 mass matrix is cyclic tridiagonal.  It is the tridiagonal
    matrix T with corners changed by the rank one u v^T, u = (g, 0, ...,
    0, c), v = (1, 0, ..., 0, c/g), where c is the corner entry and g
    minus the first diagonal entry; T is solved banded and the corners
    restored by one Sherman-Morrison step, O(P) in all.
    """
    h = loop.lengths
    rhs = tail + np.roll(head, 1)        # vertex k: tail of k, head of k-1
    diag = (h + np.roll(h, 1)) / 3.0
    c, g = h[-1] / 6.0, -diag[0]
    ab = np.zeros((2, h.size))
    ab[0, 1:] = h[:-1] / 6.0
    ab[1] = diag
    ab[1, 0] -= g
    ab[1, -1] -= c * c / g
    u = np.zeros(h.size)
    u[0], u[-1] = g, c
    y, z = scipy.linalg.solveh_banded(ab, np.stack([rhs, u], axis=1)).T
    return y - z * ((y[0] + y[-1] * c / g) / (1.0 + z[0] + z[-1] * c / g))
