"""Discrete trial and test spaces.

Trial space: piecewise-constant field variables (vector sigma and scalar u),
continuous piecewise-linear skeleton traces (one dof per mesh vertex) and
edgewise-constant normal fluxes (one dof per edge, with respect to the
fixed global edge normal).

Test space: scalar P2 and vector P2 per element, plus discontinuous P1 on
the boundary edges.

Both couplings' systems, with the V-cycle over the refinement levels
that preconditions their Krylov solves; the boundary rules; element batches.
"""

import functools
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from . import quadrature
from .errors import NumericalError
from .mesh import REF_HAT_GRADS, element_map


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
ELEMENT_CHUNK = 4096  # elements per batch (batched): a memory bound


def batched(fn, n):
    """fn(e), an array (len(e), ...), on the consecutive ELEMENT_CHUNK
    slices e of range(n) in order, written into one array (n, ...)
    allocated from the first batch; n = 0 makes one empty batch."""
    for k in range(0, max(n, 1), ELEMENT_CHUNK):
        v = fn(slice(k, k + ELEMENT_CHUNK))
        if k == 0:
            out = np.empty((n,) + v.shape[1:], v.dtype)
        out[k:k + ELEMENT_CHUNK] = v
    return out


def element_load(mesh, f, basis):
    """(f, v_i) on every element, shape (T, k), for a basis given by
    basis(bary) -> (q, k), its values at barycentric points (q, 3),
    one batch of elements at a time."""
    vals = basis(quadrature.barycentric(LOAD_PTS))

    def load(e):
        verts = np.take(mesh.vertices, mesh.triangles[e], axis=0)
        x, y = quadrature.map_to_physical(verts, LOAD_PTS)
        return np.einsum("q,tq,qi->ti", LOAD_W, np.broadcast_to(
            f(x, y), x.shape), vals) * element_map(verts)[1][:, None]
    return batched(load, mesh.num_triangles)


class LinearSystem(NamedTuple):
    """A coupled system as a solver takes it: its LevelOperator, its
    right-hand side and recover(y), the solution in the caller's terms."""

    matrix: object
    rhs: np.ndarray
    recover: Callable


class Level(NamedTuple):
    """A solved level, the coarse level of the next finer one: its mesh,
    its system's LevelOperator and the solution x of that system."""

    mesh: object
    matrix: object
    x: np.ndarray


def clique_matrix(cliques, blocks, n):
    """CSR matrix of order n in natural dof order: element t adds
    blocks[t] (k, k) on its dofs cliques[t] (k,); explicit zeros kept."""
    k = cliques.shape[1]
    # int32 indices, kept by coo_array without a copy; the values are a
    # copy, so blocks passed as a temporary are freed before tocsr
    cliques = np.asarray(cliques, dtype=np.int32)
    values = blocks.ravel().copy()
    del blocks
    return scipy.sparse.coo_array(
        (values, (np.repeat(cliques, k, axis=1).ravel(),
                  np.tile(cliques, k).ravel())), shape=(n, n)).tocsr()


def p1_prolongation(coarse, fine):
    """P1 prolongation (V_f, V_c) to fine = refine_uniform(coarse), whose
    vertex V_c + e, the midpoint of coarse edge e, takes the mean of e's
    ends; vertices below V_c keep their values."""
    nv, ne = coarse.num_vertices, coarse.num_edges
    return scipy.sparse.csr_array(
        (np.r_[np.ones(nv), np.full(2 * ne, 0.5)],
         (np.r_[np.arange(nv), np.repeat(np.arange(nv, nv + ne), 2)],
          np.r_[np.arange(nv), coarse.edges.ravel()])),
        shape=(fine.num_vertices, nv))


def flux_prolongation(coarse, fine):
    """Prolongation (E_f, E_c) of the fluxes along the global edge normals
    to fine = refine_uniform(coarse).  A child of coarse edge e (its
    higher vertex is V_c + e) takes e's flux times sign(n_f . n_e).  The
    sides of fine triangle 4t + 3, the middle child of t, take the normal
    components at their midpoints of t's RT0 field sum_i F_i |e_i| / (2|T|)
    (x - p_i), F_i the outward flux on side i (edge sign times flux) and
    p_i the vertex opposite: the fluxes of constant fields are exact."""
    nv = coarse.num_vertices
    lo, hi = fine.edges.T
    child = np.flatnonzero(lo < nv)
    parent = hi[child] - nv
    sign = np.sign(np.einsum("ec,ec->e", fine.edge_normals[child],
                             coarse.edge_normals[parent]))
    # ratio[t, j, i]: on inner side j, the RT0 field of side i (p_i: i + 2)
    inner = fine.tri_edges[3::4]
    normal = fine.edge_normals[inner]
    ratio = (np.einsum("tjc,tjc->tj", fine.edge_midpoints()[inner],
                       normal)[:, :, None]
             - np.einsum("tic,tjc->tji",
                         coarse.triangle_vertices()[:, [2, 0, 1]], normal))
    ratio *= (coarse.tri_edge_signs * coarse.edge_lengths[coarse.tri_edges]
              / coarse.element_map()[1][:, None])[:, None, :]
    return scipy.sparse.csr_array(
        (np.r_[sign, ratio.ravel()],
         (np.r_[child, np.repeat(inner.ravel(), 3)],
          np.r_[parent, np.tile(coarse.tri_edges, 3).ravel()])),
        shape=(fine.num_edges, coarse.num_edges))


def skeleton_patches(mesh):
    """The skeleton dofs (uhat at the V vertices, then sighat on the edges)
    of each vertex patch, uhat_v and sighat on the edges at v, as one
    index array (n, d + 1) per vertex degree d."""
    ends = mesh.edges.ravel()
    degree = np.bincount(ends, minlength=mesh.num_vertices)
    edges = mesh.num_vertices + np.argsort(ends, kind="stable") // 2
    first = np.cumsum(degree) - degree
    return [np.column_stack([v, edges[first[v, None] + np.arange(d)]])
            for d in np.unique(degree) for v in [np.flatnonzero(degree == d)]]


class LevelOperator(scipy.sparse.linalg.LinearOperator):
    """A coupled system's matrix, sparse (a clique_matrix) plus the dense
    block dense on the dofs dense_dofs (nnz counts both), with a V-cycle
    over its levels.  coarse is the next coarser Level, or None: then the
    V-cycle is the dense inverse.  Otherwise start = prolong @ coarse.x,
    and the V-cycle smooths, corrects by the coarse V-cycle and smooths
    again, by one CSR smoother: the damped sum of the inverse blocks of
    the patches (index arrays (n, k), a patch per row).  It is symmetric
    if the matrix is."""

    def __init__(self, sparse, dense_dofs, dense, patches, damping, coarse,
                 prolong):
        super().__init__(float, sparse.shape)
        self.sparse, self.dense_dofs, self.dense = sparse, dense_dofs, dense
        if coarse is None:
            self.coarse, self.start = None, np.zeros(self.shape[0])
            return
        self.coarse, self.prolong = coarse.matrix, prolong
        self.restrict, self.start = prolong.T.tocsr(), prolong @ coarse.x
        # each patch block from the sparse part, plus the dense block on
        # the patches that touch it (at: a dof's position in the block)
        at = np.full(self.shape[0], -1)
        at[dense_dofs] = np.arange(len(dense_dofs))
        self.smoother = 0
        for p in patches:
            k = p.shape[1]
            a = sparse[np.repeat(p, k, axis=1).ravel(),
                       np.tile(p, k).ravel()].reshape(-1, k, k)
            touch = (at[p] >= 0).any(axis=1)
            qi, qj = at[p[touch]][:, :, None], at[p[touch]][:, None, :]
            a[touch] += np.where((qi >= 0) & (qj >= 0), dense[qi, qj], 0.0)
            self.smoother = self.smoother + clique_matrix(
                p, damping * np.linalg.inv(a), self.shape[0])

    @property
    def nnz(self):
        return self.sparse.nnz + self.dense.size

    def _matvec(self, x):
        y = self.sparse @ x
        y[self.dense_dofs] += self.dense @ x[self.dense_dofs]
        return y

    def toarray(self):
        a = self.sparse.toarray()
        a[np.ix_(self.dense_dofs, self.dense_dofs)] += self.dense
        return a

    @functools.cached_property
    def inverse(self):
        """The dense inverse (LU) of the whole matrix, on first use."""
        try:
            return np.linalg.inv(self.toarray())
        except np.linalg.LinAlgError as exc:
            raise NumericalError("system singular") from exc

    def vcycle(self, r):
        """One V-cycle for A x = r, from x = 0."""
        if self.coarse is None:
            return self.inverse @ r
        x = self.smoother @ r
        x += self.prolong @ self.coarse.vcycle(
            self.restrict @ (r - self._matvec(x)))
        return x + self.smoother @ (r - self._matvec(x))


def boundary_quadrature(loop, order, levels, singular_vertex):
    """Quadrature on all panels of a boundary loop, as one node set
    (panel, x, y, w, t) of 1-D arrays: per node its panel index, its
    coordinates, its arc-length weight and its panel parameter t, at
    which the hats of the panel's tail and head take the values 1 - t
    and t.  Each panel's nodes are contiguous, in panel order.

    A panel whose distance to singular_vertex (a point, or None) is at
    most its own length takes the composite Gauss rule of the given
    order graded toward both panel ends over the given levels (> 0),
    which integrates data with a singularity at the vertex accurately.
    Every other panel takes the plain Gauss rule of that order, which
    integrates the data, smooth there, to rounding.
    """
    near = np.zeros(loop.num_panels, dtype=bool)
    if singular_vertex is not None:
        pa, d = loop.points_a, loop.points_b - loop.points_a
        r = np.asarray(singular_vertex, dtype=float) - pa
        s = np.clip((r * d).sum(axis=1) / loop.lengths ** 2, 0.0, 1.0)
        near = np.hypot(*(r - s[:, None] * d).T) <= loop.lengths
    # node i is node ref[i] of the Gauss and graded rules laid end to end
    rules = (quadrature.gauss01(order), quadrature.graded01_both(order, levels))
    t_ref, w_ref = (np.concatenate(a) for a in zip(*rules))
    counts = np.where(near, rules[1][0].size, order)
    panel = np.repeat(np.arange(loop.num_panels), counts)
    ref = np.arange(panel.size) - np.repeat(
        np.cumsum(counts) - counts - order * near, counts)
    t = t_ref[ref]
    # the panel ends by np.take, many times faster than fancy indexing
    a, b = np.stack([loop.points_a.T, loop.points_b.T]).take(panel, axis=2)
    x, y = a + t * (b - a)
    return panel, x, y, loop.lengths[panel] * w_ref[ref], t


def point_values(rule, fn, *panel_data):
    """Values at the nodes of a boundary_quadrature rule: fn(x, y, t, *d)
    with each array d of panel_data (P,) taken at the nodes' panels."""
    panel, x, y, _, t = rule
    return fn(x, y, t, *map(operator.itemgetter(panel), panel_data))


def normal_flux(loop, fn, rule):
    """A normal-flux function fn(x, y, nx, ny) at the nodes of a
    boundary_quadrature rule, taken with the outward panel normal."""
    return point_values(rule, lambda x, y, t, nx, ny: fn(x, y, nx, ny),
                        *loop.normals.T)


def _panel_sums(panel, vals):
    """Sums (P,) of node values over each panel, pairwise within a panel
    (np.add.reduceat), as accurate on the long graded panels as row sums."""
    return np.add.reduceat(vals, np.flatnonzero(np.diff(panel, prepend=-1)))


def panel_means(loop, rule, vals):
    """Panelwise means (P,) of values at the nodes of a
    boundary_quadrature rule."""
    panel, _, _, w, _ = rule
    return _panel_sums(panel, w * vals) / loop.lengths


def hat_moments(rule, vals):
    """Integrals of values at the nodes of a boundary_quadrature rule
    against the tail and the head hat of each panel, each (P,)."""
    panel, _, _, w, t = rule
    wv = w * vals
    return _panel_sums(panel, wv * (1.0 - t)), _panel_sums(panel, wv * t)


def project_boundary_p1(loop, tail, head):
    """L2 projection onto the continuous piecewise linears on the boundary
    loop, from the hat moments (tail, head) of the projected function;
    returns one coefficient per loop vertex.  The cyclic P1 mass matrix,
    (h_k / 6) [[2, 1], [1, 2]] on the loop vertices k, k + 1 mod P of
    each panel k, is three bands and two corners; SuperLU (spsolve)
    solves it in natural order, as a cycle has no fill to save."""
    h = loop.lengths / 6.0
    P = h.size
    mass = scipy.sparse.diags(
        [2.0 * (np.roll(h, 1) + h), h[:-1], h[:-1], h[-1:], h[-1:]],
        [0, 1, -1, P - 1, 1 - P], shape=(P, P), format="csc")
    # vertex k: tail of panel k, head of panel k - 1
    return scipy.sparse.linalg.spsolve(mass, tail + np.roll(head, 1),
                                       permc_spec="NATURAL")
