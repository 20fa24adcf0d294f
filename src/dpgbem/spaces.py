"""Discrete trial and test spaces.

Trial space: piecewise-constant field variables (vector sigma and scalar u),
continuous piecewise-linear skeleton traces (one dof per mesh vertex) and
edgewise-constant normal fluxes (one dof per edge, with respect to the
fixed global edge normal).

Test space: scalar P2 and vector P2 per element, plus discontinuous P1 on
the boundary edges.
"""

import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

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
# nested_dissection stops bisecting parts of at most this many dofs
ND_LEAF_SIZE = 32

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


class LinearSystem(NamedTuple):
    """A sparse system as a solver takes it: matrix (CSC) and rhs in the
    elimination order of clique_matrix, and recover(y), the solution in
    dof order from a solution y in that order."""

    matrix: scipy.sparse.csc_matrix
    rhs: np.ndarray
    recover: Callable


def clique_matrix(cliques, blocks, dense_dofs, dense, coords, rhs):
    """Sparse system from element blocks and one dense block, summed
    straight into its elimination order, as a LinearSystem: the matrix
    in CSC (the format that SuperLU factors), the right-hand side rhs
    (n,), given in dof order, and recover, which puts a solution back in
    dof order.  Element t adds its block blocks[t] (k, k) on its dofs
    cliques[t] (k,), and dense (m, m) is added on the m dofs dense_dofs.
    Both couplings have this form: an element-local part plus a
    boundary-integral block.  The order is the nested_dissection of the
    dofs at coords (n, 2) from the cliques, dense_dofs last.  Entries
    are summed in (t, i, j) order, then the dense block row-major.
    """
    order = nested_dissection(cliques, coords, dense_dofs)
    # each dof's position in order as int32 (far below 2^31), which
    # coo_matrix keeps without a copy; no name holds the indices or blocks
    # (freed if the caller passed a temporary) when tocsc runs
    at = np.empty(order.size, dtype=np.int32)
    at[order] = np.arange(order.size)
    cliques, dense_dofs = at.take(cliques), at.take(dense_dofs)
    k, m = cliques.shape[1], dense_dofs.size
    values = np.concatenate([blocks.ravel(), np.ravel(dense)])
    del blocks
    return LinearSystem(scipy.sparse.coo_matrix(
        (values,
         (np.concatenate([np.repeat(cliques, k, axis=1).ravel(),
                          np.repeat(dense_dofs, m)]),
          np.concatenate([np.tile(cliques, k).ravel(),
                          np.tile(dense_dofs, m)]))),
        shape=(order.size,) * 2).tocsc(), rhs[order], lambda y: y[at])


def nested_dissection(cliques, coords, last):
    """Fill-reducing elimination order for a sparse system on a 2-D mesh.

    Geometric nested dissection (George, "Nested dissection of a regular
    finite element mesh", SIAM J. Numer. Anal. 1973).  The dofs not in
    `last` are bisected at the median of the longer axis of their
    bounding box (x when both spans are equal), with coords (n, 2) the
    position of each dof.  Inside a part the dofs are ranked by the
    coordinate of that axis, then by the other coordinate, then by dof
    index, so dofs at the same point keep their index order.  Dofs on
    the median's coordinate line go left, unless that leaves the right
    empty; then the part splits by rank.  Two dofs are neighbours if a
    row of cliques (T, k), such as an element's dofs, holds both.  A
    left dof with a right neighbour joins the separator, so on a
    structured mesh the separator is that line.  Each part is ordered
    [left, right, separator], and parts of at most ND_LEAF_SIZE dofs
    stay whole, in their rank order.  The dofs in `last` (a dense block
    such as the boundary-integral clique) come at the end, in the given
    order.

    Each level of the dissection takes time linear in the dofs and the
    clique entries: the dofs are sorted once per axis, every level
    splits both orders by one stable partition, and one pass over the
    cliques finds the separators.

    Returns perm, the dofs in elimination order; clique_matrix sums
    each system straight into it.
    """
    last = np.asarray(last, dtype=int)
    coords = np.asarray(coords, dtype=float)
    n = coords.shape[0]
    xy = np.ascontiguousarray(coords.T)
    x, y = xy
    rest = np.ones(n, dtype=bool)
    rest[last] = False
    node = np.flatnonzero(rest)
    cols = np.ascontiguousarray(np.asarray(cliques).T)
    # the parts' dofs, part after part in tree order, each part in its
    # rank order along x (byx) and along y (byy)
    byx = node[np.lexsort((y[node], x[node]))]
    byy = byx[np.argsort(y[byx], kind="stable")]
    # side: 0 left, 1 right while a dof is being split, else 2.  Two
    # neighbours that are both being split are in the same part: had they
    # been split apart, the left one would have joined a separator
    side = np.full(n, 2, dtype=np.int8)
    perm = np.empty(n, dtype=int)
    perm[node.size:] = last
    size = np.array([node.size])   # dofs of each part
    base = np.zeros(1, dtype=int)  # where each part's subtree starts in perm
    while byx.size:
        nseg = size.size
        end = np.cumsum(size)
        start = end - size
        seg = np.repeat(np.arange(nseg), size)
        # a part's span is read from the ends of its two orders
        along = ((y[byy[end - 1]] - y[byy[start]])
                 > (x[byx[end - 1]] - x[byx[start]]))[seg]
        cur = np.where(along, byy, byx)
        xa = xy.ravel()[cur + n * along]
        # the median's whole coordinate line goes left, so that the
        # separator is that line; a part that is one line splits by rank
        median = xa[start + np.maximum(size // 2 - 1, 0)]
        right = xa > median[seg]
        line = xa[end - 1] == median
        if line.any():
            right |= line[seg] & (np.arange(cur.size) - start[seg]
                                  >= (size // 2)[seg])
        # leaf parts are finished, so a clique holds a left and a right
        # dof only inside a part being split: the left dofs of such
        # cliques (sides OR-ed as bits, left 1 and right 2) are the dofs
        # with a right neighbour, and join the separator
        big = size > ND_LEAF_SIZE
        side[cur] = np.where(big[seg], right, 2)
        bits = np.left_shift(1, side) & 3
        acc = bits[cols[0]]
        for c in cols[1:]:
            acc |= bits[c]
        cut = np.zeros(n, dtype=bool)
        cut[cols[:, acc == 3]] = True
        sep = np.flatnonzero(cut[cur] & (side[cur] == 0))
        # the separators and the leaf parts are finished, in rank order: a
        # part's separator after both its subtrees, a leaf part whole
        s = seg[sep]
        nsep = np.bincount(s, minlength=nseg)
        perm[(base + size - nsep)[s] + np.arange(sep.size)
             - (np.cumsum(nsep) - nsep)[s]] = cur[sep]
        leaf = cur[_ranges(start[~big], size[~big])]
        perm[_ranges(base[~big], size[~big])] = leaf
        side[cur[sep]] = 2
        # the parts of the next level: each part's left, then its right
        # child, empty ones dropped, both orders split stably
        nr = np.where(big, np.add.reduceat(right, start, dtype=int), 0)
        nl = np.where(big, size - nr - nsep, 0)
        size = np.column_stack([nl, nr]).ravel()
        first = np.cumsum(size) - size
        to = _ranges(first[0::2], nl), _ranges(first[1::2], nr)
        base = np.column_stack([base, base + nl]).ravel()[size > 0]
        size = size[size > 0]
        byx, byy = (_split(o, side, to) for o in (byx, byy))
    return perm


def _ranges(first, count):
    """The concatenated ranges first[i] + arange(count[i])."""
    return (np.repeat(first - np.cumsum(count) + count, count)
            + np.arange(count.sum()))


def _split(order, side, to):
    """The dofs of `order` not finished, its left dofs to the positions
    to[0] and its right dofs to to[1], each side in the order given."""
    g = side[order]
    out = np.empty(to[0].size + to[1].size, dtype=order.dtype)
    out[to[0]] = order[g == 0]
    out[to[1]] = order[g == 1]
    return out


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
