"""Conforming triangulations of the two computational domains.

A mesh stores, besides vertices and (counterclockwise) triangles, the full
edge topology needed by skeleton-based assembly: every edge carries one
fixed global unit normal, every triangle side knows which edge it is and
whether the element-outward normal agrees with the global one, and the
boundary edges are kept in counterclockwise loop order with outward
normals.
"""

import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph

from .errors import MeshError

# Reference gradients of the barycentric coordinates
# lambda = (1 - xi - eta, xi, eta), i.e. of the three P1 vertex hats.
REF_HAT_GRADS = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


def element_map(verts):
    """Affine maps x = v0 + J xi from the reference triangle onto the
    triangles with corners verts (T, 3, 2).

    Returns (J, detJ, Jinv) of shapes (T, 2, 2), (T,) and (T, 2, 2); the
    columns of J are the edge vectors v1 - v0 and v2 - v0, and detJ is
    twice the signed area.
    """
    J = np.stack([verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0]],
                 axis=-1)
    detJ = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    Jinv = np.empty_like(J)
    Jinv[:, 0, 0] = J[:, 1, 1] / detJ
    Jinv[:, 0, 1] = -J[:, 0, 1] / detJ
    Jinv[:, 1, 0] = -J[:, 1, 0] / detJ
    Jinv[:, 1, 1] = J[:, 0, 0] / detJ
    return J, detJ, Jinv


def hat_gradients(Jinv):
    """Physical gradients (T, 3, 2) of the three vertex hat functions on
    the elements with inverse maps Jinv (element_map); row i belongs to
    local vertex i.  They are the rows of REF_HAT_GRADS times Jinv:
    -(row 0 + row 1), row 0 and row 1 of Jinv."""
    return np.stack([-Jinv[:, 0] - Jinv[:, 1], Jinv[:, 0], Jinv[:, 1]],
                    axis=1)


@dataclass(frozen=True)
class Mesh:
    """Immutable triangle mesh with oriented edge and boundary topology.

    Attributes
    ----------
    vertices : (V, 2) float array
    triangles : (T, 3) int array
        Vertex indices in counterclockwise order.
    edges : (E, 2) int array
        Unique edges, each stored with ascending vertex indices.
    edge_normals : (E, 2) float array
        Fixed global unit normal per edge (90 degrees clockwise from the
        tangent that runs from the lower to the higher vertex index).
    edge_lengths : (E,) float array
    tri_edges : (T, 3) int array
        Edge index of local side s (between local vertices s and s+1 mod 3).
    tri_edge_signs : (T, 3) int array
        +1 where the element-outward normal equals the global edge normal,
        -1 where it is opposite.
    boundary_edges : (Eb,) int array
        Edge indices ordered counterclockwise around the boundary loop.
    boundary_tails : (Eb,) int array
        First vertex of each boundary edge in loop direction.
    boundary_signs : (Eb,) int array
        +1 where the global edge normal points outward, else -1.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray
    edge_normals: np.ndarray
    edge_lengths: np.ndarray
    tri_edges: np.ndarray
    tri_edge_signs: np.ndarray
    boundary_edges: np.ndarray
    boundary_tails: np.ndarray
    boundary_signs: np.ndarray

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    @property
    def num_edges(self):
        return self.edges.shape[0]

    @property
    def num_boundary_edges(self):
        return self.boundary_edges.shape[0]

    def triangle_vertices(self):
        """Coordinates of all triangle corners, shape (T, 3, 2)."""
        return np.take(self.vertices, self.triangles, axis=0)

    def element_map(self):
        """Affine element maps, see :func:`element_map`."""
        return element_map(self.triangle_vertices())

    def element_classes(self):
        """Group the elements by the bit patterns of their side vectors
        v1 - v0, v2 - v1 and v0 - v2.  These fix the map J (v2 - v0 is
        -(v0 - v2) exactly), the side lengths and the element-outward
        side normals bit for bit, so whatever is computed from these
        alone is the same on every element of a class.

        Returns (cls, rep): the class of each element (T,) and one
        element of each class (C,).
        """
        v = self.triangle_vertices()
        key = (np.roll(v, -1, axis=1) - v).reshape(-1, 6)
        rows = key.view(np.dtype((np.void, key.itemsize * key.shape[1])))
        _, rep, cls = np.unique(rows.ravel(), return_index=True,
                                return_inverse=True)
        return cls, rep

    def edge_midpoints(self):
        """Midpoint of every edge, shape (E, 2)."""
        return np.take(self.vertices, self.edges, axis=0).mean(axis=1)

    def mesh_size(self):
        """Global mesh size h = longest edge."""
        return float(self.edge_lengths.max())

    def __repr__(self):
        return ("Mesh(V={}, T={}, E={}, boundary={})"
                .format(self.num_vertices, self.num_triangles,
                        self.num_edges, self.num_boundary_edges))


def build_mesh(vertices, triangles):
    """Construct a :class:`Mesh` from raw arrays, deriving all topology.

    Raises
    ------
    MeshError
        On a vertex coordinate that is not finite, a vertex index outside
        [0, V), non-positive triangle areas, non-manifold edges, a boundary
        that is not a single closed loop, or a domain of diameter >= 1.
    """
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=int)
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise MeshError("vertices must have shape (V, 2)")
    if triangles.ndim != 2 or triangles.shape[1] != 3:
        raise MeshError("triangles must have shape (T, 3)")
    if not np.isfinite(vertices).all():
        raise MeshError("vertex coordinates must be finite")
    if np.any((triangles < 0) | (triangles >= vertices.shape[0])):
        raise MeshError("vertex index outside [0, V)")

    detJ = element_map(np.take(vertices, triangles, axis=0))[1]
    if np.any(detJ <= 0.0):
        bad = int(np.argmin(detJ))
        raise MeshError("triangle {} has non-positive area".format(bad))

    span = vertices.max(axis=0) - vertices.min(axis=0)
    if float(np.hypot(*span)) >= 1.0:
        raise MeshError(
            "domain diameter {:.6g} >= 1; the single-layer operator "
            "loses ellipticity".format(float(np.hypot(*span))))

    # side k = 3 t + s of triangle t runs from its local vertex s to s+1
    tails = triangles.ravel()
    heads = np.roll(triangles, -1, axis=1).ravel()
    lo, hi = np.minimum(tails, heads), np.maximum(tails, heads)
    _, first, inverse, counts = np.unique(
        lo * vertices.shape[0] + hi, return_index=True,
        return_inverse=True, return_counts=True)
    if np.any(counts > 2):
        k = first[np.argmax(counts > 2)]
        raise MeshError("edge {} shared by >2 triangles"
                        .format((int(lo[k]), int(hi[k]))))
    # edges are numbered in the order their first side is met
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    side_edge = rank[inverse]
    first = first[order]

    edges = np.stack([lo[first], hi[first]], axis=1)
    tri_edges = side_edge.reshape(-1, 3)
    tri_edge_signs = np.where(tails == lo, 1, -1).reshape(-1, 3)

    tang = vertices[edges[:, 1]] - vertices[edges[:, 0]]
    edge_lengths = np.hypot(tang[:, 0], tang[:, 1])
    tang = tang / edge_lengths[:, None]
    edge_normals = np.stack([tang[:, 1], -tang[:, 0]], axis=1)

    # a boundary edge is the side of one triangle only
    bnd = first[counts[order] == 1]
    boundary_edges, boundary_tails, boundary_signs = _walk_boundary(
        side_edge[bnd], tails[bnd], heads[bnd], tri_edge_signs.ravel()[bnd])

    return Mesh(vertices=vertices, triangles=triangles, edges=edges,
                edge_normals=edge_normals, edge_lengths=edge_lengths,
                tri_edges=tri_edges, tri_edge_signs=tri_edge_signs,
                boundary_edges=boundary_edges,
                boundary_tails=boundary_tails, boundary_signs=boundary_signs)


def _walk_boundary(bnd, tails, heads, signs):
    # bnd: boundary edges in ascending order, with the tail, head and sign
    # of their only side.  Each boundary edge is traversed by its element
    # in the element's counterclockwise order, which chains the edges
    # counterclockwise around the domain (the domain lies to the left).
    if bnd.size == 0:
        raise MeshError("mesh has no boundary")
    by_tail = np.argsort(tails)
    sorted_tails = tails[by_tail]
    if np.any(sorted_tails[1:] == sorted_tails[:-1]):
        raise MeshError("boundary is not a simple closed loop")
    at = np.minimum(np.searchsorted(sorted_tails, heads), bnd.size - 1)
    if np.any(sorted_tails[at] != heads):
        raise MeshError("boundary loop is not closed")
    # every vertex is as often a head as a tail, so with unique tails
    # the successors are a permutation
    succ = by_tail[at]                       # edge whose tail is my head
    # the walk from edge 0 along the successors visits its whole loop
    order = scipy.sparse.csgraph.depth_first_order(scipy.sparse.csr_array(
        (np.ones(bnd.size), succ, np.arange(bnd.size + 1))), 0,
        return_predecessors=False)
    if order.size < bnd.size:
        raise MeshError("boundary has more than one loop")
    return bnd[order], tails[order], signs[order]


def _check_grid(domain, name, size, n):
    def real(v):  # a bool is an int, but not a size or a count
        return isinstance(v, numbers.Real) and not isinstance(v, bool)
    if not (real(n) and np.isfinite(n) and n >= 1 and int(n) == n):
        raise MeshError("n must be a positive integer")
    if not (real(size) and size > 0.0):
        raise MeshError("{} must be positive".format(name))
    if 2.0 * np.sqrt(2.0) * size >= 1.0:
        raise MeshError("{} with {} {:.6g} has diameter >= 1"
                        .format(domain, name, size))


def _grid_mesh(line, keep):
    """Mesh of the cells keep[j, i] of the grid with vertex lines x = line[i]
    and y = line[j].  Vertices are numbered row by row, x fastest, with
    those of no kept cell left out; each cell is split along its rising
    diagonal."""
    m = line.size
    j, i = np.nonzero(keep)
    p00 = j * m + i
    corners = np.stack([p00, p00 + 1, p00 + m + 1, p00 + m], axis=1)
    used = np.zeros(m * m, dtype=bool)
    used[corners] = True
    quads = (np.cumsum(used) - 1)[corners]
    yy, xx = np.meshgrid(line, line, indexing="ij")
    vertices = np.stack([xx.ravel(), yy.ravel()], axis=1)[used]
    return build_mesh(vertices, quads[:, [0, 1, 2, 0, 2, 3]].reshape(-1, 3))


def make_square_mesh(half_width, n):
    """Structured mesh of the square (-w, w)^2 with n x n cells, each split
    into two triangles.

    Parameters
    ----------
    half_width : float
        Half the side length w; the domain diameter 2*sqrt(2)*w must be < 1.
    n : int
        Subdivisions per side, at least 1.
    """
    _check_grid("square", "half_width", half_width, n)
    n = int(n)
    return _grid_mesh(np.linspace(-half_width, half_width, n + 1),
                      np.ones((n, n), dtype=bool))


def make_lshape_mesh(quarter, n):
    """Structured mesh of the L-shaped domain
    (-q, q)^2 minus the quadrant (0, q) x (-q, 0), with n x n cells per
    quarter square and the reentrant corner at the origin."""
    _check_grid("L-shape", "quarter", quarter, n)
    n = int(n)
    k = np.arange(-n, n + 1)
    # cell (i, j) has lower left corner (k[i], k[j]) in units of q / n
    removed = (k[None, :-1] >= 0) & (k[:-1, None] <= -1)
    return _grid_mesh(k * (quarter / n), ~removed)


def refine_uniform(mesh):
    """Red refinement: split every triangle into 4 congruent children by
    connecting the edge midpoints.  Preserves shape regularity exactly and
    halves every edge length."""
    # the midpoint of edge e becomes vertex V + e
    mids = mesh.edge_midpoints()
    a, b, c = mesh.triangles.T
    mab, mbc, mca = (mesh.num_vertices + mesh.tri_edges).T
    tris = np.stack([a, mab, mca, mab, b, mbc, mca, mbc, c, mab, mbc, mca],
                    axis=1).reshape(-1, 3)
    return build_mesh(np.concatenate([mesh.vertices, mids]), tris)


@dataclass(frozen=True)
class BoundaryLoop:
    """Boundary edges as oriented panels, counterclockwise around the domain.

    Panel k runs from ``points_a[k]`` to ``points_b[k]``; its tail vertex is
    loop vertex k (global index ``vertex_ids[k]``) so that panel k-1 and k
    share loop vertex k.
    """

    points_a: np.ndarray
    points_b: np.ndarray
    normals: np.ndarray
    lengths: np.ndarray
    edge_ids: np.ndarray
    signs: np.ndarray
    vertex_ids: np.ndarray

    @property
    def num_panels(self):
        return self.points_a.shape[0]


def boundary_loop(mesh):
    """The ordered boundary loop of a mesh as panel data, read from its
    boundary edges.  The outward normal of every panel is its edge normal
    times the boundary sign, n = (t_y, -t_x) for the counterclockwise
    tangent t.
    """
    e = mesh.boundary_edges
    tails = mesh.boundary_tails
    signs = mesh.boundary_signs
    return BoundaryLoop(
        points_a=mesh.vertices[tails],
        points_b=mesh.vertices[mesh.edges[e].sum(axis=1) - tails],
        normals=signs[:, None] * mesh.edge_normals[e],
        lengths=mesh.edge_lengths[e], edge_ids=e.copy(), signs=signs.copy(),
        vertex_ids=tails.copy())
