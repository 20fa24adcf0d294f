"""Classical nonsymmetric (one-equation) coupling as an independent
reference solver: continuous P1 elements for the interior field and
panelwise constants for the exterior flux.

The system solved is

    (grad u, grad v) - <phi, v>_G           = (f, v) + <phi0, v>_G
    <(1/2 - K) u, psi>_G + <V phi, psi>_G   = <(1/2 - K) u0, psi>_G

whose solution relates to the coupled ultra-weak one by u = uhat and
phi = outward sighat - phi0 on the boundary.  The plain bilinear form is
not elliptic; by default a rank-one stabilization term
<1, (1/2-K)u + V phi> <1, (1/2-K)v + V psi> is added, which leaves the
solution unchanged but makes the form elliptic.

All boundary operator matrices are derived from the same BemMatrices
instance the coupled solver consumes: the panelwise-constant test rows
are the pairwise sums of the discontinuous-P1 rows.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from . import bem as bem_mod
from . import quadrature, spaces
from .errors import NumericalError
from .mesh import REF_HAT_GRADS, boundary_loop, element_map
from .solver import field_errors, nested_dissection, trace_error


@dataclass
class JnSystem:
    """Assembled coupling system; unknowns ordered (u at all vertices,
    phi on the boundary panels in loop order).  vertices holds the mesh
    vertex coordinates, which order the direct solve."""

    matrix: scipy.sparse.csr_matrix
    rhs: np.ndarray
    n_vert: int
    vertices: np.ndarray
    loop: object


def p0_test_rows(matrix_2p):
    """Sum the two discontinuous-P1 test rows of each panel, yielding the
    panelwise-constant test rows (P0(Gamma) = sum of the P1 hat pair)."""
    return matrix_2p[0::2] + matrix_2p[1::2]


def _p1_stiffness(mesh):
    """P1 stiffness matrix; its 3x3 element blocks are formed once per
    geometry class (Mesh.element_classes)."""
    cls, rep = mesh.element_classes()
    _, detJ, Jinv = element_map(mesh.vertices[mesh.triangles[rep]])
    g = np.einsum("id,tdc->tic", REF_HAT_GRADS, Jinv)
    loc = (np.einsum("tic,tjc->tij", g, g) * (0.5 * detJ)[:, None, None])[cls]
    rows = np.repeat(mesh.triangles[:, :, None], 3, axis=2).ravel()
    cols = np.repeat(mesh.triangles[:, None, :], 3, axis=1).ravel()
    return scipy.sparse.coo_matrix(
        (loc.ravel(), (rows, cols)),
        shape=(mesh.num_vertices, mesh.num_vertices))


def _p1_load(mesh, f):
    pts, w = quadrature.triangle_duffy(5)
    bary = quadrature.barycentric(pts)
    phys = quadrature.map_to_physical(mesh.triangle_vertices(), pts)
    fv = np.broadcast_to(f(phys[..., 0], phys[..., 1]), phys[..., 0].shape)
    areas2 = 2.0 * mesh.areas()
    loc = np.einsum("q,tq,qj->tj", w, fv, bary) * areas2[:, None]
    out = np.zeros(mesh.num_vertices)
    np.add.at(out, mesh.triangles.ravel(), loc.ravel())
    return out


def assemble_jn(mesh, data, stabilized=True, bem_mats=None):
    """Assemble the coupling system for the given transmission data
    (mapped as in the equivalence with the ultra-weak formulation:
    volume source f, boundary terms phi0 and (1/2 - K)u0)."""
    if bem_mats is None:
        bem_mats = bem_mod.assemble_bem(boundary_loop(mesh))
    loop = bem_mats.loop
    P = loop.num_panels
    nv = mesh.num_vertices
    nxt = (np.arange(P) + 1) % P

    A_uu = _p1_stiffness(mesh)

    # -<phi, v>_Gamma: each panel loads its two endpoint hats with h/2
    rows = np.concatenate([loop.vertex_ids, loop.vertex_ids[nxt]])
    cols = np.concatenate([np.arange(P), np.arange(P)])
    vals = np.concatenate([loop.lengths, loop.lengths]) * (-0.5)
    C = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(nv, P))

    # <(1/2 - K) u, psi> and <V phi, psi> with panelwise-constant tests
    D_bd = p0_test_rows(bem_mats.half_minus_k())     # (P, P) vertex cols
    V00 = p0_test_rows(bem_mats.V_ps)                # (P, P)
    rr = np.repeat(np.arange(P), P)
    D = scipy.sparse.coo_matrix(
        (D_bd.ravel(), (rr, np.tile(loop.vertex_ids, P))), shape=(P, nv))

    mat = scipy.sparse.bmat([[A_uu, C], [D, V00]], format="csr")

    rhs = np.zeros(nv + P)
    rhs[:nv] = _p1_load(mesh, data.f)
    # <phi0, v>_Gamma against the boundary hats
    order, levels = spaces.PANEL_ORDER, spaces.DATA_LEVELS
    pts, wl, t = spaces.boundary_quadrature(loop, order, levels)
    ph = data.phi0(pts[..., 0], pts[..., 1], loop.normals[:, None, 0],
                   loop.normals[:, None, 1])
    np.add.at(rhs[:nv], loop.vertex_ids, (wl * ph * (1 - t)[None, :]).sum(axis=1))
    np.add.at(rhs[:nv], loop.vertex_ids[nxt], (wl * ph * t[None, :]).sum(axis=1))
    # <(1/2 - K) u0, psi>: mass part directly, kernel part via projection
    u0v = data.u0(pts[..., 0], pts[..., 1])
    mass_u0 = (wl * u0v).sum(axis=1)
    u0_hat = spaces.project_boundary_p1(loop, data.u0, order, levels)
    K00 = p0_test_rows(bem_mats.K_up)
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
    return JnSystem(matrix=mat, rhs=rhs, n_vert=nv, vertices=mesh.vertices,
                    loop=loop)


def solve_jn(system):
    """Direct solve; returns (u at vertices, phi per boundary panel).

    The unknowns go in solver.nested_dissection order, with the boundary
    vertices and the panels, which the boundary integral operators
    couple densely, last.  SuperLU factors in that order
    (permc_spec="NATURAL") with its default threshold partial pivoting,
    which may exchange rows for stability.  The system is not symmetric,
    so definiteness is not checked; a singular factor or a non-finite
    solution raises NumericalError.
    """
    loop, nv = system.loop, system.n_vert
    xy = np.concatenate([system.vertices,
                         (loop.points_a + loop.points_b) / 2.0])
    perm = nested_dissection(system.matrix, xy, np.concatenate(
        [loop.vertex_ids, nv + np.arange(loop.num_panels)]))
    x = np.empty_like(system.rhs)
    try:
        lu = scipy.sparse.linalg.splu(
            system.matrix[perm][:, perm].tocsc(), permc_spec="NATURAL")
        x[perm] = lu.solve(system.rhs[perm])
    except RuntimeError as exc:
        raise NumericalError("coupling system singular: {}".format(exc)) from exc
    if not np.all(np.isfinite(x)):
        raise NumericalError("coupling solve produced non-finite values")
    return x[:nv], x[nv:]


def jn_errors(mesh, u_nodal, exact_u, exact_grad, singular_vertex=None):
    """L2 error of the P1 interior solution and of its elementwise
    gradient; companion of the coupled solver's field errors."""
    uloc = u_nodal[mesh.triangles]
    grad_h = np.einsum("ti,tic->tc", uloc, mesh.hat_gradients())
    return field_errors(mesh, exact_u, exact_grad,
                        lambda tri, bary: uloc[tri] @ bary.T, grad_h,
                        singular_vertex)


def jn_boundary_errors(loop, u_nodal, phi, data):
    """L2(Gamma) norms of the exterior Cauchy data of a coupling solution:
    (u|_Gamma - u0, phi).  Both vanish for data with u^c = 0."""
    err_trace = trace_error(loop, u_nodal[loop.vertex_ids], data.u0)
    err_flux = float(np.sqrt((loop.lengths * phi ** 2).sum()))
    return err_trace, err_flux
