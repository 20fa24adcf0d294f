"""Solve the practical-DPG normal equations and evaluate error measures.

The built-in error quantity is the residual measured through the inverse
test Gram, sqrt(r^T G^{-1} r) with r = ell - B u_h, i.e. the dual-norm
residual approximated in the enriched test space.  Field errors are
plain elementwise L2 norms; the boundary Cauchy data of the exterior
solution are reported in L2(Gamma).
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg

from . import bem as bem_mod
from . import dpg_assembly, quadrature, spaces
from .errors import NumericalError


@dataclass
class Solution:
    """Coefficient vectors of a coupled solve plus the derived exterior
    Cauchy data on the boundary.

    trace_c holds (uhat - u0) at the loop vertices and flux_c the
    panelwise (outward sighat - phi0 mean); with exact transmission data
    u^c = 0 both must vanish under refinement.  rule is the boundary
    error rule, shared by flux_c and boundary_cauchy_errors.
    """

    mesh: object
    data: object
    loop: object
    x: np.ndarray
    trial_layout: object = field(init=False, repr=False)
    trace_c: np.ndarray = field(init=False, repr=False)
    flux_c: np.ndarray = field(init=False, repr=False)
    rule: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self.trial_layout = spaces.TrialDofLayout.from_mesh(self.mesh)
        if self.x.shape != (self.trial_layout.dim,):
            raise ValueError("coefficient vector does not match layout")
        loop = self.loop
        verts = self.mesh.vertices[loop.vertex_ids]
        self.trace_c = (self.uhat[loop.vertex_ids]
                        - self.data.u0(verts[:, 0], verts[:, 1]))
        self.rule = spaces.boundary_quadrature(
            loop, spaces.ERROR_ORDER, spaces.ERROR_LEVELS,
            self.data.singular_vertex)
        self.flux_c = (loop.signs * self.sighat[loop.edge_ids]
                       - spaces.panel_means(loop, self.rule, spaces.normal_flux(
                           loop, self.data.phi0, self.rule)))

    @property
    def sigma(self):
        nt = self.trial_layout.n_tri
        return self.x[:2 * nt].reshape(nt, 2)

    @property
    def u(self):
        nt = self.trial_layout.n_tri
        return self.x[2 * nt:3 * nt]

    @property
    def uhat(self):
        nt = self.trial_layout.n_tri
        return self.x[3 * nt:3 * nt + self.trial_layout.n_vert]

    @property
    def sighat(self):
        off = 3 * self.trial_layout.n_tri + self.trial_layout.n_vert
        return self.x[off:]


def direct_solve(A, b):
    """Sparse direct solve of A x = b, the one factorization of both
    couplings.

    A comes in CSC and in a fill-reducing elimination order, as
    spaces.clique_matrix assembles both systems, and SuperLU factors
    that matrix itself (tocsc returns a CSC matrix as it is) in
    symmetric mode: diagonal pivots only, and no column reordering
    (permc_spec="NATURAL").  A must have a positive definite symmetric
    part (A + A^T) / 2.  Then so has every leading principal submatrix,
    which is therefore nonsingular, and every diagonal pivot is nonzero.
    The DPG skeleton system is SPD; the classical coupling's vertex
    system is a Schur complement of an elliptic Galerkin form.  One step
    of iterative refinement follows; a singular factor or a relative
    residual above 1e-10 raises NumericalError.
    """
    b = np.asarray(b, dtype=float)
    try:
        lu = scipy.sparse.linalg.splu(
            A.tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise NumericalError("system singular: {}".format(exc)) from exc
    x = lu.solve(b)
    x = x + lu.solve(b - A @ x)
    nb = np.linalg.norm(b)
    res = np.linalg.norm(b - A @ x)
    if not np.isfinite(res) or (nb > 0 and res > 1e-10 * nb):
        raise NumericalError(
            "system singular or too ill-conditioned: relative residual "
            "{:.3e}".format(res / nb if nb > 0 else np.inf))
    return x


def solve_spd(A, b):
    """Direct solve of a sparse symmetric positive definite system in
    elimination order (direct_solve).  b^T x <= 0 for b != 0 raises
    NumericalError: an SPD A has b^T A^{-1} b > 0, so this rejects some
    indefinite systems.  It is a necessary condition, not a proof of
    definiteness.  The DPG callers pass Gram products B^T G^{-1} B, SPD
    by construction if B has full rank.
    """
    b = np.asarray(b, dtype=float)
    x = direct_solve(A, b)
    if np.linalg.norm(b) > 0 and not np.dot(b, x) > 0.0:
        raise NumericalError("system not SPD: b^T x = {:.3e} <= 0"
                             .format(np.dot(b, x)))
    return x


def energy_error(blocks, x):
    """Dual-norm residual sqrt(r^T G^{-1} r), r = ell - B x, of a trial
    vector x, measured in the enriched test space."""
    r = blocks.ell - blocks.B @ x
    return float(np.sqrt(max(blocks.G.quadratic(r), 0.0)))


def _error_rules(singular_vertex, mesh):
    """Field-error quadrature as (triangle indices, rule) groups: degree 6
    on every element, except that elements touching singular_vertex (a
    point, or None) use a rule graded toward it, which resolves
    fractional-power gradient singularities there."""
    base = quadrature.triangle_duffy(4)  # degree 6
    if singular_vertex is None:
        return [(np.arange(mesh.num_triangles), base)]
    d = mesh.triangle_vertices() - np.asarray(singular_vertex, dtype=float)
    hit = np.hypot(d[..., 0], d[..., 1]) < 1e-13           # (T, 3)
    groups = [(np.nonzero(~hit.any(axis=1))[0], base)]
    for local in range(3):
        groups.append((np.nonzero(hit[:, local])[0],
                       quadrature.triangle_corner_rule(
                           order=12, levels=20, collapse=local)))
    return groups


def field_errors(mesh, exact_u, exact_grad, u_h, grad_h, singular_vertex):
    """L2(Omega) errors (err_u, err_grad) of a discrete scalar field and a
    piecewise-constant vector field against an exact solution.

    u_h(tri, bary) evaluates the discrete scalar on the triangles tri at
    barycentric points bary (q, 3) and returns shape (len(tri), q);
    grad_h (T, 2) holds the vector field per element.
    """
    verts = mesh.triangle_vertices()
    detJ = mesh.element_map()[1]
    err_u = err_g = 0.0
    for tri, (pts, w) in _error_rules(singular_vertex, mesh):
        x, y = quadrature.map_to_physical(verts[tri], pts)
        du = exact_u(x, y) - u_h(tri, quadrature.barycentric(pts))
        gx, gy = exact_grad(x, y)
        dgx = np.broadcast_to(gx, x.shape) - grad_h[tri, 0][:, None]
        dgy = np.broadcast_to(gy, x.shape) - grad_h[tri, 1][:, None]
        err_u += ((du ** 2) @ w * detJ[tri]).sum()
        err_g += ((dgx ** 2 + dgy ** 2) @ w * detJ[tri]).sum()
    return float(np.sqrt(err_u)), float(np.sqrt(err_g))


def boundary_norm(rule, sq):
    """sqrt of the integral over the boundary of values sq >= 0 at the
    nodes of a boundary_quadrature rule (its weights are rule[3])."""
    return float(np.sqrt(np.dot(rule[3], sq)))


def trace_error(loop, rule, vertex_vals, exact_u):
    """L2(Gamma) error of the piecewise-linear boundary function with the
    given loop-vertex values against exact_u(x, y), by a
    boundary_quadrature rule."""
    ends = bem_mod.hat_trace_coefs(loop, vertex_vals)

    def sq(x, y, t, a, b):
        return (a * (1.0 - t) + b * t - exact_u(x, y)) ** 2
    return boundary_norm(rule, spaces.point_values(rule, sq, *ends.T))


def l2_errors(solution, exact_u, exact_grad):
    """L2(Omega) errors of the field variables: (err_u, err_sigma).

    Elementwise quadrature of degree >= 6 on the solution's mesh;
    elements touching its data's singular_vertex (a point, or None) use
    a graded rule that resolves fractional-power gradient singularities
    there.
    """
    u = solution.u
    return field_errors(solution.mesh, exact_u, exact_grad,
                        lambda tri, bary: u[tri, None], solution.sigma,
                        solution.data.singular_vertex)


def boundary_cauchy_errors(solution):
    """L2(Gamma) norms of the exterior Cauchy data
    (uhat|_Gamma - u0, outward sighat|_Gamma - phi0)."""
    loop, rule, phi0 = solution.loop, solution.rule, solution.data.phi0
    err_trace = trace_error(loop, rule, solution.uhat[loop.vertex_ids],
                            solution.data.u0)
    err_flux = boundary_norm(rule, spaces.point_values(
        rule, lambda x, y, t, s, nx, ny: (s - phi0(x, y, nx, ny)) ** 2,
        loop.signs * solution.sighat[loop.edge_ids], *loop.normals.T))
    return err_trace, err_flux


def eval_exterior_field(solution, points):
    """Reconstructed exterior solution from the discrete Cauchy data,
    u^c(x) = D(trace_c)(x) - S(flux_c)(x) for points in the exterior."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    loop = solution.loop
    loc = bem_mod.point_location(loop, points)
    bad = np.flatnonzero(loc != "exterior")
    if bad.size:
        raise ValueError("point {} is {} (need exterior)"
                         .format(points[bad[0]], loc[bad[0]]))
    trace = bem_mod.hat_trace_coefs(loop, solution.trace_c)
    single, double = bem_mod.eval_layers(loop, solution.flux_c, trace, points)
    return double - single


def piecewise_linear_boundary_norm(loop, vertex_vals):
    """Exact L2(Gamma) norm of the piecewise-linear boundary function with
    the given loop-vertex values."""
    a, b = bem_mod.hat_trace_coefs(loop, vertex_vals).T
    return float(np.sqrt((loop.lengths * (a * a + a * b + b * b) / 3.0).sum()))


def solve_dpg(mesh, data, bem_mats):
    """Assemble and solve the coupled DPG system on a mesh, with the
    boundary matrices bem_mats of its boundary loop and the field
    unknowns condensed out element by element.  The skeleton system is
    assembled and solved in nested-dissection order.

    Returns (solution, blocks); blocks are needed for the energy error.
    """
    blocks = dpg_assembly.assemble_operator_blocks(mesh, bem_mats, data)
    S, c, recover = dpg_assembly.build_normal_equations(
        blocks.B, blocks.G, blocks.ell,
        np.concatenate([mesh.vertices, mesh.edge_midpoints()]))
    return Solution(mesh=mesh, data=data, loop=bem_mats.loop,
                    x=recover(solve_spd(S, c))), blocks
