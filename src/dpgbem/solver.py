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
from .mesh import element_map

# Krylov stopping rule of both couplings (GMRES: iterations per cycle)
KRYLOV_RTOL, KRYLOV_MAXITER = 1e-12, 60


@dataclass
class Solution:
    """Coefficient vectors of a coupled solve plus the derived exterior
    Cauchy data on the boundary.

    trace_c holds (uhat - u0) at the loop vertices and flux_c the
    panelwise (outward sighat - phi0 mean); with exact transmission data
    u^c = 0 both must vanish under refinement.  rule is the boundary
    error rule, shared by flux_c and boundary_cauchy_errors.  level is
    the solved skeleton system, a spaces.Level.
    """

    mesh: object
    data: object
    loop: object
    x: np.ndarray
    level: object = field(default=None, repr=False)
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


def krylov_solve(method, A, b, **options):
    """Solve A x = b by scipy.sparse.linalg's cg or gmres (with the given
    options) to a relative residual of KRYLOV_RTOL, preconditioned by
    one V-cycle of A, a spaces.LevelOperator (any other matrix is one
    without a coarse level), and started from A.start.  A true relative
    residual above 1e-10 raises NumericalError."""
    b = np.asarray(b, dtype=float)
    if not isinstance(A, spaces.LevelOperator):
        A = spaces.LevelOperator(scipy.sparse.csr_array(A), [],
                                 np.zeros((0, 0)), [], 0.0, None, None)
    M = scipy.sparse.linalg.LinearOperator(A.shape, A.vcycle, dtype=float)
    x, _ = method(A, b, x0=A.start, rtol=KRYLOV_RTOL, atol=0.0, M=M,
                  **options)
    nb = np.linalg.norm(b)
    res = np.linalg.norm(b - A @ x)
    if not np.isfinite(res) or (nb > 0 and res > 1e-10 * nb):
        raise NumericalError(
            "system singular or too ill-conditioned: relative residual "
            "{:.3e}".format(res / nb if nb > 0 else np.inf))
    return x


def solve_spd(A, b):
    """CG (krylov_solve) on a symmetric positive definite system, at most
    KRYLOV_MAXITER iterations.  b^T x <= 0 for b != 0 raises
    NumericalError: an SPD A has b^T A^{-1} b > 0, so this rejects some
    indefinite systems.  It is a necessary condition, not a proof of
    definiteness.  The DPG callers pass Gram products B^T G^{-1} B, SPD
    by construction if B has full rank.
    """
    b = np.asarray(b, dtype=float)
    x = krylov_solve(scipy.sparse.linalg.cg, A, b, maxiter=KRYLOV_MAXITER)
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
    d = mesh.vertices - np.asarray(singular_vertex, dtype=float)
    hit = (np.hypot(d[:, 0], d[:, 1]) < 1e-13)[mesh.triangles]  # (T, 3)
    return [(np.flatnonzero(~hit.any(axis=1)), base)] + [
        (np.flatnonzero(hit[:, c]), quadrature.triangle_corner_rule(
            order=12, levels=20, collapse=c)) for c in range(3)]


def field_errors(mesh, exact_u, exact_grad, u_h, grad_h, singular_vertex):
    """L2(Omega) errors (err_u, err_grad) of a discrete scalar field and a
    piecewise-constant vector field against an exact solution.

    u_h(tri, bary) evaluates the discrete scalar on the triangles tri at
    barycentric points bary (q, 3) and returns shape (len(tri), q);
    grad_h (T, 2) holds the vector field per element.  Each rule group
    takes one batch of its elements at a time (spaces.batched); with no
    BLAS product per element, here or in u_h, no batch size moves a bit.
    """
    err_u = err_g = 0.0
    for tri, (pts, w) in _error_rules(singular_vertex, mesh):
        def squared(e):
            verts = np.take(mesh.vertices, mesh.triangles[tri[e]], axis=0)
            x, y = quadrature.map_to_physical(verts, pts)
            du = exact_u(x, y) - u_h(tri[e], quadrature.barycentric(pts))
            gx, gy = exact_grad(x, y)
            dgx = np.broadcast_to(gx, x.shape) - grad_h[tri[e], 0][:, None]
            dgy = np.broadcast_to(gy, x.shape) - grad_h[tri[e], 1][:, None]
            return np.einsum("ktq,q->tk", [du ** 2, dgx ** 2 + dgy ** 2],
                             w) * element_map(verts)[1][:, None]
        sq = spaces.batched(squared, tri.size)   # per-element squared errors
        err_u += sq[:, 0].sum()
        err_g += sq[:, 1].sum()
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
    """L2(Omega) errors of the field variables, (err_u, err_sigma):
    field_errors on the solution's mesh and its data's singular_vertex."""
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


def solve_dpg(mesh, data, bem_mats, coarse):
    """Assemble and solve the coupled DPG system on a mesh, with the
    boundary matrices bem_mats of its boundary loop and the field
    unknowns condensed out element by element; coarse is the level of
    the Solution on the mesh that mesh refines, or None.

    Returns (solution, blocks); blocks are needed for the energy error.
    """
    blocks = dpg_assembly.assemble_operator_blocks(mesh, bem_mats, data)
    S, c, recover = dpg_assembly.build_normal_equations(
        blocks.B, blocks.G, blocks.ell, mesh, coarse)
    y = solve_spd(S, c)
    return Solution(mesh=mesh, data=data, loop=bem_mats.loop, x=recover(y),
                    level=spaces.Level(mesh, S, y)), blocks
