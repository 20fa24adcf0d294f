"""Solve the practical-DPG normal equations and evaluate error measures.

The built-in error quantity is the residual measured through the inverse
test Gram, sqrt(r^T G^{-1} r) with r = ell - B u_h, i.e. the dual-norm
residual approximated in the enriched test space.  Field errors are
plain elementwise L2 norms; the boundary Cauchy data of the exterior
solution are reported in L2(Gamma).
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from . import bem as bem_mod
from . import dpg_assembly, quadrature, spaces
from .errors import NumericalError
from .mesh import boundary_loop


@dataclass
class Solution:
    """Coefficient vectors of a coupled solve plus the derived exterior
    Cauchy data on the boundary.

    trace_c holds (uhat - u0) at the loop vertices and flux_c the
    panelwise (outward sighat - phi0 mean); with exact transmission data
    u^c = 0 both must vanish under refinement.
    """

    mesh: object
    trial_layout: object
    data: object
    loop: object
    x: np.ndarray
    trace_c: np.ndarray = field(default=None)
    flux_c: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.x.shape != (self.trial_layout.dim,):
            raise ValueError("coefficient vector does not match layout")
        if self.trace_c is None:
            verts = self.mesh.vertices[self.loop.vertex_ids]
            self.trace_c = (self.uhat[self.loop.vertex_ids]
                            - self.data.u0(verts[:, 0], verts[:, 1]))
        if self.flux_c is None:
            phi0 = spaces.project_boundary_p0_flux(self.loop, self.data.phi0)
            self.flux_c = (self.loop.signs * self.sighat[self.loop.edge_ids]
                           - phi0)

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


def solve_spd(A, b):
    """Direct solve of a symmetric positive definite system.

    Dense matrices go through a Cholesky factorization, which rejects an
    indefinite A ('system not SPD').  Sparse ones go through SuperLU in
    symmetric mode, which does not check definiteness.  Both take one
    step of iterative refinement; what is checked is the relative
    residual, and above 1e-10 it raises NumericalError.  The DPG callers
    pass Gram products B^T G^{-1} B, SPD by construction if B has full
    rank.
    """
    b = np.asarray(b, dtype=float)
    if scipy.sparse.issparse(A):
        try:
            lu = scipy.sparse.linalg.splu(
                A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True))
            solve = lu.solve
        except RuntimeError as exc:
            raise NumericalError("system not SPD: {}".format(exc)) from exc
        matvec = A.dot
    else:
        A = np.asarray(A, dtype=float)
        try:
            cho = scipy.linalg.cho_factor(A)
        except scipy.linalg.LinAlgError as exc:
            raise NumericalError("system not SPD") from exc
        solve = lambda r: scipy.linalg.cho_solve(cho, r)
        matvec = A.dot
    x = solve(b)
    x = x + solve(b - matvec(x))
    nb = np.linalg.norm(b)
    res = np.linalg.norm(b - matvec(x))
    if not np.isfinite(res) or (nb > 0 and res > 1e-10 * nb):
        raise NumericalError(
            "system not SPD or too ill-conditioned: relative residual {:.3e}"
            .format(res / nb if nb > 0 else np.inf))
    return x


def energy_error(blocks, solution):
    """Dual-norm residual sqrt(r^T G^{-1} r), r = ell - B u_h, measured in
    the enriched test space."""
    x = solution.x if isinstance(solution, Solution) else np.asarray(solution)
    r = blocks.ell - blocks.B @ x
    return float(np.sqrt(max(blocks.G.quadratic(r), 0.0)))


def _error_rules(singular_vertex, mesh):
    """Field-error quadrature as (triangle indices, rule) groups: degree 6
    on every element, except that elements touching singular_vertex (if
    given) use a rule graded toward it, which resolves fractional-power
    gradient singularities there."""
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


def field_errors(mesh, exact_u, exact_grad, u_h, grad_h,
                 singular_vertex=None):
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
        phys = quadrature.map_to_physical(verts[tri], pts)
        x, y = phys[..., 0], phys[..., 1]
        du = exact_u(x, y) - u_h(tri, quadrature.barycentric(pts))
        gx, gy = exact_grad(x, y)
        dgx = np.broadcast_to(gx, x.shape) - grad_h[tri, 0][:, None]
        dgy = np.broadcast_to(gy, x.shape) - grad_h[tri, 1][:, None]
        err_u += ((du ** 2) @ w * detJ[tri]).sum()
        err_g += ((dgx ** 2 + dgy ** 2) @ w * detJ[tri]).sum()
    return float(np.sqrt(err_u)), float(np.sqrt(err_g))


def trace_error(loop, vertex_vals, exact_u):
    """L2(Gamma) error of the piecewise-linear boundary function with the
    given loop-vertex values against exact_u(x, y)."""
    pts, wl, t = spaces.boundary_quadrature(loop, spaces.ERROR_ORDER,
                                            spaces.ERROR_LEVELS)
    ends = bem_mod.hat_trace_coefs(loop, vertex_vals)
    lin = ends[:, 0, None] * (1.0 - t)[None, :] + ends[:, 1, None] * t[None, :]
    d = lin - exact_u(pts[..., 0], pts[..., 1])
    return float(np.sqrt((wl * d ** 2).sum()))


def l2_errors(solution, exact_u, exact_grad, mesh, singular_vertex=None):
    """L2(Omega) errors of the field variables: (err_u, err_sigma).

    Elementwise quadrature of degree >= 6; elements touching
    singular_vertex (if given) use a graded rule that resolves
    fractional-power gradient singularities there.
    """
    u = solution.u
    return field_errors(mesh, exact_u, exact_grad,
                        lambda tri, bary: u[tri, None], solution.sigma,
                        singular_vertex)


def boundary_cauchy_errors(solution):
    """L2(Gamma) norms of the exterior Cauchy data
    (uhat|_Gamma - u0, outward sighat|_Gamma - phi0)."""
    loop = solution.loop
    err_trace = trace_error(loop, solution.uhat[loop.vertex_ids],
                            solution.data.u0)
    pts, wl, _ = spaces.boundary_quadrature(loop, spaces.ERROR_ORDER,
                                            spaces.ERROR_LEVELS)
    sig = (loop.signs * solution.sighat[loop.edge_ids])[:, None]
    phi0 = solution.data.phi0(pts[..., 0], pts[..., 1],
                              loop.normals[:, None, 0],
                              loop.normals[:, None, 1])
    err_flux = np.sqrt((wl * (sig - phi0) ** 2).sum())
    return err_trace, float(err_flux)


def eval_exterior_field(solution, points):
    """Reconstructed exterior solution from the discrete Cauchy data,
    u^c(x) = D(trace_c)(x) - S(flux_c)(x) for points in the exterior."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    loop = solution.loop
    for p in points:
        loc = bem_mod.point_location(loop, p)
        if loc != "exterior":
            raise ValueError("point {} is {} (need exterior)".format(p, loc))
    trace = bem_mod.hat_trace_coefs(loop, solution.trace_c)
    vals = (bem_mod.eval_double_layer(loop, trace, points)
            - bem_mod.eval_single_layer(loop, solution.flux_c, points))
    return vals


def piecewise_linear_boundary_norm(loop, vertex_vals):
    """Exact L2(Gamma) norm of the piecewise-linear boundary function with
    the given loop-vertex values."""
    a, b = bem_mod.hat_trace_coefs(loop, vertex_vals).T
    return float(np.sqrt((loop.lengths * (a * a + a * b + b * b) / 3.0).sum()))


def solve_dpg(mesh, data, quad_order=8, bem_mats=None):
    """Assemble and solve the coupled DPG system on a mesh, with the field
    unknowns condensed out element by element.

    Returns (solution, blocks); blocks are needed for the energy error.
    """
    if bem_mats is None:
        bem_mats = bem_mod.assemble_bem(boundary_loop(mesh),
                                        quad_order=quad_order)
    trial = spaces.TrialDofLayout.from_mesh(mesh)
    test = spaces.TestDofLayout.from_mesh(mesh)
    blocks = dpg_assembly.assemble_operator_blocks(
        mesh, trial, test, bem_mats, data, boundary_order=quad_order)
    S, c, recover = dpg_assembly.build_normal_equations(blocks.B, blocks.G,
                                                        blocks.ell)
    x = recover(solve_spd(S, c))
    sol = Solution(mesh=mesh, trial_layout=trial, data=data,
                   loop=bem_mats.loop, x=x)
    return sol, blocks
