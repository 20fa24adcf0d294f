"""Classical nonsymmetric (one-equation) coupling as an independent
reference solver: continuous P1 elements for the interior field and
panelwise constants for the exterior flux.

The system solved is

    (grad u, grad v) - <phi, v>_G           = (f, v) + <phi0, v>_G
    <(1/2 - K) u, psi>_G + <V phi, psi>_G   = <(1/2 - K) u0, psi>_G

whose solution relates to the coupled ultra-weak one by u = uhat and
phi = outward sighat - phi0 on the boundary.  The plain bilinear form is
not elliptic; the rank-one stabilization term
<1, (1/2-K)u + V phi> <1, (1/2-K)v + V psi> is added, which leaves the
solution unchanged but makes the form elliptic.

The panel unknowns phi couple only to each other and to the boundary
vertices, through dense blocks.  Their block W = <V chi_p, chi_q> (plus
the stabilization's g_phi g_phi^T) is symmetric positive definite, so
assemble_jn eliminates phi with a LAPACK Cholesky factorization of W.
What solve_jn solves, by GMRES with a V-cycle over the refinement
levels, is the vertex system, a spaces.LinearSystem: the sparse P1
stiffness plus the dense Schur complement on the boundary vertices.

The boundary rows are bem.p0_test_rows of the BemMatrices that the
coupled solver reads: those of V, of H = (1/2)M - K and of the data term
<(1/2 - K) u0, psi>, which the DPG coupling's boundary block shares.
"""

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from . import bem as bem_mod
from . import spaces
from .errors import NumericalError
from .solver import KRYLOV_MAXITER, field_errors, krylov_solve, trace_error


def _p1_stiffness(mesh):
    """P1 stiffness blocks (T, 3, 3) on mesh.triangles."""
    g = mesh.hat_gradients()
    detJ = mesh.element_map()[1]
    return np.einsum("tic,tjc->tij", g, g) * (0.5 * detJ)[:, None, None]


def _p1_load(mesh, f):
    """(f, hat_i) at every mesh vertex."""
    return np.bincount(mesh.triangles.ravel(), spaces.element_load(
        mesh, f, lambda bary: bary).ravel(), minlength=mesh.num_vertices)


def _panels_to_hats(h, X):
    """-<phi, v>_Gamma of panel values X (P, ...) on the boundary hats in
    loop order: each panel loads its two endpoint hats with -h/2."""
    Y = (X.T * (-0.5 * h)).T
    return Y + np.roll(Y, 1, axis=0)


def assemble_jn(mesh, data, bem_mats, coarse):
    """Assemble the coupling system for the given transmission data
    (mapped as in the equivalence with the ultra-weak formulation:
    volume source f, boundary terms phi0 and (1/2 - K)u0), with phi
    eliminated; bem_mats are the boundary matrices of the mesh's
    boundary loop, and coarse the Level of the mesh that mesh refines, or
    None.  Returns the vertex system as a spaces.LinearSystem, Jacobi
    smoothed (damped by 0.6); its recover(u) returns (u, phi per boundary
    panel).  An indefinite panel block raises NumericalError."""
    loop = bem_mats.loop
    h, vid = loop.lengths, loop.vertex_ids

    # <(1/2 - K) u, psi> and <V phi, psi> with panelwise-constant tests
    B = bem_mod.p0_test_rows(bem_mats.H)             # (P, P) vertex cols
    W = bem_mod.p0_test_rows(bem_mats.V_ps)          # (P, P)

    rhs = _p1_load(mesh, data.f)
    rule = spaces.boundary_quadrature(loop, spaces.PANEL_ORDER,
                                      spaces.DATA_LEVELS, data.singular_vertex)
    # <phi0, v>_Gamma against the boundary hats
    tail, head = spaces.hat_moments(rule,
                                    spaces.normal_flux(loop, data.phi0, rule))
    np.add.at(rhs, vid, tail)
    np.add.at(rhs, np.roll(vid, -1), head)
    rhs_phi = bem_mod.p0_test_rows(bem_mats.half_minus_k_load(data.u0, rule))

    # g g^T with g = (<1, (1/2-K) hat_j>, <1, V chi_q>) lives on the
    # boundary vertices and the panels only
    g_u, g_phi = B.sum(axis=0), W.sum(axis=0)
    lam_total = rhs_phi.sum()                        # <1, (1/2-K) u0>
    rhs[vid] += lam_total * g_u
    rhs_phi = rhs_phi + lam_total * g_phi
    B = B + np.outer(g_phi, g_u)
    W = W + np.outer(g_phi, g_phi)
    try:
        W_chol = scipy.linalg.cholesky(W, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError("panel block of the coupling system not "
                             "positive definite") from exc
    # the Schur complement of W on the boundary vertices,
    # g_u g_u^T - C W^{-1} B with C = -<phi, v>_Gamma + g_u g_phi^T
    WiB, Wir = (scipy.linalg.cho_solve((W_chol, True), X)
                for X in (B, rhs_phi))
    S = np.outer(g_u, g_u - g_phi @ WiB) - _panels_to_hats(h, WiB)
    rhs[vid] -= _panels_to_hats(h, Wir) + g_u * (g_phi @ Wir)

    nv = mesh.num_vertices
    matrix = spaces.LevelOperator(
        spaces.clique_matrix(mesh.triangles, _p1_stiffness(mesh), nv), vid, S,
        [np.arange(nv)[:, None]], 0.6, coarse,
        None if coarse is None else spaces.p1_prolongation(coarse.mesh, mesh))
    return spaces.LinearSystem(matrix, rhs, lambda u: (
        u, scipy.linalg.cho_solve((W_chol, True), rhs_phi - B @ u[vid])))


def solve_jn(system):
    """(u at vertices, phi per panel) by GMRES (solver.krylov_solve), at
    most 3 cycles of KRYLOV_MAXITER iterations.  The vertex system is not
    symmetric, but its symmetric part is positive definite: it is a Schur
    complement of the stabilized, elliptic form."""
    return system.recover(krylov_solve(
        scipy.sparse.linalg.gmres, system.matrix, system.rhs,
        restart=KRYLOV_MAXITER, maxiter=3))


def jn_errors(mesh, u_nodal, exact_u, exact_grad, singular_vertex):
    """L2 error of the P1 interior solution and of its elementwise
    gradient; companion of the coupled solver's field errors."""
    return field_errors(
        mesh, exact_u, exact_grad,
        lambda t, b: np.einsum("ti,qi->tq", u_nodal[mesh.triangles[t]], b),
        lambda t: np.einsum("ti,tic->tc", u_nodal[mesh.triangles[t]],
                            mesh.hat_gradients(t)), singular_vertex)


def jn_boundary_errors(loop, u_nodal, phi, data):
    """L2(Gamma) norms of the exterior Cauchy data of a coupling solution:
    (u|_Gamma - u0, phi).  Both vanish for data with u^c = 0."""
    err_trace = trace_error(loop, spaces.boundary_quadrature(
        loop, spaces.ERROR_ORDER, spaces.ERROR_LEVELS, data.singular_vertex),
        u_nodal[loop.vertex_ids], data.u0)
    err_flux = float(np.sqrt((loop.lengths * phi ** 2).sum()))
    return err_trace, err_flux
