"""Assembly of the coupled ultra-weak system and its normal equations.

The rectangular operator B maps the trial unknowns (sigma, u, uhat,
sighat) to the enriched test space (elementwise scalar P2, vector P2, and
discontinuous P1 on the boundary), implementing the three coupled
equations

    (sigma, grad_T v)     - <sighat, v>_S                   = (f, v)
    (sigma, tau) + (u, div_T tau) - <uhat, tau.n>_S         = 0
    <V sighat, psi>_G + <(1/2 - K) uhat, psi>_G             = <(1/2-K)u0 + V phi0, psi>_G

Skeleton pairings carry the element-side sign of the fixed global edge
normal (sighat terms) and the element-outward normals (uhat terms).

The test Gram G is block diagonal: one H1 block (6x6) and one H(div)
block (12x12) per element, plus the single-layer Gram on the boundary
trace space; no cross blocks.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg
import scipy.sparse

from . import bem, quadrature, spaces
from .errors import NumericalError
from .mesh import element_map


def _class_products(M, cls, v):
    """M[cls[t]] @ v[t] (T, m) for the class matrices M (C, m, n) and the
    per-element vectors v (T, n) of build_normal_equations, the class
    blocks gathered one batch of elements at a time (spaces.batched)."""
    return spaces.batched(
        lambda e: np.einsum("tij,tj->ti", M[cls[e]], v[e]), cls.size)


@dataclass
class ProblemData:
    """Transmission problem data: interior source f(x, y), Dirichlet jump
    u0(x, y) on the boundary and Neumann jump phi0(x, y, nx, ny) taken with
    the outward normal.  All callables are numpy-vectorized.
    singular_vertex is the point where the data are singular (a reentrant
    corner), or None: the boundary rules are graded only on the panels
    near it, and the field-error rules only on the elements touching it.

    For d = 2 the data must satisfy int_Omega f + int_Gamma phi0 = 0;
    this holds automatically for data manufactured from an interior
    solution with vanishing exterior part.
    """

    f: Callable
    u0: Callable
    phi0: Callable
    singular_vertex: Optional[tuple]


@dataclass
class BlockOperator:
    """The coupled operator B, kept per Gram block and geometry class, as
    build_normal_equations and solver.energy_error read it: element t maps
    its trial columns (sigma_x, sigma_y, u, then its skeleton dofs
    spaces.element_skeleton of the mesh: uhat at its vertices, sighat on
    its edges) to its 6 H1 and 12 H(div) test rows by local[cls[t]]
    (C, 18, 9), with the sighat columns times its edge signs.  The
    boundary rows are V_ps (loop.signs * sighat) + H uhat of the
    BemMatrices bem, on the skeleton dofs gamma_cols (sighat on the loop
    edges, then uhat at the loop vertices), numbered as element_skeleton
    numbers them.  shape is (test dim, trial dim)."""

    local: np.ndarray
    cls: np.ndarray
    mesh: object
    bem: object
    gamma_cols: np.ndarray
    shape: tuple

    @property
    def nnz(self):
        """Entries of the element blocks and of the dense boundary block,
        explicit zeros included."""
        return self.cls.size * self.local[0].size + self.gamma_cols.size ** 2


@dataclass
class OperatorBlocks:
    """The assembled DPG operator: B, the element blocks of the test Gram
    per geometry class, Gv (C, 6, 6) on scalar P2 and Gtau (C, 12, 12)
    on vector P2 (element t has Gv[B.cls[t]] and Gtau[B.cls[t]]; the
    boundary block is B.bem.G_psi), and the load ell, (f, v) per element
    (6T) then the boundary rows (2P).  The H(div) rows of the load are
    zero, as the second equation has none, and are not stored."""

    B: BlockOperator
    Gv: np.ndarray
    Gtau: np.ndarray
    ell: np.ndarray

    @property
    def loads(self):
        """The load as (ell_v (T, 6), ell_G (2P,))."""
        nt = self.B.cls.size
        return self.ell[:6 * nt].reshape(nt, 6), self.ell[6 * nt:]


# ----------------------------------------------------------------------
# element geometry and reference data
# ----------------------------------------------------------------------

_VOL_PTS, _VOL_W = quadrature.triangle_degree4()
_EDGE_T, _EDGE_W = quadrature.gauss01(4)


_P2_VALS, _P2_GRADS = spaces.eval_p2_basis(quadrature.barycentric(_VOL_PTS))
# vertex hats (the barycentrics) and P2 basis at the edge nodes of each side
_HAT_EDGE = np.stack([spaces.side_bary(s, _EDGE_T) for s in range(3)])
_P2_EDGE = spaces.eval_p2_basis(_HAT_EDGE)[0]


def _p2_gradients(mesh, tri):
    """det J and the physical P2 gradients at the volume nodes of the
    triangles tri, grad_phys[t, q, i, c] = sum_d gref[q, i, d] Jinv[t, d, c]."""
    _, detJ, Jinv = element_map(np.take(mesh.vertices, mesh.triangles[tri],
                                        axis=0))
    return detJ, np.einsum("qid,tdc->tqic", _P2_GRADS, Jinv)


def _element_b_locals(mesh, rep):
    """Local B blocks (C, 18, 9) of the elements rep, with the sighat
    columns for edge sign +1; trial columns ordered
    [sigma_x, sigma_y, u, uhat(3 vertices), sighat(3 edges)]."""
    ntri = rep.size
    detJ, gphys = _p2_gradients(mesh, rep)
    loc = np.zeros((ntri, 18, 9))

    # integrals of physical gradients and values over each element
    int_grad = np.einsum("q,tqic->tic", _VOL_W, gphys) * detJ[:, None, None]
    int_val = np.einsum("q,qi->i", _VOL_W, _P2_VALS)[None, :] * detJ[:, None]

    # rows 0..5: test v; (sigma, grad v) columns
    loc[:, 0:6, 0] = int_grad[:, :, 0]
    loc[:, 0:6, 1] = int_grad[:, :, 1]

    # rows 6..17: test tau = e_c N_k in row 6 + 2k + c; (sigma, tau) and
    # (u, div tau)
    loc[:, 6:18:2, 0] = int_val
    loc[:, 7:18:2, 1] = int_val
    loc[:, 6:18, 2] = int_grad.reshape(ntri, 12)

    edges = mesh.tri_edges[rep]
    h_e = mesh.edge_lengths[edges]                     # (C, 3)
    n_out = (mesh.tri_edge_signs[rep][:, :, None]      # element outward
             * mesh.edge_normals[edges])               # normals (C, 3, 2)

    # edge moments of the P2 traces and of the vertex hats
    mom_v = np.einsum("q,sqi->si", _EDGE_W, _P2_EDGE)       # (3, 6)
    mom_hv = np.einsum("q,sqj,sqi->sji", _EDGE_W, _HAT_EDGE, _P2_EDGE)  # (3,3,6)

    # - <sighat, v>: column 6+s gets -h * int_e N_i (times the edge sign
    # of each element, applied by the readers of BlockOperator)
    loc[:, 0:6, 6:9] = -h_e[:, None, :] * mom_v.T[None]

    # - <uhat, tau.n>: column 3+j gets -sum_s h_s (n_out)_c int_e hat_j N_k
    loc[:, 6:18, 3:6] -= np.einsum("ts,sjk,tsc->tkcj", h_e, mom_hv,
                                   n_out).reshape(ntri, 12, 3)
    return loc


def assemble_B(mesh, bem_mats, classes):
    """Assemble the coupled operator (rows: test dofs, columns: trial
    dofs) per Gram block and per geometry class, as a BlockOperator;
    classes is mesh.element_classes().  The test space has 6 H1 and 12
    H(div) dofs per element and 2 per boundary panel, 18T + 2P in all."""
    loop, nv = bem_mats.loop, mesh.num_vertices
    cls, rep = classes
    return BlockOperator(
        local=_element_b_locals(mesh, rep), cls=cls, mesh=mesh, bem=bem_mats,
        gamma_cols=np.concatenate([nv + loop.edge_ids, loop.vertex_ids]),
        shape=(18 * mesh.num_triangles + 2 * loop.num_panels,
               3 * mesh.num_triangles + nv + mesh.num_edges))


def assemble_gram(mesh, classes):
    """The element blocks (Gv, Gtau) of the block-diagonal test Gram, per
    geometry class int grad v . grad v' + v v' and int tau . tau' +
    div tau div tau'; classes is mesh.element_classes().  The boundary
    block is the bem module's G_psi."""
    rep = classes[1]
    detJ, gphys = _p2_gradients(mesh, rep)
    w = _VOL_W
    mass = np.einsum("q,qi,qj->ij", w, _P2_VALS, _P2_VALS)
    Gv = (np.einsum("q,tqic,tqjc->tij", w, gphys, gphys)
          + mass[None]) * detJ[:, None, None]

    # div(e_c N_k) = d N_k / d x_c lines up with the (k, c) interleaving
    div = gphys.reshape(rep.size, w.size, 12)
    Gtau = (np.kron(mass, np.eye(2))[None] * detJ[:, None, None]
            + np.einsum("q,tqa,tqb->tab", w, div, div) * detJ[:, None, None])
    try:
        np.linalg.cholesky(Gv)
        np.linalg.cholesky(Gtau)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("test Gram block not SPD; assembly bug") from exc
    return Gv, Gtau


def assemble_load(mesh, data, bem_mats):
    """Assemble the load vector: (f, v) per element, written straight into
    it, plus the boundary data term <(1/2 - K) u0 + V phi0, psi>, V
    applied to the panel means of phi0 (OperatorBlocks.ell)."""
    nt, loop = mesh.num_triangles, bem_mats.loop
    ell = np.empty(6 * nt + 2 * loop.num_panels)
    spaces.element_load(mesh, data.f,
                        lambda bary: spaces.eval_p2_basis(bary)[0],
                        ell[:6 * nt].reshape(nt, 6))

    # u0 and phi0 on one boundary rule
    rule = spaces.boundary_quadrature(loop, spaces.DATA_LEVELS,
                                      data.singular_vertex)
    phi0_p0 = spaces.panel_means(loop, rule,
                                 spaces.normal_flux(loop, data.phi0, rule))
    ell[6 * nt:] = (bem_mats.half_minus_k_load(data.u0, rule)
                    + bem_mats.V_ps @ phi0_p0)
    return ell


def assemble_operator_blocks(mesh, bem_mats, data):
    """Assemble B, the test Gram and ell together."""
    classes = mesh.element_classes()
    B = assemble_B(mesh, bem_mats, classes)
    Gv, Gtau = assemble_gram(mesh, classes)
    return OperatorBlocks(B, Gv, Gtau, assemble_load(mesh, data, bem_mats))


def _gram_products(blocks):
    """B_k^T G_k^{-1} B_k per Gram block k: (C, 9, 9) per geometry class,
    its H1 and H(div) blocks summed, with the sighat columns for edge sign
    +1; Z = G_v^{-1} B_v (C, 6, 9) per class, the H1 block of G^{-1} B;
    and B_G^T G_G^{-1} [B_G | ell_G] (2P, 2P + 1) for the boundary.  ell
    has no H(div) rows, so element t's load column
    B_T^T G_T^{-1} ell_T is Z[cls[t]]^T ell_v,T with its sighat entries
    times the edge signs, a class map of its H1 load.  B_G = [V_ps D | H],
    D = diag(loop.signs), and V_ps = G_G E with E^T = bem.p0_test_rows:
    so the sighat rows are D p0(V_ps) D and D p0([H | ell_G]), with no
    solve, and the uhat rows W^T W with W = L^{-1} [H | ell_G],
    G_G = L L^T."""
    B = blocks.B
    bv, bt = B.local[:, :6], B.local[:, 6:]
    Z = np.linalg.solve(blocks.Gv, bv)
    a = np.swapaxes(bv, 1, 2) @ Z
    a += np.swapaxes(bt, 1, 2) @ np.linalg.solve(blocks.Gtau, bt)
    s = B.bem.loop.signs[:, None]
    P = s.size
    # [H | ell_G] in the Fortran order of LAPACK, which solves it in place
    # into W; both products are written into g
    w = np.empty((2 * P, P + 1), order="F")
    w[:, :P], w[:, P] = B.bem.H, blocks.loads[1]
    g = np.empty((2 * P, 2 * P + 1))
    np.multiply(s, bem.p0_test_rows(B.bem.V_ps), out=g[:P, :P])
    g[:P, :P] *= s.T
    np.multiply(s, bem.p0_test_rows(w), out=g[:P, P:])
    g[P:, :P] = g[:P, P:-1].T
    w = scipy.linalg.solve_triangular(B.bem.G_psi_chol, w, lower=True,
                                      overwrite_b=True)
    np.matmul(w[:, :-1].T, w, out=g[P:, P:])
    return a, Z, g


def build_normal_equations(blocks, coarse):
    """Form the practical-DPG normal equations B^T G^{-1} B x =
    B^T G^{-1} ell of the OperatorBlocks blocks on their mesh, with the
    field unknowns condensed out.

    G is block diagonal, so they are a sum of dense products
    B_k^T G_k^{-1} B_k over the Gram blocks k, with G^{-1} applied
    blockwise: a 9x9 block per element and one (2P)x(2P) block on the
    skeleton dofs for the boundary.  So each element's 3 field dofs
    (sigma, u) are eliminated in its own block, and the 6x6 Schur
    complements and the boundary block sum to the SPD skeleton system
    S y = c in (uhat, sighat), of dimension V + E.  The element blocks
    and their condensation are formed once per geometry class and
    signed per element, and so is the load: with Z = G_v^{-1} B_v and
    Y = A_ff^{-1} A_fs, element t's field values and condensed load are
    the class maps Mf = A_ff^{-1} Z_f^T and Ms = Z_s^T - Y^T Z_f^T of its
    H1 load, then signed.

    Returns the spaces.LinearSystem (S, c, recover), recover(y) the full
    trial vector, whose skeleton part (spaces.trial_parts) is y: S is a
    spaces.LevelOperator in natural skeleton order, the element blocks
    summed sparse and the boundary block dense on B.gamma_cols, over the
    Level coarse of the mesh that B.mesh refines (or None), with
    skeleton vertex patches damped by 0.3.
    """
    a, Z, g = _gram_products(blocks)
    B, mesh = blocks.B, blocks.B.mesh
    try:
        np.linalg.cholesky(a[:, :3, :3])
    except np.linalg.LinAlgError as exc:
        raise NumericalError("field block of the normal equations not SPD"
                             ) from exc
    # A_ff^{-1} A_fs (C, 3, 6) and the Schur complement per class;
    # A_sf = A_fs^T by symmetry
    Y = np.linalg.solve(a[:, :3, :3], a[:, :3, 3:])
    loc = a[:, 3:, 3:] - np.einsum("tfi,tfj->tij", a[:, :3, 3:], Y)
    skel, s = spaces.element_skeleton(mesh)
    ns, gcols = mesh.num_vertices + mesh.num_edges, B.gamma_cols
    zT = np.swapaxes(Z, 1, 2)
    Mf = np.linalg.solve(a[:, :3, :3], zT[:, :3])
    Ms = zT[:, 3:] - np.swapaxes(Y, 1, 2) @ zT[:, :3]
    c = np.bincount(np.concatenate([skel.ravel(), gcols]), minlength=ns,
                    weights=np.concatenate([(_class_products(
                        Ms, B.cls, blocks.loads[0]) * s).ravel(), g[:, -1]]))
    K = spaces.clique_matrix(
        skel, loc[B.cls] * s[:, :, None] * s[:, None, :], ns)
    K = K.copy()  # at its nnz: the sum leaves K in its 36T-entry buffers
    if np.any(K.diagonal() + np.bincount(gcols, np.diagonal(g), ns) <= 0.0):
        raise NumericalError("normal equations indefinite: B rank deficient")
    S = spaces.LevelOperator(
        K, gcols, g[:, :-1], spaces.skeleton_patches(mesh), 0.3, coarse,
        None if coarse is None else scipy.sparse.block_diag(
            [spaces.p1_prolongation(coarse.mesh, mesh),
             spaces.flux_prolongation(coarse.mesh, mesh)], format="csr"))

    def recover(y):
        skel, s = spaces.element_skeleton(B.mesh)
        f = (_class_products(Mf, B.cls, blocks.loads[0])
             - _class_products(Y, B.cls, y[skel] * s))
        return np.concatenate([f[:, :2].ravel(), f[:, 2], y])

    return spaces.LinearSystem(S, c, recover)
