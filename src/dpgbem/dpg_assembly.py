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
    per-element vectors v (T, n), the class blocks gathered one batch of
    elements at a time (spaces.batched)."""
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


class BlockGram:
    """Block-diagonal test-space Gram matrix, applied and inverted blockwise.

    Blocks: per element the H1 Gram on scalar P2 and the H(div) Gram on
    vector P2, then one global boundary block, the single-layer Gram of
    the bem module (realizing the H^{-1/2}(Gamma) inner product).  The
    element blocks are kept once per geometry class (Mesh.element_classes):
    element t has the blocks Gv[cls[t]] and Gtau[cls[t]], whose inverses
    Gv_inv and Gtau_inv are formed once per class.
    """

    def __init__(self, Gv, Gtau, cls, bem_mats):
        self.Gv = Gv
        self.Gtau = Gtau
        self.cls = cls
        self.bem = bem_mats
        self.n_tri = cls.size
        try:
            np.linalg.cholesky(Gv)
            np.linalg.cholesky(Gtau)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("test Gram block not SPD; assembly bug") from exc
        self.Gv_inv = np.linalg.inv(Gv)
        self.Gtau_inv = np.linalg.inv(Gtau)

    def _parts(self, vec):
        nt = self.n_tri
        return (vec[:6 * nt].reshape(nt, 6),
                vec[6 * nt:18 * nt].reshape(nt, 12),
                vec[18 * nt:])

    def solve_vec(self, vec):
        """G^{-1} @ vec, applied blockwise: the element blocks by products
        with the class inverses."""
        rv, rt, rp = self._parts(np.asarray(vec, dtype=float))
        return np.concatenate([
            _class_products(self.Gv_inv, self.cls, rv).ravel(),
            _class_products(self.Gtau_inv, self.cls, rt).ravel(),
            self.bem.solve_gpsi(rp)])

    def quadratic(self, vec):
        """vec . G^{-1} vec (the dual-norm square of a residual)."""
        return float(np.dot(vec, self.solve_vec(vec)))


@dataclass
class BlockOperator:
    """The coupled operator B, kept per Gram block and geometry class:
    element t maps its trial columns cols[t] (sigma_x, sigma_y, u, uhat
    at its vertices, sighat on its edges) to its 6 H1 and 12 H(div) test
    rows by local[cls[t]] (C, 18, 9) with column j times signs[t, j],
    the edge sign on the sighat columns and +1 elsewhere.  The boundary
    rows are V_ps (loop.signs * sighat) + H uhat of the BemMatrices bem,
    on the trial columns gamma_cols (sighat on the loop edges, uhat at
    the loop vertices).  shape is (test dim, trial dim)."""

    local: np.ndarray
    cls: np.ndarray
    signs: np.ndarray
    cols: np.ndarray
    bem: object
    gamma_cols: np.ndarray
    shape: tuple

    @property
    def nnz(self):
        """Entries of the element blocks and of the dense boundary block,
        explicit zeros included."""
        return self.cls.size * self.local[0].size + self.gamma_cols.size ** 2

    def __matmul__(self, x):
        x = np.asarray(x, dtype=float)
        y = _class_products(self.local, self.cls, x[self.cols] * self.signs)
        xs, xu = np.split(x[self.gamma_cols], 2)
        return np.concatenate([y[:, :6].ravel(), y[:, 6:].ravel(),
                               self.bem.V_ps @ (self.bem.loop.signs * xs)
                               + self.bem.H @ xu])


@dataclass
class OperatorBlocks:
    """Assembled trial-to-test operator B, test Gram G and load vector."""

    B: BlockOperator
    G: BlockGram
    ell: np.ndarray


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
    # of each element, which BlockOperator.signs holds)
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
    trial = spaces.TrialDofLayout.from_mesh(mesh)
    loop = bem_mats.loop
    tri = np.arange(mesh.num_triangles)
    cols = np.column_stack([
        trial.sigma(tri, 0), trial.sigma(tri, 1), trial.u(tri),
        trial.uhat(mesh.triangles), trial.sighat(mesh.tri_edges)])
    cls, rep = classes
    signs = np.ones((mesh.num_triangles, 9))
    signs[:, 6:] = mesh.tri_edge_signs
    return BlockOperator(
        local=_element_b_locals(mesh, rep), cls=cls, signs=signs, cols=cols,
        bem=bem_mats,
        gamma_cols=np.concatenate([trial.sighat(loop.edge_ids),
                                   trial.uhat(loop.vertex_ids)]),
        shape=(18 * mesh.num_triangles + 2 * loop.num_panels, trial.dim))


def assemble_gram(mesh, bem_mats, classes):
    """Assemble the block-diagonal test Gram: per geometry class
    int grad v . grad v' + v v' and int tau . tau' + div tau div tau',
    boundary block from the bem module; classes is
    mesh.element_classes()."""
    cls, rep = classes
    detJ, gphys = _p2_gradients(mesh, rep)
    w = _VOL_W
    mass = np.einsum("q,qi,qj->ij", w, _P2_VALS, _P2_VALS)
    Gv = (np.einsum("q,tqic,tqjc->tij", w, gphys, gphys)
          + mass[None]) * detJ[:, None, None]

    # div(e_c N_k) = d N_k / d x_c lines up with the (k, c) interleaving
    div = gphys.reshape(rep.size, w.size, 12)
    Gtau = (np.kron(mass, np.eye(2))[None] * detJ[:, None, None]
            + np.einsum("q,tqa,tqb->tab", w, div, div) * detJ[:, None, None])
    return BlockGram(Gv, Gtau, cls, bem_mats)


def assemble_load(mesh, data, bem_mats):
    """Assemble the load vector: (f, v) per element plus the boundary data
    term <(1/2 - K) u0 + V phi0, psi>, V applied to the panel means of
    phi0."""
    ell_v = spaces.element_load(mesh, data.f,
                                lambda bary: spaces.eval_p2_basis(bary)[0])

    # u0 and phi0 on one boundary rule
    rule = spaces.boundary_quadrature(bem_mats.loop, spaces.PANEL_ORDER,
                                      spaces.DATA_LEVELS, data.singular_vertex)
    phi0_p0 = spaces.panel_means(
        bem_mats.loop, rule, spaces.normal_flux(bem_mats.loop, data.phi0, rule))

    # the H(div) block is zero: the second equation has no load
    return np.concatenate([
        ell_v.ravel(), np.zeros(12 * mesh.num_triangles),
        bem_mats.half_minus_k_load(data.u0, rule) + bem_mats.V_ps @ phi0_p0])


def assemble_operator_blocks(mesh, bem_mats, data):
    """Assemble B, G and ell together."""
    classes = mesh.element_classes()
    B = assemble_B(mesh, bem_mats, classes)
    G = assemble_gram(mesh, bem_mats, classes)
    ell = assemble_load(mesh, data, bem_mats)
    return OperatorBlocks(B=B, G=G, ell=ell)


def _gram_products(B, G, ell):
    """B_k^T G_k^{-1} B_k per Gram block k: (C, 9, 9) per geometry class,
    its H1 and H(div) blocks summed, with the sighat columns for edge sign
    +1; Z = G_v^{-1} B_v (C, 6, 9) per class, the H1 block of G^{-1} B;
    and B_G^T G_G^{-1} [B_G | ell_G] (2P, 2P + 1) for the boundary.  The
    H(div) block of ell is zero, so element t's load column
    B_T^T G_T^{-1} ell_T is signs[t] * (Z[cls[t]]^T ell_v,T), a class map
    of its H1 load.  B_G = [V_ps D | H], D = diag(loop.signs), and
    V_ps = G_G E with E^T = bem.p0_test_rows: so the sighat rows are
    D p0(V_ps) D and D p0([H | ell_G]), with no solve, and the uhat rows
    W^T W with W = L^{-1} [H | ell_G], G_G = L L^T."""
    eg = G._parts(np.asarray(ell, dtype=float))[2]
    bv, bt = B.local[:, :6], B.local[:, 6:]
    Z = np.linalg.solve(G.Gv, bv)
    a = np.swapaxes(bv, 1, 2) @ Z
    a += np.swapaxes(bt, 1, 2) @ np.linalg.solve(G.Gtau, bt)
    s = B.bem.loop.signs[:, None]
    P = s.size
    # [H | ell_G] in the Fortran order of LAPACK, which solves it in place
    # into W; both products are written into g
    w = np.empty((2 * P, P + 1), order="F")
    w[:, :P], w[:, P] = B.bem.H, eg
    g = np.empty((2 * P, 2 * P + 1))
    np.multiply(s, bem.p0_test_rows(B.bem.V_ps), out=g[:P, :P])
    g[:P, :P] *= s.T
    np.multiply(s, bem.p0_test_rows(w), out=g[:P, P:])
    g[P:, :P] = g[:P, P:-1].T
    w = scipy.linalg.solve_triangular(B.bem.G_psi_chol, w, lower=True,
                                      overwrite_b=True)
    np.matmul(w[:, :-1].T, w, out=g[P:, P:])
    return a, Z, g


def build_normal_equations(B, G, ell, mesh, coarse):
    """Form the practical-DPG normal equations B^T G^{-1} B x =
    B^T G^{-1} ell on a mesh, with the field unknowns condensed out.

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
    the class map [A_ff^{-1} Z_f^T ; Z_s^T - Y^T Z_f^T] of its H1 load,
    then signed.

    Returns the spaces.LinearSystem (S, c, recover), recover(y) the full
    trial vector: S is a spaces.LevelOperator in natural skeleton order,
    the element blocks summed sparse and the boundary block dense, over
    the Level coarse of the mesh that mesh refines (or None), with
    skeleton vertex patches damped by 0.3.
    """
    a, Z, g = _gram_products(B, G, ell)
    try:
        np.linalg.cholesky(a[:, :3, :3])
    except np.linalg.LinAlgError as exc:
        raise NumericalError("field block of the normal equations not SPD"
                             ) from exc
    # A_ff^{-1} A_fs (C, 3, 6) and the Schur complement per class;
    # A_sf = A_fs^T by symmetry
    Y = np.linalg.solve(a[:, :3, :3], a[:, :3, 3:])
    loc = a[:, 3:, 3:] - np.einsum("tfi,tfj->tij", a[:, :3, 3:], Y)
    s = B.signs[:, 3:]
    nf = 3 * G.n_tri
    ns = B.shape[1] - nf
    skel = B.cols[:, 3:] - nf
    gcols = B.gamma_cols - nf
    # every element's field values and condensed load, from its H1 load;
    # yf is a copy and the (T, 9) load is freed before the sum, whose
    # triplets set the peak
    zT = np.swapaxes(Z, 1, 2)
    M = np.concatenate([np.linalg.solve(a[:, :3, :3], zT[:, :3]),
                        zT[:, 3:] - np.swapaxes(Y, 1, 2) @ zT[:, :3]], axis=1)
    load = _class_products(M, B.cls, G._parts(np.asarray(ell, float))[0])
    yf = load[:, :3].copy()
    c = np.bincount(np.concatenate([skel.ravel(), gcols]), minlength=ns,
                    weights=np.concatenate([(load[:, 3:] * s).ravel(),
                                            g[:, -1]]))
    del load
    K = spaces.clique_matrix(
        skel, loc[B.cls] * s[:, :, None] * s[:, None, :], ns)
    if np.any(K.diagonal() + np.bincount(gcols, np.diagonal(g), ns) <= 0.0):
        raise NumericalError("normal equations indefinite: B rank deficient")
    S = spaces.LevelOperator(
        K, gcols, g[:, :-1], spaces.skeleton_patches(mesh), 0.3, coarse,
        None if coarse is None else scipy.sparse.block_diag(
            [spaces.p1_prolongation(coarse.mesh, mesh),
             spaces.flux_prolongation(coarse.mesh, mesh)], format="csr"))
    fld = B.cols[:, :3]

    def recover(y):
        x = np.empty(B.shape[1])
        x[nf:] = y
        x[fld] = yf - _class_products(Y, B.cls, x[nf + skel] * s)
        return x

    return spaces.LinearSystem(S, c, recover)
