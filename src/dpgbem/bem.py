"""Galerkin boundary-element matrices and layer potentials for the 2D
Laplace kernel G(z) = -log|z| / (2 pi) on polygonal boundaries.

All panels are straight, so the inner integral of both kernels against a
P0 or P1 density has a closed form (log / arctangent antiderivatives);
only the outer (test) integration is numerical.  Coincident panels use the
fully closed form of the double log integral, and panels sharing a vertex
use an outer rule graded toward the shared vertex.  `assemble_bem` runs
the far field over chunks of target panels because the full
(target x node x source) kernel arrays would outgrow the dense matrices
they feed: the chunk size is a memory bound, not a tuning option.

Convention: the double-layer operator is assembled as the plain principal
value integral (for x on a flat panel the own-panel kernel vanishes
identically), so the coupling combination reads (1/2)*M_up - K_up.  The
sign convention is pinned operationally by the representation-formula
(dipole) test: V(dudn) + (1/2 - K)(trace) -> 0 for exterior harmonic
fields with O(1/|x|) decay.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import quadrature
from .errors import NumericalError

TWO_PI = 2.0 * np.pi

# entries (target panels x outer nodes x source panels) of one far-field
# chunk in assemble_bem
FAR_CHUNK_ENTRIES = 1 << 15


# ----------------------------------------------------------------------
# analytic inner integrals
# ----------------------------------------------------------------------

def _local_coords(points, pa, pb, lengths):
    """Tangential/normal coordinates of points relative to panels.

    points (..., 2) broadcast against panels (P, 2): returns u, v of shape
    (..., P) with u along the panel from its tail and v along the outward
    normal n = (t_y, -t_x).
    """
    d = pb - pa
    t = d / lengths[..., None]
    n = np.stack([t[..., 1], -t[..., 0]], axis=-1)
    rel = points[..., None, :] - pa
    u = rel[..., 0] * t[..., 0] + rel[..., 1] * t[..., 1]
    v = rel[..., 0] * n[..., 0] + rel[..., 1] * n[..., 1]
    return u, v


def _slp_inner(u, v, h):
    """Exact integrals of log|x - y(t)| and t*log|x - y(t)| for t in [0, h].

    y(t) runs along the panel; (u, v) are the local coordinates of x.
    Returns (J0, J1); the physical single-layer moments are -J/(2 pi).
    """
    vsafe = np.where(v != 0.0, v, 1.0)

    def F(s):
        R = s * s + v * v
        Rsafe = np.where(R > 0.0, R, 1.0)
        slog = np.where(R > 0.0, s * np.log(Rsafe), 0.0)
        at = np.where(v != 0.0, v * np.arctan(s / vsafe), 0.0)
        return slog - 2.0 * s + 2.0 * at

    def G2(s):
        R = s * s + v * v
        lg = np.log(np.where(R > 0.0, R, 1.0))
        return 0.5 * (R * lg - s * s)

    sb, sa = h - u, -u
    J0 = 0.5 * (F(sb) - F(sa))
    J1 = 0.5 * (G2(sb) - G2(sa)) + u * J0
    return J0, J1


def _dlp_inner(u, v, h):
    """Exact integrals of the double-layer kernel times 1 and t over a
    panel: kernel (x - y).n(y) / (2 pi |x - y|^2).

    Returns (D0, D1) already including the 1/(2 pi) factor.  For v == 0
    (x on the panel's line) the principal value is zero.
    """
    theta = np.arctan2(v * h, v * v - u * (h - u))
    Ra = u * u + v * v
    Rb = (h - u) ** 2 + v * v
    ok = (Ra > 0.0) & (Rb > 0.0)
    lr = np.where(ok, np.log(np.where(ok, Rb / np.where(Ra > 0.0, Ra, 1.0), 1.0)),
                  0.0)
    Q0 = theta
    Q1 = 0.5 * v * lr + u * theta
    on_line = (v == 0.0)
    D0 = np.where(on_line, 0.0, Q0 / TWO_PI)
    D1 = np.where(on_line, 0.0, Q1 / TWO_PI)
    return D0, D1


def _slp_inner_basis(points, pa, pb, lengths):
    """Single-layer moments against the P1 panel basis (1 - t/h, t/h);
    shape (..., P, 2).  Summing the last axis gives the P0 moment."""
    u, v = _local_coords(points, pa, pb, lengths)
    J0, J1 = _slp_inner(u, v, lengths)
    m1 = J1 / lengths
    return np.stack([J0 - m1, m1], axis=-1) * (-1.0 / TWO_PI)


def _dlp_inner_basis(points, pa, pb, lengths):
    """Double-layer moments against the P1 panel basis; shape (..., P, 2)."""
    u, v = _local_coords(points, pa, pb, lengths)
    D0, D1 = _dlp_inner(u, v, lengths)
    m1 = D1 / lengths
    return np.stack([D0 - m1, m1], axis=-1)


# ----------------------------------------------------------------------
# closed forms
# ----------------------------------------------------------------------

def _coincident_slp_block(h):
    """Single-layer blocks of the P1 panel basis against itself for panel
    lengths h; shape h.shape + (2, 2)."""
    # from int_0^1 int_0^1 log|s-t| s^m t^n = -3/2, -3/4, -3/4, -7/16
    L = np.log(h)
    c = h * h / TWO_PI
    diag = c * (7.0 / 16.0 - 0.25 * L)
    off = c * (5.0 / 16.0 - 0.25 * L)
    return np.stack([np.stack([diag, off], -1), np.stack([off, diag], -1)], -2)


# ----------------------------------------------------------------------
# assembled operator matrices
# ----------------------------------------------------------------------

@dataclass
class BemMatrices:
    """Boundary operator matrices on a loop with P panels.

    Rows are the 2P discontinuous-P1 test functions (panelwise, loop
    order).  V_ps columns are the P panelwise-constant flux densities,
    K_up / M_up columns are the P boundary vertex hat functions, and
    G_psi is the single-layer Gram matrix on the test space itself (the
    discrete H^{-1/2}(Gamma) inner product; positive definite for domains
    of diameter < 1).
    """

    loop: object
    V_ps: np.ndarray
    K_up: np.ndarray
    M_up: np.ndarray
    G_psi: np.ndarray
    G_psi_chol: np.ndarray = field(repr=False, default=None)

    def solve_gpsi(self, rhs):
        return scipy.linalg.cho_solve((self.G_psi_chol, True), rhs)

    def half_minus_k(self):
        """Matrix of <(1/2 - K) uhat_j, psi_i> on the boundary hats."""
        return 0.5 * self.M_up - self.K_up


def assemble_bem(loop, quad_order=8):
    """Assemble all boundary matrices for a loop.

    The single-layer Gram G_psi is factorized here; failure indicates a
    geometry/scaling violation (the domain must have diameter < 1).
    """
    P = loop.num_panels
    pa, pb = loop.points_a, loop.points_b
    lengths = loop.lengths
    t_far, w_far = quadrature.gauss01(max(16, 2 * quad_order))
    t_gr, w_gr = quadrature.graded01(quad_order, 30, end=0)
    idx = np.arange(P)
    nxt = (idx + 1) % P
    near = np.stack([(idx - 1) % P, nxt], axis=1)   # sharing tail / head
    t_near = np.stack([t_gr, 1.0 - t_gr])            # (side, q)
    basis_near = np.stack([1.0 - t_near, t_near], axis=1)
    basis_far = np.stack([1.0 - t_far, t_far])
    G_own = _coincident_slp_block(lengths)
    d = pb - pa

    G = np.empty((P, 2, P, 2))
    K = np.empty((2 * P, P))
    step = max(1, FAR_CHUNK_ENTRIES // (t_far.size * P))
    for i0 in range(0, P, step):
        i = idx[i0:i0 + step]
        r = np.arange(i.size)

        # far field: all source panels at the targets' Gauss nodes
        xs = pa[i, None] + t_far[:, None] * d[i, None]           # (c, q, 2)
        tw = basis_far * (w_far * lengths[i, None])[:, None]     # (c, 2, q)
        Gc = np.einsum("caq,cqjb->cajb", tw,
                       _slp_inner_basis(xs, pa, pb, lengths))
        Dc = np.einsum("caq,cqjb->cajb", tw,
                       _dlp_inner_basis(xs, pa, pb, lengths))

        # vertex-sharing neighbours: outer rule graded toward the shared
        # vertex, one source panel per (target, side)
        j = near[i]
        xs = pa[i, None, None] + t_near[..., None] * d[i, None, None]
        src = (pa[j][:, :, None, None], pb[j][:, :, None, None],
               lengths[j][:, :, None, None])
        tw = basis_near * (w_gr * lengths[i, None])[:, None, None]
        Gc[r[:, None], :, j] = tw @ _slp_inner_basis(xs, *src)[..., 0, :]
        Dc[r[:, None], :, j] = tw @ _dlp_inner_basis(xs, *src)[..., 0, :]

        # closed form on the panel itself; own double layer vanishes
        Gc[r, :, i] = G_own[i]
        Dc[r, :, i] = 0.0
        G[i] = Gc
        # hat j collects the tail end of panel j and the head end of j-1
        K[2 * i0:2 * (i0 + i.size)] = (
            Dc[..., 0] + np.roll(Dc[..., 1], 1, axis=-1)).reshape(-1, P)
    G = G.reshape(2 * P, 2 * P)

    M = np.zeros((2 * P, P))
    M[2 * idx, idx] = lengths / 3.0
    M[2 * idx, nxt] = lengths / 6.0
    M[2 * idx + 1, idx] = lengths / 6.0
    M[2 * idx + 1, nxt] = lengths / 3.0

    Vps = G[:, 0::2] + G[:, 1::2]
    try:
        chol = scipy.linalg.cholesky(0.5 * (G + G.T), lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(
            "single-layer Gram not positive definite; check that the "
            "domain diameter is < 1") from exc
    return BemMatrices(loop=loop, V_ps=Vps, K_up=K, M_up=M, G_psi=G,
                       G_psi_chol=chol)


# ----------------------------------------------------------------------
# potential evaluation
# ----------------------------------------------------------------------

def _as_p1_coefs(density, P):
    density = np.asarray(density, dtype=float)
    if density.shape == (P,):
        return np.repeat(density[:, None], 2, axis=1)
    if density.shape == (P, 2):
        return density
    raise ValueError("density must have shape (P,) or (P, 2)")


def eval_single_layer(loop, density, points):
    """Single-layer potential of a panelwise density at arbitrary points
    (principal value on the boundary itself).  density: (P,) panel
    constants or (P, 2) panelwise-linear endpoint values."""
    points = np.asarray(points, dtype=float)
    coefs = _as_p1_coefs(density, loop.num_panels)
    inner = _slp_inner_basis(points, loop.points_a, loop.points_b,
                             loop.lengths)
    return np.einsum("...jb,jb->...", inner, coefs)


def eval_double_layer(loop, density, points):
    """Double-layer potential of a panelwise density at arbitrary points
    (principal value on the boundary: own / collinear panels drop out)."""
    points = np.asarray(points, dtype=float)
    coefs = _as_p1_coefs(density, loop.num_panels)
    inner = _dlp_inner_basis(points, loop.points_a, loop.points_b,
                             loop.lengths)
    return np.einsum("...jb,jb->...", inner, coefs)


def hat_trace_coefs(loop, vertex_values):
    """Panelwise-linear endpoint values of the piecewise-linear boundary
    function with the given loop-vertex values."""
    vals = np.asarray(vertex_values, dtype=float)
    nxt = (np.arange(loop.num_panels) + 1) % loop.num_panels
    return np.stack([vals, vals[nxt]], axis=1)


def winding_number(loop, points):
    """Winding number of the loop around each point (1 inside, 0 outside)."""
    points = np.asarray(points, dtype=float)
    u, v = _local_coords(points, loop.points_a, loop.points_b, loop.lengths)
    h = loop.lengths
    theta = np.arctan2(v * h, v * v - u * (h - u))
    return -theta.sum(axis=-1) / TWO_PI


def distance_to_boundary(loop, points):
    points = np.asarray(points, dtype=float)
    u, v = _local_coords(points, loop.points_a, loop.points_b, loop.lengths)
    uc = np.clip(u, 0.0, loop.lengths)
    d = np.sqrt((u - uc) ** 2 + v ** 2)
    return d.min(axis=-1)


def point_location(loop, points, tol=1e-12):
    """Classify points as 'interior', 'exterior' or 'boundary'.

    points is one point (2,), which gives a str, or (n, 2), which gives
    an (n,) array of labels."""
    points = np.asarray(points, dtype=float)
    pts = np.atleast_2d(points)
    on = distance_to_boundary(loop, pts) <= tol * float(loop.lengths.max())
    inside = np.abs(winding_number(loop, pts) - 1.0) < 0.5
    loc = np.where(on, "boundary", np.where(inside, "interior", "exterior"))
    return str(loc[0]) if points.ndim == 1 else loc
