"""Galerkin boundary-element matrices and layer potentials for the 2D
Laplace kernel G(z) = -log|z| / (2 pi) on polygonal boundaries.

All panels are straight, so the inner integral of both kernels against a
P0 or P1 density has a closed form (log / arctangent antiderivatives);
only the outer (test) integration is numerical.  One kernel evaluation,
`_layer_inner`, gives both layers from the same local coordinates: two
logarithms and one angle per (point, panel) pair.  Coincident panels use
the fully closed form of the double log integral, and panels sharing a
vertex use an outer rule graded toward the shared vertex.
`assemble_bem` runs the far field over chunks of target panels because
the full (target x node x source) kernel arrays would outgrow the dense
matrices they feed: the chunk size is a memory bound, not a tuning
option.

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
from .spaces import PANEL_ORDER

TWO_PI = 2.0 * np.pi

# entries (target panels x outer nodes x source panels) of one far-field
# chunk in assemble_bem
FAR_CHUNK_ENTRIES = 1 << 15

# point_location: points within this fraction of the longest panel of the
# boundary lie on it
ON_BOUNDARY_TOL = 1e-12


# ----------------------------------------------------------------------
# analytic inner integrals
# ----------------------------------------------------------------------

def _local_coords(points, pa, pb, lengths):
    """Tangential/normal coordinates of points relative to panels.

    points (..., 2) broadcast against panels (P, 2): returns u, v of shape
    (..., P) with u along the panel from its tail and v along the outward
    normal n = (t_y, -t_x).
    """
    tx = (pb[..., 0] - pa[..., 0]) / lengths
    ty = (pb[..., 1] - pa[..., 1]) / lengths
    rx = points[..., 0, None] - pa[..., 0]
    ry = points[..., 1, None] - pa[..., 1]
    return rx * tx + ry * ty, rx * ty - ry * tx


def _panel_angle(u, v, h):
    """Signed angle that a panel of length h subtends at the point with
    local coordinates (u, v); zero on the panel's line outside it."""
    return np.arctan2(v * h, v * v - u * (h - u))


def _layer_inner(u, v, h):
    """Exact integrals over t in [0, h] of log|x - y(t)| and of the
    double-layer kernel (x - y).n(y) / (2 pi |x - y|^2), each against 1
    and t.

    y(t) runs along the panel; (u, v) are the local coordinates of x.
    Returns (J0, J1, D0, D1): the single-layer moments are -J/(2 pi), and
    D0, D1 include the 1/(2 pi).  Both layers share the squared distances
    Ra, Rb to the panel ends, their logarithms, and the angle
    theta = arctan((h - u)/v) + arctan(u/v) that the panel subtends at x.
    On the panel's line (v == 0) theta is set to zero, and with it the
    double-layer principal value.  Few temporaries stay alive at once, so
    a far-field chunk of assemble_bem needs about eleven arrays of its
    size.
    """
    theta = np.where(v != 0.0, _panel_angle(u, v, h), 0.0)
    Ra, Rb = u * u + v * v, (h - u) ** 2 + v * v
    la = np.log(np.where(Ra > 0.0, Ra, 1.0))
    lb = np.log(np.where(Rb > 0.0, Rb, 1.0))
    J0 = 0.5 * ((h - u) * lb + u * la) - h + v * theta
    J1 = 0.25 * (Rb * (lb - 1.0) - Ra * (la - 1.0)) + u * J0
    D1 = (0.5 * v * (lb - la) + u * theta) / TWO_PI
    return J0, J1, theta / TWO_PI, D1


def _layer_basis(points, pa, pb, lengths):
    """Single- and double-layer moments against the P1 panel basis
    (1 - t/h, t/h), each of shape (..., P, 2).  Summing the last axis
    gives the P0 moment."""
    J0, J1, D0, D1 = _layer_inner(*_local_coords(points, pa, pb, lengths),
                                  lengths)
    m1 = J1 / lengths
    d1 = D1 / lengths
    return (np.stack([J0 - m1, m1], axis=-1) * (-1.0 / TWO_PI),
            np.stack([D0 - d1, d1], axis=-1))


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


def assemble_bem(loop):
    """Assemble all boundary matrices for a loop.

    The single-layer Gram G_psi is factorized here; failure indicates a
    geometry/scaling violation (the domain must have diameter < 1).
    """
    P = loop.num_panels
    pa, pb = loop.points_a, loop.points_b
    lengths = loop.lengths
    t_far, w_far = quadrature.gauss01(2 * PANEL_ORDER)
    t_gr, w_gr = quadrature.graded01(PANEL_ORDER, 30, end=0)
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
        S, D = _layer_basis(xs, pa, pb, lengths)
        Gc = np.einsum("caq,cqjb->cajb", tw, S)
        Dc = np.einsum("caq,cqjb->cajb", tw, D)

        # vertex-sharing neighbours: outer rule graded toward the shared
        # vertex, one source panel per (target, side)
        j = near[i]
        xs = pa[i, None, None] + t_near[..., None] * d[i, None, None]
        src = (pa[j][:, :, None, None], pb[j][:, :, None, None],
               lengths[j][:, :, None, None])
        tw = basis_near * (w_gr * lengths[i, None])[:, None, None]
        S, D = _layer_basis(xs, *src)
        Gc[r[:, None], :, j] = tw @ S[..., 0, :]
        Dc[r[:, None], :, j] = tw @ D[..., 0, :]

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


def eval_layers(loop, slp_density, dlp_density, points):
    """Single-layer potential of slp_density and double-layer potential
    of dlp_density at the same points, from one pass of the fused
    kernel.  A density is (P,) panel constants or (P, 2) panelwise-linear
    endpoint values.  On the boundary itself both are principal values
    (own / collinear panels drop out of the double layer)."""
    inner = _layer_basis(np.asarray(points, dtype=float), loop.points_a,
                         loop.points_b, loop.lengths)
    return tuple(np.einsum("...jb,jb->...", k,
                           _as_p1_coefs(d, loop.num_panels))
                 for k, d in zip(inner, (slp_density, dlp_density)))


def hat_trace_coefs(loop, vertex_values):
    """Panelwise-linear endpoint values of the piecewise-linear boundary
    function with the given loop-vertex values."""
    vals = np.asarray(vertex_values, dtype=float)
    nxt = (np.arange(loop.num_panels) + 1) % loop.num_panels
    return np.stack([vals, vals[nxt]], axis=1)


def point_location(loop, points):
    """Classify points as 'interior', 'exterior' or 'boundary'.

    points is one point (2,), which gives a str, or (n, 2), which gives
    an (n,) array of labels."""
    points = np.asarray(points, dtype=float)
    u, v = _local_coords(np.atleast_2d(points), loop.points_a, loop.points_b,
                         loop.lengths)
    h = loop.lengths
    dist = np.sqrt((u - np.clip(u, 0.0, h)) ** 2 + v ** 2).min(axis=-1)
    winding = -_panel_angle(u, v, h).sum(axis=-1) / TWO_PI
    on = dist <= ON_BOUNDARY_TOL * float(h.max())
    inside = np.abs(winding - 1.0) < 0.5
    loc = np.where(on, "boundary", np.where(inside, "interior", "exterior"))
    return str(loc[0]) if points.ndim == 1 else loc
