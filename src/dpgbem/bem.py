"""Galerkin boundary-element matrices and layer potentials for the 2D
Laplace kernel G(z) = -log|z| / (2 pi) on polygonal boundaries.

All panels are straight, so the inner integral of both kernels against a
P0 or P1 density has a closed form (log / arctangent antiderivatives).
One kernel evaluation, `_layer_inner`, gives both layers from the same
local coordinates: two logarithms and one angle per (point, panel) pair.

`assemble_bem` gives each panel pair one of four rules by its separation
ratio s (`_separation`):
- the panel itself: the closed form of the double log integral (the
  double layer vanishes);
- its two vertex-sharing neighbours: the analytic inner integral with an
  outer rule graded toward the shared vertex;
- the other pairs with s < FAR_RATIO: the analytic inner integral with a
  2 PANEL_ORDER Gauss outer rule;
- the pairs with s >= FAR_RATIO: the FAR_ORDER x FAR_ORDER tensor Gauss
  rule with point kernels, once per unordered pair.
Every pass runs over chunks of at most FAR_CHUNK_ENTRIES node pairs: the
chunk size is a memory bound, not a tuning option, and no entry depends
on it.  The tensor rule's node sums are plain einsum calls for that
reason: they call no BLAS, whose products may round an entry
differently with the size of the call.

Convention: the double-layer operator K is the plain principal value
integral (for x on a flat panel the own-panel kernel vanishes
identically), kept only in the coupling combination H = M/2 - K on the
hat columns (M the hat masses).  The sign convention is pinned by the
representation-formula (dipole) test: V(dudn) + (1/2 - K)(trace) -> 0
for exterior harmonic fields with O(1/|x|) decay.
"""

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import quadrature, spaces
from .errors import NumericalError
from .spaces import PANEL_ORDER

TWO_PI = 2.0 * np.pi

# kernel evaluations (pairs x outer nodes, or pairs x node pairs of the
# tensor rule) in one chunk of the pair passes of assemble_bem
FAR_CHUNK_ENTRIES = 1 << 15

# panel pairs with separation ratio s >= FAR_RATIO get the FAR_ORDER x
# FAR_ORDER tensor Gauss rule with point kernels.  Max entry error over
# max |entry| against a 12 x 12 tensor reference, both layers, CLI levels
# 0-5 of both domains (P <= 512):
#   q = 4, s >= 16:       <= 7.6e-15 (<= 2.5e-16 beyond s = 32)
#   q = 5, s >= 8:        <= 6.5e-16
#   q = 4, s in [8, 16):  7.8e-13, too coarse
#   analytic inner integral, 16-node outer rule, s >= 16: up to 8.5e-13,
#   from cancellation in J0 that grows with the separation
# (4, 16) assembles about 10% faster than (5, 8) at P = 512.
FAR_ORDER = 4
FAR_RATIO = 16.0

# levels of the outer rule for vertex-sharing panels, graded toward the
# shared vertex, where the analytic inner integral has a log-type singularity
NEIGHBOUR_LEVELS = 30

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
    double-layer principal value.
    """
    theta = np.where(v != 0.0, _panel_angle(u, v, h), 0.0)
    hu, vv = h - u, v * v
    Ra, Rb = u * u + vv, hu * hu + vv
    la = np.log(np.where(Ra > 0.0, Ra, 1.0))
    lb = np.log(np.where(Rb > 0.0, Rb, 1.0))
    J0 = 0.5 * (hu * lb + u * la) - h + v * theta
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
    and those of H = <(1/2 - K) uhat_j, psi_i>, the one double-layer
    matrix, the P boundary vertex hats.  G_psi is the single-layer Gram
    matrix on the test space itself (the discrete H^{-1/2}(Gamma) inner
    product; positive definite for domains of diameter < 1), and
    V_ps = G_psi E, where E^T sums each panel's two rows (p0_test_rows).
    Only the DPG coupling reads G_psi's Cholesky factor, formed on first use.
    """

    loop: object
    V_ps: np.ndarray
    H: np.ndarray
    G_psi: np.ndarray

    @functools.cached_property
    def G_psi_chol(self):
        """Lower Cholesky factor of G_psi; NumericalError if G_psi is not
        positive definite."""
        try:
            return scipy.linalg.cholesky(self.G_psi, lower=True)
        except scipy.linalg.LinAlgError as exc:
            raise NumericalError(
                "single-layer Gram not positive definite; check that the "
                "domain diameter is < 1") from exc

    def solve_gpsi(self, rhs):
        return scipy.linalg.cho_solve((self.G_psi_chol, True), rhs)

    def half_minus_k_load(self, u0, rule):
        """<(1/2 - K) u0, psi_i> for a function u0(x, y) on a
        spaces.boundary_quadrature rule: H y + (m - M y) / 2, with y the
        L2 projection of u0 onto the hats and m, M y the hat moments of
        u0 and y, per panel (tail, head)."""
        tail, head = spaces.hat_moments(rule, spaces.point_values(
            rule, lambda x, y, t: u0(x, y)))
        y = spaces.project_boundary_p1(self.loop, tail, head)
        y1 = np.roll(y, -1)
        My = self.loop.lengths[:, None] / 6.0 * np.stack(
            [2.0 * y + y1, y + 2.0 * y1], axis=1)
        return self.H @ y + 0.5 * (np.stack([tail, head], axis=1)
                                   - My).ravel()


def p0_test_rows(matrix_2p):
    """Sum the two discontinuous-P1 test rows of each panel, yielding the
    panelwise-constant test rows (P0(Gamma) = sum of the P1 hat pair)."""
    return matrix_2p[0::2] + matrix_2p[1::2]


def _separation(mid, half, lengths, i, j):
    """Separation ratio of panel pairs (i, j), broadcast: the midpoint
    distance minus both half lengths, over the longer length.  A lower
    bound of their distance over max(h_i, h_j), and symmetric in i, j to
    the last bit.  mid holds the panel midpoints coordinate-major,
    (2, P)."""
    x, y = mid
    return ((np.hypot(x[j] - x[i], y[j] - y[i]) - (half[i] + half[j]))
            / np.maximum(lengths[i], lengths[j]))


def _basis_weights(t, w):
    """The P1 panel basis (1 - t, t) times the weights w, shape (2, q)."""
    return np.stack([1.0 - t, t]) * w


def _far_blocks(nodes, BW, loop, i, j):
    """Galerkin blocks of the panel pairs (i, j) from the tensor Gauss
    rule with point kernels; both double-layer orientations come from the
    same differences x - y.

    nodes (2, q, P) holds the rule's nodes on every panel and BW (2, q)
    its basis weights; i and j index c target and m source panels.
    Returns, each (2, 2, c, m) with i's basis first: the single layer,
    the double layer with target i and source j, and the double layer
    with target j and source i.
    """
    pa, nrm = loop.points_a, loop.normals
    X, Y = nodes[:, :, i], nodes[:, :, j]
    dx = X[0, None, :, :, None] - Y[0, :, None, None, :]   # (b, a, c, m)
    dy = X[1, None, :, :, None] - Y[1, :, None, None, :]
    r2 = dx * dx
    r2 += dy * dy
    del dx, dy
    # (x - y).n(y) is the normal coordinate of x over the line of j, and
    # (y - x).n(x) that of y over the line of i
    vx = ((X[0, :, :, None] - pa[j, 0]) * nrm[j, 0]
          + (X[1, :, :, None] - pa[j, 1]) * nrm[j, 1])
    vy = ((Y[0, :, None] - pa[i, 0, None]) * nrm[i, 0, None]
          + (Y[1, :, None] - pa[i, 1, None]) * nrm[i, 1, None])
    T = np.empty(r2.shape[:2] + (3,) + r2.shape[2:])
    np.log(r2, out=T[:, :, 0])
    np.reciprocal(r2, out=r2)
    np.multiply(vx[None], r2, out=T[:, :, 1])
    np.multiply(vy[:, None], r2, out=T[:, :, 2])
    del r2
    # source nodes b, then target nodes a; plain einsum adds each entry's
    # terms in node order at any batch size (see the module docstring)
    out = np.einsum("ak,bk...->ab...", BW, np.einsum("bk,k...->b...", BW, T))
    hh = loop.lengths[i, None] * loop.lengths[j]
    return (out[:, :, 0] * (hh * (-0.5 / TWO_PI)),
            out[:, :, 1] * (hh / TWO_PI), out[:, :, 2] * (hh / TWO_PI))


def _inner_blocks(t, BW, loop, i, j):
    """Galerkin blocks of the panel pairs (i, j), the inner integral over
    source j analytic and the outer one over target i by the rule with
    nodes t and basis weights BW.  Returns the single- and the
    double-layer blocks, each (n, 2, 2) with i's basis first."""
    pa, pb = loop.points_a, loop.points_b
    ai, aj = pa.take(i, axis=0), pa.take(j, axis=0)
    dx, dy = (pb.take(i, axis=0) - ai).T
    h = loop.lengths[j]
    tx, ty = (pb.take(j, axis=0) - aj).T / h
    rx, ry = (ai - aj).T
    # local coordinates of target i's nodes over the line of source j
    u = (rx * tx + ry * ty) + t[:, None] * (dx * tx + dy * ty)
    v = (rx * ty - ry * tx) + t[:, None] * (dx * ty - dy * tx)
    M = np.stack(_layer_inner(u, v, h), axis=-1)               # (q, n, 4)
    # one (2, q) x (q, 4) product per pair, the same for every batch
    out = BW @ M.transpose(1, 0, 2)
    out[..., 1::2] /= h[:, None, None]
    out[..., 0::2] -= out[..., 1::2]
    out *= loop.lengths[i, None, None]
    return out[..., :2] * (-1.0 / TWO_PI), out[..., 2:]


def _mirror_upper(A):
    """Copy the strict upper triangle of the square array A onto the
    lower one, 128 rows at a time."""
    for r0 in range(0, A.shape[0], 128):
        r1 = min(r0 + 128, A.shape[0])
        A[r0:r1, :r0] = A[:r0, r0:r1].T
        lo, hi = np.tril_indices(r1 - r0, -1)
        A[r0 + lo, r0 + hi] = A[r0 + hi, r0 + lo]


def assemble_bem(loop):
    """Assemble all boundary matrices for a loop, each panel pair by the
    rule of its separation ratio (see the module docstring).

    The separated pairs are evaluated once per unordered pair, and the
    single-layer blocks of the other pairs are the mean of both
    orientations, so G_psi is symmetric to the last bit.  Nothing here
    factorizes it: BemMatrices.G_psi_chol does on first use, and its
    failure indicates a geometry/scaling violation (the domain must have
    diameter < 1).
    """
    P = loop.num_panels
    pa, pb = loop.points_a, loop.points_b
    lengths = loop.lengths
    idx = np.arange(P)
    prev, nxt = (idx - 1) % P, (idx + 1) % P
    mid, half = np.ascontiguousarray(0.5 * (pa + pb).T), 0.5 * lengths

    G = np.empty((P, 2, P, 2))
    # the double layer goes straight into its hat columns: hat j collects
    # the tail end of panel j and the head end of panel j - 1, and the
    # extra column P is hat 0 again.  Kt takes the terms of the targets
    # below the diagonal, transposed, so that both are filled row by row.
    # Every entry gets one term of each end.
    K = np.zeros((P, 2, P + 1))
    Kt = np.zeros((P + 1, 2, P))

    # one pass over chunks of c target rows: the separation of every pair
    # (i, j >= i), the near list, and the tensor rule on every such pair,
    # each once with the lower index as target.  The single layer of the
    # pairs that are not separated is overwritten below; their double
    # layer is masked out here and added below.
    t, w = quadrature.gauss01(FAR_ORDER)
    BW = _basis_weights(t, w)
    nodes = pa.T[:, None] + t[:, None] * (pb - pa).T[:, None]
    near = []
    i0 = 0
    while i0 < P:
        c = min(P - i0, max(1, FAR_CHUNK_ENTRIES // (t.size ** 2 * (P - i0))))
        i, i1, j = slice(i0, i0 + c), i0 + c, slice(i0, P)
        rows, cols = idx[i, None], idx[j]
        sep = _separation(mid, half, lengths, rows, cols) >= FAR_RATIO
        upper = cols > rows
        far = sep & upper
        # the other pairs (i, j > i), bar each panel's neighbours, go to
        # the near list in both orientations
        ni, nj = np.nonzero(~sep & upper & (cols != prev[rows])
                            & (cols != nxt[rows]))
        near += [(ni + i0, nj + i0), (nj + i0, ni + i0)]
        # the panel itself (log 0 at its nodes) is overwritten below
        with np.errstate(divide="ignore", invalid="ignore"):
            g, dij, dji = _far_blocks(nodes, BW, loop, i, j)
        G[i, :, j] = g.transpose(2, 0, 3, 1)
        dij = np.where(far, dij, 0.0)
        K[i, :, j] += dij[:, 0].transpose(1, 0, 2)
        K[i, :, i0 + 1:] += dij[:, 1].transpose(1, 0, 2)
        dji = np.where(far, dji, 0.0)
        Kt[i, :, j] += dji[0].transpose(1, 0, 2)
        Kt[i0 + 1:i1 + 1, :, j] += dji[1].transpose(1, 0, 2)
        i0 = i1
    K += Kt.transpose(2, 1, 0)
    del Kt
    # the single layer below the diagonal is the mirror of the one above
    _mirror_upper(G.reshape(2 * P, 2 * P))
    I = np.concatenate([ni for ni, _ in near])
    J = np.concatenate([nj for _, nj in near])

    # near pairs: Gauss outer rule; vertex-sharing neighbours: outer rule
    # graded toward the shared vertex (the tail for prev, the head for nxt)
    t_gr, w_gr = quadrature.graded01(PANEL_ORDER, NEIGHBOUR_LEVELS)
    for (t, w), targets, sources in (
            (quadrature.gauss01(2 * PANEL_ORDER), I, J),
            ((t_gr, w_gr), idx, prev), ((1.0 - t_gr, w_gr), idx, nxt)):
        BW = _basis_weights(t, w)
        per_chunk = max(1, FAR_CHUNK_ENTRIES // t.size)
        for k in range(0, targets.size, per_chunk):
            i, j = targets[k:k + per_chunk], sources[k:k + per_chunk]
            g, dl = _inner_blocks(t, BW, loop, i, j)
            G[i, :, j] = g
            K[i, :, j] += dl[..., 0]
            K[i, :, j + 1] += dl[..., 1]

    # the mean of both orientations makes the near blocks symmetric
    I = np.concatenate([I, idx, idx])
    J = np.concatenate([J, prev, nxt])
    G[I, :, J] = 0.5 * (G[I, :, J] + G[J, :, I].transpose(0, 2, 1))

    # closed form on the panel itself; own double layer vanishes
    G[idx, :, idx] = _coincident_slp_block(lengths)
    G = G.reshape(2 * P, 2 * P)
    K[:, :, 0] += K[:, :, P]

    # H = M/2 - K; hat masses: h/3 at the own panel end, h/6 at the other
    H = -K[:, :, :P].reshape(2 * P, P)
    del K
    H.reshape(P, 2, P)[idx, :, idx] += lengths[:, None] / [6.0, 12.0]
    H.reshape(P, 2, P)[idx, :, nxt] += lengths[:, None] / [12.0, 6.0]

    Vps = G[:, 0::2] + G[:, 1::2]
    return BemMatrices(loop=loop, V_ps=Vps, H=H, G_psi=G)


# ----------------------------------------------------------------------
# potential evaluation
# ----------------------------------------------------------------------

def eval_layers(loop, slp_density, dlp_density, points):
    """Single-layer potential of the panel constants slp_density (P,) and
    double-layer potential of the panelwise-linear endpoint values
    dlp_density (P, 2) at the points (n, 2), from one pass of the fused
    kernel.  On the boundary itself both are principal values (own /
    collinear panels drop out of the double layer)."""
    slp, dlp = _layer_basis(points, loop.points_a, loop.points_b,
                            loop.lengths)
    return (np.einsum("...jb,jb->...", slp,
                      np.repeat(slp_density[:, None], 2, axis=1)),
            np.einsum("...jb,jb->...", dlp, dlp_density))


def hat_trace_coefs(loop, vertex_values):
    """Panelwise-linear endpoint values of the piecewise-linear boundary
    function with the given loop-vertex values."""
    vals = np.asarray(vertex_values, dtype=float)
    nxt = (np.arange(loop.num_panels) + 1) % loop.num_panels
    return np.stack([vals, vals[nxt]], axis=1)


def point_location(loop, points):
    """Classify the points (n, 2) as 'interior', 'exterior' or 'boundary';
    returns an (n,) array of labels."""
    u, v = _local_coords(points, loop.points_a, loop.points_b, loop.lengths)
    h = loop.lengths
    dist = np.sqrt((u - np.clip(u, 0.0, h)) ** 2 + v ** 2).min(axis=-1)
    winding = -_panel_angle(u, v, h).sum(axis=-1) / TWO_PI
    on = dist <= ON_BOUNDARY_TOL * float(h.max())
    inside = np.abs(winding - 1.0) < 0.5
    return np.where(on, "boundary", np.where(inside, "interior", "exterior"))
