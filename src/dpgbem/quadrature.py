"""Quadrature rules on the unit interval and the reference triangle.

The reference triangle is {(x, y): x >= 0, y >= 0, x + y <= 1} with area 1/2.
Interval rules live on [0, 1].
"""

import functools

import numpy as np


def _rule(fn):
    """Compute a reference rule once per argument tuple; its arrays are
    read-only, so that every caller shares them."""
    @functools.lru_cache(maxsize=None)
    def cached(*args, **kwargs):
        rule = fn(*args, **kwargs)
        for a in rule:
            a.flags.writeable = False
        return rule
    return functools.update_wrapper(cached, fn)


@_rule
def gauss01(n):
    """n-point Gauss-Legendre rule on [0, 1]; returns (points, weights)."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


@_rule
def graded01(order, levels):
    """Composite Gauss rule on [0, 1], dyadically graded toward 0.

    Subdivides [0, 1] at 2^-1, 2^-2, ..., 2^-levels and applies an
    `order`-point Gauss rule on each piece, including the innermost one.
    Integrates endpoint singularities of log / fractional-power type to
    near machine precision; (1 - x, w) is the rule graded toward 1.
    """
    xg, wg = gauss01(order)
    breaks = [0.0] + [2.0 ** (-k) for k in range(levels, 0, -1)] + [1.0]
    pts, wts = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        pts.append(a + (b - a) * xg)
        wts.append((b - a) * wg)
    return np.concatenate(pts), np.concatenate(wts)


@_rule
def graded01_both(order, levels):
    """Composite Gauss rule on [0, 1] graded toward both endpoints."""
    x, w = graded01(order, levels)
    xl, wl = 0.5 * x, 0.5 * w
    return np.concatenate([xl, 1.0 - xl]), np.concatenate([wl, wl])


# Symmetric 6-point rule, exact for polynomials of total degree 4.
# Barycentric orbit data; weights sum to 1 and are relative to the area.
# The values solve the orbit equations for the moments 1, x^2, x^3 and
# x^4, found once at 40 digits with mpmath.findroot (not a dependency)
# and rounded to 25, so a + 2b = 1 and 3 w1 + 3 w2 = 1 hold in float64.
_D4_A1 = 0.8168475729804585130808571
_D4_B1 = 0.09157621350977074345957146
_D4_W1 = 0.1099517436553218676383263
_D4_A2 = 0.1081030181680702273633415
_D4_B2 = 0.4459484909159648863183293
_D4_W2 = 0.223381589678011465695007


@_rule
def triangle_degree4():
    """Symmetric degree-4 rule on the reference triangle; (points(6,2), weights(6,))."""
    bary = []
    for (a, b) in [(_D4_A1, _D4_B1), (_D4_A2, _D4_B2)]:
        bary += [(a, b, b), (b, a, b), (b, b, a)]
    bary = np.array(bary)
    pts = bary[:, 1:]  # lambda1 = x, lambda2 = y on the reference triangle
    w = 0.5 * np.array([_D4_W1] * 3 + [_D4_W2] * 3)
    return pts, w


@_rule
def triangle_duffy(n):
    """Collapsed tensor-Gauss rule on the reference triangle.

    Exact for polynomials of total degree <= 2n - 2; points cluster toward
    the collapsed vertex, local index 2.
    """
    return _collapsed_rule(gauss01(n), gauss01(n), 2)


@_rule
def triangle_corner_rule(order, levels, collapse):
    """High-accuracy rule for integrands with a fractional-power singularity
    at the vertex collapse (0, 1 or 2): Duffy collapse and dyadic grading."""
    x, w = graded01(order, levels)
    return _collapsed_rule(gauss01(order), (1.0 - x, w), collapse)


def barycentric(pts):
    """Barycentric coordinates (1 - x - y, x, y) of reference points
    (q, 2); shape (q, 3)."""
    return np.stack([1.0 - pts[:, 0] - pts[:, 1], pts[:, 0], pts[:, 1]],
                    axis=-1)


def _collapsed_rule(rule_a, rule_b, collapse):
    """The tensor rule rule_a x rule_b on the unit square collapsed onto
    the reference triangle, (a, b) -> (a (1 - b), b), so that b = 1 is
    the vertex collapse (0, 1 or 2)."""
    (a, wa), (b, wb) = rule_a, rule_b
    A, B = np.meshgrid(a, b, indexing="ij")
    x = (A * (1.0 - B)).ravel()
    y = B.ravel()
    w = (np.outer(wa, wb) * (1.0 - B)).ravel()
    # permute barycentric coordinates so the clustered vertex is `collapse`
    lam = np.stack([1.0 - x - y, x, y], axis=-1)
    if collapse == 2:
        pass
    elif collapse == 0:
        lam = lam[:, [2, 1, 0]]
    elif collapse == 1:
        lam = lam[:, [0, 2, 1]]
    else:
        raise ValueError("collapse vertex must be 0, 1 or 2")
    return lam[:, 1:], w


def map_to_physical(verts, pts):
    """Map reference points into physical triangles.

    verts: (..., 3, 2) triangle vertices, pts: (q, 2) reference points.
    Returns the coordinates x, y of the points, each of shape (..., q)
    and contiguous: v0 + xi e1 + eta e2 per coordinate, e1 and e2 the edge
    vectors from vertex 0.
    """
    verts = np.asarray(verts, dtype=float)
    xi, eta = pts.T
    out = []
    for c in range(2):
        v0 = verts[..., 0, c, None]
        out.append(v0 + xi * (verts[..., 1, c, None] - v0)
                   + eta * (verts[..., 2, c, None] - v0))
    return tuple(out)
