import numpy as np
import pytest

import _oracles
from dpgbem import cli, refine_uniform
from dpgbem import quadrature as quad


def tri_monomial_exact(p, q):
    # int_T x^p y^q over the reference triangle = p! q! / (p + q + 2)!
    from math import factorial
    return factorial(p) * factorial(q) / factorial(p + q + 2)


def test_gauss01_degree():
    x, w = quad.gauss01(6)
    for d in range(12):
        assert np.dot(w, x ** d) == pytest.approx(1.0 / (d + 1), rel=1e-14)


def test_triangle_degree4_exact_to_degree4():
    # the orbit constants are exact to double precision: the weights sum
    # to 1/2 exactly and every monomial of degree <= 4 is right to rounding
    pts, w = quad.triangle_degree4()
    assert w.sum() == 0.5
    for p in range(5):
        for q in range(5 - p):
            val = np.dot(w, pts[:, 0] ** p * pts[:, 1] ** q)
            assert abs(val / tri_monomial_exact(p, q) - 1) <= 1e-15, (p, q)


@pytest.mark.parametrize("n,deg", [(3, 4), (4, 6), (6, 10)])
def test_triangle_duffy_exactness(n, deg):
    pts, w = quad.triangle_duffy(n)
    for p in range(deg + 1):
        for q in range(deg + 1 - p):
            val = np.dot(w, pts[:, 0] ** p * pts[:, 1] ** q)
            assert val == pytest.approx(tri_monomial_exact(p, q), rel=1e-12)


@pytest.mark.parametrize("collapse", [0, 1, 2])
def test_duffy_collapse_permutations_integrate_smooth(collapse):
    # the corner rule is the Duffy collapse, graded, at any of the vertices
    pts, w = quad.triangle_corner_rule(8, 16, collapse)
    val = np.dot(w, np.exp(pts[:, 0] - pts[:, 1]))
    pts_ref, w_ref = quad.triangle_duffy(20)
    ref = np.dot(w_ref, np.exp(pts_ref[:, 0] - pts_ref[:, 1]))
    assert val == pytest.approx(ref, rel=1e-13)


def test_graded_rule_log_singularity():
    # int_0^1 log(x) dx = -1, int_0^1 x^(-1/3) dx = 3/2
    x, w = quad.graded01(8, 40)
    assert np.dot(w, np.log(x)) == pytest.approx(-1.0, abs=1e-12)
    assert np.dot(w, x ** (-1.0 / 3.0)) == pytest.approx(1.5, rel=1e-9)
    x, w = quad.graded01(8, 50)
    assert np.dot(w, x ** (-1.0 / 3.0)) == pytest.approx(1.5, rel=1e-11)


def test_graded_rule_toward_upper_end():
    # the rule mirrored onto the upper end, (1 - x, w)
    x, w = quad.graded01(8, 40)
    y = 1.0 - x
    assert np.dot(w, np.log1p(-y)) == pytest.approx(-1.0, abs=1e-12)


def test_graded_both_ends():
    x, w = quad.graded01_both(8, 40)
    assert np.dot(w, np.log(x * (1 - x))) == pytest.approx(-2.0, abs=1e-12)


def test_corner_rule_fractional_singularity():
    # int over reference triangle of r^(-2/3), singular at vertex (0,0):
    # in polar coordinates int_0^(pi/2) int_0^(R(phi)) r^(1/3) dr dphi with
    # R(phi) = 1/(cos phi + sin phi); compare against a dense oracle.
    pts, w = quad.triangle_corner_rule(order=16, levels=24, collapse=0)
    r = np.hypot(pts[:, 0], pts[:, 1])
    val = np.dot(w, r ** (-2.0 / 3.0))
    from scipy.integrate import quad as quad1d
    ref, _ = quad1d(lambda phi: (3.0 / 4.0) * (np.cos(phi) + np.sin(phi)) ** (-4.0 / 3.0),
                    0.0, np.pi / 2.0, epsabs=1e-13, epsrel=1e-13)
    assert val == pytest.approx(ref, rel=1e-12)


def test_map_to_physical_preserves_area_weighting():
    pts, w = quad.triangle_degree4()
    verts = np.array([[[0.0, 0.0], [2.0, 0.0], [0.0, 3.0]]])
    x, y = quad.map_to_physical(verts, pts)
    area = 3.0
    # integrate the constant 1: sum w * 2*area since reference area is 1/2
    assert (w.sum() * 2.0 * area) == pytest.approx(area * 1.0)
    assert x.shape == y.shape == (1, 6)
    assert x[0].max() <= 2.0


@pytest.mark.parametrize("domain", ["square", "lshape"])
def test_map_to_physical_matches_coordinate_last_formula(domain):
    # x and y come each from the formula of the (..., q, 2) map, so they
    # equal its columns exactly, and they are contiguous; CLI level 3,
    # the same mesh with its vertices moved off the dyadic grid, and a
    # stack with two leading axes
    mesh = cli.initial_mesh(domain)
    for _ in range(3):
        mesh = refine_uniform(mesh)
    verts = mesh.triangle_vertices()
    rng = np.random.default_rng(5)
    for v in (verts, verts + 1e-3 * rng.standard_normal(verts.shape),
              rng.standard_normal((4, 7, 3, 2))):
        for pts in (quad.triangle_duffy(4)[0], quad.triangle_duffy(5)[0],
                    quad.triangle_corner_rule(12, 20, 1)[0]):
            x, y = quad.map_to_physical(v, pts)
            want = _oracles.map_to_physical(v, pts)
            assert x.flags.c_contiguous and y.flags.c_contiguous
            assert np.array_equal(x, want[..., 0])
            assert np.array_equal(y, want[..., 1])
