import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import nquad, quad

import _oracles
from dpgbem import (MeshError, boundary_loop, build_mesh, make_lshape_mesh,
                    make_square_mesh, refine_uniform)
from dpgbem import NumericalError, bem, cli, jn_reference, solver, spaces


def panel(a, b):
    return _oracles.BoundaryPanel.from_endpoints(np.array(a), np.array(b))


def slp_oracle(pa, pb, order_a, order_b):
    """Adaptive-quadrature Galerkin single-layer block between two panels."""
    a0, a1 = np.asarray(pa.a), np.asarray(pa.b)
    b0, b1 = np.asarray(pb.a), np.asarray(pb.b)
    na = 1 if order_a == 0 else 2
    nb_ = 1 if order_b == 0 else 2
    out = np.zeros((na, nb_))
    for i in range(na):
        for j in range(nb_):
            def f(t, s):
                x = a0 + s * (a1 - a0)
                y = b0 + t * (b1 - b0)
                r = np.hypot(*(x - y))
                bi = 1.0 if order_a == 0 else (1.0 - s, s)[i]
                bj = 1.0 if order_b == 0 else (1.0 - t, t)[j]
                return -np.log(r) / (2 * np.pi) * bi * bj

            val, _ = nquad(f, [[0, 1], [0, 1]],
                           opts=[{"limit": 400, "epsabs": 1e-13, "epsrel": 1e-13},
                                 {"limit": 400, "epsabs": 1e-13, "epsrel": 1e-13}])
            out[i, j] = val * pa.length * pb.length
    return out


def test_coincident_p0_matches_formula_and_oracle():
    h = 0.05
    p = panel((0.0, 0.0), (h, 0.0))
    formula = (h ** 2 / (2 * np.pi)) * (1.5 - np.log(h))
    # oracle first: independent adaptive quadrature of the double integral
    def f(t, s):
        return -np.log(abs(s - t)) / (2 * np.pi)
    oracle, _ = nquad(f, [[0, h], [0, h]],
                      opts=[lambda s: {"points": [s], "limit": 400,
                                       "epsabs": 1e-15, "epsrel": 1e-13},
                            {"limit": 400, "epsabs": 1e-15, "epsrel": 1e-13}])
    assert formula == pytest.approx(oracle, rel=1e-10)
    val = _oracles.slp_panel_integral(p, p, 0, 0)
    assert val.shape == (1, 1)
    assert val[0, 0] == pytest.approx(formula, rel=1e-10)


def test_coincident_p1_blocks_consistent():
    h = 0.125
    p = panel((0.3, -0.2), (0.3, -0.2 + h))
    b11 = _oracles.slp_panel_integral(p, p, 1, 1)
    b00 = _oracles.slp_panel_integral(p, p, 0, 0)
    b01 = _oracles.slp_panel_integral(p, p, 0, 1)
    assert np.allclose(b11, b11.T)
    assert b11.sum() == pytest.approx(b00[0, 0], rel=1e-13)
    assert np.allclose(b11.sum(axis=0), b01[0], rtol=1e-13)
    # oracle in arclength coordinates, splitting the inner integral at
    # the diagonal singularity
    oracle = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            def f(t, s, i=i, j=j):
                bi = (1.0 - s / h, s / h)[i]
                bj = (1.0 - t / h, t / h)[j]
                return -np.log(abs(s - t)) / (2 * np.pi) * bi * bj
            oracle[i, j], _ = nquad(
                f, [[0, h], [0, h]],
                opts=[lambda s: {"points": [s], "limit": 400,
                                 "epsabs": 1e-15, "epsrel": 1e-13},
                      {"limit": 400, "epsabs": 1e-15, "epsrel": 1e-13}])
    assert np.allclose(b11, oracle, rtol=1e-10)


def test_separated_panels_near_midpoint_rule():
    h = 0.01
    p = panel((0.0, 0.0), (h, 0.0))
    q = panel((1.0, 1.0), (1.0 + h, 1.0))
    val = _oracles.slp_panel_integral(p, q, 0, 0)[0, 0]
    r = np.hypot(1.0 - h / 2 + h / 2, 1.0)
    mid = -np.log(np.hypot(*(np.array([h / 2, 0]) - np.array([1 + h / 2, 1.0])))) \
        / (2 * np.pi) * h * h
    del r
    assert val == pytest.approx(mid, rel=0.01)
    assert val == pytest.approx(slp_oracle(p, q, 0, 0)[0, 0], rel=1e-12)


def test_adjacent_panels_match_oracle():
    p = panel((0.0, 0.0), (0.1, 0.0))
    q = panel((0.0, 0.0), (0.0, 0.1))
    val = _oracles.slp_panel_integral(p, q, 1, 1)
    assert np.allclose(val, slp_oracle(p, q, 1, 1), rtol=1e-9)
    # collinear neighbours on one straight side
    q2 = panel((0.1, 0.0), (0.2, 0.0))
    val2 = _oracles.slp_panel_integral(p, q2, 0, 0)
    assert val2[0, 0] == pytest.approx(slp_oracle(p, q2, 0, 0)[0, 0], rel=1e-9)


def test_slp_scaling_law():
    p = panel((0.0, 0.0), (0.1, 0.0))
    q = panel((0.3, 0.2), (0.35, 0.25))
    alpha = 3.7
    ps = panel((0.0, 0.0), (alpha * 0.1, 0.0))
    qs = panel((alpha * 0.3, alpha * 0.2), (alpha * 0.35, alpha * 0.25))
    base = _oracles.slp_panel_integral(p, q, 0, 0)[0, 0]
    scaled = _oracles.slp_panel_integral(ps, qs, 0, 0)[0, 0]
    expected = alpha ** 2 * base - (alpha ** 2 * p.length * q.length
                                    / (2 * np.pi)) * np.log(alpha)
    assert scaled == pytest.approx(expected, rel=1e-11)


def test_slp_translation_invariance():
    p = panel((0.0, 0.0), (0.1, 0.0))
    q = panel((0.3, 0.2), (0.35, 0.25))
    shift = np.array([1.3, -2.7])
    p2 = panel(p.a + shift, p.b + shift)
    q2 = panel(q.a + shift, q.b + shift)
    assert _oracles.slp_panel_integral(p, q, 1, 1) == pytest.approx(
        _oracles.slp_panel_integral(p2, q2, 1, 1), rel=1e-12)


def test_overlapping_panels_rejected():
    p = panel((0.0, 0.0), (0.2, 0.0))
    q = panel((0.1, 0.0), (0.3, 0.0))
    with pytest.raises(MeshError):
        _oracles.slp_panel_integral(p, q, 0, 0)


def test_dlp_collinear_and_coincident_exactly_zero():
    p = panel((0.0, 0.0), (0.1, 0.0))
    q = panel((0.25, 0.0), (0.4, 0.0))
    assert np.all(_oracles.dlp_panel_integral(p, q, 1, 1) == 0.0)
    assert np.all(_oracles.dlp_panel_integral(p, p, 1, 1) == 0.0)


def test_dlp_perpendicular_adjacent_matches_oracle():
    p = panel((0.0, 0.0), (1.0, 0.0))
    q = panel((0.0, 1.0), (0.0, 0.0))
    val = _oracles.dlp_panel_integral(p, q, 1, 1)

    def oracle(i, j):
        def f(t, s):
            x = p.a + s * (p.b - p.a)
            y = q.a + t * (q.b - q.a)
            d = x - y
            ker = (d @ q.normal) / (2 * np.pi * (d @ d))
            return ker * (1.0 - s, s)[i] * (1.0 - t, t)[j]
        v, _ = nquad(f, [[0, 1], [0, 1]],
                     opts=[{"limit": 400, "epsabs": 1e-12, "epsrel": 1e-12},
                           {"limit": 400, "epsabs": 1e-12, "epsrel": 1e-12}])
        return v * p.length * q.length

    ref = np.array([[oracle(i, j) for j in range(2)] for i in range(2)])
    assert np.allclose(val, ref, atol=1e-8)


# Rounding errors of both the fused and the separate closed forms are a
# few eps times the size of their summands, |s| log R and R log R at the
# panel ends (and |u| J0 in J1).  Measured on 9000 random panels with
# lengths 1e-5 .. 3 and points up to 10 away, and on 20000 examples of
# the test below, each against its scale: at most 0.32 eps for J0,
# 0.18 eps for J1, 0 for D0 (the same expression) and 0.29 eps for D1.
# The bound leaves a margin of 12x.
KERNEL_TOL = 4.0 * np.finfo(float).eps


@settings(max_examples=200, deadline=None)
@given(tail=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       angle=st.floats(0.0, 2.0 * np.pi), log_h=st.floats(-4.0, 0.5),
       point=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
       s=st.floats(-3.0, 3.0), side=st.floats(-3.0, 3.0))
def test_fused_layer_kernel_matches_separate_formulas(tail, angle, log_h,
                                                      point, s, side):
    pa = np.array(tail)
    pb = pa + 10.0 ** log_h * np.array([np.cos(angle), np.sin(angle)])
    h = np.hypot(*(pb - pa))
    u, v = bem._local_coords(np.array(point), pa[None], pb[None],
                             np.array([h]))
    # both vertices (R = 0), a point on the panel's line (v = 0) and a
    # point on either side of the panel
    u = np.concatenate([u, [0.0, h, s * h, s * h, s * h]])
    v = np.concatenate([v, [0.0, 0.0, 0.0, side * h, -side * h]])
    Ra, Rb = u * u + v * v, (h - u) ** 2 + v * v
    J0, J1, D0, D1 = bem._layer_inner(u, v, h)
    with np.errstate(over="ignore"):   # s / v -> inf, and arctan(inf) is exact
        r0, r1 = _oracles.slp_inner(u, v, h)
    q0, q1 = _oracles.dlp_inner(u, v, h)

    logs = 1.0 + sum(np.abs(np.log(np.where(R > 0.0, R, 1.0)))
                     for R in (Ra, Rb))
    slp_scale = (h + np.abs(u) + np.abs(h - u) + Ra + Rb) * logs
    assert np.all(np.abs(J0 - r0) <= KERNEL_TOL * slp_scale)
    assert np.all(np.abs(J1 - r1) <= KERNEL_TOL * slp_scale * (1 + np.abs(u)))
    assert np.all(np.abs(D0 - q0) <= KERNEL_TOL)
    assert np.all(np.abs(D1 - q1) <= KERNEL_TOL * logs * (1 + np.abs(u)))
    on_line = v == 0.0
    assert np.all(D0[on_line] == 0.0) and np.all(D1[on_line] == 0.0)


# ----------------------------------------------------------------------
# assembled matrices
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def square_loop():
    return boundary_loop(make_square_mesh(0.1, 4))


@pytest.fixture(scope="module")
def square_bem(square_loop):
    return bem.assemble_bem(square_loop)


def test_gpsi_symmetric_and_spd(square_bem):
    G = square_bem.G_psi
    assert np.array_equal(G, G.T)
    assert np.linalg.eigvalsh(0.5 * (G + G.T)).min() > 0.0


def test_gpsi_spd_on_lshape():
    mats = bem.assemble_bem(boundary_loop(make_lshape_mesh(0.25, 2)))
    assert np.linalg.eigvalsh(0.5 * (mats.G_psi + mats.G_psi.T)).min() > 0.0


def test_jn_level_never_factors_gpsi():
    # the classical coupling reads no G_psi factor, so a JN-only level
    # never forms it
    mesh = refine_uniform(cli.initial_mesh("lshape"))
    data, exact = cli.manufacture_data("lshape")
    mats = bem.assemble_bem(boundary_loop(mesh))
    u, phi = jn_reference.solve_jn(jn_reference.assemble_jn(mesh, data,
                                                            mats, None))
    jn_reference.jn_errors(mesh, u, exact, data.singular_vertex)
    jn_reference.jn_boundary_errors(mats.loop, u, phi, data)
    assert "G_psi_chol" not in vars(mats)


def test_dpg_rejects_gpsi_not_positive_definite():
    mesh = cli.initial_mesh("square")
    data, _ = cli.manufacture_data("square")
    mats = bem.assemble_bem(boundary_loop(mesh))
    bad = dataclasses.replace(mats, G_psi=-mats.G_psi)
    with pytest.raises(NumericalError, match="single-layer Gram not "
                       "positive definite; check that the domain diameter"):
        solver.solve_dpg(mesh, data, bad, None)
    # the factor is formed once and kept
    assert mats.G_psi_chol is mats.G_psi_chol


def test_matrix_shapes(square_loop, square_bem):
    P = square_loop.num_panels
    assert square_bem.V_ps.shape == (2 * P, P)
    assert square_bem.H.shape == (2 * P, P)
    # one double-layer matrix, H = M/2 - K
    assert [f.name for f in dataclasses.fields(square_bem)] == [
        "loop", "V_ps", "H", "G_psi"]
    assert square_bem.G_psi.shape == (2 * P, 2 * P)


def test_vps_consistent_with_pair_integrals(square_loop, square_bem):
    panels = _oracles.panels_from_loop(square_loop)
    P = square_loop.num_panels
    for i in (0, 3, 7):
        for j in (0, 1, 9):
            blk = _oracles.slp_panel_integral(panels[i], panels[j], 1, 0)
            assert np.allclose(square_bem.V_ps[2 * i:2 * i + 2, j], blk[:, 0],
                               rtol=1e-10, atol=1e-15)
    del P


def test_kup_consistent_with_pair_integrals(square_loop, square_bem):
    # the double layer on the hat columns, K = M/2 - H
    panels = _oracles.panels_from_loop(square_loop)
    P = square_loop.num_panels
    K = np.zeros_like(square_bem.H)
    for i in range(P):
        for j in range(P):
            blk = _oracles.dlp_panel_integral(panels[i], panels[j], 1, 1)
            K[2 * i:2 * i + 2, j] += blk[:, 0]
            K[2 * i:2 * i + 2, (j + 1) % P] += blk[:, 1]
    assert np.allclose(K, 0.5 * _oracles.hat_mass(square_loop)
                       - square_bem.H, atol=1e-14)


def test_half_minus_k_preserves_constants(square_bem):
    # D(1) = -1 inside the domain, so (1/2 - K) 1 = 1 on the boundary:
    # the Galerkin rows against any psi must reproduce the mass of psi.
    P = square_bem.loop.num_panels
    lhs = square_bem.H @ np.ones(P)
    rhs = _oracles.hat_mass(square_bem.loop) @ np.ones(P)
    assert np.allclose(lhs, rhs, atol=1e-13)


def test_mass_matrix_values(square_loop, square_bem):
    h = square_loop.lengths[0]
    M = _oracles.hat_mass(square_loop)
    assert M[0, 0] == pytest.approx(h / 3.0)
    assert M[1, 0] == pytest.approx(h / 6.0)
    assert M.sum() == pytest.approx(square_loop.lengths.sum())


def level_loops(domain, levels):
    """Boundary loops of the CLI meshes at levels 0 .. levels-1."""
    mesh = cli.initial_mesh(domain)
    loops = [boundary_loop(mesh)]
    for _ in range(levels - 1):
        mesh = refine_uniform(mesh)
        loops.append(boundary_loop(mesh))
    return loops


BEM_FIELDS = ("V_ps", "H", "G_psi", "G_psi_chol")


@pytest.mark.parametrize("domain, levels", [("square", 5), ("lshape", 6)],
                         ids=["square", "lshape"])
def test_assemble_bem_matches_loop_oracle(domain, levels):
    # P up to 256 on the square and 512 on the L-shape
    for loop in level_loops(domain, levels):
        got = bem.assemble_bem(loop)
        ref, _ = _oracles.assemble_bem(loop)
        for name in BEM_FIELDS:
            assert np.array_equal(getattr(got, name), getattr(ref, name)), \
                (loop.num_panels, name)


@pytest.mark.parametrize("domain", ["square", "lshape"])
def test_assemble_bem_independent_of_chunk_size(domain, monkeypatch):
    # from one panel pair per tile of the far pass (16) through 4 x 4
    # (256) and 7 x 7 (1000) to one tile for P <= 512 (2**22): the tile
    # bookkeeping and the node sums give the same bits at any batch size
    loops = level_loops(domain, 5)
    want = [bem.assemble_bem(loop) for loop in loops]
    for entries in (16, 256, 1000, 1 << 22):
        monkeypatch.setattr(bem, "FAR_CHUNK_ENTRIES", entries)
        for loop, ref in zip(loops, want):
            got = bem.assemble_bem(loop)
            for name in ("G_psi", "V_ps", "H"):
                assert np.array_equal(getattr(got, name),
                                      getattr(ref, name)), \
                    (entries, loop.num_panels, name)


@pytest.mark.parametrize("domain", ["square", "lshape"])
def test_half_minus_k_load_matches_definition(domain):
    # <(1/2 - K) u0, psi> = m/2 - K y on the data rule, with m the hat
    # moments of u0, y its L2 projection and K the loop oracle's hat
    # columns, at CLI levels 0..5 (P up to 512)
    data, _ = cli.manufacture_data(domain)
    for loop in level_loops(domain, 6):
        got = bem.assemble_bem(loop)
        _, K = _oracles.assemble_bem(loop)
        rule = spaces.boundary_quadrature(loop, spaces.DATA_LEVELS,
                                          data.singular_vertex)
        tail, head = spaces.hat_moments(rule, spaces.point_values(
            rule, lambda x, y, t: data.u0(x, y)))
        want = (0.5 * np.stack([tail, head], axis=1).ravel()
                - K @ spaces.project_boundary_p1(loop, tail, head))
        err = np.abs(got.half_minus_k_load(data.u0, rule) - want).max()
        assert err <= 1e-14 * np.abs(want).max(), (loop.num_panels, err)


def far_pairs(loop):
    """(P, P) mask of the panel pairs that assemble_bem gives the tensor
    rule."""
    mid = np.ascontiguousarray(0.5 * (loop.points_a + loop.points_b).T)
    idx = np.arange(loop.num_panels)
    return bem._separation(mid, 0.5 * loop.lengths, loop.lengths,
                           idx[:, None], idx) >= bem.FAR_RATIO


def hat_columns(D):
    """(P, 2, P, 2) panel-basis double-layer blocks summed into the hat
    columns."""
    return (D[..., 0] + np.roll(D[..., 1], 1, axis=-1)).reshape(
        2 * D.shape[0], -1)


@pytest.mark.parametrize("domain", ["square", "lshape"])
def test_far_pairs_match_high_order_tensor_rule(domain):
    # the 4 x 4 rule on the separated pairs against a 12 x 12 one (found
    # within 6.3e-15), and every other pair against the all-analytic
    # assembly, whose inner integral loses up to 1.8e-14 to cancellation
    # on these pairs (8.5e-13 on the separated ones), at CLI levels 0..5
    # (P up to 512)
    for loop in level_loops(domain, 6):
        P = loop.num_panels
        got = bem.assemble_bem(loop)
        far = far_pairs(loop)
        G_ref, D_ref = _oracles.tensor_gauss_blocks(loop, 12)
        far_G = np.repeat(np.repeat(far, 2, axis=0), 2, axis=1)
        # hat column j of row i is far if panels j and j - 1 both are;
        # the hat masses vanish there, so K = M/2 - H is -H exactly
        far_K = np.repeat(far & np.roll(far, 1, axis=1), 2, axis=0)
        K = 0.5 * _oracles.hat_mass(loop) - got.H
        for mat, ref, mask in ((got.G_psi, G_ref.reshape(2 * P, 2 * P),
                                far_G),
                               (K, hat_columns(D_ref), far_K)):
            err = np.abs(np.where(mask, mat - ref, 0.0)).max()
            assert err <= 1e-14 * np.abs(mat).max(), (P, err)
        ana, K_ana = _oracles.assemble_bem_analytic(loop)
        G_ana = 0.5 * (ana.G_psi + ana.G_psi.T)
        err = np.abs(np.where(far_G, 0.0, got.G_psi - G_ana)).max()
        assert err <= 1e-13 * np.abs(G_ana).max(), (P, err)
        near_K = np.repeat(~far & ~np.roll(far, 1, axis=1), 2, axis=0)
        err = np.abs(np.where(near_K, got.H - ana.H, 0.0)).max()
        assert err <= 1e-13 * np.abs(K_ana).max(), (P, err)


def test_assemble_bem_peak_memory_within_loop_oracle():
    def peak_mb(assemble, loop):
        tracemalloc.start()
        try:
            assemble(loop)
            return tracemalloc.get_traced_memory()[1] / 2.0 ** 20
        finally:
            tracemalloc.stop()

    for domain, levels in (("lshape", 6), ("square", 5)):
        loop = level_loops(domain, levels)[-1]
        assert (peak_mb(bem.assemble_bem, loop)
                <= peak_mb(_oracles.assemble_bem, loop) + 4.0), domain


@pytest.fixture(scope="module")
def level2_meshes():
    meshes = []
    for domain in ("square", "lshape"):
        mesh = refine_uniform(refine_uniform(cli.initial_mesh(domain)))
        meshes.append((mesh, bem.assemble_bem(boundary_loop(mesh))))
    return meshes


@settings(max_examples=25, deadline=None)
@given(theta=st.floats(0.0, 2.0 * np.pi),
       shift=st.tuples(st.floats(-0.2, 0.2), st.floats(-0.2, 0.2)))
def test_bem_matrices_invariant_under_rigid_motions(level2_meshes, theta,
                                                    shift):
    c, s = np.cos(theta), np.sin(theta)
    for mesh, ref in level2_meshes:
        verts = mesh.vertices @ np.array([[c, s], [-s, c]]) + np.array(shift)
        moved = bem.assemble_bem(boundary_loop(build_mesh(verts,
                                                          mesh.triangles)))
        for name in BEM_FIELDS[:-1]:
            a, b = getattr(moved, name), getattr(ref, name)
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), name


# ----------------------------------------------------------------------
# potentials
# ----------------------------------------------------------------------

def test_eval_potentials_zero_densities(square_loop):
    P = square_loop.num_panels
    val = _oracles.eval_potentials(square_loop, np.zeros(P), np.zeros((P, 2)),
                              np.array([0.5, 0.0]), side="exterior")
    assert val == 0.0


def test_eval_potentials_point_on_boundary_rejected(square_loop):
    with pytest.raises(ValueError):
        _oracles.eval_potentials(square_loop, None, None, np.array([0.1, 0.0]),
                            side="exterior")
    with pytest.raises(ValueError):
        _oracles.eval_potentials(square_loop, None, None, np.array([0.0, 0.0]),
                            side="exterior")  # interior point, wrong side


def test_single_layer_unit_density_at_origin(square_loop):
    P = square_loop.num_panels
    val = _oracles.eval_potentials(square_loop, np.ones(P), None,
                              np.array([0.0, 0.0]), side="interior")
    # oracle: sum over the four sides of the square, w = 0.1
    w = 0.1
    side_int, _ = quad(lambda s: -np.log(np.hypot(s, w)) / (2 * np.pi),
                       -w, w, epsabs=1e-14, epsrel=1e-13)
    assert val == pytest.approx(4 * side_int, rel=1e-8)


def dipole(x0, d):
    x0 = np.asarray(x0, dtype=float)
    d = np.asarray(d, dtype=float)

    def value(x, y):
        rx, ry = x - x0[0], y - x0[1]
        r2 = rx ** 2 + ry ** 2
        return (d[0] * rx + d[1] * ry) / (2 * np.pi * r2)

    def gradient(x, y):
        rx, ry = x - x0[0], y - x0[1]
        r2 = rx ** 2 + ry ** 2
        de = d[0] * rx + d[1] * ry
        gx = (d[0] - 2 * de * rx / r2) / (2 * np.pi * r2)
        gy = (d[1] - 2 * de * ry / r2) / (2 * np.pi * r2)
        return gx, gy

    return value, gradient


def dipole_residual_norm(loop, value, gradient):
    """L2(Gamma) norm of V(P0 flux) + (1/2 - K)(P1 trace) for projected
    dipole Cauchy data."""
    rule = spaces.boundary_quadrature(loop, spaces.ERROR_LEVELS, None)
    flux = spaces.panel_means(loop, rule, spaces.normal_flux(
        loop, lambda x, y, nx, ny: sum(g * n for g, n in
                                       zip(gradient(x, y), (nx, ny))), rule))
    trace_v = spaces.project_boundary_p1(loop, *spaces.hat_moments(
        rule, spaces.point_values(rule, lambda x, y, t: value(x, y))))
    trace = bem.hat_trace_coefs(loop, trace_v)
    # the layer potentials have kinks at the panel ends
    panel, x, y, wts, t = _oracles.graded_boundary_rule(loop, 8, 12)
    flat = np.stack([x, y], axis=1)
    vals = (_oracles.eval_single_layer(loop, flux, flat)
            - _oracles.eval_double_layer(loop, trace, flat))
    # pointwise (1/2) * trace, interpolated at the same panel parameters
    lin = trace[panel, 0] * (1 - t) + trace[panel, 1] * t
    vals = vals + 0.5 * lin
    return np.sqrt((wts * vals ** 2).sum())


def test_dipole_representation_formula_decay():
    value, gradient = dipole((0.02, -0.01), (0.6, 0.8))
    mesh = make_square_mesh(0.1, 2)
    norms = []
    for _ in range(4):
        norms.append(dipole_residual_norm(boundary_loop(mesh), value, gradient))
        mesh = refine_uniform(mesh)
    norms = np.array(norms)
    ratios = norms[:-1] / norms[1:]
    assert np.all(ratios >= 1.8)


def test_dipole_reconstructed_at_exterior_points():
    value, gradient = dipole((0.02, -0.01), (0.6, 0.8))
    loop = boundary_loop(make_square_mesh(0.1, 4))

    def flux_fn(x, y):
        # callable density on the boundary: outward normal derivative
        pts = np.stack([x, y], axis=-1)
        u, v = bem._local_coords(pts, loop.points_a, loop.points_b, loop.lengths)
        k = np.argmin(np.abs(v) + np.where((u >= 0) & (u <= loop.lengths), 0, 1e9),
                      axis=-1)
        n = loop.normals[k]
        gx, gy = gradient(x, y)
        return gx * n[..., 0] + gy * n[..., 1]

    for pt in (np.array([1.1, 0.0]), np.array([-0.3, 0.9]), np.array([0.0, -1.4])):
        rec = _oracles.eval_potentials(loop, lambda x, y: -flux_fn(x, y), value,
                                  pt, side="exterior")
        assert rec == pytest.approx(float(value(*pt)), abs=1e-10)


def test_winding_and_location(square_loop):
    pts = np.array([[0.5, 0.5], [0.1, 0.05], [0.0, 0.0]])
    assert list(bem.point_location(square_loop, pts)) == [
        "exterior", "boundary", "interior"]
