import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

import _oracles
from dpgbem import (NumericalError, make_lshape_mesh, make_square_mesh,
                    refine_uniform)
from dpgbem import bem, cli, dpg_assembly, solver, spaces


@pytest.fixture(scope="module")
def smooth_square():
    data, exact = cli.manufacture_data("square")
    mesh = make_square_mesh(0.1, 4)
    sol, blocks = solver.solve_dpg(mesh, data, _oracles.mesh_bem(mesh), None)
    return mesh, data, exact, sol, blocks


def test_solve_spd_identity_and_scalar():
    b = np.array([1.0, -2.0, 3.0])
    assert np.allclose(_oracles.solve_spd_dense(np.eye(3), b), b)
    assert _oracles.solve_spd_dense(np.array([[2.0]]), np.array([6.0]))[0] == pytest.approx(3.0)


def test_solve_spd_sparse_path():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((40, 40))
    A = scipy.sparse.csr_matrix(M @ M.T + 40 * np.eye(40))
    x = rng.standard_normal(40)
    b = A @ x
    got = solver.solve_spd(A, b)
    assert np.allclose(got, x, atol=1e-10)


def test_solve_spd_rejects_indefinite():
    with pytest.raises(NumericalError):
        _oracles.solve_spd_dense(np.diag([1.0, -1.0]), np.array([1.0, 1.0]))
    # SuperLU factors this one without a zero pivot; b^T x = -1/3
    with pytest.raises(NumericalError, match="not SPD"):
        solver.solve_spd(scipy.sparse.csr_matrix([[1.0, 2.0], [2.0, 1.0]]),
                         np.array([1.0, 0.0]))


def test_constant_data_solved_exactly():
    data = dpg_assembly.ProblemData(
        f=lambda x, y: np.zeros_like(x),
        u0=lambda x, y: np.ones_like(x),
        phi0=lambda x, y, nx, ny: np.zeros_like(x + nx),
        singular_vertex=None)
    mesh = make_square_mesh(0.1, 2)
    sol, blocks = solver.solve_dpg(mesh, data, _oracles.mesh_bem(mesh), None)
    assert np.abs(sol.u - 1.0).max() < 1e-9
    assert np.abs(sol.uhat - 1.0).max() < 1e-9
    assert np.abs(sol.sigma).max() < 1e-9
    assert np.abs(sol.sighat).max() < 1e-9
    assert np.abs(sol.trace_c).max() < 1e-9
    assert np.abs(sol.flux_c).max() < 1e-9


def test_energy_error_zero_problem():
    mesh = make_square_mesh(0.1, 1)
    data = dpg_assembly.ProblemData(
        f=lambda x, y: np.zeros_like(x),
        u0=lambda x, y: np.zeros_like(x),
        phi0=lambda x, y, nx, ny: np.zeros_like(x + nx),
        singular_vertex=None)
    sol, blocks = solver.solve_dpg(mesh, data, _oracles.mesh_bem(mesh), None)
    assert solver.energy_error(blocks, sol.x) < 1e-13
    assert solver.energy_error(blocks, np.zeros_like(sol.x)) == 0.0


def test_energy_error_increases_under_perturbation(smooth_square):
    _, _, _, sol, blocks = smooth_square
    e0 = solver.energy_error(blocks, sol.x)
    for k in (0, len(sol.x) // 2, len(sol.x) - 1):
        xp = sol.x.copy()
        xp[k] += 0.1
        assert solver.energy_error(blocks, xp) > e0


def test_least_squares_optimality_on_random_subspace(smooth_square):
    # the solution minimizes r^T G^{-1} r over the whole trial space, so
    # restricted to any affine subspace through it the minimum is at 0
    _, _, _, sol, blocks = smooth_square
    rng = np.random.default_rng(11)
    Z = rng.standard_normal((len(sol.x), 5))
    A, b = _oracles.normal_equations(blocks.B, blocks.G, blocks.ell)
    A = A.toarray()
    r0 = b - A @ sol.x
    grad_c = Z.T @ r0  # gradient of the quadratic at the solution (up to sign)
    hess_c = Z.T @ (A @ Z)
    copt = np.linalg.solve(hess_c, grad_c)
    assert np.abs(copt).max() < 1e-7


def test_energy_error_solution_below_interpolant():
    data, exact = cli.manufacture_data("square")
    for mesh in (make_square_mesh(0.1, 2), make_square_mesh(0.1, 4)):
        sol, blocks = solver.solve_dpg(mesh, data, _oracles.mesh_bem(mesh),
                                       None)
        c = _oracles.interpolate_trial(exact.u, exact.grad, exact.grad, mesh,
                                       spaces.TrialDofLayout.from_mesh(mesh))
        assert (solver.energy_error(blocks, sol.x)
                <= solver.energy_error(blocks, c))
    data, exact = cli.manufacture_data("lshape")
    mesh = make_lshape_mesh(0.25, 2)
    sol, blocks = solver.solve_dpg(mesh, data, _oracles.mesh_bem(mesh), None)
    c = _oracles.interpolate_trial(exact.u, exact.grad, exact.grad, mesh,
                                   spaces.TrialDofLayout.from_mesh(mesh))
    assert (solver.energy_error(blocks, sol.x)
            <= solver.energy_error(blocks, c))


@pytest.mark.parametrize("domain", ["square", "lshape"])
def test_field_error_bounded_by_energy_error(domain):
    # quasi-optimality: the energy error bounds the error in the trial
    # norm, so the ratio of the squared field errors to the squared
    # energy error stays bounded as h -> 0 and tends to a limit.  The
    # ratios at CLI levels 0-5 are 0.517 ... 0.501 on the square and
    # 0.879 ... 0.764 on the L-shape, each step smaller than the last.
    records = cli.run_convergence(cli.ExperimentConfig(
        domain=domain, levels=6, solver="dpg", output_path=None))
    ratio = np.array([(r.err_u_l2_sq + r.err_sigma_l2_sq) / r.err_energy_sq
                      for r in records])
    assert np.all((ratio > 0.0) & (ratio <= 1.0)), ratio
    steps = np.abs(np.diff(ratio))
    assert np.all(steps[1:] < steps[:-1]), ratio


def test_l2_errors_fixed_points(smooth_square):
    # u_h = 0 against exact u = 1 on a domain of area |Omega| gives
    # err_u = sqrt(|Omega|); matching gradients give err_sigma = 0
    mesh, data, exact, sol, blocks = smooth_square
    zero_sol = solver.Solution(mesh=mesh, data=data, loop=sol.loop,
                               x=np.zeros_like(sol.x))
    area = 0.2 * 0.2
    eu, es = solver.l2_errors(
        zero_sol, lambda x, y: np.ones_like(x),
        lambda x, y: (np.zeros_like(x), np.zeros_like(x)))
    assert eu == pytest.approx(np.sqrt(area), rel=1e-12)
    assert es == 0.0


def test_l2_errors_self_consistency(smooth_square):
    # evaluating against elementwise-constant callables equal to the
    # discrete solution gives zero
    mesh, data, exact, sol, blocks = smooth_square
    eu, es = solver.l2_errors(sol, exact.u, exact.grad)
    # compare the default degree-6 rule against a refined-quadrature oracle
    base = solver.quadrature.triangle_duffy
    pts_hi = base(10)
    eu2, es2 = _l2_with_rule(sol, exact, mesh, pts_hi)
    assert eu == pytest.approx(eu2, rel=1e-8)
    assert es == pytest.approx(es2, rel=1e-8)


def test_field_errors_empty_rule_group_at_every_chunk_size(monkeypatch):
    # on the square a singular vertex at the corner (-0.1, -0.1) is local
    # vertex 0 of its elements only, so two graded corner groups are
    # empty; each still makes one (empty) batch at every batch size
    mesh = cli_level_mesh("square", 2)
    data, exact = cli.manufacture_data("square")
    corner = (-0.1, -0.1)
    sizes = [tri.size for tri, _ in solver._error_rules(corner, mesh)]
    assert sizes[1] > 0 and sizes[2:] == [0, 0]
    rng = np.random.default_rng(3)
    u = rng.standard_normal(mesh.num_triangles)
    sigma = rng.standard_normal((mesh.num_triangles, 2))

    def errors():
        return solver.field_errors(mesh, exact.u, exact.grad,
                                   lambda tri, bary: u[tri, None], sigma,
                                   corner)

    want = errors()
    for chunk in (1, 7, 1000):
        monkeypatch.setattr(spaces, "ELEMENT_CHUNK", chunk)
        assert errors() == want


def _l2_with_rule(sol, exact, mesh, rule):
    from dpgbem import quadrature
    pts, w = rule
    verts = mesh.triangle_vertices()
    x, y = quadrature.map_to_physical(verts, pts)
    du = exact.u(x, y) - sol.u[:, None]
    gx, gy = exact.grad(x, y)
    dgx = gx - sol.sigma[:, 0][:, None]
    dgy = gy - sol.sigma[:, 1][:, None]
    a2 = mesh.element_map()[1]
    eu = np.sqrt(((du ** 2) @ w * a2).sum())
    es = np.sqrt((((dgx ** 2 + dgy ** 2)) @ w * a2).sum())
    return eu, es


def test_boundary_cauchy_errors_shift(smooth_square):
    mesh, data, exact, sol, blocks = smooth_square
    et0, ef0 = solver.boundary_cauchy_errors(sol)
    c = 5.0
    shifted = dpg_assembly.ProblemData(
        f=data.f, u0=lambda x, y: data.u0(x, y) + c, phi0=data.phi0,
        singular_vertex=data.singular_vertex)
    sol2 = solver.Solution(mesh=mesh, data=shifted, loop=sol.loop,
                           x=sol.x.copy())
    et1, _ = solver.boundary_cauchy_errors(sol2)
    glen = sol.loop.lengths.sum()
    assert et1 == pytest.approx(c * np.sqrt(glen), rel=1e-3)
    assert abs(et1 - c * np.sqrt(glen)) <= et0


def test_eval_exterior_field_validation_and_zero(smooth_square):
    mesh, data, exact, sol, blocks = smooth_square
    zero_data = dpg_assembly.ProblemData(
        f=lambda x, y: np.zeros_like(x), u0=lambda x, y: np.zeros_like(x),
        phi0=lambda x, y, nx, ny: np.zeros_like(x + nx),
        singular_vertex=None)
    zero_sol = solver.Solution(mesh=mesh, data=zero_data, loop=sol.loop,
                               x=np.zeros_like(sol.x))
    pts = np.array([[1.1, 0.0], [0.0, -2.0]])
    assert np.all(solver.eval_exterior_field(zero_sol, pts) == 0.0)
    with pytest.raises(ValueError):
        solver.eval_exterior_field(sol, np.array([[0.0, 0.0]]))
    # the first point that is not exterior is named
    pts = np.array([[1.1, 0.0], [0.1, 0.05], [0.0, 0.0]])
    with pytest.raises(ValueError, match=r"point \[0\.1 +0\.05\] is boundary"):
        solver.eval_exterior_field(sol, pts)


def test_eval_exterior_field_one_kernel_pass_matches_separate_calls(
        smooth_square):
    _, _, _, sol, _ = smooth_square
    pts = np.random.default_rng(2).uniform(0.15, 2.0, (40, 2))
    pts *= np.where(np.arange(40) % 2, 1.0, -1.0)[:, None]
    trace = bem.hat_trace_coefs(sol.loop, sol.trace_c)
    separate = (_oracles.eval_double_layer(sol.loop, trace, pts)
                - _oracles.eval_single_layer(sol.loop, sol.flux_c, pts))
    assert np.array_equal(solver.eval_exterior_field(sol, pts), separate)


def test_exterior_field_decay_under_refinement():
    data, exact = cli.manufacture_data("square")
    mesh = make_square_mesh(0.1, 2)
    vals = []
    pt = np.array([[1.1, 0.0]])
    from dpgbem.mesh import refine_uniform
    for _ in range(3):
        sol, _ = solver.solve_dpg(mesh, data, _oracles.mesh_bem(mesh), None)
        vals.append(abs(float(solver.eval_exterior_field(sol, pt)[0])))
        mesh = refine_uniform(mesh)
    assert vals[0] > vals[1] > vals[2]


def test_galerkin_orthogonality(smooth_square):
    _, _, _, sol, blocks = smooth_square
    A, b = _oracles.normal_equations(blocks.B, blocks.G, blocks.ell)
    r = b - A @ sol.x
    assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(b)


def test_nonzero_exterior_solution_reconstructed():
    # transmission data manufactured from interior u = x^2 - y^2 and a
    # dipole exterior field; the reconstruction at exterior points must
    # converge to the true exterior values (pins the sign convention of
    # the derived Cauchy data, which the u^c = 0 cases cannot see)
    x0 = np.array([0.02, -0.01])
    d = np.array([0.6, 0.8])

    def uc(x, y):
        rx, ry = x - x0[0], y - x0[1]
        r2 = rx ** 2 + ry ** 2
        return (d[0] * rx + d[1] * ry) / (2 * np.pi * r2)

    def grad_uc(x, y):
        rx, ry = x - x0[0], y - x0[1]
        r2 = rx ** 2 + ry ** 2
        de = d[0] * rx + d[1] * ry
        return ((d[0] - 2 * de * rx / r2) / (2 * np.pi * r2),
                (d[1] - 2 * de * ry / r2) / (2 * np.pi * r2))

    ui = lambda x, y: x ** 2 - y ** 2
    grad_ui = lambda x, y: (2 * x, -2 * y)
    data = dpg_assembly.ProblemData(
        f=lambda x, y: np.zeros_like(x),
        u0=lambda x, y: ui(x, y) - uc(x, y),
        phi0=lambda x, y, nx, ny: (grad_ui(x, y)[0] - grad_uc(x, y)[0]) * nx
                                  + (grad_ui(x, y)[1] - grad_uc(x, y)[1]) * ny,
        singular_vertex=None)

    probes = np.array([[1.1, 0.0], [0.0, -1.3], [-0.8, 0.9]])
    exact = uc(probes[:, 0], probes[:, 1])
    mesh = make_square_mesh(0.1, 2)
    errs = []
    from dpgbem.mesh import refine_uniform
    for _ in range(3):
        sol, _ = solver.solve_dpg(mesh, data, _oracles.mesh_bem(mesh), None)
        rec = solver.eval_exterior_field(sol, probes)
        errs.append(np.abs(rec - exact).max())
        mesh = refine_uniform(mesh)
    assert errs[0] > 2.5 * errs[1] > 2.5 ** 2 * errs[2]
    assert errs[2] < 1e-3


def cli_level_mesh(domain, level):
    mesh = cli.initial_mesh(domain)
    for _ in range(level):
        mesh = refine_uniform(mesh)
    return mesh


@pytest.mark.parametrize("domain", ["square", "lshape"])
@pytest.mark.parametrize("level", [0, 1, 2])
def test_condensed_solve_matches_full_solve(domain, level, monkeypatch):
    mesh = cli_level_mesh(domain, level)
    data, _ = cli.manufacture_data(domain)
    full_solve = solver.solve_spd
    dims = []

    def spy(A, b):
        dims.append(A.shape[0])
        return full_solve(A, b)

    monkeypatch.setattr(solver, "solve_spd", spy)
    sol, blocks = solver.solve_dpg(mesh, data, _oracles.mesh_bem(mesh), None)
    assert dims == [mesh.num_vertices + mesh.num_edges]
    A, b = _oracles.normal_equations(blocks.B, blocks.G, blocks.ell)
    x = full_solve(A, b)
    assert np.abs(sol.x - x).max() <= 1e-10 * np.abs(x).max()


def test_condensed_solve_rejects_indefinite_field_block():
    # the sigma_x column of element 0 (and of its geometry class) is zero,
    # so its field block is singular; matched on the message, so that a
    # later failure of the skeleton solve does not count
    mesh = make_square_mesh(0.1, 1)
    data, _ = cli.manufacture_data("square")
    _, blocks = solver.solve_dpg(mesh, data, _oracles.mesh_bem(mesh), None)
    blocks.B.local[blocks.B.cls[0], :, 0] = 0.0
    with pytest.raises(NumericalError, match="field block"):
        dpg_assembly.build_normal_equations(
            blocks.B, blocks.G, blocks.ell, mesh, None)


def solved_levels(domain, levels):
    """The solved DPG skeleton system (a spaces.Level) of each of the
    first CLI levels of a domain, each solved on the ones below."""
    data, _ = cli.manufacture_data(domain)
    mesh, coarse, out = cli.initial_mesh(domain), None, []
    for _ in range(levels):
        coarse = solver.solve_dpg(mesh, data, _oracles.mesh_bem(mesh),
                                  coarse)[0].level
        out.append(coarse)
        mesh = refine_uniform(mesh)
    return out


@pytest.mark.parametrize("domain", ["square", "lshape"])
def test_dpg_vcycle_symmetric(domain):
    # CG needs a symmetric positive definite preconditioner: the V-cycle
    # over CLI levels 0-3, on random vectors
    S = solved_levels(domain, 4)[-1].matrix
    rng = np.random.default_rng(2)
    for _ in range(3):
        x, y = rng.standard_normal((2, S.shape[0]))
        xMy, yMx = x @ S.vcycle(y), y @ S.vcycle(x)
        scale = np.sqrt((x @ S.vcycle(x)) * (y @ S.vcycle(y)))
        assert abs(xMy - yMx) <= 1e-12 * scale
        assert x @ S.vcycle(x) > 0.0


def krylov_counts(monkeypatch, config):
    """The iterations of every CG and every GMRES solve of a CLI study,
    in level order."""
    counts = {"cg": [], "gmres": []}
    options = {"cg": {}, "gmres": {"callback_type": "pr_norm"}}
    for name in counts:
        def spy(*args, _method=getattr(scipy.sparse.linalg, name),
                _count=counts[name], _options=options[name], **kwargs):
            _count.append(0)

            def step(_):
                _count[-1] += 1
            return _method(*args, callback=step, **_options, **kwargs)
        monkeypatch.setattr(scipy.sparse.linalg, name, spy)
    cli.run_convergence(config)
    return counts


@pytest.mark.parametrize("domain", ["square", "lshape"])
def test_krylov_iterations_bounded_on_cli_levels(domain, monkeypatch):
    # one iteration on level 0, whose V-cycle is the dense inverse; at
    # most 30 CG and 25 GMRES iterations at levels 2-5, each solve on the
    # hierarchy of the levels below (measured: CG 19-23, GMRES 13-16)
    counts = krylov_counts(monkeypatch, cli.ExperimentConfig(
        domain, 6, "both", None))
    for name, bound in (("cg", 30), ("gmres", 25)):
        assert len(counts[name]) == 6 and counts[name][0] == 1
        assert max(counts[name][2:]) <= bound, counts
