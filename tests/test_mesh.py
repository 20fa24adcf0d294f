import io

import numpy as np
import pytest

import _oracles
from dpgbem import (MeshError, boundary_loop, build_mesh, make_lshape_mesh,
                    make_square_mesh, refine_uniform)
from dpgbem import mesh as mesh_mod
from dpgbem.cli import initial_mesh


def check_invariants(mesh):
    assert np.all(mesh.element_map()[1] > 0.0)
    # interior edges have two triangles, boundary edges one
    sides = mesh.tri_edges.ravel()
    n_inc = np.bincount(sides, minlength=mesh.num_edges)
    is_bnd = np.zeros(mesh.num_edges, dtype=bool)
    is_bnd[mesh.boundary_edges] = True
    assert np.all(n_inc[is_bnd] == 1)
    assert np.all(n_inc[~is_bnd] == 2)
    # the two elements of an interior edge see opposite outward normals
    net = np.bincount(sides, weights=mesh.tri_edge_signs.ravel(),
                      minlength=mesh.num_edges)
    assert np.all(net[~is_bnd] == 0)
    # outward normals integrate to zero around the closed loop
    loop = boundary_loop(mesh)
    assert np.linalg.norm(loop.normals.T @ loop.lengths) < 1e-14
    # n = (t_y, -t_x) for the counterclockwise tangent
    tang = (loop.points_b - loop.points_a) / loop.lengths[:, None]
    assert np.allclose(loop.normals, np.stack([tang[:, 1], -tang[:, 0]], axis=1))
    # consecutive panels share a vertex
    assert np.allclose(loop.points_b[:-1], loop.points_a[1:])
    assert np.allclose(loop.points_b[-1], loop.points_a[0])


def test_square_single_cell_counts():
    mesh = make_square_mesh(0.1, 1)
    assert mesh.num_triangles == 2
    assert mesh.num_vertices == 4
    assert mesh.num_edges == 5
    assert mesh.num_boundary_edges == 4
    check_invariants(mesh)


def test_square_two_cells_counts():
    mesh = make_square_mesh(0.1, 2)
    assert mesh.num_triangles == 8
    assert mesh.num_vertices == 9
    check_invariants(mesh)


def test_square_rejects_bad_arguments():
    with pytest.raises(MeshError):
        make_square_mesh(0.1, 0)
    with pytest.raises(MeshError):
        make_square_mesh(0.6, 1)  # diameter 1.2*sqrt(2) >= 1
    with pytest.raises(MeshError):
        make_square_mesh(-0.1, 1)


def test_lshape_counts():
    assert make_lshape_mesh(0.25, 1).num_triangles == 6
    assert make_lshape_mesh(0.25, 2).num_triangles == 24


def test_lshape_origin_vertex_unique():
    mesh = make_lshape_mesh(0.25, 2)
    at_origin = np.all(mesh.vertices == 0.0, axis=1)
    assert at_origin.sum() == 1
    check_invariants(mesh)


def test_lshape_boundary_perimeter():
    mesh = make_lshape_mesh(0.25, 1)
    loop = boundary_loop(mesh)
    assert loop.num_panels == 8
    assert loop.lengths.sum() == pytest.approx(8 * 0.25)


@pytest.mark.parametrize("make,args", [(make_square_mesh, (0.1, 3)),
                                       (make_lshape_mesh, (0.25, 2))])
def test_euler_relation(make, args):
    mesh = make(*args)
    assert mesh.num_vertices - mesh.num_edges + mesh.num_triangles == 1


def test_refine_counts_and_h():
    mesh = make_square_mesh(0.1, 1)
    fine = refine_uniform(mesh)
    assert fine.num_triangles == 8
    assert fine.mesh_size() == pytest.approx(mesh.mesh_size() / 2.0)
    finer = refine_uniform(fine)
    assert finer.num_triangles == 32
    check_invariants(fine)
    check_invariants(finer)


def test_refine_splits_boundary_edges():
    mesh = make_lshape_mesh(0.25, 1)
    fine = refine_uniform(mesh)
    assert fine.num_boundary_edges == 2 * mesh.num_boundary_edges
    # boundary polygon preserved: coarse boundary vertices survive
    coarse_bnd = mesh.vertices[mesh.boundary_tails]
    fine_bnd = fine.vertices[fine.boundary_tails]
    for p in coarse_bnd:
        assert np.min(np.hypot(*(fine_bnd - p).T)) < 1e-15
    check_invariants(fine)


def test_boundary_loop_ccw_and_arclength():
    mesh = make_square_mesh(0.1, 1)
    loop = boundary_loop(mesh)
    assert loop.num_panels == 4
    assert loop.lengths.sum() == pytest.approx(0.8)
    # counterclockwise: shoelace area of the loop polygon is positive
    pa, pb = loop.points_a, loop.points_b
    area2 = np.sum(pa[:, 0] * pb[:, 1] - pb[:, 0] * pa[:, 1])
    assert area2 > 0.0


def test_disconnected_boundary_rejected():
    # two triangles meeting only at one vertex: pinched boundary
    verts = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1],
                      [-0.1, 0.0], [0.0, -0.1]])
    tris = np.array([[0, 1, 2], [0, 3, 4]])
    with pytest.raises(MeshError):
        build_mesh(verts, tris)


def test_flipped_triangle_rejected():
    verts = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]])
    with pytest.raises(MeshError):
        build_mesh(verts, np.array([[0, 2, 1]]))


def test_dump_format():
    mesh = make_square_mesh(0.1, 1)
    buf = io.StringIO()
    _oracles.dump_mesh(mesh, buf)
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == mesh.num_vertices + mesh.num_triangles
    assert all(l.startswith("v ") for l in lines[:4])
    assert all(l.startswith("t ") for l in lines[4:])
    i, j, k = map(int, lines[4].split()[1:])
    assert {i, j, k} <= set(range(4))


def test_lshape_rejects_bad_arguments():
    with pytest.raises(MeshError):
        make_lshape_mesh(0.25, 0)
    with pytest.raises(MeshError):
        make_lshape_mesh(0.5, 1)  # diameter sqrt(2) >= 1
    with pytest.raises(MeshError):
        make_lshape_mesh(-0.25, 2)


MESH_ARRAYS = ("vertices", "triangles", "edges", "edge_normals",
               "edge_lengths", "tri_edges", "tri_edge_signs",
               "boundary_edges", "boundary_tails", "boundary_signs")


def assert_same_mesh(mesh, ref):
    for name in MESH_ARRAYS:
        got, want = getattr(mesh, name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


@pytest.mark.parametrize("domain", ["square", "lshape"])
def test_topology_matches_loop_oracle(domain):
    mesh = initial_mesh(domain)
    ref = _oracles.build_mesh(mesh.vertices, mesh.triangles)
    for _ in range(5):
        assert_same_mesh(mesh, ref)
        mesh, ref = refine_uniform(mesh), _oracles.refine_uniform(ref)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("make,grid,size", [
    (make_square_mesh, _oracles.square_grid, 0.1),
    (make_lshape_mesh, _oracles.lshape_grid, 0.25)])
def test_structured_mesh_matches_cell_loop(make, grid, size, n):
    mesh = make(size, n)
    vertices, triangles = grid(size, n)
    assert np.array_equal(mesh.vertices, vertices)
    assert np.array_equal(mesh.triangles, triangles)


def test_topology_matches_loop_oracle_on_permuted_triangles():
    mesh = refine_uniform(make_lshape_mesh(0.25, 2))
    rng = np.random.default_rng(3)
    tris = mesh.triangles[rng.permutation(mesh.num_triangles)]
    # rotate each triangle's corners; keeps them counterclockwise
    shift = rng.integers(0, 3, size=tris.shape[0])
    tris = tris[np.arange(tris.shape[0])[:, None],
                (np.arange(3)[None, :] + shift[:, None]) % 3]
    assert_same_mesh(build_mesh(mesh.vertices, tris),
                     _oracles.build_mesh(mesh.vertices, tris))


def test_edge_shared_by_three_triangles_rejected():
    verts = np.array([[0.0, 0.0], [0.1, 0.0], [0.05, 0.1],
                      [0.05, -0.1], [0.05, 0.2]])
    tris = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    with pytest.raises(MeshError, match="shared by >2"):
        build_mesh(verts, tris)


@pytest.mark.parametrize("tails, heads, message", [
    ([], [], "no boundary"),
    ([0, 1, 0], [1, 0, 2], "not a simple closed loop"),
    ([0, 1], [1, 2], "not closed"),
    ([0, 1, 2, 3], [1, 0, 3, 2], "more than one loop"),
])
def test_walk_boundary_rejects(tails, heads, message):
    n = len(tails)
    with pytest.raises(MeshError, match=message):
        mesh_mod._walk_boundary(np.arange(n), np.array(tails, dtype=int),
                                np.array(heads, dtype=int), np.ones(n, int))


def test_two_separate_triangles_rejected():
    verts = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1],
                      [0.3, 0.0], [0.4, 0.0], [0.3, 0.1]])
    with pytest.raises(MeshError, match="more than one loop"):
        build_mesh(verts, np.array([[0, 1, 2], [3, 4, 5]]))


def test_walk_boundary_starts_at_first_edge_and_chains():
    # a loop 0 -> 3 -> 1 -> 2 -> 0 given out of order
    bnd = np.array([4, 5, 6, 7])
    got = mesh_mod._walk_boundary(bnd, np.array([0, 1, 2, 3]),
                                  np.array([3, 2, 0, 1]), np.array([1, -1, 1, -1]))
    assert [a.tolist() for a in got] == [[4, 7, 5, 6], [0, 3, 1, 2],
                                         [1, -1, -1, 1]]


SQUARE_CORNERS = [[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [0.1, 0.1]]


@pytest.mark.parametrize("make", [
    lambda: build_mesh([[0.0, 0.0], [0.1, 0.0], [0.0, np.nan]], [[0, 1, 2]]),
    lambda: build_mesh([[0.0, 0.0], [0.1, 0.0], [0.0, np.inf]], [[0, 1, 2]]),
    lambda: build_mesh(SQUARE_CORNERS, [[0, 1, 2], [1, -1, 2]]),
    lambda: build_mesh(SQUARE_CORNERS, [[0, 1, 2], [1, 4, 2]]),
    lambda: make_square_mesh(np.nan, 2),
    lambda: make_lshape_mesh(np.nan, 2),
    lambda: make_square_mesh(0.1, np.inf),
    lambda: make_square_mesh(0.1, np.nan),
], ids=["nan-vertex", "inf-vertex", "negative-index", "index-V",
        "nan-width", "nan-quarter", "inf-cells", "nan-cells"])
def test_invalid_mesh_input_rejected(make):
    with pytest.raises(MeshError):
        make()


@pytest.mark.parametrize("make", [make_square_mesh, make_lshape_mesh])
@pytest.mark.parametrize("size, n", [
    (0.1, "4"), (0.1, None), ("0.1", 2), (0.1, True), (0.1, np.True_),
    (True, 2), (None, 2), (0.1, [2]), (0.1, 2.5)],
    ids=["str-cells", "none-cells", "str-size", "bool-cells",
         "numpy-bool-cells", "bool-size", "none-size", "list-cells",
         "fractional-cells"])
def test_grid_rejects_non_numeric_and_boolean_arguments(make, size, n):
    # a size or a count that is not a real number, or is a boolean,
    # raises MeshError, not a TypeError from the comparisons
    with pytest.raises(MeshError):
        make(size, n)


@pytest.mark.parametrize("make", [make_square_mesh, make_lshape_mesh])
def test_grid_accepts_numpy_and_integral_float_arguments(make):
    want = make(0.1, 2).triangles
    assert np.array_equal(make(np.float64(0.1), np.int64(2)).triangles, want)
    assert np.array_equal(make(0.1, 2.0).triangles, want)


@pytest.mark.parametrize("domain", ["square", "lshape"])
def test_boundary_loop_geometry_matches_tangent_formula(domain):
    # the panel data read from the mesh's edges against pb - pa, on the
    # CLI meshes and on a copy with every vertex moved by up to 10% of h.
    # array_equal: the same bits, except that a zero normal component
    # may have the other sign
    mesh = initial_mesh(domain)
    rng = np.random.default_rng(3)
    for level in range(5):
        move = rng.uniform(-0.1, 0.1, mesh.vertices.shape) * mesh.mesh_size()
        for m in (mesh, build_mesh(mesh.vertices + move, mesh.triangles)):
            loop = boundary_loop(m)
            pb, lengths, normals = _oracles.tangent_loop_geometry(m)
            assert np.array_equal(loop.points_b, pb)
            assert np.array_equal(loop.lengths, lengths)
            assert np.array_equal(loop.normals, normals)
        mesh = refine_uniform(mesh)
