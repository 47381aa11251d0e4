import tracemalloc

import numpy as np
import pytest

from voxedit import extract_surface_mesh, load_obj, make_mesh, make_sparse, save_obj, voxelize_mesh
from voxedit import mesh as mesh_module
from voxedit.errors import EmptyBounds
from voxedit.mesh import count_exposed_faces

from oracles import (
    random_structure_coords,
    save_obj_loop,
    surface_mesh_loop,
    voxelize_brute_force,
    voxelize_mesh_loop,
)


def unit_cube_mesh():
    v = np.array([
        [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
        [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
    ], dtype=float)
    f = [
        (0, 2, 1), (0, 3, 2),  # z = 0
        (4, 5, 6), (4, 6, 7),  # z = 1
        (0, 1, 5), (0, 5, 4),  # y = 0
        (3, 6, 2), (3, 7, 6),  # y = 1
        (0, 7, 3), (0, 4, 7),  # x = 0
        (1, 2, 6), (1, 6, 5),  # x = 1
    ]
    return make_mesh(v, f)


def test_empty_mesh_voxelizes_empty():
    mesh = make_mesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
    s = voxelize_mesh(mesh, 16)
    assert s.voxel_sum == 0


def test_single_triangle_inside_one_cell():
    # bounds [0,1]^3 at R=64; cell (2,3,4) spans [2/64,3/64] x [3/64,4/64] x [4/64,5/64]
    lo = np.array([2, 3, 4]) / 64.0
    center = lo + 0.5 / 64.0
    tri = np.array([center + [0.003, 0, 0], center + [0, 0.003, 0], center + [0, 0, 0.003]])
    mesh = make_mesh(tri, [(0, 1, 2)])
    s = voxelize_mesh(mesh, 64, ((0, 0, 0), (1, 1, 1)))
    assert s.coords.tolist() == [[2, 3, 4]]


def test_unit_cube_shell_at_r8():
    mesh = unit_cube_mesh()
    s = voxelize_mesh(mesh, 8, ((0, 0, 0), (1, 1, 1)))
    expected = {
        (x, y, z)
        for x in range(8) for y in range(8) for z in range(8)
        if 0 in (x, y, z) or 7 in (x, y, z)
    }
    assert set(map(tuple, s.coords.tolist())) == expected
    assert s.voxel_sum == 8**3 - 6**3


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(10)
    for trial in range(8):
        n_tris = int(rng.integers(1, 5))
        verts = rng.uniform(0, 1, size=(3 * n_tris, 3))
        tris = [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(n_tris)]
        mesh = make_mesh(verts, tris)
        s = voxelize_mesh(mesh, 8, ((0, 0, 0), (1, 1, 1)))
        expected = voxelize_brute_force(verts, tris, 8, (0, 0, 0), (1, 1, 1))
        assert set(map(tuple, s.coords.tolist())) == expected


def voxel_set(s):
    return set(map(tuple, s.coords.tolist()))


def random_soup(rng, n_tris, snap=None):
    """``n_tris`` independent triangles in [0, 1]^3; with ``snap``, every
    coordinate is a multiple of ``1 / snap``."""
    if snap is None:
        verts = rng.uniform(0, 1, size=(3 * n_tris, 3))
    else:
        verts = rng.integers(0, snap + 1, size=(3 * n_tris, 3)) / snap
    return verts, [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(n_tris)]


@pytest.mark.parametrize("chunk", [None, 5, 1000])
def test_voxelize_exact_arithmetic_matches_brute_force(monkeypatch, chunk):
    # power-of-two R, unit bounds and vertices on half-cell multiples keep
    # every SAT quantity exact, so touching is decided without rounding;
    # about half of the coordinates sit exactly on a cell boundary
    if chunk is not None:
        monkeypatch.setattr(mesh_module, "_SAT_CHUNK", chunk)
    rng = np.random.default_rng(20)
    for trial in range(108):
        resolution = (2, 4, 8)[trial % 3]
        verts, tris = random_soup(rng, int(rng.integers(1, 4)), snap=2 * resolution)
        s = voxelize_mesh(make_mesh(verts, tris), resolution, ((0, 0, 0), (1, 1, 1)))
        assert voxel_set(s) == voxelize_brute_force(verts, tris, resolution, (0, 0, 0), (1, 1, 1))


@pytest.mark.parametrize("chunk", [None, 5, 1000])
def test_voxelize_generic_matches_loop_and_brute_force(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(mesh_module, "_SAT_CHUNK", chunk)
    rng = np.random.default_rng(21)
    for trial in range(24):
        resolution = (3, 5, 8, 13)[trial % 4]
        verts, tris = random_soup(rng, int(rng.integers(1, 4)))
        s = voxelize_mesh(make_mesh(verts, tris), resolution, ((0, 0, 0), (1, 1, 1)))
        assert voxel_set(s) == voxelize_mesh_loop(verts, tris, resolution, (0, 0, 0), (1, 1, 1))
        assert voxel_set(s) == voxelize_brute_force(verts, tris, resolution, (0, 0, 0), (1, 1, 1))


def test_voxelize_includes_cell_touched_from_below():
    # the triangle's lowest x lies exactly on the boundary between cells 1
    # and 2, so it touches the closed box of cell 1 as well
    verts = [[0.5, 0.375, 0.375], [0.875, 0.375, 0.625], [0.875, 0.625, 0.375]]
    s = voxelize_mesh(make_mesh(verts, [(0, 1, 2)]), 4, ((0, 0, 0), (1, 1, 1)))
    assert (1, 1, 1) in voxel_set(s)
    assert voxel_set(s) == voxelize_brute_force(verts, [(0, 1, 2)], 4, (0, 0, 0), (1, 1, 1))


def test_voxelize_grid_spanning_triangle_memory_is_bounded():
    # about 2M candidate cells; the SAT batches keep the peak far below the
    # ~100 MiB that testing them all at once would take
    verts = [[0.01, 0.01, 0.01], [0.99, 0.02, 0.5], [0.3, 0.99, 0.99]]
    mesh = make_mesh(verts, [(0, 1, 2)])
    tracemalloc.start()
    try:
        s = voxelize_mesh(mesh, 128, ((0, 0, 0), (1, 1, 1)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert s.voxel_sum > 128 * 128


def test_degenerate_triangle_contributes_cells():
    # zero-area sliver along an axis
    verts = np.array([[0.1, 0.1, 0.1], [0.9, 0.1, 0.1], [0.5, 0.1, 0.1]])
    mesh = make_mesh(verts, [(0, 1, 2)])
    s = voxelize_mesh(mesh, 4, ((0, 0, 0), (1, 1, 1)))
    expected = voxelize_brute_force(verts, [(0, 1, 2)], 4, (0, 0, 0), (1, 1, 1))
    assert set(map(tuple, s.coords.tolist())) == expected
    assert s.voxel_sum >= 4


def test_voxelization_is_conservative():
    rng = np.random.default_rng(11)
    verts = rng.uniform(0.05, 0.95, size=(9, 3))
    tris = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
    mesh = make_mesh(verts, tris)
    resolution = 16
    lo, hi = np.zeros(3), np.ones(3)
    s = voxelize_mesh(mesh, resolution, (lo, hi))
    occupied = set(map(tuple, s.coords.tolist()))
    cell = (hi - lo) / resolution
    for t in tris:
        a, b, c = verts[list(t)]
        for _ in range(300):
            u, v = rng.uniform(0, 1, 2)
            if u + v > 1:
                u, v = 1 - u, 1 - v
            p = a + u * (b - a) + v * (c - a)
            # the point must lie inside the closed box of some occupied cell
            base = np.floor((p - lo) / cell).astype(int)
            hit = False
            for dx in (0, -1):
                for dy in (0, -1):
                    for dz in (0, -1):
                        cand = (base[0] + dx, base[1] + dy, base[2] + dz)
                        if cand in occupied:
                            blo = lo + np.array(cand) * cell
                            if (p >= blo - 1e-12).all() and (p <= blo + cell + 1e-12).all():
                                hit = True
            assert hit, f"point {p} not covered"


def test_empty_bounds_rejected():
    mesh = unit_cube_mesh()
    with pytest.raises(EmptyBounds):
        voxelize_mesh(mesh, 8, ((0, 0, 0), (1, 0, 1)))


def test_default_bounds_cover_mesh():
    mesh = unit_cube_mesh()
    s = voxelize_mesh(mesh, 8)  # AABB + margin
    assert s.voxel_sum > 0


# --- surface extraction ------------------------------------------------


def test_surface_empty():
    mesh = extract_surface_mesh(make_sparse([], 8))
    assert mesh.num_vertices == 0
    assert mesh.num_triangles == 0


def test_surface_single_voxel():
    mesh = extract_surface_mesh(make_sparse([(3, 3, 3)], 8))
    assert mesh.num_triangles == 12
    assert mesh.num_vertices == 8


def test_surface_two_adjacent_voxels():
    mesh = extract_surface_mesh(make_sparse([(3, 3, 3), (4, 3, 3)], 8))
    assert mesh.num_triangles == 20  # 12 faces - 2 shared, 2 tris each


def dense_exposed_face_count(s):
    """Independent per-face count on the padded dense grid."""
    grid = np.pad(s.to_dense(), 1)
    n = 0
    for axis in range(3):
        for sign in (1, -1):
            shifted = np.roll(grid, -sign, axis=axis)
            n += int(np.sum(grid & ~shifted))
    return n


def test_surface_triangle_count_matches_face_count():
    rng = np.random.default_rng(12)
    for _ in range(20):
        s = make_sparse(random_structure_coords(rng, 8, rng.uniform(0.02, 0.4)), 8)
        mesh = extract_surface_mesh(s)
        assert mesh.num_triangles == 2 * dense_exposed_face_count(s)
        assert count_exposed_faces(s) == dense_exposed_face_count(s)


def test_surface_is_closed_and_consistently_wound():
    rng = np.random.default_rng(13)
    s = make_sparse(random_structure_coords(rng, 6, 0.25), 6)
    mesh = extract_surface_mesh(s)
    # a closed oriented surface traverses every edge equally often in both
    # directions (counts above 1 are fine where voxels touch diagonally)
    directed = {}
    for tri in mesh.triangles.tolist():
        for e in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            directed[e] = directed.get(e, 0) + 1
    for (a, b), count in directed.items():
        assert directed.get((b, a), 0) == count, "boundary edge (surface not closed)"


def test_surface_normals_point_outward():
    s = make_sparse([(2, 2, 2)], 8)
    mesh = extract_surface_mesh(s)
    center = np.array([2.5, 2.5, 2.5])
    for tri in mesh.triangles:
        a, b, c = mesh.vertices[tri]
        normal = np.cross(b - a, c - a)
        assert np.dot(normal, (a + b + c) / 3 - center) > 0


def surface_cases():
    rng = np.random.default_rng(14)
    cases = [make_sparse([], 8), make_sparse([(0, 0, 0)], 2),
             make_sparse([(x, y, z) for x in range(3) for y in range(3) for z in range(3)], 3),
             make_sparse([(0, 0, 0), (7, 7, 7), (0, 7, 3), (7, 0, 0), (3, 3, 0)], 8)]
    for resolution in (2, 5, 8, 16):
        for density in (0.05, 0.3, 0.7):
            cases.append(make_sparse(random_structure_coords(rng, resolution, density), resolution))
    return cases


def test_surface_equals_loop_reference():
    # includes voxels on every grid face, the full grid and the empty set
    for s in surface_cases():
        mesh = extract_surface_mesh(s)
        verts, tris = surface_mesh_loop(s.coords, s.resolution)
        assert mesh.vertices.dtype == verts.dtype and mesh.triangles.dtype == tris.dtype
        assert np.array_equal(mesh.vertices, verts)
        assert np.array_equal(mesh.triangles, tris)
        assert count_exposed_faces(s) == len(tris) // 2


# --- OBJ io --------------------------------------------------------------


@pytest.mark.parametrize("batch", [None, 1, 7])
def test_save_obj_bytes_equal_loop_reference(tmp_path, monkeypatch, batch):
    if batch is not None:
        monkeypatch.setattr(mesh_module, "_OBJ_BATCH", batch)
    rng = np.random.default_rng(15)
    odd = np.array([[-0.0, 1e-12, 1e12], [0.1, -1 / 3, 2.5e-300], [123456789.123, -7.0, 1e300],
                    [np.inf, -np.inf, np.nan]])
    meshes = [extract_surface_mesh(s) for s in surface_cases()]
    for n in (1, 4, 5000):
        verts = np.concatenate([odd, rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-15, 15, (n, 1))])
        meshes.append(make_mesh(verts, rng.integers(0, len(verts), size=(n, 3))))
    for i, mesh in enumerate(meshes):
        save_obj(mesh, tmp_path / "new.obj")
        save_obj_loop(mesh.vertices, mesh.triangles, tmp_path / "old.obj")
        assert (tmp_path / "new.obj").read_bytes() == (tmp_path / "old.obj").read_bytes(), i




def test_obj_round_trip(tmp_path):
    s = make_sparse([(0, 0, 0), (1, 0, 0), (5, 5, 5)], 8)
    mesh = extract_surface_mesh(s)
    path = tmp_path / "out.obj"
    save_obj(mesh, path)
    back = load_obj(path)
    assert back == mesh
    text = path.read_text()
    assert text.startswith("v ")
    assert " f " not in text.split("f ", 1)[0]  # v block precedes f block


def test_obj_quad_fan_triangulation(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    mesh = load_obj(path)
    assert mesh.num_triangles == 2
    assert mesh.triangles.tolist() == [[0, 1, 2], [0, 2, 3]]
