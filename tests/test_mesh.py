import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from voxedit import TriMesh, extract_surface_mesh, load_obj, make_mesh, make_sparse, save_obj, voxelize_mesh
from voxedit import mesh as mesh_module
from voxedit.errors import EmptyBounds, NonFiniteGeometry

from oracles import (
    dense,
    extract_surface_mesh_argsort,
    random_structure_coords,
    save_obj_loop,
    surface_mesh_loop,
    voxelize_brute_force,
    voxelize_mesh_aabb,
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


@pytest.mark.parametrize("vertices, triangles, match", [
    (np.zeros((3, 3)), [[0, 1, -1]], "out of range"),
    (np.zeros((3, 3)), [[0, 1, 5]], "out of range"),
    (np.zeros((0, 3)), [[0, 0, 0]], "out of range"),
    (np.zeros((3, 2)), np.zeros((0, 3), dtype=np.int64), "vertices"),
    (np.zeros(9), np.zeros((0, 3), dtype=np.int64), "vertices"),
    (np.zeros((3, 3)), [[0, 1]], "triangles"),
    (np.zeros((3, 3)), [[0.0, 1.0, 2.0]], "triangles"),
], ids=["negative", "past-the-end", "no-vertices", "two-columns", "flat-vertices", "two-indices",
        "float-indices"])
def test_trimesh_rejects_bad_shapes_and_indices(vertices, triangles, match):
    # a directly built mesh is checked like make_mesh's, so voxelize_mesh
    # never wraps a negative index and save_obj never names a missing vertex
    with pytest.raises(ValueError, match=match):
        TriMesh(vertices=np.asarray(vertices, dtype=np.float64), triangles=np.asarray(triangles))
    if match == "out of range":
        with pytest.raises(ValueError, match=match):
            make_mesh(vertices, triangles)


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


# a tilted triangle whose bounding box is nearly the whole unit cube
SPANNING = [[0.01, 0.01, 0.01], [0.99, 0.02, 0.5], [0.3, 0.99, 0.99]]


def test_voxelize_grid_spanning_triangle_memory_is_bounded():
    # the batches of columns and of (triangle, cell) pairs keep the peak
    # bounded whatever the size of one triangle's candidate box
    mesh = make_mesh(SPANNING, [(0, 1, 2)])
    for resolution in (128, 256):
        tracemalloc.start()
        try:
            s = voxelize_mesh(mesh, resolution, ((0, 0, 0), (1, 1, 1)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, resolution
        assert s.voxel_sum > resolution * resolution


def test_voxelize_candidate_pairs_grow_like_r_squared(monkeypatch):
    # the triangle's bounding box holds ~R^3 cells, its pruned columns
    # ~R^2 candidate pairs: about 4x, not 8x, per doubling of R
    pairs = []
    candidate_pairs = mesh_module._candidate_pairs

    def counting(*args):
        for batch in candidate_pairs(*args):
            pairs[-1] += len(batch[0])
            yield batch

    monkeypatch.setattr(mesh_module, "_candidate_pairs", counting)
    mesh = make_mesh(SPANNING, [(0, 1, 2)])
    for resolution in (64, 128, 256):
        pairs.append(0)
        voxelize_mesh(mesh, resolution, ((0, 0, 0), (1, 1, 1)))
    assert all(3.5 < b / a < 4.5 for a, b in zip(pairs, pairs[1:])), pairs


# a segment along x (zero normal, so no column is pruned) whose columns run
# 2048 cells deep at R = 2048, beside generic and grid-spanning triangles
BATCH_CASES = [
    ([[0.001, 0.3, 0.6], [0.999, 0.3, 0.6], [0.5, 0.3, 0.6]], [(0, 1, 2)], 2048),
    (SPANNING, [(0, 1, 2)], 24),
    (np.random.default_rng(22).uniform(0, 1, (12, 3)), np.arange(12).reshape(4, 3), 16),
]


def all_pairs(verts, tris, resolution):
    """Every batch ``_candidate_pairs`` yields for ``voxelize_mesh``'s call."""
    batches = []
    candidate_pairs = mesh_module._candidate_pairs

    def recording(*args):
        for batch in candidate_pairs(*args):
            batches.append(batch)
            yield batch

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mesh_module, "_candidate_pairs", recording)
        voxelize_mesh(make_mesh(verts, tris), resolution, ((0, 0, 0), (1, 1, 1)))
    return batches


@pytest.mark.parametrize("chunk", [1, 5, 1000])
@pytest.mark.parametrize("case", range(len(BATCH_CASES)))
def test_candidate_pair_batches_are_bounded_by_the_chunk(monkeypatch, chunk, case):
    verts, tris, resolution = BATCH_CASES[case]
    whole = np.stack([np.concatenate(a) for a in zip(*all_pairs(verts, tris, resolution))], axis=1)
    monkeypatch.setattr(mesh_module, "_SAT_CHUNK", chunk)
    batches = all_pairs(verts, tris, resolution)
    assert all(0 < len(b[0]) <= chunk and {len(a) for a in b} == {len(b[0])} for b in batches)
    if case == 0:  # one column along x, deeper than every chunk
        assert len(np.unique(whole[:, [0, 2, 3]], axis=0)) == 1 and len(whole) > chunk
    # the same pairs, each once, whatever the chunk
    pairs = np.stack([np.concatenate(a) for a in zip(*batches)], axis=1)
    assert len(np.unique(pairs, axis=0)) == len(pairs)
    assert np.array_equal(np.unique(pairs, axis=0), np.unique(whole, axis=0))


@st.composite
def triangle_soups(draw):
    """Up to four triangles with non-cubic bounds, offset and scaled by up
    to 1e6, at power-of-two and other R; each triangle is generic,
    axis-aligned, snapped to half-cell multiples, collinear or a point,
    and may reach outside the bounds."""
    resolution = draw(st.sampled_from([2, 3, 5, 7, 8, 12, 13, 16]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = rng.uniform(-1e6, 1e6, 3) if draw(st.booleans()) else np.zeros(3)
    extent = 10.0 ** rng.uniform(-3, 6, 3) if draw(st.booleans()) else np.ones(3)
    kinds = draw(st.lists(st.sampled_from(["generic", "axis", "snapped", "collinear", "point"]),
                          min_size=1, max_size=4))
    unit = []
    for kind in kinds:
        if kind == "snapped":
            u = rng.integers(-2, 2 * resolution + 3, (3, 3)) / (2 * resolution)
        else:
            u = rng.uniform(-0.2, 1.2, (3, 3))
        if kind == "axis":
            u[:, rng.integers(3)] = rng.integers(0, 2 * resolution + 1) / (2 * resolution)
        elif kind == "collinear":
            u[2] = u[0] + rng.uniform(-1, 2) * (u[1] - u[0])
        elif kind == "point":
            u[1:] = u[0]
        unit.append(u)
    verts = lo + np.concatenate(unit) * extent
    return verts, np.arange(len(verts)).reshape(-1, 3), resolution, (lo, lo + extent)


@pytest.mark.parametrize("chunk", [None, 1, 5, 1000])
@settings(max_examples=100, deadline=None)
@given(case=triangle_soups())
def test_voxelize_equals_unpruned_aabb_oracle(chunk, case):
    # column pruning drops only cells the face-normal axis rejects, so the
    # voxel set equals the SAT over every cell of each bounding box
    verts, tris, resolution, bounds = case
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(mesh_module, "_SAT_CHUNK", chunk)
        got = voxelize_mesh(make_mesh(verts, tris), resolution, bounds).coords
    assert np.array_equal(got, voxelize_mesh_aabb(verts, tris, resolution, *bounds))


def box_normal_cells(tri, lo, cell, resolution, axis) -> list:
    """The cells ``i`` of the ``ceil - 1`` / ``floor`` box along ``axis``
    that the box-normal SAT axis keeps: every ``i`` of the grid is tested
    in scalar arithmetic, with the projections, radius and centre computed
    as the SAT computes them for the unit axis, then intersected with the
    box."""
    unit = [float(j == axis) for j in range(3)]
    half = [c / 2.0 for c in cell]
    proj = [v[0] * unit[0] + v[1] * unit[1] + v[2] * unit[2] for v in tri]
    pmin, pmax = min(proj), max(proj)
    r = half[0] * abs(unit[0]) + half[1] * abs(unit[1]) + half[2] * abs(unit[2])
    centres = [lo[axis] + (i + 0.5) * cell[axis] for i in range(resolution)]
    kept = [i for i, c in enumerate(centres) if not (pmin - c > r or pmax - c < -r)]
    # both tests are monotone in i, so what they keep is one run
    assert not kept or kept == list(range(kept[0], kept[-1] + 1))
    start = int(np.clip(np.ceil((min(v[axis] for v in tri) - lo[axis]) / cell[axis]) - 1, 0, resolution - 1))
    stop = int(np.clip(np.floor((max(v[axis] for v in tri) - lo[axis]) / cell[axis]), 0, resolution - 1))
    return [i for i in kept if start <= i <= stop]


@st.composite
def candidate_box_cases(draw):
    """One triangle at R 2-64 with offset, non-unit bounds; its vertices are
    generic, on cell boundaries or on half-cell multiples, and may lie wholly
    below or above the bounds on one axis."""
    resolution = draw(st.integers(2, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = rng.uniform(-1e6, 1e6, 3) if draw(st.booleans()) else np.zeros(3)
    extent = 10.0 ** rng.uniform(-3, 6, 3) if draw(st.booleans()) else np.ones(3)
    cell = extent / resolution
    kind = draw(st.sampled_from(["generic", "boundary", "half"]))
    if kind == "generic":
        tri = lo + rng.uniform(-0.2, 1.2, (3, 3)) * extent
    else:
        steps = rng.integers(-2, 2 * resolution + 3, (3, 3))
        tri = lo + (steps if kind == "boundary" else steps / 2) * cell
    outside = draw(st.sampled_from([None, "below", "above"]))
    if outside is not None:
        axis = rng.integers(3)
        shift = tri[:, axis] - (tri[:, axis].max() if outside == "below" else tri[:, axis].min())
        tri[:, axis] = (lo[axis] if outside == "below" else lo[axis] + extent[axis]) + shift \
            + (-1 if outside == "below" else 1) * rng.uniform(0, 2) * cell[axis]
    return tri, lo, cell, resolution


@settings(max_examples=300, deadline=None)
@given(case=candidate_box_cases())
def test_candidate_box_keeps_exactly_the_cells_the_box_normals_keep(case):
    tri, lo, cell, resolution = case
    tmin, tmax = mesh_module._candidate_box(tri[None], lo, cell, resolution)
    for axis in range(3):
        kept = box_normal_cells(tri.tolist(), lo.tolist(), cell.tolist(), resolution, axis)
        if kept:
            assert (tmin[0, axis], tmax[0, axis]) == (kept[0], kept[-1]), axis
        else:
            assert tmin[0, axis] > tmax[0, axis], axis


def test_candidate_box_narrows_inward_only():
    # rounding puts cells just outside the ceil - 1 / floor box that the
    # box normals would keep; the box does not grow to take them, so the
    # result stays the 13-axis SAT's over that box
    verts = np.array([[742796.4252955718, 298151.96181231283, -637604.2153754701],
                      [584135.1251997934, 298151.9509549358, -637604.2153754701],
                      [568268.9951902155, 298151.96491442056, -637604.2201776983]])
    lo = np.array([568268.9951902155, 298151.9517304627, -637604.2313828974])
    extent = np.array([2.5385808015324548e+05, 1.2408430915356159e-02, 2.5611883580422035e-02])
    s = voxelize_mesh(make_mesh(verts, [(0, 1, 2)]), 8, (lo, lo + extent))
    assert s.voxel_sum == 39
    assert np.array_equal(s.coords, voxelize_mesh_aabb(verts, [(0, 1, 2)], 8, lo, lo + extent))
    assert mesh_module._sat_axes(verts[None]).shape == (10, 1, 3)


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


@pytest.mark.parametrize("stray", [np.nan, np.inf, 100.0, -1e300])
def test_default_bounds_ignore_unused_vertices(stray):
    # a vertex that no triangle uses neither fails the finiteness check
    # nor stretches the grid
    verts = np.array([[0.1, 0.1, 0.1], [0.9, 0.2, 0.3], [0.4, 0.8, 0.6], [0.5, 0.5, 0.5]])
    tris = [(0, 1, 2), (1, 2, 3)]
    expected = voxelize_mesh(make_mesh(verts, tris), 16)
    assert expected.voxel_sum > 0
    for where in (0, 1, 2):
        with_stray = np.concatenate([verts, [[0.5, 0.5, 0.5]]])
        with_stray[4, where] = stray
        assert voxelize_mesh(make_mesh(with_stray, tris), 16) == expected


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_rejected(bad):
    verts = np.array([[0.1, 0.1, 0.1], [0.9, 0.2, 0.3], [0.4, 0.8, 0.6], [0.5, 0.5, 0.5]])
    tris = [(0, 1, 2), (1, 2, 3)]
    corrupt = verts.copy()
    corrupt[3, 1] = bad
    mesh = make_mesh(corrupt, tris)  # meshes may hold non-finite vertices
    with pytest.raises(NonFiniteGeometry, match="vertex 3"):
        voxelize_mesh(mesh, 8, ((0, 0, 0), (1, 1, 1)))
    with pytest.raises(NonFiniteGeometry):
        voxelize_mesh(mesh, 8)
    for bounds in (((0, 0, 0), (bad, 1, 1)), ((bad, 0, 0), (1, 1, 1))):
        with pytest.raises(NonFiniteGeometry, match="bounds"):
            voxelize_mesh(make_mesh(verts, tris), 8, bounds)
    # a vertex that no triangle uses does not enter explicit bounds
    unused = make_mesh(corrupt, tris[:1])
    expected = voxelize_mesh(make_mesh(verts, tris[:1]), 8, ((0, 0, 0), (1, 1, 1)))
    assert voxelize_mesh(unused, 8, ((0, 0, 0), (1, 1, 1))) == expected


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
    grid = np.pad(dense(s), 1)
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


def assert_surface_equals_loop(s):
    mesh = extract_surface_mesh(s)
    verts, tris = surface_mesh_loop(s.coords, s.resolution)
    assert mesh.vertices.dtype == verts.dtype and mesh.triangles.dtype == tris.dtype
    assert np.array_equal(mesh.vertices, verts)
    assert np.array_equal(mesh.triangles, tris)
    assert mesh.num_triangles == 2 * dense_exposed_face_count(s)


def test_surface_equals_loop_reference():
    # includes voxels on every grid face, the full grid and the empty set
    for s in surface_cases():
        assert_surface_equals_loop(s)


@st.composite
def drawn_structures(draw):
    """A random structure at R 2-17, from empty to full; one in four is a
    slab of whole layers, so voxels sit on every grid face."""
    resolution = draw(st.integers(2, 17))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.integers(0, 3)) == 0:
        lo, hi = sorted(draw(st.lists(st.integers(0, resolution), min_size=2, max_size=2)))
        r = range(resolution)
        return make_sparse([(x, y, z) for x in range(lo, hi) for y in r for z in r], resolution)
    density = draw(st.sampled_from([0.0, 0.01, 0.1, 0.3, 0.6, 0.9, 1.0]))
    coords = random_structure_coords(rng, resolution, density) if density else []
    return make_sparse(coords, resolution)


@settings(max_examples=60, deadline=None)
@given(s=drawn_structures())
def test_surface_equals_loop_reference_on_drawn_structures(s):
    assert_surface_equals_loop(s)


def assert_surface_equals_argsort(s):
    """Bit for bit: the same vertex and triangle arrays, dtypes and shapes."""
    mesh = extract_surface_mesh(s)
    verts, tris = extract_surface_mesh_argsort(s)
    assert mesh.vertices.dtype == verts.dtype == np.float64
    assert mesh.triangles.dtype == tris.dtype == np.int64
    assert mesh.vertices.shape == verts.shape and mesh.triangles.shape == tris.shape
    assert mesh.vertices.tobytes() == verts.tobytes()
    assert mesh.triangles.tobytes() == tris.tobytes()


def packed_bits(s) -> int:
    """The bits ``extract_surface_mesh``'s packed sort needs for ``s``: the
    largest corner key's and those of the largest corner position."""
    verts, tris = extract_surface_mesh_argsort(s)
    side = s.resolution + 1
    top = int(((verts[:, 0] * side + verts[:, 1]) * side + verts[:, 2]).max(initial=0))
    return top.bit_length() + max(2 * len(tris) - 1, 0).bit_length()


R2 = [(x, y, z) for x in range(2) for y in range(2) for z in range(2)]


# 0 bits send every structure that has a corner to the stable argsort
@pytest.mark.parametrize("pack_bits", [mesh_module._PACK_BITS, 0])
@settings(max_examples=60, deadline=None)
@given(s=drawn_structures())
@example(s=make_sparse([], 8))
@example(s=make_sparse([(0, 0, 0)], 2))
@example(s=make_sparse([(16, 0, 9)], 17))
@example(s=make_sparse(R2, 2))
@example(s=make_sparse(R2[:5], 2))
@example(s=make_sparse([(x, y, z) for x in range(5) for y in range(5) for z in range(5)], 5))
@example(s=make_sparse([(x, y, z) for x in (2, 3) for y in range(9) for z in range(9)], 9))
def test_surface_equals_argsort_reference_at_either_bit_budget(pack_bits, s):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mesh_module, "_PACK_BITS", pack_bits)
        assert_surface_equals_argsort(s)


def test_surface_packs_up_to_the_last_bit_of_its_budget(monkeypatch):
    # at exactly the bits it needs the sort packs; one bit less, it argsorts
    for s in surface_cases()[1:]:
        need = packed_bits(s)
        for pack_bits in (need, need - 1):
            monkeypatch.setattr(mesh_module, "_PACK_BITS", pack_bits)
            assert_surface_equals_argsort(s)


def test_surface_of_a_large_shell_at_the_largest_resolution():
    # isolated voxels spread over R = 65535: 48-bit corner keys and more
    # than 2^15 corners, so the default budget of 63 bits takes the argsort
    rng = np.random.default_rng(16)
    coords = 2 * rng.integers(0, 32768, size=(1400, 3))
    coords[0] = (65534, 65534, 65534)
    s = make_sparse(coords, 65535)
    assert packed_bits(s) > mesh_module._PACK_BITS
    assert_surface_equals_argsort(s)
    verts, tris = surface_mesh_loop(s.coords, s.resolution)
    mesh = extract_surface_mesh(s)
    assert np.array_equal(mesh.vertices, verts) and np.array_equal(mesh.triangles, tris)


def test_surface_peak_memory_is_at_most_the_argsort_reference():
    # a spherical shell of about 12k voxels, the size mesh-ingest exports
    r = 64
    x, y, z = np.indices((r, r, r)) - (r - 1) / 2
    radius = np.sqrt(x * x + y * y + z * z)
    s = make_sparse(np.argwhere((radius > 19) & (radius < 22)), r)
    peaks = []
    for extract in (extract_surface_mesh, extract_surface_mesh_argsort):
        tracemalloc.start()
        try:
            extract(s)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert s.voxel_sum > 10_000
    assert peaks[0] <= peaks[1]


# --- OBJ io --------------------------------------------------------------


@pytest.mark.parametrize("batch", [None, 1, 7])
def test_save_obj_bytes_equal_loop_reference(tmp_path, monkeypatch, batch):
    if batch is not None:
        monkeypatch.setattr(mesh_module, "_OBJ_BATCH", batch)
    rng = np.random.default_rng(15)
    odd = np.array([[-0.0, 1e-12, 1e12], [0.1, -1 / 3, 2.5e-300], [123456789.123, -7.0, 1e300],
                    [np.inf, -np.inf, np.nan]])
    meshes = [extract_surface_mesh(s) for s in surface_cases()]
    # each distinct bit pattern gets its own table row, so integers, -0.0
    # beside 0.0, and NaNs of every payload and sign each keep their text
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFF0000000000ABC,
                     0x7FFFFFFFFFFFFFFF], dtype=np.uint64).view(np.float64)
    powers = [s * 10.0 ** k for k in range(-12, 23) for s in (1, -1)] + [0.0, -0.0, 1e9 - 1, -(1e9 - 1)]
    tris = [(0, 1, 2)]
    for corners in ([[999999999.0, -999999999.0, 0], [1, 2, 3], [4, 5, 6]],
                    [[1e9, 0, 0], [1, 2, 3], [4, 5, 6]],
                    [[0, -0.0, 1], [1, 2, 3], [4, 5, 6]],
                    [[-1, -2, -3], [-40, 0, 7], [-123456789, 5, -6]],
                    [[0, 1, 2], [3, 0.5, 4], [5, 6, 7]],
                    [[1, 0.0, 2], [1.5, -0.0, 2], [-7, 0.0, 1e-7]],  # one column mixes integers and fractions
                    [[nans[0], nans[1], 0], [nans[2], nans[3], nans[4]], [-nans[0], 1, np.nan]],
                    # the widest %.9g texts, 16 characters each
                    [[-1.23456789e-308, -2.2250738585072014e-308, -5e-324],
                     [-1.7976931348623157e308, -np.inf, 1.7976931348623157e308], [0, 1, 2]]):
        meshes.append(make_mesh(corners, tris))
    meshes.append(make_mesh(np.reshape(powers + [7.0], (-1, 3)), rng.integers(0, 25, size=(30, 3))))
    meshes.append(TriMesh(vertices=np.empty((0, 3)), triangles=np.empty((0, 3), dtype=np.int64)))
    meshes.append(make_mesh(rng.standard_normal((5, 3)), np.empty((0, 3))))
    for n in (1, 4, 5000):
        verts = np.concatenate([odd, rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-15, 15, (n, 1))])
        meshes.append(make_mesh(verts, rng.integers(0, len(verts), size=(n, 3))))
    # face indices are as wide as the digits of V: the last vertex and its
    # neighbours name every width up to it
    for n in (1, 9, 10, 11, 99, 100, 101, 1000):
        last = n - 1
        tris = np.concatenate([[[0, last, last // 2], [last, last, 0], [max(last - 1, 0), 0, last]],
                               rng.integers(0, n, size=(40, 3))])
        meshes.append(make_mesh(rng.integers(-5, 5, size=(n, 3)), tris))
    for i, mesh in enumerate(meshes):
        save_obj(mesh, tmp_path / "new.obj")
        save_obj_loop(mesh.vertices, mesh.triangles, tmp_path / "old.obj")
        assert (tmp_path / "new.obj").read_bytes() == (tmp_path / "old.obj").read_bytes(), i


def test_save_obj_face_table_has_no_size_limit(tmp_path):
    # 10^6 + 1 vertices: seven-digit indices, the last one a new width
    n = 10**6 + 1
    mesh = TriMesh(vertices=np.zeros((n, 3)), triangles=np.array([[n - 1, 0, n // 2], [n - 2, n - 1, 9],
                                                                  [99999, 100000, 999999]]))
    save_obj(mesh, tmp_path / "big.obj")
    text = (tmp_path / "big.obj").read_bytes()
    assert text.count(b"v 0 0 0\n") == n
    faces = text[text.index(b"f "):]
    assert faces == b"f 1000001 1 500001\nf 1000000 1000001 10\nf 100000 100001 1000000\n"


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


@pytest.mark.parametrize("text, line", [("v 0 0\n" * 6 + "f 1 2 3\n", 1),
                                        ("v 0 0 0\nv 1 0 0\nv 0 1 0\n\nf 1 2\n", 5)],
                         ids=["two-value-vertices", "two-index-face"])
def test_obj_short_records_rejected(tmp_path, text, line):
    path = tmp_path / "short.obj"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"line {line}:"):
        load_obj(path)


@pytest.mark.parametrize("text, line, bad", [("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 x\n", 4, "'x'"),
                                             ("v 0 0 0\n\nv 1 zero 0\n", 3, "'zero'"),
                                             ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1 2.0/2 3\n", 4, "'2.0'"),
                                             ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 0\n", 4, "index 0 "),
                                             ("v 0 0 0\nv 1 0 0\nv 0 1 0\n\nf 1 4 2\n", 5, "index 4 "),
                                             ("v 0 0 0\nv 1 0 0\nf 1 2 3\nv 0 1 0\n", 3, "index 3 "),
                                             ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -1 -2 -4\n", 4, "index -4 ")],
                         ids=["face-letter", "vertex-word", "face-float", "face-zero", "face-past-end",
                              "face-before-its-vertex", "face-before-first"])
def test_obj_bad_numbers_name_their_file_and_line(tmp_path, text, line, bad):
    path = tmp_path / "bad.obj"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))} line {line}: .*{bad}"):
        load_obj(path)


def test_obj_negative_indices_count_back_from_the_last_vertex_read(tmp_path):
    path = tmp_path / "relative.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\nv 0 0 1\nf 1 -1/4 -3\nf -4 -2 -1 2\n")
    assert load_obj(path).triangles.tolist() == [[0, 1, 2], [0, 3, 1], [0, 2, 3], [0, 3, 1]]


def test_obj_quad_fan_triangulation(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    mesh = load_obj(path)
    assert mesh.num_triangles == 2
    assert mesh.triangles.tolist() == [[0, 1, 2], [0, 2, 3]]
