import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from voxedit import (
    FlipMask,
    OutOfBounds,
    SparseStructure,
    StructuredLatent,
    TopK,
    TriMesh,
    apply_flip,
    diff_xor,
    label_components,
    make_latent,
    make_sparse,
    select_components,
    slat_merge,
)
from voxedit.grid import coords_from_linear, linear_index, sparse_from_linear
from voxedit.merge import mask_all
from voxedit.nvx import decode_nvx, encode_nvx

from oracles import coords_from_linear_stack, dense, linear_index_formula, make_sparse_unique, random_structure_coords


def test_empty_structure():
    s = make_sparse([], 64)
    assert s.voxel_sum == 0
    assert s.resolution == 64
    assert s.coords.shape == (0, 3)


def test_sort_and_dedupe():
    s = make_sparse([(1, 0, 0), (0, 0, 0), (1, 0, 0)], 4)
    assert s.coords.tolist() == [[0, 0, 0], [1, 0, 0]]
    assert s.voxel_sum == 2


def test_out_of_bounds_rejected():
    with pytest.raises(OutOfBounds):
        make_sparse([(4, 0, 0)], 4)
    with pytest.raises(OutOfBounds):
        make_sparse([(0, -1, 0)], 4)


@pytest.mark.parametrize("bad", [2.9, 2**63])
@pytest.mark.parametrize("build", [
    lambda c: make_sparse(c, 4),
    lambda c: make_latent(c, [[0.0]], 4),
], ids=["make_sparse", "make_latent"])
def test_non_integer_or_huge_coords_rejected(build, bad):
    # never truncated to a grid cell, never an uncaught OverflowError
    with pytest.raises((ValueError, OutOfBounds)):
        build([[bad, 0, 0]])


@pytest.mark.parametrize("coords", [None, 5])
def test_non_collection_coords_rejected(coords):
    with pytest.raises(ValueError):
        make_sparse(coords, 4)


def test_resolution_range():
    with pytest.raises(ValueError):
        make_sparse([], 1)
    with pytest.raises(ValueError):
        make_sparse([], 0x10000)  # coords are stored as u16
    make_sparse([], 0xFFFF)
    for not_an_integer in (16.9, "16"):  # never truncated or parsed
        with pytest.raises(ValueError):
            make_sparse([], not_an_integer)


def test_linear_index_round_trip():
    rng = np.random.default_rng(0)
    coords = rng.integers(0, 16, size=(100, 3))
    lin = linear_index(coords, 16)
    assert np.array_equal(coords_from_linear(lin, 16), coords.astype(np.uint16))


def test_linear_index_equals_the_int64_formula():
    rng = np.random.default_rng(1)
    for r in (2, 128, 65535):
        coords = np.concatenate([rng.integers(0, r, size=(200, 3)), [[r - 1] * 3, [0, 0, 0]]])
        expected = linear_index_formula(coords, r)
        assert expected[-2] == r**3 - 1  # the top corner
        for arr in (coords.astype(np.uint16), coords.astype(np.int64), coords.tolist()):
            lin = linear_index(arr, r)
            assert lin.dtype == np.int64
            assert np.array_equal(lin, expected)


def test_coords_from_linear_equals_the_stacked_decode():
    rng = np.random.default_rng(2)
    for r in (64, 128, 65535):
        coords = np.concatenate([rng.integers(0, r, size=(300, 3)), [[r - 1] * 3, [0, 0, 0]]])
        lin = linear_index_formula(coords, r)
        got = coords_from_linear(lin, r)
        assert got.dtype == np.uint16 and got.shape == (len(lin), 3)
        assert np.array_equal(got, coords_from_linear_stack(lin, r))
        assert np.array_equal(got, coords.astype(np.uint16))
    empty = coords_from_linear(np.empty(0, dtype=np.int64), 16)
    assert empty.dtype == np.uint16 and empty.shape == (0, 3)
    assert np.array_equal(empty, coords_from_linear_stack(np.empty(0, dtype=np.int64), 16))


def test_dense_round_trip_trivial():
    s = make_sparse([], 4)
    grid = dense(s)
    assert grid.shape == (4, 4, 4)
    assert not grid.any()
    assert SparseStructure.from_dense(grid) == s

    full = make_sparse([(x, y, z) for x in range(2) for y in range(2) for z in range(2)], 2)
    assert full.voxel_sum == 8
    assert SparseStructure.from_dense(dense(full)) == full


def test_dense_round_trip_random():
    rng = np.random.default_rng(1)
    for _ in range(500):
        n = int(rng.integers(0, 120))
        coords = rng.integers(0, 8, size=(n, 3))
        s = make_sparse(coords, 8)
        assert SparseStructure.from_dense(dense(s)) == s


def test_from_dense_is_keyed_in_c_order_for_any_layout():
    rng = np.random.default_rng(5)
    grid = rng.integers(0, 3, size=(9, 9, 9)) == 0
    for g in (grid, np.asfortranarray(grid), grid.astype(np.int8) * 7):
        s = SparseStructure.from_dense(g)
        assert not s.key.flags.writeable and not s.coords.flags.writeable
        assert np.array_equal(s.coords, np.argwhere(grid).astype(np.uint16))
        assert np.array_equal(s.key, linear_index(s.coords, 9)) and s.key.dtype == np.int64


def test_from_dense_shape_check():
    with pytest.raises(ValueError):
        SparseStructure.from_dense(np.zeros((4, 4, 5), dtype=bool))


@settings(max_examples=100)
@given(
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7)), max_size=40),
    st.randoms(),
)
def test_canonical_form_order_independent(coords, shuffler):
    a = make_sparse(coords, 8)
    shuffled = list(coords)
    shuffler.shuffle(shuffled)
    b = make_sparse(shuffled, 8)
    assert a == b
    assert a.coords.tobytes() == b.coords.tobytes()


@st.composite
def coord_multisets(draw):
    """A resolution and in-range coords with repeats, in shuffled order."""
    r = draw(st.sampled_from([2, 3, 16, 128, 65535]))
    axis = st.integers(0, r - 1)
    coords = draw(st.lists(st.tuples(axis, axis, axis), max_size=60))
    if coords:
        coords += draw(st.lists(st.sampled_from(coords), max_size=20))
    if draw(st.booleans()):
        coords.append((r - 1,) * 3)  # the top corner
    return r, draw(st.permutations(coords))


@settings(max_examples=300, deadline=None)
@given(coord_multisets(), st.sampled_from([list, np.uint16, np.int64]))
@example((2, []), list)
@example((65535, [(65534, 65534, 65534), (0, 0, 0), (65534, 65534, 65534)]), np.uint16)
def test_make_sparse_equals_the_np_unique_oracle(case, kind):
    r, coords = case
    expected_coords, expected_lin = make_sparse_unique(coords, r)
    s = make_sparse(coords if kind is list else np.array(coords, dtype=kind).reshape(-1, 3), r)
    assert s.coords.dtype == np.uint16 and s.key.dtype == np.int64
    assert np.array_equal(s.coords, expected_coords)
    assert np.array_equal(s.key, expected_lin)


def test_structures_immutable():
    s = make_sparse([(1, 2, 3)], 8)
    with pytest.raises(ValueError):
        s.coords[0, 0] = 5


def test_make_latent_sorts_by_coord():
    lat = np.array([[1.0], [2.0]], dtype=np.float32)
    z = make_latent([(1, 0, 0), (0, 0, 0)], lat, 4)
    assert z.coords.tolist() == [[0, 0, 0], [1, 0, 0]]
    assert z.latents[:, 0].tolist() == [2.0, 1.0]
    assert z.channels == 1


def test_make_latent_rejects_duplicates_and_nonfinite():
    lat = np.ones((2, 3), dtype=np.float32)
    with pytest.raises(ValueError):
        make_latent([(0, 0, 0), (0, 0, 0)], lat, 4)
    bad = lat.copy()
    bad[1, 1] = np.nan
    with pytest.raises(ValueError):
        make_latent([(0, 0, 0), (1, 0, 0)], bad, 4)


def test_latent_equality_is_bitwise():
    lat = np.array([[0.0]], dtype=np.float32)
    neg = np.array([[-0.0]], dtype=np.float32)
    a = make_latent([(0, 0, 0)], lat, 4)
    b = make_latent([(0, 0, 0)], neg, 4)
    assert a != b  # -0.0 and 0.0 differ as bits


def _every_constructor(rng, resolution, density):
    """One structure per way the library builds one, by name."""
    s = make_sparse(random_structure_coords(rng, resolution, density), resolution)
    t = make_sparse(random_structure_coords(rng, resolution, density), resolution)
    z_s = make_latent(s.coords, rng.standard_normal((s.voxel_sum, 3)), resolution)
    z_t = make_latent(t.coords, rng.standard_normal((t.voxel_sum, 3)), resolution)
    d = diff_xor(s, t)
    mask = select_components(label_components(d), TopK(2))
    merged = apply_flip(s, mask)
    return {
        "make_sparse": s,
        "from_dense": SparseStructure.from_dense(dense(s)),
        "sparse_from_linear": sparse_from_linear(linear_index(s.coords, resolution), resolution),
        "decode_nvx occupancy": decode_nvx(encode_nvx(s)),
        "decode_nvx latent": decode_nvx(encode_nvx(z_s)),
        "diff_xor": d,
        "select_components": mask,
        "apply_flip": merged,
        "mask_all": mask_all(s),
        "make_latent": z_s,
        "slat_merge": slat_merge(z_s, z_t, mask, merged),
    }


def _assert_keyed_and_frozen(x, name):
    """``x.key`` is the exact int64 key of ``x.coords``, and every array is read-only."""
    assert x.key.dtype == np.int64, name
    assert np.array_equal(x.key, linear_index(x.coords, x.resolution)), name
    arrays = [x.coords, x.key] + ([x.latents] if isinstance(x, StructuredLatent) else [])
    for a in arrays:
        assert not a.flags.writeable, name
        with pytest.raises(ValueError):
            a[...] = 0


@pytest.mark.parametrize("resolution, density", [(8, 0.0), (8, 0.05), (13, 0.2), (32, 0.02)])
def test_linear_key_is_cached_read_only_and_exact(resolution, density):
    rng = np.random.default_rng(resolution)
    for name, x in _every_constructor(rng, resolution, density).items():
        _assert_keyed_and_frozen(x, name)


def test_direct_construction_keys_and_freezes_writable_arrays():
    def coords():
        return np.array([[0, 0, 1], [0, 2, 0], [3, 1, 2]], dtype=np.uint16)

    built = {
        "SparseStructure": SparseStructure(resolution=4, coords=coords()),
        "StructuredLatent": StructuredLatent(4, coords(), np.ones((3, 2), dtype=np.float32)),
        "FlipMask": FlipMask(resolution=4, coords=coords(), selected_sizes=(3,), component_sizes=(3,)),
        "SparseStructure keyed": SparseStructure(4, coords(), key=np.array([1, 8, 54], dtype=np.int64)),
    }
    for name, x in built.items():
        _assert_keyed_and_frozen(x, name)
    mesh = TriMesh(vertices=np.zeros((3, 3)), triangles=np.array([[0, 1, 2]], dtype=np.int64))
    for a in (mesh.vertices, mesh.triangles):
        assert not a.flags.writeable


def test_latent_never_equals_a_plain_structure():
    s = make_sparse([(0, 0, 0), (1, 2, 3)], 8)
    z = make_latent(s.coords, np.zeros((2, 1)), 8)
    plain = SparseStructure(resolution=z.resolution, coords=z.coords)
    for occ in (s, mask_all(s), plain, decode_nvx(encode_nvx(s))):
        # both orders: the subclass's reflected __eq__ runs first for occ == z
        assert not occ == z and not z == occ
        assert occ != z and z != occ
        assert occ == s
    assert z == decode_nvx(encode_nvx(z)) and plain == s
