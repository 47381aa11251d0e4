import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxedit import (
    ChannelMismatch,
    FlipMask,
    MissingLatent,
    ResolutionMismatch,
    SparseStructure,
    Threshold,
    TopK,
    apply_flip,
    diff_xor,
    label_components,
    make_latent,
    make_sparse,
    read_nvx,
    select_components,
    slat_merge,
    voxel_merge,
    write_nvx,
)
from voxedit import merge
from voxedit.merge import CONNECTIVITIES, mask_all

from oracles import (
    LatentReject,
    bfs_components,
    canonical_component_order,
    dense,
    label_components_sorted,
    merge_oracle,
    random_structure_coords,
    select_components_concat,
    slat_merge_masked,
    slat_merge_searchsorted,
    split_components,
)


def random_structure(rng, resolution, density=None):
    density = density if density is not None else rng.uniform(0.01, 0.5)
    return make_sparse(random_structure_coords(rng, resolution, density), resolution)


# --- diff_xor -------------------------------------------------------------


def test_diff_self_is_empty():
    rng = np.random.default_rng(20)
    s = random_structure(rng, 8)
    assert diff_xor(s, s).voxel_sum == 0


def test_diff_single_voxel():
    s_src = make_sparse([(1, 1, 1)], 8)
    s_tgt = make_sparse([], 8)
    assert diff_xor(s_src, s_tgt).coords.tolist() == [[1, 1, 1]]


def test_diff_resolution_mismatch():
    with pytest.raises(ResolutionMismatch):
        diff_xor(make_sparse([], 8), make_sparse([], 16))


def test_diff_matches_dense_oracle():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        a = random_structure(rng, 8)
        b = random_structure(rng, 8)
        d = diff_xor(a, b)
        expected = dense(a) ^ dense(b)
        assert np.array_equal(dense(d), expected)


# --- label_components -------------------------------------------------------


def test_corner_adjacency_only_in_26():
    d = diff_xor(make_sparse([], 4), make_sparse([(0, 0, 0), (1, 1, 1)], 4))
    assert len(label_components(d, 6).sizes) == 2
    assert len(label_components(d, 18).sizes) == 2
    assert len(label_components(d, 26).sizes) == 1


def test_edge_adjacency_enters_at_18():
    d = diff_xor(make_sparse([], 4), make_sparse([(0, 0, 0), (1, 1, 0)], 4))
    assert len(label_components(d, 6).sizes) == 2
    assert len(label_components(d, 18).sizes) == 1


def test_invalid_connectivity():
    d = diff_xor(make_sparse([], 4), make_sparse([(0, 0, 0)], 4))
    for bad in (10, 6.0, True, "6"):
        with pytest.raises(ValueError, match="connectivity"):
            label_components(d, bad)
    assert label_components(d, np.int64(6)).connectivity == 6


def test_labeling_matches_bfs_oracle():
    rng = np.random.default_rng(22)
    for _ in range(60):
        density = rng.uniform(0.01, 0.5)
        s = random_structure(rng, 16, density)
        d = diff_xor(make_sparse([], 16), s)
        for conn in (6, 18, 26):
            cs = label_components(d, conn)
            got = [frozenset(map(tuple, c.tolist())) for c in split_components(cs)]
            expected = canonical_component_order(bfs_components(d.coords, 16, conn), 16)
            assert got == expected
            # within-component voxel order is canonical
            for c in split_components(cs):
                lin = c[:, 0].astype(np.int64) * 256 + c[:, 1] * 16 + c[:, 2]
                assert (np.diff(lin) > 0).all()


def test_component_order_size_then_min_linear_index():
    # two components of size 2; the one containing (0,0,0) must come first
    s = make_sparse([(0, 0, 0), (0, 0, 1), (5, 5, 5), (5, 5, 6), (2, 2, 2)], 8)
    d = diff_xor(make_sparse([], 8), s)
    cs = label_components(d, 6)
    assert cs.sizes == [2, 2, 1]
    components = split_components(cs)
    assert components[0][0].tolist() == [0, 0, 0]
    assert components[1][0].tolist() == [5, 5, 5]


def test_label_memory_follows_the_voxel_count():
    # two voxels at opposite corners of the largest grid an NVX header allows
    r = 65535
    d = make_sparse([(0, 0, 0), (r - 1, r - 1, r - 1)], r)
    tracemalloc.start()
    try:
        cs = label_components(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cs.sizes == [1, 1]
    assert cs.rank.tolist() == [0, 1]
    assert peak < 1 << 20


def reference_labels(d, connectivity):
    """``(sizes, rank)`` from labelling the full dense grid."""
    want = label_components_sorted(d.coords, d.resolution, connectivity)
    position = {tuple(v): j for j, c in enumerate(want) for v in c.tolist()}
    return [len(c) for c in want], [position[tuple(v)] for v in d.coords.tolist()]


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 13), st.floats(0, 1), st.integers(0, 2**32 - 1))
def test_labels_equal_the_dense_reference(resolution, density, seed):
    coords = np.argwhere(np.random.default_rng(seed).random((resolution,) * 3) < density)
    d = make_sparse(coords, resolution)
    for connectivity in CONNECTIVITIES:
        cs = label_components(d, connectivity)
        assert (cs.sizes, cs.rank.tolist()) == reference_labels(d, connectivity)


def row_boundary_pairs(r):
    """Voxel pairs whose keys, or whose rows' ids, are next to each other
    across a row boundary.  At R >= 3 no pair is adjacent."""
    m, z = r - 1, r // 2
    return [
        [(0, 0, m), (0, 1, 0)],  # consecutive keys in two rows
        [(0, 0, z), (0, m, z)],  # step (1, -1) from row (0, 0) has id R - 1, row (0, R - 1)
        [(0, m, z), (1, 0, z)],  # step (0, 1) from row (0, R - 1) has id R, row (1, 0)
        [(0, 1, 0), (1, 0, m)],  # slack below z = 0 ends in the row before (1, 1)
        [(0, 0, m), (1, 1, 0)],  # slack above z = R - 1 starts in the row after (1, 0)
    ]


@pytest.mark.parametrize("r", [2, 3, 5, 7])
def test_runs_do_not_join_across_row_boundaries(r):
    for pair in row_boundary_pairs(r):
        d = make_sparse(pair, r)
        for connectivity in CONNECTIVITIES:
            cs = label_components(d, connectivity)
            assert (cs.sizes, cs.rank.tolist()) == reference_labels(d, connectivity), (pair, connectivity)
            if r > 2:
                assert cs.sizes == [1, 1], (pair, connectivity)
    # at R = 2 the first pair differs by (0, 1, -1): an edge neighbour
    d = make_sparse(row_boundary_pairs(2)[0], 2)
    assert [label_components(d, c).sizes for c in CONNECTIVITIES] == [[1, 1], [2], [2]]


def test_runs_at_both_ends_of_a_row_join_their_neighbours():
    # an edge neighbour above z = 0 and a corner neighbour below z = R - 1
    d = make_sparse([(0, 0, 0), (0, 1, 1), (3, 3, 6), (4, 4, 5)], 7)
    assert [label_components(d, c).sizes for c in CONNECTIVITIES] == [[1, 1, 1, 1], [2, 1, 1], [2, 2]]
    for connectivity in CONNECTIVITIES:
        cs = label_components(d, connectivity)
        assert (cs.sizes, cs.rank.tolist()) == reference_labels(d, connectivity)


def test_label_memory_follows_the_diff_extent():
    # the full 256^3 grid would take ~80 MiB of bool plus int32 labels
    d = make_sparse([(100, 100, 100), (100, 100, 101)], 256)
    tracemalloc.start()
    try:
        cs = label_components(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cs.sizes == [2]
    assert peak < 1 << 20


def test_flat_layout_matches_sorted_reference():
    rng = np.random.default_rng(43)
    structures = [random_structure(rng, 16, density) for density in (0.02, 0.1, 0.3, 0.6)]
    structures += [
        make_sparse([], 16),
        # equal sizes: pairs and singletons placed against their linear order
        make_sparse([(9, 9, 9), (9, 9, 10), (0, 0, 5), (0, 0, 6), (4, 0, 0), (4, 1, 0),
                     (12, 3, 3), (2, 2, 2), (15, 15, 15)], 16),
    ]
    for d in structures:
        for connectivity in CONNECTIVITIES:
            cs = label_components(d, connectivity)
            want = label_components_sorted(d.coords, 16, connectivity)
            assert cs.sizes == [len(c) for c in want]
            assert [(c.dtype, c.shape, c.tobytes()) for c in split_components(cs)] == [
                (c.dtype, c.shape, c.tobytes()) for c in want]
            for policy in (TopK(0), TopK(1), TopK(3), TopK(len(want) + 5),
                           Threshold(0), Threshold(1), Threshold(2), Threshold(100)):
                mask = select_components(cs, policy)
                coords, selected = select_components_concat(want, 16, policy)
                assert mask.selected_sizes == selected
                assert (mask.coords.dtype, mask.coords.shape, mask.coords.tobytes()) == (
                    coords.dtype, coords.shape, coords.tobytes())


# --- select_components --------------------------------------------------------


def planted_components(sizes, resolution=16):
    """Disjoint axis-aligned boxes with >=2-cell gaps, one per size."""
    boxes = {
        150: ((0, 0, 0), (6, 5, 5)),
        60: ((9, 0, 0), (5, 4, 3)),
        40: ((0, 8, 8), (5, 2, 4)),
        12: ((10, 10, 10), (3, 2, 2)),
    }
    coords = []
    for size in sizes:
        (ox, oy, oz), (sx, sy, sz) = boxes[size]
        assert sx * sy * sz == size
        coords.extend(
            (ox + i, oy + j, oz + k) for i in range(sx) for j in range(sy) for k in range(sz)
        )
    return make_sparse(coords, resolution)


def test_threshold_selection_tau_ablation():
    s = planted_components([150, 60, 40, 12])
    d = diff_xor(make_sparse([], 16), s)
    cs = label_components(d, 26)
    assert cs.sizes == [150, 60, 40, 12]
    assert select_components(cs, Threshold(100)).selected_sizes == (150,)
    assert select_components(cs, Threshold(50)).selected_sizes == (150, 60)
    assert select_components(cs, Threshold(30)).selected_sizes == (150, 60, 40)


def test_threshold_is_strict():
    s = planted_components([150])
    d = diff_xor(make_sparse([], 16), s)
    cs = label_components(d, 26)
    assert select_components(cs, Threshold(150)).voxel_sum == 0
    assert select_components(cs, Threshold(149)).voxel_sum == 150


def test_topk_takes_largest():
    s = make_sparse(
        [(0, 0, z) for z in range(5)] + [(4, 4, z) for z in range(3)] + [(8, 8, z) for z in range(3)],
        16,
    )
    d = diff_xor(make_sparse([], 16), s)
    cs = label_components(d, 6)
    assert cs.sizes == [5, 3, 3]
    mask = select_components(cs, TopK(1))
    assert mask.selected_sizes == (5,)
    assert mask.coords.tolist() == [[0, 0, z] for z in range(5)]


def test_topk_tie_breaks_on_min_linear_index():
    s = make_sparse([(0, 0, z) for z in range(4)] + [(4, 4, z) for z in range(4)], 16)
    d = diff_xor(make_sparse([], 16), s)
    cs = label_components(d, 6)
    mask = select_components(cs, TopK(1))
    assert mask.coords.tolist() == [[0, 0, z] for z in range(4)]


def test_topk_overshoot_selects_all():
    s = planted_components([150, 12])
    d = diff_xor(make_sparse([], 16), s)
    cs = label_components(d, 26)
    assert select_components(cs, TopK(99)).voxel_sum == 162


def test_mask_monotone_in_tau():
    rng = np.random.default_rng(23)
    for _ in range(50):
        s = random_structure(rng, 16)
        d = diff_xor(make_sparse([], 16), s)
        cs = label_components(d, 26)
        t2, t1 = sorted(rng.integers(0, 60, size=2))
        m_high = set(map(tuple, select_components(cs, Threshold(int(t1))).coords.tolist()))
        m_low = set(map(tuple, select_components(cs, Threshold(int(t2))).coords.tolist()))
        assert m_high <= m_low


# --- apply_flip ---------------------------------------------------------------


def test_flip_empty_mask_is_identity():
    rng = np.random.default_rng(24)
    s = random_structure(rng, 8)
    d = diff_xor(s, s)
    mask = select_components(label_components(d, 26), Threshold(0))
    assert apply_flip(s, mask) == s


def test_flip_full_diff_recovers_target():
    rng = np.random.default_rng(25)
    for _ in range(50):
        a = random_structure(rng, 8)
        b = random_structure(rng, 8)
        mask = select_components(label_components(diff_xor(a, b), 26), TopK(10**6))
        assert apply_flip(a, mask) == b


def test_flip_is_involution():
    rng = np.random.default_rng(26)
    for _ in range(50):
        a = random_structure(rng, 8)
        b = random_structure(rng, 8)
        cs = label_components(diff_xor(a, b), 26)
        k = int(rng.integers(0, len(cs.sizes) + 1))
        mask = select_components(cs, TopK(k))
        assert apply_flip(apply_flip(a, mask), mask) == a


def test_flip_matches_per_voxel_oracle():
    rng = np.random.default_rng(27)
    for _ in range(1000):
        a = random_structure(rng, 8)
        b = random_structure(rng, 8)
        cs = label_components(diff_xor(a, b), 26)
        k = int(rng.integers(0, len(cs.sizes) + 1))
        mask = select_components(cs, TopK(k))
        merged = apply_flip(a, mask)
        mask_grid = mask_dense(mask, 8)
        expected = merge_oracle(dense(a), dense(b), mask_grid)
        assert np.array_equal(dense(merged), expected)


def mask_dense(mask, resolution):
    grid = np.zeros((resolution,) * 3, dtype=bool)
    if mask.voxel_sum:
        grid[mask.coords[:, 0], mask.coords[:, 1], mask.coords[:, 2]] = True
    return grid


# --- voxel_merge ----------------------------------------------------------------


def test_merge_identical_inputs():
    rng = np.random.default_rng(28)
    s = random_structure(rng, 8)
    merged, mask = voxel_merge(s, s)
    assert merged == s
    assert mask.voxel_sum == 0


def test_merge_planted_blob_with_specks():
    rng = np.random.default_rng(29)
    src = random_structure(rng, 16, 0.08)
    blob = [(1 + i, 1 + j, 1 + k) for i in range(6) for j in range(5) for k in range(5)]
    specks = [(12, 12, 12), (14, 1, 14), (1, 14, 1), (14, 14, 2), (8, 14, 14)]
    flip = make_sparse(blob + specks, 16)
    tgt = apply_flip(src, mask_all(flip))
    merged, mask = voxel_merge(src, tgt, policy=Threshold(100, 26))
    assert sorted(mask.selected_sizes, reverse=True) == [150]
    # blob region transferred, specks untouched
    blob_set = set(blob)
    assert set(map(tuple, mask.coords.tolist())) == blob_set
    merged_dense, src_dense, tgt_dense = dense(merged), dense(src), dense(tgt)
    for speck in specks:
        assert merged_dense[speck] == src_dense[speck]
    for c in blob:
        assert merged_dense[c] == tgt_dense[c]


def test_merge_with_huge_k_returns_target():
    rng = np.random.default_rng(30)
    a = random_structure(rng, 8)
    b = random_structure(rng, 8)
    merged, _ = voxel_merge(a, b, policy=TopK(10**9))
    assert merged == b


# --- slat_merge ------------------------------------------------------------------


def random_latent_for(structure, rng, channels=8):
    lat = rng.standard_normal((structure.voxel_sum, channels)).astype(np.float32)
    return make_latent(structure.coords, lat, structure.resolution)


def test_slat_merge_empty_mask_returns_source_bitwise():
    rng = np.random.default_rng(31)
    s = random_structure(rng, 8)
    z = random_latent_for(s, rng)
    mask = select_components(label_components(diff_xor(s, s), 26), Threshold(0))
    out = slat_merge(z, z, mask, s)
    assert out == z
    assert out.latents.tobytes() == z.latents.tobytes()


def test_slat_merge_added_voxel_takes_target_latent():
    src = make_sparse([(0, 0, 0)], 8)
    tgt = make_sparse([(0, 0, 0), (3, 3, 3)], 8)
    rng = np.random.default_rng(32)
    z_src = random_latent_for(src, rng)
    z_tgt = random_latent_for(tgt, rng)
    merged, mask = voxel_merge(src, tgt, policy=Threshold(0))
    out = slat_merge(z_src, z_tgt, mask, merged)
    assert out.coords.tolist() == [[0, 0, 0], [3, 3, 3]]
    assert out.latents[0].tobytes() == z_src.latents[0].tobytes()
    assert out.latents[1].tobytes() == z_tgt.latents[1].tobytes()


def test_slat_merge_provenance_oracle():
    rng = np.random.default_rng(33)
    for _ in range(500):
        a = random_structure(rng, 8, rng.uniform(0.02, 0.3))
        b = random_structure(rng, 8, rng.uniform(0.02, 0.3))
        z_a = random_latent_for(a, rng)
        z_b = random_latent_for(b, rng)
        cs = label_components(diff_xor(a, b), 26)
        k = int(rng.integers(0, len(cs.sizes) + 1))
        mask = select_components(cs, TopK(k))
        merged = apply_flip(a, mask)
        out = slat_merge(z_a, z_b, mask, merged)
        assert np.array_equal(out.coords, merged.coords)
        mask_set = set(map(tuple, mask.coords.tolist()))
        a_lin = {tuple(c): i for i, c in enumerate(z_a.coords.tolist())}
        b_lin = {tuple(c): i for i, c in enumerate(z_b.coords.tolist())}
        for i, coord in enumerate(map(tuple, out.coords.tolist())):
            if coord in mask_set:
                assert out.latents[i].tobytes() == z_b.latents[b_lin[coord]].tobytes()
            else:
                assert out.latents[i].tobytes() == z_a.latents[a_lin[coord]].tobytes()


def test_slat_merge_channel_mismatch():
    s = make_sparse([(0, 0, 0)], 8)
    rng = np.random.default_rng(34)
    z4 = make_latent(s.coords, rng.standard_normal((1, 4)).astype(np.float32), 8)
    z8 = make_latent(s.coords, rng.standard_normal((1, 8)).astype(np.float32), 8)
    mask = select_components(label_components(diff_xor(s, s), 26), Threshold(0))
    with pytest.raises(ChannelMismatch):
        slat_merge(z4, z8, mask, s)


def test_slat_merge_missing_latent():
    src = make_sparse([(0, 0, 0)], 8)
    tgt = make_sparse([(0, 0, 0), (3, 3, 3)], 8)
    rng = np.random.default_rng(35)
    z_src = random_latent_for(src, rng)
    z_tgt_incomplete = random_latent_for(src, rng)  # lacks (3,3,3)
    merged, mask = voxel_merge(src, tgt, policy=Threshold(0))
    with pytest.raises(MissingLatent) as err:
        slat_merge(z_src, z_tgt_incomplete, mask, merged)
    assert err.value.side == "target"
    assert err.value.coord == (3, 3, 3)


def test_slat_merge_missing_source_latent():
    src = make_sparse([(0, 0, 0), (1, 1, 1), (2, 2, 2)], 8)
    tgt = make_sparse([(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3)], 8)
    rng = np.random.default_rng(37)
    z_src_incomplete = random_latent_for(make_sparse([(0, 0, 0), (2, 2, 2)], 8), rng)  # lacks (1,1,1)
    z_tgt = random_latent_for(tgt, rng)
    merged, mask = voxel_merge(src, tgt, policy=Threshold(0))
    with pytest.raises(MissingLatent) as err:
        slat_merge(z_src_incomplete, z_tgt, mask, merged)
    assert err.value.side == "source"
    assert err.value.coord == (1, 1, 1)


def _cells(resolution, keys):
    r = resolution
    return [(k // (r * r), k // r % r, k % r) for k in keys]


@st.composite
def slat_cases(draw):
    r = draw(st.integers(2, 6))
    keys = st.lists(st.integers(0, r ** 3 - 1), unique=True, max_size=50).map(set)
    src, tgt, mask = draw(keys), draw(keys), draw(keys)
    # merged: what apply_flip gives, any set (mask voxels outside it, rows outside src), or mask_all
    kind = draw(st.sampled_from(["flip", "free", "all"]))
    merged = src ^ mask if kind == "flip" else draw(keys)
    if kind == "all":
        mask = merged
    # each side either carries every latent the merge needs or whatever it drew
    if draw(st.booleans()):
        src = src | (merged - mask)
    if draw(st.booleans()):
        tgt = tgt | (merged & mask)
    return r, src, tgt, mask, merged, kind, draw(st.integers(1, 3)), draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=400, deadline=None)
@given(slat_cases())
def test_slat_merge_equals_the_masked_gather_oracle(case):
    r, src, tgt, mask_keys, merged_keys, kind, channels, seed = case
    rng = np.random.default_rng(seed)
    z_src = random_latent_for(make_sparse(_cells(r, src), r), rng, channels)
    z_tgt = random_latent_for(make_sparse(_cells(r, tgt), r), rng, channels)
    merged = make_sparse(_cells(r, merged_keys), r)
    if kind == "all":
        mask = mask_all(merged)
    else:
        m = make_sparse(_cells(r, mask_keys), r)
        mask = FlipMask(resolution=r, coords=m.coords, selected_sizes=(m.voxel_sum,))
    try:
        want = slat_merge_masked(r, z_src.coords, z_src.latents, z_tgt.coords, z_tgt.latents,
                                 mask.coords, merged.coords)
    except LatentReject as reject:
        with pytest.raises(LatentReject) as searched:
            slat_merge_searchsorted(z_src, z_tgt, mask, merged)
        assert searched.value.args == reject.args
        with pytest.raises(MissingLatent) as err:
            slat_merge(z_src, z_tgt, mask, merged)
        assert (err.value.side, err.value.coord) == reject.args
        return
    searched = slat_merge_searchsorted(z_src, z_tgt, mask, merged)
    out = slat_merge(z_src, z_tgt, mask, merged)
    assert np.array_equal(out.coords, merged.coords)
    for ref in (want, searched):
        assert out.latents.dtype == ref.dtype and out.latents.shape == ref.shape
        assert out.latents.tobytes() == ref.tobytes()
    assert not out.latents.flags.writeable


@pytest.mark.parametrize("read_back", [False, True], ids=["in-memory", "read-back"])
def test_slat_merge_peak_memory_is_the_output_plus_row_indices(read_back, tmp_path):
    """Read back through the codec, the latents are views of the file's
    buffer; a gather that first copies its (unaligned) source breaks the bound."""
    rng = np.random.default_rng(38)
    src = make_sparse(random_structure_coords(rng, 64, 0.19), 64)
    grid = dense(src)
    grid[10:30, 10:30, 10:30] = ~grid[10:30, 10:30, 10:30]
    tgt = SparseStructure.from_dense(grid)
    merged, mask = voxel_merge(src, tgt, policy=TopK(1))
    z_src, z_tgt = random_latent_for(src, rng), random_latent_for(tgt, rng)
    if read_back:
        write_nvx(z_src, tmp_path / "zs.nvx")
        write_nvx(z_tgt, tmp_path / "zt.nvx")
        z_src, z_tgt = read_nvx(tmp_path / "zs.nvx"), read_nvx(tmp_path / "zt.nvx")
    n = merged.voxel_sum
    assert 45_000 < n < 55_000 and mask.voxel_sum > 1000
    tracemalloc.start()
    try:
        out = slat_merge(z_src, z_tgt, mask, merged)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= out.latents.nbytes + 16 * n


def test_labeling_deterministic_under_thread_pool():
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(36)
    diffs = []
    for _ in range(40):
        s = random_structure(rng, 16)
        diffs.append(diff_xor(make_sparse([], 16), s))

    def run(d):
        return [c.tolist() for c in split_components(label_components(d, 26))]

    serial = [run(d) for d in diffs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(run, diffs))
    assert serial == parallel


keys = st.lists(st.integers(0, 80), unique=True, max_size=60).map(lambda v: np.array(sorted(v), dtype=np.int64))


@settings(max_examples=300, deadline=None)
@given(keys, keys, st.booleans())
def test_sorted_xor_equals_setxor1d(a, b, disjoint):
    if disjoint:
        b = b + 1000
    got = merge._xor_sorted(a, b)
    want = np.setxor1d(a, b, assume_unique=True)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)


@pytest.mark.parametrize("a, b", [([], []), ([3], []), ([], [3]), ([1, 2], [1, 2]), ([1, 3], [2, 4])])
def test_sorted_xor_edge_cases(a, b):
    a, b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    assert np.array_equal(merge._xor_sorted(a, b), np.setxor1d(a, b, assume_unique=True))


def test_component_sets_compare_without_raising():
    rng = np.random.default_rng(44)
    d = make_sparse(random_structure_coords(rng, 16, 0.1), 16)
    a, b = label_components(d), label_components(d)
    assert a == a
    assert isinstance(a == b, bool) and isinstance(a != b, bool)
