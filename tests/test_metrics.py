import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxedit import (
    EmptySet,
    ResolutionMismatch,
    SparseStructure,
    Threshold,
    TopK,
    chamfer,
    chamfer_voxels,
    make_sparse,
    occupancy_iou,
    region_consistency,
    voxel_merge,
)
from voxedit.metrics import voxel_centers

from oracles import chamfer_kdtree, chamfer_quadratic, chamfer_voxels_kdtree, dense, random_structure_coords


def random_structure(rng, resolution=8, density=None):
    density = density if density is not None else rng.uniform(0.02, 0.4)
    return make_sparse(random_structure_coords(rng, resolution, density), resolution)


# --- chamfer ---------------------------------------------------------------


def test_chamfer_identical_sets_is_zero():
    rng = np.random.default_rng(50)
    pts = rng.uniform(0, 10, size=(37, 3))
    assert chamfer(pts, pts) == 0.0


def test_chamfer_3_4_5_example():
    a = np.array([[0.0, 0.0, 0.0]])
    b = np.array([[3.0, 4.0, 0.0]])
    assert chamfer(a, b) == 50.0


def test_chamfer_empty_rejected():
    pts = np.ones((3, 3))
    with pytest.raises(EmptySet):
        chamfer(pts, np.zeros((0, 3)))
    with pytest.raises(EmptySet):
        chamfer(np.zeros((0, 3)), pts)


def test_chamfer_symmetry():
    rng = np.random.default_rng(51)
    a = rng.uniform(0, 5, size=(60, 3))
    b = rng.uniform(0, 5, size=(45, 3))
    assert chamfer(a, b) == chamfer(b, a)


def test_chamfer_zero_iff_equal_sets():
    a = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    b = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
    # b's extra point is off both of a's points, so CD > 0
    assert chamfer(a, b) > 0
    assert chamfer(a, a[::-1]) == 0.0


def test_chamfer_matches_quadratic_scan_exactly():
    rng = np.random.default_rng(52)
    for _ in range(200):
        na, nb = rng.integers(1, 500, size=2)
        a = rng.uniform(-3, 3, size=(int(na), 3))
        b = rng.uniform(-3, 3, size=(int(nb), 3))
        assert chamfer(a, b) == chamfer_quadratic(a, b)


def test_chamfer_voxels_uses_cell_centers():
    a = make_sparse([(0, 0, 0)], 8)
    b = make_sparse([(3, 4, 0)], 8)
    assert chamfer_voxels(a, b) == 50.0
    assert voxel_centers(a).tolist() == [[0.5, 0.5, 0.5]]


def test_chamfer_equals_the_balanced_tree_reference_bit_for_bit():
    rng = np.random.default_rng(57)
    for _ in range(100):
        na, nb = rng.integers(1, 300, size=2)
        a = rng.uniform(-3, 3, size=(int(na), 3))
        b = rng.uniform(-3, 3, size=(int(nb), 3))
        assert chamfer(a, b) == chamfer_kdtree(a, b)


def test_chamfer_voxels_empty_rejected():
    s = make_sparse([(1, 2, 3)], 8)
    for a, b in ((s, make_sparse([], 8)), (make_sparse([], 16), s)):
        with pytest.raises(EmptySet):
            chamfer_voxels(a, b)


@st.composite
def voxel_pairs(draw):
    """Two structures that overlap, are disjoint, are identical, hold a
    single voxel or differ in resolution."""
    kind = draw(st.sampled_from(["overlap", "disjoint", "identical", "single", "mixed"]))
    ra = draw(st.sampled_from([2, 5, 8, 16]))
    rb = draw(st.sampled_from([2, 3, 8, 12, 16])) if kind == "mixed" else ra
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "single":
        return (make_sparse(rng.integers(0, ra, size=(1, 3)), ra),
                make_sparse(random_structure_coords(rng, rb, rng.uniform(0.002, 0.3)), rb))
    a = make_sparse(random_structure_coords(rng, ra, rng.uniform(0.002, 0.4)), ra)
    if kind == "identical":
        return a, make_sparse(a.coords, ra)
    if kind == "disjoint":
        pool = np.setdiff1d(np.arange(ra**3), a.key)  # a covers at most 40% of the grid
        pick = rng.choice(pool, size=int(rng.integers(1, len(pool) + 1)), replace=False)
        return a, make_sparse(np.stack(np.unravel_index(pick, (ra,) * 3), axis=1), ra)
    b = random_structure_coords(rng, rb, rng.uniform(0.002, 0.4))
    if kind in ("overlap", "mixed"):  # keep part of a, add some cells of its own
        keep = a.coords[(rng.random(a.voxel_sum) < 0.8) & (a.coords.max(axis=1) < rb)]
        b = np.concatenate([keep, b[: max(1, len(b) // 4)]]) if len(keep) else b
    return a, make_sparse(b, rb)


@settings(max_examples=300, deadline=None)
@given(voxel_pairs())
def test_chamfer_voxels_equals_full_query_oracle(pair):
    a, b = pair
    got = chamfer_voxels(a, b)
    assert got == chamfer_voxels_kdtree(a.coords, b.coords)
    centres_a, centres_b = a.coords + 0.5, b.coords + 0.5
    assert got == chamfer_quadratic(centres_a, centres_b)
    assert got == chamfer_voxels(b, a)


def test_chamfer_voxels_of_identical_structures_builds_no_tree(monkeypatch):
    def no_tree(*args, **kwargs):
        raise AssertionError("a KD-tree was built")

    rng = np.random.default_rng(58)
    s = random_structure(rng, resolution=16, density=0.2)
    # _nn_sq imports cKDTree when called, so it reads the patched attribute
    monkeypatch.setattr("scipy.spatial.cKDTree", no_tree)
    assert chamfer_voxels(s, s) == 0.0
    assert chamfer_voxels(s, make_sparse(s.coords, 16)) == 0.0
    # the patch is live: a strict subset leaves the other side cells of its own to query
    sub = make_sparse(s.coords[::2], 16)
    with pytest.raises(AssertionError, match="KD-tree"):
        chamfer_voxels(sub, s)


# --- occupancy IoU ------------------------------------------------------------


def test_iou_identical():
    rng = np.random.default_rng(53)
    s = random_structure(rng)
    assert occupancy_iou(s, s) == 1.0


def test_iou_disjoint():
    a = make_sparse([(0, 0, 0)], 8)
    b = make_sparse([(5, 5, 5)], 8)
    assert occupancy_iou(a, b) == 0.0


def test_iou_partial_overlap():
    a = make_sparse([(0, 0, 0), (1, 1, 1)], 8)
    b = make_sparse([(1, 1, 1), (2, 2, 2)], 8)
    assert occupancy_iou(a, b) == pytest.approx(1 / 3)


def test_iou_both_empty_is_one():
    assert occupancy_iou(make_sparse([], 8), make_sparse([], 8)) == 1.0


def test_iou_resolution_mismatch():
    with pytest.raises(ResolutionMismatch):
        occupancy_iou(make_sparse([], 8), make_sparse([], 16))


# --- region consistency ----------------------------------------------------------


def test_merge_outputs_always_report_perfect_consistency():
    rng = np.random.default_rng(54)
    for _ in range(100):
        src = random_structure(rng)
        tgt = random_structure(rng)
        policy = Threshold(int(rng.integers(0, 30))) if rng.random() < 0.5 else TopK(int(rng.integers(0, 5)))
        merged, mask = voxel_merge(src, tgt, policy=policy)
        report = region_consistency(src, tgt, merged, mask)
        assert report.outside_mask_iou == 1.0
        assert report.inside_mask_match_fraction == 1.0
        assert report.mask_size == mask.voxel_sum
        assert report.ok()


def test_extra_voxel_outside_mask_detected():
    rng = np.random.default_rng(55)
    src = random_structure(rng, density=0.1)
    tgt = random_structure(rng, density=0.1)
    merged, mask = voxel_merge(src, tgt, policy=Threshold(0))
    # corrupt: toggle one voxel outside the mask
    mask_set = set(map(tuple, mask.coords.tolist()))
    grid = dense(merged)
    for coord in np.ndindex(8, 8, 8):
        if coord not in mask_set:
            grid[coord] = not grid[coord]
            break
    corrupted = SparseStructure.from_dense(grid)
    report = region_consistency(src, tgt, corrupted, mask)
    assert report.outside_mask_iou < 1.0
    assert report.inside_mask_match_fraction == 1.0  # inside untouched


def test_corruption_inside_mask_detected():
    src = make_sparse([(0, 0, 0)], 8)
    tgt = make_sparse([(0, 0, 0), (4, 4, 4)], 8)
    merged, mask = voxel_merge(src, tgt, policy=Threshold(0))
    assert mask.voxel_sum == 1
    # drop the transferred voxel: inside-mask occupancy now disagrees with target
    broken = make_sparse([(0, 0, 0)], 8)
    report = region_consistency(src, tgt, broken, mask)
    assert report.inside_mask_match_fraction == 0.0
    assert report.outside_mask_iou == 1.0


def test_planted_fault_flags_exactly_the_corrupted_side():
    rng = np.random.default_rng(56)
    for _ in range(50):
        src = random_structure(rng, density=0.15)
        tgt = random_structure(rng, density=0.15)
        merged, mask = voxel_merge(src, tgt, policy=Threshold(2))
        grid = dense(merged)
        mask_set = set(map(tuple, mask.coords.tolist()))
        inside = rng.random() < 0.5 and mask.voxel_sum > 0
        pool = [c for c in map(tuple, np.ndindex(8, 8, 8)) if (c in mask_set) == inside]
        victim = pool[int(rng.integers(len(pool)))]
        grid[victim] = not grid[victim]
        report = region_consistency(src, tgt, SparseStructure.from_dense(grid), mask)
        if inside:
            assert report.inside_mask_match_fraction < 1.0
            assert report.outside_mask_iou == 1.0
        else:
            assert report.outside_mask_iou < 1.0
            assert report.inside_mask_match_fraction == 1.0


def test_iou_and_consistency_equal_dense_counts_on_arbitrary_inputs():
    rng = np.random.default_rng(59)
    for _ in range(100):
        src, tgt, merged, mask_s = (random_structure(rng) for _ in range(4))
        mask = voxel_merge(mask_s, make_sparse([], 8), policy=Threshold(0))[1]
        a, t, m, k = (dense(x) for x in (src, tgt, merged, mask))
        union = np.count_nonzero(a | m)
        assert occupancy_iou(src, merged) == (np.count_nonzero(a & m) / union if union else 1.0)
        report = region_consistency(src, tgt, merged, mask)
        # a plain structure of the FlipMask's voxels is the same mask
        assert region_consistency(src, tgt, merged, SparseStructure(mask.resolution, mask.coords)) == report
        out_union = np.count_nonzero((a | m) & ~k)
        assert report.outside_mask_iou == (np.count_nonzero(a & m & ~k) / out_union if out_union else 1.0)
        assert report.inside_mask_match_fraction == (float(np.mean(m[k] == t[k])) if k.any() else 1.0)
        assert report.diff_size == np.count_nonzero(a ^ t)


def test_empty_mask_empty_everything_reports_ones():
    s = make_sparse([], 8)
    merged, mask = voxel_merge(s, s)
    report = region_consistency(s, s, merged, mask)
    assert report.ok()
    assert report.diff_size == 0
