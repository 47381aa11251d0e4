import numpy as np
import pytest

from voxedit import (
    EmptySet,
    ResolutionMismatch,
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

from oracles import chamfer_quadratic, random_structure_coords


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
    grid = merged.to_dense()
    for coord in np.ndindex(8, 8, 8):
        if coord not in mask_set:
            grid[coord] = not grid[coord]
            break
    from voxedit import SparseStructure

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
        grid = merged.to_dense()
        mask_set = set(map(tuple, mask.coords.tolist()))
        inside = rng.random() < 0.5 and mask.voxel_sum > 0
        pool = [c for c in map(tuple, np.ndindex(8, 8, 8)) if (c in mask_set) == inside]
        victim = pool[int(rng.integers(len(pool)))]
        grid[victim] = not grid[victim]
        from voxedit import SparseStructure

        report = region_consistency(src, tgt, SparseStructure.from_dense(grid), mask)
        if inside:
            assert report.inside_mask_match_fraction < 1.0
            assert report.outside_mask_iou == 1.0
        else:
            assert report.outside_mask_iou < 1.0
            assert report.inside_mask_match_fraction == 1.0


def test_empty_mask_empty_everything_reports_ones():
    s = make_sparse([], 8)
    merged, mask = voxel_merge(s, s)
    report = region_consistency(s, s, merged, mask)
    assert report.ok()
    assert report.diff_size == 0
