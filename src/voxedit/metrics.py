"""Desk-scale evaluation: Chamfer distance, occupancy IoU, and
region-consistency checks for merge outputs."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import EmptySet
from .grid import SparseStructure, membership, require_same_resolution
from .merge import FlipMask, diff_xor


def chamfer(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Chamfer distance: mean squared nearest-neighbor distance
    from a to b plus the same from b to a."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 3)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 3)
    if len(a) == 0 or len(b) == 0:
        raise EmptySet("chamfer distance needs two non-empty point sets")
    _, idx_ab = cKDTree(b).query(a)
    _, idx_ba = cKDTree(a).query(b)
    sq_ab = np.sum((a - b[idx_ab]) ** 2, axis=1)
    sq_ba = np.sum((b - a[idx_ba]) ** 2, axis=1)
    return float(np.mean(sq_ab) + np.mean(sq_ba))


def voxel_centers(s: SparseStructure) -> np.ndarray:
    """Cell centers in grid units, the point set used for voxel-level CD."""
    return s.coords.astype(np.float64) + 0.5


def chamfer_voxels(a: SparseStructure, b: SparseStructure) -> float:
    return chamfer(voxel_centers(a), voxel_centers(b))


def occupancy_iou(a: SparseStructure, b: SparseStructure) -> float:
    """Intersection over union of occupied cells; two empty sets give 1."""
    require_same_resolution(a, b)
    la, lb = a.linear(), b.linear()
    inter = len(np.intersect1d(la, lb, assume_unique=True))
    union = len(la) + len(lb) - inter
    return 1.0 if union == 0 else inter / union


@dataclass(frozen=True)
class ConsistencyReport:
    outside_mask_iou: float
    inside_mask_match_fraction: float
    mask_size: int
    diff_size: int

    def ok(self) -> bool:
        return self.outside_mask_iou == 1.0 and self.inside_mask_match_fraction == 1.0


def region_consistency(
    s_src: SparseStructure,
    s_tgt: SparseStructure,
    merged: SparseStructure,
    mask: FlipMask,
) -> ConsistencyReport:
    """Measure what a correct merge guarantees: outside the mask the merge
    equals the source, inside it the merge matches the target."""
    require_same_resolution(s_src, s_tgt, merged, mask)
    mask_lin = mask.linear()

    merged_out = np.setdiff1d(merged.linear(), mask_lin, assume_unique=True)
    src_out = np.setdiff1d(s_src.linear(), mask_lin, assume_unique=True)
    inter = len(np.intersect1d(merged_out, src_out, assume_unique=True))
    union = len(merged_out) + len(src_out) - inter
    outside_iou = 1.0 if union == 0 else inter / union

    if len(mask_lin) == 0:
        inside_fraction = 1.0
    else:
        in_merged, _ = membership(merged.linear(), mask_lin)
        in_tgt, _ = membership(s_tgt.linear(), mask_lin)
        inside_fraction = float(np.mean(in_merged == in_tgt))

    return ConsistencyReport(
        outside_mask_iou=outside_iou,
        inside_mask_match_fraction=inside_fraction,
        mask_size=mask.voxel_sum,
        diff_size=diff_xor(s_src, s_tgt).voxel_sum,
    )
