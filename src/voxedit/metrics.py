"""Desk-scale evaluation: Chamfer distance, occupancy IoU, and
region-consistency checks for merge outputs."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySet
from .grid import SparseStructure, linear_index, membership, require_same_resolution
from .merge import diff_xor


def _nn_sq(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared distance from each point of ``p`` to its nearest neighbour in
    ``q``, taken from the coordinates rather than the tree's distances."""
    # scipy loads on the first query, not with the package
    from scipy.spatial import cKDTree

    # an unbalanced tree builds in half the time and its queries stay exact
    _, idx = cKDTree(q, balanced_tree=False, compact_nodes=False).query(p)
    return np.sum((p - q[idx]) ** 2, axis=1)


def chamfer(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Chamfer distance: mean squared nearest-neighbor distance
    from a to b plus the same from b to a."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 3)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 3)
    if len(a) == 0 or len(b) == 0:
        raise EmptySet("chamfer distance needs two non-empty point sets")
    return float(np.mean(_nn_sq(a, b)) + np.mean(_nn_sq(b, a)))


def voxel_centers(s: SparseStructure) -> np.ndarray:
    """Cell centers in grid units, the point set used for voxel-level CD."""
    return s.coords.astype(np.float64) + 0.5


def chamfer_voxels(a: SparseStructure, b: SparseStructure) -> float:
    """:func:`chamfer` of the cell centers, in grid units even when the
    resolutions differ.  A cell both sides hold is its own nearest
    neighbour at exactly 0, so only the unshared cells are queried."""
    if a.voxel_sum == 0 or b.voxel_sum == 0:
        raise EmptySet("chamfer distance needs two non-empty point sets")
    if a.resolution == b.resolution:
        la, lb = a.key, b.key
    else:
        # x-major order is the same in any radix above every coordinate
        r = max(a.resolution, b.resolution)
        la, lb = linear_index(a.coords, r), linear_index(b.coords, r)
    ca, cb = voxel_centers(a), voxel_centers(b)
    return float(np.mean(_unshared_nn_sq(ca, cb, la, lb)) + np.mean(_unshared_nn_sq(cb, ca, lb, la)))


def _unshared_nn_sq(p: np.ndarray, q: np.ndarray, lp: np.ndarray, lq: np.ndarray) -> np.ndarray:
    """:func:`_nn_sq` of cell centers ``p`` against ``q`` (sorted keys ``lp``
    and ``lq``), querying only the cells of ``p`` that ``q`` lacks."""
    own = ~membership(lq, lp)[0]
    sq = np.zeros(len(p))
    if own.any():
        sq[own] = _nn_sq(p[own], q)
    return sq


def occupancy_iou(a: SparseStructure, b: SparseStructure) -> float:
    """Intersection over union of occupied cells; two empty sets give 1."""
    require_same_resolution(a, b)
    inter = _shared(a.key, b.key)
    union = a.voxel_sum + b.voxel_sum - inter
    return 1.0 if union == 0 else inter / union


def _shared(la: np.ndarray, lb: np.ndarray) -> int:
    """Size of the intersection of two sorted key sets."""
    return int(np.count_nonzero(membership(lb, la)[0]))


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
    mask: SparseStructure,
) -> ConsistencyReport:
    """Measure what a correct merge guarantees: outside the mask the merge
    equals the source, inside it the merge matches the target."""
    require_same_resolution(s_src, s_tgt, merged, mask)
    mask_lin, merged_lin, src_lin = mask.key, merged.key, s_src.key

    # IoU of the merged and source cells that lie outside the mask
    merged_out = ~membership(mask_lin, merged_lin)[0]
    inter = int(np.count_nonzero(merged_out & membership(src_lin, merged_lin)[0]))
    src_out = len(src_lin) - _shared(mask_lin, src_lin)
    union = int(np.count_nonzero(merged_out)) + src_out - inter
    outside_iou = 1.0 if union == 0 else inter / union

    if len(mask_lin) == 0:
        inside_fraction = 1.0
    else:
        in_merged, _ = membership(merged_lin, mask_lin)
        in_tgt, _ = membership(s_tgt.key, mask_lin)
        inside_fraction = float(np.mean(in_merged == in_tgt))

    return ConsistencyReport(
        outside_mask_iou=outside_iou,
        inside_mask_match_fraction=inside_fraction,
        mask_size=mask.voxel_sum,
        diff_size=diff_xor(s_src, s_tgt).voxel_sum,
    )
