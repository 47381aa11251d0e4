"""Region-aware merging of an edited sparse structure into its source.

The stages compose left to right: XOR difference map, connectivity
decomposition and top-k or size-threshold selection, both set by one
policy, and a flip of the selected region onto the source occupancy.  The
same mask then drives the latent-level merge, so edited regions take the
target's latents and the rest keeps the source's bit for bit.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .errors import ChannelMismatch, MissingLatent
from .grid import (
    SparseStructure,
    StructuredLatent,
    check_int,
    coords_from_linear,
    membership,
    require_same_resolution,
    sparse_from_linear,
)

CONNECTIVITIES = (6, 18, 26)
DEFAULT_CONNECTIVITY = 26
DEFAULT_TAU = 100


def check_connectivity(connectivity) -> int:
    """``connectivity`` as an int, if it is one of ``CONNECTIVITIES``."""
    connectivity = check_int("connectivity", connectivity, None)
    if connectivity not in CONNECTIVITIES:
        raise ValueError(f"connectivity must be one of {CONNECTIVITIES}, got {connectivity}")
    return connectivity


# (dx, dy, slack) per forward row step: a run joins the runs of row
# (x + dx, y + dy) whose z-ranges overlap its own widened by the slack
_ROW_STEPS = {
    6: ((0, 1, 0), (1, 0, 0)),
    18: ((0, 1, 1), (1, 0, 1), (1, -1, 0), (1, 1, 0)),
    26: ((0, 1, 1), (1, 0, 1), (1, -1, 1), (1, 1, 1)),
}


@dataclass(frozen=True)
class TopK:
    k: int
    connectivity: int = DEFAULT_CONNECTIVITY

    def __post_init__(self):
        object.__setattr__(self, "k", check_int("k", self.k, 0))
        object.__setattr__(self, "connectivity", check_connectivity(self.connectivity))

    def describe(self) -> dict:
        return {"kind": "top_k", "k": self.k, "connectivity": self.connectivity}


@dataclass(frozen=True)
class Threshold:
    tau: int = DEFAULT_TAU
    connectivity: int = DEFAULT_CONNECTIVITY

    def __post_init__(self):
        object.__setattr__(self, "tau", check_int("tau", self.tau, 0))
        object.__setattr__(self, "connectivity", check_connectivity(self.connectivity))

    def describe(self) -> dict:
        return {"kind": "threshold", "tau": self.tau, "connectivity": self.connectivity}


def check_policy(policy):
    """``policy``, if it is a ``TopK`` or a ``Threshold``."""
    if not isinstance(policy, (TopK, Threshold)):
        raise TypeError(f"unknown selection policy {policy!r}")
    return policy


@dataclass(frozen=True, eq=False)
class ComponentSet:
    """Connectivity components of a difference map, largest first.

    Ties in size break toward the component whose smallest member linear
    index is smaller, so the ordering is a total one.
    """

    resolution: int
    connectivity: int
    coords: np.ndarray = field(repr=False)  # (N, 3) uint16: the labelled structure's, in linear order
    rank: np.ndarray = field(repr=False)    # (N,) canonical position of each voxel's component
    sizes: list  # of int, in canonical order


@dataclass(frozen=True, eq=False)
class FlipMask(SparseStructure):
    """Union of selected difference components; never splits a component.

    ``component_sizes`` lists every component of the difference map it was
    selected from, in canonical order; ``selected_sizes`` the chosen ones.
    Only :func:`select_components` builds one.  The mask consumers
    (:func:`apply_flip`, :func:`slat_merge`, ``region_consistency``) read
    its voxels alone, so any ``SparseStructure`` serves them as a mask.
    """

    selected_sizes: tuple
    component_sizes: tuple


def _xor_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.setxor1d(a, b, assume_unique=True)`` for sorted unique keys: the
    stable sort (timsort for int64) merges the two runs in linear time."""
    both = np.concatenate((a, b))
    both.sort(kind="stable")
    keep = np.ones(both.size + 1, dtype=bool)
    np.not_equal(both[1:], both[:-1], out=keep[1:-1])
    return both[keep[1:] & keep[:-1]]


def diff_xor(s_src: SparseStructure, s_tgt: SparseStructure) -> SparseStructure:
    """Difference map: cells whose occupancy differs between the inputs."""
    resolution = require_same_resolution(s_src, s_tgt)
    return sparse_from_linear(_xor_sorted(s_src.key, s_tgt.key), resolution)


def label_components(d: SparseStructure, connectivity: int = DEFAULT_CONNECTIVITY) -> ComponentSet:
    """Decompose a structure, usually a difference map, into connectivity
    components.

    Components come back ordered by size descending, then by smallest
    member linear index ascending; voxels within a component stay in
    canonical linear order.  Labelling works on maximal z-runs of the
    sorted key (run-based labelling, He, Chao & Suzuki, IEEE TIP 2008),
    joined by hooking and pointer jumping (Shiloach & Vishkin, 1982), so
    time and memory follow the voxel count, not the grid or the box.
    """
    connectivity = check_connectivity(connectivity)
    if d.voxel_sum == 0:
        return ComponentSet(d.resolution, connectivity, d.coords, np.empty(0, dtype=np.int64), [])

    r = d.resolution
    key = d.key
    # a run starts after a gap in the key or at z = 0 of a new (x, y) row
    starts = np.empty(len(key), dtype=bool)
    starts[0] = True
    np.not_equal(np.diff(key), 1, out=starts[1:])
    # z = 0 where the key is a multiple of R; floor division and a product,
    # not % or divmod (see grid.coords_from_linear)
    row = key // r  # x * R + y
    starts |= row * r == key
    row = row[starts]
    first = key[starts]
    lens = np.diff(np.flatnonzero(starts), append=len(key))
    last = first + (lens - 1)
    z0 = first - row * r
    x = row // r
    y = row - x * r
    z1 = z0 + (lens - 1)

    root = np.arange(len(first))
    for dx, dy, slack in _ROW_STEPS[connectivity]:
        # row ids are x * R + y, so (x, R - 1) + (0, 1) would land on (x + 1, 0)
        src = np.flatnonzero((x + dx < r) & (y + dy >= 0) & (y + dy < r))
        base = (row[src] + (dx * r + dy)) * r
        # the neighbour row's runs that overlap [z0 - slack, z1 + slack] are contiguous
        lo = np.searchsorted(last, base + np.maximum(z0[src] - slack, 0))
        hi = np.searchsorted(first, base + np.minimum(z1[src] + slack, r - 1), side="right")
        count = hi - lo
        u = np.repeat(src, count)
        v = np.arange(len(u)) + np.repeat(lo - (np.cumsum(count) - count), count)
        _union(root, u, v)

    is_root = root == np.arange(len(root))
    # a root is its component's smallest run, so components number in first-voxel order
    comp = (np.cumsum(is_root) - 1)[root]
    sizes = np.bincount(comp, weights=lens).astype(np.int64)
    canonical = np.argsort(-sizes, kind="stable")
    position = np.argsort(canonical)  # inverse permutation: component -> canonical position
    return ComponentSet(r, connectivity, d.coords, np.repeat(position[comp], lens), sizes[canonical].tolist())


def _union(root: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
    """Join the trees of every edge (u, v) in place.  ``root`` must map each
    node to its root on entry, and does again on return, with every root
    the smallest node of its tree."""
    while True:
        ru, rv = root[u], root[v]
        apart = ru != rv
        if not apart.any():
            return
        u, v, ru, rv = u[apart], v[apart], ru[apart], rv[apart]
        # hook each larger root onto the smallest root it meets
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root[:] = jumped


def select_components(cs: ComponentSet, policy) -> FlipMask:
    """Build the flip mask from whole components chosen by the policy; only its ``k`` or ``tau`` is read.

    ``TopK(k)`` takes the first k components in canonical order; a k past
    the component count takes them all.  ``Threshold(tau)`` takes every
    component strictly larger than tau voxels, ignoring small noisy
    regions.  Sizes descend, so either policy takes a prefix of the
    canonical order, and the prefix's voxels are already in linear order.
    """
    if isinstance(check_policy(policy), TopK):
        n = min(policy.k, len(cs.sizes))
    else:
        n = bisect_left(cs.sizes, -policy.tau, key=lambda s: -s)
    return FlipMask(
        resolution=cs.resolution,
        coords=cs.coords[cs.rank < n],
        selected_sizes=tuple(cs.sizes[:n]),
        component_sizes=tuple(cs.sizes),
    )


def apply_flip(s_src: SparseStructure, mask: SparseStructure) -> SparseStructure:
    """Toggle occupancy exactly at the mask coords; everywhere else the
    source is untouched."""
    resolution = require_same_resolution(s_src, mask)
    return sparse_from_linear(_xor_sorted(s_src.key, mask.key), resolution)


def voxel_merge(s_src: SparseStructure, s_tgt: SparseStructure, *,
                policy=Threshold()) -> tuple[SparseStructure, FlipMask]:
    """Transfer the significant edited regions of ``s_tgt`` onto ``s_src``.

    Returns the merged structure together with the flip mask so the same
    mask can drive the latent-level merge downstream.  The mask keeps the
    sizes of all difference components, so ``sum(mask.component_sizes)``
    is the size of the difference map.
    """
    d = diff_xor(s_src, s_tgt)
    cs = label_components(d, check_policy(policy).connectivity)
    mask = select_components(cs, policy)
    return apply_flip(s_src, mask), mask


def slat_merge(
    z_src: StructuredLatent,
    z_tgt: StructuredLatent,
    mask: SparseStructure,
    merged: SparseStructure,
) -> StructuredLatent:
    """Assemble the merged structure's latents: mask voxels copy the
    target's latent bit for bit, all others copy the source's."""
    resolution = require_same_resolution(z_src, z_tgt, mask, merged)
    if z_src.channels != z_tgt.channels:
        raise ChannelMismatch(f"source C={z_src.channels} vs target C={z_tgt.channels}")

    out_lin = merged.key
    # the mask rows, found from the mask side; mask voxels not in ``merged`` are ignored
    hit, rows = membership(out_lin, mask.key)
    rows = rows[hit]
    mask_lin = out_lin[rows]
    found, tgt_pos = membership(z_tgt.key, mask_lin)
    if not found.all():
        raise _missing(mask_lin, found, resolution, "target")
    # Every row outside the mask sits in both sorted key sets in the same
    # order, so one linear merge finds the few keys that only one side
    # holds, and only those and the mask rows are looked up.
    odd = _xor_sorted(z_src.key, out_lin)
    in_src, src_pos = membership(z_src.key, odd)
    lacking = odd[~in_src]  # merged rows the source lacks: each must be a mask row
    found = membership(mask_lin, lacking)[0]
    if not found.all():
        raise _missing(lacking, found, resolution, "source")
    # the source rows the outside rows copy, in order: all but those that
    # ``merged`` lacks and those that take the target's latent
    keep = np.ones(z_src.voxel_sum, dtype=bool)
    keep[src_pos[in_src]] = False
    found, pos = membership(z_src.key, mask_lin)
    keep[pos[found]] = False
    outside = np.ones(len(out_lin), dtype=bool)
    outside[rows] = False
    pos = np.zeros(len(out_lin), dtype=np.int64)
    pos[outside] = np.flatnonzero(keep)
    del keep, outside
    # one gather builds every row from the source, then the mask rows take the target's
    if z_src.voxel_sum:
        out = z_src.latents.take(pos, axis=0)
    else:  # every row is a mask row, and ``pos`` points into an empty array
        out = np.empty((len(out_lin), z_src.channels), dtype=z_src.latents.dtype)
    del pos  # an N-row index, freed before the target rows are gathered
    out[rows] = z_tgt.latents[tgt_pos]
    return StructuredLatent(resolution=resolution, coords=merged.coords, latents=out, key=out_lin)


def _missing(lin: np.ndarray, found: np.ndarray, resolution: int, side: str) -> MissingLatent:
    """The error for the first key of ``lin`` (in linear order) not ``found``."""
    i = int(np.argmin(found))
    return MissingLatent(coords_from_linear(lin[i:i + 1], resolution)[0], side)
