"""Independent reference implementations used to check the library.

Everything here is deliberately written the slow, obvious way and shares
no code with the package: dense brute force, BFS flood fill, scalar SAT,
quadratic scans, the per-triangle and per-voxel loops the mesh layer used
before it was vectorised, the batched SAT over every cell of each
triangle's bounding box that it ran before it pruned columns, the
one-array-per-component labelling the merge layer used before its flat
layout, the NVX codec that staged whole files in copied buffers before
the codec streamed its parts, the linear-index formula that built three
int64 temporaries, the Chamfer that queried every voxel on balanced
KD-trees, the ``np.unique`` canonicalization that ``make_sparse`` ran
before it deduplicated by sort and compare, the Slat-Merge that
gathered each side through a boolean row mask before it built its output
in one gather, the key-to-coords decode that stacked int64 divmod
results, the FlowEdit loop that drew each noise sample inline and
combined the velocities in fresh temporaries, and the dense grid and
per-component split that the library no longer provides.  The exceptions
are the pipeline sample that runs its stages in turn and the CLI commands
that read their inputs in turn: they orchestrate the package's own
merges, codec, records and command helpers, and are the references for
the order in which the concurrent ``run_sample`` and CLI commands report
them.
"""
from __future__ import annotations

import json
import struct
import zlib
from collections import deque
from pathlib import Path

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from voxedit.cli import _emit, _mask_report, _policy_from_args, _read_latent, _read_mask, _read_structure
from voxedit.errors import DimensionMismatch, NonFiniteState
from voxedit.merge import DEFAULT_CONNECTIVITY, Threshold, diff_xor, mask_all, slat_merge, voxel_merge
from voxedit.metrics import chamfer_voxels, occupancy_iou, region_consistency
from voxedit.nvx import write_nvx
from voxedit.pipeline import ManifestRecord, SampleSpec, derive_seed, record_to_line


def dense(s) -> np.ndarray:
    """Dense boolean occupancy grid ``(R, R, R)`` of a sparse structure."""
    grid = np.zeros((s.resolution,) * 3, dtype=bool)
    grid[s.coords[:, 0], s.coords[:, 1], s.coords[:, 2]] = True
    return grid


def split_components(cs) -> tuple:
    """One ``(N_j, 3)`` array per component of a ``ComponentSet``, in
    canonical order, each in linear order."""
    if not cs.sizes:
        return ()
    grouped = cs.coords[np.argsort(cs.rank, kind="stable")]
    return tuple(np.split(grouped, np.cumsum(cs.sizes)[:-1]))


def dense_xor(grid_a: np.ndarray, grid_b: np.ndarray) -> np.ndarray:
    return grid_a ^ grid_b


def neighbor_offsets(connectivity: int) -> list[tuple[int, int, int]]:
    offs = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                if dx == dy == dz == 0:
                    continue
                order = abs(dx) + abs(dy) + abs(dz)
                if connectivity == 6 and order > 1:
                    continue
                if connectivity == 18 and order > 2:
                    continue
                offs.append((dx, dy, dz))
    return offs


def bfs_components(coords: np.ndarray, resolution: int, connectivity: int) -> list[frozenset]:
    """Flood-fill decomposition; returns components as frozensets of
    (x, y, z) tuples, in no particular order."""
    todo = {tuple(int(v) for v in c) for c in coords}
    offs = neighbor_offsets(connectivity)
    out = []
    remaining = set(todo)
    while remaining:
        seed = min(remaining)
        queue = deque([seed])
        remaining.discard(seed)
        comp = {seed}
        while queue:
            x, y, z = queue.popleft()
            for dx, dy, dz in offs:
                n = (x + dx, y + dy, z + dz)
                if n in remaining:
                    remaining.discard(n)
                    comp.add(n)
                    queue.append(n)
        out.append(frozenset(comp))
    return out


def canonical_component_order(components: list[frozenset], resolution: int) -> list[frozenset]:
    """Size descending, then smallest member linear index ascending."""
    def min_lin(comp):
        return min(x * resolution * resolution + y * resolution + z for x, y, z in comp)

    return sorted(components, key=lambda c: (-len(c), min_lin(c)))


def label_components_sorted(coords: np.ndarray, resolution: int, connectivity: int) -> list[np.ndarray]:
    """Labelling on the full dense R^3 grid, one array per component, ranked
    with ``sorted`` by (size descending, smallest linear index ascending).
    ``coords`` must be sorted by linear index; so is each returned array."""
    if len(coords) == 0:
        return []
    grid = np.zeros((resolution,) * 3, dtype=bool)
    grid[coords[:, 0], coords[:, 1], coords[:, 2]] = True
    rank = {6: 1, 18: 2, 26: 3}[connectivity]
    labeled, n_labels = ndimage.label(grid, structure=ndimage.generate_binary_structure(3, rank))
    labels = labeled[coords[:, 0], coords[:, 1], coords[:, 2]]
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels, minlength=n_labels + 1)[1:]
    starts = np.concatenate([[0], np.cumsum(sizes)])
    pieces = [coords[order[starts[j]:starts[j + 1]]] for j in range(n_labels)]
    lin = _linear(coords, resolution)
    first_lin = [int(lin[order[starts[j]]]) for j in range(n_labels)]
    ranked = sorted(range(n_labels), key=lambda j: (-int(sizes[j]), first_lin[j]))
    return [np.ascontiguousarray(pieces[j]) for j in ranked]


def select_components_concat(components: list[np.ndarray], resolution: int, policy) -> tuple[np.ndarray, tuple]:
    """Mask coords (sorted by linear index) and selected sizes for a
    ``TopK``/``Threshold`` policy, read through its ``describe()``: the
    chosen arrays are concatenated and sorted again."""
    spec = policy.describe()
    if spec["kind"] == "top_k":
        chosen = components[: spec["k"]]
    else:
        chosen = [c for c in components if c.shape[0] > spec["tau"]]
    coords = np.empty((0, 3), dtype=np.uint16)
    if chosen:
        lin = np.sort(_linear(np.concatenate(chosen, axis=0), resolution))
        x, rem = np.divmod(lin, resolution * resolution)
        y, z = np.divmod(rem, resolution)
        coords = np.stack([x, y, z], axis=1).astype(np.uint16)
    return coords, tuple(int(c.shape[0]) for c in chosen)


def _linear(coords: np.ndarray, resolution: int) -> np.ndarray:
    c = coords.astype(np.int64)
    return (c[:, 0] * resolution + c[:, 1]) * resolution + c[:, 2]


def linear_index_formula(coords, resolution: int) -> np.ndarray:
    """``x*R^2 + y*R + z`` on an int64 copy of the coords."""
    c = np.asarray(coords, dtype=np.int64)
    r = int(resolution)
    return c[:, 0] * r * r + c[:, 1] * r + c[:, 2]


def coords_from_linear_stack(lin, resolution: int) -> np.ndarray:
    """Uint16 ``(N, 3)`` coords of int64 linear keys, through four int64
    divmod results and an int64 stack."""
    lin = np.asarray(lin, dtype=np.int64)
    r = int(resolution)
    x, rem = np.divmod(lin, r * r)
    y, z = np.divmod(rem, r)
    return np.stack([x, y, z], axis=1).astype(np.uint16)


def make_sparse_unique(coords, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical ``(uint16 coords, int64 linear keys)`` of in-range integer
    coords, deduplicated by ``np.unique``."""
    r = int(resolution)
    lin = np.unique(linear_index_formula(np.asarray(coords, dtype=np.int64).reshape(-1, 3), r))
    x, rem = np.divmod(lin, r * r)
    y, z = np.divmod(rem, r)
    return np.stack([x, y, z], axis=1).astype(np.uint16), lin


def merge_oracle(src_grid: np.ndarray, tgt_grid: np.ndarray, mask_grid: np.ndarray) -> np.ndarray:
    """Per-voxel rule: inside the mask take target occupancy, outside keep source."""
    return np.where(mask_grid, tgt_grid, src_grid)


def tri_box_overlap_scalar(tri, box_lo, box_hi) -> bool:
    """Separating-axis triangle/AABB test, scalar arithmetic throughout."""
    cx = [(box_lo[i] + box_hi[i]) / 2.0 for i in range(3)]
    hx = [(box_hi[i] - box_lo[i]) / 2.0 for i in range(3)]
    v = [[tri[j][i] - cx[i] for i in range(3)] for j in range(3)]

    def cross(a, b):
        return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])

    def sub(a, b):
        return (a[0] - b[0], a[1] - b[1], a[2] - b[2])

    edges = [sub(v[1], v[0]), sub(v[2], v[1]), sub(v[0], v[2])]
    axes = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
    basis = axes[:]
    for e in edges:
        for u in basis:
            axes.append(cross(u, e))
    axes.append(cross(edges[0], edges[1]))

    for a in axes:
        r = hx[0] * abs(a[0]) + hx[1] * abs(a[1]) + hx[2] * abs(a[2])
        p = [v[j][0] * a[0] + v[j][1] * a[1] + v[j][2] * a[2] for j in range(3)]
        if min(p) > r or max(p) < -r:
            return False
    return True


def voxelize_brute_force(vertices, triangles, resolution, lo, hi) -> set:
    """Every cell against every triangle; the O(R^3 T) ground truth."""
    lo = [float(v) for v in lo]
    hi = [float(v) for v in hi]
    cell = [(hi[i] - lo[i]) / resolution for i in range(3)]
    occupied = set()
    for t in triangles:
        tri = [tuple(float(c) for c in vertices[j]) for j in t]
        for x in range(resolution):
            for y in range(resolution):
                for z in range(resolution):
                    if (x, y, z) in occupied:
                        continue
                    blo = (lo[0] + x * cell[0], lo[1] + y * cell[1], lo[2] + z * cell[2])
                    bhi = (blo[0] + cell[0], blo[1] + cell[1], blo[2] + cell[2])
                    if tri_box_overlap_scalar(tri, blo, bhi):
                        occupied.add((x, y, z))
    return occupied


def _triangle_cell_overlaps(tri: np.ndarray, centers: np.ndarray, half: np.ndarray) -> np.ndarray:
    """SAT of one triangle against (M, 3) cell ``centers``, axis by axis."""
    e = np.array([tri[1] - tri[0], tri[2] - tri[1], tri[0] - tri[2]])
    axes = [np.cross(np.eye(3)[i], e[j]) for i in range(3) for j in range(3)]
    axes.extend(np.eye(3))
    axes.append(np.cross(e[0], e[1]))

    alive = np.ones(len(centers), dtype=bool)
    for axis in axes:
        r = float(np.dot(half, np.abs(axis)))
        p = tri @ axis                       # (3,) vertex projections
        c = centers[alive] @ axis            # per-cell center offset
        pmin = p.min() - c
        pmax = p.max() - c
        # strict inequality: touching is not separated
        separated = (pmin > r) | (pmax < -r)
        alive[np.nonzero(alive)[0][separated]] = False
        if not alive.any():
            break
    return alive


def voxelize_mesh_loop(vertices, triangles, resolution, lo, hi) -> set:
    """The per-triangle voxelization loop the library used before it
    batched the SAT.  Its candidate box starts at ``floor`` of the
    triangle's minimum, so a triangle whose minimum lies exactly on a cell
    boundary misses the cell it touches from below; compare with it only
    on meshes that touch no boundary exactly."""
    vertices = np.asarray(vertices, dtype=np.float64)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    cell = (hi - lo) / resolution
    half = cell / 2.0
    occupied = set()
    for tri_idx in triangles:
        tri = vertices[list(tri_idx)]
        tmin = np.clip(np.floor((tri.min(axis=0) - lo) / cell).astype(np.int64), 0, resolution - 1)
        tmax = np.clip(np.floor((tri.max(axis=0) - lo) / cell).astype(np.int64), 0, resolution - 1)
        gx, gy, gz = np.meshgrid(*(np.arange(tmin[i], tmax[i] + 1) for i in range(3)), indexing="ij")
        idx = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
        hit = _triangle_cell_overlaps(tri, lo + (idx + 0.5) * cell, half)
        occupied.update(map(tuple, idx[hit].tolist()))
    return occupied


def voxelize_mesh_aabb(vertices, triangles, resolution, lo, hi, chunk=1 << 16) -> np.ndarray:
    """The batched voxelization the library used before it pruned columns:
    every cell of each triangle's candidate box (from ``ceil - 1`` of its
    minimum, so the cell touched from below is kept) goes through the
    13-axis SAT, face normal first, in batches of ``chunk`` (triangle,
    cell) pairs.  Returns the (N, 3) int64 coords in linear-index order."""
    vertices = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
    tri = vertices[np.asarray(triangles, dtype=np.int64).reshape(-1, 3)]
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    cell = (hi - lo) / resolution
    half = cell / 2.0
    tmin = np.clip(np.ceil((tri.min(axis=1) - lo) / cell).astype(np.int64) - 1, 0, resolution - 1)
    tmax = np.clip(np.floor((tri.max(axis=1) - lo) / cell).astype(np.int64), 0, resolution - 1)
    dims = tmax - tmin + 1
    offsets = np.concatenate([[0], np.cumsum(np.prod(dims, axis=1))])

    e = (tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 1], tri[:, 0] - tri[:, 2])
    zero = np.zeros(len(tri))
    axes = [np.cross(e[0], e[1])]
    for ex, ey, ez in ((ej[:, 0], ej[:, 1], ej[:, 2]) for ej in e):
        axes.append(np.stack([zero, -ez, ey], axis=1))
        axes.append(np.stack([ez, zero, -ex], axis=1))
        axes.append(np.stack([-ey, ex, zero], axis=1))
    axes.extend(np.broadcast_to(unit, (len(tri), 3)) for unit in np.eye(3))
    axes = np.stack(axes)
    ax, ay, az = axes[..., 0], axes[..., 1], axes[..., 2]
    proj = tri[None, :, :, 0] * ax[..., None] + tri[None, :, :, 1] * ay[..., None] \
        + tri[None, :, :, 2] * az[..., None]
    pmin, pmax = proj.min(axis=2), proj.max(axis=2)
    rad = half[0] * np.abs(ax) + half[1] * np.abs(ay) + half[2] * np.abs(az)

    r2 = resolution * resolution
    hits = [np.empty(0, dtype=np.int64)]
    for start in range(0, int(offsets[-1]), chunk):
        pair = np.arange(start, min(start + chunk, int(offsets[-1])), dtype=np.int64)
        t = np.searchsorted(offsets, pair, side="right") - 1
        local = pair - offsets[t]
        d = dims[t]
        ix, rem = np.divmod(local, d[:, 1] * d[:, 2])
        iy, iz = np.divmod(rem, d[:, 2])
        ix += tmin[t, 0]
        iy += tmin[t, 1]
        iz += tmin[t, 2]
        cx = lo[0] + (ix + 0.5) * cell[0]
        cy = lo[1] + (iy + 0.5) * cell[1]
        cz = lo[2] + (iz + 0.5) * cell[2]
        lin = ix * r2 + iy * resolution + iz
        for k in range(len(axes)):
            c = cx * ax[k, t] + cy * ay[k, t] + cz * az[k, t]
            r = rad[k, t]
            keep = ~((pmin[k, t] - c > r) | (pmax[k, t] - c < -r))
            t, cx, cy, cz, lin = t[keep], cx[keep], cy[keep], cz[keep], lin[keep]
            if not len(t):
                break
        hits.append(np.unique(lin))
    lin = np.unique(np.concatenate(hits))
    x, rem = np.divmod(lin, r2)
    y, z = np.divmod(rem, resolution)
    return np.stack([x, y, z], axis=1)


# Quad corner offsets per face direction, wound counter-clockwise viewed
# from outside the cube.
_CUBE_FACES = {
    (1, 0, 0): ((1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)),
    (-1, 0, 0): ((0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 0)),
    (0, 1, 0): ((0, 1, 0), (0, 1, 1), (1, 1, 1), (1, 1, 0)),
    (0, -1, 0): ((0, 0, 0), (1, 0, 0), (1, 0, 1), (0, 0, 1)),
    (0, 0, 1): ((0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)),
    (0, 0, -1): ((0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 0)),
}


def surface_mesh_loop(coords, resolution):
    """Per-voxel, per-face surface extraction: for each voxel in the given
    order and each face direction, an exposed face adds two triangles, and
    corners are numbered by first use.  Returns (vertices, triangles)."""
    r = int(resolution)
    occ = {tuple(int(v) for v in c) for c in coords}
    vert_ids: dict[tuple[int, int, int], int] = {}
    verts: list[tuple[int, int, int]] = []
    tris: list[tuple[int, int, int]] = []

    def vid(p):
        if p not in vert_ids:
            vert_ids[p] = len(verts)
            verts.append(p)
        return vert_ids[p]

    for x, y, z in (tuple(int(v) for v in c) for c in coords):
        for (dx, dy, dz), quad in _CUBE_FACES.items():
            nx, ny, nz = x + dx, y + dy, z + dz
            if 0 <= nx < r and 0 <= ny < r and 0 <= nz < r and (nx, ny, nz) in occ:
                continue
            a, b, c, d = (vid((x + ox, y + oy, z + oz)) for ox, oy, oz in quad)
            tris.append((a, b, c))
            tris.append((a, c, d))
    vertices = np.array(verts, dtype=np.float64).reshape(-1, 3)
    triangles = np.array(tris, dtype=np.int64).reshape(-1, 3)
    return vertices, triangles


def save_obj_loop(vertices, triangles, path) -> None:
    """OBJ text export with one ``write`` per record."""
    with open(path, "w", encoding="utf-8") as fh:
        for v in vertices:
            fh.write(f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}\n")
        for t in triangles:
            fh.write(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}\n")


def chamfer_quadratic(a: np.ndarray, b: np.ndarray) -> float:
    """Full pairwise squared-distance scan, both directions."""
    d = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
    return float(np.mean(d.min(axis=1)) + np.mean(d.min(axis=0)))


def chamfer_kdtree(a: np.ndarray, b: np.ndarray) -> float:
    """Both directions queried in full on balanced KD-trees; squared
    distances taken from the coordinates of the neighbours found."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 3)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 3)
    _, idx_ab = cKDTree(b).query(a)
    _, idx_ba = cKDTree(a).query(b)
    sq_ab = np.sum((a - b[idx_ab]) ** 2, axis=1)
    sq_ba = np.sum((b - a[idx_ba]) ** 2, axis=1)
    return float(np.mean(sq_ab) + np.mean(sq_ba))


def chamfer_voxels_kdtree(coords_a: np.ndarray, coords_b: np.ndarray) -> float:
    """:func:`chamfer_kdtree` of the cell centres, in grid units."""
    return chamfer_kdtree(np.asarray(coords_a, dtype=np.float64) + 0.5,
                          np.asarray(coords_b, dtype=np.float64) + 0.5)


def snis_posterior_mean(z_star, t, mu, var, n_draws, seed):
    """Self-normalized importance-sampling estimate of E[x | z_t = z*]
    for z_t = (1-t) x + t eps, x ~ N(mu, var), eps ~ N(0, 1).

    Returns (estimate, standard_error), both scalars.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    x = mu + np.sqrt(var) * rng.standard_normal(n_draws)
    # likelihood of z* given x: N(z*; (1-t) x, t^2)
    logw = -0.5 * ((z_star - (1 - t) * x) / t) ** 2
    logw -= logw.max()
    w = np.exp(logw)
    est = float(np.sum(w * x) / np.sum(w))
    se = float(np.sqrt(np.sum(w**2 * (x - est) ** 2)) / np.sum(w))
    return est, se


def _guided_sequential(oracle, z, t, condition, scale):
    v_uncond = np.asarray(oracle.evaluate(z, t, condition, conditioned=False), dtype=np.float64)
    v_cond = np.asarray(oracle.evaluate(z, t, condition, conditioned=True), dtype=np.float64)
    if v_uncond.shape != v_cond.shape:
        raise DimensionMismatch(f"{v_uncond.shape} vs {v_cond.shape}")
    return v_uncond + scale * (v_cond - v_uncond)


def _require_finite_sequential(z, where):
    if not np.isfinite(z).all():
        raise NonFiniteState(f"non-finite state at {where}")


def flowedit_run_sequential(x_src, src_condition, tgt_condition, oracle, config, on_step=None):
    """``flowedit_run`` with every noise sample drawn inline, on the calling
    thread, and every velocity combination made in new arrays."""
    x_src = np.asarray(x_src, dtype=np.float64).reshape(-1)
    _require_finite_sequential(x_src, "source state")
    ts = np.arange(config.steps + 1, dtype=np.float64) / config.steps
    z = x_src.copy()

    for i in range(config.n_max, config.n_min, -1):
        t = ts[i]
        acc = np.zeros_like(z)
        for k in range(config.n_avg):
            stream = np.random.Philox(key=config.rng_seed & (2**64 - 1), counter=[0, 0, i, k])
            eps = np.random.Generator(stream).standard_normal(z.shape[0])
            z_src = (1 - t) * x_src + t * eps
            z_tgt = z + z_src - x_src
            v_tgt = _guided_sequential(oracle, z_tgt, t, tgt_condition, config.cfg_target_scale)
            v_src = _guided_sequential(oracle, z_src, t, src_condition, config.cfg_source_scale)
            acc += v_tgt - config.lambda_src * v_src
        dv = acc / config.n_avg
        z = z + (ts[i - 1] - t) * dv
        _require_finite_sequential(z, f"edit step {i} (t={t:.6g})")
        if on_step is not None:
            on_step({"step": i, "t": t, "dv_norm": float(np.linalg.norm(dv)), "z_norm": float(np.linalg.norm(z))})

    for i in range(config.n_min, 0, -1):
        t = ts[i]
        v = _guided_sequential(oracle, z, t, tgt_condition, config.cfg_target_scale)
        z = z + (ts[i - 1] - t) * v
        _require_finite_sequential(z, f"plain step {i} (t={t:.6g})")
        if on_step is not None:
            on_step({"step": i, "t": t, "dv_norm": float(np.linalg.norm(v)), "z_norm": float(np.linalg.norm(z))})

    return z


def random_structure_coords(rng, resolution, density) -> np.ndarray:
    """Unique random coords covering about ``density`` of the grid."""
    total = resolution**3
    n = max(1, int(round(density * total)))
    lin = rng.choice(total, size=n, replace=False)
    x, rem = np.divmod(lin, resolution * resolution)
    y, z = np.divmod(rem, resolution)
    return np.stack([x, y, z], axis=1)


def encode_nvx_staged(resolution: int, coords: np.ndarray, latents: np.ndarray | None = None) -> bytes:
    """The NVX encoder before streaming: the whole file in one bytearray,
    copied once for the CRC and again to return it.  ``latents is None``
    writes the occupancy kind (0), anything else the latent kind (1)."""
    kind = 0 if latents is None else 1
    buf = bytearray(b"NVX1")
    buf += struct.pack("<BHI", kind, resolution, len(coords))
    if kind == 1:
        buf += struct.pack("<H", latents.shape[1])
    buf += np.ascontiguousarray(coords, dtype="<u2").tobytes()
    if kind == 1:
        buf += np.ascontiguousarray(latents, dtype="<f4").tobytes()
    buf += struct.pack("<I", zlib.crc32(bytes(buf)))
    return bytes(buf)


class NvxReject(Exception):
    """Raised by :func:`decode_nvx_copying`: ``args`` are the name of the
    library's error type for the defect and its message."""


def decode_nvx_copying(data: bytes) -> tuple:
    """The NVX decoder before zero-copy views, with the same checks in the
    same order.  Returns ``(kind, resolution, coords, latents)`` as fresh
    arrays (``latents`` is None for occupancy); raises :class:`NvxReject`."""
    if len(data) < 4:
        raise NvxReject("TruncatedFile", f"{len(data)} bytes is too short for a header")
    if data[:4] != b"NVX1":
        if data[:3] == b"NVX":
            raise NvxReject("UnsupportedVersion", f"unsupported format version {data[3:4]!r}")
        raise NvxReject("BadMagic", f"bad magic {data[:4]!r}")
    if len(data) < 4 + 7 + 4:
        raise NvxReject("TruncatedFile", f"{len(data)} bytes is too short for a header")
    kind, resolution, count = struct.unpack_from("<BHI", data, 4)
    offset = 4 + 7
    if kind == 1:
        if len(data) < offset + 2 + 4:
            raise NvxReject("TruncatedFile", "file ends inside the channel field")
        (channels,) = struct.unpack_from("<H", data, offset)
        offset += 2
        payload_size = count * 3 * 2 + count * channels * 4
    elif kind == 0:
        channels = None
        payload_size = count * 3 * 2
    else:
        raise NvxReject("MalformedNvx", f"unknown payload kind {kind}")
    expected = offset + payload_size + 4
    if len(data) < expected:
        raise NvxReject("TruncatedFile", f"expected {expected} bytes, got {len(data)}")
    if len(data) > expected:
        raise NvxReject("MalformedNvx", f"{len(data) - expected} trailing bytes after checksum")
    (stored_crc,) = struct.unpack_from("<I", data, expected - 4)
    if zlib.crc32(data[: expected - 4]) != stored_crc:
        raise NvxReject("ChecksumMismatch", "payload does not match stored CRC32")
    coords = np.frombuffer(data, dtype="<u2", count=count * 3, offset=offset)
    coords = coords.reshape(count, 3).astype(np.uint16)
    if count and int(coords.max()) >= resolution:
        raise NvxReject("MalformedNvx", "coordinate out of bounds for stored resolution")
    lin = _linear(coords, resolution)
    if count > 1 and not (np.diff(lin) > 0).all():
        raise NvxReject("MalformedNvx", "coords not in canonical linear-index order")
    if resolution < 2:
        raise NvxReject("MalformedNvx", f"resolution {resolution} below minimum")
    if kind == 0:
        return kind, resolution, coords, None
    if channels < 1:
        raise NvxReject("MalformedNvx", "latent channel count must be >= 1")
    lat = np.frombuffer(data, dtype="<f4", count=count * channels, offset=offset + count * 3 * 2)
    lat = np.ascontiguousarray(lat.reshape(count, channels))
    if not np.isfinite(lat).all():
        raise NvxReject("MalformedNvx", "non-finite latent values")
    return kind, resolution, coords, lat


class LatentReject(Exception):
    """Raised by :func:`slat_merge_masked`: ``args`` are the side that lacks
    a latent and the voxel, as the library's ``MissingLatent`` reports them."""


def slat_merge_masked(resolution: int, src_coords, src_lat, tgt_coords, tgt_lat, mask_coords, merged_coords):
    """The Slat-Merge before its one gather: a boolean in-mask row flag
    from three ``searchsorted`` lookups, then each side gathered through
    it into a preallocated output.  Coords are sorted and unique; returns
    the merged latents or raises :class:`LatentReject` for the first
    missing voxel in linear order, target side first."""
    out_lin = _linear(np.asarray(merged_coords).reshape(-1, 3), resolution)

    def member(keys, query):
        if len(keys) == 0:
            return np.zeros(len(query), dtype=bool), np.zeros(len(query), dtype=np.int64)
        pos = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
        return keys[pos] == query, pos

    in_mask, _ = member(_linear(np.asarray(mask_coords).reshape(-1, 3), resolution), out_lin)

    def gather(coords, lat, wanted, side):
        found, pos = member(_linear(np.asarray(coords).reshape(-1, 3), resolution), wanted)
        if not np.all(found):
            x, rem = divmod(int(wanted[~found][0]), resolution * resolution)
            raise LatentReject(side, (x, *divmod(rem, resolution)))
        return lat[pos]

    out = np.empty((len(out_lin), src_lat.shape[1]), dtype=src_lat.dtype)
    if in_mask.any():
        out[in_mask] = gather(tgt_coords, tgt_lat, out_lin[in_mask], "target")
    if (~in_mask).any():
        out[~in_mask] = gather(src_coords, src_lat, out_lin[~in_mask], "source")
    return out


def run_attempt_sequential(sample, backends, out_dir, policy, connectivity, attempt):
    """One pipeline attempt with every stage run in turn on the calling
    thread, as ``run_sample`` did before it overlapped its stages."""
    record = ManifestRecord(
        id=sample.id,
        status="failed",
        attempt=attempt,
        source_image=sample.image_ref,
        policy={**policy.describe(), "connectivity": connectivity},
    )
    stage = "instruction"
    try:
        instruction = backends.instruction.propose(
            sample.image_ref, derive_seed(sample.seed, attempt, "instruction"))
        record.instruction = instruction

        stage = "generate_source"
        s_src, z_src = backends.generator.generate(
            sample.image_ref, derive_seed(sample.seed, attempt, "generate_source"))

        stage = "image_edit"
        edited_ref = backends.image_editor.edit(
            sample.image_ref, instruction, derive_seed(sample.seed, attempt, "image_edit"))
        record.edited_image = edited_ref

        stage = "generate_target"
        s_tgt, z_tgt = backends.generator.generate(
            edited_ref, derive_seed(sample.seed, attempt, "generate_target"))

        stage = "voxel_merge"
        merged, mask = voxel_merge(s_src, s_tgt, connectivity, policy)

        stage = "slat_merge"
        merged_slat = slat_merge(z_src, z_tgt, mask, merged)

        stage = "write_artifacts"
        for name, suffix, payload in (
            ("source_structure", "src", s_src),
            ("edited_structure", "tgt", s_tgt),
            ("merged_structure", "merged", merged),
            ("source_slat", "src_slat", z_src),
            ("merged_slat", "merged_slat", merged_slat),
        ):
            path = f"{sample.id}.{suffix}.nvx"
            write_nvx(payload, out_dir / path)
            setattr(record, name, path)
        record.voxel_sum_src = s_src.voxel_sum
        record.voxel_sum_tgt = s_tgt.voxel_sum
        record.mask_component_sizes = list(mask.component_sizes)
        record.mask_selected_sizes = list(mask.selected_sizes)

        stage = "filter"
        accepted, reason = backends.quality_filter.judge(record)
        record.filter_reason = reason
        record.status = "ok" if accepted else "filtered"
    except Exception as exc:  # noqa: BLE001 - failures become records, not crashes
        record.status = "failed"
        record.error = f"{stage}: {type(exc).__name__}: {exc}"
    return record


def run_sample_sequential(sample, backends, out_dir, merge_policy=None, connectivity=DEFAULT_CONNECTIVITY,
                          max_attempts=1):
    """``run_sample`` with its attempts run by :func:`run_attempt_sequential`."""
    policy = Threshold() if merge_policy is None else merge_policy
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for attempt in range(1, max_attempts + 1):
        record = run_attempt_sequential(sample, backends, out_dir, policy, connectivity, attempt)
        if record.status != "filtered":
            break
    return record


def run_pipeline_sequential(out_dir, n_samples, backends, seed=0, max_attempts=1) -> Path:
    """``run_pipeline`` with mock image refs, one sample after another on
    the calling thread; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = out_dir / "manifest.jsonl"
    with open(manifest, "w", encoding="utf-8") as fh:
        for i in range(n_samples):
            spec = SampleSpec(id=f"sample-{i:06d}", image_ref=f"mock-image://{seed}/{i:06d}",
                              seed=derive_seed(seed, i))
            fh.write(record_to_line(run_sample_sequential(spec, backends, out_dir, max_attempts=max_attempts)))
    return manifest


# --- CLI commands that read their inputs in turn ------------------------------
# Each is the body of the command of the same name (``cmd_merge`` and so on)
# as it was before the commands read their inputs on two threads.


def cmd_diff_sequential(args) -> int:
    d = diff_xor(_read_structure(args.src), _read_structure(args.tgt))
    if args.out:
        write_nvx(d, args.out)
    _emit({"diff_size": d.voxel_sum, "out": str(args.out) if args.out else None})
    return 0


def cmd_merge_sequential(args) -> int:
    s_src = _read_structure(args.src)
    s_tgt = _read_structure(args.tgt)
    policy = _policy_from_args(args)
    merged, mask = voxel_merge(s_src, s_tgt, args.connectivity, policy)
    write_nvx(merged, args.out)
    if args.mask_out:
        report = json.dumps(_mask_report(mask, policy, args.connectivity), separators=(",", ":"))
        Path(args.mask_out).write_text(report + "\n", encoding="utf-8")
    _emit({
        "out": str(args.out),
        "mask_out": str(args.mask_out) if args.mask_out else None,
        "diff_size": sum(mask.component_sizes),
        "component_sizes": list(mask.component_sizes),
        "selected_sizes": list(mask.selected_sizes),
        "merged_voxel_sum": merged.voxel_sum,
    })
    return 0


def cmd_slat_merge_sequential(args) -> int:
    z_src = _read_latent(args.src_slat)
    z_tgt = _read_latent(args.tgt_slat)
    merged = _read_structure(args.merged)
    mask = mask_all(merged) if args.mask_all else _read_mask(args.mask)
    out = slat_merge(z_src, z_tgt, mask, merged)
    write_nvx(out, args.out)
    _emit({"out": str(args.out), "voxel_sum": out.voxel_sum, "channels": out.channels,
           "mask_size": mask.voxel_sum})
    return 0


def cmd_chamfer_sequential(args) -> int:
    a = _read_structure(args.a)
    b = _read_structure(args.b)
    _emit({"chamfer": chamfer_voxels(a, b), "iou": occupancy_iou(a, b)
           if a.resolution == b.resolution else None})
    return 0


def cmd_consistency_sequential(args) -> int:
    s_src = _read_structure(args.src)
    s_tgt = _read_structure(args.tgt)
    merged = _read_structure(args.merged)
    mask = _read_mask(args.mask)
    rep = region_consistency(s_src, s_tgt, merged, mask)
    _emit({"outside_mask_iou": rep.outside_mask_iou,
           "inside_mask_match_fraction": rep.inside_mask_match_fraction,
           "mask_size": rep.mask_size, "diff_size": rep.diff_size})
    return 0
