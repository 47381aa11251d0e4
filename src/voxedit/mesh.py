"""Triangle meshes: conservative voxelization and cube-face surface export.

Voxelization is surface-only: a cell is occupied iff at least one triangle
intersects the cell's closed axis-aligned box, decided by the separating
axis test over the 13 candidate axes (3 box normals, 1 face normal, 9
edge cross products; Akenine-Moller, "Fast 3D Triangle-Box Overlap
Testing", JGT 2001).  Touching counts as intersecting, which keeps the
result conservative and deterministic on cell boundaries: a triangle whose
lowest coordinate lies exactly on a cell boundary also occupies the cell
below it.  Bounds and the vertices that triangles use must be finite.

The 3 box normals are folded into each triangle's candidate box: per axis
it runs from ``ceil - 1`` of the triangle's minimum to ``floor`` of its
maximum, then each end moves inward past the cells the box-normal test
rejects, evaluated with that test's own float expression.  The SAT proper
then runs the other 10 axes, and for an edge axis it adds only the two
products that can be non-zero.  A triangle's candidate cells come from the
column depth range of Schwarz & Seidel ("Fast Parallel Surface and Solid
Voxelization on GPUs", SIGGRAPH Asia 2010): the columns of its candidate
box run along the dominant axis of the face normal, and each keeps only
the cells whose centres can pass the face-normal slab test, widened by one
cell on each side for rounding.  That makes O(R^2) candidates per
triangle, where the box of a triangle spanning the grid holds O(R^3)
cells.  Pruning drops only cells the SAT's face-normal axis rejects, so
the result equals the 13-axis SAT over the whole ``ceil - 1`` / ``floor``
box.  Triangles are taken in three groups by that dominant axis, so within
a group a pair's cell is a fixed permutation of (column u, column v,
depth), and each column's depth range is expanded into pairs by
``np.repeat``.  Columns and (triangle, cell) pairs are both taken in
chunks of a fixed size, so memory stays bounded even for one triangle that
spans the grid.  Per-triangle SAT quantities are gathered into the pairs
with ``take`` from contiguous rows.  Where the arithmetic is exact (unit
bounds, a power-of-two R, vertices on multiples of half a cell) the result
equals the scalar brute force in ``tests/oracles.py``; elsewhere a cell
that a triangle touches exactly may fall either way, by rounding.

Surface export finds every exposed face in one pass over the three axes:
a lookup of the key shifted by one x or y step finds both faces a pair of
x or y neighbours share, and along z, where neighbours are adjacent in
the sorted key, a comparison of consecutive keys does.  Each face's four
corners get integer keys, a per-voxel base key plus a per-direction
offset.  One in-place sort of each key shifted left past its position
bits, ORed with its position, groups equal corners with their positions
ascending, so each group's first element is the corner's first use,
which numbers the vertices; a stable argsort of the keys takes over when
the packed value would not fit in 63 bits.  ``save_obj`` writes the same
bytes as one ``%.9g`` / ``%d`` record per line, through one record writer
that gathers each line's fields from a table built per call and drops the
padding with one boolean mask.  The vertex table holds one row per
distinct float64 bit pattern, formatted once with ``%.9g``; the face table
holds the digits of every index 1..V at the width of V.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyBounds, NonFiniteGeometry
from .grid import SparseStructure, _run_starts, _sorted_unique, check_resolution, membership, sparse_from_linear

BOUNDS_MARGIN = 1e-6


@dataclass(frozen=True)
class TriMesh:
    vertices: np.ndarray = field(repr=False)   # (V, 3) float64
    triangles: np.ndarray = field(repr=False)  # (T, 3) int64 indices into vertices

    def __post_init__(self):
        v, t = self.vertices, self.triangles
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValueError(f"vertices must have shape (V, 3), got {v.shape}")
        if t.ndim != 2 or t.shape[1] != 3 or not np.issubdtype(t.dtype, np.integer):
            raise ValueError(f"triangles must be integer indices of shape (T, 3), got {t.dtype} {t.shape}")
        if t.size and (t.min() < 0 or t.max() >= len(v)):
            raise ValueError("triangle index out of range")
        v.setflags(write=False)
        t.setflags(write=False)

    @property
    def num_vertices(self) -> int:
        return int(self.vertices.shape[0])

    @property
    def num_triangles(self) -> int:
        return int(self.triangles.shape[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, TriMesh):
            return NotImplemented
        return np.array_equal(self.vertices, other.vertices) and np.array_equal(
            self.triangles, other.triangles
        )


def make_mesh(vertices, triangles) -> TriMesh:
    return TriMesh(vertices=np.asarray(vertices, dtype=np.float64).reshape(-1, 3),
                   triangles=np.asarray(triangles, dtype=np.int64).reshape(-1, 3))


# (triangle, candidate cell) pairs tested per SAT batch, and columns
# walked per batch; bounds the working memory whatever the size of one
# triangle's candidate box.
_SAT_CHUNK = 1 << 16

# OBJ records formatted and written per ``write`` call.
_OBJ_BATCH = 4096


def _sat_axes(tri: np.ndarray) -> np.ndarray:
    """The 10 separating-axis candidates of each triangle, ``(10, T, 3)``:
    the face normal first (it rejects most candidate cells), then the 9
    box-normal x edge cross products.  The 3 box normals are folded into
    the candidate box (``_candidate_box``)."""
    e = (tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 1], tri[:, 0] - tri[:, 2])
    zero = np.zeros(len(tri))
    axes = [np.cross(e[0], e[1])]
    for ex, ey, ez in ((ej[:, 0], ej[:, 1], ej[:, 2]) for ej in e):
        axes.append(np.stack([zero, -ez, ey], axis=1))  # x-hat cross e
        axes.append(np.stack([ez, zero, -ex], axis=1))  # y-hat cross e
        axes.append(np.stack([-ey, ex, zero], axis=1))  # z-hat cross e
    return np.stack(axes)


# The components of each ``_sat_axes`` axis that can be non-zero: all three
# for the face normal, and the two besides the box normal's for each edge
# axis.  A zero component adds an exact zero to the projection, so leaving
# it out changes no bit that a comparison reads.
_AXIS_TERMS = ((0, 1, 2),) + ((1, 2), (0, 2), (0, 1)) * 3


def _candidate_box(tri, lo, cell, resolution):
    """``(tmin, tmax)``, each ``(T, 3)`` int64: per axis, the first and last
    cell whose closed box can touch each triangle's AABB, an empty range
    where ``tmin > tmax``.

    The box starts from ``ceil - 1`` of the minimum, which keeps the cell
    touched from below, and ``floor`` of the maximum, clipped to the grid.
    Then each end moves inward past the cells that the box-normal SAT axis
    rejects, by the very expression that test uses (``pmin - c > r`` or
    ``pmax - c < -r`` at ``c = lo + (i + 0.5) * cell``).  Both sides are
    monotone in ``i``, so the cells left are exactly those of the box that
    the three box-normal axes keep."""
    pmin, pmax = tri.min(axis=1), tri.max(axis=1)
    half = cell / 2.0
    # clip before the cast, which is undefined for huge floats
    tmin = np.clip(np.ceil((pmin - lo) / cell) - 1, 0, resolution - 1).astype(np.int64)
    tmax = np.clip(np.floor((pmax - lo) / cell), 0, resolution - 1).astype(np.int64)
    while True:
        step = (tmin <= tmax) & (pmin - (lo + (tmin + 0.5) * cell) > half)
        if not step.any():
            break
        tmin += step
    while True:
        step = (tmax >= tmin) & (pmax - (lo + (tmax + 0.5) * cell) < -half)
        if not step.any():
            break
        tmax -= step
    return tmin, tmax


def _candidate_pairs(tri, lo, cell, resolution, normal, slab_lo, slab_hi):
    """The (triangle, cell) pairs worth a SAT, as ``(t, ix, iy, iz)`` int64
    batches of at most ``_SAT_CHUNK`` pairs; within the triangles of one
    dominant axis, ordered by triangle, column, depth.

    A triangle's candidate box (``_candidate_box``) holds every cell whose
    closed box can touch its AABB; an empty box gives no pairs.  Its
    columns run along the dominant axis ``w`` of its face normal ``n``;
    each keeps the ``w``-range of cells whose centres ``c`` can satisfy
    ``slab_lo <= n.c <= slab_hi``, widened by one cell on each side for
    rounding and clipped to the box.  A normal that gives no such
    range (zero, non-finite, or so small that ``n.c`` underflows) keeps
    the whole column.  Columns, too, are taken ``_SAT_CHUNK`` at a time."""
    rows = np.arange(len(tri))
    tmin, tmax = _candidate_box(tri, lo, cell, resolution)
    nonempty = (tmin <= tmax).all(axis=1)
    w = np.argmax(np.abs(normal), axis=1)
    u, v = (w + 1) % 3, (w + 2) % 3  # (u, v, w) is a rotation of (x, y, z)
    step = normal * cell  # change of n.c per cell along each axis
    sw = step[rows, w]
    prune = np.isfinite(step).all(axis=1) & np.isfinite(slab_lo) & np.isfinite(slab_hi) \
        & (np.abs(sw) > 1e-290)
    # The centres of column (iu, iv) cross the plane n.c = d at the w-index
    # (d - n.c0) / sw - gu * iu - gv * iv, c0 being the centre of cell
    # (0, 0, 0); an unpruned triangle gets the range (-inf, inf).
    sw = np.where(prune, sw, 1.0)
    n_c0 = np.where(prune[:, None], normal, 0.0) @ (lo + cell / 2)
    x0 = np.where(prune, (slab_lo - n_c0) / sw, -np.inf)
    x1 = np.where(prune, (slab_hi - n_c0) / sw, np.inf)
    x0, x1 = np.minimum(x0, x1), np.maximum(x0, x1)
    gu = np.where(prune, step[rows, u], 0.0) / sw
    gv = np.where(prune, step[rows, v], 0.0) / sw

    for axis in range(3):
        sel = np.flatnonzero((w == axis) & nonempty)
        au, av = (axis + 1) % 3, (axis + 2) % 3
        bu, bv, bw, ew = tmin[sel, au], tmin[sel, av], tmin[sel, axis], tmax[sel, axis]
        dv = tmax[sel, av] - bv + 1
        offsets = np.concatenate([[0], np.cumsum((tmax[sel, au] - bu + 1) * dv)])
        g_x0, g_x1, g_gu, g_gv = x0[sel], x1[sel], gu[sel], gv[sel]
        for start in range(0, int(offsets[-1]), _SAT_CHUNK):
            col = np.arange(start, min(start + _SAT_CHUNK, int(offsets[-1])), dtype=np.int64)
            t = np.searchsorted(offsets, col, side="right") - 1
            iu, iv = np.divmod(col - offsets[t], dv[t])
            iu += bu[t]
            iv += bv[t]
            g = g_gu[t] * iu + g_gv[t] * iv
            # widen by one cell each side; fmax/fmin take the box's end for a NaN
            first = np.fmin(np.fmax(np.ceil(g_x0[t] - g) - 1, bw[t]), ew[t] + 1).astype(np.int64)
            last = np.fmax(np.fmin(np.floor(g_x1[t] - g) + 1, ew[t]), bw[t] - 1).astype(np.int64)
            depth = np.maximum(last - first + 1, 0)
            ends = np.cumsum(depth)
            first -= ends - depth  # w-index = first[c] + pair number
            t = sel[t]
            del col, g, last, depth  # keep only what the pairs read
            for pstart in range(0, int(ends[-1]), _SAT_CHUNK):
                pend = min(pstart + _SAT_CHUNK, int(ends[-1]))
                # the columns holding pairs pstart..pend-1, and how many each
                c = slice(np.searchsorted(ends, pstart, side="right"),
                          np.searchsorted(ends, pend - 1, side="right") + 1)
                count = np.diff(np.minimum(ends[c], pend), prepend=pstart)
                ijk = [None] * 3
                ijk[au] = np.repeat(iu[c], count)
                ijk[av] = np.repeat(iv[c], count)
                ijk[axis] = np.repeat(first[c], count) + np.arange(pstart, pend, dtype=np.int64)
                yield (np.repeat(t[c], count), *ijk)


def _separated(k, t, centre, a, rad, pmin, pmax) -> np.ndarray:
    """Does SAT axis ``k`` separate each triangle ``t`` from the cell box
    around ``centre``: ``a``, ``rad``, ``pmin`` and ``pmax`` are
    ``voxelize_mesh``'s per-axis rows, gathered here by ``t``."""
    j, *rest = _AXIS_TERMS[k]
    c = centre[j] * a[j, k].take(t)
    for j in rest:
        c += centre[j] * a[j, k].take(t)
    r = rad[k].take(t)
    # strict inequality: touching is not separated; c - pmax is exactly
    # -(pmax - c), so the second test is pmax - c < -r
    d = pmin[k].take(t)
    d -= c
    sep = d > r
    np.subtract(c, pmax[k].take(t), out=d)
    sep |= d > r
    return sep


def voxelize_mesh(mesh: TriMesh, resolution: int, bounds=None) -> SparseStructure:
    """Conservative surface voxelization onto the uniform R^3 partition of
    ``bounds``.  The default is the AABB of the vertices that triangles use,
    expanded by ``BOUNDS_MARGIN`` per side so that boundary triangles land
    in cells deterministically; a vertex no triangle uses never counts.

    Raises ``NonFiniteGeometry`` for a NaN or infinite bound, or a NaN or
    infinite vertex that a triangle uses."""
    resolution = check_resolution(resolution)
    if bounds is None and mesh.num_triangles == 0:
        return sparse_from_linear(np.empty(0, dtype=np.int64), resolution)
    tri = mesh.vertices[mesh.triangles]  # (T, 3 vertices, 3)
    finite = np.isfinite(tri).all(axis=2)
    if not finite.all():
        t, k = np.argwhere(~finite)[0]
        raise NonFiniteGeometry(f"triangle {t} uses vertex {mesh.triangles[t, k]} = "
                                f"{tri[t, k].tolist()}, which is not finite")
    if bounds is None:
        bounds = tri.min(axis=(0, 1)) - BOUNDS_MARGIN, tri.max(axis=(0, 1)) + BOUNDS_MARGIN
    lo = np.asarray(bounds[0], dtype=np.float64)
    hi = np.asarray(bounds[1], dtype=np.float64)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise NonFiniteGeometry(f"bounds {lo.tolist()}..{hi.tolist()} are not finite")
    if not (hi > lo).all():
        raise EmptyBounds(f"bounds {lo.tolist()}..{hi.tolist()} have non-positive extent")
    cell = (hi - lo) / resolution
    half = cell / 2.0

    axes = _sat_axes(tri)
    a = np.ascontiguousarray(np.moveaxis(axes, 2, 0))  # (3, K, T): a[j, k] is one contiguous row
    proj = tri[None, :, :, 0] * a[0, ..., None] + tri[None, :, :, 1] * a[1, ..., None] \
        + tri[None, :, :, 2] * a[2, ..., None]            # (K, T, 3) vertex projections
    pmin, pmax = proj.min(axis=2), proj.max(axis=2)
    rad = half[0] * np.abs(a[0]) + half[1] * np.abs(a[1]) + half[2] * np.abs(a[2])

    r2 = resolution * resolution
    hits = [np.empty(0, dtype=np.int64)]
    for t, ix, iy, iz in _candidate_pairs(tri, lo, cell, resolution, axes[0],
                                          pmin[0] - rad[0], pmax[0] + rad[0]):
        centre = [lo[0] + (ix + 0.5) * cell[0], lo[1] + (iy + 0.5) * cell[1], lo[2] + (iz + 0.5) * cell[2]]
        lin = ix * r2 + iy * resolution + iz
        # the face normal rejects the cells that widen each column, about
        # half of them, so its survivors are compacted; the edge axes reject
        # a few percent each, less than a compaction costs, so they only mark
        idx = np.flatnonzero(~_separated(0, t, centre, a, rad, pmin, pmax))
        t, lin = t.take(idx), lin.take(idx)
        centre = [x.take(idx) for x in centre]
        separated = np.zeros(len(t), dtype=bool)
        for k in range(1, len(_AXIS_TERMS)):
            separated |= _separated(k, t, centre, a, rad, pmin, pmax)
        hits.append(_sorted_unique(lin.take(np.flatnonzero(~separated))))
    return sparse_from_linear(_sorted_unique(np.concatenate(hits)), resolution)


# Quad corner offsets per face direction, wound counter-clockwise viewed
# from outside the cube; per axis, the + face comes first.
_FACES = {
    (1, 0, 0): ((1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)),
    (-1, 0, 0): ((0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 0)),
    (0, 1, 0): ((0, 1, 0), (0, 1, 1), (1, 1, 1), (1, 1, 0)),
    (0, -1, 0): ((0, 0, 0), (1, 0, 0), (1, 0, 1), (0, 0, 1)),
    (0, 0, 1): ((0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)),
    (0, 0, -1): ((0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 0)),
}
_FACE_QUADS = np.array(list(_FACES.values()), dtype=np.int64)  # (6, 4, 3)


def _exposed_faces(s: SparseStructure) -> np.ndarray:
    """``(N, 6)`` mask, in ``_FACES`` order: is the face-adjacent neighbour
    of each occupied cell empty or outside the grid.

    Each axis finds the pairs (i, j) whose cell j is i's neighbour on the
    positive side; that hides i's positive face and j's negative one.  The
    key is sorted and unique, so along z, j is i + 1 where
    ``key[i + 1] == key[i] + 1`` and ``z < R - 1``; along x and y, j is
    looked up."""
    r = s.resolution
    lin = s.key
    exposed = np.ones((len(lin), len(_FACES)), dtype=bool)
    for axis, stride in enumerate((r * r, r, 1)):
        inside = s.coords[:, axis] < r - 1
        if stride == 1:
            lower = np.flatnonzero((np.diff(lin) == 1) & inside[:-1])
            upper = lower + 1
        else:
            occupied, pos = membership(lin, lin + stride)
            lower = np.flatnonzero(occupied & inside)
            upper = pos.take(lower)
        exposed[lower, 2 * axis] = False
        exposed[upper, 2 * axis + 1] = False
    return exposed


# The packed sort of ``extract_surface_mesh`` holds a corner key and its
# position in one int64; past this many bits it sorts the keys alone.
_PACK_BITS = 63


def _corner_keys(s: SparseStructure, side: int) -> np.ndarray:
    """The key ``(x * side + y) * side + z`` of each corner of each exposed
    face, four per face, faces in ``extract_surface_mesh``'s order."""
    pair = np.flatnonzero(_exposed_faces(s))  # voxel * 6 + face
    voxel = pair // len(_FACES)
    face = pair - voxel * len(_FACES)
    c = s.coords.astype(np.int64)
    base = (c[:, 0] * side + c[:, 1]) * side + c[:, 2]   # key of each voxel's (0, 0, 0) corner
    offset = _FACE_QUADS @ np.array([side * side, side, 1])  # (6, 4) corner key offsets
    key = offset.take(face, axis=0)
    key += base.take(voxel)[:, None]
    return key.reshape(-1)


def extract_surface_mesh(s: SparseStructure) -> TriMesh:
    """Two triangles per exposed cube face; vertices deduplicated by exact
    grid corner position, so each connected component is watertight.

    Faces come voxel by voxel in linear-index order, and within a voxel in
    ``_FACES`` order; vertices are numbered by their first use.

    Each face's four corners get an integer key.  One in-place sort of
    ``key << b | position`` (``b`` bits hold every position) puts equal
    corners together with their positions ascending, so each run's first
    element is the corner's first use.  When the packed value would not fit
    in ``_PACK_BITS`` bits, a stable argsort of the keys gives the same
    order."""
    side = s.resolution + 1
    key = _corner_keys(s, side)
    n = len(key)
    bits = max(n - 1, 0).bit_length()
    if int(key.max(initial=0)).bit_length() + bits <= _PACK_BITS:
        order = key << bits
        order |= np.arange(n)
        order.sort()
        new = _run_starts(order >> bits)
        order &= (1 << bits) - 1
    else:
        order = np.argsort(key, kind="stable")
        new = _run_starts(key.take(order))
    # vertices are numbered in the order of their first uses
    start = np.flatnonzero(new)
    first = order.take(start)
    is_first = np.zeros(n, dtype=bool)
    is_first[first] = True
    vid = np.empty(n, dtype=np.int64)
    vid[np.flatnonzero(is_first)] = np.arange(len(first))
    number = vid.take(first)  # vertex number of each run
    vid[order] = np.repeat(number, np.diff(start, append=n))

    # floor division and a product, not % (see grid.coords_from_linear)
    corner = key.compress(is_first)
    vertices = np.empty((len(corner), 3))
    xy = corner // side  # x * side + y
    vertices[:, 2] = corner - xy * side
    vertices[:, 0] = x = xy // side
    vertices[:, 1] = xy - x * side
    # 2-D fancy indexing: 4x faster here than take(..., axis=1) over 4 columns
    triangles = vid.reshape(-1, 4)[:, [0, 1, 2, 0, 2, 3]].reshape(-1, 3)
    return TriMesh(vertices=vertices, triangles=triangles)


def _index_fields(n: int) -> np.ndarray:
    """``(n, 1 + digits of n)`` uint8: row i is a space and the decimal
    digits of i + 1, right-aligned, with zero bytes as padding."""
    width = len(str(n))
    fields = np.empty((n, 1 + width), dtype=np.uint8)
    fields[:, 0] = ord(" ")
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for j in range(width):
        # the digit of place 10^j runs 0..9, each held for 10^j numbers
        place = 10 ** j
        column = np.resize(np.repeat(digits, place), n + 1)[1:]  # numbers 1..n
        column[:place - 1] = 0  # numbers below 10^j have no such digit
        fields[:, width - j] = column
    return fields


def _float_fields(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(table, rows)``: ``table`` is ``(U, 1 + width)`` uint8, one row per
    distinct float64 bit pattern in ``values``, holding a space and its
    ``%.9g`` text, with zero bytes as padding; ``rows`` has the shape of
    ``values`` and names each value's row."""
    keys, rows = np.unique(values.view(np.int64), return_inverse=True)
    # %.9g is at most 16 characters ("-1.23456789e-308") and never holds a
    # space, so one %16.9g call formats every key into a fixed-width row
    text = np.frombuffer(b"%16.9g" * len(keys) % tuple(keys.view(np.float64).tolist()), dtype=np.uint8)
    text = text.reshape(len(keys), 16)
    used = text != ord(" ")
    start = int(used.any(axis=0).argmax())  # the columns left of it are all padding
    table = np.empty((len(keys), 17 - start), dtype=np.uint8)
    table[:, 0] = ord(" ")
    np.multiply(text[:, start:], used[:, start:], out=table[:, 1:])
    return table, rows.reshape(values.shape)


def _write_records(fh, head: str, table: np.ndarray, rows: np.ndarray) -> None:
    """One line per row of ``rows``: ``head``, the ``table`` rows it names
    with their zero padding dropped, and a newline."""
    for i in range(0, len(rows), _OBJ_BATCH):
        batch = rows[i:i + _OBJ_BATCH]
        line = np.empty((len(batch), 2 + batch.shape[1] * table.shape[1]), dtype=np.uint8)
        line[:, 0] = ord(head)
        line[:, 1:-1] = np.take(table, batch, axis=0).reshape(len(batch), -1)
        line[:, -1] = ord("\n")
        fh.write(line[line != 0].tobytes())


def save_obj(mesh: TriMesh, path) -> None:
    """OBJ-compatible text export: v/f records, 1-based indices; the bytes
    of one ``%.9g`` / ``%d`` record per line."""
    with open(path, "wb") as fh:
        _write_records(fh, "v", *_float_fields(np.ascontiguousarray(mesh.vertices, dtype=np.float64)))
        # every index is in [0, V), which TriMesh checks, so each has a row
        _write_records(fh, "f", _index_fields(mesh.num_vertices), mesh.triangles)


def load_obj(path) -> TriMesh:
    """Minimal OBJ reader: v and f records, fan-triangulating polygons.

    A face index is 1-based, or negative to count back from the last vertex
    read so far (-1 is that vertex); either way it must name a vertex read
    above the face."""
    verts: list[list[float]] = []
    tris: list[tuple[int, int, int]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if parts[0] in ("v", "f") and len(parts) < 4:
                raise ValueError(f"{path} line {line_no}: {parts[0]!r} needs at least 3 values, got {len(parts) - 1}")
            try:
                if parts[0] == "v":
                    verts.append([float(p) for p in parts[1:4]])
                elif parts[0] == "f":
                    idx = [int(p.split("/")[0]) - 1 for p in parts[1:]]
                    n = len(verts)
                    if min(idx) < 0 or max(idx) >= n:
                        # a negative index counts back from the last vertex read: -1 is vertex n - 1
                        idx = [i if i >= 0 else n + i + 1 for i in idx]
                        bad = [p for p, i in zip(parts[1:], idx) if not 0 <= i < n]
                        if bad:
                            raise ValueError(f"face index {bad[0].split('/')[0]} names no vertex; {n} read so far")
                    for k in range(1, len(idx) - 1):
                        tris.append((idx[0], idx[k], idx[k + 1]))
            except ValueError as exc:
                raise ValueError(f"{path} line {line_no}: {exc}") from None
    return make_mesh(verts, tris)
