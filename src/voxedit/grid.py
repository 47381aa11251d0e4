"""Canonical sparse voxel structures.

A sparse structure is the set of occupied cells of an R^3 grid, stored as
coordinates sorted by the linear index ``i = x*R^2 + y*R + z``.  That one
total order is used everywhere: sorting, tie-breaking, and serialization.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ChannelMismatch, OutOfBounds, ResolutionMismatch

COORD_DTYPE = np.uint16
LATENT_DTYPE = np.float32

DEFAULT_RESOLUTION = 64
MAX_RESOLUTION = 0xFFFF  # coords are stored as u16


def check_int(name: str, value, lo: int | None, hi: int | None = None) -> int:
    """``value`` as an int, if it is an integer in ``[lo, hi]`` (None: no bound).  It may
    come from a flag, a file or a manifest: a bool, float or string raises, never truncated."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or (lo is not None and value < lo) or (hi is not None and value > hi)):
        bounds = f" in [{lo}, {hi}]" if hi is not None else f" >= {lo}" if lo is not None else ""
        raise ValueError(f"{name} must be an integer{bounds}, got {value!r}")
    return int(value)


def check_real(name: str, value) -> float:
    """``value`` as a float, if it is a finite real number other than a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


def check_resolution(resolution: int) -> int:
    return check_int("resolution", resolution, 2, MAX_RESOLUTION)


def linear_index(coords: np.ndarray, resolution: int) -> np.ndarray:
    """Linear index of ``(N, 3)`` coords under the x-major order."""
    c = np.asarray(coords)
    if c.dtype.kind not in "iu":
        c = c.astype(np.int64)
    r = int(resolution)
    # in place on one int64 column: no temporaries the size of the key
    lin = c[:, 0].astype(np.int64)
    lin *= r
    lin += c[:, 1]
    lin *= r
    lin += c[:, 2]
    return lin


def coords_from_linear(lin: np.ndarray, resolution: int) -> np.ndarray:
    """Inverse of :func:`linear_index`; returns ``(N, 3)`` uint16 coords."""
    lin = np.asarray(lin, dtype=np.int64)
    r = int(resolution)
    # peels z, then y, off the key with floor division and a product (numpy
    # divides int64 by a scalar fast, but not in divmod or %): two int64
    # temporaries in all
    out = np.empty((len(lin), 3), dtype=COORD_DTYPE)
    q = lin // r
    m = q * r
    np.subtract(lin, m, out=m)
    out[:, 2] = m
    np.floor_divide(q, r, out=m)
    out[:, 0] = m
    m *= r
    np.subtract(q, m, out=m)
    out[:, 1] = m
    return out


def membership(sorted_lin: np.ndarray, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each query index: is it in the sorted array ``sorted_lin``, and
    where.  Positions of absent queries are clamped, not meaningful."""
    if len(sorted_lin) == 0:
        return np.zeros(len(query), dtype=bool), np.zeros(len(query), dtype=np.int64)
    pos = np.minimum(np.searchsorted(sorted_lin, query), len(sorted_lin) - 1)
    return sorted_lin[pos] == query, pos


def _parse_coords(coords, resolution: int) -> np.ndarray:
    """Validate a coordinate collection into an ``(N, 3)`` int64 array.

    Every entry must be an integer (an integral float passes) inside
    ``[0, resolution)``; nothing is truncated or wrapped, since coords may
    come from outside the program, such as a mask JSON file.
    """
    try:
        arr = np.asarray(coords if isinstance(coords, np.ndarray) else list(coords))
    except TypeError:  # not a collection at all, such as a JSON null
        raise ValueError("coords must be an (N, 3) collection") from None
    if arr.size == 0:
        arr = arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("coords must be an (N, 3) collection")
    integral = arr.dtype.kind in "biu" or (
        arr.dtype.kind == "f" and (np.isfinite(arr) & (arr == np.round(arr))).all())
    if not integral:
        raise ValueError(f"coords must be integers in [0, {resolution})")
    bad = (arr < 0) | (arr >= resolution)
    if bad.any():
        raise OutOfBounds(arr[np.nonzero(bad.any(axis=1))[0][0]], resolution)
    return arr.astype(np.int64)


@dataclass(frozen=True)
class SparseStructure:
    """Sorted, duplicate-free set of occupied voxel coordinates.

    Instances are immutable values: construction marks every array field
    read-only, the caller's arrays included.  ``key`` is the sorted int64
    linear index of ``coords``; it is computed when not passed, and a
    constructor that passes it vouches that it is exact.  Build through
    :func:`make_sparse` or :meth:`from_dense` so the canonical order holds.
    """

    resolution: int
    coords: np.ndarray = field(repr=False)  # (N, 3) uint16, sorted by linear index
    key: np.ndarray = field(default=None, repr=False, kw_only=True)  # (N,) int64

    def __post_init__(self):
        if self.key is None:
            object.__setattr__(self, "key", linear_index(self.coords, self.resolution))
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    @property
    def voxel_sum(self) -> int:
        return int(self.coords.shape[0])

    @classmethod
    def from_dense(cls, grid: np.ndarray) -> "SparseStructure":
        grid = np.asarray(grid)
        if grid.ndim != 3 or len(set(grid.shape)) != 1:
            raise ValueError(f"expected a cubic (R, R, R) grid, got shape {grid.shape}")
        r = check_resolution(grid.shape[0])
        # C order is ascending linear index, so the flat positions are the sorted key
        lin = np.flatnonzero(grid).astype(np.int64, copy=False)
        return cls(resolution=r, coords=coords_from_linear(lin, r), key=lin)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseStructure):
            return NotImplemented
        # a latent never equals a plain structure, whichever side it is on
        return (isinstance(self, StructuredLatent) == isinstance(other, StructuredLatent)
                and self.resolution == other.resolution and np.array_equal(self.coords, other.coords))


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Where each run of equal values in ``ordered`` starts."""
    new = np.empty(len(ordered), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    return new


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """``np.unique(a)`` by sort and compare; numpy 2.4's hash-based
    ``np.unique`` takes 15-45x as long on 30k-160k int64 keys."""
    a = np.sort(a)
    return a[_run_starts(a)]


def make_sparse(coords, resolution: int = DEFAULT_RESOLUTION) -> SparseStructure:
    """Canonicalize a coordinate collection into a :class:`SparseStructure`.

    Input order does not matter and duplicates collapse; any component
    outside ``[0, resolution)`` raises :class:`OutOfBounds`.
    """
    resolution = check_resolution(resolution)
    lin = _sorted_unique(linear_index(_parse_coords(coords, resolution), resolution))
    return SparseStructure(resolution=resolution, coords=coords_from_linear(lin, resolution), key=lin)


def sparse_from_linear(lin: np.ndarray, resolution: int) -> SparseStructure:
    """Build a structure from sorted, unique, in-range linear indices; they become its key."""
    lin = np.asarray(lin, dtype=np.int64)
    return SparseStructure(resolution=int(resolution), coords=coords_from_linear(lin, resolution), key=lin)


@dataclass(frozen=True, eq=False)
class StructuredLatent(SparseStructure):
    """Occupied voxels, each carrying a C-channel latent vector.

    A :class:`SparseStructure` whose ``latents[i]`` belongs to
    ``coords[i]``; it never compares equal to a plain structure.
    """

    latents: np.ndarray = field(repr=False)  # (N, C) float32, finite

    @property
    def channels(self) -> int:
        return int(self.latents.shape[1])

    def __eq__(self, other) -> bool:
        same = super().__eq__(other)  # True only if other is a latent too
        return same if same is not True else (
            self.latents.shape == other.latents.shape
            # bitwise comparison, not value comparison
            and np.array_equal(self.latents.view(np.uint32), other.latents.view(np.uint32))
        )


def make_latent(coords, latents, resolution: int = DEFAULT_RESOLUTION) -> StructuredLatent:
    """Canonicalize per-voxel latents into a :class:`StructuredLatent`.

    Unlike :func:`make_sparse`, duplicate coordinates are an error here:
    two latents for one voxel have no well-defined winner.
    """
    resolution = check_resolution(resolution)
    arr = _parse_coords(coords, resolution)
    lat = np.asarray(latents, dtype=LATENT_DTYPE)
    if lat.size == 0:
        lat = lat.reshape(0, lat.shape[1] if lat.ndim == 2 else 1)
    if lat.ndim != 2 or lat.shape[0] != arr.shape[0]:
        raise ChannelMismatch(f"latents shape {lat.shape} does not pair with {arr.shape[0]} coords")
    if lat.shape[1] < 1:
        raise ChannelMismatch("latent channel count must be >= 1")
    if not np.isfinite(lat).all():
        raise ValueError("latent values must be finite")
    lin = linear_index(arr, resolution)
    order = np.argsort(lin, kind="stable")
    lin = lin[order]
    same = lin[1:] == lin[:-1]
    if same.any():
        dup = coords_from_linear(lin[np.flatnonzero(same)[:1]], resolution)[0]
        raise ValueError(f"duplicate latent entry for voxel {tuple(int(c) for c in dup)}")
    return StructuredLatent(
        resolution=resolution,
        coords=coords_from_linear(lin, resolution),
        latents=np.ascontiguousarray(lat[order]),
        key=lin,
    )


def require_same_resolution(*objs) -> int:
    resolutions = {int(o.resolution) for o in objs}
    if len(resolutions) != 1:
        raise ResolutionMismatch(f"mixed resolutions {sorted(resolutions)}")
    return resolutions.pop()
