"""Computations that check the program's outputs without using its code.

The NVX codec here is written from the format description in
``voxedit.nvx`` and is used both to write the benchmark's input files and
to verify every output file the program writes.
"""
from __future__ import annotations

import os
import struct
import zlib

import numpy as np
from scipy import ndimage

MAGIC = b"NVX1"


class CheckFailed(Exception):
    """An output disagrees with the independent computation."""


class ChildFailed(Exception):
    """The forked child of ``in_child`` raised or did not exit cleanly."""


def expect(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def in_child(fn) -> None:
    """Run ``fn()`` in a forked child process and wait for it to end.

    What ``fn`` allocates then stays out of this process's peak RSS, which
    ``peak_rss_mb`` reports: input generation and the full checks use more
    memory than some of the operations they feed or check.  An exception
    in the child is raised here as ``ChildFailed`` with the child's message.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        status = 0
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 - reported to the parent
            os.write(write_fd, f"{type(exc).__name__}: {exc}".encode()[:4096])
            status = 1
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        message = fh.read().decode(errors="replace")
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise ChildFailed(message or f"child process ended with wait status {status}")


# --- NVX -------------------------------------------------------------------


def nvx_encode(resolution: int, coords: np.ndarray, latents: np.ndarray | None = None) -> bytes:
    coords = np.ascontiguousarray(coords, dtype="<u2").reshape(-1, 3)
    kind = 0 if latents is None else 1
    buf = MAGIC + struct.pack("<BHI", kind, resolution, len(coords))
    if latents is not None:
        latents = np.ascontiguousarray(latents, dtype="<f4")
        buf += struct.pack("<H", latents.shape[1])
    buf += coords.tobytes()
    if latents is not None:
        buf += latents.tobytes()
    return buf + struct.pack("<I", zlib.crc32(buf))


def nvx_decode(data: bytes):
    """Return ``(resolution, coords, latents or None)`` after checking the
    magic, the CRC, the length and the canonical coordinate order."""
    expect(len(data) >= 15 and data[:4] == MAGIC, "not an NVX1 file")
    kind, resolution, count = struct.unpack_from("<BHI", data, 4)
    offset = 11
    channels = 0
    if kind == 1:
        (channels,) = struct.unpack_from("<H", data, offset)
        offset += 2
    expect(kind in (0, 1), f"unknown NVX kind {kind}")
    expected = offset + count * 6 + count * channels * 4 + 4
    expect(len(data) == expected, f"NVX length {len(data)}, header implies {expected}")
    (crc,) = struct.unpack_from("<I", data, expected - 4)
    expect(zlib.crc32(data[: expected - 4]) == crc, "NVX CRC mismatch")
    coords = np.frombuffer(data, dtype="<u2", count=count * 3, offset=offset).reshape(count, 3)
    lin = linear(coords, resolution)
    expect(count < 2 or bool((np.diff(lin) > 0).all()), "NVX coords not in linear-index order")
    latents = None
    if kind == 1:
        latents = np.frombuffer(data, dtype="<f4", count=count * channels,
                                offset=offset + count * 6).reshape(count, channels)
    return resolution, coords, latents


def nvx_check_file(path):
    """Decode an output file and require that re-encoding gives its bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    resolution, coords, latents = nvx_decode(data)
    expect(nvx_encode(resolution, coords, latents) == data, f"{path} does not re-encode to its bytes")
    return resolution, coords, latents


# --- dense grids -------------------------------------------------------------


def linear(coords: np.ndarray, resolution: int) -> np.ndarray:
    c = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
    return (c[:, 0] * resolution + c[:, 1]) * resolution + c[:, 2]


def dense(coords: np.ndarray, resolution: int) -> np.ndarray:
    grid = np.zeros((resolution,) * 3, dtype=bool)
    c = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
    grid[c[:, 0], c[:, 1], c[:, 2]] = True
    return grid


def coords_of(grid: np.ndarray) -> np.ndarray:
    return np.argwhere(grid).astype(np.uint16)


def canonical_components(diff: np.ndarray):
    """26-connected components of a dense grid by scipy labelling.

    Returns ``(labels, sizes, order)``: ``sizes[j]`` belongs to label
    ``j + 1`` and ``order`` lists label indices (0-based) by size
    descending, then by smallest member linear index.  scipy numbers
    labels in C order, so a lower label has a smaller first member.
    """
    labels, n = ndimage.label(diff, structure=np.ones((3, 3, 3), dtype=bool))
    sizes = np.bincount(labels.ravel(), minlength=n + 1)[1:]
    order = np.lexsort((np.arange(n), -sizes))
    return labels, sizes, order


def threshold_mask(labels: np.ndarray, sizes: np.ndarray, tau: int) -> np.ndarray:
    keep = np.concatenate([[False], sizes > tau])
    return keep[labels]


def exposed_faces(grid: np.ndarray) -> int:
    """Faces of occupied cells whose face neighbour is empty or outside."""
    padded = np.pad(grid, 1)
    inner = padded[1:-1, 1:-1, 1:-1]
    total = 0
    for axis in range(3):
        for step in (1, -1):
            neighbour = np.roll(padded, -step, axis=axis)[1:-1, 1:-1, 1:-1]
            total += int(np.count_nonzero(inner & ~neighbour))
    return total
