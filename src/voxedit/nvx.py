"""Bit-exact binary codec for sparse structures and structured latents.

Little-endian layout::

    magic   "NVX1"                      4 bytes
    kind    u8   (0 occupancy, 1 latent)
    res     u16
    count   u32
    chans   u16  (latent kind only)
    coords  count x 3 u16, linear-index order
    latents count x chans f32, same order (latent kind only)
    crc32   u32 over all preceding bytes
"""
from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import BadMagic, ChecksumMismatch, MalformedNvx, NvxError, TruncatedFile, UnsupportedVersion
from .grid import COORD_DTYPE, LATENT_DTYPE, SparseStructure, StructuredLatent, linear_index

MAGIC = b"NVX1"
KIND_OCCUPANCY = 0
KIND_LATENT = 1

_HEADER = struct.Struct("<BHI")
_CHANS = struct.Struct("<H")
_CRC = struct.Struct("<I")


def _chunks(payload) -> list:
    """The file's parts in order, with no staging copy: header, coords,
    latents (latent kind only) and the CRC chained over them."""
    # a latent is a SparseStructure too, so it must be tested first
    if isinstance(payload, StructuredLatent):
        kind, chans = KIND_LATENT, _CHANS.pack(payload.channels)
    elif isinstance(payload, SparseStructure):
        kind, chans = KIND_OCCUPANCY, b""
    else:
        raise TypeError(f"cannot encode {type(payload).__name__}")
    parts = [MAGIC + _HEADER.pack(kind, payload.resolution, payload.voxel_sum) + chans,
             np.ascontiguousarray(payload.coords, dtype="<u2")]
    if kind == KIND_LATENT:
        parts.append(np.ascontiguousarray(payload.latents, dtype="<f4"))
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return parts + [_CRC.pack(crc)]


def encode_nvx(payload) -> bytes:
    return b"".join(_chunks(payload))


def decode_nvx(data: bytes):
    """Check and decode one NVX file.  Where the dtype already matches,
    coords and latents are read-only views of ``data``, not copies."""
    if len(data) < len(MAGIC):
        raise TruncatedFile(f"{len(data)} bytes is too short for a header")
    magic = bytes(data[:4])
    if magic != MAGIC:
        if magic[:3] == MAGIC[:3]:
            raise UnsupportedVersion(f"unsupported format version {magic[3:4]!r}")
        raise BadMagic(f"bad magic {magic!r}")
    if len(data) < 4 + _HEADER.size + _CRC.size:
        raise TruncatedFile(f"{len(data)} bytes is too short for a header")

    kind, resolution, count = _HEADER.unpack_from(data, 4)
    offset, channels = 4 + _HEADER.size, 0
    if kind == KIND_LATENT:
        if len(data) < offset + _CHANS.size + _CRC.size:
            raise TruncatedFile("file ends inside the channel field")
        (channels,) = _CHANS.unpack_from(data, offset)
        offset += _CHANS.size
    elif kind != KIND_OCCUPANCY:
        raise MalformedNvx(f"unknown payload kind {kind}")

    expected = offset + count * (3 * 2 + channels * 4) + _CRC.size
    if len(data) < expected:
        raise TruncatedFile(f"expected {expected} bytes, got {len(data)}")
    if len(data) > expected:
        raise MalformedNvx(f"{len(data) - expected} trailing bytes after checksum")

    (stored_crc,) = _CRC.unpack_from(data, expected - _CRC.size)
    if zlib.crc32(memoryview(data)[: expected - _CRC.size]) != stored_crc:
        raise ChecksumMismatch("payload does not match stored CRC32")

    coords = np.frombuffer(data, dtype="<u2", count=count * 3, offset=offset)
    coords = coords.reshape(count, 3).astype(COORD_DTYPE, copy=False)
    if count and int(coords.max()) >= resolution:
        raise MalformedNvx("coordinate out of bounds for stored resolution")
    lin = linear_index(coords, resolution)
    if not (lin[1:] > lin[:-1]).all():
        raise MalformedNvx("coords not in canonical linear-index order")
    if resolution < 2:
        raise MalformedNvx(f"resolution {resolution} below minimum")

    if kind == KIND_OCCUPANCY:
        return SparseStructure(resolution=resolution, coords=coords, key=lin)

    if channels < 1:
        raise MalformedNvx("latent channel count must be >= 1")
    lat = np.frombuffer(data, dtype="<f4", count=count * channels, offset=offset + count * 3 * 2)
    lat = lat.reshape(count, channels).astype(LATENT_DTYPE, copy=False)
    if not np.isfinite(lat).all():
        raise MalformedNvx("non-finite latent values")
    return StructuredLatent(resolution=resolution, coords=coords, latents=lat, key=lin)


def write_nvx(payload, path) -> None:
    chunks = _chunks(payload)
    with open(path, "wb") as fh:
        fh.writelines(chunks)


def _decode_file(path) -> tuple:
    """``(bytes, payload)`` of an NVX file; a content error keeps its type and names the file."""
    data = Path(path).read_bytes()
    try:
        return data, decode_nvx(data)
    except NvxError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def read_nvx(path):
    return _decode_file(path)[1]


def inspect_nvx(path) -> dict:
    """Decode a file and summarize its header fields."""
    data, payload = _decode_file(path)
    info = {
        "path": str(path),
        "kind": "latent" if isinstance(payload, StructuredLatent) else "occupancy",
        "resolution": payload.resolution,
        "count": payload.voxel_sum,
        "bytes": len(data),
        "crc_ok": True,
    }
    if isinstance(payload, StructuredLatent):
        info["channels"] = payload.channels
    return info
