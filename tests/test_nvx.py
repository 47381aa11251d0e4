import struct
import subprocess
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxedit import SparseStructure, StructuredLatent, make_latent, make_sparse, read_nvx, write_nvx
from voxedit.errors import (
    BadMagic,
    ChannelMismatch,
    ChecksumMismatch,
    MalformedNvx,
    NvxError,
    TruncatedFile,
    UnsupportedVersion,
)
from voxedit.grid import linear_index
from voxedit.nvx import decode_nvx, encode_nvx

from oracles import NvxReject, decode_nvx_copying, encode_nvx_staged, random_structure_coords


def random_structure(rng, resolution=16):
    return make_sparse(random_structure_coords(rng, resolution, rng.uniform(0.005, 0.3)), resolution)


def random_latent(rng, resolution=16, channels=8):
    coords = random_structure_coords(rng, resolution, rng.uniform(0.005, 0.3))
    s = make_sparse(coords, resolution)
    lat = rng.standard_normal((s.voxel_sum, channels)).astype(np.float32)
    return make_latent(s.coords, lat, resolution)


def test_write_refuses_more_channels_than_the_u16_field_holds(tmp_path):
    s = make_sparse([(1, 2, 3), (7, 7, 7)], 8)
    widest = make_latent(s.coords, np.ones((2, 0xFFFF), dtype=np.float32), 8)
    write_nvx(widest, tmp_path / "widest.nvx")
    assert read_nvx(tmp_path / "widest.nvx") == widest
    too_wide = make_latent(s.coords, np.ones((2, 0x10000), dtype=np.float32), 8)
    with pytest.raises(ChannelMismatch, match="at most 65535 latent channels, got 65536"):
        write_nvx(too_wide, tmp_path / "too_wide.nvx")
    assert not (tmp_path / "too_wide.nvx").exists()
    with pytest.raises(ChannelMismatch):
        encode_nvx(too_wide)


def test_empty_structure_is_15_bytes(tmp_path):
    path = tmp_path / "empty.nvx"
    s = make_sparse([], 64)
    write_nvx(s, path)
    assert path.stat().st_size == 15
    assert read_nvx(path) == s


def test_occupancy_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    path = tmp_path / "s.nvx"
    for _ in range(50):
        s = random_structure(rng)
        write_nvx(s, path)
        assert read_nvx(path) == s


def test_latent_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "z.nvx"
    for _ in range(30):
        z = random_latent(rng)
        write_nvx(z, path)
        back = read_nvx(path)
        assert back == z
        assert back.latents.tobytes() == z.latents.tobytes()


def test_large_latent_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    coords = random_structure_coords(rng, 32, 1000 / 32**3)
    s = make_sparse(coords, 32)
    z = make_latent(s.coords, rng.standard_normal((s.voxel_sum, 8)).astype(np.float32), 32)
    path = tmp_path / "big.nvx"
    write_nvx(z, path)
    assert encode_nvx(read_nvx(path)) == path.read_bytes()


def test_single_byte_corruption_detected():
    rng = np.random.default_rng(5)
    z = random_latent(rng, resolution=8, channels=4)
    data = bytearray(encode_nvx(z))
    for pos in range(len(data)):
        corrupted = bytearray(data)
        corrupted[pos] ^= 0x5A
        with pytest.raises(NvxError):
            decode_nvx(bytes(corrupted))


def test_flipped_payload_byte_is_checksum_mismatch():
    s = make_sparse([(1, 2, 3), (4, 5, 6)], 16)
    data = bytearray(encode_nvx(s))
    data[-6] ^= 0x01  # inside the coords payload
    with pytest.raises(ChecksumMismatch):
        decode_nvx(bytes(data))


def test_bad_magic_and_version():
    s = make_sparse([], 8)
    data = bytearray(encode_nvx(s))
    other = bytearray(data)
    other[:4] = b"JUNK"
    with pytest.raises(BadMagic):
        decode_nvx(bytes(other))
    v2 = bytearray(data)
    v2[3] = ord("2")
    with pytest.raises(UnsupportedVersion):
        decode_nvx(bytes(v2))


def test_truncation():
    s = make_sparse([(0, 0, 0), (1, 1, 1)], 8)
    data = encode_nvx(s)
    for cut in (0, 3, 8, len(data) - 1):
        with pytest.raises(TruncatedFile):
            decode_nvx(data[:cut])


def test_trailing_bytes_rejected():
    data = encode_nvx(make_sparse([], 8)) + b"\x00"
    with pytest.raises(MalformedNvx):
        decode_nvx(data)


def test_unknown_kind_rejected():
    buf = bytearray(b"NVX1") + struct.pack("<BHI", 9, 8, 0)
    buf += struct.pack("<I", zlib.crc32(bytes(buf)))
    with pytest.raises(MalformedNvx):
        decode_nvx(bytes(buf))


def test_noncanonical_order_rejected():
    coords = np.array([[1, 0, 0], [0, 0, 0]], dtype="<u2")
    buf = bytearray(b"NVX1") + struct.pack("<BHI", 0, 8, 2) + coords.tobytes()
    buf += struct.pack("<I", zlib.crc32(bytes(buf)))
    with pytest.raises(MalformedNvx):
        decode_nvx(bytes(buf))


@pytest.mark.parametrize("via", ["file", "pipe"])
@pytest.mark.parametrize("kind, count", [("latent", 5), ("latent", 6), ("occupancy", 5)])
def test_read_nvx_returns_aligned_arrays(tmp_path, kind, count, via):
    """A latent file's coords start at an odd byte (13) and its latents at
    13 + 6 * count; the reader still hands out aligned arrays, also from a
    pipe, whose size it learns only by reading it."""
    s = make_sparse([(i, 2 * i, 3) for i in range(count)], 16)
    payload = s if kind == "occupancy" else make_latent(s.coords, np.ones((count, 3), dtype=np.float32), 16)
    write_nvx(payload, tmp_path / "p.nvx")
    if via == "file":
        back = read_nvx(tmp_path / "p.nvx")
    else:
        with subprocess.Popen(["cat", str(tmp_path / "p.nvx")], stdout=subprocess.PIPE) as cat:
            back = read_nvx(f"/dev/fd/{cat.stdout.fileno()}")
    assert back == payload
    arrays = [back.coords] if kind == "occupancy" else [back.coords, back.latents]
    for a in arrays:
        assert a.flags.aligned


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_nvx(tmp_path / "nope.nvx")


# --- the streamed codec against the staged one it replaced ------------------

@st.composite
def payloads(draw):
    """An occupancy structure or a latent set, empty ones included, with
    latents drawn over all finite float32 values (-0.0 and subnormals too)."""
    r = draw(st.integers(2, 24))
    coords = draw(st.lists(st.tuples(*[st.integers(0, r - 1)] * 3), max_size=40, unique=True))
    if draw(st.booleans()):
        return make_sparse(coords, r)
    c = draw(st.integers(1, 4))
    values = draw(st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False),
                           min_size=len(coords) * c, max_size=len(coords) * c))
    return make_latent(coords, np.array(values, dtype=np.float32).reshape(len(coords), c), r)


def _staged(payload) -> bytes:
    latents = payload.latents if isinstance(payload, StructuredLatent) else None
    return encode_nvx_staged(payload.resolution, payload.coords, latents)


@settings(max_examples=150, deadline=None)
@given(payloads())
def test_streamed_writes_equal_the_staged_encoder(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("nvx") / "p.nvx"
    write_nvx(payload, path)
    expected = _staged(payload)
    assert encode_nvx(payload) == expected
    assert path.read_bytes() == expected
    assert expected[4] == (1 if isinstance(payload, StructuredLatent) else 0)


@settings(max_examples=150, deadline=None)
@given(payloads(), st.booleans())
def test_decoded_views_equal_the_copying_decoder(payload, mutable_input):
    data = encode_nvx(payload)
    kind, r, coords, latents = decode_nvx_copying(data)
    back = decode_nvx(bytearray(data) if mutable_input else data)
    assert type(back) is (StructuredLatent if kind == 1 else SparseStructure)
    assert back == payload and back.resolution == r
    assert back.coords.dtype == np.uint16 and back.coords.tobytes() == coords.tobytes()
    arrays = [back.coords, back.key]
    if kind == 1:
        assert back.latents.dtype == np.float32 and back.latents.tobytes() == latents.tobytes()
        arrays.append(back.latents)
    assert np.array_equal(back.key, linear_index(coords, r))
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0


def _with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


@settings(max_examples=300, deadline=None)
@given(payloads(), st.data())
def test_damaged_files_fail_as_the_copying_decoder_does(payload, data):
    """Same error type and message, or the same payload, on truncated,
    extended and corrupted files, also when the CRC is made to match so
    the checks behind it run."""
    good = encode_nvx(payload)
    how = data.draw(st.sampled_from(["cut", "extend", "flip", "flip+crc"]))
    if how == "cut":
        bad = good[:data.draw(st.integers(0, len(good) - 1))]
    elif how == "extend":
        bad = good + data.draw(st.binary(min_size=1, max_size=4))
    else:
        body = bytearray(good if how == "flip" else good[:-4])
        pos = data.draw(st.integers(0, len(body) - 1))
        body[pos] ^= data.draw(st.integers(1, 255))
        bad = bytes(body) if how == "flip" else _with_crc(bytes(body))
    try:
        expected = decode_nvx_copying(bad)
    except NvxReject as rej:
        with pytest.raises(NvxError) as exc:
            decode_nvx(bad)
        assert (type(exc.value).__name__, str(exc.value)) == rej.args
    else:
        back = decode_nvx(bad)
        assert back.coords.tobytes() == expected[2].tobytes()
