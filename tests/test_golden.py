"""Golden bytes: SHA-256 digests of what the mesh commands write.

Each case builds its input mesh here from exact arithmetic (IEEE sums,
products and square roots, no libm), writes it as an OBJ, runs ``voxelize``
and then ``surface`` through the CLI in the test's own directory, and pins
the digest of every file and of both commands' stdout.  The oracle tests
compare each fast path with a reference at the same commit; this table
instead pins the bytes across commits and across numpy versions.  A change
that alters these bytes on purpose updates the digest and says why.
"""
import hashlib
import math

import pytest

from voxedit.cli import dispatch

TETRAHEDRON = "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 3 2\nf 1 2 4\nf 1 4 3\nf 2 3 4\n"


def icosphere(levels: int):
    """Vertices (unit length) and triangles of an icosahedron whose faces are
    split in four ``levels`` times, each new vertex pushed out to the sphere."""
    phi = (1 + math.sqrt(5)) / 2
    verts = [(-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0), (0, -1, phi), (0, 1, phi),
             (0, -1, -phi), (0, 1, -phi), (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1)]
    tris = [(0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11), (1, 5, 9), (5, 11, 4),
            (11, 10, 2), (10, 7, 6), (7, 1, 8), (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8),
            (3, 8, 9), (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1)]

    def unit(p):
        n = math.sqrt(p[0] * p[0] + p[1] * p[1] + p[2] * p[2])
        return (p[0] / n, p[1] / n, p[2] / n)

    verts = [unit(v) for v in verts]
    for _ in range(levels):
        middle = {}

        def mid(a, b):
            edge = (min(a, b), max(a, b))
            if edge not in middle:
                middle[edge] = len(verts)
                verts.append(unit(tuple((verts[a][k] + verts[b][k]) / 2 for k in range(3))))
            return middle[edge]

        split = []
        for a, b, c in tris:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            split += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        tris = split
    return verts, tris


def sphere_and_tilted_triangle() -> str:
    """A 320-triangle sphere of radius 0.3 about (0.5, 0.5, 0.5), plus one
    tilted triangle that spans the unit cube."""
    verts, tris = icosphere(2)
    verts = [tuple(0.5 + 0.3 * x for x in v) for v in verts]
    tris.append((len(verts), len(verts) + 1, len(verts) + 2))
    verts += [(0.05, 0.05, 0.05), (0.95, 0.05, 0.3), (0.5, 0.95, 0.95)]
    lines = [f"v {x!r} {y!r} {z!r}\n" for x, y, z in verts]
    lines += [f"f {a + 1} {b + 1} {c + 1}\n" for a, b, c in tris]
    return "".join(lines)


# case -> (OBJ text, voxelize flags after --mesh, SHA-256 of each output)
CASES = {
    "tetrahedron-r16": (TETRAHEDRON, ["--resolution", "16"], {
        "mesh.obj": "b391f08159e507ad3a0fa80558bdb046e150e38868378c9972072d54ad65f858",
        "voxelize.stdout": "e75361b59b120d81a60a0a41aa2a6035176690c888053e73f0425a162f570f9f",
        "vox.nvx": "4424f4b6fe2ec2ceccb28321e2c0e4718cb45aa2ab97485ed2460748ec207cf8",
        "surface.stdout": "913f8a0cde98509983f8e0077053f9d532fa8d6d1e362efd96b23cba263a1c9a",
        "shell.obj": "9777dc2c5e855aa326de1bea0cf9c66cf8dfdd9ad00dbed2bcceade60895cb16",
    }),
    "sphere-r64": (sphere_and_tilted_triangle(), ["--resolution", "64", "--bounds", "0", "0", "0", "1", "1", "1"], {
        "mesh.obj": "c0aa3ed70fe661ff62bceb92fb33ba1b111c9b67c34736ff5e4f673fa9057f23",
        "voxelize.stdout": "1e840f85d9743de5afe6b4abeb11dcd46fba4e9c80882ceb3360bc1acab20c04",
        "vox.nvx": "35d7ec378f81b4be04256072f5cf525d0ac4625d9a154a72b968d2195c1402a2",
        "surface.stdout": "95d7ca19002e57d6fe9d04cf101835bad7ac7042f55343ecd8847e94afffff7f",
        "shell.obj": "3ea034697959027092818cb782d030ba5c65974529fe194ffd715b4196373a01",
    }),
}


def mesh_command_outputs(workdir, capsys, obj_text: str, flags: list) -> dict:
    """The bytes of the input OBJ, of each file the two commands write and
    of their stdout, run with paths relative to ``workdir``."""
    (workdir / "mesh.obj").write_text(obj_text, encoding="utf-8")
    out = {"mesh.obj": (workdir / "mesh.obj").read_bytes()}
    capsys.readouterr()
    assert dispatch(["voxelize", "--mesh", "mesh.obj", *flags, "--out", "vox.nvx"]) == 0
    out["voxelize.stdout"] = capsys.readouterr().out.encode()
    out["vox.nvx"] = (workdir / "vox.nvx").read_bytes()
    assert dispatch(["surface", "vox.nvx", "--out", "shell.obj"]) == 0
    out["surface.stdout"] = capsys.readouterr().out.encode()
    out["shell.obj"] = (workdir / "shell.obj").read_bytes()
    return out


@pytest.mark.parametrize("case", CASES)
def test_mesh_command_bytes_equal_golden_digests(case, tmp_path, monkeypatch, capsys):
    obj_text, flags, golden = CASES[case]
    monkeypatch.chdir(tmp_path)
    outputs = mesh_command_outputs(tmp_path, capsys, obj_text, flags)
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    assert digests == golden
