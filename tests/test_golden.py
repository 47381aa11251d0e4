"""Golden bytes: SHA-256 digests of what the CLI commands print and write.

Each mesh case builds its input mesh here from exact arithmetic (IEEE sums,
products and square roots, no libm), writes it as an OBJ, runs ``voxelize``
and then ``surface`` through the CLI in the test's own directory, and pins
the digest of every file and of both commands' stdout.  The other commands
run on small NVX files that a seeded generator writes, and each ``pipeline
run`` table is pinned at one and at two workers.  The oracle tests
compare each fast path with a reference at the same commit; this table
instead pins the bytes across commits and across numpy versions.  A change
that alters these bytes on purpose updates the digest and says why.
"""
import hashlib
import itertools
import math

import numpy as np
import pytest

from oracles import random_structure_coords
from voxedit import make_latent, make_sparse, write_nvx
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


def run_steps(workdir, capsys, steps) -> dict:
    """The bytes of each step's stdout and of the files it writes; a step is
    (label, argv, files it writes), run with paths relative to ``workdir``."""
    out = {}
    for label, argv, files in steps:
        capsys.readouterr()
        assert dispatch(argv) == 0, label
        out[f"{label}.stdout"] = capsys.readouterr().out.encode()
        out.update((name, (workdir / name).read_bytes()) for name in files)
    return out


def digests(outputs: dict) -> dict:
    return {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}


@pytest.mark.parametrize("case", CASES)
def test_mesh_command_bytes_equal_golden_digests(case, tmp_path, monkeypatch, capsys):
    obj_text, flags, golden = CASES[case]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mesh.obj").write_text(obj_text, encoding="utf-8")
    outputs = run_steps(tmp_path, capsys, [("voxelize", ["voxelize", "--mesh", "mesh.obj", *flags, "--out", "vox.nvx"],
                                            ["mesh.obj", "vox.nvx"]),
                                           ("surface", ["surface", "vox.nvx", "--out", "shell.obj"], ["shell.obj"])])
    assert digests(outputs) == golden


# --- every other command ------------------------------------------------------------
# Each case writes its inputs from a seeded generator, then runs its steps in
# the test's directory; the digests pinned are of each step's stdout
# ("<label>.stdout") and of each file it writes.

FLOW = ["--steps", "6", "--n-max", "5", "--n-avg", "2", "--seed", "3"]
SAMPLE = ["sample", "--steps", "5", "--n-max", "5", "--seed", "4", "--condition", "tgt"]
EDIT_CASES = {
    "structures": [
        ("diff", ["diff", "--src", "src.nvx", "--tgt", "tgt.nvx", "--out", "d.nvx"], ["d.nvx"]),
        ("components", ["components", "d.nvx", "--connectivity", "26"], []),
        ("chamfer", ["chamfer", "--a", "src.nvx", "--b", "tgt.nvx"], []),
        ("inspect", ["inspect", "zs.nvx"], []),
    ],
    "merge": [
        ("merge", ["merge", "--src", "src.nvx", "--tgt", "tgt.nvx", "--tau", "2", "--out", "m.nvx",
                   "--mask-out", "mask.json"], ["m.nvx", "mask.json"]),
        ("consistency", ["consistency", "--src", "src.nvx", "--tgt", "tgt.nvx", "--merged", "m.nvx",
                         "--mask", "mask.json"], []),
        ("slat-merge", ["slat-merge", "--src-slat", "zs.nvx", "--tgt-slat", "zt.nvx", "--merged", "m.nvx",
                        "--mask", "mask.json", "--out", "z.nvx"], ["z.nvx"]),
        # every merged voxel takes the target's latent, so the target's coords are merged
        ("slat-merge-all", ["slat-merge", "--src-slat", "zs.nvx", "--tgt-slat", "zt.nvx", "--merged", "tgt.nvx",
                            "--mask-all", "--out", "z_all.nvx"], ["z_all.nvx"]),
    ],
    # a rule other than the default's: top-k at face connectivity
    "merge-top-k-6": [
        ("merge", ["merge", "--src", "src.nvx", "--tgt", "tgt.nvx", "--top-k", "2", "--connectivity", "6",
                   "--out", "m.nvx", "--mask-out", "mask.json"], ["m.nvx", "mask.json"]),
    ],
    "flow": [
        # --n-min 2 runs two plain steps after the edit steps
        ("flowedit", ["flowedit", *FLOW, "--n-min", "2", "--oracle", "gaussian", "--src-mean", "0,1",
                      "--tgt-mean", "2,-1", "--src-var", "0.5", "--x0", "0.25,-0.5",
                      "--transcript-out", "t.jsonl"], ["t.jsonl"]),
        # no --start: the start is drawn from the seed
        ("sample-delta", [*SAMPLE, "--oracle", "delta", "--src-anchor", "0,0,0", "--tgt-anchor", "1,2,3"], []),
        ("sample-gaussian", [*SAMPLE, "--oracle", "gaussian", "--src-mean", "0,1", "--tgt-mean", "2,-1",
                             "--tgt-var", "2"], []),
    ],
}
EDIT_GOLDEN = {
    "structures": {
        "diff.stdout": "bfc153093ed3d2f8d33ad398fcf66305ad0e476149894186a1a73210c81eadc1",
        "d.nvx": "97a244e440896320ef6d20f4fe45f3ec857775e6d507a03173f3085c6c528ffc",
        "components.stdout": "5d28a71ed77e3bcb05e2ec3b690425f94d201932404fef682c4fec17805be015",
        "chamfer.stdout": "2b4ddf560208e859deb183a2dedb35d7aa187c479453994d4f1b11109279ad2c",
        "inspect.stdout": "8fa5cb2c715f307558f17a1f205169dab9546a59d044c1ebeac2418f3f1fab8b",
    },
    "merge": {
        "merge.stdout": "675b567bb36bd15ee4363e719f77841a9b57a555ecfb9b792cb2d3e0e67de091",
        "m.nvx": "f5eba8bbf84386cc657a41904d955ff758777f72908926ecef4d6cbde91604e3",
        "mask.json": "33ce3c02a2aa8266d4535a8829fe5f17d13454a977e8a58590c1735485693399",
        "consistency.stdout": "25cb5abb7378563ed95a1a9250c6b4abbdf11d210eab7cf260945af1a04619c0",
        "slat-merge.stdout": "245beca361f4f00aab2d9e20f6b3b4f58084f4e3574ef402fc44485306997cf4",
        "z.nvx": "71cbcc200216d544b9974ada4bbb1f2ce24a5469c1397b0d674d266dc5256e4c",
        "slat-merge-all.stdout": "49a6e25fed21a85fc0c3b6defa0459df1c03722755d73ade1be394045b06a827",
        "z_all.nvx": "697559dbb00a679e464de38d3ec2a14edfc0c55620dff967f30ab99d750c5a8b",
    },
    "merge-top-k-6": {
        "merge.stdout": "ff5ae44abb2d4b5a9fbcee931f95bf25fafe29ad7712e09229d8760c156a857a",
        "m.nvx": "30292263087673b9cd9448dc5dcc7812975e16dc21b05b627496e320bd213cd3",
        "mask.json": "9ad6e71729aa96fe32ad9bed4e7684e0d06ec140f033ce1635d31bd09457f26d",
    },
    "flow": {
        "flowedit.stdout": "92f31766634f38fb3ff856a1e072bcf1fd842edd5c797c799cc505d01ef4fc70",
        "t.jsonl": "e3da51d9aa906f03273f1bfe2377fa7d57741658d94a21d9494a38c468e2cfb5",
        "sample-delta.stdout": "4bb32c4f874db05e4011a58c6f4562e42c2b4c5d6ec20464256a2faf5854c274",
        "sample-gaussian.stdout": "f5333d232cf3b0d59b774c19c11493d8aae6b75dc3a8d6b6c73f578453141087",
    },
}


def write_edit_inputs(workdir) -> None:
    """Two 16^3 structures at 8% and a 3-channel latent on each."""
    rng = np.random.default_rng(2024)
    src = make_sparse(random_structure_coords(rng, 16, 0.08), 16)
    tgt = make_sparse(random_structure_coords(rng, 16, 0.08), 16)
    for name, payload in (("src.nvx", src), ("tgt.nvx", tgt),
                          ("zs.nvx", make_latent(src.coords, rng.standard_normal((src.voxel_sum, 3)), 16)),
                          ("zt.nvx", make_latent(tgt.coords, rng.standard_normal((tgt.voxel_sum, 3)), 16))):
        write_nvx(payload, workdir / name)


@pytest.mark.parametrize("case", EDIT_CASES)
def test_edit_command_bytes_equal_golden_digests(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_edit_inputs(tmp_path)
    assert digests(run_steps(tmp_path, capsys, EDIT_CASES[case])) == EDIT_GOLDEN[case]


# Hand-built 16^3 input whose added parts meet only along an edge and only at
# a corner, so ``merge --top-k 1`` keeps one part at connectivity 6, the
# edge-joined pair at 18 and all three at 26: m.nvx differs at each.
CONTACT_GOLDEN = {
    6: {
        "merge.stdout": "e6e962287a6afa6ef8c7922877897ef577b6f83ff3e4012878662a430eda24d1",
        "m.nvx": "596fd49d7c3374650cfd9bfe6644854692af47226589938a2a903f601f4f517a",
        "mask.json": "d87272e4f9824a4f667a887ea436d18deaa465d305c56150bfcf179e7818748a",
    },
    18: {
        "merge.stdout": "971bdc713ec9f5275e49c92e1a6b991bf3039ea2ecec496063754f1292e1f172",
        "m.nvx": "67c88be8eaf38c26ff3dc77ca8f508b0c36fdf52afb0507a5f75c2d9a83092f0",
        "mask.json": "892c9b5699f182cfb99965e9d9581ac44af9dd1127b3f8a40e39f73527984a0d",
    },
    26: {
        "merge.stdout": "157e3c2651a52ab60b61cf74a0fbf241d8f6f613bca1e74856fceab856671f85",
        "m.nvx": "0a6f7f693dcc2d09df583b535e8b1d05dc1d0020abea3463a5fa87b72f4fe3e9",
        "mask.json": "7a6f13835a1376afc4111484262d3045510b2bcae337a8fc9ebe4740b3487be1",
    },
}


def write_contact_inputs(workdir) -> None:
    """A 3^3 source block, and a target that keeps it and adds a 4^3 block,
    a 2x2x4 bar that meets the block only along an edge ((5, 5, z) and
    (6, 6, z)), and a 2^3 cube that meets it only at a corner ((1, 1, 1) and
    (2, 2, 2))."""
    def box(lo, hi):
        return list(itertools.product(*(range(a, b) for a, b in zip(lo, hi))))

    kept = box((10, 10, 10), (13, 13, 13))
    added = box((2, 2, 2), (6, 6, 6)) + box((6, 6, 2), (8, 8, 6)) + box((0, 0, 0), (2, 2, 2))
    write_nvx(make_sparse(kept, 16), workdir / "src.nvx")
    write_nvx(make_sparse(kept + added, 16), workdir / "tgt.nvx")


@pytest.mark.parametrize("connectivity", CONTACT_GOLDEN)
def test_top_k_merge_at_each_connectivity_bytes_equal_golden_digests(connectivity, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_contact_inputs(tmp_path)
    steps = [("merge", ["merge", "--src", "src.nvx", "--tgt", "tgt.nvx", "--top-k", "1", "--connectivity",
                        str(connectivity), "--out", "m.nvx", "--mask-out", "mask.json"], ["m.nvx", "mask.json"])]
    assert digests(run_steps(tmp_path, capsys, steps)) == CONTACT_GOLDEN[connectivity]


def test_the_contact_merges_differ_at_each_connectivity():
    for name in ("m.nvx", "mask.json"):
        assert len({golden[name] for golden in CONTACT_GOLDEN.values()}) == len(CONTACT_GOLDEN) == 3, name


PIPELINE_GOLDEN = {
    "pipeline.stdout": "10ae8f8b5494aeb9eca6e391b88f6ec2e28af98ea893dc12aaba529757f4d6f8",
    "p/manifest.jsonl": "7672d5cfd0348914a9a909c73d235c75cbaf6ed131424977d2cb81f72d6b5cd5",
    "p/sample-000000.merged.nvx": "eafd89c78bed7810ebac0681c2025e0c959b423a2eb08f104b346c044e526ab2",
    "p/sample-000000.merged_slat.nvx": "c51dfe20bc73a60044ea6fdd10313eaacac463a90014a700a6510d9a7c941161",
    "p/sample-000000.src.nvx": "5ea038b41a3973dd608d20aa98ec64463f578a341f8f42f75c6b20b8b5ec2caf",
    "p/sample-000000.src_slat.nvx": "50e97f9c7f8444e91753f4af432d7fc88ef9590ffb8e87387d727cdc116f33c1",
    "p/sample-000000.tgt.nvx": "950621a04b4aaedb6e3561ffa75a53cae3fbb8ee5256fb27155189195123eef7",
    "p/sample-000001.merged.nvx": "908b0f5d7a77d3dacb8b6ea1237612bc1a42ec53f35a60579c24d8f1a1ac2e5f",
    "p/sample-000001.merged_slat.nvx": "fd5f3e890fe3e1fe96a7426cbfec80192430e2ecaa76a96f15dd83d284ad26e7",
    "p/sample-000001.src.nvx": "11a933659e0bc6fe518ed3f771727ec365f3c5bad64ac1608230fd6188bfb025",
    "p/sample-000001.src_slat.nvx": "f0b1f13813e94ba5fadf20ca491c6237350ebd82b63ea1626ce97ffb823c41f6",
    "p/sample-000001.tgt.nvx": "86318832d656afbca162c5af0f442924bd42caa7cca6db6a55d940aefc5492af",
    "p/sample-000002.merged.nvx": "521df88cb2315b873033ffba65c2bafe974726516f60a8f54013ca74cc4385e1",
    "p/sample-000002.merged_slat.nvx": "0e99bc14554abe20e6d674c700ff32ce4e61a5d9089467329278bb8410002b96",
    "p/sample-000002.src.nvx": "700827f813f2a8427fdaa2bb66d130a1e2eebc040cadbfb0ff2b7e694f8da65f",
    "p/sample-000002.src_slat.nvx": "e50683b593d4f523f288e72a9780855ebe8cad75685971d81d8d19d232f31ed2",
    "p/sample-000002.tgt.nvx": "95fe7a576d50d878fa7340da75775d5a6c194cb711d6abae4b7b502ca44ea73f",
    "p/sample-000003.merged.nvx": "9db495ffe241f554df3b23f8ecbdf59a584f1fe8fcfe8bb270b06afdec608790",
    "p/sample-000003.merged_slat.nvx": "ea6d083f0a512a136f0c695c55b70e9ec61a8767190fe3608729bded347ee079",
    "p/sample-000003.src.nvx": "9fdc57721ba00015967b3d2ddc5547d1998b9c2fd8f8fe04ba4a83d91c6edf35",
    "p/sample-000003.src_slat.nvx": "ad98de1335ece58aa74688c5af8f86b88f7fd9875c43b4660a5536deb534531d",
    "p/sample-000003.tgt.nvx": "d969e14a7fc308ea4ea7ae874d3f40603a04dc7deaef239a0cc05a26519a27cb",
}


def pipeline_digests(workdir, capsys, flags, workers) -> dict:
    """Digests of ``pipeline run --out-dir p --samples 4 --resolution 16
    --max-attempts 2`` with ``flags``: its stdout and every file in ``p``."""
    argv = ["pipeline", "run", "--out-dir", "p", "--samples", "4", *flags, "--resolution", "16",
            "--max-attempts", "2", "--workers", str(workers)]
    outputs = run_steps(workdir, capsys, [("pipeline", argv, [])])
    outputs.update((f"p/{path.name}", path.read_bytes()) for path in sorted((workdir / "p").iterdir()))
    return digests(outputs)


@pytest.mark.parametrize("workers", [1, 2])
def test_pipeline_run_bytes_equal_golden_digests_at_any_worker_count(workers, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert pipeline_digests(tmp_path, capsys, ["--seed", "1"], workers) == PIPELINE_GOLDEN


# the manifest pins each record's policy, connectivity 18 included
PIPELINE_TOP_K_18_GOLDEN = {
    "pipeline.stdout": "10ae8f8b5494aeb9eca6e391b88f6ec2e28af98ea893dc12aaba529757f4d6f8",
    "p/manifest.jsonl": "c3df35617f47ab7fa438ec79f95312ed35d59a018987c14b8c7429ddcf685d91",
    "p/sample-000000.merged.nvx": "5f75744656c0b71315e481c5ab780758fa62a387396af286b206277a9818449e",
    "p/sample-000000.merged_slat.nvx": "a0f8240dfab7b918f3a9b69696627661de433fdf8bc6fb68d45b90e27baac975",
    "p/sample-000000.src.nvx": "8c62916191183a5ccf07ee4755a065eeb4c1faa4b5c3c4df6a4d0f4d2dc8c427",
    "p/sample-000000.src_slat.nvx": "5c449be089bdded3d2d08548f7bffb9865eb8314b44f36a802c078f19b4b7108",
    "p/sample-000000.tgt.nvx": "de75e76286152c18cfaaa17c2396c524d0e4f1bce6f3cf73d1392c26cdfecdb3",
    "p/sample-000001.merged.nvx": "104780d3c7b282d498316a42de9edc04e04be18dcabf81d557e99ae46a45321c",
    "p/sample-000001.merged_slat.nvx": "b0b78e1734305fe1e79c90795ac03cd36dfcbc4fdd5377d32fd51d52dacc820e",
    "p/sample-000001.src.nvx": "4dbf88e019cdab6d74fc4d8cfdc710053e9de1b243c17ea981b52cedc4eb1bd4",
    "p/sample-000001.src_slat.nvx": "95f047eb44c8294f44cfdcf8e9b31339d6af271912f7e0f1fb946524eea8295c",
    "p/sample-000001.tgt.nvx": "2d772a58524e3a3c0df16adb26b3c45a57e3e4919e858c2f3fca94716dfc2b78",
    "p/sample-000002.merged.nvx": "3e51ff21f59e5726bb110bc23f3831ea6a52480472667869aaed3d6c5e21c409",
    "p/sample-000002.merged_slat.nvx": "0a838f5cdd56fb7b70acb07efd0cddefa59ced0a01f1268c2bb2b1c9f6ea2515",
    "p/sample-000002.src.nvx": "9b5fc338c90e6bfc91071362566b058728f384eca045b800c120d8fda8823e4f",
    "p/sample-000002.src_slat.nvx": "67af13cc8a15f2720a79588ab024df3d7c0ad30ced89377d63daff703259b107",
    "p/sample-000002.tgt.nvx": "fb45d7bae9e78109da74aa1aec292e1686a57ae573dec07f8155f7ce4367b3a3",
    "p/sample-000003.merged.nvx": "085444b9efc31f624b852507a382c74268a9406bc62acee3d836ca4b0f4497d5",
    "p/sample-000003.merged_slat.nvx": "612606b62045f850d30dc00c5f149471d6da3fbb21956836e2a26e49b4b06525",
    "p/sample-000003.src.nvx": "464f89d26cbc26bb9a77197e2457a13085bab7e46e375edb26933f8affdd593d",
    "p/sample-000003.src_slat.nvx": "5ae506c4ce4c6e6cc6f5faf6c8b75b66d197ca51504422431d5791b57beefc93",
    "p/sample-000003.tgt.nvx": "5836a193b55a2a09b953426bca74d3f84fb0bef1662af5170a2bb407788b0310",
}


@pytest.mark.parametrize("workers", [1, 2])
def test_pipeline_run_top_k_at_connectivity_18_bytes_equal_golden_digests(workers, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    flags = ["--seed", "3", "--top-k", "1", "--connectivity", "18"]
    assert pipeline_digests(tmp_path, capsys, flags, workers) == PIPELINE_TOP_K_18_GOLDEN
