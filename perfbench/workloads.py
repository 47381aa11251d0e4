"""The four benchmark workloads: input generation, the timed operation and
the output checks.

Each workload builds a fixed pool of inputs from its seed, in a forked
child that writes them to files, so that generating them does not raise
the measuring process's peak RSS.  Every input in a workload's pool costs
the same work (fixed voxel, speck, triangle and sample counts; only
positions depend on the seed), so the spread of operation times comes
from the machine rather than from the inputs.

Library functions are looked up through their modules at call time, so
the tracer's wrappers take effect once installed.  They are called with
their defaults wherever the workload does not need another value.
"""
from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
from scipy import ndimage

from voxedit import cli, flow, grid, merge, metrics, pipeline

from checks import (
    canonical_components,
    coords_of,
    dense,
    expect,
    exposed_faces,
    in_child,
    linear,
    nvx_check_file,
    nvx_encode,
    threshold_mask,
)

DEFAULT_TAU = 100  # the CLI's and the pipeline's default selection threshold


class OpFailed(Exception):
    """The operation reported an error instead of a result."""


def _oracles():
    path = Path(__file__).resolve().parent.parent / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("voxedit_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digest(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            while chunk := fh.read(1 << 20):
                h.update(chunk)
    return h.hexdigest()


def _ball_offsets(radius: int) -> np.ndarray:
    r = np.arange(-radius, radius + 1)
    x, y, z = np.meshgrid(r, r, r, indexing="ij")
    inside = x * x + y * y + z * z <= radius * radius
    return np.stack([x[inside], y[inside], z[inside]], axis=1)


def blobs(rng, resolution: int, radii) -> np.ndarray:
    """Disjoint balls at integer centres: the voxel count depends only on
    the radii, the positions on the seed."""
    occ = np.zeros((resolution,) * 3, dtype=bool)
    placed = []
    for r in radii:
        while True:
            c = rng.integers(r + 1, resolution - r - 1, size=3)
            if all(np.linalg.norm(c - c2) > r + r2 + 2 for c2, r2 in placed):
                break
        placed.append((c, r))
        o = _ball_offsets(r) + c
        occ[o[:, 0], o[:, 1], o[:, 2]] = True
    return occ


def planted_edit(rng, resolution: int, boxes: int, box, specks: int) -> np.ndarray:
    """Difference grid: ``boxes`` disjoint boxes of shape ``box`` plus
    ``specks`` single voxels outside them."""
    diff = np.zeros((resolution,) * 3, dtype=bool)
    placed = []
    size = np.array(box)
    while len(placed) < boxes:
        lo = rng.integers(1, resolution - size - 1)
        if all(((lo + size + 2 <= p) | (p + size + 2 <= lo)).any() for p in placed):
            placed.append(lo)
    for lo in placed:
        diff[lo[0]:lo[0] + size[0], lo[1]:lo[1] + size[1], lo[2]:lo[2] + size[2]] = True
    box_cells = int(np.count_nonzero(diff))
    cand = rng.choice(resolution ** 3, size=specks + box_cells, replace=False)
    cand = cand[~diff.ravel()[cand]][:specks]
    diff.ravel()[cand] = True
    return diff


def _dispatch(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.dispatch(argv)
    if code != 0:
        raise OpFailed(f"voxedit {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


class Workload:
    """One pool of inputs; ``op(k)`` is timed, ``check`` and ``fingerprint``
    are not."""

    pool = 1
    array_bound = False  # which calibration kernel scales its times; see worker.calibrate

    def __init__(self, seed: int, workdir: Path):
        """Generate the pool under ``workdir`` unless an earlier process of
        the same run already did; the processes of one run share it."""
        self.seed, self.workdir = seed, workdir
        workdir.mkdir(parents=True, exist_ok=True)
        done = workdir / "generated"
        if not done.exists():
            in_child(self.generate)
            done.touch()
        self.load()

    def generate(self) -> None:
        """Write the pool's input files under ``workdir``; runs in a child."""

    def load(self) -> None:
        """Read what the operations need from the generated files."""

    def op(self, k):
        raise NotImplementedError

    def check(self, k, result) -> None:
        """Full check of the first result for input ``k``."""
        raise NotImplementedError

    def fingerprint(self, k, result):
        """A value that later results for input ``k`` must reproduce."""
        raise NotImplementedError

    def trace(self, tracer) -> None:
        """Wrap instances the benchmark owns (backends, oracles)."""

    def count(self, k, result, tracer) -> None:
        """Per-operation counts the tracer cannot see from call results."""

    def outputs(self, k) -> list:
        """Files the operation on input ``k`` writes."""
        return []

    def remove_outputs(self, k) -> None:
        for path in self.outputs(k):
            path.unlink(missing_ok=True)


# --- merge-fragmented ----------------------------------------------------------


class MergeFragmented(Workload):
    """``voxedit merge --mask-out`` then ``voxedit slat-merge --mask`` on NVX
    files: 128^3, C=8, three planted boxes and 1% single-voxel specks."""

    R, C = 128, 8
    RADII = (22, 20, 18, 16, 16, 14, 14, 12)
    BOXES, BOX = 3, (14, 12, 10)
    SPECKS = round(0.01 * 128 ** 3)
    pool = 2

    def generate(self):
        for k in range(self.pool):
            rng = np.random.default_rng([self.seed, k])
            src = blobs(rng, self.R, self.RADII)
            tgt = src ^ planted_edit(rng, self.R, self.BOXES, self.BOX, self.SPECKS)
            d = self.workdir / f"pair{k}"
            d.mkdir(parents=True)
            sc, tc = coords_of(src), coords_of(tgt)
            sl = rng.standard_normal((len(sc), self.C), dtype=np.float32)
            tl = rng.standard_normal((len(tc), self.C), dtype=np.float32)
            for name, data in (("src.nvx", nvx_encode(self.R, sc)), ("tgt.nvx", nvx_encode(self.R, tc)),
                               ("src_slat.nvx", nvx_encode(self.R, sc, sl)),
                               ("tgt_slat.nvx", nvx_encode(self.R, tc, tl))):
                (d / name).write_bytes(data)

    def load(self):
        self.dirs = [self.workdir / f"pair{k}" for k in range(self.pool)]

    def op(self, k):
        d = self.dirs[k]
        merged = _dispatch(["merge", "--src", str(d / "src.nvx"), "--tgt", str(d / "tgt.nvx"),
                            "--out", str(d / "merged.nvx"), "--mask-out", str(d / "mask.json")])
        slat = _dispatch(["slat-merge", "--src-slat", str(d / "src_slat.nvx"),
                          "--tgt-slat", str(d / "tgt_slat.nvx"), "--merged", str(d / "merged.nvx"),
                          "--mask", str(d / "mask.json"), "--out", str(d / "merged_slat.nvx")])
        return merged, slat

    def check(self, k, result):
        d, R = self.dirs[k], self.R
        inp = dict(zip(("src", "tgt"), (nvx_check_file(d / f"{side}_slat.nvx")[1:] for side in ("src", "tgt"))))
        src, tgt = dense(inp["src"][0], R), dense(inp["tgt"][0], R)
        labels, sizes, order = canonical_components(src ^ tgt)
        mask = threshold_mask(labels, sizes, DEFAULT_TAU)

        report = json.loads(result[0])
        expect(report["component_sizes"] == sizes[order].tolist(),
               "stdout component_sizes differ from independent labelling")
        mask_report = json.loads((d / "mask.json").read_text(encoding="utf-8"))
        expect(np.array_equal(np.asarray(mask_report["coords"], dtype=np.int64).reshape(-1, 3),
                              coords_of(mask).astype(np.int64)),
               "mask is not the union of components larger than tau")

        _, mc, _ = nvx_check_file(d / "merged.nvx")
        expect(np.array_equal(mc, coords_of(np.where(mask, tgt, src))),
               "merged structure differs from where(mask, tgt, src)")

        _, zc, zl = nvx_check_file(d / "merged_slat.nvx")
        expect(np.array_equal(zc, mc), "merged latents do not cover the merged structure")
        lin = linear(zc, R)
        in_mask = mask.ravel()[lin]
        expected = np.empty_like(zl)
        for side, sel in (("tgt", in_mask), ("src", ~in_mask)):
            coords, latents = inp[side]
            expected[sel] = latents[np.searchsorted(linear(coords, R), lin[sel])]
        expect(np.array_equal(zl.view(np.uint32), expected.view(np.uint32)),
               "merged latents are not bitwise the target's in the mask and the source's elsewhere")

    def fingerprint(self, k, result):
        d = self.dirs[k]
        return result, _digest(d / "merged.nvx", d / "mask.json", d / "merged_slat.nvx")

    def count(self, k, result, tracer):
        tracer.add("cli.mask_json_bytes", os.path.getsize(self.dirs[k] / "mask.json"))

    def outputs(self, k):
        d = self.dirs[k]
        return [d / "merged.nvx", d / "mask.json", d / "merged_slat.nvx"]


# --- pipeline-mock -------------------------------------------------------------

# filter rejections by sample position mod 8; 3 rejections exhaust max_attempts
REJECTS = (0, 0, 0, 1, 0, 3, 0, 2)


class ScheduledFilter(pipeline.FilterBackend):
    """Verdict depends only on the sample's position and attempt number."""

    def judge(self, record):
        position = int(record.id.rsplit("-", 1)[1])
        ok = record.attempt > REJECTS[position % len(REJECTS)]
        return ok, "scheduled accept" if ok else "scheduled reject"


class PipelineMock(Workload):
    """One ``run_pipeline`` call over a fixed batch of mock samples at R=64,
    C=8 with ``max_attempts=3``."""

    R, C, SAMPLES, MAX_ATTEMPTS = 64, 8, 8, 3
    pool = 2

    def load(self):
        self.backends = pipeline.mock_backend_suite(resolution=self.R, channels=self.C)
        self.backends.quality_filter = ScheduledFilter()
        self.batches = [(self.workdir / f"batch{k}", self.seed * self.pool + k) for k in range(self.pool)]
        # Fixed image refs fix the mock source shapes, and with them the work
        # per batch; the seed picks the instructions, edits and latents.
        self.refs = [f"perfbench-sample/{i}" for i in range(self.SAMPLES)]

    def op(self, k):
        out_dir, batch_seed = self.batches[k]
        return pipeline.run_pipeline(out_dir, self.SAMPLES, backends=self.backends, seed=batch_seed,
                                     max_attempts=self.MAX_ATTEMPTS, image_refs=self.refs)

    def check(self, k, result):
        out_dir = self.batches[k][0]
        lines = Path(result).read_text(encoding="utf-8").splitlines()
        expect(len(lines) == self.SAMPLES, f"manifest has {len(lines)} records")
        for i, line in enumerate(lines):
            rec = json.loads(line)
            rejects = REJECTS[i % len(REJECTS)]
            want = ("ok", rejects + 1) if rejects < self.MAX_ATTEMPTS else ("filtered", self.MAX_ATTEMPTS)
            expect((rec["status"], rec["attempt"]) == want,
                   f"record {i}: {rec['status']} at attempt {rec['attempt']}, schedule says {want}")
            _, sc, _ = nvx_check_file(out_dir / rec["source_structure"])
            _, tc, _ = nvx_check_file(out_dir / rec["edited_structure"])
            _, mc, _ = nvx_check_file(out_dir / rec["merged_structure"])
            src, tgt = dense(sc, self.R), dense(tc, self.R)
            labels, sizes, order = canonical_components(src ^ tgt)
            expect(rec["mask_component_sizes"] == sizes[order].tolist(),
                   f"record {i}: mask_component_sizes differ from independent labelling")
            mask = threshold_mask(labels, sizes, DEFAULT_TAU)
            expect(np.array_equal(mc, coords_of(np.where(mask, tgt, src))),
                   f"record {i}: merged structure differs from where(mask, tgt, src)")
            _, zsc, zsl = nvx_check_file(out_dir / rec["source_slat"])
            _, zmc, zml = nvx_check_file(out_dir / rec["merged_slat"])
            expect(np.array_equal(zmc, mc), f"record {i}: merged latents do not cover the merge")
            lin = linear(zmc, self.R)
            outside = ~mask.ravel()[lin]
            pos = np.searchsorted(linear(zsc, self.R), lin[outside])
            expect(np.array_equal(zml[outside].view(np.uint32), zsl[pos].view(np.uint32)),
                   f"record {i}: merged_slat outside the mask is not bitwise source_slat")

    def fingerprint(self, k, result):
        out_dir = self.batches[k][0]
        return _digest(result, *sorted(out_dir.glob("*.nvx")))

    def trace(self, tracer):
        b = self.backends
        for obj, method in ((b.instruction, "propose"), (b.image_editor, "edit"),
                            (b.generator, "generate"), (b.quality_filter, "judge")):
            tracer.wrap_method(obj, method, "pipeline.backend")

    def count(self, k, result, tracer):
        records = [json.loads(line) for line in Path(result).read_text(encoding="utf-8").splitlines()]
        tracer.add("pipeline.attempts", sum(r["attempt"] for r in records))
        tracer.add("pipeline.accepted", sum(r["status"] == "ok" for r in records))
        tracer.add("pipeline.manifest_bytes", os.path.getsize(result))

    def outputs(self, k):
        out_dir = self.batches[k][0]
        return list(out_dir.iterdir()) if out_dir.is_dir() else []


# --- mesh-ingest ---------------------------------------------------------------


def _rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    return q * np.sign(np.diag(r))


class MeshIngest(Workload):
    """``voxedit voxelize --resolution 64`` then ``voxedit surface`` on an
    OBJ: a finely tessellated sphere plus a few large tilted triangles."""

    R = 64
    LAT, LON = 12, 20  # sphere tessellation: 2 * LON * (LAT - 1) triangles
    BIG = 2            # grid-spanning triangles
    POINTS_PER_TRIANGLE = 16
    pool = 2

    def generate(self):
        for k in range(self.pool):
            rng = np.random.default_rng([self.seed, k])
            verts, tris = self._mesh(rng)
            d = self.workdir / f"mesh{k}"
            d.mkdir(parents=True)
            lines = [f"v {x!r} {y!r} {z!r}\n" for x, y, z in verts.tolist()]
            lines += [f"f {a + 1} {b + 1} {c + 1}\n" for a, b, c in tris.tolist()]
            (d / "mesh.obj").write_text("".join(lines), encoding="utf-8")
            np.savez(d / "mesh.npz", verts=verts, tris=tris)

    def load(self):
        self.inputs = []
        for k in range(self.pool):
            d = self.workdir / f"mesh{k}"
            with np.load(d / "mesh.npz") as saved:
                verts, tris = saved["verts"], saved["tris"]
            self.inputs.append({"dir": d, "verts": verts, "tris": tris,
                                "candidate_cells": self._candidate_cells(verts[tris])})

    def _mesh(self, rng):
        theta = np.linspace(0, np.pi, self.LAT + 1)[1:-1]
        phi = np.arange(self.LON) * 2 * np.pi / self.LON
        ring = np.stack([np.outer(np.sin(theta), np.cos(phi)), np.outer(np.sin(theta), np.sin(phi)),
                         np.repeat(np.cos(theta)[:, None], self.LON, axis=1)], axis=-1).reshape(-1, 3)
        unit = np.concatenate([[[0, 0, 1]], ring, [[0, 0, -1]]])
        centre = 0.5 + rng.uniform(-0.03, 0.03, size=3)
        verts = [centre + 0.3 * unit @ _rotation(rng).T]
        tris = []
        last = len(unit) - 1
        for j in range(self.LON):
            jn = (j + 1) % self.LON
            tris.append((0, 1 + j, 1 + jn))
            tris.append((last, 1 + (self.LAT - 2) * self.LON + jn, 1 + (self.LAT - 2) * self.LON + j))
            for i in range(self.LAT - 2):
                a, b = 1 + i * self.LON + j, 1 + i * self.LON + jn
                tris.append((a, a + self.LON, b))
                tris.append((b, a + self.LON, b + self.LON))
        # tilted triangles with corners near the corners of the unit cube
        corners = np.array([[0.05, 0.05, 0.05], [0.95, 0.05, 0.3], [0.5, 0.95, 0.95],
                            [0.95, 0.95, 0.05], [0.05, 0.5, 0.95], [0.05, 0.95, 0.4]])
        for b in range(self.BIG):
            pick = [(b + i * 2) % len(corners) for i in range(3)]
            tris.append(tuple(len(unit) + 3 * b + i for i in range(3)))
            verts.append(corners[pick] + rng.uniform(-0.03, 0.03, size=(3, 3)))
        return np.concatenate(verts), np.array(tris, dtype=np.int64)

    def _candidate_cells(self, tri: np.ndarray) -> int:
        lo = np.clip(np.floor(tri.min(axis=1) * self.R), 0, self.R - 1)
        hi = np.clip(np.floor(tri.max(axis=1) * self.R), 0, self.R - 1)
        return int(np.prod(hi - lo + 1, axis=1).sum())

    def op(self, k):
        d = self.inputs[k]["dir"]
        vox = _dispatch(["voxelize", "--mesh", str(d / "mesh.obj"), "--resolution", str(self.R),
                         "--bounds", "0", "0", "0", "1", "1", "1", "--out", str(d / "vox.nvx")])
        surf = _dispatch(["surface", str(d / "vox.nvx"), "--out", str(d / "shell.obj")])
        return vox, surf

    def check(self, k, result):
        inp, R = self.inputs[k], self.R
        d = inp["dir"]
        tri = inp["verts"][inp["tris"]]
        _, occ, _ = nvx_check_file(d / "vox.nvx")
        expect(json.loads(result[0])["voxel_sum"] == len(occ), "voxelize reports a wrong voxel_sum")

        tri_box = _oracles().tri_box_overlap_scalar
        tlo, thi = tri.min(axis=1) * R, tri.max(axis=1) * R
        triangles = tri.tolist()
        for x, y, z in occ.tolist():
            cell = np.array([x, y, z])
            near = np.nonzero(((tlo <= cell + 1) & (thi >= cell)).all(axis=1))[0]
            expect(any(tri_box(triangles[t], (x / R, y / R, z / R), ((x + 1) / R, (y + 1) / R, (z + 1) / R))
                       for t in near),
                   f"occupied cell {(x, y, z)} overlaps no triangle")

        rng = np.random.default_rng(k)
        uv = rng.random((len(tri), self.POINTS_PER_TRIANGLE, 2))
        uv = np.where(uv.sum(axis=2, keepdims=True) > 1, 1 - uv, uv)
        points = tri[:, :1] + uv[..., :1] * (tri[:, 1:2] - tri[:, :1]) + uv[..., 1:] * (tri[:, 2:] - tri[:, :1])
        cells = np.clip(np.floor(points.reshape(-1, 3) * R), 0, R - 1).astype(np.int64)
        grid_occ = dense(occ, R)
        expect(grid_occ[cells[:, 0], cells[:, 1], cells[:, 2]].all(),
               "a point on a triangle lies in an empty cell")

        faces = np.array([[int(v) - 1 for v in line.split()[1:]]
                          for line in (d / "shell.obj").read_text(encoding="utf-8").splitlines()
                          if line.startswith("f ")], dtype=np.int64).reshape(-1, 3)
        expect(len(faces) == 2 * exposed_faces(grid_occ),
               f"{len(faces)} surface triangles, exposed faces say {2 * exposed_faces(grid_occ)}")
        expect(json.loads(result[1])["triangles"] == len(faces), "surface reports a wrong triangle count")
        edges = np.sort(np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]]), axis=1)
        _, uses = np.unique(edges, axis=0, return_counts=True)
        expect((uses % 2 == 0).all(), "a surface edge is shared by an odd number of triangles")

    def fingerprint(self, k, result):
        d = self.inputs[k]["dir"]
        return result, _digest(d / "vox.nvx", d / "shell.obj")

    def count(self, k, result, tracer):
        tracer.add("mesh.candidate_cells", self.inputs[k]["candidate_cells"])

    def outputs(self, k):
        d = self.inputs[k]["dir"]
        return [d / "vox.nvx", d / "shell.obj"]


# --- edit-eval -----------------------------------------------------------------


class EditEval(Workload):
    """``flowedit_run`` on a delta oracle at 16^3 x 8 = 32768, then Chamfer,
    IoU and region consistency on a 64^3 source/merged pair of blobs."""

    DIM = 16 ** 3 * 8
    R = 64
    RADII = (12, 11, 10, 9, 8)
    BOXES, BOX, SPECKS = 2, (9, 8, 7), 300
    pool = 2
    array_bound = True  # vector updates, the KD-tree and the EDT; no interpreter loops

    def generate(self):
        for k in range(self.pool):
            rng = np.random.default_rng([self.seed, k])
            a_src = rng.standard_normal(self.DIM)
            a_tgt = a_src + rng.standard_normal(self.DIM)
            src = blobs(rng, self.R, self.RADII)
            tgt = src ^ planted_edit(rng, self.R, self.BOXES, self.BOX, self.SPECKS)
            np.savez(self.workdir / f"pair{k}.npz", a_src=a_src, a_tgt=a_tgt, src=coords_of(src),
                     tgt=coords_of(tgt), x_src=rng.standard_normal(self.DIM))

    def load(self):
        self.inputs = []
        for k in range(self.pool):
            with np.load(self.workdir / f"pair{k}.npz") as saved:
                a_src, a_tgt, x_src = saved["a_src"], saved["a_tgt"], saved["x_src"]
                s_src = grid.make_sparse(saved["src"], self.R)
                s_tgt = grid.make_sparse(saved["tgt"], self.R)
            merged, mask = merge.voxel_merge(s_src, s_tgt)
            self.inputs.append({
                "x_src": x_src,
                "oracle": flow.DeltaVelocityOracle({"src": a_src, "tgt": a_tgt}),
                "displacement": a_tgt - a_src,
                "src": s_src, "tgt": s_tgt, "merged": merged, "mask": mask,
            })

    def op(self, k):
        inp = self.inputs[k]
        out = flow.flowedit_run(inp["x_src"], "src", "tgt", inp["oracle"], flow.FlowEditConfig())
        src, merged = inp["src"], inp["merged"]
        cd = metrics.chamfer_voxels(src, merged)
        iou = metrics.occupancy_iou(src, merged)
        report = metrics.region_consistency(src, inp["tgt"], merged, inp["mask"])
        return out, cd, iou, report

    def check(self, k, result):
        out, cd, iou, report = result
        inp, R = self.inputs[k], self.R
        err = np.abs((out - inp["x_src"]) - inp["displacement"]).max()
        expect(err <= 1e-9, f"flowedit displacement is off by {err:.3g}")

        a, b = dense(inp["src"].coords, R), dense(inp["merged"].coords, R)
        exact = 0.0
        for p, q in ((a, b), (b, a)):
            _, idx = ndimage.distance_transform_edt(~q, return_indices=True)
            pc = np.argwhere(p)
            near = idx[:, pc[:, 0], pc[:, 1], pc[:, 2]].T
            exact += float(np.mean(np.sum((pc - near) ** 2, axis=1)))
        expect(abs(cd - exact) <= 1e-9 * exact, f"chamfer {cd!r}, exact value {exact!r}")
        expect(iou == np.count_nonzero(a & b) / np.count_nonzero(a | b), "IoU differs from set computation")

        tgt = dense(inp["tgt"].coords, R)
        mask = dense(inp["mask"].coords, R)
        expect(np.array_equal(b, np.where(mask, tgt, a)), "the merge under test is not correct")
        expect(report.ok(), "region_consistency rejects a correct merge")
        outside = np.argwhere(~mask)[len(inp["src"].coords) % int(np.count_nonzero(~mask))]
        b[tuple(outside)] = ~b[tuple(outside)]
        broken = grid.make_sparse(coords_of(b), R)
        expect(not metrics.region_consistency(inp["src"], inp["tgt"], broken, inp["mask"]).ok(),
               "region_consistency accepts a merge with a voxel flipped outside the mask")

    def fingerprint(self, k, result):
        out, cd, iou, report = result
        return out.tobytes(), cd, iou, repr(report)

    def trace(self, tracer):
        for inp in self.inputs:
            tracer.wrap_method(inp["oracle"], "evaluate", "flow.oracle")


WORKLOADS = {
    "merge-fragmented": MergeFragmented,
    "pipeline-mock": PipelineMock,
    "mesh-ingest": MeshIngest,
    "edit-eval": EditEval,
}
