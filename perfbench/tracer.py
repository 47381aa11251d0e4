"""Per-layer timing from outside the program.

The tracer replaces public functions of voxedit with wrappers wherever
the name is bound: ``voxedit.cli`` and ``voxedit.pipeline`` import
``diff_xor``, ``read_nvx``, ``write_nvx`` and the others by name, so
patching the defining module alone would miss their calls.  Each wrapper
records calls, total time and self time (its duration minus the wrapped
calls made inside it).  Everything stays in memory until the run ends;
``remove`` restores the original functions.
"""
from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

_ABSENT = object()

# span name -> (module, attribute) of the function it wraps
FUNCTIONS = {
    "grid.make_sparse": ("voxedit.grid", "make_sparse"),
    "grid.make_latent": ("voxedit.grid", "make_latent"),
    "merge.diff_xor": ("voxedit.merge", "diff_xor"),
    "merge.label_components": ("voxedit.merge", "label_components"),
    "merge.select_components": ("voxedit.merge", "select_components"),
    "merge.apply_flip": ("voxedit.merge", "apply_flip"),
    "merge.slat_merge": ("voxedit.merge", "slat_merge"),
    "nvx.read_nvx": ("voxedit.nvx", "read_nvx"),
    "nvx.write_nvx": ("voxedit.nvx", "write_nvx"),
    "mesh.load_obj": ("voxedit.mesh", "load_obj"),
    "mesh.voxelize_mesh": ("voxedit.mesh", "voxelize_mesh"),
    "mesh.extract_surface_mesh": ("voxedit.mesh", "extract_surface_mesh"),
    "mesh.save_obj": ("voxedit.mesh", "save_obj"),
    "flow.flowedit_run": ("voxedit.flow", "flowedit_run"),
    "metrics.chamfer_voxels": ("voxedit.metrics", "chamfer_voxels"),
    "metrics.occupancy_iou": ("voxedit.metrics", "occupancy_iou"),
    "metrics.region_consistency": ("voxedit.metrics", "region_consistency"),
    "pipeline.run_pipeline": ("voxedit.pipeline", "run_pipeline"),
    "pipeline.run_sample": ("voxedit.pipeline", "run_sample"),
    "cli.dispatch": ("voxedit.cli", "dispatch"),
}


# span name -> (count name, function of (result, args) giving the increment)
COUNTERS = {
    "merge.diff_xor": ("merge.diff_voxels", lambda r, a: len(r.coords)),
    "merge.label_components": ("merge.components", lambda r, a: len(r.sizes)),
    "merge.select_components": ("merge.selected", lambda r, a: len(r.selected_sizes)),
    "nvx.read_nvx": ("nvx.bytes_read", lambda r, a: os.path.getsize(a[0])),
    "nvx.write_nvx": ("nvx.bytes_written", lambda r, a: os.path.getsize(a[1])),
    "mesh.load_obj": ("mesh.triangles", lambda r, a: r.num_triangles),
    "mesh.voxelize_mesh": ("mesh.voxels", lambda r, a: len(r.coords)),
    "metrics.chamfer_voxels": ("metrics.points", lambda r, a: len(a[0].coords) + len(a[1].coords)),
}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack = []  # child time accumulated by each open span
        self._undo = []   # (target, attribute, previous value or _ABSENT)

    def add(self, name: str, value) -> None:
        self.counts[name] += value

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            self._stack.append(0.0)
            t0 = time.perf_counter()
            done = None
            try:
                result = fn(*args, **kwargs)
                done = time.perf_counter()
                if counter is not None:
                    self.counts[counter[0]] += counter[1](result, args)
                return result
            finally:
                end = time.perf_counter()
                dt = (done or end) - t0
                child = self._stack.pop()
                self.calls[name] += 1
                self.total_s[name] += dt
                self.self_s[name] += dt - child
                if self._stack:
                    # the counter's own time is charged to neither span
                    self._stack[-1] += end - t0

        return traced

    def _patch(self, target, attr: str, value) -> None:
        self._undo.append((target, attr, vars(target).get(attr, _ABSENT)))
        setattr(target, attr, value)

    def remove(self) -> None:
        """Undo every wrapping, latest first."""
        while self._undo:
            target, attr, previous = self._undo.pop()
            if previous is _ABSENT:
                delattr(target, attr)
            else:
                setattr(target, attr, previous)

    def wrap_method(self, obj, method: str, name: str) -> None:
        """Time one instance's method, e.g. a backend the benchmark owns."""
        self._patch(obj, method, self.wrap(name, getattr(obj, method)))

    def install(self) -> None:
        """Wrap every function in FUNCTIONS under each name bound to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "voxedit" or n.startswith("voxedit."))]
        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[module], attr, None)
            if original is None:
                continue
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        cls = sys.modules["voxedit.grid"].SparseStructure
        self._patch(cls, "from_dense", classmethod(self.wrap("grid.from_dense", cls.from_dense.__func__)))

    def summary(self) -> dict:
        return {
            name: {"calls": self.calls[name], "total_ms": self.total_s[name] * 1e3,
                   "self_ms": self.self_s[name] * 1e3}
            for name in sorted(self.calls) if self.calls[name]
        } | {"counts": dict(sorted(self.counts.items()))}
