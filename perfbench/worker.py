"""One workload process: set up, measure, check, report one JSON line.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``.  The
set-up time runs from just before ``import voxedit`` until the first timed
operation can start, including one untimed warm-up operation and excluding
the benchmark's own generation of inputs.

Times are reported at a fixed reference speed of the machine.  A small
calibration kernel is timed right after each operation (and five times
after set-up), and the wall time is scaled by ``REF_CAL_S / kernel time``.
On a shared host whose single-thread speed swings by tens of percent within
minutes, the ratio of the two stays steady, while a change in voxedit's own
work moves it in full, because the kernel runs no voxedit code.  The raw
wall times are reported beside them.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()
import voxedit  # noqa: E402
import voxedit.cli  # noqa: E402,F401
_T1 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from checks import CheckFailed, in_child  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# The reference speed: the speed at which calibrate(arrays) takes this long.
REF_CAL_S = {False: 0.010, True: 0.020}
_SORT_INPUT = np.random.default_rng(0).random(1 << 18)


def calibrate(arrays: bool) -> float:
    """Wall time of a fixed kernel that uses no voxedit code: a dict loop in
    the interpreter and, with ``arrays``, two copy-and-sorts of a 2 MiB
    array.  Interpreter and array code speed up by different factors when
    the host gets faster, so a workload whose time goes mostly to array code
    (``Workload.array_bound``) is scaled by the kernel with the sorts."""
    t0 = time.perf_counter()
    d = {}
    for i in range(40000):
        d[i & 1023] = d.get(i & 1023, 0) + i
    if arrays:
        for _ in range(2):
            _SORT_INPUT.copy().sort()
    return time.perf_counter() - t0


def run_round(wl, seen: dict, phase: dict, on_result=None) -> None:
    """One operation per pooled input.  The first result for each input is
    checked in full, in a forked child so that the check's memory stays out
    of this process's peak RSS, and later ones must reproduce it; checks run
    outside the timed interval.  Outputs are then deleted, so that every
    operation writes fresh files rather than truncating the previous
    operation's."""
    for k in range(wl.pool):
        t0 = time.perf_counter()
        try:
            result = wl.op(k)
        except Exception:  # noqa: BLE001 - a raising operation is counted, not fatal
            phase["busy"] += time.perf_counter() - t0
            phase["failures"].append(traceback.format_exc(limit=3))
            wl.remove_outputs(k)
            continue
        dt = time.perf_counter() - t0
        phase["busy"] += dt
        scaled = dt * REF_CAL_S[wl.array_bound] / calibrate(wl.array_bound)
        try:
            if k not in seen:
                in_child(lambda: wl.check(k, result))
                seen[k] = wl.fingerprint(k, result)
            elif wl.fingerprint(k, result) != seen[k]:
                raise CheckFailed(f"input {k}: result differs from the first result")
        except Exception as exc:  # noqa: BLE001 - malformed output fails its check too
            phase["failures"].append(f"check failed: {type(exc).__name__}: {exc}")
        else:
            phase["times"].append(dt)
            phase["scaled"].append(scaled)
            if on_result is not None:
                on_result(k, result)
        finally:
            wl.remove_outputs(k)


def measure(wl, seconds: float, seen: dict, tracer=None):
    """Run whole rounds, at least one, until ``seconds`` of operation time
    have passed.  With a tracer, untraced and traced rounds alternate,
    starting untraced: both halves then see the same machine drift, and the
    full checks of first results run untraced."""
    plain, traced = ({"times": [], "scaled": [], "busy": 0.0, "failures": []} for _ in range(2))
    while True:
        run_round(wl, seen, plain)
        if tracer is not None:
            tracer.install()
            wl.trace(tracer)
            run_round(wl, seen, traced, lambda k, result: wl.count(k, result, tracer))
            tracer.remove()
        if plain["busy"] + traced["busy"] >= seconds:
            return plain, traced


def per_layer(tracer: Tracer, ops: int) -> dict:
    c = tracer.counts

    def ms(span):
        return tracer.self_s[span] * 1e3 / ops

    def per_op(name):
        return c[name] / ops

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    out = {f"{span}.ms": ms(span) for span in (
        "merge.label_components", "merge.diff_xor", "merge.select_components", "merge.apply_flip",
        "merge.slat_merge", "nvx.read_nvx", "nvx.write_nvx", "grid.from_dense", "grid.make_latent",
        "grid.make_sparse", "mesh.load_obj", "mesh.voxelize_mesh", "mesh.extract_surface_mesh",
        "mesh.save_obj", "flow.flowedit_run", "flow.oracle", "metrics.chamfer_voxels",
        "metrics.occupancy_iou", "metrics.region_consistency", "pipeline.run_pipeline",
        "pipeline.run_sample", "pipeline.backend")}
    out |= {name: per_op(name) for name in (
        "merge.diff_voxels", "merge.components", "nvx.bytes_read", "nvx.bytes_written",
        "cli.mask_json_bytes", "mesh.triangles", "mesh.candidate_cells", "mesh.voxels",
        "metrics.points", "pipeline.attempts", "pipeline.accepted", "pipeline.manifest_bytes")}
    out |= {
        "merge.selected_ratio": ratio("merge.selected", "merge.components"),
        "mesh.hit_ratio": ratio("mesh.voxels", "mesh.candidate_cells"),
        "pipeline.accept_ratio": ratio("pipeline.accepted", "pipeline.attempts"),
        "cli.self_ms": ms("cli.dispatch"),
        "flow.oracle_calls": tracer.calls["flow.oracle"] / ops,
    }
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = WORKLOADS[args.workload](args.seed, args.workdir)
    t2 = time.perf_counter()
    wl.op(0)
    setup_wall_s = (_T1 - _T0) + (time.perf_counter() - t2)
    setup_s = setup_wall_s * REF_CAL_S[wl.array_bound] / statistics.median(
        calibrate(wl.array_bound) for _ in range(5))
    wl.remove_outputs(0)
    report = {"setup_s": setup_s, "wall": {"setup_s": setup_wall_s}, "voxedit": voxedit.__file__}
    if args.setup_only:
        print(json.dumps(report))
        return

    tracer = Tracer() if args.trace else None
    plain, traced = measure(wl, args.seconds, {}, tracer)
    if tracer is not None:
        ops = max(len(traced["times"]), 1)
        report["per_layer"] = per_layer(tracer, ops) | {
            "trace.overhead_ms": (statistics.median(traced["scaled"]) - statistics.median(plain["scaled"])) * 1e3
            if traced["scaled"] and plain["scaled"] else 0.0}
        report["trace"] = tracer.summary() | {"ops": ops}

    report |= {
        "attempted": sum(len(p["times"]) + len(p["failures"]) for p in (plain, traced)),
        "failed": len(plain["failures"]) + len(traced["failures"]),
        "failures": (plain["failures"] + traced["failures"])[:5],
        "ops_per_s": len(plain["scaled"]) / sum(plain["scaled"]) if plain["scaled"] else 0.0,
        "op_ms_p50": statistics.median(plain["scaled"]) * 1e3 if plain["scaled"] else 0.0,
        "ops": len(plain["times"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if plain["times"]:
        report["wall"] |= {"ops_per_s": len(plain["times"]) / sum(plain["times"]),
                           "op_ms_p50": statistics.median(plain["times"]) * 1e3}
    print(json.dumps(report))


if __name__ == "__main__":
    main()
