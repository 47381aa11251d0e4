"""Command-line interface: every library capability behind one entry point.

Machine-readable results go to stdout as JSON; artifacts are written only
through explicit --out flags; diagnostics go to stderr.  Exit codes:
0 success, 1 operation error, 2 usage error.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from ._threads import split
from .errors import VoxeditError
from .flow import AffineGaussianVelocityOracle, DeltaVelocityOracle, FlowEditConfig, euler_sample, flowedit_run
from .grid import SparseStructure, StructuredLatent, make_sparse
from .merge import (
    CONNECTIVITIES,
    DEFAULT_CONNECTIVITY,
    DEFAULT_TAU,
    FlipMask,
    Threshold,
    TopK,
    diff_xor,
    label_components,
    mask_all,
    slat_merge,
    voxel_merge,
)
from .mesh import load_obj, save_obj, extract_surface_mesh, voxelize_mesh
from .metrics import chamfer_voxels, occupancy_iou, region_consistency
from .nvx import inspect_nvx, read_nvx, write_nvx
from .pipeline import mock_backend_suite, run_pipeline


_SCALARS = frozenset((str, int, float, bool, type(None)))


def _flat_json(value) -> str:
    """A scalar or flat scalar list as ``json.dump(indent=2)`` writes it one
    level down, on json's C encoder (an indent runs the pure-Python one)."""
    text = json.dumps(value, separators=(",\n    ", ":"))
    return "[\n    " + text[1:-1] + "\n  ]" if type(value) is list and value else text


def _emit(obj) -> None:
    if type(obj) is dict and all(type(k) is str and set(map(type, v if type(v) is list else (v,))) <= _SCALARS
                                 for k, v in obj.items()):
        body = ",\n".join(f"  {json.dumps(k)}: {_flat_json(v)}" for k, v in obj.items())
        sys.stdout.write("{\n" + body + "\n}" if obj else "{}")
    else:
        json.dump(obj, sys.stdout, indent=2, sort_keys=False)
    sys.stdout.write("\n")


def _read_structure(path) -> SparseStructure:
    payload = read_nvx(path)
    if isinstance(payload, StructuredLatent):  # a SparseStructure too
        raise VoxeditError(f"{path} holds a latent payload, expected occupancy")
    return payload


def _read_latent(path) -> StructuredLatent:
    payload = read_nvx(path)
    if not isinstance(payload, StructuredLatent):
        raise VoxeditError(f"{path} holds an occupancy payload, expected latent")
    return payload


def _read_inputs(*reads) -> list:
    """``[read() for read in reads]``, read on two threads by ``split``."""
    return [done.result() for done in split(*reads)]


def _mask_report(mask: FlipMask, policy, connectivity: int) -> dict:
    return {
        "resolution": mask.resolution,
        "policy": policy.describe() | {"connectivity": connectivity},
        "component_sizes": list(mask.component_sizes),
        "selected_sizes": list(mask.selected_sizes),
        "mask_size": mask.voxel_sum,
        "coords": mask.coords.tolist(),
    }


def _read_json_object(path, what: str) -> dict:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # malformed JSON, or bytes that are not UTF-8
        raise ValueError(f"{what} {path} is not valid JSON: {exc}") from None
    if type(obj) is not dict:
        raise ValueError(f"{what} {path} must hold a JSON object")
    return obj


def _read_mask(path) -> FlipMask:
    """The mask report that ``merge --mask-out`` writes; the file comes from
    outside the program, so every field it uses is checked."""
    obj = _read_json_object(path, "mask report")
    sizes = obj.get("selected_sizes", []), obj.get("component_sizes", [])
    if not all(type(v) is list for v in sizes):
        raise ValueError("mask report fields 'selected_sizes' and 'component_sizes' must be lists")
    s = make_sparse(obj["coords"], obj["resolution"])
    return FlipMask(resolution=s.resolution, coords=s.coords, key=s.key,
                    selected_sizes=tuple(sizes[0]), component_sizes=tuple(sizes[1]))


def _policy_from_args(args):
    if args.top_k is not None:
        return TopK(args.top_k)
    return Threshold() if args.tau is None else Threshold(args.tau)


def _vector(text: str) -> np.ndarray:
    return np.array([float(p) for p in text.split(",")], dtype=np.float64)


# --- subcommand handlers -----------------------------------------------


def cmd_voxelize(args) -> int:
    mesh = load_obj(args.mesh)
    bounds = None if args.bounds is None else (args.bounds[:3], args.bounds[3:])
    s = voxelize_mesh(mesh, args.resolution, bounds)
    write_nvx(s, args.out)
    _emit({"out": str(args.out), "resolution": s.resolution, "voxel_sum": s.voxel_sum})
    return 0


def cmd_surface(args) -> int:
    s = _read_structure(args.input)
    mesh = extract_surface_mesh(s)
    save_obj(mesh, args.out)
    _emit({"out": str(args.out), "vertices": mesh.num_vertices, "triangles": mesh.num_triangles})
    return 0


def cmd_diff(args) -> int:
    d = diff_xor(*_read_inputs(lambda: _read_structure(args.src), lambda: _read_structure(args.tgt)))
    if args.out:
        write_nvx(d, args.out)
    _emit({"diff_size": d.voxel_sum, "out": str(args.out) if args.out else None})
    return 0


def cmd_components(args) -> int:
    cs = label_components(_read_structure(args.input), args.connectivity)
    _emit({"connectivity": cs.connectivity, "count": len(cs.sizes), "sizes": cs.sizes})
    return 0


def cmd_merge(args) -> int:
    s_src, s_tgt = _read_inputs(lambda: _read_structure(args.src), lambda: _read_structure(args.tgt))
    policy = _policy_from_args(args)
    merged, mask = voxel_merge(s_src, s_tgt, args.connectivity, policy)
    # the helper writes the NVX while this thread encodes the report, which
    # is written only once the NVX is: a failed NVX write is what gets raised
    report, written = split(
        # compact separators keep json on its C encoder; indent would not
        lambda: (json.dumps(_mask_report(mask, policy, args.connectivity), separators=(",", ":"))
                 if args.mask_out else None),
        functools.partial(write_nvx, merged, args.out))
    written.result()
    if args.mask_out:
        Path(args.mask_out).write_text(report.result() + "\n", encoding="utf-8")
    _emit({
        "out": str(args.out),
        "mask_out": str(args.mask_out) if args.mask_out else None,
        "diff_size": sum(mask.component_sizes),
        "component_sizes": list(mask.component_sizes),
        "selected_sizes": list(mask.selected_sizes),
        "merged_voxel_sum": merged.voxel_sum,
    })
    return 0


def cmd_slat_merge(args) -> int:
    reads = [lambda: _read_latent(args.src_slat), lambda: _read_latent(args.tgt_slat),
             lambda: _read_structure(args.merged)]
    if not args.mask_all:
        reads.append(lambda: _read_mask(args.mask))
    z_src, z_tgt, merged, *mask = _read_inputs(*reads)
    mask = mask_all(merged) if args.mask_all else mask[0]
    out = slat_merge(z_src, z_tgt, mask, merged)
    write_nvx(out, args.out)
    _emit({"out": str(args.out), "voxel_sum": out.voxel_sum, "channels": out.channels,
           "mask_size": mask.voxel_sum})
    return 0


def _oracle_from_args(args):
    if args.oracle == "delta":
        return DeltaVelocityOracle({"src": _vector(args.src_anchor), "tgt": _vector(args.tgt_anchor)})
    return AffineGaussianVelocityOracle({"src": _vector(args.src_mean), "tgt": _vector(args.tgt_mean)},
                                        {"src": args.src_var, "tgt": args.tgt_var})


def _flow_config(args) -> FlowEditConfig:
    """``--config`` values, then every flag given over them (a flag's dest is its field).
    The seed comes from ``--seed`` or else the file; with neither, a usage error."""
    names = [f.name for f in dataclasses.fields(FlowEditConfig)]
    values = _read_json_object(args.config, "--config file") if args.config else {}
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise ValueError(f"--config file {args.config} has unknown keys {unknown}; the keys are {names}")
    values.update((name, value) for name, value in vars(args).items() if name in names and value is not None)
    if "rng_seed" not in values:
        args.usage_error("a seed is required: give --seed, or rng_seed in the --config file")
    return FlowEditConfig(**values)


def cmd_flowedit(args) -> int:
    config = _flow_config(args)
    oracle = _oracle_from_args(args)
    x0 = _vector(args.x0)
    transcript = []
    on_step = transcript.append if args.transcript_out else None
    out = flowedit_run(x0, "src", "tgt", oracle, config, on_step=on_step)
    if args.transcript_out:
        with open(args.transcript_out, "w", encoding="utf-8") as fh:
            for row in transcript:
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")
    _emit({"output": out.tolist(), "displacement": (out - x0).tolist(),
           "config": {"steps": config.steps, "n_max": config.n_max, "n_min": config.n_min,
                      "n_avg": config.n_avg, "lambda_src": config.lambda_src,
                      "seed": config.rng_seed}})
    return 0


def cmd_sample(args) -> int:
    config = _flow_config(args)
    oracle = _oracle_from_args(args)
    rng = np.random.Generator(np.random.PCG64(config.rng_seed))
    start = _vector(args.start) if args.start else None
    out = euler_sample(oracle, args.condition, config, rng=rng, start=start)
    _emit({"output": out.tolist()})
    return 0


def cmd_chamfer(args) -> int:
    a, b = _read_inputs(lambda: _read_structure(args.a), lambda: _read_structure(args.b))
    _emit({"chamfer": chamfer_voxels(a, b), "iou": occupancy_iou(a, b)
           if a.resolution == b.resolution else None})
    return 0


def cmd_consistency(args) -> int:
    s_src, s_tgt, merged, mask = _read_inputs(lambda: _read_structure(args.src), lambda: _read_structure(args.tgt),
                                              lambda: _read_structure(args.merged), lambda: _read_mask(args.mask))
    rep = region_consistency(s_src, s_tgt, merged, mask)
    _emit({"outside_mask_iou": rep.outside_mask_iou,
           "inside_mask_match_fraction": rep.inside_mask_match_fraction,
           "mask_size": rep.mask_size, "diff_size": rep.diff_size})
    return 0


def cmd_pipeline_run(args) -> int:
    backends = mock_backend_suite(resolution=args.resolution, channels=args.channels)
    manifest = run_pipeline(
        out_dir=args.out_dir,
        n_samples=args.samples,
        backends=backends,
        merge_policy=_policy_from_args(args),
        connectivity=args.connectivity,
        seed=args.seed,
        max_attempts=args.max_attempts,
        workers=args.workers,
        manifest_name=args.manifest,
    )
    _emit({"manifest": str(manifest), "samples": args.samples})
    return 0


def cmd_inspect(args) -> int:
    _emit(inspect_nvx(args.input))
    return 0


# --- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voxedit",
        description="Sparse-voxel editing toolkit: diff/merge, flow editing, metrics, pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("voxelize", help="voxelize an OBJ mesh into an occupancy NVX file")
    p.add_argument("--mesh", required=True, help="input OBJ path")
    p.add_argument("--resolution", type=int, default=64, help="grid resolution per axis")
    p.add_argument("--bounds", type=float, nargs=6, metavar=("X0", "Y0", "Z0", "X1", "Y1", "Z1"),
                   help="explicit bounds; default is the AABB of the vertices the triangles use, plus a margin")
    p.add_argument("--out", required=True, help="output NVX path")
    p.set_defaults(func=cmd_voxelize)

    p = sub.add_parser("surface", help="export the exposed-face surface mesh of an NVX file")
    p.add_argument("input", help="occupancy NVX path")
    p.add_argument("--out", required=True, help="output OBJ path")
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("diff", help="XOR difference map of two occupancy NVX files")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--out", help="write the difference map as occupancy NVX")
    p.set_defaults(func=cmd_diff)

    def add_connectivity_flag(p):
        p.add_argument("--connectivity", type=int, choices=CONNECTIVITIES, default=DEFAULT_CONNECTIVITY)

    def add_merge_flags(p):  # what _policy_from_args reads, plus the connectivity
        group = p.add_mutually_exclusive_group()
        # no default: argparse does not count a value equal to the default as
        # given, so a default of DEFAULT_TAU would let `--tau 100 --top-k 2` through
        group.add_argument("--tau", type=int, help=f"select components larger than this size (default {DEFAULT_TAU})")
        group.add_argument("--top-k", type=int, help="select the k largest components instead")
        add_connectivity_flag(p)

    p = sub.add_parser("components", help="connectivity components of a difference-map NVX file")
    p.add_argument("input", help="occupancy NVX path holding the difference map")
    add_connectivity_flag(p)
    p.set_defaults(func=cmd_components)

    p = sub.add_parser("merge", help="region-aware merge of an edited structure into its source")
    p.add_argument("--src", required=True, help="source occupancy NVX")
    p.add_argument("--tgt", required=True, help="edited occupancy NVX")
    add_merge_flags(p)
    p.add_argument("--out", required=True, help="merged occupancy NVX path")
    p.add_argument("--mask-out", help="write the mask + audit report as JSON")
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("slat-merge", help="merge per-voxel latents under a flip mask")
    p.add_argument("--src-slat", required=True, help="source latent NVX")
    p.add_argument("--tgt-slat", required=True, help="edited latent NVX")
    p.add_argument("--merged", required=True, help="merged occupancy NVX")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--mask", help="mask JSON from `merge --mask-out`")
    group.add_argument("--mask-all", action="store_true",
                       help="take every merged voxel's latent from the target side")
    p.add_argument("--out", required=True, help="output latent NVX path")
    p.set_defaults(func=cmd_slat_merge)

    def add_flow_flags(p):
        # each config flag's dest is its FlowEditConfig field; _flow_config relies on it
        p.add_argument("--steps", type=int, help="sampling steps (default 25)")
        p.add_argument("--n-max", type=int, help="first active edit step (default 15)")
        p.add_argument("--n-min", type=int, help="switch to plain sampling below this step (default 0)")
        p.add_argument("--n-avg", type=int, help="noise draws averaged per step (default 5)")
        p.add_argument("--cfg-src", dest="cfg_source_scale", type=float, help="source guidance scale (default 1.5)")
        p.add_argument("--cfg-tgt", dest="cfg_target_scale", type=float, help="target guidance scale (default 5.5)")
        p.add_argument("--lambda", dest="lambda_src", type=float, help="source-velocity weight (default 1.0)")
        p.add_argument("--seed", dest="rng_seed", type=int,
                       help="noise seed; required unless --config sets rng_seed (no wall-clock seeding)")
        p.add_argument("--config", help="JSON file with config fields; flags override")
        p.set_defaults(usage_error=p.error)  # exits 2
        p.add_argument("--oracle", choices=("delta", "gaussian"), required=True)
        p.add_argument("--src-anchor", default="0", help="delta oracle: source anchor, comma-separated")
        p.add_argument("--tgt-anchor", default="1", help="delta oracle: target anchor, comma-separated")
        p.add_argument("--src-mean", default="0", help="gaussian oracle: source mean")
        p.add_argument("--tgt-mean", default="1", help="gaussian oracle: target mean")
        p.add_argument("--src-var", type=float, default=1.0, help="gaussian oracle: source variance")
        p.add_argument("--tgt-var", type=float, default=1.0, help="gaussian oracle: target variance")

    p = sub.add_parser("flowedit", help="run the edit integrator on an analytic velocity oracle")
    add_flow_flags(p)
    p.add_argument("--x0", required=True, help="source state, comma-separated floats")
    p.add_argument("--transcript-out", dest="transcript_out", help="write per-step JSONL transcript")
    p.set_defaults(func=cmd_flowedit)

    p = sub.add_parser("sample", help="plain Euler sampling of a guided analytic field")
    add_flow_flags(p)
    p.add_argument("--condition", default="tgt", help="condition label to sample (src or tgt)")
    p.add_argument("--start", help="state at t=1, comma-separated; drawn from --seed when omitted")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("chamfer", help="Chamfer distance between two occupancy NVX files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_chamfer)

    p = sub.add_parser("consistency", help="region-consistency report for a merge output")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--merged", required=True)
    p.add_argument("--mask", required=True, help="mask JSON from `merge --mask-out`")
    p.set_defaults(func=cmd_consistency)

    p = sub.add_parser("pipeline", help="dataset-construction pipeline")
    psub = p.add_subparsers(dest="pipeline_command", required=True, metavar="ACTION")
    pr = psub.add_parser("run", help="run the mock-backed pipeline end to end")
    pr.add_argument("--out-dir", dest="out_dir", required=True, help="artifact + manifest directory")
    pr.add_argument("--manifest", default="manifest.jsonl", help="manifest filename inside --out-dir")
    pr.add_argument("--samples", type=int, required=True, help="number of samples to process")
    pr.add_argument("--seed", type=int, required=True, help="master seed (required)")
    pr.add_argument("--max-attempts", dest="max_attempts", type=int, default=1)
    add_merge_flags(pr)
    pr.add_argument("--workers", type=int, default=1)
    pr.add_argument("--resolution", type=int, default=32, help="mock generator grid resolution")
    pr.add_argument("--channels", type=int, default=8, help="mock generator latent channels")
    pr.set_defaults(func=cmd_pipeline_run)

    p = sub.add_parser("inspect", help="dump an NVX file's header after checksum validation")
    p.add_argument("input", help="NVX path")
    p.set_defaults(func=cmd_inspect)

    return parser


# one parser per process, built on first use; parsing leaves it unchanged
_parser = functools.cache(build_parser)


def dispatch(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (VoxeditError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
