import dataclasses
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import voxedit
from voxedit import (
    Threshold,
    chamfer_voxels,
    diff_xor,
    extract_surface_mesh,
    label_components,
    make_latent,
    make_sparse,
    read_nvx,
    save_obj,
    voxel_merge,
    write_nvx,
)
from voxedit import cli as cli_module
from voxedit.cli import _emit, build_parser, dispatch
from voxedit.merge import slat_merge
from voxedit.nvx import encode_nvx

from oracles import random_structure_coords

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_pair(tmp_path, seed=70, resolution=16):
    rng = np.random.default_rng(seed)
    src = make_sparse(random_structure_coords(rng, resolution, 0.08), resolution)
    tgt = make_sparse(random_structure_coords(rng, resolution, 0.08), resolution)
    src_path, tgt_path = tmp_path / "src.nvx", tmp_path / "tgt.nvx"
    write_nvx(src, src_path)
    write_nvx(tgt, tgt_path)
    return src, tgt, src_path, tgt_path


def test_merge_command_writes_artifacts(tmp_path, capsys):
    src, tgt, src_path, tgt_path = write_pair(tmp_path)
    out = tmp_path / "m.nvx"
    mask_out = tmp_path / "mask.json"
    code, stdout, _ = run_cli(
        capsys, "merge", "--src", str(src_path), "--tgt", str(tgt_path),
        "--tau", "100", "--out", str(out), "--mask-out", str(mask_out),
    )
    assert code == 0
    assert out.exists() and mask_out.exists()
    payload = json.loads(stdout)
    assert payload["component_sizes"] == sorted(payload["component_sizes"], reverse=True)
    report = json.loads(mask_out.read_text())
    assert report["policy"] == {"kind": "threshold", "tau": 100, "connectivity": 26}
    # CLI output equals library output byte for byte
    merged, mask = voxel_merge(src, tgt, policy=Threshold(100))
    assert out.read_bytes() == encode_nvx(merged)
    assert report["coords"] == mask.coords.tolist()
    assert report["component_sizes"] == list(mask.component_sizes)
    assert report["selected_sizes"] == list(mask.selected_sizes)


def test_flowedit_example(tmp_path, capsys):
    code, stdout, _ = run_cli(
        capsys, "flowedit", "--steps", "25", "--n-max", "15", "--n-avg", "5",
        "--oracle", "delta", "--src-anchor", "0", "--tgt-anchor", "1",
        "--x0", "0", "--seed", "3",
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["output"][0] == pytest.approx(1.0, abs=1e-6)


def test_flowedit_transcript(tmp_path, capsys):
    transcript = tmp_path / "t.jsonl"
    code, stdout, _ = run_cli(
        capsys, "flowedit", "--oracle", "delta", "--x0", "0", "--seed", "1",
        "--transcript-out", str(transcript),
    )
    assert code == 0
    rows = [json.loads(line) for line in transcript.read_text().splitlines()]
    assert len(rows) == 15
    assert {"step", "t", "dv_norm", "z_norm"} == set(rows[0])


def test_flowedit_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": 10, "n_max": 5, "n_avg": 2}))
    code, stdout, _ = run_cli(
        capsys, "flowedit", "--oracle", "delta", "--x0", "2", "--seed", "0",
        "--config", str(cfg), "--n-avg", "3",
        "--src-anchor", "1", "--tgt-anchor", "4",
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["config"]["steps"] == 10
    assert payload["config"]["n_avg"] == 3
    assert payload["displacement"][0] == pytest.approx(3.0, abs=1e-6)


def test_sample_command(capsys):
    code, stdout, _ = run_cli(
        capsys, "sample", "--oracle", "delta", "--tgt-anchor", "2.5",
        "--condition", "tgt", "--seed", "5",
    )
    assert code == 0
    assert json.loads(stdout)["output"][0] == pytest.approx(2.5, abs=1e-9)


@pytest.mark.parametrize("flags", [["--oracle", "delta", "--src-anchor", "0,0,0,0", "--tgt-anchor", "1,2,3,4"],
                                   ["--oracle", "gaussian", "--src-mean", "0,0,0", "--tgt-mean", "1,2,3"]])
def test_sample_rejects_a_start_of_the_wrong_dimension(capsys, flags):
    code, stdout, stderr = run_cli(capsys, "sample", "--seed", "0", "--start", "5", *flags)
    assert (code, stdout) == (1, "")
    assert stderr.startswith("error: state of shape (1,)")


def test_merge_two_corner_voxels_at_large_resolution(tmp_path, capsys):
    r = 1024
    src, tgt = make_sparse([(0, 0, 0)], r), make_sparse([(r - 1, r - 1, r - 1)], r)
    write_nvx(src, tmp_path / "src.nvx")
    write_nvx(tgt, tmp_path / "tgt.nvx")
    code, stdout, _ = run_cli(capsys, "merge", "--src", str(tmp_path / "src.nvx"), "--tgt", str(tmp_path / "tgt.nvx"),
                              "--tau", "0", "--out", str(tmp_path / "m.nvx"))
    assert code == 0
    assert json.loads(stdout)["component_sizes"] == [1, 1]
    assert (tmp_path / "m.nvx").read_bytes() == encode_nvx(tgt)


def test_inspect_missing_file(capsys, tmp_path):
    missing = tmp_path / "missing.nvx"
    code, stdout, stderr = run_cli(capsys, "inspect", str(missing))
    assert code == 1
    assert stdout == ""
    assert "missing.nvx" in stderr


def test_inspect_header_dump(tmp_path, capsys):
    rng = np.random.default_rng(71)
    s = make_sparse(random_structure_coords(rng, 16, 0.1), 16)
    z = make_latent(s.coords, rng.standard_normal((s.voxel_sum, 6)).astype(np.float32), 16)
    path = tmp_path / "z.nvx"
    write_nvx(z, path)
    code, stdout, _ = run_cli(capsys, "inspect", str(path))
    assert code == 0
    info = json.loads(stdout)
    assert info["kind"] == "latent"
    assert info["resolution"] == 16
    assert info["channels"] == 6
    assert info["count"] == s.voxel_sum
    assert info["crc_ok"] is True


def test_diff_and_components(tmp_path, capsys):
    _, _, src_path, tgt_path = write_pair(tmp_path, seed=72)
    d_path = tmp_path / "d.nvx"
    code, stdout, _ = run_cli(capsys, "diff", "--src", str(src_path), "--tgt", str(tgt_path),
                              "--out", str(d_path))
    assert code == 0
    diff_size = json.loads(stdout)["diff_size"]
    assert read_nvx(d_path).voxel_sum == diff_size

    code, stdout, _ = run_cli(capsys, "components", str(d_path), "--connectivity", "6")
    assert code == 0
    payload = json.loads(stdout)
    assert sum(payload["sizes"]) == diff_size
    assert payload["connectivity"] == 6


def test_voxelize_and_surface(tmp_path, capsys):
    s = make_sparse([(2, 2, 2), (2, 2, 3)], 8)
    obj_in = tmp_path / "in.obj"
    from voxedit import save_obj

    save_obj(extract_surface_mesh(s), obj_in)
    out = tmp_path / "v.nvx"
    code, stdout, _ = run_cli(
        capsys, "voxelize", "--mesh", str(obj_in), "--resolution", "8",
        "--bounds", "0", "0", "0", "8", "8", "8", "--out", str(out),
    )
    assert code == 0
    got = read_nvx(out)
    occupied = set(map(tuple, got.coords.tolist()))
    assert {(2, 2, 2), (2, 2, 3)} <= occupied

    obj_out = tmp_path / "out.obj"
    code, stdout, _ = run_cli(capsys, "surface", str(out), "--out", str(obj_out))
    assert code == 0
    assert obj_out.read_text().startswith("v ")


def test_voxelize_rejects_non_finite_input(tmp_path, capsys):
    finite = "v 0.1 0.1 0.1\nv 0.5 0.5 0.5\nv 0.9 0.9 0.2\nf 1 2 3\n"
    out = tmp_path / "v.nvx"
    for i, (vertex, bounds) in enumerate([("nan", ["0", "0", "0", "1", "1", "1"]), ("inf", []),
                                          ("0.5", ["0", "0", "0", "inf", "1", "1"])]):
        obj = tmp_path / f"in{i}.obj"
        obj.write_text(finite.replace("v 0.5", f"v {vertex}"))
        argv = ["voxelize", "--mesh", str(obj), "--resolution", "8", "--out", str(out)]
        code, stdout, err = run_cli(capsys, *argv, *(["--bounds", *bounds] if bounds else []))
        assert code == 1 and stdout == "" and "not finite" in err, vertex
        assert not out.exists()


def test_voxelize_rejects_short_obj_records(tmp_path, capsys):
    # six 2-value vertices used to be reshaped into four wrong ones
    out = tmp_path / "v.nvx"
    for i, text in enumerate(["v 0 0\n" * 6 + "f 1 2 3\n", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2\n"]):
        obj = tmp_path / f"in{i}.obj"
        obj.write_text(text)
        code, stdout, err = run_cli(capsys, "voxelize", "--mesh", str(obj), "--resolution", "8", "--out", str(out))
        assert (code, stdout) == (1, ""), text
        assert err.startswith("error: ValueError:") and f"line {1 if i == 0 else 4}:" in err, err
        assert not out.exists()


def test_slat_merge_command(tmp_path, capsys):
    rng = np.random.default_rng(73)
    src, tgt, src_path, tgt_path = write_pair(tmp_path, seed=73)
    z_src = make_latent(src.coords, rng.standard_normal((src.voxel_sum, 4)).astype(np.float32), 16)
    z_tgt = make_latent(tgt.coords, rng.standard_normal((tgt.voxel_sum, 4)).astype(np.float32), 16)
    for name, payload in (("zs.nvx", z_src), ("zt.nvx", z_tgt)):
        write_nvx(payload, tmp_path / name)
    merged_path, mask_path = tmp_path / "m.nvx", tmp_path / "mask.json"
    run_cli(capsys, "merge", "--src", str(src_path), "--tgt", str(tgt_path), "--tau", "5",
            "--out", str(merged_path), "--mask-out", str(mask_path))
    out_path = tmp_path / "zm.nvx"
    code, stdout, _ = run_cli(
        capsys, "slat-merge", "--src-slat", str(tmp_path / "zs.nvx"),
        "--tgt-slat", str(tmp_path / "zt.nvx"), "--merged", str(merged_path),
        "--mask", str(mask_path), "--out", str(out_path),
    )
    assert code == 0
    # byte-for-byte equal to the library path
    from voxedit.cli import _read_mask

    mask = _read_mask(mask_path)
    expected = slat_merge(z_src, z_tgt, mask, read_nvx(merged_path))
    assert out_path.read_bytes() == encode_nvx(expected)


def test_slat_merge_mask_all(tmp_path, capsys):
    rng = np.random.default_rng(74)
    s = make_sparse(random_structure_coords(rng, 8, 0.1), 8)
    z_src = make_latent(s.coords, rng.standard_normal((s.voxel_sum, 4)).astype(np.float32), 8)
    z_tgt = make_latent(s.coords, rng.standard_normal((s.voxel_sum, 4)).astype(np.float32), 8)
    for name, payload in (("zs.nvx", z_src), ("zt.nvx", z_tgt), ("m.nvx", s)):
        write_nvx(payload, tmp_path / name)
    out = tmp_path / "zm.nvx"
    code, _, _ = run_cli(
        capsys, "slat-merge", "--src-slat", str(tmp_path / "zs.nvx"),
        "--tgt-slat", str(tmp_path / "zt.nvx"), "--merged", str(tmp_path / "m.nvx"),
        "--mask-all", "--out", str(out),
    )
    assert code == 0
    # every latent must come from the target side
    assert read_nvx(out).latents.tobytes() == z_tgt.latents.tobytes()


def test_chamfer_command(tmp_path, capsys):
    a, b = make_sparse([(0, 0, 0)], 8), make_sparse([(3, 4, 0)], 8)
    write_nvx(a, tmp_path / "a.nvx")
    write_nvx(b, tmp_path / "b.nvx")
    code, stdout, _ = run_cli(capsys, "chamfer", "--a", str(tmp_path / "a.nvx"),
                              "--b", str(tmp_path / "b.nvx"))
    assert code == 0
    assert json.loads(stdout)["chamfer"] == 50.0


def test_chamfer_command_mixed_resolutions_stdout_is_pinned(tmp_path, capsys):
    # a grid-unit Chamfer and no IoU; the bytes are those the full-query
    # KD-tree Chamfer printed, worked by hand: 71/3 + 262/4
    write_nvx(make_sparse([(0, 0, 0), (1, 2, 3), (7, 7, 7)], 8), tmp_path / "a.nvx")
    write_nvx(make_sparse([(0, 0, 0), (1, 2, 4), (9, 0, 2), (15, 15, 15)], 16), tmp_path / "b.nvx")
    expected = '{\n  "chamfer": 89.16666666666667,\n  "iou": null\n}\n'
    for a, b in (("a", "b"), ("b", "a")):
        code, stdout, _ = run_cli(capsys, "chamfer", "--a", str(tmp_path / f"{a}.nvx"),
                                  "--b", str(tmp_path / f"{b}.nvx"))
        assert code == 0
        assert stdout == expected


def test_consistency_command(tmp_path, capsys):
    src, tgt, src_path, tgt_path = write_pair(tmp_path, seed=75)
    merged_path, mask_path = tmp_path / "m.nvx", tmp_path / "mask.json"
    run_cli(capsys, "merge", "--src", str(src_path), "--tgt", str(tgt_path), "--tau", "3",
            "--out", str(merged_path), "--mask-out", str(mask_path))
    code, stdout, _ = run_cli(
        capsys, "consistency", "--src", str(src_path), "--tgt", str(tgt_path),
        "--merged", str(merged_path), "--mask", str(mask_path),
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["outside_mask_iou"] == 1.0
    assert payload["inside_mask_match_fraction"] == 1.0


def test_consistency_rejects_fractional_mask_coords(tmp_path, capsys):
    src, tgt, src_path, tgt_path = write_pair(tmp_path, seed=76)
    write_nvx(src, tmp_path / "m.nvx")
    mask_path = tmp_path / "mask.json"
    for mask in ({"resolution": 16, "coords": [[2.9, 0, 0]]},
                 {"resolution": 16.9, "coords": [[2, 0, 0]]}):
        mask_path.write_text(json.dumps(mask))
        code, stdout, stderr = run_cli(
            capsys, "consistency", "--src", str(src_path), "--tgt", str(tgt_path),
            "--merged", str(tmp_path / "m.nvx"), "--mask", str(mask_path),
        )
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error:")


@pytest.mark.parametrize("report", [[1, 2], {"resolution": 16, "coords": None},
                                    {"resolution": 16, "coords": [[2, 0, 0]], "selected_sizes": 5}],
                         ids=["list", "null-coords", "scalar-sizes"])
def test_malformed_mask_report_exits_1(tmp_path, capsys, report):
    src, tgt, src_path, tgt_path = write_pair(tmp_path, seed=77)
    z = make_latent(src.coords, np.zeros((src.voxel_sum, 2), dtype=np.float32), 16)
    write_nvx(z, tmp_path / "z.nvx")
    mask_path = tmp_path / "mask.json"
    mask_path.write_text(json.dumps(report))
    for argv in (["consistency", "--src", str(src_path), "--tgt", str(tgt_path), "--merged", str(src_path)],
                 ["slat-merge", "--src-slat", str(tmp_path / "z.nvx"), "--tgt-slat", str(tmp_path / "z.nvx"),
                  "--merged", str(src_path), "--out", str(tmp_path / "out.nvx")]):
        code, stdout, stderr = run_cli(capsys, *argv, "--mask", str(mask_path))
        assert (code, stdout) == (1, ""), argv[0]
        assert stderr.startswith("error: ValueError:") and stderr.count("\n") == 1, argv[0]
    assert not (tmp_path / "out.nvx").exists()


@pytest.mark.parametrize("data", [b'{"resolution": 16', b"NVX1\x00\xf1"], ids=["truncated", "not-utf8"])
def test_a_mask_that_is_not_json_names_its_file(tmp_path, capsys, data):
    src, tgt, src_path, tgt_path = write_pair(tmp_path, seed=78)
    mask_path = tmp_path / "mask.json"
    mask_path.write_bytes(data)
    code, stdout, stderr = run_cli(capsys, "consistency", "--src", str(src_path), "--tgt", str(tgt_path),
                                   "--merged", str(src_path), "--mask", str(mask_path))
    assert (code, stdout) == (1, "")
    assert stderr.startswith(f"error: ValueError: mask report {mask_path} is not valid JSON: ")
    assert stderr.count("\n") == 1


@pytest.mark.parametrize("config", [{"stepz": 3}, [1], {"steps": "10"}], ids=["unknown-key", "list", "string"])
def test_malformed_flow_config_exits_1(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    for command, extra in (("flowedit", ["--x0", "0"]), ("sample", [])):
        code, stdout, stderr = run_cli(capsys, command, "--oracle", "delta", "--seed", "0", "--config", str(cfg), *extra)
        assert (code, stdout) == (1, ""), command
        assert stderr.startswith("error: ValueError:") and stderr.count("\n") == 1, command


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(voxedit.FlowEditConfig)])
def test_every_flow_config_field_is_set_by_a_flag_and_by_config(tmp_path, name):
    # the flag dests and the --config keys are one name set: the config's fields
    parser = build_parser()
    commands = next(a for a in parser._actions if hasattr(a, "choices") and a.choices).choices
    flag = next(a.option_strings[0] for a in commands["flowedit"]._actions if a.dest == name)
    value = getattr(voxedit.FlowEditConfig(), name) + 1
    expected = dataclasses.replace(voxedit.FlowEditConfig(rng_seed=9), **{name: value})
    argv = ["flowedit", "--oracle", "delta", "--x0", "0"]
    assert cli_module._flow_config(parser.parse_args([*argv, "--seed", "9", flag, str(value)])) == expected
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rng_seed": 9, name: value}))
    assert cli_module._flow_config(parser.parse_args([*argv, "--config", str(cfg)])) == expected


def test_flow_seed_comes_from_the_flag_else_the_config(tmp_path, capsys):
    seeded, unseeded = tmp_path / "seeded.json", tmp_path / "unseeded.json"
    seeded.write_text(json.dumps({"rng_seed": 4}))
    unseeded.write_text(json.dumps({"n_avg": 2}))
    for command, extra in (("flowedit", ["--x0", "0.5,-1"]), ("sample", [])):
        argv = [command, "--oracle", "gaussian", "--src-mean", "0,1", "--tgt-mean", "2,3", *extra]
        outputs = []
        for flags in (["--config", str(seeded)], ["--seed", "4"], ["--config", str(seeded), "--seed", "6"]):
            code, stdout, _ = run_cli(capsys, *argv, *flags)
            assert code == 0, (command, flags)
            outputs.append(stdout)
        by_config, by_flag, overridden = outputs
        assert by_config == by_flag and overridden != by_flag, command
        # no seed anywhere: a usage error, never a wall-clock seed
        for flags in ([], ["--config", str(unseeded)]):
            with pytest.raises(SystemExit) as exc:
                dispatch([*argv, *flags])
            assert exc.value.code == 2, (command, flags)
            assert "a seed is required" in capsys.readouterr().err


def test_flow_commands_take_seeds_in_the_same_range(capsys):
    """``flowedit`` and ``sample`` accept exactly the seeds in [0, 2**64), so
    no two seeds draw the same noise."""
    for command, extra in (("flowedit", ["--x0", "0.5,-1"]), ("sample", [])):
        argv = [command, "--oracle", "gaussian", "--src-mean", "0,1", "--tgt-mean", "2,3", *extra]
        for seed in (-1, 2**64, 2**64 + 3):
            result = run_cli(capsys, *argv, "--seed", str(seed))
            assert result == (1, "", f"error: ValueError: rng_seed must be in [0, 2**64), got {seed}\n"), command
        assert run_cli(capsys, *argv, "--seed", str(2**64 - 1))[0] == 0, command


def test_pipeline_run_command(tmp_path, capsys):
    manifests = {}
    for workers in ("1", "2"):
        code, stdout, _ = run_cli(
            capsys, "pipeline", "run", "--out-dir", str(tmp_path / f"run{workers}"),
            "--samples", "3", "--seed", "4", "--max-attempts", "2",
            "--resolution", "16", "--channels", "4", "--workers", workers,
        )
        assert code == 0
        manifests[workers] = Path(json.loads(stdout)["manifest"]).read_bytes()
    assert len(manifests["1"].decode().splitlines()) == 3
    # output bytes do not depend on the worker count
    assert manifests["2"] == manifests["1"]


def test_pipeline_run_rejects_bad_settings_before_writing(tmp_path, capsys):
    out_dir = tmp_path / "run"
    base = ("pipeline", "run", "--out-dir", str(out_dir), "--samples", "2", "--seed", "1",
            "--resolution", "16", "--channels", "4")
    code, _, _ = run_cli(capsys, *base)
    assert code == 0
    manifest = out_dir / "manifest.jsonl"
    before = manifest.read_bytes()
    for flags in (("--workers", "0"), ("--workers", "-2"), ("--resolution", "4"), ("--resolution", "65536"),
                  ("--channels", "0"), ("--max-attempts", "0"), ("--samples", "-1")):
        code, stdout, stderr = run_cli(capsys, *base, *flags)
        assert code == 1, flags
        assert stdout == "" and stderr.startswith("error:"), flags
        # the earlier run's manifest is neither truncated nor appended to
        assert manifest.read_bytes() == before, flags
    for resolution in ("4", "65536"):
        # past the largest grid, the backend is refused before any sample allocates R^3 cells
        code, _, stderr = run_cli(capsys, "pipeline", "run", "--out-dir", str(tmp_path / resolution),
                                  "--samples", "2", "--seed", "1", "--resolution", resolution)
        assert code == 1 and resolution in stderr
        assert not (tmp_path / resolution).exists()


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["unknown-subcommand"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        dispatch(["merge", "--bogus-flag", "x"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        dispatch([])
    assert exc.value.code == 2
    # slat-merge takes exactly one of --mask and --mask-all
    slat = ["slat-merge", "--src-slat", "a", "--tgt-slat", "b", "--merged", "c", "--out", "d"]
    for extra in ([], ["--mask", "m.json", "--mask-all"]):
        with pytest.raises(SystemExit) as exc:
            dispatch(slat + extra)
        assert exc.value.code == 2, extra


def test_merge_policy_flags_mutually_exclusive(capsys, tmp_path):
    # --tau 100 equals DEFAULT_TAU, which argparse would not count as given were it the default
    for command in (["merge", "--src", "a", "--tgt", "b", "--out", "c"],
                    ["pipeline", "run", "--out-dir", str(tmp_path / "p"), "--samples", "1", "--seed", "1"]):
        for tau in ("1", "100"):
            with pytest.raises(SystemExit) as exc:
                dispatch([*command, "--tau", tau, "--top-k", "2"])
            assert exc.value.code == 2, (command[0], tau)
    assert not (tmp_path / "p").exists()


def test_operation_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.nvx"
    bad.write_bytes(b"JUNKDATA")
    code, stdout, stderr = run_cli(capsys, "inspect", str(bad))
    assert code == 1
    assert stdout == ""
    assert "error" in stderr


def test_every_subcommand_help_documents_its_flags():
    parser = build_parser()
    sub_actions = [a for a in parser._actions if hasattr(a, "choices") and a.choices]
    for name, sub in sub_actions[0].choices.items():
        text = sub.format_help()
        for action in sub._actions:
            for opt in action.option_strings:
                if opt.startswith("--"):
                    assert opt in text, f"{name}: {opt} missing from --help"


def test_dispatch_reuses_its_parser_without_changing_results(tmp_path, capsys, monkeypatch):
    _, _, src_path, tgt_path = write_pair(tmp_path, seed=78)
    bad = tmp_path / "bad.nvx"
    bad.write_bytes(b"JUNKDATA")
    calls = [
        ["diff", "--src", str(src_path), "--tgt", str(tgt_path)],
        ["chamfer", "--a", str(src_path), "--b", str(tgt_path)],
        ["inspect", str(bad)],
        ["merge", "--src", "a", "--tgt", "b", "--out", "c", "--tau", "1", "--top-k", "2"],
        ["components", str(src_path), "--connectivity", "7"],
    ]

    def run_twice():
        results = []
        for argv in calls:
            for _ in range(2):
                try:
                    code = dispatch(argv)
                except SystemExit as exc:
                    code = ("exit", exc.code)
                captured = capsys.readouterr()
                results.append((code, captured.out, captured.err))
        return results

    shared = run_twice()
    monkeypatch.setattr(cli_module, "_parser", build_parser)  # a fresh parser per call
    assert run_twice() == shared
    assert [r[0] for r in shared] == [0, 0, 0, 0, 1, 1, ("exit", 2), ("exit", 2), ("exit", 2), ("exit", 2)]


def test_top_level_help_golden():
    golden = DATA / "help_top.txt"
    text = build_parser().format_help()
    assert text == golden.read_text()


def test_console_entry_point_runs():
    # the child imports the same voxedit as this process, wherever it came from
    package_root = str(Path(voxedit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "voxedit.cli", "flowedit", "--oracle", "delta",
         "--x0", "0", "--seed", "0"],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["output"][0] == pytest.approx(1.0, abs=1e-6)


COLD_START_CHILD = """
import contextlib, io, json, sys
from pathlib import Path

import voxedit, voxedit.cli
from voxedit import chamfer_voxels, diff_xor, label_components, read_nvx

d = Path(sys.argv[1])
commands = [
    ["--help"],
    ["voxelize", "--mesh", str(d / "in.obj"), "--resolution", "8", "--out", str(d / "v.nvx")],
    ["surface", str(d / "v.nvx"), "--out", str(d / "v.obj")],
    ["inspect", str(d / "src.nvx")],
    ["diff", "--src", str(d / "src.nvx"), "--tgt", str(d / "tgt.nvx"), "--out", str(d / "d.nvx")],
    ["components", str(d / "d.nvx"), "--connectivity", "6"],
    ["merge", "--src", str(d / "src.nvx"), "--tgt", str(d / "tgt.nvx"), "--out", str(d / "m2.nvx")],
    ["pipeline", "run", "--out-dir", str(d / "p"), "--samples", "1", "--seed", "1", "--resolution", "8"],
    ["slat-merge", "--src-slat", str(d / "zs.nvx"), "--tgt-slat", str(d / "zt.nvx"),
     "--merged", str(d / "m.nvx"), "--mask", str(d / "mask.json"), "--out", str(d / "zm.nvx")],
    ["consistency", "--src", str(d / "src.nvx"), "--tgt", str(d / "tgt.nvx"),
     "--merged", str(d / "m.nvx"), "--mask", str(d / "mask.json")],
]
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = voxedit.cli.dispatch(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    assert code == 0, argv

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

src, tgt = read_nvx(d / "src.nvx"), read_nvx(d / "tgt.nvx")
labels = {c: label_components(diff_xor(src, tgt), c) for c in (6, 18, 26)}
assert not scipy_modules(), scipy_modules()[:5]
result = {
    "labels": {c: [cs.sizes, cs.rank.tolist()] for c, cs in labels.items()},
    "chamfer": chamfer_voxels(src, tgt),
}
assert "scipy.spatial" in scipy_modules()
print(json.dumps(result))
"""


def test_commands_without_labels_or_trees_load_no_scipy(tmp_path):
    """Importing the package, running commands that query no KD-tree
    (``merge``, ``components`` and ``pipeline run`` among them) and
    labelling load no scipy module; the first Chamfer loads
    ``scipy.spatial``, and both return what this process computes."""
    rng = np.random.default_rng(75)
    src, tgt, src_path, tgt_path = write_pair(tmp_path, seed=75)
    for name, s in (("zs.nvx", src), ("zt.nvx", tgt)):
        write_nvx(make_latent(s.coords, rng.standard_normal((s.voxel_sum, 2)), 16), tmp_path / name)
    assert dispatch(["merge", "--src", str(src_path), "--tgt", str(tgt_path), "--tau", "3",
                     "--out", str(tmp_path / "m.nvx"), "--mask-out", str(tmp_path / "mask.json")]) == 0
    save_obj(extract_surface_mesh(make_sparse([(2, 2, 2), (2, 2, 3)], 8)), tmp_path / "in.obj")

    package_root = str(Path(voxedit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", COLD_START_CHILD, str(tmp_path)],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    got = json.loads(result.stdout)
    for c in (6, 18, 26):
        cs = label_components(diff_xor(src, tgt), c)
        assert got["labels"][str(c)] == [cs.sizes, cs.rank.tolist()]
    assert got["chamfer"] == chamfer_voxels(src, tgt)


scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text())
flat = st.one_of(scalars, st.lists(scalars, max_size=6))
values = st.one_of(flat, st.lists(st.lists(scalars, max_size=2), max_size=2),
                   st.dictionaries(st.text(max_size=3), scalars, max_size=2), st.tuples(scalars))


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.dictionaries(st.text(), flat, max_size=6),
                 st.dictionaries(st.one_of(st.text(), st.integers()), values, max_size=6), values))
@example({"a": [], "b": [1], "c": {}})
@example({"count": 0, "sizes": []})
def test_emit_writes_what_json_dump_indent_2_writes(obj):
    """Covers the fast path (str keys; scalars and flat scalar lists, empty
    ones too; NaN, infinities, escapes) and its fallbacks."""
    out = io.StringIO()
    with redirect_stdout(out):
        _emit(obj)
    assert out.getvalue() == json.dumps(obj, indent=2) + "\n"


def test_structure_and_latent_files_are_not_interchangeable(tmp_path, capsys):
    s = make_sparse([(0, 0, 0), (1, 1, 1)], 8)
    s_path, z_path = tmp_path / "s.nvx", tmp_path / "z.nvx"
    write_nvx(s, s_path)
    write_nvx(make_latent(s.coords, np.ones((2, 2)), 8), z_path)
    assert z_path.read_bytes()[4] == 1  # a latent is written as kind 1
    code, out, err = run_cli(capsys, "diff", "--src", str(z_path), "--tgt", str(s_path))
    assert (code, out, err) == (1, "", f"error: {z_path} holds a latent payload, expected occupancy\n")
    code, out, err = run_cli(capsys, "slat-merge", "--src-slat", str(s_path), "--tgt-slat", str(z_path),
                             "--merged", str(s_path), "--mask-all", "--out", str(tmp_path / "o.nvx"))
    assert (code, out, err) == (1, "", f"error: {s_path} holds an occupancy payload, expected latent\n")
