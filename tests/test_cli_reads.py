"""The CLI commands that read two or more files read them on two threads.

Each command must behave exactly as its body did when it read its inputs
in turn (``tests/oracles.py``, ``cmd_*_sequential``): same stdout, stderr,
exit code and files, whichever inputs are bad; and it must leave no
thread running behind it.
"""
import functools
import itertools
import threading
from pathlib import Path

import numpy as np
import pytest

import oracles
from oracles import random_structure_coords
from voxedit import cli as cli_module
from voxedit import Threshold, make_latent, make_sparse, read_nvx, slat_merge, voxel_merge, write_nvx
from voxedit.cli import _read_inputs, _read_mask, dispatch
from voxedit.nvx import encode_nvx


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_sequential(capsys, *argv):
    """``run_cli`` with the command's body replaced by its reads-in-turn oracle."""
    name = "cmd_" + argv[0].replace("-", "_")
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cli_module, name, getattr(oracles, name + "_sequential"))
        # the cached parser holds the command functions it was built with
        m.setattr(cli_module, "_parser", functools.cache(cli_module.build_parser))
        return run_cli(capsys, *argv)


def files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.fixture
def inputs(tmp_path, capsys):
    """Good input files of every kind a command reads, in ``tmp_path/in``."""
    d = tmp_path / "in"
    d.mkdir()
    rng = np.random.default_rng(90)
    src = make_sparse(random_structure_coords(rng, 16, 0.08), 16)
    tgt = make_sparse(random_structure_coords(rng, 16, 0.08), 16)
    for name, payload in (("src.nvx", src), ("tgt.nvx", tgt),
                          ("zs.nvx", make_latent(src.coords, rng.standard_normal((src.voxel_sum, 3)), 16)),
                          ("zt.nvx", make_latent(tgt.coords, rng.standard_normal((tgt.voxel_sum, 3)), 16))):
        write_nvx(payload, d / name)
    code, _, _ = run_cli(capsys, "merge", "--src", str(d / "src.nvx"), "--tgt", str(d / "tgt.nvx"), "--tau", "2",
                         "--out", str(d / "merged.nvx"), "--mask-out", str(d / "mask.json"))
    assert code == 0
    return d


# each multi-input command: its input flags with a good file for each, and its other flags
COMMANDS = {
    "diff": ((("--src", "src.nvx"), ("--tgt", "tgt.nvx")), ("--out", "{out}/d.nvx")),
    "merge": ((("--src", "src.nvx"), ("--tgt", "tgt.nvx")),
              ("--tau", "2", "--out", "{out}/m.nvx", "--mask-out", "{out}/mask.json")),
    "slat-merge": ((("--src-slat", "zs.nvx"), ("--tgt-slat", "zt.nvx"), ("--merged", "merged.nvx"),
                    ("--mask", "mask.json")), ("--out", "{out}/z.nvx")),
    # every merged voxel takes the target's latent, so the target's coords are merged
    "slat-merge --mask-all": ((("--src-slat", "zs.nvx"), ("--tgt-slat", "zt.nvx"), ("--merged", "tgt.nvx")),
                              ("--mask-all", "--out", "{out}/z.nvx")),
    "chamfer": ((("--a", "src.nvx"), ("--b", "tgt.nvx")), ()),
    "consistency": ((("--src", "src.nvx"), ("--tgt", "tgt.nvx"), ("--merged", "merged.nvx"),
                     ("--mask", "mask.json")), ()),
}
BAD = ("missing", "corrupt", "wrong-kind")


def bad_input(d: Path, flag: str, good: str, how: str) -> Path:
    """A bad file in place of the good file ``good`` for one input flag,
    named after the flag so that an error message says which input it is."""
    path = d / f"{how}{flag}"
    if how == "missing":
        return path
    mask = good.endswith(".json")
    if how == "corrupt":
        if mask:
            data = (d / good).read_bytes()[:-3]  # truncated JSON
        else:
            data = bytearray((d / good).read_bytes())
            data[len(data) // 2] ^= 0x40  # the CRC no longer matches
            data = bytes(data)
    elif mask:
        data = b"[]\n"  # JSON, but not a mask report
    else:  # occupancy for a latent and the other way round
        data = (d / ("src.nvx" if good.startswith("z") else "zs.nvx")).read_bytes()
    path.write_bytes(data)
    return path


def bad_sets(n_inputs: int):
    """Every way to make none, one or two of ``n_inputs`` inputs bad, as
    {input position: how it is bad}."""
    for n_bad in (0, 1, 2):
        for slots in itertools.combinations(range(n_inputs), n_bad):
            for hows in itertools.product(BAD, repeat=n_bad):
                yield dict(zip(slots, hows))


def command_argv(command: str, paths, out: Path) -> list:
    """``command``'s arguments with ``paths`` as its inputs, in order."""
    name, *rest = command.split()
    reads, flags = COMMANDS[command]
    return [name, *itertools.chain.from_iterable((flag, str(p)) for (flag, _), p in zip(reads, paths)),
            *(f.format(out=out) for f in flags), *rest]


@pytest.mark.parametrize("command", COMMANDS)
def test_every_pair_of_bad_inputs_reports_what_reading_in_turn_reports(command, inputs, tmp_path, capsys):
    reads = COMMANDS[command][0]
    out = tmp_path / "out"
    out.mkdir()
    n = 0
    for bad in bad_sets(len(reads)):
        paths = [bad_input(inputs, flag, good, bad[slot]) if slot in bad else inputs / good
                 for slot, (flag, good) in enumerate(reads)]
        argv = command_argv(command, paths, out)
        expected = run_sequential(capsys, *argv), files(out)
        for p in out.iterdir():
            p.unlink()
        got = run_cli(capsys, *argv), files(out)
        for p in out.iterdir():
            p.unlink()
        assert got == expected, bad
        # the all-good case succeeds; any bad input is an operation error
        assert expected[0][0] == (1 if bad else 0), bad
        if len(bad) == 1:  # the error names the bad file
            assert str(paths[next(iter(bad))]) in got[0][2], bad
        n += 1
    assert n == 1 + len(reads) * 3 + len(reads) * (len(reads) - 1) // 2 * 9


def test_slat_merge_reports_the_first_bad_input_in_argument_order(inputs, tmp_path, capsys):
    # the helper reads --tgt-slat while this thread fails on --merged first
    tgt_slat = bad_input(inputs, "--tgt-slat", "zt.nvx", "corrupt")
    result = run_cli(capsys, "slat-merge", "--src-slat", str(inputs / "zs.nvx"), "--tgt-slat", str(tgt_slat),
                     "--merged", str(tmp_path / "no-such.nvx"), "--mask", str(inputs / "mask.json"),
                     "--out", str(tmp_path / "z.nvx"))
    assert result == (1, "", f"error: {tgt_slat}: payload does not match stored CRC32\n")
    assert not (tmp_path / "z.nvx").exists()


def test_merge_to_an_unwritable_out_writes_no_mask(inputs, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "m.nvx").mkdir()  # --out names a directory
    argv = ["merge", "--src", str(inputs / "src.nvx"), "--tgt", str(inputs / "tgt.nvx"),
            "--out", str(out / "m.nvx"), "--mask-out", str(out / "mask.json")]
    expected = run_sequential(capsys, *argv)
    assert not (out / "mask.json").exists()
    got = run_cli(capsys, *argv)
    assert got == expected
    assert got[0] == 1 and got[1] == "" and str(out / "m.nvx") in got[2]
    assert not (out / "mask.json").exists()


def test_read_inputs_returns_in_order_and_raises_the_first_failure():
    def fail(name):
        raise ValueError(name)

    reads = [lambda k=k: k for k in range(5)]
    assert _read_inputs() == []
    assert _read_inputs(*reads) == [0, 1, 2, 3, 4]
    on_helper = []
    _read_inputs(*(lambda k=k: on_helper.append((k, threading.current_thread() is not threading.main_thread()))
                   for k in range(5)))
    assert sorted(on_helper) == [(0, False), (1, True), (2, False), (3, True), (4, False)]
    for failing in itertools.chain.from_iterable(itertools.combinations(range(5), n) for n in (1, 2, 3)):
        with pytest.raises(ValueError) as exc:
            _read_inputs(*(functools.partial(fail, k) if k in failing else reads[k] for k in range(5)))
        assert str(exc.value) == str(failing[0]), failing


@pytest.mark.parametrize("command", COMMANDS)
def test_commands_leave_no_thread_behind(command, inputs, tmp_path, capsys, monkeypatch):
    reads = COMMANDS[command][0]
    out = tmp_path / "out"
    out.mkdir()
    argv = command_argv(command, [inputs / good for _, good in reads], out)
    baseline = threading.active_count()
    assert run_cli(capsys, *argv)[0] == 0
    assert threading.active_count() == baseline
    broken = argv.copy()
    broken[2] = str(tmp_path / "no-such-file")
    assert run_cli(capsys, *broken)[0] == 1
    assert threading.active_count() == baseline

    real_nvx, real_json = cli_module.read_nvx, cli_module._read_json_object
    for flag, good in reads:  # an interrupt inside each read, on either thread
        victim = str(inputs / good)

        def interrupted(real):
            def read(path, *rest):
                if str(path) == victim:
                    raise KeyboardInterrupt
                return real(path, *rest)
            return read

        monkeypatch.setattr(cli_module, "read_nvx", interrupted(real_nvx))
        monkeypatch.setattr(cli_module, "_read_json_object", interrupted(real_json))
        with pytest.raises(KeyboardInterrupt):
            dispatch(argv)
        assert threading.active_count() == baseline, flag
    capsys.readouterr()


def test_merge_write_interrupted_leaves_no_thread_and_no_report(inputs, tmp_path, monkeypatch):
    def write_nvx_interrupted(payload, path):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli_module, "write_nvx", write_nvx_interrupted)
    baseline = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        dispatch(["merge", "--src", str(inputs / "src.nvx"), "--tgt", str(inputs / "tgt.nvx"),
                  "--out", str(tmp_path / "m.nvx"), "--mask-out", str(tmp_path / "mask.json")])
    assert threading.active_count() == baseline
    assert not (tmp_path / "mask.json").exists()


def test_merge_then_slat_merge_write_the_library_chain_bytes(tmp_path, capsys):
    rng = np.random.default_rng(91)
    paths = {name: tmp_path / f"{name}.nvx" for name in ("src", "tgt", "zs", "zt", "merged", "z")}
    src = make_sparse(random_structure_coords(rng, 32, 0.1), 32)
    tgt = make_sparse(random_structure_coords(rng, 32, 0.1), 32)
    for name, payload in (("src", src), ("tgt", tgt),
                          ("zs", make_latent(src.coords, rng.standard_normal((src.voxel_sum, 8)), 32)),
                          ("zt", make_latent(tgt.coords, rng.standard_normal((tgt.voxel_sum, 8)), 32))):
        write_nvx(payload, paths[name])
    mask_path = tmp_path / "mask.json"
    assert run_cli(capsys, "merge", "--src", str(paths["src"]), "--tgt", str(paths["tgt"]), "--tau", "3",
                   "--out", str(paths["merged"]), "--mask-out", str(mask_path))[0] == 0
    assert run_cli(capsys, "slat-merge", "--src-slat", str(paths["zs"]), "--tgt-slat", str(paths["zt"]),
                   "--merged", str(paths["merged"]), "--mask", str(mask_path), "--out", str(paths["z"]))[0] == 0

    merged, mask = voxel_merge(read_nvx(paths["src"]), read_nvx(paths["tgt"]), policy=Threshold(3))
    assert mask.voxel_sum > 0
    assert paths["merged"].read_bytes() == encode_nvx(merged)
    assert np.array_equal(_read_mask(mask_path).coords, mask.coords)
    expected = slat_merge(read_nvx(paths["zs"]), read_nvx(paths["zt"]), mask, merged)
    assert paths["z"].read_bytes() == encode_nvx(expected)
