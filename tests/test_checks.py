"""Every count and scale that a caller, a flag or a file supplies is checked
by one rule, ``grid.check_int`` or ``grid.check_real``: a bool, a string,
a non-integral or non-finite number, or a value out of range raises an
error that names the field, and is never truncated or parsed."""
import ast
import json
from pathlib import Path

import numpy as np
import pytest

from voxedit import grid
from voxedit.errors import ChannelMismatch
from voxedit.flow import FlowEditConfig, linear_schedule
from voxedit.grid import check_int, check_real, check_resolution
from voxedit.merge import Threshold, TopK
from voxedit.pipeline import ManifestRecord, MockGeneratorBackend, SampleSpec, mock_backend_suite, record_to_line, \
    run_pipeline, run_sample

NOT_INTEGERS = (True, False, 1.5, "3", float("nan"), float("inf"), None)
NOT_REALS = (True, False, "3", float("nan"), float("inf"), -float("inf"), None)

SUITE = mock_backend_suite(16, 4)
SPEC = SampleSpec(id="s", image_ref="mock-image://checks/0", seed=1)

# (field named in the error, a call with the value at the site, an integer
# out of the site's range, the error that integer raises)
INT_SITES = {
    "FlowEditConfig.steps": ("steps", lambda v, d: FlowEditConfig(steps=v), 0, ValueError),
    "FlowEditConfig.n_max": ("n_max", lambda v, d: FlowEditConfig(n_max=v), 26, ValueError),
    "FlowEditConfig.n_min": ("n_min", lambda v, d: FlowEditConfig(n_min=v), 16, ValueError),
    "FlowEditConfig.n_avg": ("n_avg", lambda v, d: FlowEditConfig(n_avg=v), 0, ValueError),
    "FlowEditConfig.rng_seed": ("rng_seed", lambda v, d: FlowEditConfig(rng_seed=v), 2**64, ValueError),
    "linear_schedule": ("steps", lambda v, d: linear_schedule(v), 0, ValueError),
    "TopK": ("k", lambda v, d: TopK(v), -1, ValueError),
    "Threshold": ("tau", lambda v, d: Threshold(v), -1, ValueError),
    "TopK.connectivity": ("connectivity", lambda v, d: TopK(1, v), 7, ValueError),
    "Threshold.connectivity": ("connectivity", lambda v, d: Threshold(connectivity=v), 7, ValueError),
    "ManifestRecord.attempt": ("attempt", lambda v, d: ManifestRecord(id="s", attempt=v), 0, ValueError),
    "MockGeneratorBackend": ("channel", lambda v, d: MockGeneratorBackend(resolution=8, channels=v), 0,
                             ChannelMismatch),
    "check_resolution": ("resolution", lambda v, d: check_resolution(v), 1, ValueError),
    "run_sample": ("max_attempts", lambda v, d: run_sample(SPEC, SUITE, d, max_attempts=v), 0, ValueError),
    "run_pipeline.n_samples": ("n_samples", lambda v, d: run_pipeline(d, v, backends=SUITE), -1, ValueError),
    "run_pipeline.workers": ("workers", lambda v, d: run_pipeline(d, 1, backends=SUITE, workers=v), 0,
                             ValueError),
    "run_pipeline.max_attempts": ("max_attempts", lambda v, d: run_pipeline(d, 1, backends=SUITE, max_attempts=v),
                                  0, ValueError),
}


@pytest.mark.parametrize("site", INT_SITES)
def test_every_integer_site_rejects_what_is_not_an_integer_in_range(site, tmp_path):
    field, call, out_of_range, range_error = INT_SITES[site]
    out_dir = tmp_path / "out"
    for value in NOT_INTEGERS:
        with pytest.raises(ValueError, match=field):
            call(value, out_dir)
    with pytest.raises(range_error, match=field):
        call(out_of_range, out_dir)
    # nothing is written before the check
    assert not out_dir.exists()


def test_a_checked_int_is_stored_as_an_int():
    config = FlowEditConfig(steps=np.int64(25), n_max=np.int32(15), n_min=np.uint8(2), n_avg=np.int16(3),
                            rng_seed=np.uint64(7))
    assert {type(getattr(config, name)) for name in ("steps", "n_max", "n_min", "n_avg", "rng_seed")} == {int}
    assert json.dumps(Threshold(np.uint8(7), np.int64(6)).describe()) == \
        '{"kind": "threshold", "tau": 7, "connectivity": 6}'
    assert json.dumps(TopK(np.int64(1)).describe()) == '{"kind": "top_k", "k": 1, "connectivity": 26}'
    assert '"attempt":2,' in record_to_line(ManifestRecord(id="a", attempt=np.int64(2)))


def bare_check_int_calls(source: str) -> list:
    """Line numbers of the ``check_int(...)`` calls in ``source`` that are
    statements on their own, so the int they return is thrown away."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "id", getattr(node.value.func, "attr", None)) == "check_int"]


def test_no_check_int_call_throws_its_int_away():
    """The int that ``check_int`` returns is the one a site stores or uses:
    a bare call would keep the caller's value, a numpy integer say, which
    ``json`` cannot write."""
    stray = "n = check_int('n', n, 0)\ncheck_int('n', n, 0)\nf(check_int('n', n, 0))\ngrid.check_int('k', k, 0)\n"
    assert bare_check_int_calls(stray) == [2, 4]
    package = Path(grid.__file__).parent
    found = {path.name: bare_check_int_calls(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


@pytest.mark.parametrize("field", ("cfg_source_scale", "cfg_target_scale", "lambda_src"))
def test_every_real_site_rejects_what_is_not_a_finite_real(field):
    for value in NOT_REALS:
        with pytest.raises(ValueError, match=field):
            FlowEditConfig(**{field: value})
    for value in (1.5, -2, np.float32(0.25)):
        FlowEditConfig(**{field: value})


def test_check_int_bounds_are_inclusive_and_may_be_open():
    assert check_int("n", 3, 3, 3) == 3
    assert type(check_int("n", np.int64(7), 0)) is int
    assert check_int("n", -(2**70), None) == -(2**70)
    for value, lo, hi in ((2, 3, None), (4, 3, 3), (-1, 0, 2**64 - 1)):
        with pytest.raises(ValueError, match=f"^n must be an integer .*, got {value}$"):
            check_int("n", value, lo, hi)
    with pytest.raises(ValueError, match=r"^n must be an integer in \[2, 65535\], got 1$"):
        check_int("n", 1, 2, 65535)
    with pytest.raises(ValueError, match="^n must be an integer, got '8'$"):
        check_int("n", "8", None)


def test_check_real_returns_a_float():
    for value in (1, 1.5, np.float64(-3.0), np.int32(2)):
        got = check_real("x", value)
        assert type(got) is float and got == value
    for value in NOT_REALS:
        with pytest.raises(ValueError, match="^x must be a finite real number, got "):
            check_real("x", value)


def test_only_the_grid_module_imports_numbers():
    """The rule for counts and scales stays in one place: no other module
    tests ``numbers.Integral`` or ``numbers.Real`` by hand."""
    package = Path(grid.__file__).parent
    importers = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if "numbers" in names:
                importers.add(path.name)
    assert importers == {"grid.py"}
