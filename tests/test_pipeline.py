import json
import threading
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from voxedit import (
    ChannelMismatch,
    EmptySlot,
    ManifestRecord,
    MissingSlot,
    SlotSyntaxError,
    Threshold,
    UnknownAction,
    append_record,
    load_manifest,
    make_sparse,
    mock_backend_suite,
    read_nvx,
    region_consistency,
    render_instruction,
    run_pipeline,
    run_sample,
    voxel_merge,
)
from voxedit.merge import apply_flip, diff_xor, label_components, select_components, TopK
from voxedit import pipeline
from voxedit.pipeline import (
    MockFilterBackend,
    MockGeneratorBackend,
    MockImageEditor,
    MockInstructionBackend,
    SampleSpec,
    derive_seed,
    record_to_line,
)
from oracles import run_pipeline_sequential, run_sample_sequential


# --- instruction templating ---------------------------------------------


def test_render_add():
    ins = render_instruction("add", {"element": "a red hat", "location": "the cat's head"})
    assert ins.rendered == "Add a red hat to the cat's head"


def test_render_remove():
    ins = render_instruction("remove", {"target": "the left wing"})
    assert ins.rendered == "Remove the left wing"


def test_render_replace():
    ins = render_instruction("replace", {"original": "the sword", "replacement": "a torch"})
    assert ins.rendered == "Replace the sword with a torch"


def test_render_errors():
    with pytest.raises(UnknownAction):
        render_instruction("recolor", {})
    with pytest.raises(MissingSlot):
        render_instruction("add", {"element": "a flag"})
    with pytest.raises(EmptySlot):
        render_instruction("add", {"element": "", "location": "roof"})
    with pytest.raises(EmptySlot):
        render_instruction("remove", {"target": "   "})
    with pytest.raises(SlotSyntaxError):
        render_instruction("remove", {"target": "a\nb"})
    with pytest.raises(MissingSlot):
        render_instruction("remove", {"target": "x", "bogus": "y"})


def test_slots_holding_the_separator_phrase_round_trip(tmp_path):
    path = tmp_path / "m.jsonl"
    records = []
    for action, slots, rendered in [
        ("add", {"element": "a door", "location": "next to the stairs"}, "Add a door to next to the stairs"),
        ("replace", {"original": "the lid", "replacement": "a lid with holes"}, "Replace the lid with a lid with holes"),
    ]:
        ins = render_instruction(action, slots)
        assert ins.rendered == rendered
        records.append(ManifestRecord(id=action, status="failed", instruction=ins))
        append_record(path, records[-1])
    assert path.read_text() == "".join(map(record_to_line, records))
    assert load_manifest(path) == (records, [])


# --- manifest codec -----------------------------------------------------


def sample_record(i=0, status="ok"):
    return ManifestRecord(
        id=f"sample-{i:06d}",
        status=status,
        attempt=1,
        instruction=render_instruction("remove", {"target": "the fin"}),
        source_image="mock-image://0/000000",
        edited_image="mock-image://0/000000::edit::abc",
        source_structure="a.src.nvx",
        edited_structure="a.tgt.nvx",
        merged_structure="a.merged.nvx",
        source_slat="a.src_slat.nvx",
        merged_slat="a.merged_slat.nvx",
        voxel_sum_src=10,
        voxel_sum_tgt=12,
        mask_component_sizes=[5, 2],
        mask_selected_sizes=[5],
        policy={"kind": "threshold", "tau": 3, "connectivity": 26},
        filter_reason="mock filter accepted",
    )


def test_manifest_round_trip(tmp_path):
    path = tmp_path / "m.jsonl"
    records = [sample_record(i) for i in range(3)]
    for r in records:
        append_record(path, r)
    loaded, malformed = load_manifest(path)
    assert malformed == []
    assert loaded == records


def test_manifest_malformed_line_reported(tmp_path):
    path = tmp_path / "m.jsonl"
    for i in range(10):
        append_record(path, sample_record(i))
    lines = path.read_text().splitlines()
    lines[4] = '{"id": "broken", not json'
    path.write_text("\n".join(lines) + "\n")
    loaded, malformed = load_manifest(path)
    assert len(loaded) == 9
    assert len(malformed) == 1
    assert malformed[0].line_no == 5


def test_manifest_lines_whose_attempt_is_not_a_count_are_malformed(tmp_path):
    path = tmp_path / "m.jsonl"
    good = json.loads(record_to_line(sample_record()))
    lines = [json.dumps(good | {"attempt": bad}) for bad in (1.5, True, "2", 0)]
    path.write_text("\n".join([json.dumps(good), *lines]) + "\n")
    loaded, malformed = load_manifest(path)
    assert loaded == [sample_record()]
    assert [m.line_no for m in malformed] == [2, 3, 4, 5]
    assert all("attempt" in m.message for m in malformed)


def test_manifest_unknown_fields_preserved(tmp_path):
    path = tmp_path / "m.jsonl"
    obj = json.loads(record_to_line(sample_record()))
    obj["custom_annotation"] = {"score": 0.5}
    path.write_text(json.dumps(obj, separators=(",", ":")) + "\n")
    loaded, malformed = load_manifest(path)
    assert not malformed
    assert loaded[0].extra == {"custom_annotation": {"score": 0.5}}
    rewritten = record_to_line(loaded[0])
    assert json.loads(rewritten)["custom_annotation"] == {"score": 0.5}


def test_manifest_rewrite_is_byte_stable(tmp_path):
    path = tmp_path / "m.jsonl"
    rng = np.random.default_rng(60)
    statuses = ["ok", "filtered", "failed"]
    for i in range(500):
        append_record(path, sample_record(i, status=statuses[int(rng.integers(3))]))
    original = path.read_bytes()
    loaded, _ = load_manifest(path)
    rewrite = tmp_path / "m2.jsonl"
    for r in loaded:
        append_record(rewrite, r)
    assert rewrite.read_bytes() == original


# --- mock backends ---------------------------------------------------------


def test_mock_generator_is_deterministic():
    gen = MockGeneratorBackend(resolution=16, channels=4)
    s1, z1 = gen.generate("img-token", seed=5)
    s2, z2 = gen.generate("img-token", seed=5)
    assert s1 == s2
    assert z1 == z2
    assert np.array_equal(z1.coords, s1.coords)


def test_mock_generator_edit_token_plants_changes():
    gen = MockGeneratorBackend(resolution=16, channels=4)
    s_base, _ = gen.generate("img-token", seed=5)
    s_edit, _ = gen.generate("img-token::edit::deadbeef", seed=5)
    d = diff_xor(s_base, s_edit)
    assert d.voxel_sum > 0


def test_mock_generator_rejects_more_channels_than_nvx_stores():
    # NVX stores the channel count as a u16: past it, the backend is refused before any sample runs
    with pytest.raises(ChannelMismatch, match="65535"):
        MockGeneratorBackend(resolution=8, channels=0x10000)
    assert MockGeneratorBackend(resolution=8, channels=0xFFFF).channels == 0xFFFF


def test_mock_filter_rejects_an_empty_script():
    # it would raise IndexError at every judge, failing every sample at the filter stage
    for verdicts in ((), []):
        with pytest.raises(ValueError, match="at least one verdict"):
            mock_backend_suite(8, 1, verdicts=verdicts)


def test_mock_generator_rejects_grids_too_small_for_the_edit():
    # too small for the edit, past the largest grid, or not an integer: refused before any R^3 allocation
    for resolution in (7, 65536, 16.5):
        with pytest.raises(ValueError):
            MockGeneratorBackend(resolution=resolution, channels=4)
    with pytest.raises(ChannelMismatch):
        MockGeneratorBackend(resolution=16, channels=0)
    # the smallest allowed grid holds every planted edit box
    gen = MockGeneratorBackend(resolution=8, channels=1)
    for k in range(20):
        s_edit, z_edit = gen.generate(f"img-{k}::edit::{k:08x}", seed=k)
        assert s_edit.resolution == 8 and z_edit.channels == 1


@pytest.mark.parametrize("draw_rows", [pipeline._DRAW_ROWS, 5])
def test_chunked_mock_draw_equals_one_draw(monkeypatch, draw_rows):
    monkeypatch.setattr(pipeline, "_DRAW_ROWS", draw_rows)
    # no rows, one below, at and one above the chunk size, and three chunks and a bit
    for rows, channels in product((0, draw_rows - 1, draw_rows, draw_rows + 1, 3 * draw_rows + 2), (1, 3)):
        got = pipeline._standard_normal_f32(pipeline._rng(11), rows, channels)
        want = pipeline._rng(11).standard_normal((rows, channels)).astype(np.float32)
        assert got.shape == want.shape and got.dtype == np.float32
        assert got.tobytes() == want.tobytes()


def test_derive_seed_is_stable():
    assert derive_seed("a", 1) == derive_seed("a", 1)
    assert derive_seed("a", 1) != derive_seed("a", 2)


# --- run_sample -------------------------------------------------------------


def test_run_sample_ok_first_attempt(tmp_path):
    suite = mock_backend_suite(resolution=16, channels=4)
    spec = SampleSpec(id="sample-000000", image_ref="mock-image://t/0", seed=123)
    record = run_sample(spec, suite, tmp_path, merge_policy=Threshold(20), max_attempts=3)
    assert record.status == "ok"
    assert record.attempt == 1
    assert record.voxel_sum_src == read_nvx(tmp_path / record.source_structure).voxel_sum
    assert record.voxel_sum_tgt == read_nvx(tmp_path / record.edited_structure).voxel_sum
    # stored artifacts reproduce a perfectly consistent merge
    s_src = read_nvx(tmp_path / record.source_structure)
    s_tgt = read_nvx(tmp_path / record.edited_structure)
    merged = read_nvx(tmp_path / record.merged_structure)
    cs = label_components(diff_xor(s_src, s_tgt), record.policy["connectivity"])
    mask = select_components(cs, Threshold(record.policy["tau"]))
    assert apply_flip(s_src, mask) == merged
    report = region_consistency(s_src, s_tgt, merged, mask)
    assert report.ok()
    # latent provenance outside the mask: bitwise from the stored source slat
    z_src = read_nvx(tmp_path / record.source_slat)
    z_merged = read_nvx(tmp_path / record.merged_slat)
    mask_set = set(map(tuple, mask.coords.tolist()))
    src_index = {tuple(c): i for i, c in enumerate(z_src.coords.tolist())}
    for i, coord in enumerate(map(tuple, z_merged.coords.tolist())):
        if coord not in mask_set:
            assert z_merged.latents[i].tobytes() == z_src.latents[src_index[coord]].tobytes()


def test_run_sample_reject_then_accept(tmp_path):
    suite = mock_backend_suite(resolution=16, channels=4, verdicts=(False, True))
    spec = SampleSpec(id="s", image_ref="mock-image://t/1", seed=7)
    record = run_sample(spec, suite, tmp_path, max_attempts=2)
    assert record.status == "ok"
    assert record.attempt == 2


def test_run_sample_always_reject(tmp_path):
    suite = mock_backend_suite(resolution=16, channels=4, verdicts=(False,))
    spec = SampleSpec(id="s", image_ref="mock-image://t/2", seed=7)
    record = run_sample(spec, suite, tmp_path, max_attempts=3)
    assert record.status == "filtered"
    assert record.attempt == 3
    assert record.filter_reason == "mock filter rejected"


def test_run_sample_backend_failure_tagged(tmp_path):
    suite = mock_backend_suite(resolution=16, channels=4)

    class Boom:
        def edit(self, image_ref, instruction, seed):
            raise RuntimeError("edit service down")

    suite.image_editor = Boom()
    spec = SampleSpec(id="s", image_ref="mock-image://t/3", seed=7)
    record = run_sample(spec, suite, tmp_path, max_attempts=2)
    assert record.status == "failed"
    assert record.error.startswith("image_edit:")
    assert record.merged_structure is None  # no partial-ok artifacts recorded


def _failing_suite(spec, attempt, stages):
    """Mock backends whose ``stages`` fail at ``attempt`` of ``spec``; the
    filter rejects attempt 1, so at ``max_attempts`` 2 the failure comes
    after a whole filtered attempt.  ``voxel_merge`` and ``slat_merge``
    fail through a target of another resolution or channel count."""
    seeds = {stage: derive_seed(spec.seed, attempt, stage)
             for stage in ("instruction", "generate_source", "image_edit", "generate_target")}

    def fails(stage, seed):
        return stage in stages and seed == seeds[stage]

    class Instruction(MockInstructionBackend):
        def propose(self, image_ref, seed):
            if fails("instruction", seed):
                raise RuntimeError("instruction service down")
            return super().propose(image_ref, seed)

    class Editor(MockImageEditor):
        def edit(self, image_ref, instruction, seed):
            if fails("image_edit", seed):
                raise RuntimeError("edit service down")
            return super().edit(image_ref, instruction, seed)

    class Generator(MockGeneratorBackend):
        def generate(self, image_ref, seed):
            if fails("generate_source", seed) or fails("generate_target", seed):
                raise RuntimeError(f"generator down for {image_ref}")
            if seed == seeds["generate_target"] and "voxel_merge" in stages:
                return MockGeneratorBackend(8, 4).generate(image_ref, seed)
            if seed == seeds["generate_target"] and "slat_merge" in stages:
                return MockGeneratorBackend(16, 3).generate(image_ref, seed)
            return super().generate(image_ref, seed)

    class Filter(MockFilterBackend):
        def judge(self, record):
            if "filter" in stages and record.attempt == attempt:
                raise RuntimeError("judge down")
            return super().judge(record)

    return pipeline.BackendSuite(Instruction(), Editor(), Generator(16, 4), Filter((False, True)))


_ARTIFACT_SUFFIXES = ("src", "tgt", "merged", "src_slat", "merged_slat")


@pytest.mark.parametrize("max_attempts", [1, 2])
@pytest.mark.parametrize("stages, reported", [
    (("instruction",), "instruction"),
    (("generate_source",), "generate_source"),
    (("image_edit",), "image_edit"),
    (("generate_target",), "generate_target"),
    (("voxel_merge",), "voxel_merge"),
    (("slat_merge",), "slat_merge"),
    (("filter",), "filter"),
    (("generate_source", "image_edit"), "generate_source"),
    (("generate_source", "generate_target"), "generate_source"),
    *((("write_artifacts", suffix), "write_artifacts") for suffix in _ARTIFACT_SUFFIXES),
])
def test_run_sample_failure_equals_the_sequential_oracle(tmp_path, monkeypatch, stages, reported, max_attempts):
    spec = SampleSpec(id="s", image_ref="mock-image://t/5", seed=13)
    records = []
    for name, run in (("concurrent", run_sample), ("sequential", run_sample_sequential)):
        # the same relative out_dir for both, since a failed write's message names its path
        work_dir = tmp_path / name
        work_dir.mkdir()
        monkeypatch.chdir(work_dir)
        out_dir = Path("out")
        if "write_artifacts" in stages:
            # a directory where one artifact goes makes its write fail
            (out_dir / f"{spec.id}.{stages[1]}.nvx").mkdir(parents=True)
        suite = _failing_suite(spec, max_attempts, stages)
        records.append(run(spec, suite, out_dir, max_attempts=max_attempts))
    concurrent, sequential = records
    assert concurrent.status == "failed" and concurrent.error.startswith(f"{reported}:"), concurrent.error
    assert record_to_line(concurrent) == record_to_line(sequential)


def test_no_thread_outlives_a_run(tmp_path):
    raised_on = []

    class InterruptSource(MockGeneratorBackend):
        def generate(self, image_ref, seed):
            if "::edit::" not in image_ref:
                raised_on.append(threading.current_thread())
                raise KeyboardInterrupt
            return super().generate(image_ref, seed)

    class Boom(MockImageEditor):
        def edit(self, image_ref, instruction, seed):
            raise RuntimeError("edit service down")

    baseline = threading.active_count()
    spec = SampleSpec(id="s", image_ref="mock-image://t/6", seed=17)
    for case in ("ok", "failed", "interrupt"):
        suite = mock_backend_suite(16, 4)
        if case == "failed":
            suite.image_editor = Boom()
        if case == "interrupt":
            suite.generator = InterruptSource(16, 4)
            with pytest.raises(KeyboardInterrupt):
                run_sample(spec, suite, tmp_path / case, max_attempts=2)
        else:
            assert run_sample(spec, suite, tmp_path / case, max_attempts=2).status == case
        assert threading.active_count() == baseline, case
        for workers in (1, 2):
            out_dir = tmp_path / f"{case}-run{workers}"
            if case == "interrupt":
                with pytest.raises(KeyboardInterrupt):
                    run_pipeline(out_dir, n_samples=4, seed=1, workers=workers, backends=suite)
            else:
                run_pipeline(out_dir, n_samples=4, seed=1, workers=workers, backends=suite)
            assert threading.active_count() == baseline, (case, workers)
    # the interrupt came from the helper thread, not from the thread that called run_sample
    assert raised_on and threading.main_thread() not in raised_on


def test_every_attempt_of_a_sample_generates_its_source_on_one_helper_thread(tmp_path):
    idents = []

    class RecordingGenerator(MockGeneratorBackend):
        def generate(self, image_ref, seed):
            if "::edit::" not in image_ref:
                idents.append(threading.get_ident())
            return super().generate(image_ref, seed)

    suite = mock_backend_suite(resolution=16, channels=4, verdicts=(False, False, True))
    suite.generator = RecordingGenerator(16, 4)
    record = run_sample(SampleSpec(id="s", image_ref="mock-image://t/8", seed=19), suite, tmp_path, max_attempts=3)
    assert record.status == "ok" and record.attempt == 3
    assert len(idents) == 3 and len(set(idents)) == 1
    assert idents[0] != threading.main_thread().ident


def test_run_sample_attempts_differ(tmp_path):
    # the re-sampled attempt must draw a fresh instruction
    suite = mock_backend_suite(resolution=16, channels=4, verdicts=(False, True))
    spec = SampleSpec(id="s", image_ref="mock-image://t/4", seed=11)
    record2 = run_sample(spec, suite, tmp_path, max_attempts=2)
    suite1 = mock_backend_suite(resolution=16, channels=4)
    record1 = run_sample(spec, suite1, tmp_path, max_attempts=1)
    assert record2.attempt == 2
    assert record1.attempt == 1
    assert record1.instruction != record2.instruction or record1.edited_image != record2.edited_image


# --- run_pipeline -------------------------------------------------------------


def test_pipeline_two_runs_byte_identical(tmp_path):
    kwargs = dict(n_samples=6, seed=99, max_attempts=2)
    m1 = run_pipeline(tmp_path / "run1", backends=mock_backend_suite(16, 4), **kwargs)
    m2 = run_pipeline(tmp_path / "run2", backends=mock_backend_suite(16, 4), **kwargs)
    assert m1.read_bytes() == m2.read_bytes()
    records, malformed = load_manifest(m1)
    assert not malformed
    assert len(records) == 6
    assert {r.status for r in records} == {"ok"}
    assert len({r.id for r in records}) == 6


def test_pipeline_workers_do_not_change_output(tmp_path):
    def outputs(out_dir):
        return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}

    for script, verdicts in enumerate([(True,), (True, False) * 10, (False, True, False)]):
        kwargs = dict(n_samples=6, seed=5, max_attempts=3)
        sequential = tmp_path / f"sequential{script}"
        run_pipeline_sequential(sequential, backends=mock_backend_suite(16, 4, verdicts=verdicts), **kwargs)
        want = outputs(sequential)
        assert sum(name.endswith(".nvx") for name in want) == 6 * 5
        for workers in (1, 2, 4):
            out_dir = tmp_path / f"workers{workers}-{script}"
            run_pipeline(out_dir, workers=workers, backends=mock_backend_suite(16, 4, verdicts=verdicts), **kwargs)
            assert outputs(out_dir) == want, (verdicts, workers)


def test_pipeline_starts_no_sample_two_per_worker_ahead_of_the_manifest(tmp_path):
    for workers in (1, 2):
        manifest = tmp_path / f"workers{workers}" / "manifest.jsonl"
        leads = []

        class Spy(MockInstructionBackend):
            def propose(self, image_ref, seed):
                index = int(image_ref.rsplit("/", 1)[1])
                leads.append(index - manifest.read_bytes().count(b"\n"))
                if index == 0:
                    # hold the first sample, so only the bound keeps the others from running ahead
                    threading.Event().wait(timeout=0.3)
                return super().propose(image_ref, seed)

        suite = mock_backend_suite(16, 4)
        suite.instruction = Spy()
        run_pipeline(manifest.parent, n_samples=12, seed=2, workers=workers, backends=suite)
        assert len(leads) == 12
        assert max(leads) < 2 * workers, (workers, leads)


def test_pipeline_interrupt_keeps_the_finished_prefix(tmp_path):
    kwargs = dict(n_samples=6, seed=3, max_attempts=2)
    full = run_pipeline(tmp_path / "full", backends=mock_backend_suite(16, 4), **kwargs).read_bytes()
    prefix = b"".join(full.splitlines(keepends=True)[:3])

    class InterruptAtSample3(MockGeneratorBackend):
        def generate(self, image_ref, seed):
            if image_ref.startswith("mock-image://3/000003"):
                raise KeyboardInterrupt
            return super().generate(image_ref, seed)

    for workers in (1, 2):
        suite = mock_backend_suite(16, 4)
        suite.generator = InterruptAtSample3(16, 4)
        out_dir = tmp_path / f"interrupted{workers}"
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(out_dir, backends=suite, workers=workers, **kwargs)
        assert (out_dir / "manifest.jsonl").read_bytes() == prefix, workers


def test_mock_filter_verdict_depends_on_attempt_only():
    judge = mock_backend_suite(16, 4, verdicts=(False, True, False)).quality_filter.judge
    verdicts = [judge(ManifestRecord(id=i, status="ok", attempt=a))[0]
                for a in (3, 1, 4, 2, 1) for i in ("a", "b")]
    assert verdicts == [False] * 6 + [True, True, False, False]


def test_pipeline_rejects_manifest_with_directories(tmp_path):
    with pytest.raises(ValueError):
        run_pipeline(tmp_path, n_samples=1, seed=0, backends=mock_backend_suite(16, 4),
                     manifest_name="sub/dir.jsonl")


def test_pipeline_rejects_bad_arguments_before_writing(tmp_path):
    out_dir = tmp_path / "run"
    manifest = run_pipeline(out_dir, n_samples=1, seed=0, backends=mock_backend_suite(16, 4))
    before = manifest.read_bytes()
    # describes itself like a policy, but is not one
    duck = SimpleNamespace(describe=lambda: {"kind": "threshold", "tau": 3, "connectivity": 26}, tau=3,
                           connectivity=26)
    for bad, error, named in (({"n_samples": 2.5}, ValueError, "n_samples"), ({"workers": 1.5}, ValueError, "workers"),
                              ({"max_attempts": True}, ValueError, "max_attempts"),
                              ({"manifest_name": ".."}, ValueError, "manifest name"),
                              ({"manifest_name": "."}, ValueError, "manifest name"),
                              ({"manifest_name": ""}, ValueError, "manifest name"),
                              ({"seed": 1.0}, ValueError, "seed"), ({"seed": True}, ValueError, "seed"),
                              ({"seed": "1"}, ValueError, "seed"),
                              ({"merge_policy": "abc"}, TypeError, "unknown selection policy"),
                              ({"merge_policy": None}, TypeError, "unknown selection policy"),
                              ({"merge_policy": duck}, TypeError, "unknown selection policy")):
        kwargs = {"n_samples": 1, "seed": 0, "backends": mock_backend_suite(16, 4)} | bad
        with pytest.raises(error, match=named):
            run_pipeline(out_dir, **kwargs)
        # an earlier run's manifest is neither truncated nor appended to
        assert manifest.read_bytes() == before, bad
        with pytest.raises(error):
            run_pipeline(tmp_path / "fresh", **kwargs)
        assert not (tmp_path / "fresh").exists(), bad
    # the connectivity is the policy's, checked when the policy is built
    for build in (lambda: Threshold(connectivity=7), lambda: TopK(1, 6.0), lambda: Threshold(connectivity=True)):
        with pytest.raises(ValueError, match="connectivity"):
            build()
    assert type(TopK(1, np.int64(6)).connectivity) is int


def test_pipeline_stores_a_numpy_policy_as_its_ints(tmp_path):
    kwargs = {"n_samples": 2, "seed": 1, "backends": mock_backend_suite(16, 4)}
    plain = run_pipeline(tmp_path / "plain", merge_policy=TopK(1, 6), **kwargs).read_bytes()
    assert run_pipeline(tmp_path / "numpy", merge_policy=TopK(np.int64(1), np.int64(6)), **kwargs).read_bytes() == plain


def test_old_positional_connectivity_calls_raise(tmp_path):
    """``connectivity`` is the policy's now; a call that still passes it by
    position fails rather than landing in the next parameter."""
    s = make_sparse([(0, 0, 0)], 8)
    with pytest.raises(TypeError):
        voxel_merge(s, s, 6, TopK(1))
    spec = SampleSpec(id="s", image_ref="mock-image://old/0", seed=1)
    with pytest.raises(TypeError):
        run_sample(spec, mock_backend_suite(16, 4), tmp_path / "out", TopK(1), 6)
    assert not (tmp_path / "out").exists()


def test_pipeline_topk_policy(tmp_path):
    m = run_pipeline(tmp_path, n_samples=2, seed=1, backends=mock_backend_suite(16, 4),
                     merge_policy=TopK(1))
    records, _ = load_manifest(m)
    for r in records:
        assert r.policy["kind"] == "top_k"
        assert len(r.mask_selected_sizes) <= 1
