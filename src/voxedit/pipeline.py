"""Dataset-construction pipeline: instruction templating, pluggable
model backends (deterministic mocks by default), merge + filter stages
with re-sampling, and a JSONL manifest.

Every external model sits behind a small interface; the shipped mocks
are pure functions of their inputs and seeds, so a whole pipeline run is
reproducible byte for byte.  Real HTTP clients can implement the same
interfaces without touching the orchestration.
"""
from __future__ import annotations

import abc
import functools
import hashlib
import json
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from ._threads import helper
from .errors import ChannelMismatch, EmptySlot, InstructionError, MissingSlot, SlotSyntaxError, UnknownAction
from .grid import SparseStructure, StructuredLatent, check_resolution
from .merge import DEFAULT_CONNECTIVITY, Threshold, slat_merge, voxel_merge
from .nvx import write_nvx

# --- instruction templating ---------------------------------------------

ACTION_SLOTS = {
    "add": ("element", "location"),
    "remove": ("target",),
    "replace": ("original", "replacement"),
}

_RENDERERS = {
    "add": lambda s: f"Add {s['element']} to {s['location']}",
    "remove": lambda s: f"Remove {s['target']}",
    "replace": lambda s: f"Replace {s['original']} with {s['replacement']}",
}


@dataclass(frozen=True)
class EditInstruction:
    action: str
    slots: dict
    rendered: str

    def to_json_dict(self) -> dict:
        return {
            "action": self.action,
            "slots": {k: self.slots[k] for k in ACTION_SLOTS[self.action]},
            "rendered": self.rendered,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "EditInstruction":
        ins = render_instruction(obj["action"], obj["slots"])
        if obj.get("rendered") != ins.rendered:
            raise InstructionError(f"stored rendering {obj.get('rendered')!r} disagrees with slots")
        return ins


def render_instruction(action: str, slots: dict) -> EditInstruction:
    """Fill one of the three instruction grammars and validate the slots."""
    action = str(action).lower()
    if action not in ACTION_SLOTS:
        raise UnknownAction(f"action must be one of {sorted(ACTION_SLOTS)}, got {action!r}")
    wanted = ACTION_SLOTS[action]
    for name in wanted:
        if name not in slots:
            raise MissingSlot(f"{action!r} instruction needs slot {name!r}")
        value = slots[name]
        if not isinstance(value, str) or not value.strip():
            raise EmptySlot(f"slot {name!r} must be a non-empty string")
        if "\n" in value or "\r" in value:
            raise SlotSyntaxError(f"slot {name!r} must not contain newlines")
    unknown = set(slots) - set(wanted)
    if unknown:
        raise MissingSlot(f"unexpected slots {sorted(unknown)} for action {action!r}")
    clean = {k: slots[k] for k in wanted}
    return EditInstruction(action=action, slots=clean, rendered=_RENDERERS[action](clean))


# --- manifest records -----------------------------------------------------

STATUSES = ("ok", "filtered", "failed")


@dataclass
class ManifestRecord:
    id: str
    status: str = "failed"
    attempt: int = 1
    instruction: EditInstruction | None = None
    source_image: str | None = None
    edited_image: str | None = None
    source_structure: str | None = None
    edited_structure: str | None = None
    merged_structure: str | None = None
    source_slat: str | None = None
    merged_slat: str | None = None
    voxel_sum_src: int | None = None
    voxel_sum_tgt: int | None = None
    mask_component_sizes: list = field(default_factory=list)
    mask_selected_sizes: list = field(default_factory=list)
    policy: dict | None = None
    filter_reason: str | None = None
    error: str | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError(f"status must be one of {STATUSES}, got {self.status!r}")
        if self.attempt < 1:
            raise ValueError("attempt must be >= 1")

    def to_json_dict(self) -> dict:
        out = {name: getattr(self, name) for name in _RECORD_FIELDS}
        if self.instruction is not None:
            out["instruction"] = self.instruction.to_json_dict()
        return out | {key: self.extra[key] for key in sorted(self.extra)}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ManifestRecord":
        known = {k: obj[k] for k in _RECORD_FIELDS if k in obj}
        if known.get("instruction") is not None:
            known["instruction"] = EditInstruction.from_json_dict(known["instruction"])
        extra = {k: v for k, v in obj.items() if k not in _RECORD_FIELDS}
        return cls(**known, extra=extra)


# manifest key order: the declared fields, with ``extra`` spread after them
_RECORD_FIELDS = tuple(f.name for f in fields(ManifestRecord) if f.name != "extra")


@dataclass(frozen=True)
class MalformedLine:
    line_no: int
    message: str


def record_to_line(record: ManifestRecord) -> str:
    return json.dumps(record.to_json_dict(), ensure_ascii=False, separators=(",", ":")) + "\n"


def append_record(path, record: ManifestRecord) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(record_to_line(record))


def load_manifest(path) -> tuple[list[ManifestRecord], list[MalformedLine]]:
    """Read a JSONL manifest; bad lines are skipped but always reported."""
    records: list[ManifestRecord] = []
    malformed: list[MalformedLine] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise ValueError("line is not a JSON object")
                records.append(ManifestRecord.from_json_dict(obj))
            except Exception as exc:  # noqa: BLE001 - report, never crash the load
                malformed.append(MalformedLine(line_no=line_no, message=str(exc)))
    return records, malformed


# --- backend interfaces ---------------------------------------------------


class InstructionBackend(abc.ABC):
    @abc.abstractmethod
    def propose(self, image_ref: str, seed: int) -> EditInstruction:
        ...


class ImageEditorBackend(abc.ABC):
    """Edits a source image; must be thread-safe (see :class:`BackendSuite`)."""

    @abc.abstractmethod
    def edit(self, image_ref: str, instruction: EditInstruction, seed: int) -> str:
        ...


class GeneratorBackend(abc.ABC):
    """Generates a structure and its latents from an image; must be
    thread-safe (see :class:`BackendSuite`)."""

    @abc.abstractmethod
    def generate(self, image_ref: str, seed: int) -> tuple[SparseStructure, StructuredLatent]:
        ...


class FilterBackend(abc.ABC):
    @abc.abstractmethod
    def judge(self, record: ManifestRecord) -> tuple[bool, str]:
        ...


@dataclass
class BackendSuite:
    """The four backends of a pipeline run.  Each sample calls them from two
    threads, even at ``workers=1``: :func:`run_sample` generates the source
    on its helper thread while the calling thread edits the image and
    generates the target, so ``generate`` runs on two threads at once.
    They must be thread-safe; the shipped mocks are stateless."""

    instruction: InstructionBackend
    image_editor: ImageEditorBackend
    generator: GeneratorBackend
    quality_filter: FilterBackend


def derive_seed(*parts) -> int:
    """Stable 64-bit sub-seed from arbitrary labeled parts."""
    text = "\x1f".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "little")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


# rows of float64 normals drawn at a time before the cast to float32
_DRAW_ROWS = 4096


def _standard_normal_f32(rng: np.random.Generator, rows: int, channels: int) -> np.ndarray:
    """``rng.standard_normal((rows, channels)).astype(np.float32)``, bit for
    bit, without the full-size float64 block: the generator draws one
    stream, so drawing it in row chunks gives the same values."""
    out = np.empty((rows, channels), dtype=np.float32)
    buf = np.empty((min(rows, _DRAW_ROWS), channels))
    for i in range(0, rows, _DRAW_ROWS):
        chunk = buf[: min(_DRAW_ROWS, rows - i)]
        rng.standard_normal(out=chunk)
        out[i:i + len(chunk)] = chunk
    return out


# --- deterministic mocks ---------------------------------------------------

_ELEMENTS = ("a red hat", "a small flag", "a round window", "a side pouch", "an antenna")
_LOCATIONS = ("the roof", "the left arm", "the front panel", "the top edge", "the base")
_TARGETS = ("the left wing", "the rear fin", "the small handle", "the top spike", "the side plate")
_REPLACEMENTS = ("a torch", "a shield", "a wooden beam", "a glass dome", "a short mast")
# the pool each slot is drawn from, in ACTION_SLOTS order
_SLOT_POOLS = {"add": (_ELEMENTS, _LOCATIONS), "remove": (_TARGETS,), "replace": (_TARGETS, _REPLACEMENTS)}


class MockInstructionBackend(InstructionBackend):
    """Seeded template filler standing in for a vision-language model."""

    def propose(self, image_ref: str, seed: int) -> EditInstruction:
        rng = _rng(derive_seed("instruction", image_ref, seed))
        action = ("add", "remove", "replace")[rng.integers(3)]
        slots = {name: pool[rng.integers(len(pool))] for name, pool in zip(ACTION_SLOTS[action], _SLOT_POOLS[action])}
        return render_instruction(action, slots)


class MockImageEditor(ImageEditorBackend):
    """Derives an edited-image token from the source token and instruction."""

    def edit(self, image_ref: str, instruction: EditInstruction, seed: int) -> str:
        digest = hashlib.sha256(
            f"{image_ref}\x1f{instruction.rendered}\x1f{seed}".encode("utf-8")
        ).hexdigest()[:16]
        return f"{image_ref}::edit::{digest}"


class MockGeneratorBackend(GeneratorBackend):
    """Synthesizes a blobby structure + latents from an image token.

    Tokens produced by :class:`MockImageEditor` regenerate the source
    shape and then plant one sizeable edited region plus a few tiny
    specks, mimicking the noisy output of a real geometry editor.
    """

    def __init__(self, resolution: int = 32, channels: int = 8):
        self.resolution = check_resolution(resolution)
        self.channels = int(channels)
        if self.resolution < 8:
            raise ValueError(f"mock resolution must be >= 8 to hold the planted edit, got {self.resolution}")
        if self.channels < 1:
            raise ChannelMismatch("latent channel count must be >= 1")

    def _base_grid(self, token: str) -> np.ndarray:
        rng = _rng(derive_seed("generate-base", token))
        r = self.resolution
        grid = np.zeros((r, r, r), dtype=bool)
        for _ in range(int(rng.integers(2, 5))):
            size = rng.integers(r // 4, r // 2, size=3)
            lo = np.array([rng.integers(0, r - s + 1) for s in size])
            grid[lo[0]:lo[0] + size[0], lo[1]:lo[1] + size[1], lo[2]:lo[2] + size[2]] = True
        return grid

    def _plant_edit(self, grid: np.ndarray, digest: str) -> np.ndarray:
        rng = _rng(derive_seed("generate-edit", digest))
        r = self.resolution
        grid = grid.copy()
        # one significant region, flipped as a whole
        size = rng.integers(5, 9, size=3)
        lo = np.array([rng.integers(0, r - s + 1) for s in size])
        region = (slice(lo[0], lo[0] + size[0]), slice(lo[1], lo[1] + size[1]),
                  slice(lo[2], lo[2] + size[2]))
        grid[region] = ~grid[region]
        # a few single-voxel specks of spurious change
        for _ in range(int(rng.integers(2, 6))):
            x, y, z = rng.integers(0, r, size=3)
            grid[x, y, z] = not grid[x, y, z]
        return grid

    def generate(self, image_ref: str, seed: int) -> tuple[SparseStructure, StructuredLatent]:
        base_token, sep, digest = image_ref.partition("::edit::")
        grid = self._base_grid(base_token)
        if sep:
            grid = self._plant_edit(grid, digest)
        structure = SparseStructure.from_dense(grid)
        lat_rng = _rng(derive_seed("latents", image_ref, seed, self.channels))
        latents = _standard_normal_f32(lat_rng, structure.voxel_sum, self.channels)
        # from_dense coords are already canonical: no need to sort them again, and they share one key
        return structure, StructuredLatent(structure.resolution, structure.coords, latents, key=structure.key)


class MockFilterBackend(FilterBackend):
    """Scripted accept/reject verdict per attempt: attempt ``a`` of every
    sample gets ``verdicts[a - 1]``, and attempts past the end of the
    script get its last verdict.  Stateless, so the verdicts do not depend
    on the order in which samples are judged."""

    def __init__(self, verdicts=(True,)):
        self.verdicts = [bool(v) for v in verdicts]

    def judge(self, record: ManifestRecord) -> tuple[bool, str]:
        ok = self.verdicts[min(record.attempt - 1, len(self.verdicts) - 1)]
        return ok, "mock filter accepted" if ok else "mock filter rejected"


def mock_backend_suite(resolution: int = 32, channels: int = 8, verdicts=(True,)) -> BackendSuite:
    return BackendSuite(
        instruction=MockInstructionBackend(),
        image_editor=MockImageEditor(),
        generator=MockGeneratorBackend(resolution=resolution, channels=channels),
        quality_filter=MockFilterBackend(verdicts=verdicts),
    )


# --- orchestration ----------------------------------------------------------


@dataclass(frozen=True)
class SampleSpec:
    id: str
    image_ref: str
    seed: int


def run_sample(
    sample: SampleSpec,
    backends: BackendSuite,
    out_dir,
    merge_policy=None,
    connectivity: int = DEFAULT_CONNECTIVITY,
    max_attempts: int = 1,
) -> ManifestRecord:
    """Run the full editing chain for one sample, re-sampling on filter
    rejection up to ``max_attempts`` times.

    Stages that do not depend on each other run at the same time on one
    helper thread that this call owns and joins before it returns or
    raises: it generates the source (see :class:`BackendSuite`) and writes
    every other artifact.  The record is the one that running the stages
    in turn would give: a failure is reported at the first stage that
    fails in that order.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    if merge_policy is None:
        merge_policy = Threshold()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    with helper() as split:
        for attempt in range(1, max_attempts + 1):
            record = _run_attempt(sample, backends, out_dir, merge_policy, connectivity, attempt, split)
            if record.status != "filtered":
                break
    return record


# record field and file suffix of each artifact, in the order the record lists them
_ARTIFACTS = (
    ("source_structure", "src"),
    ("edited_structure", "tgt"),
    ("merged_structure", "merged"),
    ("source_slat", "src_slat"),
    ("merged_slat", "merged_slat"),
)


def _run_attempt(sample, backends, out_dir, policy, connectivity, attempt, split) -> ManifestRecord:
    record = ManifestRecord(
        id=sample.id,
        status="failed",
        attempt=attempt,
        source_image=sample.image_ref,
        policy={**policy.describe(), "connectivity": connectivity},
    )
    stage = "instruction"
    try:
        instruction = backends.instruction.propose(
            sample.image_ref, derive_seed(sample.seed, attempt, "instruction"))
        record.instruction = instruction

        edited = []  # the edited image ref, once the edit returns

        def edit_then_generate_target():
            edited.append(backends.image_editor.edit(
                sample.image_ref, instruction, derive_seed(sample.seed, attempt, "image_edit")))
            return backends.generator.generate(edited[0], derive_seed(sample.seed, attempt, "generate_target"))

        target, source = split(edit_then_generate_target, functools.partial(
            backends.generator.generate, sample.image_ref, derive_seed(sample.seed, attempt, "generate_source")))
        stage = "generate_source"
        s_src, z_src = source.result()
        stage = "image_edit"
        if edited:
            stage, record.edited_image = "generate_target", edited[0]
        s_tgt, z_tgt = target.result()

        stage = "voxel_merge"
        merged, mask = voxel_merge(s_src, s_tgt, connectivity, policy)

        stage = "slat_merge"
        merged_slat = slat_merge(z_src, z_tgt, mask, merged)

        stage = "write_artifacts"
        paths = [f"{sample.id}.{suffix}.nvx" for _, suffix in _ARTIFACTS]
        written = split(*(functools.partial(write_nvx, payload, out_dir / path)
                          for payload, path in zip((s_src, s_tgt, merged, z_src, merged_slat), paths)))
        # paths are recorded in artifact order, up to the first failed write
        for (name, _), path, done in zip(_ARTIFACTS, paths, written):
            done.result()
            setattr(record, name, path)
        record.voxel_sum_src = s_src.voxel_sum
        record.voxel_sum_tgt = s_tgt.voxel_sum
        record.mask_component_sizes = list(mask.component_sizes)
        record.mask_selected_sizes = list(mask.selected_sizes)

        stage = "filter"
        accepted, reason = backends.quality_filter.judge(record)
        record.filter_reason = reason
        record.status = "ok" if accepted else "filtered"
    except Exception as exc:  # noqa: BLE001 - failures become records, not crashes
        record.status = "failed"
        record.error = f"{stage}: {type(exc).__name__}: {exc}"
    return record


def run_pipeline(
    out_dir,
    n_samples: int,
    backends: BackendSuite | None = None,
    merge_policy=None,
    connectivity: int = DEFAULT_CONNECTIVITY,
    seed: int = 0,
    max_attempts: int = 1,
    workers: int = 1,
    manifest_name: str = "manifest.jsonl",
    image_refs: list | None = None,
) -> Path:
    """Process ``n_samples`` independent samples and append their records,
    in sample order, to a fresh JSONL manifest.  Returns the manifest path.

    ``workers`` threads run samples, each with its own helper thread (see
    :func:`run_sample`), at most ``2 * workers`` samples ahead of the
    manifest, so a long run builds no backlog; this thread appends each
    record as soon as it and every lower-indexed record are done, so the
    manifest bytes do not depend on ``workers``.  If a sample raises past its own failure handling (a
    crash, or Ctrl-C), the manifest keeps exactly the records before it:
    samples not yet started are cancelled, the run waits for those in
    flight, and none of theirs is written.
    """
    if backends is None:
        backends = mock_backend_suite()
    if image_refs is not None and len(image_refs) < n_samples:
        raise ValueError(f"{len(image_refs)} image refs for {n_samples} samples")
    if Path(manifest_name).name != manifest_name:
        # record paths are relative to the manifest, so it must sit in out_dir
        raise ValueError(f"manifest name must be a bare filename, got {manifest_name!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    if n_samples < 0:
        raise ValueError(f"n_samples must be >= 0, got {n_samples}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / manifest_name
    manifest_path.write_text("", encoding="utf-8")

    def specs():
        for i in range(n_samples):
            ref = image_refs[i] if image_refs else f"mock-image://{seed}/{i:06d}"
            yield SampleSpec(id=f"sample-{i:06d}", image_ref=ref, seed=derive_seed(seed, i))

    def work(spec: SampleSpec) -> ManifestRecord:
        return run_sample(spec, backends, out_dir, merge_policy, connectivity, max_attempts)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        in_flight = deque()
        try:
            for spec in specs():
                if len(in_flight) == 2 * workers:
                    append_record(manifest_path, in_flight.popleft().result())
                in_flight.append(pool.submit(work, spec))
            while in_flight:
                append_record(manifest_path, in_flight.popleft().result())
        finally:
            for future in in_flight:
                future.cancel()
    return manifest_path
