"""voxedit: sparse-voxel 3D editing toolkit.

Region-aware diff/merge of sparse voxel structures and their per-voxel
latents, a flow-based edit integrator with closed-form test oracles,
desk-scale metrics, and a mock-backed dataset-construction pipeline.
"""
from .errors import (
    BadMagic,
    ChannelMismatch,
    ChecksumMismatch,
    DimensionMismatch,
    EmptyBounds,
    EmptySet,
    EmptySlot,
    InstructionError,
    MalformedNvx,
    MissingLatent,
    MissingSlot,
    NonFiniteGeometry,
    NonFiniteState,
    NvxError,
    OutOfBounds,
    ResolutionMismatch,
    SlotSyntaxError,
    TruncatedFile,
    UnknownAction,
    UnsupportedVersion,
    VoxeditError,
)
from .flow import (
    AffineGaussianVelocityOracle,
    DeltaVelocityOracle,
    FlowEditConfig,
    VelocityOracle,
    cfg_combine,
    euler_sample,
    flowedit_run,
    linear_schedule,
)
from .grid import (
    SparseStructure,
    StructuredLatent,
    coords_from_linear,
    linear_index,
    make_latent,
    make_sparse,
    membership,
)
from .merge import (
    ComponentSet,
    FlipMask,
    Threshold,
    TopK,
    apply_flip,
    diff_xor,
    label_components,
    select_components,
    slat_merge,
    voxel_merge,
)
from .mesh import TriMesh, extract_surface_mesh, load_obj, make_mesh, save_obj, voxelize_mesh
from .metrics import ConsistencyReport, chamfer, chamfer_voxels, occupancy_iou, region_consistency
from .nvx import read_nvx, write_nvx
from .pipeline import (
    BackendSuite,
    EditInstruction,
    ManifestRecord,
    append_record,
    load_manifest,
    mock_backend_suite,
    render_instruction,
    run_pipeline,
    run_sample,
)

__version__ = "0.1.0"
