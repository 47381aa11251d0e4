"""Exception types shared across the toolkit."""


class VoxeditError(Exception):
    """Base class for all voxedit errors."""


class OutOfBounds(VoxeditError):
    """A voxel coordinate lies outside the grid."""

    def __init__(self, coord, resolution):
        self.coord = tuple(int(c) for c in coord)
        self.resolution = int(resolution)
        super().__init__(f"coordinate {self.coord} out of bounds for resolution {self.resolution}")


class ResolutionMismatch(VoxeditError):
    """Two structures with different grid resolutions were combined."""


class ChannelMismatch(VoxeditError):
    """Two latent sets with different channel counts were combined."""


class MissingLatent(VoxeditError):
    """A merge required a latent vector that the designated side does not carry."""

    def __init__(self, coord, side):
        self.coord = tuple(int(c) for c in coord)
        self.side = side
        super().__init__(f"no {side} latent for voxel {self.coord}")


class EmptyBounds(VoxeditError):
    """A voxelization bounding box has non-positive extent."""


class NonFiniteGeometry(VoxeditError):
    """A voxelization bound, or a vertex that a triangle uses, is NaN or infinite."""


class EmptySet(VoxeditError):
    """A metric was asked to evaluate an empty point set."""


class DimensionMismatch(VoxeditError):
    """Vector operands have different lengths."""


class NonFiniteState(VoxeditError):
    """An ODE trajectory produced NaN or infinity."""


# --- NVX codec ---------------------------------------------------------


class NvxError(VoxeditError):
    """Base class for NVX file format errors."""


class BadMagic(NvxError):
    pass


class UnsupportedVersion(NvxError):
    pass


class TruncatedFile(NvxError):
    pass


class ChecksumMismatch(NvxError):
    pass


class MalformedNvx(NvxError):
    """Structurally invalid payload in a checksum-valid file."""


# --- instruction templating --------------------------------------------


class InstructionError(VoxeditError):
    pass


class UnknownAction(InstructionError):
    pass


class MissingSlot(InstructionError):
    pass


class EmptySlot(InstructionError):
    pass


class SlotSyntaxError(InstructionError):
    """A slot value holds a line break, which the one-line instruction cannot."""
